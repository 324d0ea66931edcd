// One CLI over three backends: run each analysis command on the local
// analyzer, on a Unix-socket daemon, on a TCP daemon behind a shared
// secret and, for `batch --manifest`, on a two-worker fleet, and pin
// that the outputs agree. Also pinned once for every command that can
// talk to a daemon: the exit contract (3 when no daemon answers, 4 when
// it hangs up mid-reply), and that junk numbers and flags the command or
// its backend does not use are usage errors (2).
//
// MIRA_CLI_PATH is injected by CMake, so the tests drive the binary they
// were built with.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "cli_harness.h"
#include "server/protocol.h"
#include "support/cache_store.h"
#include "support/hash.h"
#include "support/socket.h"
#include "support/string_utils.h"

namespace mira {
namespace {

using namespace cli_harness;

constexpr const char *kSecret = "cli-test-secret";

/// The output with its timings taken out: the time on the `analyzed` /
/// `simulated` line, the seconds column of status tables, and the
/// wall-time suffix of their summary line.
std::string withoutTimings(const std::string &text) {
  static const std::regex took(R"( in [0-9]+\.[0-9]{4} s \()");
  static const std::regex seconds(R"(\| +[0-9]+\.[0-9]{4}\n)");
  static const std::regex wall(R"(, [0-9]+\.[0-9]{4} s (on|via) [^\n]*\n)");
  std::string out = std::regex_replace(text, took, " (");
  out = std::regex_replace(out, seconds, "|\n");
  return std::regex_replace(out, wall, "\n");
}

std::vector<std::string> with(std::vector<std::string> args,
                              const std::vector<std::string> &extra) {
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

/// Run `args` (which must succeed) locally, on a fresh Unix daemon and
/// on a fresh TCP daemon that demands a secret: every run is cold.
/// Returns the three outputs in that order.
std::vector<std::string>
runOnEveryBackend(const TempDir &dir, const std::string &tag,
                  const std::vector<std::string> &args) {
  std::vector<std::string> outputs;
  const auto run = [&](const std::vector<std::string> &argv,
                       const std::string &backend) {
    const fs::path log = dir.path / (tag + "_" + backend + ".log");
    EXPECT_EQ(runCli(argv, log), 0) << backend << ": " << slurp(log);
    outputs.push_back(slurp(log));
  };
  run(args, "local");
  {
    Daemon daemon;
    const fs::path socket = dir.path / (tag + ".sock");
    daemon.start({"--socket", socket.string()},
                 dir.path / (tag + "_unix_daemon.log"));
    run(with(args, {"--socket", socket.string()}), "unix");
  }
  {
    Daemon daemon;
    daemon.start({"--listen", "127.0.0.1:0", "--secret", kSecret},
                 dir.path / (tag + "_tcp_daemon.log"));
    run(with(args, {"--connect", "127.0.0.1:" + std::to_string(daemon.port),
                    "--secret", kSecret}),
        "tcp");
  }
  return outputs;
}

TEST(CliBackends, AnalyzeWithPythonAgreesApartFromTiming) {
  TempDir dir("analyze");
  const auto outputs = runOnEveryBackend(
      dir, "analyze", {"analyze", "@minife", "--emit-python"});
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_NE(outputs[0].find("(computed)"), std::string::npos) << outputs[0];
  EXPECT_NE(outputs[0].find("def "), std::string::npos) << outputs[0];
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_NE(outputs[i].find("(computed)"), std::string::npos) << outputs[i];
    EXPECT_EQ(withoutTimings(outputs[i]), withoutTimings(outputs[0]));
  }
}

/// Occurrences of `needle` in `text`.
std::size_t countOf(const std::string &text, const std::string &needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++count;
  return count;
}

TEST(CliBackends, SimulateCountersAgree) {
  TempDir dir("simulate");
  // A model-stage warning must reach every backend: the local analyzer
  // computes the same value with or without a cache, so simulate prints
  // the same diagnostics as a daemon.
  const fs::path ratio = dir.path / "ratio.mc";
  writeFile(ratio, "double f(int n) {\n"
                   "  double acc = 0.0;\n"
                   "  for (int i = 0; i < n; i++) {\n"
                   "    #pragma @Annotation {ratio:abc}\n"
                   "    if (acc < 3.0) {\n"
                   "      acc = acc + 1.0;\n"
                   "    }\n"
                   "  }\n"
                   "  return acc;\n"
                   "}\n");
  const struct {
    std::string tag;
    std::vector<std::string> args;
    std::size_t warnings;
  } cases[] = {
      {"fig5",
       {"simulate", "@fig5", "--function", "fig5_main", "--sim-arg", "64"},
       0},
      {"ratio",
       {"simulate", ratio.string(), "--function", "f", "--sim-arg", "10"},
       1},
  };
  for (const auto &c : cases) {
    auto outputs = runOnEveryBackend(dir, c.tag, c.args);
    // Locally again: keeping nothing, and with a disk level.
    const auto local = [&](const std::string &backend,
                           const std::vector<std::string> &extra) {
      const fs::path log = dir.path / (c.tag + "_" + backend + ".log");
      EXPECT_EQ(runCli(with(c.args, extra), log), 0) << slurp(log);
      outputs.push_back(slurp(log));
    };
    local("nocache", {"--no-cache"});
    local("disk", {"--cache-dir", (dir.path / (c.tag + "_cache")).string()});
    ASSERT_EQ(outputs.size(), 5u);
    EXPECT_NE(outputs[0].find("total instructions"), std::string::npos)
        << outputs[0];
    EXPECT_EQ(countOf(outputs[0], "warning: invalid ratio annotation 'abc'"),
              c.warnings)
        << outputs[0];
    for (std::size_t i = 1; i < outputs.size(); ++i)
      EXPECT_EQ(withoutTimings(outputs[i]), withoutTimings(outputs[0]))
          << c.tag << " run " << i;
  }
}

TEST(CliBackends, ColdBatchTablesAgree) {
  TempDir dir("batch");
  const auto outputs = runOnEveryBackend(
      dir, "batch", {"batch", "@stream", "@dgemm", "@fig5", "--no-vectorize"});
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_NE(outputs[0].find("3 sources, 0 failures, cache 0 hit / 3 miss"),
            std::string::npos)
      << outputs[0];
  for (std::size_t i = 1; i < outputs.size(); ++i)
    EXPECT_EQ(withoutTimings(outputs[i]), withoutTimings(outputs[0]));
}

TEST(CliBackends, ColdCoverageAgreesForTheSuiteAndForGivenSources) {
  TempDir dir("coverage");
  // No sources: the Table I suite plus the fig series.
  const auto suite = runOnEveryBackend(dir, "suite", {"coverage"});
  ASSERT_EQ(suite.size(), 3u);
  EXPECT_NE(suite[0].find("loops p/o"), std::string::npos) << suite[0];
  EXPECT_NE(suite[0].find("15 coverage (0 from cached summaries)"),
            std::string::npos)
      << suite[0];
  for (std::size_t i = 1; i < suite.size(); ++i)
    EXPECT_EQ(withoutTimings(suite[i]), withoutTimings(suite[0]));

  // Given sources: exactly those, and no Table I comparison.
  const auto given =
      runOnEveryBackend(dir, "given", {"coverage", "@fig5", "@stream"});
  ASSERT_EQ(given.size(), 3u);
  EXPECT_EQ(given[0].find("loops p/o"), std::string::npos) << given[0];
  EXPECT_NE(given[0].find("2 sources, 0 failures"), std::string::npos)
      << given[0];
  for (std::size_t i = 1; i < given.size(); ++i)
    EXPECT_EQ(withoutTimings(given[i]), withoutTimings(given[0]));
}

TEST(CliBackends, FailedSourcesAreNamedBeforeTheirDiagnostics) {
  TempDir dir("failed");
  const std::string bad = (dir.path / "bad.mc").string();
  const std::string bad2 = (dir.path / "bad2.mc").string();
  writeFile(bad, "int f( {\n");
  writeFile(bad2, "double g() { return 1.0 }\n");
  // Each source's header, then its first diagnostic.
  const std::string badFailure = "analysis of " + bad +
                                 " failed:\n1:8: error: expected parameter "
                                 "type";
  const std::string bad2Failure = "analysis of " + bad2 +
                                  " failed:\n1:25: error: expected ';' "
                                  "after return";
  for (const std::string command : {"batch", "coverage"}) {
    const std::vector<std::string> args = {command, bad, bad2};
    const fs::path local = dir.path / (command + "_local.log");
    EXPECT_EQ(runCli(args, local), 1) << slurp(local);
    Daemon daemon;
    const fs::path socket = dir.path / (command + ".sock");
    daemon.start({"--socket", socket.string()},
                 dir.path / (command + "_daemon.log"));
    const fs::path served = dir.path / (command + "_unix.log");
    EXPECT_EQ(runCli(with(args, {"--socket", socket.string()}), served), 1)
        << slurp(served);
    for (const fs::path &log : {local, served}) {
      const std::string output = slurp(log);
      EXPECT_EQ(countOf(output, badFailure), 1u) << output;
      EXPECT_EQ(countOf(output, bad2Failure), 1u) << output;
      EXPECT_EQ(countOf(output, " failed:\n"), 2u) << output;
    }
    EXPECT_EQ(withoutTimings(slurp(served)), withoutTimings(slurp(local)))
        << command;
  }
}

TEST(CliBackends, ManifestBatchIsByteIdenticalOnEveryBackend) {
  TempDir dir("manifest");
  writeCorpus(dir.path / "corpus", 6);
  const fs::path manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", (dir.path / "corpus").string(),
                    "--out", manifest.string()},
                   dir.path / "build.log"),
            0);
  const std::vector<std::string> base = {"batch", "--manifest",
                                         manifest.string()};
  const auto report = [&](const std::string &name) {
    return (dir.path / (name + ".report")).string();
  };
  const auto cache = [&](const std::string &name) {
    return (dir.path / (name + "_cache")).string();
  };

  ASSERT_EQ(runCli(with(base, {"--cache-dir", cache("local"), "--report",
                               report("local")}),
                   dir.path / "local.log"),
            0)
      << slurp(dir.path / "local.log");

  Daemon unixDaemon, tcpDaemon, workerA, workerB;
  const fs::path socket = dir.path / "daemon.sock";
  ASSERT_TRUE(unixDaemon.start(
      {"--socket", socket.string(), "--cache-dir", cache("unix")},
      dir.path / "unix_daemon.log"));
  ASSERT_TRUE(tcpDaemon.start({"--listen", "127.0.0.1:0", "--secret", kSecret,
                               "--cache-dir", cache("tcp")},
                              dir.path / "tcp_daemon.log"));
  for (Daemon *worker : {&workerA, &workerB})
    ASSERT_TRUE(worker->start({"--listen", "127.0.0.1:0", "--secret", kSecret,
                               "--cache-dir",
                               cache(worker == &workerA ? "wa" : "wb")},
                              dir.path / (worker == &workerA ? "wa.log"
                                                             : "wb.log")));
  const auto endpoint = [](const Daemon &daemon) {
    return "127.0.0.1:" + std::to_string(daemon.port);
  };

  ASSERT_EQ(runCli(with(base, {"--socket", socket.string(), "--report",
                               report("unix")}),
                   dir.path / "unix.log"),
            0)
      << slurp(dir.path / "unix.log");
  ASSERT_EQ(runCli(with(base, {"--connect", endpoint(tcpDaemon), "--secret",
                               kSecret, "--report", report("tcp")}),
                   dir.path / "tcp.log"),
            0)
      << slurp(dir.path / "tcp.log");
  ASSERT_EQ(runCli(with(base, {"--workers",
                               endpoint(workerA) + "," + endpoint(workerB),
                               "--shard-count", "2", "--secret", kSecret,
                               "--report", report("fleet")}),
                   dir.path / "fleet.log"),
            0)
      << slurp(dir.path / "fleet.log");

  // Reports and stdouts: byte-identical on every backend.
  const std::string localReport = readFile(report("local"));
  const std::string localOut = readFile(dir.path / "local.log");
  EXPECT_NE(localOut.find("report: 6 entries, 0 failures"), std::string::npos)
      << localOut;
  for (const std::string name : {"unix", "tcp", "fleet"}) {
    EXPECT_EQ(readFile(report(name)), localReport) << name;
    EXPECT_EQ(readFile(dir.path / (name + ".log")), localOut) << name;
  }

  // Cache directories too; the fleet's is the union of its workers'.
  const auto entries = [](const std::vector<std::string> &dirs) {
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string &d : dirs)
      for (const auto &it : fs::directory_iterator(d))
        files.emplace_back(it.path().filename().string(), slurp(it.path()));
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto localEntries = entries({cache("local")});
  EXPECT_EQ(localEntries.size(), 6u);
  EXPECT_EQ(entries({cache("unix")}), localEntries);
  EXPECT_EQ(entries({cache("tcp")}), localEntries);
  EXPECT_EQ(entries({cache("wa"), cache("wb")}), localEntries);
}

/// Every command that can talk to a daemon, without its endpoint flags.
std::vector<std::vector<std::string>> daemonCommands(const fs::path &manifest) {
  return {
      {"analyze", "@fig5"},
      {"batch", "@fig5", "@stream"},
      {"batch", "--manifest", manifest.string()},
      {"coverage"},
      {"coverage", "@fig5"},
      {"simulate", "@fig5", "--function", "fig5_main"},
      {"client", "ping"},
      {"client", "shutdown"},
      {"client", "cache-stats"},
      {"client", "metrics"},
  };
}

fs::path buildManifest(const TempDir &dir) {
  writeCorpus(dir.path / "corpus", 2);
  const fs::path manifest = dir.path / "corpus.manifest";
  EXPECT_EQ(runCli({"manifest", "build", (dir.path / "corpus").string(),
                    "--out", manifest.string()},
                   dir.path / "build.log"),
            0);
  return manifest;
}

TEST(CliExitContract, NoDaemonIsThreeWithOneDiagnosticLine) {
  TempDir dir("exit3");
  const fs::path manifest = buildManifest(dir);
  const fs::path missing = dir.path / "no_such_daemon.sock";
  for (const auto &command : daemonCommands(manifest)) {
    const fs::path log = dir.path / "run.log";
    for (const std::vector<std::string> &endpoint :
         {std::vector<std::string>{"--socket", missing.string()},
          std::vector<std::string>{"--connect", "127.0.0.1:1"}}) {
      EXPECT_EQ(runCli(with(command, endpoint), log), 3)
          << command[0] << " " << endpoint[0] << ": " << slurp(log);
      EXPECT_NE(slurp(log).find("mira-cli " + command[0] + ": "),
                std::string::npos)
          << slurp(log);
    }
  }
}

TEST(CliExitContract, DaemonHangingUpMidReplyIsFour) {
  TempDir dir("exit4");
  const fs::path manifest = buildManifest(dir);
  const auto commands = daemonCommands(manifest);
  // A "daemon" that accepts, reads one request and hangs up without
  // replying, once per command.
  const fs::path socket = dir.path / "fake.sock";
  std::string error;
  net::Socket listener = net::listenUnix(socket.string(), error);
  ASSERT_TRUE(listener.valid()) << error;
  std::thread fake([&] {
    for (std::size_t i = 0; i < commands.size(); ++i) {
      net::Socket peer = net::acceptConnection(listener);
      std::string request;
      net::readFrame(peer.fd(), request, server::kMaxFrameBytes);
    }
  });
  for (const auto &command : commands) {
    const fs::path log = dir.path / "run.log";
    EXPECT_EQ(runCli(with(command, {"--socket", socket.string()}), log), 4)
        << command[0] << ": " << slurp(log);
    EXPECT_NE(slurp(log).find("mira-cli " + command[0] + ": "),
              std::string::npos)
        << slurp(log);
  }
  fake.join();
}

TEST(CliExitContract, ACacheDirThatIsAFileIsOneOnEveryCommand) {
  // The store cannot open a regular file as its directory, and running
  // uncached instead would hide that: every command that opens a store
  // exits 1, names the path, and leaves the file's bytes alone.
  TempDir dir("cache_file");
  const fs::path manifest = buildManifest(dir);
  const fs::path file = dir.path / "not_a_directory";
  writeFile(file, "precious bytes\n");
  const std::string sock = (dir.path / "unused.sock").string();
  std::vector<std::vector<std::string>> commands = {{"serve", "--socket", sock}};
  for (const auto &command : daemonCommands(manifest))
    if (command[0] != "client")
      commands.push_back(command);
  for (const auto &command : commands) {
    const fs::path log = dir.path / "run.log";
    EXPECT_EQ(runCli(with(command, {"--cache-dir", file.string()}), log), 1)
        << command[0] << ": " << slurp(log);
    EXPECT_NE(slurp(log).find("cannot open cache directory '" +
                              file.string() + "'"),
              std::string::npos)
        << command[0] << ": " << slurp(log);
    EXPECT_EQ(readFile(file), "precious bytes\n") << command[0];
  }
  EXPECT_FALSE(fs::exists(sock)) << "the refused daemon must not bind";
}

TEST(CliExitContract, AnUnwritableMetricsFileIsOne) {
  // A metrics file that cannot be written is refused before any work:
  // the daemon binds nothing, the fleet leases nothing, and neither
  // leaves its temporary behind.
  TempDir dir("metrics_file");
  const fs::path manifest = buildManifest(dir);
  const fs::path target = dir.path / "a_directory";
  fs::create_directories(target);
  const std::string sock = (dir.path / "unused.sock").string();
  for (const std::vector<std::string> &command :
       {std::vector<std::string>{"serve", "--socket", sock},
        std::vector<std::string>{"batch", "--manifest", manifest.string(),
                                 "--workers", "127.0.0.1:1"}}) {
    const fs::path log = dir.path / "run.log";
    EXPECT_EQ(
        runCliWithin(10, with(command, {"--metrics-file", target.string()}),
                     log),
        1)
        << command[0] << ": " << slurp(log);
    EXPECT_NE(slurp(log).find("cannot write metrics file '" +
                              target.string() + "'"),
              std::string::npos)
        << command[0] << ": " << slurp(log);
    EXPECT_FALSE(fs::exists(target.string() + ".tmp")) << command[0];
  }
  EXPECT_FALSE(fs::exists(sock)) << "the refused daemon must not bind";
}

/// `client <action>`'s output against the daemon at `socket`.
std::string clientOutput(const TempDir &dir, const std::string &action,
                         const std::string &socket) {
  const fs::path log = dir.path / (action + ".log");
  EXPECT_EQ(runCli({"client", action, "--socket", socket}, log), 0)
      << slurp(log);
  return slurp(log);
}

/// The `disk cache` line of `client cache-stats` after one disk miss
/// and one store, `entry` being the directory's only entry.
std::string diskLine(const fs::path &entry) {
  const std::uint64_t bytes = fs::file_size(entry);
  return "disk cache      : 0 hit / 1 miss, 1 stored, 1 entries, " +
         std::to_string(bytes) + " bytes (" + formatBytes(bytes) + ")\n";
}

/// Expect `client metrics` against the daemon at `socket` to count no
/// disk hit, one disk miss and one store: the numbers the `0 hit / 1
/// miss, 1 stored` disk line of `client cache-stats` prints.
void expectOneDiskMissAndStore(const TempDir &dir, const std::string &socket) {
  const std::string metrics = clientOutput(dir, "metrics", socket);
  for (const char *line : {"mira_analyzer_disk_hits_total 0\n",
                           "mira_analyzer_disk_misses_total 1\n",
                           "mira_analyzer_disk_stores_total 1\n"})
    EXPECT_NE(metrics.find(line), std::string::npos) << line << metrics;
}

TEST(CliClient, CacheStatsSummarizesTheMetricsReply) {
  // `client cache-stats` prints the Metrics reply in the ten lines it
  // has always had, so its disk line is the analyzer's count and agrees
  // with `client metrics`.
  TempDir dir("cache_stats");
  const fs::path cache = dir.path / "cache";
  const std::string sock = (dir.path / "daemon.sock").string();
  const fs::path log = dir.path / "run.log";
  fs::path entry;
  {
    Daemon daemon;
    ASSERT_TRUE(daemon.start({"--socket", sock, "--cache-dir", cache.string(),
                              "--threads", "2"},
                             dir.path / "daemon.log"));
    for (const std::vector<std::string> &command :
         {std::vector<std::string>{"analyze", "@fig5"},
          std::vector<std::string>{"analyze", "@fig5"},
          std::vector<std::string>{"coverage", "@fig5"},
          std::vector<std::string>{"simulate", "@fig5", "--function",
                                   "fig5_main", "--sim-arg", "64"}})
      ASSERT_EQ(runCli(with(command, {"--socket", sock}), log), 0)
          << command[0] << ": " << slurp(log);
    for (const auto &it : fs::directory_iterator(cache))
      entry = it.path();
    ASSERT_FALSE(entry.empty());
    const std::string stats = clientOutput(dir, "cache-stats", sock);
    ASSERT_EQ(stats.rfind("uptime          : ", 0), 0u) << stats;
    EXPECT_EQ(stats.substr(stats.find('\n') + 1),
              "connections     : 5\n"
              "requests served : 4\n"
              "analyze         : 2\n"
              "coverage / sim  : 1 / 1 (0 recompiles)\n"
              "sources analyzed: 4 (3 cache hits, 1 computed, 0 failed)\n"
              "protocol errors : 0\n"
              "memory entries  : 1\n" +
                  diskLine(entry) + "session threads : 2\n");
    expectOneDiskMissAndStore(dir, sock);
    ASSERT_EQ(runCli({"client", "shutdown", "--socket", sock}, log), 0);
    EXPECT_EQ(daemon.wait(), 0);
  }

  // An entry the store validates (header and FNV-1a checksum) but whose
  // one-byte payload does not decode: the daemon recomputes it, which
  // both views count as a disk miss.
  const std::string payload = "\x01";
  std::string bytes;
  bio::putU32(bytes, 0x4172694d); // "MirA"
  bio::putU32(bytes, kCacheSchemaVersion);
  bio::putU64(bytes, payload.size());
  bio::putU64(bytes, fnv1a(payload));
  writeFile(entry, bytes + payload);
  Daemon daemon;
  ASSERT_TRUE(daemon.start({"--socket", sock, "--cache-dir", cache.string(),
                            "--threads", "2"},
                           dir.path / "daemon2.log"));
  ASSERT_EQ(runCli({"analyze", "@fig5", "--socket", sock}, log), 0)
      << slurp(log);
  EXPECT_NE(slurp(log).find("(computed)"), std::string::npos) << slurp(log);
  const std::string stats = clientOutput(dir, "cache-stats", sock);
  EXPECT_NE(stats.find(diskLine(entry)), std::string::npos)
      << stats;
  expectOneDiskMissAndStore(dir, sock);
}

TEST(CliFlags, JunkNumbersAndFlagsThatDoNotApplyAreUsageErrors) {
  TempDir dir("flags");
  const fs::path manifest = buildManifest(dir);
  const std::string m = manifest.string();
  const std::string sock = (dir.path / "unused.sock").string();
  // Each case: the arguments and the flag the message must name.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      // Numbers are whole tokens, in range.
      {{"batch", "@fig5", "--threads", "four"}, "--threads"},
      {{"batch", "@fig5", "--threads", "0"}, "--threads"},
      {{"simulate", "@fig5", "--function", "fig5_main", "--sim-arg", "abc"},
       "--sim-arg"},
      {{"simulate", "@fig5", "--function", "fig5_main", "--max-instructions",
        "lots"},
       "--max-instructions"},
      {{"serve", "--socket", sock, "--max-inflight", "ten"}, "--max-inflight"},
      {{"batch", "--manifest", m, "--workers", "127.0.0.1:1",
        "--lease-timeout", "abc"},
       "--lease-timeout"},
      {{"client", "ping", "--connect", "127.0.0.1:1", "--connect-timeout",
        "1s"},
       "--connect-timeout"},
      // Flags the command does not use.
      {{"analyze", "@fig5", "--workers", "127.0.0.1:1", "--lease-timeout",
        "1"},
       "--workers"},
      {{"analyze", "@fig5", "--threads", "2"}, "--threads"},
      {{"batch", "@fig5", "--report", "r"}, "--report"},
      {{"manifest", "diff", m, m, "--cache-dir", "d"}, "--cache-dir"},
      // Flags the chosen backend does not use: the daemon and the fleet
      // own their caches and pools.
      {{"analyze", "@fig5", "--socket", sock, "--cache-dir", "d"},
       "--cache-dir"},
      {{"batch", "@fig5", "--connect", "127.0.0.1:1", "--threads", "2"},
       "--threads"},
      {{"coverage", "--socket", sock, "--no-cache"}, "--no-cache"},
      {{"simulate", "@fig5", "--function", "fig5_main", "--socket", sock,
        "--cache-limit", "1M"},
       "--cache-limit"},
      {{"batch", "--manifest", m, "--workers", "127.0.0.1:1", "--cache-limit",
        "1M"},
       "--cache-limit"},
      {{"batch", "--manifest", m, "--workers", "127.0.0.1:1", "--shard",
        "1/2"},
       "--shard"},
      {{"batch", "--manifest", m, "--socket", sock, "--connect",
        "127.0.0.1:1"},
       "--socket"},
      {{"analyze", "@fig5", "--socket", sock, "--connect-timeout", "1"},
       "--connect-timeout"},
      {{"batch", "--manifest", m, "--shard-count", "2"}, "--shard-count"},
      {{"batch", "--manifest", m, "--metrics-file", "x"}, "--metrics-file"},
  };
  for (const auto &[args, flag] : cases) {
    const fs::path log = dir.path / "run.log";
    std::ostringstream shown;
    for (const std::string &arg : args)
      shown << arg << ' ';
    EXPECT_EQ(runCli(args, log), 2) << shown.str() << slurp(log);
    EXPECT_NE(slurp(log).find(flag), std::string::npos)
        << shown.str() << slurp(log);
  }
  EXPECT_FALSE(fs::exists(sock)) << "a usage error must not start a daemon";

  // Eight commands, four client actions: the deleted surfaces are gone.
  for (const std::vector<std::string> &gone :
       {std::vector<std::string>{"coordinate", "--manifest", m},
        std::vector<std::string>{"client", "analyze", "@fig5", "--socket",
                                 sock},
        std::vector<std::string>{"coverage", "--via-daemon"},
        std::vector<std::string>{"batch", "@fig5", "--compare-serial"}})
    EXPECT_EQ(runCli(gone, dir.path / "gone.log"), 2) << gone[0];
  // So is the per-request model fan-out: requests are the only unit of
  // parallelism, locally and in the daemon.
  for (const std::vector<std::string> &gone :
       {std::vector<std::string>{"analyze", "@fig5", "--model-threads", "2"},
        std::vector<std::string>{"serve", "--socket", sock,
                                 "--model-threads", "2"}}) {
    const fs::path log = dir.path / "gone.log";
    EXPECT_EQ(runCli(gone, log), 2) << gone[0] << ": " << slurp(log);
    EXPECT_NE(slurp(log).find("--model-threads"), std::string::npos)
        << slurp(log);
  }
  EXPECT_FALSE(fs::exists(sock)) << "a removed flag must not start a daemon";
}

TEST(CliExitContract, ADirectoryIsNotASourceOnAnyCommand) {
  // A directory opens like a file but cannot be read: every command that
  // takes sources, manifests or reports fails on it with its own exit
  // code and names it, rather than analyzing an empty program or dying
  // on an uncaught stream exception.
  TempDir dir("directory");
  const std::string path = (dir.path / "looks_like.mc").string();
  fs::create_directories(path);
  const fs::path log = dir.path / "run.log";
  // Well-formed other inputs, so each failure below is the directory's.
  writeCorpus(dir.path / "corpus", 1);
  const std::string manifest = (dir.path / "m1.manifest").string();
  ASSERT_EQ(runCli({"manifest", "build", (dir.path / "corpus").string(),
                    "--out", manifest},
                   log),
            0)
      << slurp(log);
  const std::string cache = (dir.path / "cache").string();
  ASSERT_EQ(runCli({"analyze", "@fig5", "--cache-dir", cache}, log), 0)
      << slurp(log);

  struct Case {
    std::vector<std::string> command;
    int exit;
    std::string message;
  };
  const std::string source = "cannot open '" + path + "'";
  const std::string manifestFile = "cannot open manifest '" + path + "'";
  for (const Case &c : std::vector<Case>{
           {{"analyze", path}, 1, source},
           {{"batch", path, "@fig5"}, 1, source},
           {{"coverage", path}, 1, source},
           {{"simulate", path, "--function", "f"}, 1, source},
           {{"batch", "--manifest", path}, 1, source},
           {{"manifest", "merge", "--out", (dir.path / "merged").string(),
             path},
            1,
            source},
           // diff's cmp convention: 2 is trouble, never "differences".
           {{"manifest", "diff", path, manifest}, 2, manifestFile},
           {{"manifest", "diff", manifest, path}, 2, manifestFile},
           {{"cache", "prune", "--cache-dir", cache, "--manifest", path},
            1,
            manifestFile},
       }) {
    const std::string name = c.command[0] + " " + c.command[1];
    EXPECT_EQ(runCli(c.command, log), c.exit) << name << ": " << slurp(log);
    EXPECT_NE(slurp(log).find(c.message), std::string::npos)
        << name << ": " << slurp(log);
  }
}

TEST(CliCache, NonRegularEntryFilesAreMissesNotFailures) {
  // An entry path taken by a directory or a FIFO: `cache stats` reports
  // on (and does not hang on) the directory, and `analyze --cache-dir`
  // recomputes instead of failing or blocking in open.
  TempDir dir("nonregular_entry");
  const std::string cache = (dir.path / "cache").string();
  const fs::path log = dir.path / "run.log";
  ASSERT_EQ(runCli({"analyze", "@fig5", "--cache-dir", cache}, log), 0)
      << slurp(log);
  fs::path entry;
  for (const auto &it : fs::directory_iterator(cache))
    if (it.path().extension() == ".mira")
      entry = it.path();
  ASSERT_FALSE(entry.empty());
  for (const bool fifo : {false, true}) {
    const char *kind = fifo ? "fifo" : "directory";
    fs::remove_all(entry);
    if (fifo)
      ASSERT_EQ(::mkfifo(entry.c_str(), 0600), 0);
    else
      fs::create_directory(entry);
    EXPECT_EQ(runCli({"cache", "stats", "--cache-dir", cache}, log), 0)
        << kind << ": " << slurp(log);
    EXPECT_EQ(runCli({"analyze", "@fig5", "--cache-dir", cache}, log), 0)
        << kind << ": " << slurp(log);
    EXPECT_NE(slurp(log).find("(computed)"), std::string::npos)
        << kind << ": " << slurp(log);
  }
}

} // namespace
} // namespace mira
