// Fleet chaos/failover tests: fork real `mira-cli serve --listen` worker
// daemons on loopback TCP ephemeral ports plus a real `mira-cli batch
// --manifest --workers` run, and pin the headline fleet invariants
// (docs/FLEET.md):
//
//   - the merged fleet report is byte-identical to a 1-process local
//     `batch --manifest` run against a cold cache;
//   - a worker SIGKILLed mid-shard (MIRA_FAULT compute:crash) gets its
//     lease re-issued under a bumped epoch, the run still exits 0 with
//     byte-identical output, and no worker cache holds a corrupt entry;
//   - a stalled worker's lease expires past --lease-timeout and its
//     late reply is fenced (stale epoch), observable through
//     --metrics-file (mira_fleet_leases_expired/fenced_total);
//   - the fleet backend follows the CLI exit contract: 2 usage,
//     3 connect/handshake failure, 1 daemon-side failures, 0 success.
//
// Workers listen on port 0 and the tests parse the bound port from the
// readiness line ("... tcp 127.0.0.1:PORT ..."), so runs never race on
// a fixed port. MIRA_CLI_PATH is injected by CMake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cli_harness.h"
#include "support/cache_store.h"

namespace mira {
namespace {

using namespace cli_harness;

/// Start a worker daemon on 127.0.0.1:0 with its own cache directory
/// and return its bound port (asserts readiness).
int startWorker(Daemon &worker, const TempDir &dir, const std::string &tag,
                const std::vector<std::string> &extraEnv = {},
                const std::vector<std::string> &extraArgs = {}) {
  std::vector<std::string> args = {"--listen", "127.0.0.1:0", "--threads",
                                   "2", "--cache-dir",
                                   (dir.path / (tag + "_cache")).string()};
  args.insert(args.end(), extraArgs.begin(), extraArgs.end());
  worker.start(args, dir.path / (tag + ".log"), extraEnv);
  EXPECT_GT(worker.port, 0) << tag << " has no TCP port";
  return worker.port;
}

/// Scrape one `mira_<name> <value>` sample out of a --metrics-file dump.
/// -1 when the sample is absent.
long long scrapeMetric(const fs::path &metricsFile, const std::string &name) {
  std::ifstream in(metricsFile);
  std::string line;
  const std::string prefix = "mira_" + name + " ";
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0)
      return std::strtoll(line.c_str() + prefix.size(), nullptr, 10);
  return -1;
}

/// Build a corpus + manifest and produce the canonical local cold-run
/// report the fleet output must match byte for byte.
void prepareCorpus(const TempDir &dir, int sources, fs::path &manifest,
                   fs::path &localReport) {
  const fs::path corpus = dir.path / "corpus";
  writeCorpus(corpus, sources);
  manifest = dir.path / "corpus.manifest";
  ASSERT_EQ(runCli({"manifest", "build", corpus.string(), "--out",
                    manifest.string()},
                   dir.path / "build.log"),
            0)
      << readFile(dir.path / "build.log");
  localReport = dir.path / "local.report";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(), "--cache-dir",
                    (dir.path / "local_cache").string(), "--report",
                    localReport.string()},
                   dir.path / "local.log"),
            0)
      << readFile(dir.path / "local.log");
}

std::string workerList(const std::vector<int> &ports) {
  std::string list;
  for (int port : ports) {
    if (!list.empty())
      list += ",";
    list += "127.0.0.1:" + std::to_string(port);
  }
  return list;
}

// ------------------------------------------------------------- tests

TEST(Fleet, HappyPathThreeWorkerFleetMatchesLocalRun) {
  TempDir dir("happy");
  fs::path manifest, localReport;
  prepareCorpus(dir, 12, manifest, localReport);
  if (::testing::Test::HasFatalFailure())
    return;

  Daemon a, b, c;
  const int pa = startWorker(a, dir, "worker_a");
  const int pb = startWorker(b, dir, "worker_b");
  const int pc = startWorker(c, dir, "worker_c");
  ASSERT_TRUE(pa && pb && pc);

  const fs::path report = dir.path / "fleet.report";
  const fs::path metrics = dir.path / "fleet.metrics";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(),
                    "--workers", workerList({pa, pb, pc}), "--shard-count",
                    "3", "--report", report.string(), "--metrics-file",
                    metrics.string(), "--progress"},
                   dir.path / "fleet.log"),
            0)
      << readFile(dir.path / "fleet.log");

  EXPECT_EQ(readFile(report), readFile(localReport))
      << "fleet report differs from the local cold run";
  EXPECT_EQ(scrapeMetric(metrics, "fleet_shards_completed_total"), 3);
  EXPECT_EQ(scrapeMetric(metrics, "fleet_leases_issued_total"), 3);
  EXPECT_EQ(scrapeMetric(metrics, "fleet_leases_reissued_total"), 0);
  EXPECT_EQ(scrapeMetric(metrics, "fleet_leases_fenced_total"), 0);
}

TEST(Fleet, WorkerCrashMidShardLeaseReissuedByteIdentical) {
  TempDir dir("crash");
  fs::path manifest, localReport;
  prepareCorpus(dir, 10, manifest, localReport);
  if (::testing::Test::HasFatalFailure())
    return;

  // Worker B dies with SIGKILL (no unwinding, no flush — see
  // fault_injection.h) on its second full compute, i.e. mid-shard.
  // Worker A stalls 500 ms on its first compute, well under the 2 s
  // lease timeout: the coordinator leases to whichever worker asks
  // first, and without the stall A can finish both shards before B's
  // thread asks for one, leaving nothing to re-issue.
  Daemon a, b;
  const int pa =
      startWorker(a, dir, "worker_a", {"MIRA_FAULT=compute:stall:1:500"});
  const int pb =
      startWorker(b, dir, "worker_b", {"MIRA_FAULT=compute:crash:2"});
  ASSERT_TRUE(pa && pb);

  const fs::path report = dir.path / "fleet.report";
  const fs::path metrics = dir.path / "fleet.metrics";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(),
                    "--workers", workerList({pa, pb}), "--shard-count", "2",
                    "--lease-timeout", "2", "--report", report.string(),
                    "--metrics-file", metrics.string(), "--progress"},
                   dir.path / "fleet.log"),
            0)
      << readFile(dir.path / "fleet.log");

  // The dead worker's shard was re-leased (bumped epoch) and the merged
  // report still matches the local cold run byte for byte.
  EXPECT_EQ(readFile(report), readFile(localReport))
      << readFile(dir.path / "fleet.log");
  EXPECT_GE(scrapeMetric(metrics, "fleet_leases_reissued_total"), 1);
  EXPECT_EQ(scrapeMetric(metrics, "fleet_shards_completed_total"), 2);

  // SIGKILL mid-batch must never leave a corrupt cache entry behind:
  // every surviving entry in every worker cache loads and validates.
  for (const std::string &tag : {"worker_a_cache", "worker_b_cache"}) {
    const fs::path cacheDir = dir.path / tag;
    if (!fs::exists(cacheDir))
      continue;
    CacheStore store(cacheDir.string());
    for (std::uint64_t key : store.keys())
      EXPECT_TRUE(store.load(key).has_value()) << tag;
    EXPECT_EQ(store.stats().corrupt, 0u) << tag;
  }
}

TEST(Fleet, StalledWorkerLeaseExpiresAndLateReplyIsFenced) {
  TempDir dir("stall");
  fs::path manifest, localReport;
  prepareCorpus(dir, 8, manifest, localReport);
  if (::testing::Test::HasFatalFailure())
    return;

  // Worker B freezes for 6 s on its first compute — far past the 0.5 s
  // lease timeout, so its lease expires and the shard re-runs on A; far
  // under the coordinator's read timeout (10x the lease), so B's late
  // reply does arrive and must be discarded by the epoch fence. Worker A
  // stalls 200 ms on its first compute, under the lease timeout, so B's
  // thread leases the other shard while A holds its first (leases go to
  // whichever worker asks first).
  Daemon a, b;
  const int pa =
      startWorker(a, dir, "worker_a", {"MIRA_FAULT=compute:stall:1:200"});
  const int pb =
      startWorker(b, dir, "worker_b", {"MIRA_FAULT=compute:stall:1:6000"});
  ASSERT_TRUE(pa && pb);

  const fs::path report = dir.path / "fleet.report";
  const fs::path metrics = dir.path / "fleet.metrics";
  ASSERT_EQ(runCli({"batch", "--manifest", manifest.string(),
                    "--workers", workerList({pa, pb}), "--shard-count", "2",
                    "--lease-timeout", "0.5", "--report", report.string(),
                    "--metrics-file", metrics.string(), "--progress"},
                   dir.path / "fleet.log"),
            0)
      << readFile(dir.path / "fleet.log");

  EXPECT_EQ(readFile(report), readFile(localReport))
      << readFile(dir.path / "fleet.log");
  EXPECT_GE(scrapeMetric(metrics, "fleet_leases_expired_total"), 1)
      << readFile(dir.path / "fleet.log");
  EXPECT_GE(scrapeMetric(metrics, "fleet_leases_fenced_total"), 1)
      << readFile(dir.path / "fleet.log");
  EXPECT_EQ(scrapeMetric(metrics, "fleet_shards_completed_total"), 2);
}

TEST(Fleet, CoordinatorFollowsClientExitContract) {
  TempDir dir("exits");
  fs::path manifest, localReport;
  prepareCorpus(dir, 4, manifest, localReport);
  if (::testing::Test::HasFatalFailure())
    return;

  // Usage errors: 2 — workers without a manifest, a fleet flag without
  // workers, a junk endpoint.
  EXPECT_EQ(runCli({"batch", "--workers", "127.0.0.1:1"},
                   dir.path / "u1.log"),
            2);
  EXPECT_EQ(runCli({"batch", "--manifest", manifest.string(),
                    "--lease-timeout", "1"},
                   dir.path / "u2.log"),
            2);
  EXPECT_EQ(runCli({"batch", "--manifest", manifest.string(), "--workers",
                    "localhost"},
                   dir.path / "u3.log"),
            2);

  // No worker reachable: 3 (port 1 on loopback refuses immediately).
  EXPECT_EQ(runCli({"batch", "--manifest", manifest.string(),
                    "--workers", "127.0.0.1:1", "--connect-timeout", "1"},
                   dir.path / "refused.log"),
            3)
      << readFile(dir.path / "refused.log");

  // Handshake rejected everywhere is a connect failure too: 3.
  Daemon secured;
  const int ps = startWorker(secured, dir, "worker_secured", {},
                             {"--secret", "sesame"});
  ASSERT_GT(ps, 0);
  EXPECT_EQ(runCli({"batch", "--manifest", manifest.string(),
                    "--workers", workerList({ps}), "--secret", "wrong"},
                   dir.path / "badsecret.log"),
            3)
      << readFile(dir.path / "badsecret.log");
  // The right secret on the same worker completes and exits 0.
  EXPECT_EQ(runCli({"batch", "--manifest", manifest.string(),
                    "--workers", workerList({ps}), "--secret", "sesame",
                    "--report", (dir.path / "secured.report").string()},
                   dir.path / "goodsecret.log"),
            0)
      << readFile(dir.path / "goodsecret.log");
  EXPECT_EQ(readFile(dir.path / "secured.report"), readFile(localReport));
  secured.kill();

  // Analysis failures in the corpus surface as exit 1 (same contract as
  // `batch`): the run completes, the report records the failures.
  const fs::path badCorpus = dir.path / "bad_corpus";
  writeCorpus(badCorpus, 2);
  writeFile(badCorpus / "broken.mc", "int broken(int n) { return (; }\n");
  const fs::path badManifest = dir.path / "bad.manifest";
  ASSERT_EQ(runCli({"manifest", "build", badCorpus.string(), "--out",
                    badManifest.string()},
                   dir.path / "badbuild.log"),
            0);
  Daemon plain;
  const int pp = startWorker(plain, dir, "worker_plain");
  ASSERT_GT(pp, 0);
  EXPECT_EQ(runCli({"batch", "--manifest", badManifest.string(),
                    "--workers", workerList({pp})},
                   dir.path / "failing.log"),
            1)
      << readFile(dir.path / "failing.log");
}

} // namespace
} // namespace mira
