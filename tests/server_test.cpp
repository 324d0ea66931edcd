// Serving subsystem tests: wire-protocol codecs, the daemon's
// request/response loop, malformed and oversized frames, concurrent
// clients, clean shutdown with requests in flight — and the headline
// acceptance invariant: a daemon-served model payload is byte-identical
// to a one-shot analysis of the same (source, options), cold and warm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/artifacts.h"
#include "corpus/manifest.h"
#include "driver/batch.h"
#include "model/python_emitter.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/socket.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira::server {
namespace {

// ---------------------------------------------------------------- codecs

TEST(ProtocolCodec, AnalyzeRequestRoundTrips) {
  SourceItem item{"kernel.mc", "int f() { return 1; }"};
  std::string wire = encodeAnalyzeRequest(item, core::kOptionOptimize);

  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::analyze);

  SourceItem decoded;
  std::uint8_t flags = 0;
  ASSERT_TRUE(decodeAnalyzeRequest(r, decoded, flags));
  EXPECT_EQ(decoded.name, item.name);
  EXPECT_EQ(decoded.source, item.source);
  EXPECT_EQ(flags, core::kOptionOptimize);
}

TEST(ProtocolCodec, RepliesRoundTrip) {
  AnalyzeReply reply;
  reply.cacheHit = true;
  reply.micros = 123456;
  reply.payload = std::string("\x01payload bytes\x00with nul", 23);
  std::string wire = encodeAnalyzeReply(reply);

  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::analyzeReply);
  AnalyzeReply decoded;
  ASSERT_TRUE(decodeAnalyzeReply(r, decoded));
  EXPECT_TRUE(decoded.cacheHit);
  EXPECT_EQ(decoded.micros, 123456u);
  EXPECT_EQ(decoded.payload, reply.payload);
}

TEST(ProtocolCodec, RejectsBadMagicAndVersion) {
  std::string wire = encodeEmptyMessage(MessageType::ping);
  {
    std::string bad = wire;
    bad[0] = 'X';
    bio::Reader r{bad, 0};
    MessageType type{};
    std::string error;
    EXPECT_FALSE(readHeader(r, type, error));
    EXPECT_NE(error.find("magic"), std::string::npos);
  }
  {
    std::string bad = wire;
    bad[4] = 99; // version field
    bio::Reader r{bad, 0};
    MessageType type{};
    std::string error;
    EXPECT_FALSE(readHeader(r, type, error));
    EXPECT_NE(error.find("version"), std::string::npos);
  }
  {
    std::string truncated = wire.substr(0, 6);
    bio::Reader r{truncated, 0};
    MessageType type{};
    std::string error;
    EXPECT_FALSE(readHeader(r, type, error));
  }
}

TEST(ProtocolCodec, RejectsTrailingGarbage) {
  SourceItem item{"a", "b"};
  std::string wire = encodeAnalyzeRequest(item, 0);
  wire += "junk";
  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error));
  SourceItem decoded;
  std::uint8_t flags = 0;
  EXPECT_FALSE(decodeAnalyzeRequest(r, decoded, flags));
}

TEST(ProtocolCodec, OptionFlagsMatchRequestKeyInputs) {
  // The wire flags must cover exactly the options requestKey hashes:
  // packing then unpacking preserves every model-affecting toggle.
  core::MiraOptions options;
  options.compile.compiler.optimize = false;
  options.compile.compiler.vectorize = true;
  options.metrics.assumeBranchesTaken = false;
  core::MiraOptions round = core::unpackOptions(core::packOptions(options));
  EXPECT_EQ(round.compile.compiler.optimize, false);
  EXPECT_EQ(round.compile.compiler.vectorize, true);
  EXPECT_EQ(round.metrics.assumeBranchesTaken, false);
}

// ------------------------------------------------------------ frame I/O

TEST(FrameIo, FramesLargerThanTheSocketBufferRoundTrip) {
  // Two frames well past a socket pair's buffer, back to back, so the
  // writer's sendmsg returns partway through the header-plus-body pair
  // and must resume mid-body while a reader drains the other end.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket writer(fds[0]), reader(fds[1]);
  std::vector<std::string> frames;
  for (std::size_t size : {std::size_t{3} << 20, (std::size_t{1} << 20) + 7}) {
    std::string frame(size, '\0');
    for (std::size_t i = 0; i < size; ++i)
      frame[i] = static_cast<char>((i * 131 + size) & 0xff);
    frames.push_back(std::move(frame));
  }
  std::vector<std::string> received(frames.size());
  std::vector<net::FrameStatus> statuses(frames.size(),
                                         net::FrameStatus::ioError);
  std::thread drain([&] {
    for (std::size_t i = 0; i < frames.size(); ++i)
      statuses[i] = net::readFrame(reader.fd(), received[i], kMaxFrameBytes);
  });
  for (const std::string &frame : frames)
    EXPECT_TRUE(net::writeFrame(writer.fd(), frame));
  drain.join();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(statuses[i], net::FrameStatus::ok) << "frame " << i;
    EXPECT_TRUE(received[i] == frames[i]) << "frame " << i;
  }
}

/// This process's peak resident set (VmHWM), in KiB; -1 if unreadable.
long peakResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtol(line.c_str() + 6, nullptr, 10);
  return -1;
}

TEST(FrameIo, HeaderOnlyPeerDoesNotCostTheReaderItsClaimedSize) {
  // A peer that declares the largest frame the cap allows and then sends
  // nothing must not make the reader allocate (and zero) that much: the
  // daemon reads a frame before any Hello check, so this is open to any
  // peer that can connect. Measured in a forked child, whose peak
  // resident set starts at its resident set when forked.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      ::_exit(2);
    const std::uint32_t claimed = kMaxFrameBytes;
    unsigned char header[4];
    for (int i = 0; i < 4; ++i)
      header[i] = static_cast<unsigned char>((claimed >> (8 * i)) & 0xff);
    if (::send(fds[0], header, sizeof(header), 0) !=
            static_cast<ssize_t>(sizeof(header)) ||
        !net::setReadTimeout(fds[1], 200))
      ::_exit(2);
    const long before = peakResidentKiB();
    std::string payload;
    const net::FrameStatus status =
        net::readFrame(fds[1], payload, kMaxFrameBytes);
    const long after = peakResidentKiB();
    if (status != net::FrameStatus::ioError || before < 0 || after < 0)
      ::_exit(2);
    ::_exit(after - before < 1024 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: the reader's peak resident set grew by 1 MiB or more; "
         "2: the probe itself failed";
}

// ---------------------------------------------------------------- daemon

/// Starts an AnalysisServer on a fresh socket in a thread; tears it down
/// (via requestStop) on destruction if a test did not shut it down.
class DaemonFixture {
public:
  explicit DaemonFixture(ServerOptions options = {}) {
    static std::atomic<int> counter{0};
    socketPath_ = (std::filesystem::temp_directory_path() /
                   ("mira_server_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)) + ".sock"))
                      .string();
    options.socketPath = socketPath_;
    if (options.threads == 0)
      options.threads = 2;
    server_ = std::make_unique<AnalysisServer>(options);
    std::string error;
    started_ = server_->start(error);
    EXPECT_TRUE(started_) << error;
    if (started_)
      thread_ = std::thread([this] { server_->serve(); });
  }

  ~DaemonFixture() {
    if (thread_.joinable()) {
      server_->requestStop();
      thread_.join();
    }
  }

  /// Join serve() without forcing a stop — for tests that shut the
  /// daemon down over the wire and assert it actually exits.
  void join() { thread_.join(); }

  AnalysisServer &server() { return *server_; }
  const std::string &socketPath() const { return socketPath_; }
  bool started() const { return started_; }

private:
  std::string socketPath_;
  std::unique_ptr<AnalysisServer> server_;
  std::thread thread_;
  bool started_ = false;
};

/// Every sample of the daemon's registry (the Metrics reply), by name.
std::map<std::string, std::uint64_t> samplesOf(Client &client) {
  std::vector<MetricSample> samples;
  EXPECT_TRUE(client.metrics(samples)) << client.lastError();
  std::map<std::string, std::uint64_t> values;
  for (const MetricSample &sample : samples)
    values[sample.name] = sample.value;
  return values;
}

/// Every `_total` counter of the daemon's registry, by name: unlike the
/// gauges, equal traffic gives equal values.
std::map<std::string, std::uint64_t> countersOf(Client &client) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto &[name, value] : samplesOf(client))
    if (name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0)
      counters[name] = value;
  return counters;
}

TEST(AnalysisServerTest, ColdAndWarmPayloadsAreByteIdenticalToOneShot) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  // One-shot reference: what `mira-cli analyze` computes and what the
  // schema-v2 disk cache would store for this (source, options, name).
  const std::string name = "@fig5";
  const std::string &source = workloads::fig5Source();
  core::MiraOptions options;
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  spec.options = options;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactCoverage;
  core::Artifacts direct = core::analyze(spec);
  ASSERT_TRUE(direct.ok) << direct.diagnostics;
  ASSERT_TRUE(direct.coverage.has_value());
  const std::string expected = driver::serializeArtifactPayload(
      direct.model.get(), &*direct.coverage, direct.diagnostics, name);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  ClientOutcome cold;
  ASSERT_TRUE(client.analyze(name, source, options, cold))
      << client.lastError();
  EXPECT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_EQ(cold.payload, expected) << "cold daemon payload diverges from "
                                       "one-shot analysis";

  ClientOutcome warm;
  ASSERT_TRUE(client.analyze(name, source, options, warm))
      << client.lastError();
  EXPECT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.payload, expected) << "warm daemon payload diverges from "
                                       "one-shot analysis";

  // Zero recomputation on the warm repeat, per the server's own
  // counters: exactly one pipeline run for two requests.
  const std::map<std::string, std::uint64_t> stats = samplesOf(client);
  EXPECT_EQ(stats.at("server_sources_analyzed_total"), 2u);
  EXPECT_EQ(stats.at("server_computed_total"), 1u);
  EXPECT_EQ(stats.at("server_cache_hits_total"), 1u);
  EXPECT_EQ(stats.at("server_failures_total"), 0u);
  EXPECT_EQ(stats.at("server_cache_memory_entries"), 1u);
}

TEST(AnalysisServerTest, BatchKeepsInputOrderAndSharesCache) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  std::vector<SourceItem> items{
      {"first", workloads::dgemmSource()},
      {"second", "int broken("},
      {"third", workloads::fig5Source()},
      {"fourth", workloads::dgemmSource()}, // duplicate source of "first"
  };
  std::vector<ClientOutcome> outcomes;
  ASSERT_TRUE(client.analyzePipelined(items, core::MiraOptions(), outcomes))
      << client.lastError();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_FALSE(outcomes[1].diagnostics.empty());
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_TRUE(outcomes[3].ok);
  // "fourth" has the same source as "first": one computes, the other
  // shares it. Either may start first and become the producer, so
  // exactly one of the pair is a hit.
  EXPECT_NE(outcomes[0].cacheHit, outcomes[3].cacheHit);
  // Payload names echo the requesting item (docs/CACHING.md).
  EXPECT_EQ(outcomes[0].name, "first");

  const std::map<std::string, std::uint64_t> stats = countersOf(client);
  EXPECT_EQ(stats.at("server_sources_analyzed_total"), 4u);
  EXPECT_EQ(stats.at("server_cache_hits_total"), 1u);
  EXPECT_EQ(stats.at("server_failures_total"), 1u);
}

TEST(AnalysisServerTest, MalformedFrameGetsErrorReplyAndServerSurvives) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  // Well-framed messages the daemon must refuse: one that is not a
  // protocol message at all, a ping and an analyze whose headers say
  // protocol version 1, and the retired Batch, CacheStats and
  // ManifestDiff requests (types 3, 4 and 8, never reused).
  const auto versionOne = [](std::string message) {
    message[4] = 1; // the version field is bytes [4, 8) of the header
    return message;
  };
  std::string retiredBatch;
  beginMessage(retiredBatch, static_cast<MessageType>(3));
  bio::putU8(retiredBatch, 0x7);
  bio::putU32(retiredBatch, 1);
  bio::putString(retiredBatch, "@fig5");
  bio::putString(retiredBatch, workloads::fig5Source());
  std::string retiredStats; // header only, as a CacheStats request was
  beginMessage(retiredStats, static_cast<MessageType>(4));
  std::string retiredDiff;
  beginMessage(retiredDiff, static_cast<MessageType>(8));
  bio::putString(retiredDiff, "old manifest");
  bio::putString(retiredDiff, "new manifest");
  const std::pair<std::string, std::string> refused[] = {
      {"this is not a protocol message", "magic"},
      {versionOne(encodeEmptyMessage(MessageType::ping)),
       "unsupported protocol version 1"},
      {versionOne(encodeAnalyzeRequest({"@fig5", workloads::fig5Source()}, 0)),
       "unsupported protocol version 1"},
      {retiredBatch, "unexpected message type 3"},
      {retiredStats, "unexpected message type 4"},
      {retiredDiff, "unexpected message type 8"},
  };
  for (const auto &[frame, expected] : refused) {
    std::string error;
    net::Socket raw = net::connectUnix(daemon.socketPath(), error);
    ASSERT_TRUE(raw.valid()) << error;
    ASSERT_TRUE(net::writeFrame(raw.fd(), frame));
    std::string reply;
    ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
              net::FrameStatus::ok);
    // One Error reply, stamped with the current version (readHeader
    // accepts no other).
    bio::Reader r{reply, 0};
    MessageType type{};
    std::string headerError;
    ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
    EXPECT_EQ(type, MessageType::error);
    std::string message;
    ASSERT_TRUE(decodeErrorReply(r, message));
    EXPECT_NE(message.find(expected), std::string::npos) << message;
    // The daemon closes the connection after an error.
    EXPECT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
              net::FrameStatus::closed);
  }
  {
    // A truncated frame: the header promises more bytes than arrive.
    std::string error;
    net::Socket raw = net::connectUnix(daemon.socketPath(), error);
    ASSERT_TRUE(raw.valid()) << error;
    const char partial[] = {100, 0, 0, 0, 'x', 'y'}; // 100-byte promise
    ASSERT_EQ(::send(raw.fd(), partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    raw.close();
  }

  // After all the abuse the daemon still answers normal requests, and
  // none of it ran the pipeline. The truncated connection is handled
  // asynchronously, so poll briefly for its error count instead of
  // racing the handler.
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
  std::map<std::string, std::uint64_t> stats;
  for (int attempt = 0; attempt < 100; ++attempt) {
    stats = countersOf(client);
    if (stats.at("server_protocol_errors_total") >= 7)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(stats.at("server_protocol_errors_total"), 7u);
  EXPECT_EQ(stats.at("server_analyze_requests_total"), 0u);
  EXPECT_EQ(stats.at("server_computed_total"), 0u);
  ClientOutcome outcome;
  ASSERT_TRUE(client.analyze("@fig5", workloads::fig5Source(),
                             core::MiraOptions(), outcome))
      << client.lastError();
  EXPECT_TRUE(outcome.ok);
}

TEST(AnalysisServerTest, IntMinByMinusOneRequestLeavesTheDaemonServing) {
  // Each source once killed the daemon with the request in flight:
  // INT64_MIN / -1 in a guard trapped the compute thread (SIGFPE), and a
  // method's loop over a field of its class crashed lowering (SIGSEGV).
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  const std::pair<const char *, const char *> sources[] = {
      {"fpe.mc", "void f(double* a, int n) {\n"
                 "  for (int i = 0; i < n; i++) {\n"
                 "    if (i < (-9223372036854775807 - 1 + 0 * n) / -1)\n"
                 "      a[i] = a[i] * 2.0;\n"
                 "  }\n"
                 "}"},
      {"field_loop.mc", "class A {\n"
                        "public:\n"
                        "  int i;\n"
                        "  double s;\n"
                        "  void m(int n) {\n"
                        "    for (i = 0; i < n; i++) {\n"
                        "      s = s + 1.0;\n"
                        "    }\n"
                        "  }\n"
                        "};\n"
                        "int main_fn(int n) {\n"
                        "  A a;\n"
                        "  a.m(n);\n"
                        "  return 0;\n"
                        "}"},
  };
  for (const auto &[name, source] : sources) {
    ClientOutcome outcome;
    ASSERT_TRUE(client.analyze(name, source, core::MiraOptions(), outcome))
        << name << ": " << client.lastError();
    EXPECT_TRUE(outcome.ok) << name;
    EXPECT_TRUE(client.ping()) << name << ": " << client.lastError();
  }
}

TEST(AnalysisServerTest, OversizedFrameIsRejectedWithoutReadingBody) {
  ServerOptions options;
  options.maxFrameBytes = 1024; // tiny cap to keep the test cheap
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(raw.valid()) << error;
  // Declare 16 MiB; send only the header. The daemon must answer from
  // the declaration alone.
  const unsigned char header[] = {0, 0, 0, 1};
  ASSERT_EQ(::send(raw.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  std::string reply;
  ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::ok);
  bio::Reader r{reply, 0};
  MessageType type{};
  std::string headerError;
  ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
  EXPECT_EQ(type, MessageType::error);
  std::string message;
  ASSERT_TRUE(decodeErrorReply(r, message));
  EXPECT_NE(message.find("exceeds"), std::string::npos) << message;

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
}

TEST(AnalysisServerTest, ConcurrentClientsAllGetCorrectReplies) {
  ServerOptions options;
  options.threads = 4;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect(daemon.socketPath())) {
        ++failures;
        return;
      }
      const std::string &source =
          c % 2 == 0 ? workloads::fig5Source() : workloads::dgemmSource();
      for (int i = 0; i < kRequestsEach; ++i) {
        ClientOutcome outcome;
        if (!client.analyze("client" + std::to_string(c % 2), source,
                            core::MiraOptions(), outcome) ||
            !outcome.ok)
          ++failures;
      }
    });
  }
  for (auto &thread : threads)
    thread.join();
  EXPECT_EQ(failures.load(), 0);

  // 12 requests over 2 distinct (source, options) pairs: exactly 2
  // pipeline runs, everything else served from the shared cache.
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  const std::map<std::string, std::uint64_t> stats = countersOf(client);
  EXPECT_EQ(stats.at("server_sources_analyzed_total"),
            static_cast<std::uint64_t>(kClients * kRequestsEach));
  EXPECT_EQ(stats.at("server_computed_total"), 2u);
  EXPECT_EQ(stats.at("server_cache_hits_total"),
            static_cast<std::uint64_t>(kClients * kRequestsEach - 2));
}

TEST(AnalysisServerTest, ShutdownDrainsInFlightWorkAndRemovesSocket) {
  ServerOptions options;
  options.threads = 3;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  const std::string socketPath = daemon.socketPath();

  // An idle connection: its server-side reader is blocked in recv and
  // must be woken (EOF) by the shutdown, not waited on forever.
  std::string error;
  net::Socket idle = net::connectUnix(socketPath, error);
  ASSERT_TRUE(idle.valid()) << error;

  // A client with real work in flight around the shutdown.
  Client worker;
  ASSERT_TRUE(worker.connect(socketPath)) << worker.lastError();
  ClientOutcome outcome;
  ASSERT_TRUE(worker.analyze("@stream", workloads::streamSource(),
                             core::MiraOptions(), outcome))
      << worker.lastError();
  EXPECT_TRUE(outcome.ok);

  Client stopper;
  ASSERT_TRUE(stopper.connect(socketPath)) << stopper.lastError();
  ASSERT_TRUE(stopper.shutdownServer()) << stopper.lastError();

  // serve() must return on its own (the fixture would otherwise hang
  // here — a deadlocked drain fails the test by timeout).
  daemon.join();

  // The socket file is gone and new connections are refused.
  EXPECT_FALSE(std::filesystem::exists(socketPath));
  Client late;
  EXPECT_FALSE(late.connect(socketPath));

  // The idle connection saw EOF rather than hanging.
  std::string leftover;
  EXPECT_NE(net::readFrame(idle.fd(), leftover, kMaxFrameBytes),
            net::FrameStatus::ok);
}

TEST(AnalysisServerTest, DiskCacheServesAcrossDaemonRestarts) {
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "mira_server_test_disk")
          .string();
  std::filesystem::remove_all(cacheDir);

  ServerOptions options;
  options.cacheDir = cacheDir;
  std::string coldPayload;
  {
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
    ClientOutcome outcome;
    ASSERT_TRUE(client.analyze("@minife", workloads::minifeSource(),
                               core::MiraOptions(), outcome))
        << client.lastError();
    EXPECT_TRUE(outcome.ok);
    EXPECT_FALSE(outcome.cacheHit);
    coldPayload = outcome.payload;
  }
  {
    // A fresh daemon (fresh memory cache) must hit the disk level.
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
    ClientOutcome outcome;
    ASSERT_TRUE(client.analyze("@minife", workloads::minifeSource(),
                               core::MiraOptions(), outcome))
        << client.lastError();
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.cacheHit);
    EXPECT_EQ(outcome.payload, coldPayload);

    const std::map<std::string, std::uint64_t> stats = countersOf(client);
    EXPECT_EQ(stats.at("server_computed_total"), 0u);
    EXPECT_EQ(stats.at("analyzer_disk_hits_total"), 1u);
  }
  std::filesystem::remove_all(cacheDir);
}

TEST(AnalysisServerTest, RefusesToClobberANonSocketPath) {
  // Stale-socket reclaim must never extend to regular files: a typo'd
  // --socket pointing at user data fails loudly and leaves it intact.
  const std::string path =
      (std::filesystem::temp_directory_path() / "mira_server_test_notasock")
          .string();
  {
    std::ofstream out(path);
    out << "precious bytes";
  }
  std::string error;
  net::Socket listener = net::listenUnix(path, error);
  EXPECT_FALSE(listener.valid());
  EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ifstream in(path);
    std::string contents;
    std::getline(in, contents);
    EXPECT_EQ(contents, "precious bytes");
  }
  std::filesystem::remove(path);
}

TEST(AnalysisServerTest, OverCapReplyDegradesToError) {
  // A reply the daemon cannot legally frame (tiny cap, real payload)
  // must come back as Error, not as an oversized frame the client
  // rejects mid-stream.
  ServerOptions options;
  options.maxFrameBytes = 64; // the request fits; the analyze reply
                              // (artifact payload + model) cannot
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(raw.valid()) << error;
  SourceItem item{"f", "int f() { return 1; }"};
  ASSERT_TRUE(net::writeFrame(raw.fd(), encodeAnalyzeRequest(item, 0x7)));
  std::string reply;
  ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::ok);
  bio::Reader r{reply, 0};
  MessageType type{};
  std::string headerError;
  ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
  EXPECT_EQ(type, MessageType::error);
  std::string message;
  ASSERT_TRUE(decodeErrorReply(r, message));
  EXPECT_NE(message.find("frame cap"), std::string::npos) << message;
}

TEST(AnalysisServerTest, CoverageRoundTripMatchesOneShotCounters) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  // One-shot reference coverage for the same (source, options).
  core::AnalysisSpec spec;
  spec.name = "@fig5";
  spec.source = workloads::fig5Source();
  spec.artifacts = core::kArtifactCoverage;
  core::Artifacts direct = core::analyze(spec);
  ASSERT_TRUE(direct.ok);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  CoverageReply cold;
  ASSERT_TRUE(client.coverage("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), cold))
      << client.lastError();
  EXPECT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_FALSE(cold.recompiled);
  EXPECT_EQ(cold.coverage.loops, direct.coverage->loops);
  EXPECT_EQ(cold.coverage.statements, direct.coverage->statements);
  EXPECT_EQ(cold.coverage.inLoopStatements,
            direct.coverage->inLoopStatements);

  // Warm: served from the daemon's cached summary — a hit, and still
  // no recompile because the memory entry holds the live program.
  CoverageReply warm;
  ASSERT_TRUE(client.coverage("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), warm))
      << client.lastError();
  EXPECT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_FALSE(warm.recompiled);
  EXPECT_EQ(warm.coverage.loops, cold.coverage.loops);

  const std::map<std::string, std::uint64_t> stats = countersOf(client);
  EXPECT_EQ(stats.at("server_coverage_requests_total"), 2u);
  EXPECT_EQ(stats.at("server_computed_total"), 1u);
  EXPECT_EQ(stats.at("server_cache_hits_total"), 1u);
  EXPECT_EQ(stats.at("server_recompiles_total"), 0u);
}

TEST(AnalysisServerTest, SimulateRoundTripMatchesOneShotCounters) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  core::AnalysisSpec spec;
  spec.name = "@fig5";
  spec.source = workloads::fig5Source();
  spec.artifacts = core::kArtifactSimulation;
  spec.simulation.function = "fig5_main";
  spec.simulation.args = {sim::Value::ofInt(64)};
  core::Artifacts direct = core::analyze(spec);
  ASSERT_TRUE(direct.ok);
  std::string reference;
  putSimResult(reference, *direct.simulation);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  SimulateReply reply;
  ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), spec.simulation, reply))
      << client.lastError();
  ASSERT_TRUE(reply.ok);
  ASSERT_TRUE(reply.result.ok) << reply.result.error;
  std::string served;
  putSimResult(served, reply.result);
  EXPECT_EQ(served, reference) << "daemon-served simulation counters "
                                  "diverge from a one-shot run";

  // Different arguments re-simulate on the same cached analysis.
  core::SimulationArgs smaller = spec.simulation;
  smaller.args = {sim::Value::ofInt(8)};
  SimulateReply small;
  ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), smaller, small))
      << client.lastError();
  ASSERT_TRUE(small.ok);
  EXPECT_TRUE(small.cacheHit);
  EXPECT_LT(small.result.total.totalInstructions,
            reply.result.total.totalInstructions);

  const std::map<std::string, std::uint64_t> stats = countersOf(client);
  EXPECT_EQ(stats.at("server_simulate_requests_total"), 2u);
  EXPECT_EQ(stats.at("server_computed_total"), 1u);
  // The live program is in the memory cache.
  EXPECT_EQ(stats.at("server_recompiles_total"), 0u);
}

TEST(AnalysisServerTest, WarmDiskSimulateRecompilesWithoutRecomputing) {
  // The acceptance headline: against a warm daemon whose memory cache
  // is cold but whose disk cache is hot, coverage and simulation are
  // served without a full re-analysis — coverage from the stored
  // summary, simulation through one recompile-on-demand.
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "mira_server_test_artifact")
          .string();
  std::filesystem::remove_all(cacheDir);
  ServerOptions options;
  options.cacheDir = cacheDir;

  core::SimulationArgs simArgs;
  simArgs.function = "fig5_main";
  simArgs.args = {sim::Value::ofInt(64)};

  std::string coldSim;
  {
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
    SimulateReply reply;
    ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                                core::MiraOptions(), simArgs, reply))
        << client.lastError();
    ASSERT_TRUE(reply.ok);
    EXPECT_FALSE(reply.cacheHit);
    putSimResult(coldSim, reply.result);
  }
  {
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.started());
    Client client;
    ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

    CoverageReply coverage;
    ASSERT_TRUE(client.coverage("@fig5", workloads::fig5Source(),
                                core::MiraOptions(), coverage))
        << client.lastError();
    EXPECT_TRUE(coverage.ok);
    EXPECT_TRUE(coverage.cacheHit);
    EXPECT_FALSE(coverage.recompiled) << "summary should come from the "
                                         "schema-v2 entry, not a recompile";

    SimulateReply reply;
    ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                                core::MiraOptions(), simArgs, reply))
        << client.lastError();
    ASSERT_TRUE(reply.ok);
    EXPECT_TRUE(reply.cacheHit);
    EXPECT_TRUE(reply.recompiled);
    std::string warmSim;
    putSimResult(warmSim, reply.result);
    EXPECT_EQ(warmSim, coldSim);

    const std::map<std::string, std::uint64_t> stats = countersOf(client);
    EXPECT_EQ(stats.at("server_computed_total"), 0u)
        << "warm daemon must not re-run the full pipeline";
    EXPECT_EQ(stats.at("server_recompiles_total"), 1u);
    EXPECT_EQ(stats.at("analyzer_disk_hits_total"), 1u);
  }
  std::filesystem::remove_all(cacheDir);
}

TEST(ProtocolCodec, CoverageAndSimulateRepliesRoundTrip) {
  CoverageReply coverage;
  coverage.cacheHit = true;
  coverage.recompiled = true;
  coverage.micros = 77;
  coverage.ok = true;
  coverage.diagnostics = "warn\n";
  coverage.coverage.loops = 4;
  coverage.coverage.statements = 16;
  coverage.coverage.inLoopStatements = 8;
  std::string wire = encodeCoverageReply(coverage);
  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::coverageReply);
  CoverageReply decoded;
  ASSERT_TRUE(decodeCoverageReply(r, decoded));
  EXPECT_TRUE(decoded.cacheHit);
  EXPECT_TRUE(decoded.recompiled);
  EXPECT_EQ(decoded.coverage.loops, 4u);
  EXPECT_EQ(decoded.coverage.inLoopStatements, 8u);

  core::SimulationArgs sim;
  sim.function = "kernel";
  sim.args = {sim::Value::ofInt(7), sim::Value::ofDouble(2.5)};
  sim.options.fastForward = true;
  sim.options.maxInstructions = 123456789;
  std::string request = encodeSimulateRequest({"k.mc", "int k;"}, 0x3, sim);
  bio::Reader sr{request, 0};
  ASSERT_TRUE(readHeader(sr, type, error)) << error;
  EXPECT_EQ(type, MessageType::simulate);
  SourceItem item;
  std::uint8_t flags = 0;
  core::SimulationArgs decodedSim;
  ASSERT_TRUE(decodeSimulateRequest(sr, item, flags, decodedSim));
  EXPECT_EQ(item.name, "k.mc");
  EXPECT_EQ(flags, 0x3);
  EXPECT_EQ(decodedSim.function, "kernel");
  ASSERT_EQ(decodedSim.args.size(), 2u);
  EXPECT_EQ(decodedSim.args[0].i, 7);
  EXPECT_EQ(decodedSim.args[1].f, 2.5);
  EXPECT_TRUE(decodedSim.options.fastForward);
  EXPECT_EQ(decodedSim.options.maxInstructions, 123456789u);
}

// --------------------------------------------- pipelining / backpressure

/// Small distinct kernels so every pipelined reply is distinguishable
/// by payload bytes, making reordering impossible to miss.
std::vector<SourceItem> distinctKernels(std::size_t count) {
  std::vector<SourceItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string k = std::to_string(i);
    items.push_back({"pipe" + k + ".mc",
                     "double f" + k + "(double x) {\n"
                     "  double s = 0.0;\n"
                     "  for (int i = 0; i < " + std::to_string(3 + i) +
                         "; i++) {\n"
                     "    s = s + x * " + k + ".0;\n"
                     "  }\n"
                     "  return s;\n"
                     "}"});
  }
  return items;
}

TEST(AnalysisServerTest, PipelinedRepliesArriveInOrderByteIdenticalToOneShots) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  const std::vector<SourceItem> items = distinctKernels(6);

  // Reference: the same items as sequential one-shot requests.
  std::vector<std::string> reference;
  {
    Client sequential;
    ASSERT_TRUE(sequential.connect(daemon.socketPath()))
        << sequential.lastError();
    for (const SourceItem &item : items) {
      ClientOutcome outcome;
      ASSERT_TRUE(sequential.analyze(item.name, item.source,
                                     core::MiraOptions(), outcome))
          << sequential.lastError();
      EXPECT_TRUE(outcome.ok) << outcome.diagnostics;
      reference.push_back(outcome.payload);
    }
  }

  // All six requests in flight on one connection; replies must come
  // back in request order with byte-identical payloads.
  Client pipelined;
  ASSERT_TRUE(pipelined.connect(daemon.socketPath()))
      << pipelined.lastError();
  std::vector<ClientOutcome> outcomes;
  ASSERT_TRUE(pipelined.analyzePipelined(items, core::MiraOptions(), outcomes))
      << pipelined.lastError();
  ASSERT_EQ(outcomes.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].diagnostics;
    EXPECT_EQ(outcomes[i].name, items[i].name) << "reply order broke at " << i;
    EXPECT_EQ(outcomes[i].payload, reference[i]) << "payload differs at " << i;
  }
  // The connection survived the whole exchange (Busy never closes, and
  // nothing here should have errored).
  EXPECT_TRUE(pipelined.ping()) << pipelined.lastError();
}

/// `count` distinct corpus-sized sources: tagged copies of the embedded
/// fig-series workloads.
std::vector<SourceItem> taggedCorpus(std::size_t count) {
  const auto &workloads = workloads::figSeriesWorkloads();
  std::vector<SourceItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    const auto &workload = workloads[i % workloads.size()];
    items.push_back({workload.name + "_" + std::to_string(i) + ".mc",
                     *workload.source + "// copy " + std::to_string(i) +
                         "\n"});
  }
  return items;
}

TEST(AnalysisServerTest, PipelinedCorpusAtCapacityOneFinishes) {
  // 64 cold sources against one slot: each round lands only a few of
  // its window before the rest are refused, so a client that spent a
  // Busy retry on every round would give up long before the end. Only
  // rounds refused outright count against busyRetries(). The sources
  // are distinct: a copy of one already computed would be a ready hit,
  // which is never refused.
  ServerOptions options;
  options.threads = 2;
  options.maxInflight = 1;    // one request at a time: the rest get Busy
  options.busyRetryMillis = 5; // keep the retry rounds fast
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  const std::vector<SourceItem> items = taggedCorpus(64);
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  std::vector<ClientOutcome> outcomes;
  ASSERT_TRUE(client.analyzePipelined(items, core::MiraOptions(), outcomes))
      << client.lastError();
  ASSERT_EQ(outcomes.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].diagnostics;
    EXPECT_EQ(outcomes[i].name, items[i].name) << "reply order broke at " << i;
  }
  // The daemon must actually have refused work (not just queued it):
  // the busy-rejection counter is the proof the backpressure engaged.
  std::vector<MetricSample> samples;
  ASSERT_TRUE(client.metrics(samples)) << client.lastError();
  std::uint64_t busyRejections = 0;
  for (const MetricSample &sample : samples)
    if (sample.name == "server_busy_rejections_total")
      busyRejections = sample.value;
  EXPECT_GE(busyRejections, 1u);
}

TEST(AnalysisServerTest, PipelinedCorpusOnOneConnectionDoesNotDeadlock) {
  // 510 corpus-sized sources pipelined on one connection to a warm
  // daemon, which answers each as fast as it arrives: several times what
  // the socket buffers hold in either direction, so a client that wrote
  // every request before reading a reply would block in send while the
  // daemon blocks sending replies. The watchdog turns such a hang into a
  // failure.
  const std::vector<SourceItem> items = taggedCorpus(510);
  std::vector<std::string> reference;
  for (const SourceItem &item : items) {
    core::AnalysisSpec spec;
    spec.name = item.name;
    spec.source = item.source;
    spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                     core::kArtifactCoverage;
    core::Artifacts direct = core::analyze(spec);
    ASSERT_TRUE(direct.ok && direct.coverage) << direct.diagnostics;
    reference.push_back(driver::serializeArtifactPayload(
        direct.model.get(), &*direct.coverage, direct.diagnostics,
        item.name));
  }

  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  {
    Client warm;
    ASSERT_TRUE(warm.connect(daemon.socketPath())) << warm.lastError();
    for (std::size_t i = 0; i < items.size(); ++i) {
      ClientOutcome outcome;
      ASSERT_TRUE(warm.analyze(items[i].name, items[i].source,
                               core::MiraOptions(), outcome))
          << warm.lastError();
      ASSERT_EQ(outcome.payload, reference[i]) << items[i].name;
    }
  }

  std::mutex mutex;
  std::condition_variable finished;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!finished.wait_for(lock, std::chrono::seconds(60),
                           [&] { return done; })) {
      std::fprintf(stderr, "analyzePipelined did not finish in 60 s: "
                           "client and daemon deadlocked\n");
      std::_Exit(EXIT_FAILURE);
    }
  });
  Client client;
  std::vector<ClientOutcome> outcomes;
  const bool connected = client.connect(daemon.socketPath());
  const bool pipelined =
      connected &&
      client.analyzePipelined(items, core::MiraOptions(), outcomes);
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  finished.notify_one();
  watchdog.join();

  ASSERT_TRUE(pipelined) << client.lastError();
  ASSERT_EQ(outcomes.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(outcomes[i].name, items[i].name) << "reply order broke at " << i;
    EXPECT_EQ(outcomes[i].payload, reference[i]) << "payload differs at " << i;
  }
  EXPECT_TRUE(client.ping()) << client.lastError();
}

TEST(AnalysisServerTest, GracefulDrainAnswersInFlightRequestThenExits) {
  ServerOptions options;
  options.drainTimeoutMillis = 10000; // generous: the drain must finish
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());

  // A raw connection with an analyze request in flight when the stop
  // lands. Raw so the reply can be read after requestStop without the
  // Client's reconnect logic getting in the way.
  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(raw.valid()) << error;
  ASSERT_TRUE(net::writeFrame(
      raw.fd(),
      encodeAnalyzeRequest({"@drain", workloads::streamSource()}, 0)));

  // Wait until the daemon has actually dispatched the request —
  // stopping earlier would race the reader and test nothing.
  Client poll;
  ASSERT_TRUE(poll.connect(daemon.socketPath())) << poll.lastError();
  bool dispatched = false;
  for (int attempt = 0; attempt < 200 && !dispatched; ++attempt) {
    std::vector<MetricSample> samples;
    ASSERT_TRUE(poll.metrics(samples)) << poll.lastError();
    for (const MetricSample &sample : samples)
      if (sample.name == "server_analyze_requests_total" && sample.value >= 1)
        dispatched = true;
    if (!dispatched)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(dispatched);
  poll.disconnect();

  daemon.server().requestStop();

  // The in-flight request is answered before the connection closes.
  std::string reply;
  ASSERT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::ok);
  bio::Reader r{reply, 0};
  MessageType type{};
  std::string headerError;
  ASSERT_TRUE(readHeader(r, type, headerError)) << headerError;
  EXPECT_EQ(type, MessageType::analyzeReply);
  AnalyzeReply decoded;
  ASSERT_TRUE(decodeAnalyzeReply(r, decoded));
  EXPECT_FALSE(decoded.payload.empty());

  // ... then EOF, serve() returns, and the socket file is gone.
  EXPECT_EQ(net::readFrame(raw.fd(), reply, kMaxFrameBytes),
            net::FrameStatus::closed);
  daemon.join();
  EXPECT_FALSE(std::filesystem::exists(daemon.socketPath()));
}

TEST(AnalysisServerTest, MetricsReplyCountsTheTrafficInNameOrder) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  // One computed item and one memory hit to make the counters move.
  ClientOutcome outcome;
  ASSERT_TRUE(client.analyze("@fig5", workloads::fig5Source(),
                             core::MiraOptions(), outcome))
      << client.lastError();
  ASSERT_TRUE(client.analyze("@fig5", workloads::fig5Source(),
                             core::MiraOptions(), outcome))
      << client.lastError();

  std::vector<MetricSample> samples;
  ASSERT_TRUE(client.metrics(samples)) << client.lastError();

  auto sampleValue = [&](const std::string &name) -> std::uint64_t {
    for (const MetricSample &sample : samples)
      if (sample.name == name)
        return sample.value;
    ADD_FAILURE() << "metrics reply is missing " << name;
    return ~0ull;
  };
  EXPECT_EQ(sampleValue("server_cache_hits_total"), 1u);
  EXPECT_EQ(sampleValue("server_computed_total"), 1u);
  EXPECT_EQ(sampleValue("server_analyze_requests_total"), 2u);
  EXPECT_EQ(sampleValue("server_connections_accepted_total"), 1u);
  // The sorted-name contract the text renderer relies on.
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_LT(samples[i - 1].name, samples[i].name);
}

TEST(AnalysisServerTest, MetricsReplyCountsEachServedResultOnce) {
  // The server_* counters are the one count of served results; the
  // analyzer's names in the same registry count only what the serving
  // layer cannot see (disk traffic, summaries, model encodes).
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  ClientOutcome outcome;
  for (int round = 0; round < 2; ++round) // computed, then a memory hit
    ASSERT_TRUE(client.analyze("@fig5", workloads::fig5Source(),
                               core::MiraOptions(), outcome))
        << client.lastError();
  ASSERT_TRUE(client.analyze("broken.mc", "int broken(",
                             core::MiraOptions(), outcome))
      << client.lastError();
  EXPECT_FALSE(outcome.ok);
  CoverageReply coverage;
  ASSERT_TRUE(client.coverage("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), coverage))
      << client.lastError();
  core::SimulationArgs simulation;
  simulation.function = "fig5_main";
  simulation.args = {sim::Value::ofInt(64)};
  SimulateReply simulate;
  ASSERT_TRUE(client.simulate("@fig5", workloads::fig5Source(),
                              core::MiraOptions(), simulation, simulate))
      << client.lastError();
  ASSERT_TRUE(simulate.ok);

  const std::map<std::string, std::uint64_t> samples = samplesOf(client);
  for (const char *retired :
       {"analyzer_requests_total", "analyzer_failures_total",
        "analyzer_cache_hits_total", "analyzer_computed_total",
        "analyzer_recompiles_total"})
    EXPECT_EQ(samples.count(retired), 0u) << retired;
  EXPECT_EQ(samples.at("server_sources_analyzed_total"),
            samples.at("server_cache_hits_total") +
                samples.at("server_computed_total"));
  EXPECT_EQ(samples.at("server_sources_analyzed_total"), 5u);
  EXPECT_EQ(samples.at("server_cache_hits_total"), 3u);
  EXPECT_EQ(samples.at("server_computed_total"), 2u);
  EXPECT_EQ(samples.at("server_failures_total"), 1u);
  EXPECT_EQ(samples.at("server_recompiles_total"), 0u);
  EXPECT_EQ(samples.at("server_analyze_requests_total"), 3u);
  EXPECT_EQ(samples.at("server_coverage_requests_total"), 1u);
  EXPECT_EQ(samples.at("server_simulate_requests_total"), 1u);
}

// ---------------------------------------------------- manifest batch

TEST(ProtocolCodec, ManifestBatchMessagesRoundTrip) {
  ManifestBatchRequest request;
  request.flags = 0x5;
  request.progress = true;
  request.shardIndex = 2;
  request.shardCount = 4;
  request.root = "/corpora/nightly";
  request.manifestBytes = std::string("MirM\x01raw manifest\x00bytes", 21);
  request.sinceBytes = "older manifest";
  std::string wire = encodeManifestBatchRequest(request);

  bio::Reader r{wire, 0};
  MessageType type{};
  std::string error;
  ASSERT_TRUE(readHeader(r, type, error)) << error;
  EXPECT_EQ(type, MessageType::manifestBatch);
  ManifestBatchRequest decoded;
  ASSERT_TRUE(decodeManifestBatchRequest(r, decoded));
  EXPECT_EQ(decoded.flags, 0x5);
  EXPECT_TRUE(decoded.progress);
  EXPECT_EQ(decoded.shardIndex, 2u);
  EXPECT_EQ(decoded.shardCount, 4u);
  EXPECT_EQ(decoded.root, request.root);
  EXPECT_EQ(decoded.manifestBytes, request.manifestBytes);
  EXPECT_EQ(decoded.sinceBytes, request.sinceBytes);

  BatchProgress progress;
  progress.done = 7;
  progress.total = 32;
  progress.failures = 1;
  progress.cacheHits = 4;
  std::string progressWire = encodeBatchProgress(progress);
  bio::Reader pr{progressWire, 0};
  ASSERT_TRUE(readHeader(pr, type, error)) << error;
  EXPECT_EQ(type, MessageType::batchProgress);
  BatchProgress decodedProgress;
  ASSERT_TRUE(decodeBatchProgress(pr, decodedProgress));
  EXPECT_EQ(decodedProgress.done, 7u);
  EXPECT_EQ(decodedProgress.total, 32u);
  EXPECT_EQ(decodedProgress.failures, 1u);
  EXPECT_EQ(decodedProgress.cacheHits, 4u);

  ManifestBatchReply reply;
  reply.reportBytes = std::string("MirR\x01report\x00bytes", 16);
  std::string replyWire = encodeManifestBatchReply(reply);
  bio::Reader rr{replyWire, 0};
  ASSERT_TRUE(readHeader(rr, type, error)) << error;
  EXPECT_EQ(type, MessageType::manifestBatchReply);
  ManifestBatchReply decodedReply;
  ASSERT_TRUE(decodeManifestBatchReply(rr, decodedReply));
  EXPECT_EQ(decodedReply.reportBytes, reply.reportBytes);
}

TEST(ProtocolCodec, ManifestBatchDecoderRejectsBadScalarFields) {
  ManifestBatchRequest good;
  good.manifestBytes = "m";
  const std::string wire = encodeManifestBatchRequest(good);
  const std::size_t headerSize = [] {
    std::string h;
    beginMessage(h, MessageType::manifestBatch);
    return h.size();
  }();

  auto decodeBody = [&](std::string bytes) {
    bio::Reader r{bytes, 0};
    MessageType type{};
    std::string error;
    EXPECT_TRUE(readHeader(r, type, error)) << error;
    ManifestBatchRequest decoded;
    return decodeManifestBatchRequest(r, decoded);
  };

  EXPECT_TRUE(decodeBody(wire));
  {
    std::string bad = wire;
    bad[headerSize + 1] = 2; // progress flag: only 0/1 are legal
    EXPECT_FALSE(decodeBody(bad));
  }
  {
    ManifestBatchRequest shard;
    shard.manifestBytes = "m";
    shard.shardIndex = 3;
    shard.shardCount = 3; // index must be < count
    EXPECT_FALSE(decodeBody(encodeManifestBatchRequest(shard)));
  }
  {
    ManifestBatchRequest zero;
    zero.manifestBytes = "m";
    zero.shardCount = 0; // at least one shard
    EXPECT_FALSE(decodeBody(encodeManifestBatchRequest(zero)));
  }
  EXPECT_FALSE(decodeBody(wire + "junk")); // trailing garbage
}

/// A corpus on disk plus its serialized manifest, for manifest-batch
/// round trips against an in-process daemon.
struct CorpusFixture {
  std::filesystem::path root;
  std::string manifestBytes;
  std::size_t count;

  explicit CorpusFixture(std::size_t sources) : count(sources) {
    static std::atomic<int> counter{0};
    root = std::filesystem::temp_directory_path() /
           ("mira_server_test_corpus_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    for (std::size_t i = 0; i < sources; ++i) {
      const std::string k = std::to_string(i);
      std::ofstream out(root / ("entry_" + k + ".mc"));
      out << "int entry_" + k + "(int n) {\n"
             "  int s = " + k + ";\n"
             "  for (int i = 0; i < n; i++) {\n"
             "    s = s + i * " + std::to_string(i + 2) + ";\n"
             "  }\n"
             "  return s;\n"
             "}\n";
    }
    corpus::Manifest manifest;
    std::string error;
    EXPECT_TRUE(corpus::buildManifest(root.string(), manifest, error))
        << error;
    manifestBytes = corpus::serializeManifest(manifest);
  }

  ~CorpusFixture() { std::filesystem::remove_all(root); }
};

TEST(AnalysisServerTest, ManifestBatchStreamsProgressAndServesWarmReruns) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  CorpusFixture corpus(3);

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  // Cold run with progress streaming: frames are cumulative and the
  // last one accounts for the whole selection.
  std::vector<BatchProgress> frames;
  std::string reportBytes;
  ASSERT_TRUE(client.manifestBatch(
      corpus.manifestBytes, /*sinceBytes=*/"", /*root=*/"",
      driver::ShardSpec{}, core::MiraOptions(),
      [&](const BatchProgress &frame) { frames.push_back(frame); },
      reportBytes))
      << client.lastError();
  ASSERT_FALSE(frames.empty());
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_GE(frames[i].done, frames[i - 1].done);
    EXPECT_EQ(frames[i].total, frames[0].total);
  }
  EXPECT_EQ(frames.back().done, corpus.count);
  EXPECT_EQ(frames.back().total, corpus.count);

  driver::BatchReport report;
  std::string error;
  ASSERT_TRUE(driver::deserializeBatchReport(reportBytes, report, error))
      << error;
  ASSERT_EQ(report.entries.size(), corpus.count);
  EXPECT_EQ(report.entries[0].name, "entry_0.mc"); // manifest path order
  for (const auto &entry : report.entries)
    EXPECT_TRUE(entry.ok) << entry.name;
  EXPECT_EQ(report.stats.requests, corpus.count);
  EXPECT_EQ(report.stats.cacheHits, 0u);

  // Warm rerun on the same daemon, no progress requested: every entry
  // comes from the memory cache and no frame is streamed.
  std::string warmBytes;
  ASSERT_TRUE(client.manifestBatch(corpus.manifestBytes, "", "",
                                   driver::ShardSpec{}, core::MiraOptions(),
                                   /*onProgress=*/nullptr, warmBytes))
      << client.lastError();
  driver::BatchReport warm;
  ASSERT_TRUE(driver::deserializeBatchReport(warmBytes, warm, error)) << error;
  EXPECT_EQ(warm.stats.cacheHits, corpus.count);
  EXPECT_EQ(warm.stats.requests, corpus.count);
  for (std::size_t i = 0; i < warm.entries.size(); ++i)
    EXPECT_EQ(warm.entries[i].key, report.entries[i].key);

  // An unchanged --since baseline selects nothing: empty report, and
  // the connection stays usable afterwards.
  std::string emptyBytes;
  ASSERT_TRUE(client.manifestBatch(corpus.manifestBytes,
                                   /*sinceBytes=*/corpus.manifestBytes, "",
                                   driver::ShardSpec{}, core::MiraOptions(),
                                   nullptr, emptyBytes))
      << client.lastError();
  driver::BatchReport empty;
  ASSERT_TRUE(driver::deserializeBatchReport(emptyBytes, empty, error))
      << error;
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_TRUE(client.ping()) << client.lastError();
}

TEST(AnalysisServerTest, ManifestBatchRejectsMalformedManifestBlob) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  std::string reportBytes;
  EXPECT_FALSE(client.manifestBatch("definitely not a manifest", "", "",
                                    driver::ShardSpec{}, core::MiraOptions(),
                                    nullptr, reportBytes));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::daemon);
  EXPECT_NE(client.lastError().find("malformed manifest"), std::string::npos)
      << client.lastError();

  // Error replies close the connection; the daemon itself stays up.
  Client fresh;
  ASSERT_TRUE(fresh.connect(daemon.socketPath())) << fresh.lastError();
  EXPECT_TRUE(fresh.ping()) << fresh.lastError();
}

TEST(AnalysisServerTest, RefusesSecondDaemonOnSamePath) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());

  ServerOptions options;
  options.socketPath = daemon.socketPath();
  AnalysisServer second(options);
  std::string error;
  EXPECT_FALSE(second.start(error));
  EXPECT_NE(error.find("already listening"), std::string::npos) << error;

  // The loser must not have unlinked the winner's socket.
  Client client;
  EXPECT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
}

// ------------------------------------------------- hits on the reader

/// Every embedded source (the Table I suite and the fig-series kernels)
/// once, plus one that fails to compile.
std::vector<SourceItem> embeddedItemsAndAFailure() {
  std::vector<SourceItem> items;
  std::set<std::string> seen;
  for (const auto &kernel : workloads::coverageSuite())
    if (seen.insert(kernel.source).second)
      items.push_back({kernel.name + ".mc", kernel.source});
  for (const auto &workload : workloads::figSeriesWorkloads())
    if (seen.insert(*workload.source).second)
      items.push_back({workload.name + ".mc", *workload.source});
  items.push_back({"broken.mc", "int broken("});
  return items;
}

/// What a one-shot analysis of `item` would store or send: the payload of
/// core::analyze, named `name` with the diagnostics a hit under that name
/// gets (prefixed with the producer when the names differ).
std::string oneShotPayload(const SourceItem &item, const std::string &name) {
  core::AnalysisSpec spec;
  spec.name = item.name;
  spec.source = item.source;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                   core::kArtifactCoverage;
  const core::Artifacts direct = core::analyze(spec);
  std::string diagnostics = direct.diagnostics;
  if (name != item.name && !diagnostics.empty())
    diagnostics = "(diagnostics from identical source '" + item.name +
                  "')\n" + diagnostics;
  return driver::serializeArtifactPayload(
      direct.model.get(), direct.coverage ? &*direct.coverage : nullptr,
      diagnostics, name);
}

TEST(AnalysisServerTest, HitPayloadsAreSplicedByteIdenticalToOneShots) {
  DaemonFixture daemon;
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  const std::vector<SourceItem> items = embeddedItemsAndAFailure();

  std::size_t models = 0;
  for (const SourceItem &item : items) {
    ClientOutcome cold;
    ASSERT_TRUE(client.analyze(item.name, item.source, core::MiraOptions(),
                               cold))
        << client.lastError();
    EXPECT_FALSE(cold.cacheHit) << item.name;
    EXPECT_EQ(cold.payload, oneShotPayload(item, item.name)) << item.name;
    models += cold.ok ? 1 : 0;
  }
  // The first reply for each value encoded its tail; from here on every
  // reply is a memory hit and must encode no model.
  EXPECT_EQ(countersOf(client)["analyzer_model_encodes_total"], models);

  std::vector<SourceItem> renamed;
  for (const SourceItem &item : items) {
    // A hit under the producer's name, then one under another name,
    // whose diagnostics (when any) cite the producer.
    ClientOutcome hit, other;
    ASSERT_TRUE(client.analyze(item.name, item.source, core::MiraOptions(),
                               hit))
        << client.lastError();
    EXPECT_TRUE(hit.cacheHit) << item.name;
    EXPECT_EQ(hit.payload, oneShotPayload(item, item.name)) << item.name;
    const std::string otherName = "copy_of_" + item.name;
    ASSERT_TRUE(client.analyze(otherName, item.source, core::MiraOptions(),
                               other))
        << client.lastError();
    EXPECT_TRUE(other.cacheHit) << otherName;
    EXPECT_EQ(other.payload, oneShotPayload(item, otherName)) << otherName;
    renamed.push_back({otherName, item.source});
  }
  EXPECT_FALSE(oneShotPayload(items.back(), renamed.back().name)
                   .empty()); // the failure's diagnostics were prefixed

  // Pipelined hits splice their items the same way.
  std::vector<SourceItem> batch = items;
  batch.insert(batch.end(), renamed.begin(), renamed.end());
  std::vector<ClientOutcome> outcomes;
  ASSERT_TRUE(client.analyzePipelined(batch, core::MiraOptions(), outcomes))
      << client.lastError();
  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(outcomes[i].cacheHit) << batch[i].name;
    const SourceItem &producer = items[i % items.size()];
    EXPECT_EQ(outcomes[i].payload, oneShotPayload(producer, batch[i].name))
        << batch[i].name;
  }
  EXPECT_EQ(countersOf(client)["analyzer_model_encodes_total"], models);
}

TEST(AnalysisServerTest, DiskRestoredValuesServeTheTailTheyWereStoredWith) {
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() /
       ("mira_server_test_tail_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(cacheDir);
  const std::vector<SourceItem> items = embeddedItemsAndAFailure();
  {
    // A local analyzer fills the disk level; its stores encode the tails.
    driver::BatchOptions batchOptions;
    batchOptions.threads = 1;
    batchOptions.cacheDir = cacheDir;
    driver::BatchAnalyzer analyzer(batchOptions);
    for (const SourceItem &item : items) {
      core::AnalysisSpec spec;
      spec.name = item.name;
      spec.source = item.source;
      EXPECT_TRUE(analyzer.analyzeArtifacts(spec).diskStored) << item.name;
    }
  }

  ServerOptions options;
  options.cacheDir = cacheDir;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  for (const SourceItem &item : items) {
    // Restored from disk, then served from memory: both replies splice
    // onto the bytes the entry was stored with.
    for (int round = 0; round < 2; ++round) {
      ClientOutcome outcome;
      ASSERT_TRUE(client.analyze(item.name, item.source, core::MiraOptions(),
                                 outcome))
          << client.lastError();
      EXPECT_TRUE(outcome.cacheHit) << item.name;
      EXPECT_EQ(outcome.payload, oneShotPayload(item, item.name))
          << item.name << " round " << round;
    }
  }
  std::map<std::string, std::uint64_t> counters = countersOf(client);
  EXPECT_EQ(counters["analyzer_disk_hits_total"], items.size());
  EXPECT_EQ(counters["server_computed_total"], 0u);
  EXPECT_EQ(counters["analyzer_model_encodes_total"], 0u)
      << "a disk hit already holds its tail";
  std::filesystem::remove_all(cacheDir);
}

/// One source of `functions` triple loop nests: a compute of tens of
/// milliseconds or more, long enough to hold its in-flight slot while a
/// test sends a few more requests.
std::string slowSource(int functions = 300) {
  std::string source;
  for (int f = 0; f < functions; ++f) {
    const std::string k = std::to_string(f);
    source += "double slow_" + k +
              "(double* c, double* a, double* b, int n) {\n"
              "  for (int i = 0; i < n; i++) {\n"
              "    for (int j = 0; j < n; j++) {\n"
              "      for (int k = 0; k < n; k++) {\n"
              "        c[i * n + j] = c[i * n + j] + a[i * n + k] * " +
              k + ".0;\n"
              "      }\n"
              "    }\n"
              "  }\n"
              "  return c[0];\n"
              "}\n";
  }
  return source;
}

/// The option flags of a default Client request, so raw frames share
/// its cache keys.
std::uint8_t defaultFlags() { return core::packOptions(core::MiraOptions()); }

/// One reply frame off a raw connection: its type, and a reader over its
/// body.
struct RawReply {
  MessageType type{};
  std::string frame;
  std::size_t body = 0;
};

RawReply readRawReply(const net::Socket &sock) {
  RawReply reply;
  EXPECT_EQ(net::readFrame(sock.fd(), reply.frame, kMaxFrameBytes),
            net::FrameStatus::ok);
  bio::Reader r{reply.frame, 0};
  std::string error;
  EXPECT_TRUE(readHeader(r, reply.type, error)) << error;
  reply.body = r.offset;
  return reply;
}

/// The producer name inside an analyzeReply's payload.
std::string payloadName(const RawReply &reply) {
  bio::Reader r{reply.frame, reply.body};
  AnalyzeReply decoded;
  EXPECT_TRUE(decodeAnalyzeReply(r, decoded));
  std::shared_ptr<const core::AnalysisResult> analysis;
  std::optional<sema::LoopCoverage> coverage;
  std::string diagnostics, name;
  EXPECT_TRUE(driver::deserializeArtifactPayload(decoded.payload, analysis,
                                                 coverage, diagnostics, name));
  return name;
}

/// Poll the daemon until `gauge` reads `value`; false after ~10 s.
bool waitForGauge(Client &client, const std::string &gauge,
                  std::uint64_t value) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    std::vector<MetricSample> samples;
    if (!client.metrics(samples))
      return false;
    for (const MetricSample &sample : samples)
      if (sample.name == gauge && sample.value == value)
        return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(AnalysisServerTest, ReaderAnsweredHitsKeepRequestOrderBehindASlowMiss) {
  // One slot, held by the slow miss: a hit that needed one would be
  // refused Busy, so analyze and coverage replies prove the reader
  // answered them, and their order proves the sequencer held them back.
  ServerOptions options;
  options.maxInflight = 1;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  Client warm;
  ASSERT_TRUE(warm.connect(daemon.socketPath())) << warm.lastError();
  ClientOutcome outcome;
  ASSERT_TRUE(warm.analyze("fig5.mc", workloads::fig5Source(),
                           core::MiraOptions(), outcome))
      << warm.lastError();

  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(raw.valid()) << error;
  const SourceItem fig5{"fig5.mc", workloads::fig5Source()};
  ASSERT_TRUE(net::writeFrame(
      raw.fd(), encodeAnalyzeRequest({"slow.mc", slowSource()}, defaultFlags())));
  ASSERT_TRUE(net::writeFrame(raw.fd(), encodeAnalyzeRequest(fig5, defaultFlags())));
  ASSERT_TRUE(net::writeFrame(raw.fd(), encodeCoverageRequest(fig5, defaultFlags())));

  const RawReply slow = readRawReply(raw);
  ASSERT_EQ(slow.type, MessageType::analyzeReply);
  EXPECT_EQ(payloadName(slow), "slow.mc");
  const RawReply hit = readRawReply(raw);
  ASSERT_EQ(hit.type, MessageType::analyzeReply);
  EXPECT_EQ(payloadName(hit), "fig5.mc");
  const RawReply coverage = readRawReply(raw);
  ASSERT_EQ(coverage.type, MessageType::coverageReply);
  bio::Reader r{coverage.frame, coverage.body};
  CoverageReply decoded;
  ASSERT_TRUE(decodeCoverageReply(r, decoded));
  EXPECT_TRUE(decoded.ok);
  EXPECT_TRUE(decoded.cacheHit);
}

TEST(AnalysisServerTest, ReadyHitsTakeNoInflightSlotButComputingOnesDo) {
  ServerOptions options;
  options.maxInflight = 1;
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  const SourceItem fig5{"fig5.mc", workloads::fig5Source()};
  ClientOutcome outcome;
  ASSERT_TRUE(client.analyze(fig5.name, fig5.source, core::MiraOptions(),
                             outcome))
      << client.lastError();

  // The slow miss takes the only slot ...
  std::string error;
  net::Socket holder = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(holder.valid()) << error;
  const std::string slow = slowSource();
  ASSERT_TRUE(net::writeFrame(holder.fd(),
                              encodeAnalyzeRequest({"slow.mc", slow}, defaultFlags())));
  ASSERT_TRUE(waitForGauge(client, "server_inflight_requests", 1));

  // ... and, on another connection, ready hits are still answered while
  // a duplicate of the source still computing is refused.
  net::Socket other = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(other.valid()) << error;
  ASSERT_TRUE(net::writeFrame(other.fd(), encodeAnalyzeRequest(fig5, defaultFlags())));
  EXPECT_EQ(readRawReply(other).type, MessageType::analyzeReply);
  ASSERT_TRUE(net::writeFrame(other.fd(), encodeCoverageRequest(fig5, defaultFlags())));
  EXPECT_EQ(readRawReply(other).type, MessageType::coverageReply);
  ASSERT_TRUE(net::writeFrame(other.fd(),
                              encodeAnalyzeRequest({"dup.mc", slow}, defaultFlags())));
  EXPECT_EQ(readRawReply(other).type, MessageType::busyReply);

  const RawReply slowReply = readRawReply(holder);
  ASSERT_EQ(slowReply.type, MessageType::analyzeReply);
  EXPECT_EQ(payloadName(slowReply), "slow.mc");
  EXPECT_EQ(countersOf(client)["server_busy_rejections_total"], 1u);
}

TEST(AnalysisServerTest, ClientGivesUpAfterItsBusyRetries) {
  ServerOptions options;
  options.maxInflight = 1;
  options.busyRetryMillis = 1; // retries take a few ms; the slow miss far more
  DaemonFixture daemon(options);
  ASSERT_TRUE(daemon.started());
  Client client;
  ASSERT_TRUE(client.connect(daemon.socketPath())) << client.lastError();

  // The slow miss takes the only slot ...
  std::string error;
  net::Socket holder = net::connectUnix(daemon.socketPath(), error);
  ASSERT_TRUE(holder.valid()) << error;
  ASSERT_TRUE(net::writeFrame(
      holder.fd(),
      encodeAnalyzeRequest({"slow.mc", slowSource()}, defaultFlags())));
  ASSERT_TRUE(waitForGauge(client, "server_inflight_requests", 1));
  const std::uint64_t before =
      countersOf(client)["server_busy_rejections_total"];

  // ... so a cold request is refused on its first try and on both
  // retries, and the client gives up with a Busy failure.
  client.setBusyRetries(2);
  ClientOutcome outcome;
  EXPECT_FALSE(client.analyze("cold.mc", workloads::streamSource(),
                              core::MiraOptions(), outcome));
  EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::busy)
      << client.lastError();
  EXPECT_EQ(countersOf(client)["server_busy_rejections_total"], before + 3);
  EXPECT_EQ(readRawReply(holder).type, MessageType::analyzeReply);
}

/// The `_total` counters after a slow miss and three duplicates of it
/// (two analyze, one coverage). Sent at once, the duplicates find the
/// entry still computing and are served as hits by compute workers;
/// sent one by one after the miss's reply, they are ready hits the
/// reader answers.
std::map<std::string, std::uint64_t> countersAfterDuplicates(
    bool afterTheMiss) {
  DaemonFixture daemon;
  EXPECT_TRUE(daemon.started());
  const std::string slow = slowSource();
  const std::vector<std::string> frames = {
      encodeAnalyzeRequest({"slow.mc", slow}, defaultFlags()),
      encodeAnalyzeRequest({"slow.mc", slow}, defaultFlags()),
      encodeAnalyzeRequest({"copy.mc", slow}, defaultFlags()),
      encodeCoverageRequest({"cov.mc", slow}, defaultFlags())};
  std::string error;
  net::Socket raw = net::connectUnix(daemon.socketPath(), error);
  EXPECT_TRUE(raw.valid()) << error;
  for (const std::string &frame : frames) {
    EXPECT_TRUE(net::writeFrame(raw.fd(), frame));
    if (afterTheMiss)
      EXPECT_NE(readRawReply(raw).type, MessageType::error);
  }
  if (!afterTheMiss)
    for (std::size_t i = 0; i < frames.size(); ++i)
      EXPECT_NE(readRawReply(raw).type, MessageType::error);
  Client client;
  EXPECT_TRUE(client.connect(daemon.socketPath())) << client.lastError();
  return countersOf(client);
}

TEST(AnalysisServerTest, ReaderAnsweredHitsCountLikePoolServedHits) {
  const std::map<std::string, std::uint64_t> pool =
      countersAfterDuplicates(false);
  const std::map<std::string, std::uint64_t> reader =
      countersAfterDuplicates(true);
  EXPECT_EQ(pool, reader);
  EXPECT_EQ(reader.at("server_cache_hits_total"), 3u);
  EXPECT_EQ(reader.at("analyzer_coverage_from_cache_total"), 1u);
  EXPECT_EQ(reader.at("analyzer_model_encodes_total"), 1u);
}

} // namespace
} // namespace mira::server
