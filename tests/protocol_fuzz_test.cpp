// Adversarial protocol tests: seeded property/fuzz coverage of every
// wire codec and of the live server's frame decoder.
//
// Three layers, all deterministic (fixed seeds, printed on entry so a
// failure reproduces):
//   1. round-trip properties — randomized messages encode then decode
//      to equal values;
//   2. decoder mutation fuzz — truncations, bit flips, and appended
//      garbage over valid frames (and over the cache/manifest/report
//      payload codecs) must return false or decode cleanly, never
//      crash or read out of bounds (the ASan/UBSan CI job is the
//      memory referee);
//   3. a live AnalysisServer fed malformed, truncated, and oversized
//      frames must answer Error-then-close for everything it can parse
//      a length prefix from, never wedge, and never leak a file
//      descriptor (checked against /proc/self/fd).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "corpus/manifest.h"
#include "driver/batch.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/socket.h"

namespace mira::server {
namespace {

constexpr std::uint64_t kSeed = 0x4d72695046757a7aull; // "MriPFuzz"

std::string randomBytes(std::mt19937_64 &rng, std::size_t maxLength) {
  std::string out;
  const std::size_t length = rng() % (maxLength + 1);
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    out.push_back(static_cast<char>(rng() & 0xff));
  return out;
}

SourceItem randomItem(std::mt19937_64 &rng) {
  return SourceItem{randomBytes(rng, 40), randomBytes(rng, 200)};
}

// ------------------------------------------------- round-trip layer

TEST(ProtocolFuzz, RandomRequestsRoundTrip) {
  std::mt19937_64 rng(kSeed);
  for (int i = 0; i < 200; ++i) {
    const std::uint8_t flags = static_cast<std::uint8_t>(rng() & 0x7);

    {
      const SourceItem item = randomItem(rng);
      const std::string wire = encodeAnalyzeRequest(item, flags);
      bio::Reader r{wire, 0};
      MessageType type{};
      std::string error;
      ASSERT_TRUE(readHeader(r, type, error)) << error;
      EXPECT_EQ(type, MessageType::analyze);
      SourceItem decoded;
      std::uint8_t decodedFlags = 0;
      ASSERT_TRUE(decodeAnalyzeRequest(r, decoded, decodedFlags));
      EXPECT_EQ(decoded.name, item.name);
      EXPECT_EQ(decoded.source, item.source);
      EXPECT_EQ(decodedFlags, flags);
    }
    {
      core::SimulationArgs sim;
      sim.function = randomBytes(rng, 30);
      sim.options.fastForward = (rng() & 1) != 0;
      sim.options.maxInstructions = rng();
      const std::size_t argc = rng() % 4;
      for (std::size_t j = 0; j < argc; ++j) {
        sim::Value value;
        value.i = static_cast<std::int64_t>(rng());
        value.f = static_cast<double>(rng()) / 7.0;
        value.f2 = static_cast<double>(rng()) / 3.0;
        sim.args.push_back(value);
      }
      const SourceItem item = randomItem(rng);
      const std::string wire = encodeSimulateRequest(item, flags, sim);
      bio::Reader r{wire, 0};
      MessageType type{};
      std::string error;
      ASSERT_TRUE(readHeader(r, type, error));
      SourceItem decodedItem;
      std::uint8_t decodedFlags = 0;
      core::SimulationArgs decodedSim;
      ASSERT_TRUE(decodeSimulateRequest(r, decodedItem, decodedFlags,
                                        decodedSim));
      EXPECT_EQ(decodedSim.function, sim.function);
      EXPECT_EQ(decodedSim.options.fastForward, sim.options.fastForward);
      EXPECT_EQ(decodedSim.options.maxInstructions,
                sim.options.maxInstructions);
      ASSERT_EQ(decodedSim.args.size(), sim.args.size());
      for (std::size_t j = 0; j < sim.args.size(); ++j) {
        EXPECT_EQ(decodedSim.args[j].i, sim.args[j].i);
        EXPECT_EQ(decodedSim.args[j].f, sim.args[j].f);
      }
    }
  }
}

TEST(ProtocolFuzz, RandomBusyAndMetricsRepliesRoundTrip) {
  std::mt19937_64 rng(kSeed ^ 0x5);
  for (int i = 0; i < 200; ++i) {
    {
      BusyReply busy;
      busy.retryAfterMillis = static_cast<std::uint32_t>(rng());
      const std::string wire = encodeBusyReply(busy);
      bio::Reader r{wire, 0};
      MessageType type{};
      std::string error;
      ASSERT_TRUE(readHeader(r, type, error)) << error;
      EXPECT_EQ(type, MessageType::busyReply);
      BusyReply decoded;
      ASSERT_TRUE(decodeBusyReply(r, decoded));
      EXPECT_EQ(decoded.retryAfterMillis, busy.retryAfterMillis);
    }
    {
      std::vector<MetricSample> samples;
      const std::size_t count = rng() % 24;
      for (std::size_t j = 0; j < count; ++j)
        samples.push_back({randomBytes(rng, 60), rng()});
      const std::string wire = encodeMetricsReply(samples);
      bio::Reader r{wire, 0};
      MessageType type{};
      std::string error;
      ASSERT_TRUE(readHeader(r, type, error)) << error;
      EXPECT_EQ(type, MessageType::metricsReply);
      std::vector<MetricSample> decoded;
      ASSERT_TRUE(decodeMetricsReply(r, decoded));
      ASSERT_EQ(decoded.size(), samples.size());
      for (std::size_t j = 0; j < samples.size(); ++j) {
        EXPECT_EQ(decoded[j].name, samples[j].name);
        EXPECT_EQ(decoded[j].value, samples[j].value);
      }
    }
    {
      // The metrics request itself is an empty-body message.
      const std::string wire = encodeMetricsRequest();
      bio::Reader r{wire, 0};
      MessageType type{};
      std::string error;
      ASSERT_TRUE(readHeader(r, type, error)) << error;
      EXPECT_EQ(type, MessageType::metrics);
      EXPECT_EQ(r.remaining(), 0u);
    }
  }
}

TEST(ProtocolFuzz, RandomManifestBatchMessagesRoundTrip) {
  std::mt19937_64 rng(kSeed ^ 0x6);
  for (int i = 0; i < 200; ++i) {
    ManifestBatchRequest request;
    request.flags = static_cast<std::uint8_t>(rng() & 0x7);
    request.progress = (rng() & 1) != 0;
    request.shardCount = 1 + static_cast<std::uint32_t>(rng() % 16);
    request.shardIndex = static_cast<std::uint32_t>(rng()) % request.shardCount;
    request.root = randomBytes(rng, 60);
    request.manifestBytes = randomBytes(rng, 400);
    request.sinceBytes = randomBytes(rng, 400);
    const std::string wire = encodeManifestBatchRequest(request);
    bio::Reader r{wire, 0};
    MessageType type{};
    std::string error;
    ASSERT_TRUE(readHeader(r, type, error)) << error;
    EXPECT_EQ(type, MessageType::manifestBatch);
    ManifestBatchRequest decoded;
    ASSERT_TRUE(decodeManifestBatchRequest(r, decoded));
    EXPECT_EQ(decoded.flags, request.flags);
    EXPECT_EQ(decoded.progress, request.progress);
    EXPECT_EQ(decoded.shardIndex, request.shardIndex);
    EXPECT_EQ(decoded.shardCount, request.shardCount);
    EXPECT_EQ(decoded.root, request.root);
    EXPECT_EQ(decoded.manifestBytes, request.manifestBytes);
    EXPECT_EQ(decoded.sinceBytes, request.sinceBytes);

    BatchProgress progress;
    progress.done = static_cast<std::uint32_t>(rng());
    progress.total = static_cast<std::uint32_t>(rng());
    progress.failures = static_cast<std::uint32_t>(rng());
    progress.cacheHits = static_cast<std::uint32_t>(rng());
    const std::string progressWire = encodeBatchProgress(progress);
    bio::Reader pr{progressWire, 0};
    ASSERT_TRUE(readHeader(pr, type, error)) << error;
    EXPECT_EQ(type, MessageType::batchProgress);
    BatchProgress decodedProgress;
    ASSERT_TRUE(decodeBatchProgress(pr, decodedProgress));
    EXPECT_EQ(decodedProgress.done, progress.done);
    EXPECT_EQ(decodedProgress.total, progress.total);
    EXPECT_EQ(decodedProgress.failures, progress.failures);
    EXPECT_EQ(decodedProgress.cacheHits, progress.cacheHits);

    ManifestBatchReply reply;
    reply.reportBytes = randomBytes(rng, 600);
    const std::string replyWire = encodeManifestBatchReply(reply);
    bio::Reader rr{replyWire, 0};
    ASSERT_TRUE(readHeader(rr, type, error)) << error;
    EXPECT_EQ(type, MessageType::manifestBatchReply);
    ManifestBatchReply decodedReply;
    ASSERT_TRUE(decodeManifestBatchReply(rr, decodedReply));
    EXPECT_EQ(decodedReply.reportBytes, reply.reportBytes);
  }
}

// --------------------------------------------- decoder mutation fuzz

/// Apply one random mutation: truncate, flip a byte, or append junk.
std::string mutate(std::mt19937_64 &rng, const std::string &bytes) {
  std::string out = bytes;
  switch (rng() % 3) {
  case 0:
    if (!out.empty())
      out.resize(rng() % out.size());
    break;
  case 1:
    if (!out.empty())
      out[rng() % out.size()] ^= static_cast<char>(1u << (rng() % 8));
    break;
  default:
    out += randomBytes(rng, 16);
    break;
  }
  return out;
}

/// Run the server's own dispatch order over one (possibly hostile)
/// message: header first, then the type-specific body decoder. The
/// property is simply "terminates with a verdict, no crash/UB".
void decodeLikeTheServer(const std::string &message) {
  bio::Reader r{message, 0};
  MessageType type{};
  std::string error;
  if (!readHeader(r, type, error))
    return;
  SourceItem item;
  std::uint8_t flags = 0;
  switch (type) {
  case MessageType::analyze:
    (void)decodeAnalyzeRequest(r, item, flags);
    break;
  case MessageType::coverage:
    (void)decodeCoverageRequest(r, item, flags);
    break;
  case MessageType::simulate: {
    core::SimulationArgs sim;
    (void)decodeSimulateRequest(r, item, flags, sim);
    break;
  }
  case MessageType::manifestBatch: {
    ManifestBatchRequest request;
    if (decodeManifestBatchRequest(r, request)) {
      // The server validates both blobs before touching the compute
      // pool; a mutated manifest must fail cleanly, never crash.
      corpus::Manifest manifest;
      std::string manifestError;
      (void)corpus::deserializeManifest(request.manifestBytes, manifest,
                                        manifestError);
      if (!request.sinceBytes.empty())
        (void)corpus::deserializeManifest(request.sinceBytes, manifest,
                                          manifestError);
    }
    break;
  }
  // Reply types: mutated server frames exercise the client decoders.
  case MessageType::batchProgress: {
    BatchProgress progress;
    (void)decodeBatchProgress(r, progress);
    break;
  }
  case MessageType::manifestBatchReply: {
    ManifestBatchReply reply;
    (void)decodeManifestBatchReply(r, reply);
    break;
  }
  case MessageType::busyReply: {
    BusyReply busy;
    (void)decodeBusyReply(r, busy);
    break;
  }
  case MessageType::metricsReply: {
    std::vector<MetricSample> samples;
    (void)decodeMetricsReply(r, samples);
    break;
  }
  default:
    break;
  }
}

TEST(ProtocolFuzz, MutatedFramesNeverCrashTheDecoders) {
  std::mt19937_64 rng(kSeed ^ 0x2);
  core::SimulationArgs sim;
  sim.function = "f";
  sim.args.push_back(sim::Value::ofInt(3));
  const std::vector<std::string> seeds = {
      encodeAnalyzeRequest({"n", "int f() { return 1; }"}, 0x3),
      [] {
        // The retired Batch request (type 3): refused undecoded.
        std::string frame;
        beginMessage(frame, static_cast<MessageType>(3));
        bio::putU8(frame, 0x7);
        bio::putU32(frame, 2);
        for (const char *field : {"a", "sa", "b", "sb"})
          bio::putString(frame, field);
        return frame;
      }(),
      encodeCoverageRequest({"c", "sc"}, 0x2),
      encodeSimulateRequest({"s", "ss"}, 0x1, sim),
      [] {
        // The retired ManifestDiff request (type 8): refused undecoded.
        std::string frame;
        beginMessage(frame, static_cast<MessageType>(8));
        bio::putString(frame, corpus::serializeManifest({}));
        bio::putString(frame, corpus::serializeManifest({}));
        return frame;
      }(),
      encodeEmptyMessage(MessageType::ping),
      [] {
        // The retired CacheStats request (type 4): refused undecoded.
        std::string frame;
        beginMessage(frame, static_cast<MessageType>(4));
        return frame;
      }(),
      encodeEmptyMessage(MessageType::metrics),
      [] {
        ManifestBatchRequest request;
        request.flags = 0x3;
        request.progress = true;
        request.shardIndex = 1;
        request.shardCount = 3;
        request.root = "/tmp/corpus";
        request.manifestBytes = corpus::serializeManifest({});
        return encodeManifestBatchRequest(request);
      }(),
      encodeBatchProgress({3, 9, 1, 2}),
      [] {
        driver::BatchReport fuzzReport;
        fuzzReport.entries.push_back({"seed.mc", 0xfeed, true});
        fuzzReport.stats.requests = 1;
        ManifestBatchReply reply;
        reply.reportBytes = driver::serializeBatchReport(fuzzReport);
        return encodeManifestBatchReply(reply);
      }(),
      encodeBusyReply({12345}),
      encodeMetricsReply({{"server_requests_served_total", 7},
                          {"server_uptime_micros", 1ull << 40}}),
  };
  for (int i = 0; i < 3000; ++i) {
    std::string bytes = seeds[rng() % seeds.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m)
      bytes = mutate(rng, bytes);
    decodeLikeTheServer(bytes);
  }
  // Reaching here alive (and ASan-clean in the sanitizer job) is the
  // assertion; add one positive control so the test can't rot into
  // never exercising the happy path.
  decodeLikeTheServer(seeds[0]);
  SUCCEED();
}

TEST(ProtocolFuzz, MutatedPayloadCodecsNeverCrash) {
  std::mt19937_64 rng(kSeed ^ 0x3);
  // Seed corpus: two failure payloads, a manifest, a report.
  corpus::Manifest manifest;
  manifest.root = "r";
  manifest.entries = {{"a.mc", 1, 2}, {"b.mc", 3, 4}};
  driver::BatchReport report;
  report.entries.push_back({"a.mc", 0x1234, true});
  report.stats.requests = 1;
  const std::vector<std::string> seeds = {
      driver::serializeArtifactPayload(nullptr, nullptr, "diag", "producer"),
      driver::serializeArtifactPayload(nullptr, nullptr, "d", "p"),
      corpus::serializeManifest(manifest),
      driver::serializeBatchReport(report),
  };
  for (int i = 0; i < 3000; ++i) {
    std::string bytes = mutate(rng, seeds[rng() % seeds.size()]);
    {
      std::shared_ptr<const core::AnalysisResult> analysis;
      std::optional<sema::LoopCoverage> coverage;
      std::string diagnostics, producer;
      (void)driver::deserializeArtifactPayload(bytes, analysis, coverage,
                                               diagnostics, producer);
    }
    {
      corpus::Manifest decoded;
      std::string error;
      (void)corpus::deserializeManifest(bytes, decoded, error);
    }
    {
      driver::BatchReport decoded;
      std::string error;
      (void)driver::deserializeBatchReport(bytes, decoded, error);
    }
  }
  SUCCEED();
}

// ------------------------------------------------- live-server layer

namespace fs = std::filesystem;

std::size_t openFdCount() {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto &entry : fs::directory_iterator("/proc/self/fd", ec)) {
    (void)entry;
    ++count;
  }
  return count;
}

struct ServerFixture {
  ServerOptions options;
  AnalysisServer server;
  std::thread thread;

  explicit ServerFixture(std::uint32_t maxFrameBytes = 1 << 16)
      : options(makeOptions(maxFrameBytes)), server(options) {
    std::string error;
    if (!server.start(error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    thread = std::thread([this] { server.serve(); });
  }

  ~ServerFixture() {
    server.requestStop();
    if (thread.joinable())
      thread.join();
  }

  static ServerOptions makeOptions(std::uint32_t maxFrameBytes) {
    ServerOptions options;
    options.socketPath =
        (fs::temp_directory_path() /
         ("mira_fuzz_" + std::to_string(::getpid()) + ".sock"))
            .string();
    options.threads = 2;
    options.maxFrameBytes = maxFrameBytes;
    return options;
  }
};

/// One raw exchange: write `frame` (as a length-prefixed frame), then
/// read replies until EOF. Returns the raw reply frames.
std::vector<std::string> rawExchange(const std::string &socketPath,
                                     const std::string &frame,
                                     bool truncateBody = false) {
  std::string error;
  net::Socket sock = net::connectUnix(socketPath, error);
  EXPECT_TRUE(sock.valid()) << error;
  if (!sock.valid())
    return {};
  if (truncateBody) {
    // Promise more bytes than we send, then close: the server must
    // treat the torn frame as a protocol error, not wait forever.
    std::string prefix;
    bio::putU32(prefix, static_cast<std::uint32_t>(frame.size() + 64));
    prefix += frame;
    ::send(sock.fd(), prefix.data(), prefix.size(), MSG_NOSIGNAL);
    sock.close();
    return {};
  }
  EXPECT_TRUE(net::writeFrame(sock.fd(), frame));
  // Half-close: the server sees EOF after our one frame, so a handler
  // that would otherwise wait for the next request closes instead —
  // reading "until EOF" below can never deadlock.
  ::shutdown(sock.fd(), SHUT_WR);
  std::vector<std::string> replies;
  for (;;) {
    std::string reply;
    const net::FrameStatus status =
        net::readFrame(sock.fd(), reply, kMaxFrameBytes);
    if (status != net::FrameStatus::ok)
      break;
    replies.push_back(std::move(reply));
  }
  return replies;
}

/// True when `frame` decodes as an Error reply.
bool isErrorReply(const std::string &frame) {
  bio::Reader r{frame, 0};
  MessageType type{};
  std::string error;
  if (!readHeader(r, type, error))
    return false;
  std::string message;
  return type == MessageType::error && decodeErrorReply(r, message);
}

TEST(ServerFuzz, MalformedTruncatedOversizedAnswerErrorThenCloseNoFdLeak) {
  ServerFixture fixture;
  // Let the session pool settle before measuring the fd baseline.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t baseline = openFdCount();

  std::mt19937_64 rng(kSeed ^ 0x4);
  int errorReplies = 0, closures = 0;
  for (int round = 0; round < 60; ++round) {
    switch (round % 4) {
    case 0: {
      // Garbage that can never parse as a header (bad magic byte):
      // MUST get Error then EOF.
      std::string garbage = randomBytes(rng, 64);
      garbage.insert(garbage.begin(), 'X');
      const auto replies = rawExchange(fixture.options.socketPath, garbage);
      ASSERT_EQ(replies.size(), 1u) << "expected exactly Error-then-close";
      EXPECT_TRUE(isErrorReply(replies[0]));
      ++errorReplies;
      break;
    }
    case 1: {
      // Valid header, mutated body. The server must answer exactly one
      // frame (a reply or an Error) or close; it must never wedge.
      std::string wire =
          encodeAnalyzeRequest({"fuzz", randomBytes(rng, 80)}, 0x3);
      wire = mutate(rng, wire);
      // Steer clear of frames that could parse as a shutdown request.
      if (wire.size() >= 9 && wire.compare(0, 4, "MirP") == 0 &&
          static_cast<std::uint8_t>(wire[8]) ==
              static_cast<std::uint8_t>(MessageType::shutdown))
        wire[8] = static_cast<char>(MessageType::ping);
      const auto replies = rawExchange(fixture.options.socketPath, wire);
      EXPECT_LE(replies.size(), 1u);
      closures += replies.empty() ? 1 : 0;
      break;
    }
    case 2: {
      // Oversized declared length: Error without reading the body,
      // then close.
      std::string error;
      net::Socket sock =
          net::connectUnix(fixture.options.socketPath, error);
      ASSERT_TRUE(sock.valid()) << error;
      std::string prefix;
      bio::putU32(prefix, fixture.options.maxFrameBytes + 1);
      ASSERT_EQ(::send(sock.fd(), prefix.data(), prefix.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(prefix.size()));
      std::string reply;
      ASSERT_EQ(net::readFrame(sock.fd(), reply, kMaxFrameBytes),
                net::FrameStatus::ok);
      EXPECT_TRUE(isErrorReply(reply));
      ASSERT_EQ(net::readFrame(sock.fd(), reply, kMaxFrameBytes),
                net::FrameStatus::closed);
      ++errorReplies;
      break;
    }
    default:
      // Torn frame: promised body never arrives.
      rawExchange(fixture.options.socketPath,
                  encodeEmptyMessage(MessageType::ping),
                  /*truncateBody=*/true);
      ++closures;
      break;
    }
  }
  EXPECT_GT(errorReplies, 0);
  EXPECT_GT(closures, 0);

  // A healthy request still works after the abuse.
  Client client;
  ASSERT_TRUE(client.connect(fixture.options.socketPath));
  EXPECT_TRUE(client.ping());
  client.disconnect();

  // Every connection above was closed by one side; the server must have
  // released its fd for each. Poll: handlers may still be draining.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t now = openFdCount();
  while (now > baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    now = openFdCount();
  }
  EXPECT_LE(now, baseline) << "file descriptors leaked under fuzzing";
}

TEST(ServerFuzz, MalformedManifestBlobsAnswerErrorThenClose) {
  ServerFixture fixture;
  corpus::Manifest manifest;
  manifest.entries = {{"a.mc", 1, 2}};
  const std::string good = corpus::serializeManifest(manifest);
  std::string bad = good;
  bad[bad.size() / 2] ^= 0x10; // checksum breaks

  ManifestBatchRequest request;
  request.manifestBytes = good;
  request.sinceBytes = bad;
  const auto replies = rawExchange(fixture.options.socketPath,
                                   encodeManifestBatchRequest(request));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(isErrorReply(replies[0]));

  // And the well-formed request still answers afterwards: against an
  // identical baseline nothing is selected, so no source is read.
  Client client;
  ASSERT_TRUE(client.connect(fixture.options.socketPath));
  std::string reportBytes;
  ASSERT_TRUE(client.manifestBatch(good, good, "", driver::ShardSpec{},
                                   core::MiraOptions(), nullptr, reportBytes))
      << client.lastError();
  driver::BatchReport report;
  std::string error;
  ASSERT_TRUE(driver::deserializeBatchReport(reportBytes, report, error))
      << error;
  EXPECT_TRUE(report.entries.empty());
  client.disconnect();
}

TEST(ServerFuzz, MalformedManifestBatchBlobsAnswerErrorThenClose) {
  ServerFixture fixture;
  corpus::Manifest manifest;
  manifest.root = "/nowhere";
  manifest.entries = {{"a.mc", 1, 2}};
  const std::string good = corpus::serializeManifest(manifest);

  std::mt19937_64 rng(kSeed ^ 0x7);
  for (int round = 0; round < 20; ++round) {
    // Mutated manifest blob inside a perfectly framed request: the
    // reader thread must validate and answer Error before anything
    // reaches the compute pool, then close.
    std::string bad = mutate(rng, good);
    if (bad == good)
      bad += "x";
    ManifestBatchRequest request;
    request.manifestBytes = bad;
    const auto replies = rawExchange(fixture.options.socketPath,
                                     encodeManifestBatchRequest(request));
    ASSERT_EQ(replies.size(), 1u) << "expected exactly Error-then-close";
    EXPECT_TRUE(isErrorReply(replies[0]));
  }
  {
    // A corrupt --since baseline is rejected the same way even when the
    // manifest itself is fine.
    ManifestBatchRequest request;
    request.manifestBytes = good;
    request.sinceBytes = "not a manifest";
    const auto replies = rawExchange(fixture.options.socketPath,
                                     encodeManifestBatchRequest(request));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_TRUE(isErrorReply(replies[0]));
  }
  {
    // Well-formed blobs whose sources do not exist on this machine:
    // the batch is admitted, fails at the read stage, and still answers
    // a clean Error instead of wedging the session.
    ManifestBatchRequest request;
    request.manifestBytes = good;
    const auto replies = rawExchange(fixture.options.socketPath,
                                     encodeManifestBatchRequest(request));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_TRUE(isErrorReply(replies[0]));
  }

  // The daemon survives all of it.
  Client client;
  ASSERT_TRUE(client.connect(fixture.options.socketPath));
  EXPECT_TRUE(client.ping()) << client.lastError();
  client.disconnect();
}

// ------------------------------------------- TCP + handshake layer

/// A live server on a loopback TCP ephemeral port (no Unix socket),
/// optionally requiring a shared-secret Hello handshake.
struct TcpServerFixture {
  ServerOptions options;
  AnalysisServer server;
  std::thread thread;

  explicit TcpServerFixture(const std::string &secret = std::string(),
                            std::uint32_t maxFrameBytes = 1 << 16)
      : options(makeOptions(secret, maxFrameBytes)), server(options) {
    std::string error;
    if (!server.start(error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    thread = std::thread([this] { server.serve(); });
  }

  ~TcpServerFixture() {
    server.requestStop();
    if (thread.joinable())
      thread.join();
  }

  std::uint16_t port() const { return server.tcpPort(); }

  static ServerOptions makeOptions(const std::string &secret,
                                   std::uint32_t maxFrameBytes) {
    ServerOptions options;
    options.tcpListen = true;
    options.tcpHost = "127.0.0.1";
    options.tcpPortRequested = 0; // ephemeral; tests read server.tcpPort()
    options.threads = 2;
    options.maxFrameBytes = maxFrameBytes;
    options.secret = secret;
    return options;
  }
};

/// rawExchange over loopback TCP: write one frame, half-close, read
/// replies until EOF.
std::vector<std::string> rawExchangeTcp(std::uint16_t port,
                                        const std::string &frame,
                                        bool truncateBody = false) {
  std::string error;
  net::Socket sock = net::connectTcp("127.0.0.1", port, 2000, error);
  EXPECT_TRUE(sock.valid()) << error;
  if (!sock.valid())
    return {};
  if (truncateBody) {
    std::string prefix;
    bio::putU32(prefix, static_cast<std::uint32_t>(frame.size() + 64));
    prefix += frame;
    ::send(sock.fd(), prefix.data(), prefix.size(), MSG_NOSIGNAL);
    sock.close();
    return {};
  }
  EXPECT_TRUE(net::writeFrame(sock.fd(), frame));
  ::shutdown(sock.fd(), SHUT_WR);
  std::vector<std::string> replies;
  for (;;) {
    std::string reply;
    const net::FrameStatus status =
        net::readFrame(sock.fd(), reply, kMaxFrameBytes);
    if (status != net::FrameStatus::ok)
      break;
    replies.push_back(std::move(reply));
  }
  return replies;
}

TEST(ServerFuzz, TcpMalformedTruncatedOversizedAnswerErrorThenClose) {
  TcpServerFixture fixture;
  ASSERT_GT(fixture.port(), 0);

  std::mt19937_64 rng(kSeed ^ 0x8);
  int errorReplies = 0;
  for (int round = 0; round < 40; ++round) {
    switch (round % 4) {
    case 0: {
      std::string garbage = randomBytes(rng, 64);
      garbage.insert(garbage.begin(), 'X');
      const auto replies = rawExchangeTcp(fixture.port(), garbage);
      ASSERT_EQ(replies.size(), 1u) << "expected exactly Error-then-close";
      EXPECT_TRUE(isErrorReply(replies[0]));
      ++errorReplies;
      break;
    }
    case 1: {
      std::string wire =
          encodeAnalyzeRequest({"fuzz", randomBytes(rng, 80)}, 0x3);
      wire = mutate(rng, wire);
      if (wire.size() >= 9 && wire.compare(0, 4, "MirP") == 0 &&
          static_cast<std::uint8_t>(wire[8]) ==
              static_cast<std::uint8_t>(MessageType::shutdown))
        wire[8] = static_cast<char>(MessageType::ping);
      const auto replies = rawExchangeTcp(fixture.port(), wire);
      EXPECT_LE(replies.size(), 1u);
      break;
    }
    case 2: {
      // Oversized declared length over TCP: Error without reading the
      // body, then close — a port scan cannot make the daemon buffer.
      std::string error;
      net::Socket sock = net::connectTcp("127.0.0.1", fixture.port(), 2000,
                                         error);
      ASSERT_TRUE(sock.valid()) << error;
      std::string prefix;
      bio::putU32(prefix, fixture.options.maxFrameBytes + 1);
      ASSERT_EQ(::send(sock.fd(), prefix.data(), prefix.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(prefix.size()));
      std::string reply;
      ASSERT_EQ(net::readFrame(sock.fd(), reply, kMaxFrameBytes),
                net::FrameStatus::ok);
      EXPECT_TRUE(isErrorReply(reply));
      ASSERT_EQ(net::readFrame(sock.fd(), reply, kMaxFrameBytes),
                net::FrameStatus::closed);
      ++errorReplies;
      break;
    }
    default:
      rawExchangeTcp(fixture.port(), encodeEmptyMessage(MessageType::ping),
                     /*truncateBody=*/true);
      break;
    }
  }
  EXPECT_GT(errorReplies, 0);

  // A healthy TCP client still works after the abuse.
  Client client;
  ASSERT_TRUE(client.connectTcp("127.0.0.1", fixture.port()))
      << client.lastError();
  EXPECT_TRUE(client.ping());
  client.disconnect();
}

TEST(ServerFuzz, WrongSecretAnswersErrorThenCloseWithZeroCompute) {
  TcpServerFixture fixture("sesame");
  ASSERT_GT(fixture.port(), 0);

  // Requests without a Hello — including compute-bearing ones — are
  // refused before dispatch: exactly one Error frame, then close.
  const std::string analyze =
      encodeAnalyzeRequest({"probe", "int f() { return 1; }"}, 0x3);
  for (const std::string &frame :
       {analyze, encodeEmptyMessage(MessageType::ping),
        encodeEmptyMessage(MessageType::metrics)}) {
    const auto replies = rawExchangeTcp(fixture.port(), frame);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_TRUE(isErrorReply(replies[0]));
  }

  // Wrong secret: the client library surfaces it as a connect failure.
  {
    Client client;
    client.setSecret("wrong");
    EXPECT_FALSE(client.connectTcp("127.0.0.1", fixture.port()));
    EXPECT_EQ(client.lastErrorKind(), Client::ErrorKind::connect);
  }

  // Mutated Hello frames: the gate must answer at most one frame and
  // never wedge or grant a session.
  std::mt19937_64 rng(kSeed ^ 0x9);
  const std::string hello = encodeHelloRequest("sesame");
  for (int round = 0; round < 40; ++round) {
    std::string wire = mutate(rng, hello);
    if (wire == hello)
      continue; // the unmutated handshake is tested separately below
    const auto replies = rawExchangeTcp(fixture.port(), wire);
    EXPECT_LE(replies.size(), 1u);
  }

  // None of the above reached the pipeline: an unauthenticated peer
  // costs the daemon parsing, never compute.
  std::map<std::string, std::uint64_t> stats;
  for (const MetricSample &sample : fixture.server.metricsSamples())
    stats[sample.name] = sample.value;
  EXPECT_EQ(stats.at("server_sources_analyzed_total"), 0u);
  EXPECT_EQ(stats.at("server_computed_total"), 0u);
  EXPECT_GT(stats.at("server_protocol_errors_total"), 0u);

  // The correct secret still opens a fully working session.
  Client client;
  client.setSecret("sesame");
  ASSERT_TRUE(client.connectTcp("127.0.0.1", fixture.port()))
      << client.lastError();
  EXPECT_TRUE(client.ping()) << client.lastError();
  ClientOutcome outcome;
  core::MiraOptions options;
  EXPECT_TRUE(client.analyze("ok.mc", "int f(int n) { return n; }", options,
                             outcome))
      << client.lastError();
  client.disconnect();
}

TEST(ServerFuzz, HelloOnSecretlessDaemonIsAcceptedNotRequired) {
  TcpServerFixture fixture; // no secret configured
  ASSERT_GT(fixture.port(), 0);

  // A client configured with a secret still connects: the daemon
  // answers helloReply (ignoring the presented secret) so deployments
  // can roll secrets out client-first.
  Client withSecret;
  withSecret.setSecret("anything");
  ASSERT_TRUE(withSecret.connectTcp("127.0.0.1", fixture.port()))
      << withSecret.lastError();
  EXPECT_TRUE(withSecret.ping());
  withSecret.disconnect();

  // And a secretless client needs no handshake at all.
  Client plain;
  ASSERT_TRUE(plain.connectTcp("127.0.0.1", fixture.port()))
      << plain.lastError();
  EXPECT_TRUE(plain.ping());
  plain.disconnect();
}

// ------------------------------------------- partial-io layer

TEST(ProtocolFuzz, DribbledFramesReassembleByteAtATime) {
  // sendAll/recvAll must tolerate arbitrarily small reads/writes: a
  // frame dribbled one byte per send still reassembles exactly. This
  // pins the loop-until-complete behavior TCP depends on (a single
  // send() on a congested link can return short at any byte).
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string frame = encodeAnalyzeRequest(
      {"dribble.mc", "int f(int n) { return n * 2; }"}, 0x3);
  std::string wire;
  bio::putU32(wire, static_cast<std::uint32_t>(frame.size()));
  wire += frame;

  std::thread writer([&] {
    for (char byte : wire) {
      ASSERT_EQ(::send(fds[0], &byte, 1, MSG_NOSIGNAL), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ::close(fds[0]);
  });
  std::string received;
  EXPECT_EQ(net::readFrame(fds[1], received, kMaxFrameBytes),
            net::FrameStatus::ok);
  EXPECT_EQ(received, frame);
  // After the dribbled frame the peer closed: a clean EOF, not an error.
  std::string rest;
  EXPECT_EQ(net::readFrame(fds[1], rest, kMaxFrameBytes),
            net::FrameStatus::closed);
  writer.join();
  ::close(fds[1]);
}

TEST(ProtocolFuzz, WriteFrameToClosedPeerFailsWithoutSignal) {
  // MSG_NOSIGNAL everywhere: writing into a closed peer must return
  // false (EPIPE), never raise SIGPIPE and kill the process.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const std::string frame = encodeEmptyMessage(MessageType::ping);
  bool ok = true;
  // The first write may land in the buffer before the RST is seen;
  // a bounded number of attempts must observe the failure.
  for (int i = 0; i < 32 && ok; ++i)
    ok = net::writeFrame(fds[0], frame);
  EXPECT_FALSE(ok);
  ::close(fds[0]);
}

} // namespace
} // namespace mira::server
