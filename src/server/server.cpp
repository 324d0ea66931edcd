#include "server/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/file_io.h"
#include "symbolic/interner.h"

namespace mira::server {

namespace {

std::uint64_t microsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Sentinel for "no close-after reply enqueued yet".
constexpr std::uint64_t kNoCloseSeq = ~static_cast<std::uint64_t>(0);

/// The spec a wire request names: its source under the request's options.
core::AnalysisSpec specFor(SourceItem item, std::uint8_t flags,
                           core::ArtifactMask artifacts) {
  core::AnalysisSpec spec;
  spec.name = std::move(item.name);
  spec.source = std::move(item.source);
  spec.options = core::unpackOptions(flags);
  spec.artifacts = artifacts;
  return spec;
}

/// Copy the process-wide symbolic::ExprInterner tallies into the
/// registry as gauges (rendered as mira_intern_{hits,misses}).
/// The hash-consing hot path never touches the registry itself, so the
/// gauges are published on render instead.
void publishInternGauges(core::MetricsRegistry &metrics) {
  const symbolic::InternStats stats = symbolic::ExprInterner::globalStats();
  metrics.gauge("intern_hits").set(stats.hits);
  metrics.gauge("intern_misses").set(stats.misses);
}

} // namespace

/// One live connection. The reader assigns ascending sequence numbers
/// to frames as they arrive; replies (computed on any thread) park in
/// `pending` until every earlier reply has been written, which is what
/// makes pipelined replies come out strictly in request order.
struct AnalysisServer::Session {
  Session(AnalysisServer &server, net::Socket sock)
      : server(server), sock(std::move(sock)) {}
  ~Session() {
    std::lock_guard<std::mutex> lock(server.connections_mutex_);
    server.connections_.erase(this);
  }

  AnalysisServer &server;
  net::Socket sock;

  std::mutex mutex;
  /// Next sequence number the reader will assign.
  std::uint64_t nextSeq = 0;
  /// Next sequence number the sequencer will write.
  std::uint64_t nextToWrite = 0;
  /// Replies that finished out of order, keyed by sequence number.
  std::map<std::uint64_t, std::string> pending;
  /// Progress frames that arrived before their request reached the head
  /// of the sequencer, keyed by sequence number; flushed (in emission
  /// order) just before the final reply to that request.
  std::map<std::uint64_t, std::vector<std::string>> progress;
  /// Once the reply at this seq is flushed the connection is cut
  /// (protocol errors and shutdown acks must be the last frame the peer
  /// sees).
  std::uint64_t closeAfterSeq = kNoCloseSeq;
  /// A write failed or closeAfterSeq was flushed: stop writing.
  bool aborted = false;
  /// The session passed the shared-secret handshake (or none is
  /// configured). Only the reader thread consults and sets this, so no
  /// synchronization is needed.
  bool authed = false;
  /// The reader loop exited: the peer closed, vanished, or the daemon is
  /// draining. Long-running manifest batches poll this between chunks so
  /// a disconnected client's work is abandoned instead of computed into
  /// the void.
  std::atomic<bool> peerGone{false};
};

AnalysisServer::AnalysisServer(ServerOptions options)
    : options_(std::move(options)), started_(std::chrono::steady_clock::now()),
      connections_accepted_(metrics_.counter("server_connections_accepted_total")),
      requests_served_(metrics_.counter("server_requests_served_total")),
      analyze_requests_(metrics_.counter("server_analyze_requests_total")),
      coverage_requests_(metrics_.counter("server_coverage_requests_total")),
      simulate_requests_(metrics_.counter("server_simulate_requests_total")),
      sources_analyzed_(metrics_.counter("server_sources_analyzed_total")),
      cache_hits_(metrics_.counter("server_cache_hits_total")),
      computed_(metrics_.counter("server_computed_total")),
      failures_(metrics_.counter("server_failures_total")),
      recompiles_(metrics_.counter("server_recompiles_total")),
      protocol_errors_(metrics_.counter("server_protocol_errors_total")),
      busy_rejections_(metrics_.counter("server_busy_rejections_total")),
      manifest_batch_requests_(
          metrics_.counter("server_manifest_batch_requests_total")),
      manifest_batch_cancelled_(
          metrics_.counter("server_manifest_batch_cancelled_total")) {
  driver::BatchOptions batchOptions;
  // A manifest batch fans its entries across the analyzer's own pool
  // (driver::runManifestBatch), so size it like the compute pool. The
  // analyzer registers its lifetime counters in the daemon's registry so
  // one scrape covers both layers.
  batchOptions.threads = options_.threads;
  batchOptions.cacheDir = options_.cacheDir;
  batchOptions.cacheBytesLimit = options_.cacheBytesLimit;
  batchOptions.metrics = &metrics_;
  analyzer_ = std::make_unique<driver::BatchAnalyzer>(batchOptions);
  sessions_ = std::make_unique<ThreadPool>(options_.threads);
  compute_ = std::make_unique<ThreadPool>(options_.threads);
  // Session/compute tasks catch at their own boundaries; if one still
  // throws, the pool contains it (instead of std::terminate taking the
  // daemon down) and the registry records that it happened.
  core::MetricsRegistry::Counter &poolExceptions =
      metrics_.counter("pool_task_exceptions_total");
  sessions_->setExceptionHandler(
      [&poolExceptions] { poolExceptions.increment(); });
  compute_->setExceptionHandler(
      [&poolExceptions] { poolExceptions.increment(); });
}

AnalysisServer::~AnalysisServer() {
  if (bound_ && !options_.socketPath.empty()) {
    // serve() normally unlinks; cover start()-without-serve() too.
    ::unlink(options_.socketPath.c_str());
  }
}

bool AnalysisServer::start(std::string &error) {
  if (const CacheStore *disk = analyzer_->diskCache();
      disk != nullptr && !disk->usable()) {
    error = "cannot open cache directory '" + options_.cacheDir + "'";
    return false;
  }
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  stop_read_ = net::Socket(pipeFds[0]);
  stop_write_ = net::Socket(pipeFds[1]);

  if (options_.socketPath.empty() && !options_.tcpListen) {
    error = "no endpoint configured: set a socket path or a TCP listen "
            "address";
    return false;
  }
  if (!options_.socketPath.empty()) {
    // Owner-only from the first instant: bind() creates the inode with
    // 0777&~umask, so a chmod afterwards would leave a connectable
    // window under a permissive umask. umask is process-global; start()
    // runs before the daemon spawns request threads (docs/SERVING.md).
    const mode_t oldMask = ::umask(0177);
    listener_ = net::listenUnix(options_.socketPath, error);
    ::umask(oldMask);
    if (!listener_.valid())
      return false;
    ::chmod(options_.socketPath.c_str(), 0600);
  }
  // From here on a refusal unbinds what was bound.
  const auto unbind = [this] {
    listener_.close();
    tcp_listener_.close();
    if (!options_.socketPath.empty())
      ::unlink(options_.socketPath.c_str());
  };
  if (options_.tcpListen) {
    tcp_listener_ =
        net::listenTcp(options_.tcpHost, options_.tcpPortRequested, error);
    if (!tcp_listener_.valid()) {
      unbind();
      return false;
    }
  }
  // The first metrics write is the check that the file can be written at
  // all. It comes after binding, so a daemon refused for a taken socket
  // leaves the running daemon's file alone.
  if (!writeMetricsFile()) {
    error = "cannot write metrics file '" + options_.metricsFile + "'";
    unbind();
    return false;
  }
  bound_ = true;
  return true;
}

void AnalysisServer::requestStop() {
  if (stop_write_.valid()) {
    // A single byte on the self-pipe; extra bytes from repeated calls or
    // signal handlers are harmless (serve() drains on its way out).
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_write_.fd(), &byte, 1);
  }
}

void AnalysisServer::serve() {
  // With a metrics file configured, wake up about once a second to
  // refresh it; otherwise block in poll indefinitely. A refresh that
  // fails (a full disk) leaves the last good file and keeps serving.
  const int pollTimeoutMillis = options_.metricsFile.empty() ? -1 : 1000;
  for (;;) {
    // Endpoint fds first, the stop pipe last; either listener may be
    // absent (fd -1 entries are ignored by poll).
    pollfd fds[3] = {{listener_.fd(), POLLIN, 0},
                     {tcp_listener_.fd(), POLLIN, 0},
                     {stop_read_.fd(), POLLIN, 0}};
    const int ready = ::poll(fds, 3, pollTimeoutMillis);
    if (ready < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (ready == 0) {
      writeMetricsFile();
      continue;
    }
    if (fds[2].revents != 0)
      break; // stop requested
    for (int i = 0; i < 2; ++i) {
      if ((fds[i].revents & POLLIN) == 0)
        continue;
      net::Socket conn =
          net::acceptConnection(i == 0 ? listener_ : tcp_listener_);
      if (!conn.valid())
        continue; // transient (EMFILE, aborted handshake): keep serving
      connections_accepted_.increment();
      auto session = std::make_shared<Session>(*this, std::move(conn));
      sessions_->submit([this, session] { handleConnection(session); });
    }
  }

  // Graceful drain. Step 1: stop accepting and wake idle readers —
  // blocked readFrames see EOF, replies in flight still go out.
  listener_.close();
  tcp_listener_.close();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    stopping_ = true;
    for (Session *session : connections_)
      session->sock.shutdownRead();
  }
  // Step 2: give in-flight requests the drain window to finish and
  // answer. Step 3: cut the stragglers' sockets — their computations
  // still run to completion (the pool has no preemption) but their
  // replies are discarded and any blocked writes unblock.
  bool drained;
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    drained = inflight_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.drainTimeoutMillis),
        [&] { return inflight_ == 0; });
  }
  if (!drained) {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (Session *session : connections_)
      session->sock.shutdownBoth();
  }
  sessions_->waitIdle();
  compute_->waitIdle();
  if (!options_.socketPath.empty())
    ::unlink(options_.socketPath.c_str());
  bound_ = false;
  writeMetricsFile();
}

void AnalysisServer::handleConnection(std::shared_ptr<Session> session) {
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.insert(session.get());
    if (stopping_)
      session->sock.shutdownRead(); // accepted before stop, dispatched
                                    // after: close without serving
  }

  std::string message;
  for (;;) {
    net::FrameStatus status =
        net::readFrame(session->sock.fd(), message, options_.maxFrameBytes);
    if (status == net::FrameStatus::closed)
      break; // client finished cleanly
    if (status == net::FrameStatus::oversized) {
      std::uint64_t seq;
      {
        std::lock_guard<std::mutex> lock(session->mutex);
        seq = session->nextSeq++;
      }
      sendErrorAt(session, seq,
                  "frame exceeds " + std::to_string(options_.maxFrameBytes) +
                      " bytes");
      break;
    }
    if (status != net::FrameStatus::ok) { // truncated or I/O error
      protocol_errors_.increment();
      break;
    }
    std::uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(session->mutex);
      seq = session->nextSeq++;
    }
    if (!handleFrame(session, seq, message))
      break;
  }
  session->peerGone.store(true, std::memory_order_release);
  // The socket stays open until the last reply flushes: compute workers
  // hold their own reference to the Session, and the fd closes when the
  // final reference (reader or worker) drops.
}

bool AnalysisServer::handleFrame(const std::shared_ptr<Session> &session,
                                 std::uint64_t seq,
                                 const std::string &message) {
  bio::Reader r{message, 0};
  MessageType type{};
  std::string headerError;
  if (!readHeader(r, type, headerError)) {
    sendErrorAt(session, seq, headerError);
    return false;
  }

  // The shared-secret handshake is resolved before any dispatch: on a
  // secret-bearing daemon nothing past this point runs (and no compute
  // is ever scheduled) until the session's first frame is a Hello with
  // the matching secret. A stray port scan gets one Error frame and a
  // closed connection.
  if (type == MessageType::hello) {
    std::string presented;
    if (!decodeHelloRequest(r, presented)) {
      sendErrorAt(session, seq, "malformed hello request");
      return false;
    }
    if (!options_.secret.empty() && presented != options_.secret) {
      sendErrorAt(session, seq, "handshake rejected");
      return false;
    }
    // A hello on a secretless daemon is accepted too, so clients can
    // always send one without knowing the daemon's configuration.
    session->authed = true;
    enqueueReply(session, seq, encodeEmptyMessage(MessageType::helloReply),
                 false);
    return true;
  }
  if (!options_.secret.empty() && !session->authed) {
    sendErrorAt(session, seq, "handshake required");
    return false;
  }

  switch (type) {
  case MessageType::ping:
    enqueueReply(session, seq, encodeEmptyMessage(MessageType::pong), false);
    return true;

  case MessageType::analyze: {
    SourceItem item;
    std::uint8_t flags = 0;
    if (!decodeAnalyzeRequest(r, item, flags)) {
      sendErrorAt(session, seq, "malformed analyze request");
      return false;
    }
    analyze_requests_.increment();
    serveSource(session, seq, type,
                specFor(std::move(item), flags, core::kArtifactDefault));
    return true;
  }

  case MessageType::coverage: {
    SourceItem item;
    std::uint8_t flags = 0;
    if (!decodeCoverageRequest(r, item, flags)) {
      sendErrorAt(session, seq, "malformed coverage request");
      return false;
    }
    coverage_requests_.increment();
    serveSource(session, seq, type,
                specFor(std::move(item), flags,
                        core::kArtifactCoverage | core::kArtifactDiagnostics));
    return true;
  }

  case MessageType::simulate: {
    SourceItem item;
    std::uint8_t flags = 0;
    core::SimulationArgs sim;
    if (!decodeSimulateRequest(r, item, flags, sim)) {
      sendErrorAt(session, seq, "malformed simulate request");
      return false;
    }
    simulate_requests_.increment();
    core::AnalysisSpec spec =
        specFor(std::move(item), flags,
                core::kArtifactSimulation | core::kArtifactDiagnostics);
    spec.simulation = std::move(sim);
    serveSource(session, seq, type, std::move(spec));
    return true;
  }

  case MessageType::manifestBatch: {
    ManifestBatchRequest request;
    if (!decodeManifestBatchRequest(r, request)) {
      sendErrorAt(session, seq, "malformed manifest-batch request");
      return false;
    }
    // The manifest blobs are validated application payloads: a bad one
    // gets Error-then-close so a refusal can never look like an empty
    // corpus. Parsing is cheap and runs on the reader; only the analysis
    // is dispatched.
    driver::ManifestJob job;
    std::string manifestError;
    bool parsed = corpus::deserializeManifest(request.manifestBytes,
                                              job.manifest, manifestError);
    if (parsed && !request.sinceBytes.empty())
      parsed = corpus::deserializeManifest(request.sinceBytes,
                                           job.since.emplace(), manifestError);
    if (!parsed) {
      sendErrorAt(session, seq, "malformed manifest: " + manifestError);
      return false;
    }
    job.root = request.root;
    job.options = core::unpackOptions(request.flags);
    job.shard.index = request.shardIndex;
    job.shard.count = request.shardCount;
    manifest_batch_requests_.increment();
    // One in-flight slot for the whole corpus: the entries fan across
    // the analyzer's own pool chunk by chunk.
    if (!admitOrRefuse(session, seq))
      return true;
    compute_->submit([this, session, seq, job = std::move(job),
                      progress = request.progress] {
      serveManifestBatch(session, seq, job, progress);
    });
    return true;
  }

  case MessageType::metrics:
    enqueueReply(session, seq, encodeMetricsReply(metricsSamples()), false);
    return true;

  case MessageType::shutdown: {
    // Acknowledge, sequenced after every earlier reply on this
    // connection: the requester must learn the shutdown was accepted
    // even though the daemon stops reading from everyone next.
    enqueueReply(session, seq, encodeEmptyMessage(MessageType::shutdownReply),
                 true);
    requestStop();
    return false;
  }

  default:
    sendErrorAt(session, seq,
                "unexpected message type " +
                    std::to_string(static_cast<unsigned>(type)));
    return false;
  }
}

void AnalysisServer::enqueueReply(const std::shared_ptr<Session> &session,
                                  std::uint64_t seq, std::string frame,
                                  bool closeAfter) {
  // Every frame gets exactly one reply (errors and Busy included), so
  // this is the one place "requests served" is counted.
  requests_served_.increment();
  Session &s = *session;
  std::lock_guard<std::mutex> lock(s.mutex);
  if (closeAfter && seq < s.closeAfterSeq)
    s.closeAfterSeq = seq;
  s.pending.emplace(seq, std::move(frame));
  // Flush the consecutive run of ready replies. Writing under the
  // session mutex serializes frames per connection only; other
  // connections' workers are unaffected.
  while (!s.aborted) {
    // Buffered progress frames for the head request precede its final
    // reply (and follow the reply to seq-1 by construction).
    auto pit = s.progress.find(s.nextToWrite);
    if (pit != s.progress.end()) {
      for (std::string &frame : pit->second) {
        if (!net::writeFrame(s.sock.fd(), frame)) {
          s.aborted = true;
          break;
        }
      }
      s.progress.erase(pit);
      if (s.aborted)
        break;
    }
    auto it = s.pending.find(s.nextToWrite);
    if (it == s.pending.end())
      break;
    std::string out = std::move(it->second);
    s.pending.erase(it);
    const std::uint64_t written = s.nextToWrite++;
    if (!net::writeFrame(s.sock.fd(), out)) {
      s.aborted = true;
      break;
    }
    if (written >= s.closeAfterSeq) {
      // The reply that must be the connection's last frame went out:
      // cut both directions so the reader unblocks and later-seq
      // replies (already computing) are dropped on the floor.
      s.aborted = true;
      s.sock.shutdownBoth();
      break;
    }
  }
}

void AnalysisServer::sendReplyAt(const std::shared_ptr<Session> &session,
                                 std::uint64_t seq, std::string frame) {
  // The frame cap binds both directions: a reply the daemon itself
  // cannot legally frame (a huge payload or manifest report) becomes an
  // Error, not a protocol violation the client chokes on.
  if (frame.size() > options_.maxFrameBytes) {
    sendErrorAt(session, seq,
                "reply of " + std::to_string(frame.size()) +
                    " bytes exceeds the " +
                    std::to_string(options_.maxFrameBytes) +
                    "-byte frame cap; split the request");
    return;
  }
  enqueueReply(session, seq, std::move(frame), false);
}

void AnalysisServer::sendErrorAt(const std::shared_ptr<Session> &session,
                                 std::uint64_t seq, const std::string &text) {
  protocol_errors_.increment();
  enqueueReply(session, seq, encodeErrorReply(text), true);
}

void AnalysisServer::sendProgressAt(const std::shared_ptr<Session> &session,
                                    std::uint64_t seq, std::string frame) {
  Session &s = *session;
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.aborted)
    return;
  if (seq == s.nextToWrite) {
    // This request is at the head of the sequencer: the frame can go
    // straight out without reordering anything.
    if (!net::writeFrame(s.sock.fd(), frame))
      s.aborted = true;
  } else {
    s.progress[seq].push_back(std::move(frame));
  }
}

bool AnalysisServer::batchCancelled(
    const std::shared_ptr<Session> &session) {
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->aborted)
      return true; // write side is dead; no one can receive the reply
  }
  if (!session->peerGone.load(std::memory_order_acquire))
    return false;
  // The reader also exits when a graceful drain shuts the read side
  // down; in-flight requests are promised the drain window, so only a
  // genuine peer departure cancels.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  return !stopping_;
}

bool AnalysisServer::admitOrRefuse(const std::shared_ptr<Session> &session,
                                   std::uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (options_.maxInflight == 0 || inflight_ < options_.maxInflight) {
      ++inflight_;
      return true;
    }
  }
  busy_rejections_.increment();
  // Busy is the one reply that does not end the conversation: the
  // request was not queued, the connection stays open, and the peer
  // should retry after the hint.
  BusyReply busy;
  busy.retryAfterMillis = options_.busyRetryMillis;
  enqueueReply(session, seq, encodeBusyReply(busy), false);
  return false;
}

void AnalysisServer::releaseInflight() {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  --inflight_;
  inflight_cv_.notify_all();
}

void AnalysisServer::recordServed(const core::Artifacts &artifacts) {
  sources_analyzed_.increment();
  if (artifacts.cacheHit)
    cache_hits_.increment();
  else
    computed_.increment();
  if (!artifacts.ok)
    failures_.increment();
  if (artifacts.recompiled)
    recompiles_.increment();
}

void AnalysisServer::serveSource(const std::shared_ptr<Session> &session,
                                 std::uint64_t seq, MessageType type,
                                 core::AnalysisSpec spec) {
  // One key per request: the ready check below and the compute task share
  // it.
  const std::uint64_t key = driver::requestKey(spec);
  const bool wantsPayload = type == MessageType::analyze;
  // A ready memory hit is answered here on the reader, like a ping: no
  // hand-off to the compute pool, no in-flight slot, never Busy. The
  // sequencer still orders its reply behind earlier requests.
  std::string payload;
  if (std::optional<core::Artifacts> hit = analyzer_->analyzeIfReady(
          spec, key, wantsPayload ? &payload : nullptr)) {
    sendReplyAt(session, seq, replyFrame(type, *hit, std::move(payload)));
    return;
  }
  if (!admitOrRefuse(session, seq))
    return;
  // A miss keeps its live program in its Artifacts, so the program is
  // freed after the reply is sent; the cached value keeps only its
  // simulation image. Freeing it before the reply made the median miss
  // about 5% slower.
  spec.artifacts |= core::kArtifactProgram;
  compute_->submit([this, session, seq, type, spec = std::move(spec), key,
                    wantsPayload] {
    std::string payload;
    const core::Artifacts artifacts = analyzer_->analyzeArtifacts(
        spec, key, wantsPayload ? &payload : nullptr);
    std::string frame = replyFrame(type, artifacts, std::move(payload));
    releaseInflight();
    sendReplyAt(session, seq, std::move(frame));
  });
}

std::string AnalysisServer::replyFrame(MessageType type,
                                       const core::Artifacts &artifacts,
                                       std::string payload) {
  recordServed(artifacts);
  const std::uint64_t micros =
      static_cast<std::uint64_t>(artifacts.seconds * 1e6);
  if (type == MessageType::analyze) {
    AnalyzeReply reply;
    reply.cacheHit = artifacts.cacheHit;
    reply.micros = micros;
    // The canonical result payload (docs/CACHING.md format), named after
    // this request: byte-identical to a one-shot analyze of the same
    // (source, options), whether served cold, from memory, or from disk.
    reply.payload = std::move(payload);
    return encodeAnalyzeReply(reply);
  }
  if (type == MessageType::coverage) {
    CoverageReply reply;
    reply.cacheHit = artifacts.cacheHit;
    reply.recompiled = artifacts.recompiled;
    reply.micros = micros;
    reply.ok = artifacts.ok && artifacts.coverage.has_value();
    reply.diagnostics = artifacts.diagnostics;
    if (reply.ok)
      reply.coverage = *artifacts.coverage;
    return encodeCoverageReply(reply);
  }
  SimulateReply reply;
  reply.cacheHit = artifacts.cacheHit;
  reply.recompiled = artifacts.recompiled;
  reply.micros = micros;
  reply.ok = artifacts.ok && artifacts.simulation != nullptr;
  reply.diagnostics = artifacts.diagnostics;
  if (reply.ok)
    reply.result = *artifacts.simulation;
  return encodeSimulateReply(reply);
}

void AnalysisServer::serveManifestBatch(
    const std::shared_ptr<Session> &session, std::uint64_t seq,
    const driver::ManifestJob &job, bool progress) {
  const driver::ManifestOutcome outcome = driver::runManifestBatch(
      *analyzer_, job, [&](const driver::ManifestProgress &p) {
        if (progress) {
          BatchProgress frame;
          frame.done = static_cast<std::uint32_t>(p.done);
          frame.total = static_cast<std::uint32_t>(p.total);
          frame.failures = static_cast<std::uint32_t>(p.failures);
          frame.cacheHits = static_cast<std::uint32_t>(p.cacheHits);
          sendProgressAt(session, seq, encodeBatchProgress(frame));
        }
        return !batchCancelled(session);
      });
  for (const core::Artifacts &artifacts : outcome.results)
    recordServed(artifacts);
  releaseInflight();
  switch (outcome.status) {
  case driver::ManifestOutcome::Status::unreadable:
    sendErrorAt(session, seq, outcome.error);
    return;
  case driver::ManifestOutcome::Status::cancelled:
    manifest_batch_cancelled_.increment(); // the peer is gone
    return;
  case driver::ManifestOutcome::Status::ok: {
    ManifestBatchReply reply;
    reply.reportBytes = driver::serializeBatchReport(outcome.report);
    sendReplyAt(session, seq, encodeManifestBatchReply(reply));
    return;
  }
  }
}

void AnalysisServer::refreshGauges() const {
  metrics_.gauge("server_uptime_micros").set(microsSince(started_));
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    metrics_.gauge("server_inflight_requests").set(inflight_);
  }
  metrics_.gauge("server_threads").set(sessions_->threadCount());
  metrics_.gauge("server_cache_memory_entries").set(analyzer_->cacheSize());
  publishInternGauges(metrics_);
  if (CacheStore *disk = analyzer_->diskCache()) {
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
    disk->usage(entries, bytes); // one scan for both numbers
    metrics_.gauge("server_disk_entries").set(entries);
    metrics_.gauge("server_disk_bytes").set(bytes);
  }
}

std::vector<MetricSample> AnalysisServer::metricsSamples() const {
  refreshGauges();
  std::vector<MetricSample> samples;
  for (const core::MetricsRegistry::Sample &s : metrics_.snapshot())
    samples.push_back(MetricSample{s.name, s.value});
  return samples;
}

std::string AnalysisServer::renderMetricsText() const {
  refreshGauges();
  return metrics_.renderText();
}

bool AnalysisServer::writeMetricsFile() const {
  return options_.metricsFile.empty() ||
         replaceFile(options_.metricsFile, renderMetricsText());
}

} // namespace mira::server
