#include "server/client.h"

#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "driver/batch.h"

namespace mira::server {

namespace {

/// One request frame per item, all under one core::OptionFlags byte.
std::vector<std::string>
encodeEach(const std::vector<SourceItem> &items, std::uint8_t flags,
           std::string (*encode)(const SourceItem &, std::uint8_t)) {
  std::vector<std::string> requests;
  requests.reserve(items.size());
  for (const SourceItem &item : items)
    requests.push_back(encode(item, flags));
  return requests;
}

} // namespace

bool Client::fail(ErrorKind kind, const std::string &message) {
  kind_ = kind;
  error_ = message;
  return false;
}

bool Client::connect(const std::string &path) {
  disconnect();
  std::string error;
  socket_ = net::connectUnix(path, error);
  if (!socket_.valid())
    return fail(ErrorKind::connect, error);
  return finishConnect("'" + path + "'");
}

bool Client::connectTcp(const std::string &host, std::uint16_t port) {
  disconnect();
  std::string error;
  socket_ = net::connectTcp(host, port, connect_timeout_, error);
  if (!socket_.valid())
    return fail(ErrorKind::connect, error);
  return finishConnect(host + ":" + std::to_string(port));
}

bool Client::finishConnect(const std::string &where) {
  if (read_timeout_ > 0)
    net::setReadTimeout(socket_.fd(), read_timeout_);
  if (!secret_.empty()) {
    // The handshake is this session's first frame; any failure means
    // the connection never became usable, so it classifies as connect.
    if (!roundTrip(encodeHelloRequest(secret_), MessageType::helloReply,
                   nullptr)) {
      disconnect();
      return fail(ErrorKind::connect,
                  "handshake with " + where + " failed: " + error_);
    }
  }
  kind_ = ErrorKind::none;
  return true;
}

void Client::disconnect() { socket_.close(); }

bool Client::receiveReply(std::string &frame, MessageType &type,
                          std::size_t &body, const ProgressFn *onProgress) {
  for (;;) {
    net::FrameStatus status =
        net::readFrame(socket_.fd(), frame, kMaxFrameBytes);
    if (status != net::FrameStatus::ok) {
      disconnect();
      switch (status) {
      case net::FrameStatus::closed:
        return fail(ErrorKind::transport, "daemon closed the connection");
      case net::FrameStatus::truncated:
        return fail(ErrorKind::transport,
                    "daemon closed the connection mid-reply");
      case net::FrameStatus::oversized:
        return fail(ErrorKind::protocol, "reply frame exceeds the frame cap");
      default:
        return fail(ErrorKind::transport, "receive failed");
      }
    }
    bio::Reader r{frame, 0};
    std::string headerError;
    if (!readHeader(r, type, headerError)) {
      disconnect();
      return fail(ErrorKind::protocol, "malformed reply: " + headerError);
    }
    if (type == MessageType::error) {
      std::string message;
      // The daemon closes the connection after an Error reply.
      disconnect();
      if (decodeErrorReply(r, message))
        return fail(ErrorKind::daemon, "daemon error: " + message);
      return fail(ErrorKind::protocol, "daemon error (unreadable message)");
    }
    if (type != MessageType::batchProgress || onProgress == nullptr) {
      body = r.offset;
      return true;
    }
    BatchProgress progress;
    if (!decodeBatchProgress(r, progress)) {
      disconnect();
      return fail(ErrorKind::protocol, "malformed progress frame");
    }
    if (*onProgress)
      (*onProgress)(progress);
  }
}

bool Client::exchange(const std::vector<std::string> &requests,
                      MessageType expected, const ReplyFn &onReply,
                      const ProgressFn *onProgress) {
  if (!socket_.valid())
    return fail(ErrorKind::connect, "not connected");
  // The frame cap is a protocol MUST for both peers: refuse an over-cap
  // request before any frame is written, with the actionable message the
  // daemon could never deliver (it would close the connection mid-send).
  for (const std::string &request : requests)
    if (request.size() > kMaxFrameBytes)
      return fail(ErrorKind::protocol,
                  "request of " + std::to_string(request.size()) +
                      " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                      "-byte frame cap; split the request");
  std::vector<std::size_t> pending(requests.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  std::size_t idleRounds = 0;
  while (!pending.empty()) {
    // Keep at most kPipelineWindow requests outstanding, reading one
    // reply before writing the next request beyond it. Writing every
    // request first deadlocks once the unread replies fill the socket
    // buffers: the daemon blocks sending them and stops reading, and the
    // client blocks sending the rest. The daemon answers strictly in
    // request order, so the i-th reply frame belongs to the i-th frame
    // of this round.
    std::vector<std::size_t> refused;
    std::uint32_t retryMillis = 0;
    std::size_t sent = 0;
    for (std::size_t received = 0; received < pending.size(); ++received) {
      for (; sent < pending.size() && sent < received + kPipelineWindow;
           ++sent) {
        if (!net::writeFrame(socket_.fd(), requests[pending[sent]])) {
          disconnect();
          return fail(ErrorKind::transport, "send failed (daemon gone?)");
        }
      }
      std::string frame;
      MessageType type{};
      std::size_t body = 0;
      if (!receiveReply(frame, type, body, onProgress))
        return false;
      bio::Reader r{frame, body};
      if (type == MessageType::busyReply) {
        // Refused without queueing: nothing ran, the connection stays
        // open, and the request goes into the next round.
        BusyReply busy;
        if (!decodeBusyReply(r, busy)) {
          disconnect();
          return fail(ErrorKind::protocol, "malformed busy reply");
        }
        retryMillis = busy.retryAfterMillis;
        refused.push_back(pending[received]);
        continue;
      }
      if (type != expected) {
        disconnect();
        return fail(ErrorKind::protocol,
                    "unexpected reply type " +
                        std::to_string(static_cast<unsigned>(type)));
      }
      if (onReply && !onReply(pending[received], r)) {
        // Later replies may still be in flight: the connection is unusable.
        disconnect();
        return false;
      }
    }
    if (refused.empty())
      break;
    // Only a round the daemon refused outright spends a retry; one that
    // landed a request made progress, so the loop always ends.
    if (refused.size() < pending.size())
      idleRounds = 0;
    else if (++idleRounds > busy_retries_)
      return fail(ErrorKind::busy, "daemon at capacity (gave up after " +
                                       std::to_string(busy_retries_) +
                                       " retries)");
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retryMillis ? retryMillis : 10));
    pending = std::move(refused);
  }
  return true;
}

bool Client::roundTrip(std::string request, MessageType expected,
                       const ReplyFn &onReply, const ProgressFn *onProgress) {
  std::vector<std::string> requests;
  requests.push_back(std::move(request));
  return exchange(requests, expected, onReply, onProgress);
}

bool Client::ping() {
  return roundTrip(encodeEmptyMessage(MessageType::ping), MessageType::pong,
                   nullptr);
}

bool Client::decodeOutcome(bio::Reader &body, ClientOutcome &outcome) {
  AnalyzeReply wire;
  if (!decodeAnalyzeReply(body, wire))
    return fail(ErrorKind::protocol, "malformed analyze reply");
  outcome = ClientOutcome();
  outcome.cacheHit = wire.cacheHit;
  outcome.micros = wire.micros;
  outcome.payload = std::move(wire.payload);
  if (!driver::deserializeArtifactPayload(outcome.payload, outcome.analysis,
                                          outcome.coverage,
                                          outcome.diagnostics, outcome.name))
    return fail(ErrorKind::protocol, "malformed result payload in reply");
  outcome.ok = outcome.analysis != nullptr;
  return true;
}

bool Client::analyze(const std::string &name, const std::string &source,
                     const core::MiraOptions &options,
                     ClientOutcome &outcome) {
  return roundTrip(
      encodeAnalyzeRequest({name, source}, core::packOptions(options)),
      MessageType::analyzeReply, [&](std::size_t, bio::Reader &body) {
        return decodeOutcome(body, outcome);
      });
}

bool Client::analyzePipelined(const std::vector<SourceItem> &items,
                              const core::MiraOptions &options,
                              std::vector<ClientOutcome> &outcomes) {
  // Decode into a local vector so a failure leaves the caller's outcomes
  // untouched.
  std::vector<ClientOutcome> decoded(items.size());
  if (!exchange(encodeEach(items, core::packOptions(options),
                           encodeAnalyzeRequest),
                MessageType::analyzeReply,
                [&](std::size_t i, bio::Reader &body) {
                  return decodeOutcome(body, decoded[i]);
                }))
    return false;
  outcomes = std::move(decoded);
  return true;
}

bool Client::coverage(const std::string &name, const std::string &source,
                      const core::MiraOptions &options,
                      CoverageReply &reply) {
  return roundTrip(
      encodeCoverageRequest({name, source}, core::packOptions(options)),
      MessageType::coverageReply, [&](std::size_t, bio::Reader &body) {
        return decodeCoverageReply(body, reply) ||
               fail(ErrorKind::protocol, "malformed coverage reply");
      });
}

bool Client::coveragePipelined(const std::vector<SourceItem> &items,
                               const core::MiraOptions &options,
                               std::vector<CoverageReply> &replies) {
  std::vector<CoverageReply> decoded(items.size());
  if (!exchange(encodeEach(items, core::packOptions(options),
                           encodeCoverageRequest),
                MessageType::coverageReply,
                [&](std::size_t i, bio::Reader &body) {
                  return decodeCoverageReply(body, decoded[i]) ||
                         fail(ErrorKind::protocol, "malformed coverage reply");
                }))
    return false;
  replies = std::move(decoded);
  return true;
}

bool Client::simulate(const std::string &name, const std::string &source,
                      const core::MiraOptions &options,
                      const core::SimulationArgs &sim, SimulateReply &reply) {
  return roundTrip(
      encodeSimulateRequest({name, source}, core::packOptions(options), sim),
      MessageType::simulateReply, [&](std::size_t, bio::Reader &body) {
        return decodeSimulateReply(body, reply) ||
               fail(ErrorKind::protocol, "malformed simulate reply");
      });
}

bool Client::manifestBatch(const std::string &manifestBytes,
                           const std::string &sinceBytes,
                           const std::string &root,
                           const driver::ShardSpec &shard,
                           const core::MiraOptions &options,
                           const ProgressFn &onProgress,
                           std::string &reportBytes) {
  ManifestBatchRequest request;
  request.flags = core::packOptions(options);
  request.progress = onProgress != nullptr;
  request.shardIndex = static_cast<std::uint32_t>(shard.index);
  request.shardCount = static_cast<std::uint32_t>(shard.count);
  request.root = root;
  request.manifestBytes = manifestBytes;
  request.sinceBytes = sinceBytes;
  // The final reply may be preceded by any number of progress frames.
  return roundTrip(
      encodeManifestBatchRequest(request), MessageType::manifestBatchReply,
      [&](std::size_t, bio::Reader &body) {
        ManifestBatchReply decoded;
        if (!decodeManifestBatchReply(body, decoded))
          return fail(ErrorKind::protocol, "malformed manifest-batch reply");
        reportBytes = std::move(decoded.reportBytes);
        return true;
      },
      &onProgress);
}

bool Client::metrics(std::vector<MetricSample> &samples) {
  return roundTrip(encodeMetricsRequest(), MessageType::metricsReply,
                   [&](std::size_t, bio::Reader &body) {
                     return decodeMetricsReply(body, samples) ||
                            fail(ErrorKind::protocol,
                                 "malformed metrics reply");
                   });
}

bool Client::shutdownServer() {
  if (!roundTrip(encodeEmptyMessage(MessageType::shutdown),
                 MessageType::shutdownReply, nullptr))
    return false;
  // The daemon stops reading afterwards; this connection is done.
  disconnect();
  return true;
}

} // namespace mira::server
