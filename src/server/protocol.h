/// \file
/// Wire protocol of the analysis daemon: message types and codecs.
///
/// `mira-cli serve` and its clients exchange length-prefixed frames
/// (support/socket.h) whose payload is one protocol message: a fixed
/// header — magic `"MirP"`, protocol version, one-byte message type —
/// followed by a type-specific body encoded with the same little-endian
/// primitives as every other Mira byte format (support/binary_io.h).
/// This header is the single in-tree source of those encodings: the
/// daemon (server/server.h), the client library (server/client.h), and
/// the protocol tests all go through these functions, and
/// docs/PROTOCOL.md specifies the byte layout normatively so non-C++
/// clients can speak it too.
///
/// Versioning: every message carries the protocol version, and peers
/// accept exactly kProtocolVersion (2); any other version is answered
/// with Error-and-close. Analyze replies embed the artifact payload in
/// the layout of cache schemas 2 and 3. The ManifestBatch request and
/// the Metrics/Busy/BatchProgress/Hello messages are additive late-v2
/// extensions (new message types, no layout changes); older v2 daemons
/// answer them with Error-and-close like any unknown type, which
/// clients must treat as "not supported". Types 3 and 103 (the retired
/// Batch pair), 4 and 104 (the retired CacheStats pair) and 8 and 108
/// (the retired ManifestDiff pair) get the same answer and are never
/// reused. Busy and BatchProgress are the two replies that do NOT close
/// the connection: Busy reports the in-flight cap was hit and carries a
/// retry-after hint; BatchProgress precedes a manifestBatchReply on the
/// same request. Hello is the optional shared-secret handshake used on TCP
/// endpoints: a daemon started with a secret answers every other
/// request with Error-and-close until the session's first frame is a
/// Hello carrying the matching secret. See docs/PROTOCOL.md,
/// "Compatibility".
///
/// Analysis results travel as the canonical artifact payload of
/// driver::serializeArtifactPayload — the same bytes the disk cache
/// stores — so a daemon-served model is byte-identical to a one-shot
/// `mira-cli analyze` of the same (source, options) by construction.
/// Decoders never trust the wire: every read is bounds-checked and any
/// structural problem yields `false`, which peers answer with an Error
/// message and a closed connection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/mira.h"
#include "support/binary_io.h"

namespace mira::server {

/// Message magic: the bytes `"MirP"` on the wire, read as a
/// little-endian u32. First field of every message.
inline constexpr std::uint32_t kProtocolMagic = 0x5072694du;

/// The protocol version every message carries and the only one peers
/// accept. Bump on any change to the message layouts below or to the
/// layout of the artifact payload they embed. It follows the payload
/// layout, not kCacheSchemaVersion: a schema bump that keeps the layout
/// (schema 3 only marks schema-2 values stale) leaves it alone.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Default cap on one frame's payload, enforced by both sides. A
/// declared length beyond the cap is answered with Error and the
/// connection is closed (the body is never read).
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// One-byte message type. Requests are < 100; replies are >= 100.
enum class MessageType : std::uint8_t {
  // Requests (client -> server).
  ping = 1,       ///< liveness probe; empty body
  analyze = 2,    ///< one source: [flags u8][name str][source str]
  // 3 is retired (Batch) and never reused.
  // 4 is retired (CacheStats) and never reused.
  shutdown = 5,   ///< stop accepting, drain, exit; empty body
  coverage = 6,   ///< loop coverage: same body as analyze
  simulate = 7,   ///< run the simulator: analyze body + sim args
  // 8 is retired (ManifestDiff) and never reused.
  metrics = 9,    ///< named counter/gauge snapshot; empty body
  manifestBatch = 10, ///< run a whole manifest (ManifestBatchRequest)
  hello = 11,     ///< shared-secret handshake: [secret str]

  // Replies (server -> client).
  error = 100,           ///< [message str]; connection closes after
  pong = 101,            ///< empty body
  analyzeReply = 102,    ///< one result (see AnalyzeReply)
  // 103 is retired (BatchReply) and never reused.
  // 104 is retired (CacheStatsReply) and never reused.
  shutdownReply = 105,   ///< empty body; sent before the daemon drains
  coverageReply = 106,   ///< one coverage summary (see CoverageReply)
  simulateReply = 107,   ///< one simulation result (see SimulateReply)
  // 108 is retired (ManifestDiffReply) and never reused.
  busyReply = 109,       ///< over the in-flight cap; [retryMillis u32]
  metricsReply = 110,    ///< [count u32][count x (name str, value u64)]
  manifestBatchReply = 111, ///< one merged report: [report str]
  batchProgress = 112,   ///< streamed before manifestBatchReply; the
                         ///< second reply type that does NOT close the
                         ///< connection (see BatchProgress)
  helloReply = 113,      ///< handshake accepted; empty body, the
                         ///< connection stays open for requests
};

/// One named source, the unit of analyze/coverage/simulate requests.
struct SourceItem {
  std::string name;   ///< display name; echoed as the payload's producer
  std::string source; ///< MiniC source text
};

/// One analysis result as served to a client.
struct AnalyzeReply {
  /// Served without recomputation (daemon memory cache or disk cache).
  bool cacheHit = false;
  /// Server-side wall time of this request, microseconds.
  std::uint64_t micros = 0;
  /// The canonical result payload: driver::serializeArtifactPayload
  /// bytes.
  std::string payload;
};

/// One loop-coverage summary as served to a client.
/// Body: [cacheHit u8][recompiled u8][micros u64][ok u8]
/// [diagnostics str] then, when ok, [loops u64][stmts u64][inLoop u64].
struct CoverageReply {
  bool cacheHit = false;   ///< served without running the full pipeline
  bool recompiled = false; ///< a recompile-on-demand materialized for this
  std::uint64_t micros = 0;
  bool ok = false;
  std::string diagnostics;
  sema::LoopCoverage coverage; ///< meaningful when ok
};

/// One simulation result as served to a client.
/// Body: [cacheHit u8][recompiled u8][micros u64][ok u8]
/// [diagnostics str] then, when ok, the SimResult block (putSimResult).
struct SimulateReply {
  bool cacheHit = false;
  bool recompiled = false; ///< program came back via recompile-on-demand
  std::uint64_t micros = 0;
  bool ok = false;         ///< analysis ok and the simulator ran
  std::string diagnostics;
  sim::SimResult result;   ///< meaningful when ok (its own ok/error
                           ///< report simulator-level failures)
};

/// A manifestBatch request (additive late extension): run a whole
/// corpus manifest on the daemon's compute pool — the serving-side
/// equivalent of local `mira-cli batch --manifest`, with the same
/// incremental (`--since`) and sharding (`--shard I/N`) planning, and a
/// reply whose report bytes are identical to the local run's by
/// construction.
/// Body: [flags u8][progress u8][shardIndex u32][shardCount u32]
/// [root str][manifest str][since str]. `manifest` and `since` are raw
/// corpus::serializeManifest blobs (`since` empty = no baseline; the
/// daemon validates both and answers Error on malformed bytes). Empty
/// `root` resolves entries against the manifest's recorded root. When
/// `progress` is 1 the daemon streams cumulative BatchProgress frames
/// before the final manifestBatchReply.
struct ManifestBatchRequest {
  std::uint8_t flags = 0;       ///< core::OptionFlags for every entry
  bool progress = false;        ///< stream batchProgress frames
  std::uint32_t shardIndex = 0; ///< 0-based; < shardCount
  std::uint32_t shardCount = 1; ///< 1 = unsharded
  std::string root;             ///< resolve base override; empty = manifest's
  std::string manifestBytes;    ///< corpus::serializeManifest bytes
  std::string sinceBytes;       ///< optional baseline manifest; empty = full
};

/// One cumulative progress frame of a manifestBatch execution.
/// Streamed after each chunk when the request asked for progress; like
/// Busy, it does NOT close the connection — the final reply follows.
/// Body: [done u32][total u32][failures u32][cacheHits u32].
struct BatchProgress {
  std::uint32_t done = 0;      ///< entries finished so far
  std::uint32_t total = 0;     ///< entries selected for this request
  std::uint32_t failures = 0;  ///< failed entries so far
  std::uint32_t cacheHits = 0; ///< cache-served entries so far
};

/// The final answer to a manifestBatch request: one merged,
/// byte-stable batch report. Body: [report str] — raw
/// driver::serializeBatchReport bytes, so a client can write them to a
/// `--report` file that compares byte-identical to a local run's.
struct ManifestBatchReply {
  std::string reportBytes; ///< driver::serializeBatchReport bytes
};

/// The daemon's answer when a request would exceed its `--max-inflight`
/// cap (additive): the request was NOT queued or executed; retry it
/// after the hinted delay. Unlike Error, a Busy reply does NOT close the
/// connection — the session keeps reading.
/// Body: [retryAfterMillis u32].
struct BusyReply {
  std::uint32_t retryAfterMillis = 0; ///< server-suggested backoff hint
};

/// One (name, value) pair of a metricsReply (additive): a
/// core::MetricsRegistry sample. Names are Prometheus-idiom lowercase
/// (`server_requests_served_total`); the list is name-sorted.
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Append the message header (magic, kProtocolVersion, type) to `out`.
void beginMessage(std::string &out, MessageType type);

/// Read and validate a message header: magic, then a version that must
/// be kProtocolVersion. On failure sets `error` (naming an unsupported
/// version) and returns false; `type` is only meaningful on success.
bool readHeader(bio::Reader &r, MessageType &type, std::string &error);

// Encoders.

/// Build a complete header-only message (ping, pong, shutdown,
/// shutdownReply).
std::string encodeEmptyMessage(MessageType type);
/// Build an analyze request for one source under core::OptionFlags
/// `flags` (core::packOptions).
std::string encodeAnalyzeRequest(const SourceItem &item, std::uint8_t flags);
/// Build a coverage request: same body as analyze.
std::string encodeCoverageRequest(const SourceItem &item, std::uint8_t flags);
/// Build a simulate request: analyze body + the per-call
/// simulation arguments ([function str][fastForward u8]
/// [maxInstructions u64][argc u32][argc x (i i64, f f64, f2 f64)]).
std::string encodeSimulateRequest(const SourceItem &item, std::uint8_t flags,
                                  const core::SimulationArgs &sim);
/// Build a metrics request: header only, like ping.
std::string encodeMetricsRequest();
/// Build a hello handshake request carrying the shared secret:
/// [secret str]. Sent as a session's first frame on authenticated
/// endpoints; answered with helloReply (empty) or Error-and-close.
std::string encodeHelloRequest(const std::string &secret);
/// Build a manifestBatch request.
std::string encodeManifestBatchRequest(const ManifestBatchRequest &request);
/// Build a batchProgress frame.
std::string encodeBatchProgress(const BatchProgress &progress);
/// Build a manifestBatchReply carrying the merged report bytes.
std::string encodeManifestBatchReply(const ManifestBatchReply &reply);
/// Build a busyReply carrying the retry-after hint.
std::string encodeBusyReply(const BusyReply &reply);
/// Build a metricsReply from a name-sorted sample list.
std::string encodeMetricsReply(const std::vector<MetricSample> &samples);
/// Build an Error reply carrying a human-readable description.
std::string encodeErrorReply(const std::string &message);
/// Build an analyzeReply carrying one result.
std::string encodeAnalyzeReply(const AnalyzeReply &reply);
/// Build a coverageReply.
std::string encodeCoverageReply(const CoverageReply &reply);
/// Build a simulateReply.
std::string encodeSimulateReply(const SimulateReply &reply);

// Body decoders take a Reader positioned just past the header. Each
// returns false on any structural problem, including a body that does
// not end exactly where the message does (trailing garbage).

/// Decode an analyze request body.
bool decodeAnalyzeRequest(bio::Reader &r, SourceItem &item,
                          std::uint8_t &flags);
/// Decode a coverage request body (identical layout to analyze).
bool decodeCoverageRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags);
/// Decode a simulate request body.
bool decodeSimulateRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags, core::SimulationArgs &sim);
/// Decode a hello handshake request body into the presented secret.
bool decodeHelloRequest(bio::Reader &r, std::string &secret);
/// Decode a manifestBatch request body. Validates the scalar fields
/// (progress byte <= 1, shardCount >= 1, shardIndex < shardCount) but
/// not the manifest blobs — the caller runs corpus::deserializeManifest
/// on each, answering Error on blobs that fail validation there.
bool decodeManifestBatchRequest(bio::Reader &r, ManifestBatchRequest &request);
/// Decode a batchProgress frame body.
bool decodeBatchProgress(bio::Reader &r, BatchProgress &progress);
/// Decode a manifestBatchReply body.
bool decodeManifestBatchReply(bio::Reader &r, ManifestBatchReply &reply);
/// Decode an Error reply body.
bool decodeErrorReply(bio::Reader &r, std::string &message);
/// Decode an analyzeReply body.
bool decodeAnalyzeReply(bio::Reader &r, AnalyzeReply &reply);
/// Decode a coverageReply body.
bool decodeCoverageReply(bio::Reader &r, CoverageReply &reply);
/// Decode a simulateReply body.
bool decodeSimulateReply(bio::Reader &r, SimulateReply &reply);
/// Decode a busyReply body.
bool decodeBusyReply(bio::Reader &r, BusyReply &reply);
/// Decode a metricsReply body.
bool decodeMetricsReply(bio::Reader &r, std::vector<MetricSample> &samples);

/// Canonical byte encoding of a full sim::SimResult (ok, error, return
/// value, total counters with a sparse category block, per-function
/// inclusive profiles, printed values). Used by simulateReply and by
/// tests comparing daemon-served counters against one-shot runs
/// byte-for-byte.
void putSimResult(std::string &out, const sim::SimResult &result);
bool readSimResult(bio::Reader &r, sim::SimResult &result);

} // namespace mira::server
