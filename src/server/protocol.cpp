#include "server/protocol.h"

#include <cstring>

namespace mira::server {

namespace {

// Doubles travel as their IEEE-754 bit pattern in the usual
// little-endian u64 slot; bit-exact round trip by construction.
void putF64(std::string &out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bio::putU64(out, bits);
}

bool readF64(bio::Reader &r, double &v) {
  std::uint64_t bits = 0;
  if (!r.u64(bits))
    return false;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

void putValue(std::string &out, const sim::Value &value) {
  bio::putI64(out, value.i);
  putF64(out, value.f);
  putF64(out, value.f2);
}

bool readValue(bio::Reader &r, sim::Value &value) {
  return r.i64(value.i) && readF64(r, value.f) && readF64(r, value.f2);
}

// Category counts are sparse in practice (a kernel touches a handful of
// the 64 categories), so they travel as [count u32][(index u8, count
// u64) x count] with indices strictly increasing — a canonical form, so
// equal counters encode to equal bytes.
void putCounters(std::string &out, const sim::Counters &counters) {
  std::uint32_t nonZero = 0;
  for (std::size_t i = 0; i < isa::kNumCategories; ++i)
    if (counters.categories[i] != 0)
      ++nonZero;
  bio::putU32(out, nonZero);
  for (std::size_t i = 0; i < isa::kNumCategories; ++i) {
    if (counters.categories[i] == 0)
      continue;
    bio::putU8(out, static_cast<std::uint8_t>(i));
    bio::putU64(out, counters.categories[i]);
  }
  bio::putU64(out, counters.totalInstructions);
  bio::putU64(out, counters.fpInstructions);
  bio::putU64(out, counters.flops);
}

bool readCounters(bio::Reader &r, sim::Counters &counters) {
  counters = sim::Counters{};
  std::uint32_t nonZero = 0;
  if (!r.u32(nonZero))
    return false;
  int lastIndex = -1;
  for (std::uint32_t i = 0; i < nonZero; ++i) {
    std::uint8_t index = 0;
    std::uint64_t count = 0;
    if (!r.u8(index) || !r.u64(count))
      return false;
    if (index >= isa::kNumCategories || static_cast<int>(index) <= lastIndex ||
        count == 0)
      return false; // non-canonical or out-of-range: treat as corrupt
    lastIndex = index;
    counters.categories[index] = count;
  }
  return r.u64(counters.totalInstructions) &&
         r.u64(counters.fpInstructions) && r.u64(counters.flops);
}

} // namespace

void putSimResult(std::string &out, const sim::SimResult &result) {
  bio::putU8(out, result.ok ? 1 : 0);
  bio::putString(out, result.error);
  putValue(out, result.returnValue);
  putCounters(out, result.total);
  bio::putU32(out, static_cast<std::uint32_t>(result.functions.size()));
  for (const auto &entry : result.functions) { // std::map: sorted, canonical
    bio::putString(out, entry.first);
    bio::putU64(out, entry.second.calls);
    putCounters(out, entry.second.inclusive);
  }
  bio::putU32(out, static_cast<std::uint32_t>(result.printed.size()));
  for (double value : result.printed)
    putF64(out, value);
}

bool readSimResult(bio::Reader &r, sim::SimResult &result) {
  result = sim::SimResult{};
  std::uint8_t ok = 0;
  if (!r.u8(ok) || ok > 1)
    return false;
  result.ok = ok == 1;
  if (!r.str(result.error) || !readValue(r, result.returnValue) ||
      !readCounters(r, result.total))
    return false;
  std::uint32_t functionCount = 0;
  if (!r.u32(functionCount))
    return false;
  for (std::uint32_t i = 0; i < functionCount; ++i) {
    std::string name;
    sim::FunctionProfile profile;
    if (!r.str(name) || !r.u64(profile.calls) ||
        !readCounters(r, profile.inclusive))
      return false;
    result.functions.emplace(std::move(name), std::move(profile));
  }
  std::uint32_t printedCount = 0;
  if (!r.u32(printedCount))
    return false;
  for (std::uint32_t i = 0; i < printedCount; ++i) {
    double value = 0;
    if (!readF64(r, value))
      return false;
    result.printed.push_back(value);
  }
  return true;
}

void beginMessage(std::string &out, MessageType type) {
  bio::putU32(out, kProtocolMagic);
  bio::putU32(out, kProtocolVersion);
  bio::putU8(out, static_cast<std::uint8_t>(type));
}

bool readHeader(bio::Reader &r, MessageType &type, std::string &error) {
  std::uint32_t magic = 0, version = 0;
  std::uint8_t rawType = 0;
  if (!r.u32(magic) || !r.u32(version) || !r.u8(rawType)) {
    error = "short message header";
    return false;
  }
  if (magic != kProtocolMagic) {
    error = "bad magic (not a Mira protocol message)";
    return false;
  }
  if (version != kProtocolVersion) {
    error = "unsupported protocol version " + std::to_string(version) +
            " (this peer speaks " + std::to_string(kProtocolVersion) + ")";
    return false;
  }
  type = static_cast<MessageType>(rawType);
  return true;
}

std::string encodeEmptyMessage(MessageType type) {
  std::string out;
  beginMessage(out, type);
  return out;
}

namespace {

std::string encodeSourceRequest(MessageType type, const SourceItem &item,
                                std::uint8_t flags) {
  std::string out;
  beginMessage(out, type);
  bio::putU8(out, flags);
  bio::putString(out, item.name);
  bio::putString(out, item.source);
  return out;
}

bool decodeSourceRequestBody(bio::Reader &r, SourceItem &item,
                             std::uint8_t &flags) {
  return r.u8(flags) && r.str(item.name) && r.str(item.source);
}

} // namespace

std::string encodeAnalyzeRequest(const SourceItem &item, std::uint8_t flags) {
  return encodeSourceRequest(MessageType::analyze, item, flags);
}

std::string encodeCoverageRequest(const SourceItem &item, std::uint8_t flags) {
  return encodeSourceRequest(MessageType::coverage, item, flags);
}

std::string encodeSimulateRequest(const SourceItem &item, std::uint8_t flags,
                                  const core::SimulationArgs &sim) {
  std::string out = encodeSourceRequest(MessageType::simulate, item, flags);
  bio::putString(out, sim.function);
  bio::putU8(out, sim.options.fastForward ? 1 : 0);
  bio::putU64(out, sim.options.maxInstructions);
  bio::putU32(out, static_cast<std::uint32_t>(sim.args.size()));
  for (const sim::Value &value : sim.args)
    putValue(out, value);
  return out;
}

std::string encodeMetricsRequest() {
  return encodeEmptyMessage(MessageType::metrics);
}

std::string encodeHelloRequest(const std::string &secret) {
  std::string out;
  beginMessage(out, MessageType::hello);
  bio::putString(out, secret);
  return out;
}

std::string encodeManifestBatchRequest(const ManifestBatchRequest &request) {
  std::string out;
  beginMessage(out, MessageType::manifestBatch);
  bio::putU8(out, request.flags);
  bio::putU8(out, request.progress ? 1 : 0);
  bio::putU32(out, request.shardIndex);
  bio::putU32(out, request.shardCount);
  bio::putString(out, request.root);
  bio::putString(out, request.manifestBytes);
  bio::putString(out, request.sinceBytes);
  return out;
}

std::string encodeBatchProgress(const BatchProgress &progress) {
  std::string out;
  beginMessage(out, MessageType::batchProgress);
  bio::putU32(out, progress.done);
  bio::putU32(out, progress.total);
  bio::putU32(out, progress.failures);
  bio::putU32(out, progress.cacheHits);
  return out;
}

std::string encodeManifestBatchReply(const ManifestBatchReply &reply) {
  std::string out;
  beginMessage(out, MessageType::manifestBatchReply);
  bio::putString(out, reply.reportBytes);
  return out;
}

std::string encodeBusyReply(const BusyReply &reply) {
  std::string out;
  beginMessage(out, MessageType::busyReply);
  bio::putU32(out, reply.retryAfterMillis);
  return out;
}

std::string encodeMetricsReply(const std::vector<MetricSample> &samples) {
  std::string out;
  beginMessage(out, MessageType::metricsReply);
  bio::putU32(out, static_cast<std::uint32_t>(samples.size()));
  for (const MetricSample &sample : samples) {
    bio::putString(out, sample.name);
    bio::putU64(out, sample.value);
  }
  return out;
}

std::string encodeErrorReply(const std::string &message) {
  std::string out;
  beginMessage(out, MessageType::error);
  bio::putString(out, message);
  return out;
}

namespace {

/// Shared [cacheHit u8][recompiled u8][micros u64][ok u8][diagnostics]
/// prefix of the coverage and simulate replies.
void putServedReplyPrefix(std::string &out, bool cacheHit, bool recompiled,
                          std::uint64_t micros, bool ok,
                          const std::string &diagnostics) {
  bio::putU8(out, cacheHit ? 1 : 0);
  bio::putU8(out, recompiled ? 1 : 0);
  bio::putU64(out, micros);
  bio::putU8(out, ok ? 1 : 0);
  bio::putString(out, diagnostics);
}

bool readServedReplyPrefix(bio::Reader &r, bool &cacheHit, bool &recompiled,
                           std::uint64_t &micros, bool &ok,
                           std::string &diagnostics) {
  std::uint8_t hit = 0, rec = 0, okByte = 0;
  if (!r.u8(hit) || hit > 1 || !r.u8(rec) || rec > 1 || !r.u64(micros) ||
      !r.u8(okByte) || okByte > 1 || !r.str(diagnostics))
    return false;
  cacheHit = hit == 1;
  recompiled = rec == 1;
  ok = okByte == 1;
  return true;
}

} // namespace

std::string encodeAnalyzeReply(const AnalyzeReply &reply) {
  std::string out;
  beginMessage(out, MessageType::analyzeReply);
  bio::putU8(out, reply.cacheHit ? 1 : 0);
  bio::putU64(out, reply.micros);
  bio::putString(out, reply.payload);
  return out;
}

std::string encodeCoverageReply(const CoverageReply &reply) {
  std::string out;
  beginMessage(out, MessageType::coverageReply);
  putServedReplyPrefix(out, reply.cacheHit, reply.recompiled, reply.micros,
                       reply.ok, reply.diagnostics);
  if (reply.ok)
    core::putCoverageSummary(out, reply.coverage);
  return out;
}

std::string encodeSimulateReply(const SimulateReply &reply) {
  std::string out;
  beginMessage(out, MessageType::simulateReply);
  putServedReplyPrefix(out, reply.cacheHit, reply.recompiled, reply.micros,
                       reply.ok, reply.diagnostics);
  if (reply.ok)
    putSimResult(out, reply.result);
  return out;
}

bool decodeAnalyzeRequest(bio::Reader &r, SourceItem &item,
                          std::uint8_t &flags) {
  return decodeSourceRequestBody(r, item, flags) && r.remaining() == 0;
}

bool decodeCoverageRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags) {
  return decodeSourceRequestBody(r, item, flags) && r.remaining() == 0;
}

bool decodeSimulateRequest(bio::Reader &r, SourceItem &item,
                           std::uint8_t &flags, core::SimulationArgs &sim) {
  sim = core::SimulationArgs{};
  if (!decodeSourceRequestBody(r, item, flags))
    return false;
  std::uint8_t fastForward = 0;
  std::uint32_t argCount = 0;
  if (!r.str(sim.function) || !r.u8(fastForward) || fastForward > 1 ||
      !r.u64(sim.options.maxInstructions) || !r.u32(argCount))
    return false;
  sim.options.fastForward = fastForward == 1;
  for (std::uint32_t i = 0; i < argCount; ++i) {
    sim::Value value;
    if (!readValue(r, value))
      return false;
    sim.args.push_back(value);
  }
  return r.remaining() == 0;
}

bool decodeHelloRequest(bio::Reader &r, std::string &secret) {
  return r.str(secret) && r.remaining() == 0;
}

bool decodeManifestBatchRequest(bio::Reader &r,
                                ManifestBatchRequest &request) {
  request = ManifestBatchRequest{};
  std::uint8_t progress = 0;
  if (!r.u8(request.flags) || !r.u8(progress) || progress > 1 ||
      !r.u32(request.shardIndex) || !r.u32(request.shardCount) ||
      !r.str(request.root) || !r.str(request.manifestBytes) ||
      !r.str(request.sinceBytes))
    return false;
  request.progress = progress == 1;
  // A zero shard count divides by zero downstream; an out-of-range index
  // would silently select nothing. Both are structural errors.
  if (request.shardCount < 1 || request.shardIndex >= request.shardCount)
    return false;
  return r.remaining() == 0;
}

bool decodeBatchProgress(bio::Reader &r, BatchProgress &progress) {
  progress = BatchProgress{};
  return r.u32(progress.done) && r.u32(progress.total) &&
         r.u32(progress.failures) && r.u32(progress.cacheHits) &&
         r.remaining() == 0;
}

bool decodeManifestBatchReply(bio::Reader &r, ManifestBatchReply &reply) {
  reply = ManifestBatchReply{};
  return r.str(reply.reportBytes) && r.remaining() == 0;
}

bool decodeErrorReply(bio::Reader &r, std::string &message) {
  return r.str(message) && r.remaining() == 0;
}

bool decodeAnalyzeReply(bio::Reader &r, AnalyzeReply &reply) {
  std::uint8_t hit = 0;
  if (!r.u8(hit) || hit > 1)
    return false;
  reply.cacheHit = hit == 1;
  return r.u64(reply.micros) && r.str(reply.payload) && r.remaining() == 0;
}

bool decodeCoverageReply(bio::Reader &r, CoverageReply &reply) {
  reply = CoverageReply{};
  if (!readServedReplyPrefix(r, reply.cacheHit, reply.recompiled,
                             reply.micros, reply.ok, reply.diagnostics))
    return false;
  if (!reply.ok)
    return r.remaining() == 0;
  return core::readCoverageSummary(r, reply.coverage) && r.remaining() == 0;
}

bool decodeSimulateReply(bio::Reader &r, SimulateReply &reply) {
  reply = SimulateReply{};
  if (!readServedReplyPrefix(r, reply.cacheHit, reply.recompiled,
                             reply.micros, reply.ok, reply.diagnostics))
    return false;
  if (!reply.ok)
    return r.remaining() == 0;
  return readSimResult(r, reply.result) && r.remaining() == 0;
}

bool decodeBusyReply(bio::Reader &r, BusyReply &reply) {
  reply = BusyReply{};
  return r.u32(reply.retryAfterMillis) && r.remaining() == 0;
}

bool decodeMetricsReply(bio::Reader &r, std::vector<MetricSample> &samples) {
  std::uint32_t count = 0;
  if (!r.u32(count))
    return false;
  samples.clear();
  // No reserve(count): the count is attacker-controlled; per-sample
  // reads fail naturally when the body runs out.
  for (std::uint32_t i = 0; i < count; ++i) {
    MetricSample sample;
    if (!r.str(sample.name) || !r.u64(sample.value))
      return false;
    samples.push_back(std::move(sample));
  }
  return r.remaining() == 0;
}

} // namespace mira::server
