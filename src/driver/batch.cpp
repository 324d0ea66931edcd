#include "driver/batch.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <stdexcept>

#include "model/serialize.h"
#include "support/binary_io.h"
#include "support/fault_injection.h"
#include "support/file_io.h"
#include "support/hash.h"

namespace mira::driver {

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

} // namespace

std::uint64_t requestKeyFromContentHash(std::uint64_t contentHash,
                                        const core::MiraOptions &options) {
  // The options enter the key as their one packed byte
  // (core::packOptions, whose tripwire catches a new option field). The
  // artifact mask, simulation arguments, and everything in BatchOptions
  // must stay OUT of the key: they never change what the pipeline
  // computes, and hashing them would make the on-disk cache miss across
  // equivalent configurations.
  const std::uint8_t flags = core::packOptions(options);
  const std::uint64_t key = fnv1a(&flags, sizeof(flags), contentHash);
  // Every key ends with the fixed architecture name "haswell-arya", so
  // cache file names and report keys already written stay valid.
  return fnv1a(arch::haswellDescription().name, key);
}

std::uint64_t requestKey(const core::AnalysisSpec &spec) {
  // The manifest layer (corpus/manifest.h) relies on this exact
  // factoring: its stored content hash is fnv1a(source), so hash + the
  // continuation below reproduces the key without the source bytes.
  return requestKeyFromContentHash(fnv1a(spec.source), spec.options);
}

// --------------------------------------------------- shard planning

bool parseShardSpec(const std::string &text, ShardSpec &shard) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size())
    return false;
  const std::string indexDigits = text.substr(0, slash);
  const std::string countDigits = text.substr(slash + 1);
  if (indexDigits.find_first_not_of("0123456789") != std::string::npos ||
      countDigits.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long index =
      std::strtoull(indexDigits.c_str(), nullptr, 10);
  const unsigned long long count =
      std::strtoull(countDigits.c_str(), nullptr, 10);
  // ERANGE saturates to ULLONG_MAX — an overflowed shard count would be
  // silently accepted and match (almost) no keys.
  if (errno == ERANGE || index < 1 || count < 1 || index > count)
    return false;
  shard.index = static_cast<std::size_t>(index - 1); // CLI is 1-based
  shard.count = static_cast<std::size_t>(count);
  return true;
}

bool keyInShard(std::uint64_t key, const ShardSpec &shard) {
  if (shard.count <= 1)
    return true;
  // Finalize (splitmix64) before the modulo: request keys have low-bit
  // structure (whole corpora share key % 4), and a raw `key % count`
  // then leaves entire shards empty — fatal for a fleet run, where an
  // empty shard means an idle worker and a loaded one does everything.
  std::uint64_t mixed = key;
  mixed ^= mixed >> 30;
  mixed *= 0xbf58476d1ce4e5b9ull;
  mixed ^= mixed >> 27;
  mixed *= 0x94d049bb133111ebull;
  mixed ^= mixed >> 31;
  return mixed % shard.count == shard.index;
}

ManifestSelection selectManifestEntries(const corpus::Manifest &manifest,
                                        const corpus::Manifest *since,
                                        const core::MiraOptions &options,
                                        const ShardSpec &shard) {
  ManifestSelection selection;
  std::vector<corpus::ManifestEntry> candidates;
  if (since) {
    const corpus::ManifestDiff diff = corpus::diffManifests(*since, manifest);
    // Both diff vectors are path-sorted; merging keeps manifest order,
    // which is what makes reports byte-comparable across invocations.
    std::merge(diff.added.begin(), diff.added.end(), diff.changed.begin(),
               diff.changed.end(), std::back_inserter(candidates),
               [](const corpus::ManifestEntry &a,
                  const corpus::ManifestEntry &b) { return a.path < b.path; });
  } else {
    candidates = manifest.entries;
  }
  for (corpus::ManifestEntry &entry : candidates) {
    if (keyInShard(requestKeyFromContentHash(entry.contentHash, options),
                   shard))
      selection.entries.push_back(std::move(entry));
  }
  return selection;
}

// ------------------------------------------- stats & report merging

BatchStats mergeBatchStats(const std::vector<BatchStats> &parts) {
  BatchStats merged;
  for (const BatchStats &part : parts) {
    merged.requests += part.requests;
    merged.failures += part.failures;
    merged.cacheHits += part.cacheHits;
    merged.cacheMisses += part.cacheMisses;
    merged.diskHits += part.diskHits;
    merged.diskMisses += part.diskMisses;
    merged.diskStores += part.diskStores;
    merged.modelArtifacts += part.modelArtifacts;
    merged.programArtifacts += part.programArtifacts;
    merged.coverageArtifacts += part.coverageArtifacts;
    merged.simulationArtifacts += part.simulationArtifacts;
    merged.coverageFromCache += part.coverageFromCache;
    merged.recompiles += part.recompiles;
    // Shards run concurrently: their wall clocks overlap, so the batch
    // took as long as its slowest shard, not the sum.
    merged.wallSeconds = std::max(merged.wallSeconds, part.wallSeconds);
  }
  return merged;
}

BatchStats tallyBatchStats(const std::vector<core::Artifacts> &results) {
  BatchStats stats;
  stats.requests = results.size();
  for (const core::Artifacts &artifacts : results) {
    if (!artifacts.ok)
      ++stats.failures;
    if (artifacts.cacheHit)
      ++stats.cacheHits;
    else
      ++stats.cacheMisses;
    if ((artifacts.requested & core::kArtifactModel) && artifacts.model)
      ++stats.modelArtifacts;
    if ((artifacts.requested & core::kArtifactProgram) && artifacts.program)
      ++stats.programArtifacts;
    if ((artifacts.requested & core::kArtifactCoverage) && artifacts.coverage)
      ++stats.coverageArtifacts;
    if (artifacts.simulation)
      ++stats.simulationArtifacts;
    if (artifacts.coverageFromCache)
      ++stats.coverageFromCache;
    if (artifacts.recompiled)
      ++stats.recompiles;
    if (artifacts.diskHit)
      ++stats.diskHits;
    if (artifacts.diskMiss)
      ++stats.diskMisses;
    if (artifacts.diskStored)
      ++stats.diskStores;
  }
  return stats;
}

namespace {

// Report file magic: the bytes "MirR", read as a little-endian u32.
constexpr std::uint32_t kReportMagic = 0x5272694du;
constexpr std::uint32_t kReportVersion = 1;

void putReportStats(std::string &out, const BatchStats &stats) {
  // Every counter except wallSeconds, in declaration order. Timing is
  // deliberately absent: a report must be byte-identical across runs
  // and process counts for the shard-merge correctness check.
  bio::putU64(out, stats.requests);
  bio::putU64(out, stats.failures);
  bio::putU64(out, stats.cacheHits);
  bio::putU64(out, stats.cacheMisses);
  bio::putU64(out, stats.diskHits);
  bio::putU64(out, stats.diskMisses);
  bio::putU64(out, stats.diskStores);
  bio::putU64(out, stats.modelArtifacts);
  bio::putU64(out, stats.programArtifacts);
  bio::putU64(out, stats.coverageArtifacts);
  bio::putU64(out, stats.simulationArtifacts);
  bio::putU64(out, stats.coverageFromCache);
  bio::putU64(out, stats.recompiles);
}

bool readReportStats(bio::Reader &r, BatchStats &stats) {
  std::uint64_t values[13];
  for (std::uint64_t &value : values)
    if (!r.u64(value))
      return false;
  stats = BatchStats{};
  stats.requests = static_cast<std::size_t>(values[0]);
  stats.failures = static_cast<std::size_t>(values[1]);
  stats.cacheHits = static_cast<std::size_t>(values[2]);
  stats.cacheMisses = static_cast<std::size_t>(values[3]);
  stats.diskHits = static_cast<std::size_t>(values[4]);
  stats.diskMisses = static_cast<std::size_t>(values[5]);
  stats.diskStores = static_cast<std::size_t>(values[6]);
  stats.modelArtifacts = static_cast<std::size_t>(values[7]);
  stats.programArtifacts = static_cast<std::size_t>(values[8]);
  stats.coverageArtifacts = static_cast<std::size_t>(values[9]);
  stats.simulationArtifacts = static_cast<std::size_t>(values[10]);
  stats.coverageFromCache = static_cast<std::size_t>(values[11]);
  stats.recompiles = static_cast<std::size_t>(values[12]);
  return true;
}

} // namespace

std::string serializeBatchReport(const BatchReport &report) {
  std::string out;
  bio::putU32(out, kReportMagic);
  bio::putU32(out, kReportVersion);
  putReportStats(out, report.stats);
  bio::putU32(out, static_cast<std::uint32_t>(report.entries.size()));
  for (const BatchReportEntry &entry : report.entries) {
    bio::putString(out, entry.name);
    bio::putU64(out, entry.key);
    bio::putU8(out, entry.ok ? 1 : 0);
  }
  bio::putU64(out, fnv1a(out));
  return out;
}

bool deserializeBatchReport(const std::string &bytes, BatchReport &report,
                            std::string &error) {
  report = BatchReport{};
  bio::Reader r{bytes, 0};
  std::uint32_t magic = 0, version = 0, count = 0;
  if (!r.u32(magic) || magic != kReportMagic) {
    error = "not a Mira batch report (bad magic)";
    return false;
  }
  if (!r.u32(version) || version != kReportVersion) {
    error = "unsupported report version " + std::to_string(version);
    return false;
  }
  if (!readReportStats(r, report.stats)) {
    error = "truncated report counter block";
    return false;
  }
  if (!r.u32(count)) {
    error = "truncated report entry count";
    return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchReportEntry entry;
    std::uint8_t ok = 0;
    if (!r.str(entry.name) || !r.u64(entry.key) || !r.u8(ok) || ok > 1) {
      error = "truncated report entry " + std::to_string(i);
      return false;
    }
    entry.ok = ok == 1;
    report.entries.push_back(std::move(entry));
  }
  const std::size_t checksummed = r.offset;
  std::uint64_t checksum = 0;
  if (!r.u64(checksum) || r.remaining() != 0) {
    error = "truncated or oversized report trailer";
    return false;
  }
  if (fnv1a(bytes.data(), checksummed) != checksum) {
    error = "report checksum mismatch (corrupt or torn file)";
    return false;
  }
  return true;
}

BatchReport mergeBatchReports(const std::vector<BatchReport> &parts) {
  BatchReport merged;
  std::vector<BatchStats> stats;
  stats.reserve(parts.size());
  for (const BatchReport &part : parts) {
    stats.push_back(part.stats);
    merged.entries.insert(merged.entries.end(), part.entries.begin(),
                          part.entries.end());
  }
  merged.stats = mergeBatchStats(stats);
  // (name, key) order == manifest order for manifest-driven shards:
  // manifests are path-sorted and each shard preserved that order over
  // its disjoint subset, so this sort is what makes the merged report
  // byte-identical to a single-process run's.
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const BatchReportEntry &a, const BatchReportEntry &b) {
              return a.name != b.name ? a.name < b.name : a.key < b.key;
            });
  return merged;
}

// ------------------------------------------------------ payload codecs

// Payload layout (schemas 2 and 3 — bump kCacheSchemaVersion when
// changing this): the header [ok u8][producerName str][diagnostics str] then, when
// ok, the tail [hasCoverage u8][loops u64][statements u64][inLoop u64]?
// [model bytes]. Shared by the disk cache and the wire protocol
// (docs/PROTOCOL.md), which is what makes a daemon-served result
// byte-identical to a disk-cached one by construction. The tail depends
// only on the cached value, so the analyzer encodes it once per value and
// splices each request's header onto it. This code writes hasCoverage = 1
// for every ok value it caches; the driver recomputes an entry without
// it.

namespace {

void putPayloadHeader(std::string &out, bool ok,
                      const std::string &producerName,
                      const std::string &diagnostics) {
  bio::putU8(out, ok ? 1 : 0);
  bio::putString(out, producerName);
  bio::putString(out, diagnostics);
}

void putPayloadTail(std::string &out, const model::PerformanceModel *model,
                    const sema::LoopCoverage *coverage) {
  if (!model)
    return;
  bio::putU8(out, coverage ? 1 : 0);
  if (coverage)
    core::putCoverageSummary(out, *coverage);
  model::serializeModel(*model, out);
}

/// A payload from its header fields and an already-encoded tail.
std::string splicePayload(bool ok, const std::string &producerName,
                          const std::string &diagnostics,
                          const std::string &tail) {
  std::string out;
  out.reserve(1 + 4 + producerName.size() + 4 + diagnostics.size() +
              tail.size());
  putPayloadHeader(out, ok, producerName, diagnostics);
  out += tail;
  return out;
}

bool readPayloadHeader(bio::Reader &r, bool &ok, std::string &producerName,
                       std::string &diagnostics) {
  std::uint8_t flag = 0;
  if (!r.u8(flag) || flag > 1 || !r.str(producerName) || !r.str(diagnostics))
    return false;
  ok = flag == 1;
  return true;
}

/// deserializeArtifactPayload, also reporting where the tail starts.
bool readArtifactPayload(const std::string &payload,
                         std::shared_ptr<const core::AnalysisResult> &analysis,
                         std::optional<sema::LoopCoverage> &coverage,
                         std::string &diagnostics, std::string &producerName,
                         std::size_t &tailStart) {
  coverage.reset();
  bio::Reader r{payload, 0};
  bool ok = false;
  if (!readPayloadHeader(r, ok, producerName, diagnostics))
    return false;
  tailStart = r.offset;
  if (!ok) {
    analysis = nullptr;
    return r.remaining() == 0;
  }
  std::uint8_t hasCoverage = 0;
  if (!r.u8(hasCoverage) || hasCoverage > 1)
    return false;
  if (hasCoverage && !core::readCoverageSummary(r, coverage.emplace()))
    return false;
  auto result = std::make_shared<core::AnalysisResult>();
  std::size_t offset = r.offset;
  if (!model::deserializeModel(payload, offset, result->model))
    return false;
  if (offset != payload.size())
    return false; // trailing garbage: treat as corrupt
  analysis = std::move(result);
  return true;
}

} // namespace

std::string serializeArtifactPayload(const model::PerformanceModel *model,
                                     const sema::LoopCoverage *coverage,
                                     const std::string &diagnostics,
                                     const std::string &producerName) {
  std::string out;
  putPayloadHeader(out, model != nullptr, producerName, diagnostics);
  putPayloadTail(out, model, coverage);
  return out;
}

bool measureArtifactPayload(const std::string &payload,
                            ArtifactPayloadSizes &sizes) {
  sizes = ArtifactPayloadSizes{};
  bio::Reader r{payload, 0};
  bool ok = false;
  std::string producer, diagnostics;
  if (!readPayloadHeader(r, ok, producer, diagnostics))
    return false;
  sizes.diagnosticsBytes = diagnostics.size();
  if (!ok)
    return true;
  const std::size_t coverageStart = r.offset;
  std::uint8_t hasCoverage = 0;
  sema::LoopCoverage summary;
  if (!r.u8(hasCoverage) || hasCoverage > 1 ||
      (hasCoverage && !core::readCoverageSummary(r, summary)))
    return false;
  sizes.ok = true;
  sizes.coverageBytes = r.offset - coverageStart;
  sizes.modelBytes = r.remaining();
  return true;
}

bool deserializeArtifactPayload(
    const std::string &payload,
    std::shared_ptr<const core::AnalysisResult> &analysis,
    std::optional<sema::LoopCoverage> &coverage, std::string &diagnostics,
    std::string &producerName) {
  std::size_t tailStart = 0;
  return readArtifactPayload(payload, analysis, coverage, diagnostics,
                             producerName, tailStart);
}

// -------------------------------------------------------- BatchAnalyzer

BatchAnalyzer::BatchAnalyzer(BatchOptions options)
    : options_(std::move(options)), pool_(options_.threads),
      owned_metrics_(options_.metrics ? nullptr : new core::MetricsRegistry()),
      metrics_(options_.metrics ? options_.metrics : owned_metrics_.get()),
      disk_hits_(metrics_->counter("analyzer_disk_hits_total")),
      disk_misses_(metrics_->counter("analyzer_disk_misses_total")),
      disk_stores_(metrics_->counter("analyzer_disk_stores_total")),
      coverage_from_cache_(
          metrics_->counter("analyzer_coverage_from_cache_total")),
      model_encodes_(metrics_->counter("analyzer_model_encodes_total")) {
  if (options_.useCache && !options_.cacheDir.empty())
    disk_ = std::make_unique<CacheStore>(options_.cacheDir,
                                         options_.cacheBytesLimit);
  // Contained task exceptions are a should-not-happen signal (computeValue
  // catches at the task boundary), so surface them in the shared registry
  // rather than letting them vanish into the pool.
  core::MetricsRegistry::Counter &poolExceptions =
      metrics_->counter("pool_task_exceptions_total");
  pool_.setExceptionHandler([&poolExceptions] { poolExceptions.increment(); });
}

std::size_t BatchAnalyzer::cacheSize() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

void BatchAnalyzer::clearCache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.clear();
}

const sim::Image *
BatchAnalyzer::CacheValue::simulationImage(bool *compiledNow) const {
  *compiledNow = false;
  std::call_once(imageOnce, [&] {
    if (image || !program)
      return;
    if (std::shared_ptr<const core::CompiledProgram> compiled =
            program->getUnkept(compiledNow))
      image = std::make_shared<const sim::Image>(compiled->mir,
                                                 compiled->codegen);
  });
  return image.get();
}

std::shared_ptr<core::ProgramHandle>
BatchAnalyzer::computeValue(const core::AnalysisSpec &spec,
                            CacheValue &value) {
  value.producerName = spec.name;
  // The pipeline reports through diagnostics, but an escaping exception
  // (e.g. bad_alloc) must fail one request, not terminate the pool.
  try {
    // Injection point: exercises the transient-failure path (and, under
    // a crash rule, death at an arbitrary point mid-batch).
    if (fault::shouldFail("compute"))
      throw std::runtime_error("injected compute fault");
    // Every miss computes the same value, whatever the requesting mask
    // and whether or not the analyzer keeps it: the model (the expensive
    // stage, and one that can warn), the coverage summary (one cheap AST
    // walk) and the program's simulation image. A request's diagnostics
    // therefore never depend on its mask or on the cache, and later
    // requests for any mask are free. Simulation is per call and
    // deliberately excluded (serve() runs it on the image).
    core::AnalysisSpec full = spec;
    full.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                     core::kArtifactProgram | core::kArtifactCoverage;
    DiagnosticEngine diags;
    core::Artifacts artifacts = core::analyze(full, diags);
    value.diagnostics = std::move(artifacts.diagnostics);
    if (artifacts.ok) {
      // Of the program, only its MIR and machine code outlive the
      // request, as the image; the rest dies with the last live handle.
      const std::shared_ptr<const core::CompiledProgram> program =
          artifacts.program->get();
      value.image =
          std::make_shared<const sim::Image>(program->mir, program->codegen);
      value.program = core::ProgramHandle::deferred(spec.source, spec.name,
                                                    spec.options.compile);
      value.model = std::move(artifacts.model);
      value.coverage = artifacts.coverage;
      value.ok = true;
      return std::move(artifacts.program);
    }
  } catch (const std::exception &e) {
    value.ok = false;
    value.model.reset();
    value.coverage.reset();
    value.image.reset();
    value.program.reset();
    value.diagnostics = spec.name + ": internal error: " + e.what();
    value.transientFailure = true;
  }
  return nullptr;
}

const std::string &BatchAnalyzer::payloadTail(const CacheValue &value) {
  std::call_once(value.tailOnce, [&] {
    putPayloadTail(value.tail, value.model.get(),
                   value.coverage ? &*value.coverage : nullptr);
    if (value.model)
      model_encodes_.increment();
  });
  return value.tail;
}

std::shared_ptr<core::ProgramHandle>
BatchAnalyzer::produceValue(const core::AnalysisSpec &spec, std::uint64_t key,
                            CacheValue &value) {
  if (disk_) {
    if (std::optional<std::string> payload = disk_->load(key)) {
      std::shared_ptr<const core::AnalysisResult> analysis;
      std::optional<sema::LoopCoverage> coverage;
      std::string diagnostics, producerName;
      std::size_t tailStart = 0;
      // An ok entry must carry its coverage summary, so every cached
      // value can answer coverage without the compiled program.
      if (readArtifactPayload(*payload, analysis, coverage, diagnostics,
                              producerName, tailStart) &&
          (!analysis || coverage)) {
        value.fromDisk = true;
        value.ok = analysis != nullptr;
        value.coverage = std::move(coverage);
        value.diagnostics = std::move(diagnostics);
        value.producerName = std::move(producerName);
        if (analysis) {
          value.model = std::shared_ptr<const model::PerformanceModel>(
              analysis, &analysis->model);
          // The entry restores without the compiled program; program-
          // needing artifacts reattach it lazily at recompile cost.
          value.program = core::ProgramHandle::deferred(
              spec.source, spec.name, spec.options.compile);
        }
        // The entry's bytes after the diagnostics are the value's tail.
        payload->erase(0, tailStart);
        std::call_once(value.tailOnce,
                       [&] { value.tail = std::move(*payload); });
        disk_hits_.increment();
        return nullptr;
      }
      // Validated by the store but structurally unusable (e.g. written
      // by a build with different serializer semantics under the same
      // schema version — a bug, but one that must degrade to a
      // recompute, not a failure). The store below overwrites it.
    }
    disk_misses_.increment();
  }
  std::shared_ptr<core::ProgramHandle> live = computeValue(spec, value);
  // Deterministic results (models and compile errors alike) persist;
  // exception-path failures do not — caching a one-off bad_alloc would
  // replay it on every future run of this source. The store encodes the
  // value's tail, which later replies splice onto.
  if (disk_ && !value.transientFailure &&
      disk_->store(key, splicePayload(value.model != nullptr,
                                      value.producerName, value.diagnostics,
                                      payloadTail(value)))) {
    disk_stores_.increment();
    value.stored = true;
  }
  return live;
}

core::Artifacts
BatchAnalyzer::serve(const core::AnalysisSpec &spec, const CacheValue &value,
                     bool producer, std::shared_ptr<core::ProgramHandle> live,
                     std::chrono::steady_clock::time_point start,
                     std::string *payload) {
  // A hit is a request the value was not computed for: every waiter, and
  // the producer of a disk restore.
  const bool cacheHit = !producer || value.fromDisk;
  core::Artifacts artifacts;
  artifacts.name = spec.name;
  artifacts.requested = spec.artifacts;
  artifacts.cacheHit = cacheHit;
  artifacts.ok = value.ok;
  artifacts.diagnostics = value.diagnostics;
  // Diagnostics name no file; when an identically-sourced request under
  // a different name hits the entry, say which request's analysis
  // produced the text.
  if (cacheHit && !artifacts.diagnostics.empty() &&
      value.producerName != spec.name)
    artifacts.diagnostics = "(diagnostics from identical source '" +
                            value.producerName + "')\n" +
                            artifacts.diagnostics;
  if (producer) {
    // Disk-level provenance belongs to exactly one request per value —
    // the producer — so flag sums over any result set count each disk
    // operation once (tallyBatchStats relies on this).
    artifacts.diskHit = value.fromDisk;
    artifacts.diskMiss = disk_ != nullptr && !value.fromDisk;
    artifacts.diskStored = value.stored;
  }

  if (value.ok) {
    if (spec.artifacts & core::kArtifactModel)
      artifacts.model = value.model;
    if (spec.artifacts & core::kArtifactProgram)
      artifacts.program = live ? std::move(live) : value.program;

    // Every value carries its coverage summary, so attaching it is free:
    // the serving layers forward it in payloads even when it was not
    // requested.
    if (value.coverage) {
      artifacts.coverage = *value.coverage;
      if ((spec.artifacts & core::kArtifactCoverage) && cacheHit) {
        coverage_from_cache_.increment();
        artifacts.coverageFromCache = true;
      }
    }

    if (spec.artifacts & core::kArtifactSimulation) {
      // A restored value recompiles for its image exactly once, no matter
      // how many requests want it concurrently; only the request that
      // actually recompiled counts toward `recompiles`.
      bool compiledNow = false;
      const sim::Image *image = value.simulationImage(&compiledNow);
      artifacts.recompiled = compiledNow;
      if (image) {
        artifacts.simulation = std::make_shared<const sim::SimResult>(
            sim::run(*image, spec.simulation.function, spec.simulation.args,
                     spec.simulation.options));
      } else {
        sim::SimResult failed;
        failed.ok = false;
        failed.error = "compiled program unavailable (recompile failed)";
        artifacts.simulation =
            std::make_shared<const sim::SimResult>(std::move(failed));
      }
    }
  }
  artifacts.seconds = secondsSince(start);
  if (payload)
    *payload = splicePayload(value.model != nullptr, artifacts.name,
                             artifacts.diagnostics, payloadTail(value));
  return artifacts;
}

core::Artifacts
BatchAnalyzer::analyzeArtifacts(const core::AnalysisSpec &spec) {
  return analyzeArtifacts(spec, requestKey(spec), nullptr);
}

core::Artifacts BatchAnalyzer::analyzeArtifacts(const core::AnalysisSpec &spec,
                                                std::uint64_t key,
                                                std::string *payload) {
  const auto start = std::chrono::steady_clock::now();
  if (!options_.useCache) {
    CacheValue value;
    std::shared_ptr<core::ProgramHandle> live = computeValue(spec, value);
    return serve(spec, value, /*producer=*/true, std::move(live), start,
                 payload);
  }

  std::promise<std::shared_ptr<const CacheValue>> promise;
  CacheFuture future;
  bool producer = false;
  std::shared_ptr<core::ProgramHandle> live;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      producer = true;
      future = promise.get_future().share();
      cache_.emplace(key, future);
    } else {
      future = it->second;
    }
  }

  if (producer) {
    bool dropEntry = false;
    try {
      auto value = std::make_shared<CacheValue>();
      live = produceValue(spec, key, *value);
      dropEntry = value->transientFailure;
      promise.set_value(std::move(value));
    } catch (...) {
      // Even allocating the cache entry failed; waiters see the same
      // exception through the shared future instead of blocking forever.
      promise.set_exception(std::current_exception());
      dropEntry = true;
    }
    if (dropEntry) {
      // Transient failures must not outlive this batch: duplicates
      // already in flight share the failure (they were concurrent with
      // it), but later runs and future duplicates must recompute
      // rather than replay a one-off bad_alloc forever.
      std::lock_guard<std::mutex> lock(cache_mutex_);
      cache_.erase(key);
    }
  }

  // Non-producers wait here; the producer task is by construction already
  // executing on some worker, so the wait always terminates.
  std::shared_ptr<const CacheValue> value;
  try {
    value = future.get();
  } catch (const std::exception &e) {
    core::Artifacts artifacts;
    artifacts.name = spec.name;
    artifacts.requested = spec.artifacts;
    artifacts.ok = false;
    artifacts.diagnostics = spec.name + ": internal error: " + e.what();
    artifacts.seconds = secondsSince(start);
    if (payload)
      *payload = serializeArtifactPayload(nullptr, nullptr,
                                          artifacts.diagnostics, spec.name);
    return artifacts;
  }
  return serve(spec, *value, producer, std::move(live), start, payload);
}

std::optional<core::Artifacts>
BatchAnalyzer::analyzeIfReady(const core::AnalysisSpec &spec,
                              std::uint64_t key, std::string *payload) {
  if (spec.artifacts & core::kArtifactSimulation)
    return std::nullopt;
  const auto start = std::chrono::steady_clock::now();
  CacheFuture future;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it == cache_.end())
      return std::nullopt;
    future = it->second;
  }
  if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
    return std::nullopt;
  std::shared_ptr<const CacheValue> value;
  try {
    value = future.get();
  } catch (...) {
    return std::nullopt; // a failed producer: its entry is on its way out
  }
  return serve(spec, *value, /*producer=*/false, nullptr, start, payload);
}

std::vector<core::Artifacts> BatchAnalyzer::analyzeArtifactsMany(
    const std::vector<core::AnalysisSpec> &specs) {
  std::vector<core::Artifacts> results(specs.size());
  if (specs.empty())
    return results;
  // A per-call latch instead of pool_.waitIdle(): concurrent callers
  // must each wait for exactly their own tasks. Workers hold shared
  // ownership so the state outlives this frame even if a worker is
  // descheduled between its decrement and its return.
  struct Latch {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pool_.submit([this, &specs, &results, latch, i] {
      results[i] = analyzeArtifacts(specs[i], requestKey(specs[i]), nullptr);
      std::lock_guard<std::mutex> lock(latch->mutex);
      if (--latch->remaining == 0)
        latch->done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(latch->mutex);
  latch->done.wait(lock, [&] { return latch->remaining == 0; });
  return results;
}

std::vector<core::Artifacts>
BatchAnalyzer::runArtifacts(const std::vector<core::AnalysisSpec> &specs) {
  auto start = std::chrono::steady_clock::now();
  std::vector<core::Artifacts> results = analyzeArtifactsMany(specs);
  // Per-result provenance flags keep the per-run view correct even when
  // the registry is shared with daemon traffic — the same tally the
  // daemon's ManifestBatch reports.
  stats_ = tallyBatchStats(results);
  stats_.wallSeconds = secondsSince(start);
  return results;
}

// ------------------------------------------------- manifest execution

ManifestOutcome runManifestBatch(BatchAnalyzer &analyzer,
                                 const ManifestJob &job,
                                 const ManifestChunkFn &onChunk) {
  ManifestOutcome outcome;
  const ManifestSelection selection = selectManifestEntries(
      job.manifest, job.since ? &*job.since : nullptr, job.options,
      job.shard);
  const std::filesystem::path root =
      job.root.empty() ? job.manifest.root : job.root;
  std::vector<core::AnalysisSpec> specs(selection.entries.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string path = (root / selection.entries[i].path).string();
    if (!readFile(path, specs[i].source)) {
      outcome.status = ManifestOutcome::Status::unreadable;
      outcome.error = "cannot read source '" + path + "'";
      return outcome;
    }
    specs[i].name = selection.entries[i].path; // report identity
    specs[i].options = job.options;
  }

  // Each chunk fans across the analyzer's pool; chunk boundaries are
  // where progress goes out and cancellation is honored. Twice the pool
  // keeps every worker busy while bounding the work a vanished client
  // can waste.
  const std::size_t chunkSize =
      std::max<std::size_t>(1, analyzer.threadCount() * 2);
  ManifestProgress progress;
  progress.total = specs.size();
  outcome.results.reserve(specs.size());
  for (std::size_t begin = 0; begin < specs.size(); begin += chunkSize) {
    const auto first = specs.begin() + static_cast<std::ptrdiff_t>(begin);
    const std::vector<core::AnalysisSpec> chunk(
        std::make_move_iterator(first),
        std::make_move_iterator(
            first + static_cast<std::ptrdiff_t>(
                        std::min(chunkSize, specs.size() - begin))));
    for (core::Artifacts &artifacts : analyzer.analyzeArtifactsMany(chunk)) {
      progress.failures += artifacts.ok ? 0 : 1;
      progress.cacheHits += artifacts.cacheHit ? 1 : 0;
      outcome.results.push_back(std::move(artifacts));
    }
    progress.done = outcome.results.size();
    if (onChunk && !onChunk(progress) && progress.done < progress.total) {
      outcome.status = ManifestOutcome::Status::cancelled;
      return outcome;
    }
  }

  outcome.report.stats = tallyBatchStats(outcome.results);
  outcome.report.entries.reserve(outcome.results.size());
  for (std::size_t i = 0; i < outcome.results.size(); ++i)
    outcome.report.entries.push_back(
        {selection.entries[i].path,
         requestKeyFromContentHash(selection.entries[i].contentHash,
                                   job.options),
         outcome.results[i].ok});
  return outcome;
}

} // namespace mira::driver
