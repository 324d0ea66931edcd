/// \file
/// Parallel batch analysis: many MiniC sources through the full
/// pipeline, with per-request artifact fulfillment.
///
/// BatchAnalyzer fans core::AnalysisSpecs across a fixed ThreadPool,
/// collects per-request core::Artifacts deterministically in input
/// order, and de-duplicates work through a two-level cache keyed by
/// (source hash, options): an in-memory future map that persists across
/// run calls on the same analyzer, and an optional on-disk CacheStore
/// (support/cache_store.h) that persists across processes.
///
/// Fulfillment planning: each requested artifact is served from the
/// cheapest layer that has it —
///   1. memory   — a computed or previously restored entry in-process:
///                 model, coverage summary and simulation image;
///   2. disk     — model + diagnostics + coverage summary;
///   3. recompile — a ProgramHandle re-runs parse→sema→codegen (never
///                 model generation) for a restored entry's simulation
///                 image, or when a hit asks for the program itself;
///   4. full compute — a miss runs the whole pipeline once (model,
///                 coverage and program, whatever the mask) and
///                 populates every layer for future callers.
/// A miss computes the same value whether or not the analyzer keeps it
/// (BatchOptions::useCache), so neither the cache nor the mask changes
/// a request's diagnostics or the bytes of an artifact it asks for.
/// BatchStats counts each plan step so tests and the CLI can prove a
/// warm run recomputed nothing.
///
/// Payloads for hits: a cached value keeps its payload tail, the
/// artifact payload's bytes after the diagnostics, and encodes it at
/// most once — the disk store encodes it, a disk hit already holds it,
/// and otherwise the first request that wants a payload encodes it. A
/// request's payload is its own header (name, diagnostics) spliced onto
/// that tail, so a memory hit copies bytes and serializes no model. A
/// local batch with no disk level never asks for payloads and encodes
/// none.
///
/// Thread-safety contract with core::analyze: the pipeline keeps no
/// shared mutable state (each request gets its own DiagnosticEngine,
/// and all function-local statics in the pipeline are immutable tables),
/// so concurrent analyses of different requests are safe. runArtifacts()
/// must not be called concurrently on one BatchAnalyzer;
/// analyzeArtifacts() and analyzeArtifactsMany() may.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/metrics_registry.h"
#include "core/mira.h"
#include "corpus/manifest.h"
#include "support/cache_store.h"
#include "support/thread_pool.h"

namespace mira::driver {

/// Knobs for one BatchAnalyzer. Only AnalysisSpec::options influence
/// cache keys — everything here is execution strategy and storage
/// placement, deliberately excluded from requestKey().
struct BatchOptions {
  /// Worker threads analyzing requests concurrently.
  std::size_t threads = ThreadPool::defaultThreadCount();
  /// Keep computed values. False bypasses both cache levels (memory and
  /// disk): nothing is kept, so a huge batch runs in bounded memory, and
  /// every request counts as a miss. A miss computes the same value
  /// either way.
  bool useCache = true;
  /// Directory for the persistent cache; empty disables the disk level.
  std::string cacheDir;
  /// LRU byte cap for the disk level (0 = unlimited). See
  /// support/cache_store.h for the eviction policy.
  std::uint64_t cacheBytesLimit = 0;
  /// Registry the analyzer's lifetime counters register in (non-owning;
  /// must outlive the analyzer). Null = the analyzer owns a private
  /// registry, reachable through BatchAnalyzer::metrics(). The serving
  /// daemon passes its own registry here so analyzer and server counters
  /// share one metrics surface (core/metrics_registry.h).
  core::MetricsRegistry *metrics = nullptr;
};

/// Counters describing the last runArtifacts(). The per-artifact block
/// proves where each answer came from: a warm coverage sweep should
/// show coverageFromCache == requests and recompiles == 0. Every field
/// is a tally of the run's per-result provenance flags
/// (tallyBatchStats).
struct BatchStats {
  std::size_t requests = 0;    ///< size of the request vector
  std::size_t failures = 0;    ///< outcomes with ok == false
  std::size_t cacheHits = 0;   ///< outcomes served without recomputation
  std::size_t cacheMisses = 0; ///< outcomes that ran the pipeline
  std::size_t diskHits = 0;    ///< entries restored from the disk cache
  std::size_t diskMisses = 0;  ///< disk lookups that fell through
  std::size_t diskStores = 0;  ///< entries written to the disk cache
  // Per-artifact fulfillment: what was served, and from where.
  std::size_t modelArtifacts = 0;      ///< requests served a model
  std::size_t programArtifacts = 0;    ///< requests served a ProgramHandle
  std::size_t coverageArtifacts = 0;   ///< requests served loop coverage
  std::size_t simulationArtifacts = 0; ///< simulations executed
  std::size_t coverageFromCache = 0;   ///< coverage answered from a cached
                                       ///< summary (no AST needed)
  std::size_t recompiles = 0;          ///< deferred handles materialized
                                       ///< (parse→codegen re-runs)
  double wallSeconds = 0; ///< whole-batch wall clock of the last run
};

/// Cache key: FNV-1a fingerprint of the source bytes and every
/// model-affecting option (compiler toggles, metric options), ending
/// with a fixed architecture name.
/// Stable across processes and runs by construction — it is the on-disk
/// cache's file name (support/cache_store.h). The artifact mask and
/// simulation arguments are deliberately NOT keyed: every mask reuses
/// one entry.
std::uint64_t requestKey(const core::AnalysisSpec &spec);

/// The options half of requestKey: continue hashing the model-affecting
/// options from an already-computed FNV-1a source fingerprint.
/// `requestKey(spec) == requestKeyFromContentHash(fnv1a(spec.source),
/// spec.options)` by construction — which is what lets a corpus
/// manifest (corpus/manifest.h stores exactly that source fingerprint)
/// predict cache keys, plan shards, and prune the store without reading
/// any source bytes.
std::uint64_t requestKeyFromContentHash(std::uint64_t contentHash,
                                        const core::MiraOptions &options);

// --------------------------------------------------- shard planning

/// One shard of a partitioned batch: this process owns every request
/// whose cache key satisfies `key % count == index`.
///
/// Determinism contract (docs/MANIFESTS.md): assignment depends only on
/// (key, count) — never on input order, thread count, or which machine
/// evaluates it — so N processes given the same manifest and options
/// partition it identically, with no coordination and no overlap.
/// Duplicate sources hash to one key and therefore land in one shard,
/// which keeps per-shard cache counters equal to a single-process run.
struct ShardSpec {
  std::size_t index = 0; ///< 0-based shard number, < count
  std::size_t count = 1; ///< total shards; 1 = unsharded
};

/// Parse the CLI's 1-based "I/N" syntax ("2/4" = second of four) into a
/// 0-based ShardSpec. False on junk, I < 1, N < 1, or I > N.
bool parseShardSpec(const std::string &text, ShardSpec &shard);

/// True when `key` belongs to `shard`: the key is bit-mixed (splitmix64
/// finalizer) and reduced modulo the shard count, so shards stay
/// balanced even though raw request keys share low-bit structure. A
/// pure function of (key, shard) — every participant in a fleet run
/// computes the same partition with no coordination.
bool keyInShard(std::uint64_t key, const ShardSpec &shard);

/// The work one manifest-batch invocation owns.
struct ManifestSelection {
  /// Entries to analyze, in manifest (path) order.
  std::vector<corpus::ManifestEntry> entries;
};

/// Select the entries `manifest` obliges this invocation to analyze:
/// diff against an optional `since` baseline (keep added + changed, in
/// path order), then keep only the keys of `shard`. A pure function of
/// its inputs, and the planning step of runManifestBatch.
ManifestSelection selectManifestEntries(const corpus::Manifest &manifest,
                                        const corpus::Manifest *since,
                                        const core::MiraOptions &options,
                                        const ShardSpec &shard);

// ------------------------------------------- stats & report merging

/// Sum per-shard counter blocks into one batch-wide view. Every counter
/// adds; wallSeconds is the max (shards run concurrently, so their wall
/// clocks overlap rather than accumulate).
BatchStats mergeBatchStats(const std::vector<BatchStats> &parts);

/// Derive a per-run BatchStats from per-result provenance flags (see
/// core::Artifacts::diskHit and friends). runArtifacts() and
/// runManifestBatch() both report through this, so their stats stay
/// correct when other traffic shares the registry — which is how the
/// daemon builds a report byte-identical to a local run. wallSeconds is
/// left 0 (the caller owns the clock).
BatchStats tallyBatchStats(const std::vector<core::Artifacts> &results);

/// One line of a shard report: which request, under which cache key,
/// with what outcome. Deliberately excludes timing so reports are
/// deterministic (byte-comparable across runs and process counts).
struct BatchReportEntry {
  std::string name;        ///< request name (manifest path in manifest runs)
  std::uint64_t key = 0;   ///< driver::requestKey of the request
  bool ok = false;         ///< analysis produced a model
};

/// A deterministic batch report: per-request entries plus the counter
/// block. `mira-cli batch --report` writes one per (shard) process;
/// `mira-cli manifest merge` folds shard reports into the report a
/// single-process run would have produced — byte-identically, which is
/// the multi-process correctness check tests and CI pin.
struct BatchReport {
  std::vector<BatchReportEntry> entries;
  BatchStats stats; ///< wallSeconds is NOT serialized (nondeterministic)
};

/// Byte-stable serialization: `[magic "MirR" u32][version u32]` then the
/// counter block (every BatchStats field except wallSeconds, as u64, in
/// declaration order), `[entryCount u32]`, per entry
/// `[name str][key u64][ok u8]`, and a trailing FNV-1a checksum.
std::string serializeBatchReport(const BatchReport &report);

/// Parse serializeBatchReport bytes; false with a description on any
/// structural problem (magic, version, truncation, trailing garbage,
/// checksum).
bool deserializeBatchReport(const std::string &bytes, BatchReport &report,
                            std::string &error);

/// Merge shard reports: entries are re-sorted by (name, key) — manifest
/// order, since manifests are path-sorted and shards select disjoint
/// subsets — and stats merge via mergeBatchStats.
BatchReport mergeBatchReports(const std::vector<BatchReport> &parts);

/// Serialize one analysis value into the artifact payload
/// shared by the disk cache and the wire protocol: the header
/// `[ok u8][producerName str][diagnostics str]` then, when ok, the tail
/// `[hasCoverage u8][loops u64 stmts u64 inLoop u64]?[model bytes]`
/// (docs/CACHING.md "Entry format"). `model` null = a cached failure
/// (`coverage` is then ignored). The layout of kCacheSchemaVersion 2
/// and 3.
/// The analyzer writes payloads with the same header and tail encoders,
/// splicing each request's header onto a value's memoized tail.
std::string serializeArtifactPayload(const model::PerformanceModel *model,
                                     const sema::LoopCoverage *coverage,
                                     const std::string &diagnostics,
                                     const std::string &producerName);

/// Section sizes of one serializeArtifactPayload buffer, the breakdown
/// `mira-cli cache stats` sums per artifact.
struct ArtifactPayloadSizes {
  bool ok = false;                  ///< the payload records a success
  std::size_t diagnosticsBytes = 0; ///< diagnostics text
  std::size_t coverageBytes = 0;    ///< hasCoverage flag plus summary
  std::size_t modelBytes = 0;       ///< serialized model (0 on failure)
};

/// Measure a serializeArtifactPayload buffer's sections without decoding
/// the model. False when the header fields are malformed or truncated.
bool measureArtifactPayload(const std::string &payload,
                            ArtifactPayloadSizes &sizes);

/// Parse a serializeArtifactPayload buffer. Returns false on any
/// structural problem (bounds, trailing garbage) — callers treat that
/// as corruption and recompute. On success `analysis` is null iff the
/// payload recorded a failed analysis; `coverage` is empty when the
/// payload carried no summary.
bool deserializeArtifactPayload(
    const std::string &payload,
    std::shared_ptr<const core::AnalysisResult> &analysis,
    std::optional<sema::LoopCoverage> &coverage, std::string &diagnostics,
    std::string &producerName);

/// Analyzes batches of sources in parallel with two-level caching and
/// per-artifact fulfillment planning.
class BatchAnalyzer {
public:
  explicit BatchAnalyzer(BatchOptions options = {});

  /// Fulfill one spec on the calling thread, sharing the in-memory and
  /// disk cache levels with every other caller. Safe to call
  /// concurrently (the serving daemon fans sessions across its own pool
  /// and calls this per request); does not touch stats().
  core::Artifacts analyzeArtifacts(const core::AnalysisSpec &spec);

  /// analyzeArtifacts() under an already-computed `key`, which must equal
  /// requestKey(spec). When `payload` is non-null it receives the
  /// request's artifact payload: serializeArtifactPayload of the value
  /// the request was served from, named after the request and carrying
  /// its diagnostics, spliced onto the value's memoized payload tail.
  core::Artifacts analyzeArtifacts(const core::AnalysisSpec &spec,
                                   std::uint64_t key, std::string *payload);

  /// Serve `spec` only when a ready in-memory entry answers it; never
  /// computes, reads the disk level, or waits for an entry still being
  /// computed. Nullopt on a miss (always, on an analyzer without a
  /// cache: it keeps no entry), on an entry still computing, and for
  /// masks asking for simulation;
  /// otherwise the same result, payload and counters as
  /// analyzeArtifacts(spec, key, payload). The daemon's session readers
  /// answer hits through this.
  std::optional<core::Artifacts>
  analyzeIfReady(const core::AnalysisSpec &spec, std::uint64_t key,
                 std::string *payload);

  /// Fan `specs` across the batch pool and block until all artifacts
  /// are in (input order). Safe to call concurrently; does not touch
  /// stats(). Must not be called from a task running on this analyzer's
  /// own pool (nested-pool rule, support/thread_pool.h).
  std::vector<core::Artifacts>
  analyzeArtifactsMany(const std::vector<core::AnalysisSpec> &specs);

  /// Fulfill every spec and update stats(); outcome[i] corresponds to
  /// specs[i] regardless of thread count or completion order. Not
  /// concurrency-safe with itself (use analyzeArtifactsMany for that).
  std::vector<core::Artifacts>
  runArtifacts(const std::vector<core::AnalysisSpec> &specs);

  /// Stats of the last runArtifacts() (cache hit/miss, failures,
  /// per-artifact fulfillment, wall clock).
  const BatchStats &stats() const { return stats_; }

  /// The registry holding this analyzer's lifetime counters
  /// (analyzer_disk_{hits,misses,stores}_total,
  /// analyzer_coverage_from_cache_total, analyzer_model_encodes_total):
  /// the one passed in BatchOptions::metrics, or the analyzer's own.
  /// Counters accumulate across every entry point, including the
  /// concurrent-safe ones that never touch stats().
  /// analyzer_model_encodes_total counts models serialized into payload
  /// tails: at most one per cached value, none for a memory hit. Served
  /// results are counted by whoever serves them, from each result's
  /// provenance flags (the daemon's server_*_total counters).
  core::MetricsRegistry &metrics() { return *metrics_; }

  /// Workers of the batch pool. They start with the first
  /// analyzeArtifactsMany(); an analyzer used only through
  /// analyzeArtifacts() starts no thread.
  std::size_t threadCount() const { return pool_.threadCount(); }

  /// Entries in the in-memory level (the disk level is inspected through
  /// diskCache()).
  std::size_t cacheSize() const;

  /// Drop every in-memory entry. The disk level, if any, is untouched —
  /// use diskCache()->clear() for that.
  void clearCache();

  /// The disk level, or null when BatchOptions::cacheDir was empty.
  CacheStore *diskCache() { return disk_.get(); }

private:
  /// One cached analysis value, shared by every mask that asks for the
  /// same (source, options): the artifact views, a simulation image and a
  /// recompile-on-demand program handle. A value never keeps a compiled
  /// program unless a kArtifactProgram request materializes the handle.
  struct CacheValue {
    /// The analysis succeeded. This implies `model` and `coverage` are
    /// set: every compute produces both, and a disk entry lacking either
    /// is recomputed.
    bool ok = false;
    /// Null on failure.
    std::shared_ptr<const model::PerformanceModel> model;
    /// Loop-coverage summary; absent on failure.
    std::optional<sema::LoopCoverage> coverage;
    /// Deferred, for computed and restored values alike; null on
    /// failure. Only the request that computed the value gets its live
    /// program (computeValue).
    std::shared_ptr<core::ProgramHandle> program;
    /// What simulations run on. A computed value builds it from its live
    /// program; a restored one on its first simulation
    /// (simulationImage()).
    mutable std::shared_ptr<const sim::Image> image;
    mutable std::once_flag imageOnce;
    std::string diagnostics;
    std::string producerName; // request whose analysis populated the entry
    bool fromDisk = false;    // restored from the disk level, not computed
    bool stored = false;      // this value was persisted to the disk level
    /// Failure came from a caught exception (bad_alloc, resource
    /// exhaustion), not from deterministic diagnostics. Never persisted:
    /// a transient failure written to disk would replay forever.
    bool transientFailure = false;
    /// The payload bytes after the diagnostics —
    /// `[hasCoverage u8][coverage]?[model bytes]`, empty on failure —
    /// written once under `tailOnce` (payloadTail()), never afterwards.
    mutable std::string tail;
    mutable std::once_flag tailOnce;

    /// The simulation image, built at most once: a restored value builds
    /// it from one recompile the handle does not keep, and
    /// `*compiledNow` says whether this call ran it. Null when that
    /// recompile fails.
    const sim::Image *simulationImage(bool *compiledNow) const;
  };
  using CacheFuture = std::shared_future<std::shared_ptr<const CacheValue>>;

  /// Fulfill `spec` out of a resolved value: the requested artifacts
  /// (simulation runs here, per call), disk provenance (the producer's
  /// alone), counters and, when asked, the payload. The result is a
  /// cache hit unless `producer` computed the value; `live`, the
  /// program the producer compiled, is its kArtifactProgram.
  core::Artifacts serve(const core::AnalysisSpec &spec,
                        const CacheValue &value, bool producer,
                        std::shared_ptr<core::ProgramHandle> live,
                        std::chrono::steady_clock::time_point start,
                        std::string *payload);

  /// The producer path: disk lookup, then compute + disk store. Returns
  /// what computeValue returns, null for a disk restore.
  std::shared_ptr<core::ProgramHandle>
  produceValue(const core::AnalysisSpec &spec, std::uint64_t key,
               CacheValue &value);

  /// The full value of `spec`'s source: model, diagnostics, coverage,
  /// simulation image and program handle, whatever the mask and whether
  /// or not it is kept. Returns the live program, which the value does
  /// not keep (null on failure).
  std::shared_ptr<core::ProgramHandle>
  computeValue(const core::AnalysisSpec &spec, CacheValue &value);

  /// `value`'s payload tail, encoded on the first call.
  const std::string &payloadTail(const CacheValue &value);

  BatchOptions options_;
  ThreadPool pool_;
  std::unique_ptr<CacheStore> disk_;
  BatchStats stats_;

  // The metrics surface: a borrowed registry (BatchOptions::metrics) or
  // a private one. Declared before the counter handles below, which
  // bind into it at construction. Counters are lifetime-monotonic.
  std::unique_ptr<core::MetricsRegistry> owned_metrics_;
  core::MetricsRegistry *metrics_ = nullptr;
  core::MetricsRegistry::Counter &disk_hits_;
  core::MetricsRegistry::Counter &disk_misses_;
  core::MetricsRegistry::Counter &disk_stores_;
  core::MetricsRegistry::Counter &coverage_from_cache_;
  core::MetricsRegistry::Counter &model_encodes_;

  mutable std::mutex cache_mutex_;
  std::map<std::uint64_t, CacheFuture> cache_;
};

// ------------------------------------------------- manifest execution

/// One manifest batch: the corpus, what to select from it, and the
/// options every entry is analyzed under.
struct ManifestJob {
  corpus::Manifest manifest;
  /// Baseline for an incremental run; absent = every entry.
  std::optional<corpus::Manifest> since;
  std::string root; ///< source root override; empty = the manifest's
  core::MiraOptions options;
  ShardSpec shard; ///< this invocation's share of the keys
};

/// Cumulative counts of a running manifest batch.
struct ManifestProgress {
  std::size_t done = 0;      ///< entries finished so far
  std::size_t total = 0;     ///< entries selected for this run
  std::size_t failures = 0;  ///< failed entries so far
  std::size_t cacheHits = 0; ///< cache-served entries so far
};

/// Called after every chunk; returning false abandons the rest.
using ManifestChunkFn = std::function<bool(const ManifestProgress &)>;

/// How a manifest batch ended.
struct ManifestOutcome {
  enum class Status { ok, unreadable, cancelled };
  Status status = Status::ok;
  std::string error;  ///< names the unreadable source
  BatchReport report; ///< complete when status == ok
  /// Every analyzed entry in selection order (a prefix when cancelled).
  std::vector<core::Artifacts> results;
};

/// The one manifest executor, behind both `mira-cli batch --manifest`
/// and the daemon's ManifestBatch request. It selects the entries
/// (selectManifestEntries) and reads every source first: all or nothing,
/// since a report over a partial corpus would mislead. It then analyzes
/// them on `analyzer` in chunks of twice its pool, calling `onChunk`
/// after each, and assembles the byte-stable report: entries in
/// selection order, keys from the manifest's content hashes, stats
/// tallied from per-result provenance (tallyBatchStats).
ManifestOutcome runManifestBatch(BatchAnalyzer &analyzer,
                                 const ManifestJob &job,
                                 const ManifestChunkFn &onChunk = nullptr);

} // namespace mira::driver
