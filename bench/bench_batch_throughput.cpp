// Batch-analysis throughput: the driver subsystem's headline numbers.
//
// Fans the ten Table I coverage kernels plus the fig-series workloads
// across the BatchAnalyzer thread pool and reports (a) serial-vs-parallel
// wall-clock speedup, (b) the cache-hit fast path for repeated
// (source, options) pairs, (c) the persistent disk cache: a cold run
// that stores every entry followed by a fresh-analyzer warm run that
// must be pure disk hits, with hit/miss counts printed, (d) the
// serving daemon: per-request latency of the one-shot path (a fresh
// analyzer per request — the work every new CLI process repeats) vs.
// round-trips to one warm in-process daemon over its Unix socket,
// (e) manifest batches: the same corpus manifest executed locally vs.
// shipped to the daemon as one ManifestBatch request (cold compute and
// the warm fresh-process-vs-warm-daemon gap, with the two cold reports
// checked byte-identical), and
// (f) the coverage artifact ladder: a full cold compute vs. the
// recompile-on-demand path (what a warm simulation pays for its program)
// vs. the cached summary served from a warm disk cache vs. a warm
// daemon answering over the wire (BM_CoverageWarmDaemon). On
// multi-core hosts the 4-thread batch must beat serial by >1.5x; on
// single-core containers the table still prints and flags the
// configuration as unable to demonstrate parallelism.
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include <unistd.h>

#include "corpus/manifest.h"
#include "driver/batch.h"
#include "server/client.h"
#include "server/server.h"
#include "symbolic/interner.h"
#include "workloads/coverage_suite.h"

namespace {

using namespace mira;

std::vector<core::AnalysisSpec> suiteSpecs() {
  std::vector<core::AnalysisSpec> requests;
  for (const auto &kernel : workloads::coverageSuite()) {
    core::AnalysisSpec request;
    request.name = kernel.name;
    request.source = kernel.source;
    requests.push_back(std::move(request));
  }
  for (const auto &workload : workloads::figSeriesWorkloads()) {
    core::AnalysisSpec request;
    request.name = workload.name;
    request.source = *workload.source;
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Wall seconds for one cold batch (cache off so every request computes).
double timeBatch(const std::vector<core::AnalysisSpec> &requests,
                 std::size_t threads) {
  driver::BatchOptions options;
  options.threads = threads;
  options.useCache = false;
  driver::BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.runArtifacts(requests);
  for (const auto &outcome : outcomes) {
    if (!outcome.ok) {
      std::fprintf(stderr, "batch analysis of %s failed:\n%s\n",
                   outcome.name.c_str(), outcome.diagnostics.c_str());
      std::abort();
    }
  }
  return analyzer.stats().wallSeconds;
}

void printSpeedupTable() {
  bench::printHeader(
      "Batch-analysis throughput: Table I kernels + fig-series workloads\n"
      "(cold cache; best of 3 batches per thread count)");
  auto requests = suiteSpecs();
  std::printf("%zu sources, %zu hardware threads\n\n", requests.size(),
              static_cast<std::size_t>(std::thread::hardware_concurrency()));

  double serialSeconds = 0;
  std::printf("%8s | %10s | %8s\n", "threads", "seconds", "speedup");
  for (std::size_t threads : {1, 2, 4, 8}) {
    double best = timeBatch(requests, threads);
    for (int repeat = 0; repeat < 2; ++repeat)
      best = std::min(best, timeBatch(requests, threads));
    if (threads == 1)
      serialSeconds = best;
    std::printf("%8zu | %10.4f | %7.2fx\n", threads, best,
                serialSeconds / best);
    if (threads == 4 && std::thread::hardware_concurrency() >= 4 &&
        serialSeconds / best < 1.5)
      std::printf("  WARNING: <1.5x speedup at 4 threads on a >=4-core "
                  "host\n");
  }
  if (std::thread::hardware_concurrency() < 4)
    std::printf("note: <4 hardware threads; parallel speedup cannot be "
                "demonstrated on this host\n");

  // Cache fast path: a warm identical batch should be pure hits.
  driver::BatchAnalyzer analyzer(driver::BatchOptions{4, true});
  analyzer.runArtifacts(requests);
  double coldSeconds = analyzer.stats().wallSeconds;
  analyzer.runArtifacts(requests);
  std::printf("\ncache: cold %.4f s -> warm %.4f s (%zu hits / %zu miss)\n",
              coldSeconds, analyzer.stats().wallSeconds,
              analyzer.stats().cacheHits, analyzer.stats().cacheMisses);

  // Disk-cache fast path: a fresh analyzer (stand-in for a fresh
  // process) over an unchanged corpus must be pure disk hits — the
  // cross-run reuse the persistent cache exists for.
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "mira_bench_disk_cache")
          .string();
  std::filesystem::remove_all(cacheDir);
  driver::BatchOptions diskOptions;
  diskOptions.threads = 4;
  diskOptions.cacheDir = cacheDir;
  double diskCold = 0, diskWarm = 0;
  std::size_t warmHits = 0, warmMisses = 0, coldStores = 0;
  {
    driver::BatchAnalyzer cold(diskOptions);
    cold.runArtifacts(requests);
    diskCold = cold.stats().wallSeconds;
    coldStores = cold.stats().diskStores;
  }
  {
    driver::BatchAnalyzer warm(diskOptions);
    warm.runArtifacts(requests);
    diskWarm = warm.stats().wallSeconds;
    warmHits = warm.stats().diskHits;
    warmMisses = warm.stats().diskMisses;
  }
  std::printf("disk cache: cold run %.4f s (%zu stored) -> warm run %.4f s "
              "(%zu disk hits / %zu miss, %.1fx)\n",
              diskCold, coldStores, diskWarm, warmHits, warmMisses,
              diskWarm > 0 ? diskCold / diskWarm : 0.0);
  if (warmMisses != 0)
    std::printf("  WARNING: warm disk-cache run recomputed %zu sources\n",
                warmMisses);
  std::filesystem::remove_all(cacheDir);

  // Daemon phase: what one request costs through a cold process versus
  // a warm daemon. The one-shot column runs a fresh BatchAnalyzer per
  // request (every CLI invocation's in-process work, excluding exec and
  // runtime startup — the real CLI gap is larger); the daemon column is
  // a full socket round-trip against a server whose memory cache is hot
  // after the first request.
  const std::string socketPath =
      (std::filesystem::temp_directory_path() /
       ("mira_bench_daemon_" + std::to_string(::getpid()) + ".sock"))
          .string();
  server::ServerOptions serverOptions;
  serverOptions.socketPath = socketPath;
  serverOptions.threads = 2;
  server::AnalysisServer daemon(serverOptions);
  std::string error;
  if (!daemon.start(error)) {
    std::printf("daemon phase skipped: %s\n", error.c_str());
    bench::printRule();
    return;
  }
  std::thread serveThread([&daemon] { daemon.serve(); });
  server::Client client;
  if (!client.connect(socketPath)) {
    std::printf("daemon phase skipped: %s\n", client.lastError().c_str());
    daemon.requestStop();
    serveThread.join();
    bench::printRule();
    return;
  }

  constexpr int kRepeats = 20;
  const std::string &daemonSource = workloads::minifeSource();
  auto now = [] { return std::chrono::steady_clock::now(); };
  auto elapsed = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  double oneShotSeconds = 0;
  for (int i = 0; i < kRepeats; ++i) {
    driver::BatchOptions oneShot;
    oneShot.threads = 1;
    auto start = now();
    driver::BatchAnalyzer fresh(oneShot); // a "new process" every time
    core::AnalysisSpec request;
    request.name = "@minife";
    request.source = daemonSource;
    if (!fresh.analyzeArtifacts(request).ok)
      std::abort();
    oneShotSeconds += elapsed(start);
  }

  double daemonSeconds = 0;
  std::size_t daemonHits = 0;
  for (int i = 0; i < kRepeats; ++i) {
    server::ClientOutcome outcome;
    auto start = now();
    if (!client.analyze("@minife", daemonSource, core::MiraOptions(),
                        outcome) ||
        !outcome.ok)
      std::abort();
    daemonSeconds += elapsed(start);
    if (outcome.cacheHit)
      ++daemonHits;
  }
  if (!client.shutdownServer())
    daemon.requestStop(); // a failed wire shutdown must not hang join()
  serveThread.join();

  std::printf("\ndaemon: one-shot %.4f ms/req -> warm daemon %.4f ms/req "
              "(%.1fx, %zu/%d cache hits; exec+startup excluded from "
              "one-shot)\n",
              1e3 * oneShotSeconds / kRepeats, 1e3 * daemonSeconds / kRepeats,
              daemonSeconds > 0 ? oneShotSeconds / daemonSeconds : 0.0,
              daemonHits, kRepeats);
  if (daemonHits + 1 < kRepeats)
    std::printf("  WARNING: warm daemon recomputed %d requests\n",
                static_cast<int>(kRepeats - 1 - daemonHits));
  bench::printRule();
}

/// Write the bench corpus as .mc files under `dir` and build its
/// manifest; false (with a message on stdout) when the host refuses.
bool writeBenchCorpus(const std::filesystem::path &dir,
                      corpus::Manifest &manifest) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  auto requests = suiteSpecs();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "src_%02zu.mc", i);
    std::ofstream out(dir / name, std::ios::binary);
    out << requests[i].source;
    if (!out) {
      std::printf("manifest phase skipped: cannot write %s\n", name);
      return false;
    }
  }
  std::string error;
  if (!corpus::buildManifest(dir.string(), manifest, error)) {
    std::printf("manifest phase skipped: %s\n", error.c_str());
    return false;
  }
  return true;
}

/// Manifest-batch phase: the same corpus manifest executed by a local
/// BatchAnalyzer vs. shipped to the daemon as one ManifestBatch
/// request. Cold runs use separate empty cache directories and their
/// reports must be byte-identical (the differential invariant
/// tests/fault_injection_test.cpp pins); the warm comparison is the
/// deployment question — a fresh process paying disk hits vs. a warm
/// daemon answering from memory.
void printManifestBatchPhase() {
  bench::printHeader(
      "Manifest batch: one corpus request, local vs. daemon\n"
      "(same manifest and options; cold reports checked byte-identical)");
  const std::filesystem::path corpusDir =
      std::filesystem::temp_directory_path() / "mira_bench_manifest_corpus";
  corpus::Manifest manifest;
  if (!writeBenchCorpus(corpusDir, manifest)) {
    bench::printRule();
    return;
  }
  const std::string manifestBytes = corpus::serializeManifest(manifest);
  const core::MiraOptions options;

  auto now = [] { return std::chrono::steady_clock::now(); };
  auto elapsed = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // One local manifest run through the executor `mira-cli batch
  // --manifest` uses. A fresh analyzer per call stands in for a fresh
  // process.
  auto runLocal = [&](const std::string &cacheDir) {
    driver::BatchOptions batchOptions;
    batchOptions.threads = 2;
    batchOptions.cacheDir = cacheDir;
    driver::BatchAnalyzer analyzer(batchOptions);
    driver::ManifestJob job;
    job.manifest = manifest;
    job.options = options;
    const driver::ManifestOutcome outcome =
        driver::runManifestBatch(analyzer, job);
    if (outcome.status != driver::ManifestOutcome::Status::ok ||
        outcome.report.stats.failures != 0)
      std::abort();
    return driver::serializeBatchReport(outcome.report);
  };

  const std::string localCache =
      (std::filesystem::temp_directory_path() / "mira_bench_manifest_local")
          .string();
  std::filesystem::remove_all(localCache);
  auto start = now();
  const std::string localReport = runLocal(localCache);
  const double localColdSeconds = elapsed(start);

  const std::string daemonCache =
      (std::filesystem::temp_directory_path() / "mira_bench_manifest_daemon")
          .string();
  std::filesystem::remove_all(daemonCache);
  const std::string socketPath =
      (std::filesystem::temp_directory_path() /
       ("mira_bench_manifest_" + std::to_string(::getpid()) + ".sock"))
          .string();
  server::ServerOptions serverOptions;
  serverOptions.socketPath = socketPath;
  serverOptions.threads = 2;
  serverOptions.cacheDir = daemonCache;
  server::AnalysisServer daemon(serverOptions);
  std::string error;
  if (!daemon.start(error)) {
    std::printf("daemon side skipped: %s\n", error.c_str());
    std::filesystem::remove_all(localCache);
    bench::printRule();
    return;
  }
  std::thread serveThread([&daemon] { daemon.serve(); });
  server::Client client;
  if (!client.connect(socketPath)) {
    std::printf("daemon side skipped: %s\n", client.lastError().c_str());
    daemon.requestStop();
    serveThread.join();
    std::filesystem::remove_all(localCache);
    bench::printRule();
    return;
  }

  std::string daemonColdReport;
  start = now();
  if (!client.manifestBatch(manifestBytes, "", "", driver::ShardSpec{},
                            options, nullptr, daemonColdReport)) {
    std::printf("daemon manifest batch failed: %s\n",
                client.lastError().c_str());
    std::abort();
  }
  const double daemonColdSeconds = elapsed(start);

  // Warm gap: a fresh local analyzer pays disk hits per corpus pass;
  // the daemon answers the identical request from its memory cache.
  constexpr int kCorpusRepeats = 5;
  double localWarmSeconds = 0;
  for (int i = 0; i < kCorpusRepeats; ++i) {
    start = now();
    benchmark::DoNotOptimize(runLocal(localCache).size());
    localWarmSeconds += elapsed(start);
  }
  double daemonWarmSeconds = 0;
  std::string daemonWarmReport;
  for (int i = 0; i < kCorpusRepeats; ++i) {
    start = now();
    if (!client.manifestBatch(manifestBytes, "", "", driver::ShardSpec{},
                              options, nullptr, daemonWarmReport))
      std::abort();
    daemonWarmSeconds += elapsed(start);
  }
  if (!client.shutdownServer())
    daemon.requestStop();
  serveThread.join();

  const bool identical = daemonColdReport == localReport;
  std::printf("%zu sources, one request per corpus:\n",
              manifest.entries.size());
  std::printf("  cold: local %.4f s vs daemon %.4f s\n", localColdSeconds,
              daemonColdSeconds);
  std::printf("  warm: fresh-process local (disk hits) %.4f ms vs warm "
              "daemon (memory hits) %.4f ms (%.1fx)\n",
              1e3 * localWarmSeconds / kCorpusRepeats,
              1e3 * daemonWarmSeconds / kCorpusRepeats,
              daemonWarmSeconds > 0 ? localWarmSeconds / daemonWarmSeconds
                                    : 0.0);
  if (std::thread::hardware_concurrency() < 4)
    std::printf("note: <4 hardware threads; cold local and daemon compute "
                "the same work at the same width here\n");
  if (identical)
    std::printf("cold reports: byte-identical (%zu bytes)\n",
                localReport.size());
  else
    std::printf("  WARNING: cold local and daemon reports differ "
                "(%zu vs %zu bytes)\n",
                localReport.size(), daemonColdReport.size());
  std::filesystem::remove_all(corpusDir);
  std::filesystem::remove_all(localCache);
  std::filesystem::remove_all(daemonCache);
  bench::printRule();
}

/// Hash-consing phase: what the expression arena does to the cold
/// compute path that caching cannot hide. Reports the cold batch wall
/// clock alongside the process-wide intern counter deltas for that run
/// (greppable `mira_intern_*` lines — the same names the daemon's
/// metrics render exports), and a directly measured improvement: the
/// cached-key/hash equality the interner provides vs. the recursive
/// string serialization `Expr::equals` used before it.
void printInternPhase() {
  bench::printHeader(
      "Hash-consed expressions: cold-phase cost + intern counters\n"
      "(cache off; counters are process-wide deltas over one batch)");
  auto requests = suiteSpecs();

  const symbolic::InternStats before = symbolic::ExprInterner::globalStats();
  double best = timeBatch(requests, 1);
  for (int repeat = 0; repeat < 2; ++repeat)
    best = std::min(best, timeBatch(requests, 1));
  const symbolic::InternStats after = symbolic::ExprInterner::globalStats();

  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  std::printf("cold batch (1 thread, best of 3): %.4f s for %zu sources\n",
              best, requests.size());
  std::printf("mira_intern_hits %llu\n",
              static_cast<unsigned long long>(hits));
  std::printf("mira_intern_misses %llu\n",
              static_cast<unsigned long long>(misses));
  std::printf("mira_intern_nodes %llu\n",
              static_cast<unsigned long long>(after.nodes));
  if (hits + misses > 0)
    std::printf("intern hit rate: %.1f%% (every hit is one node allocation "
                "+ key build avoided)\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses));

  // The measured improvement: equality on a canonicalization-sized
  // expression, old way (serialize both subtrees to strings, compare)
  // vs. the interner's way (pointer identity / cached hash).
  std::function<std::string(const symbolic::ExprNode &)> legacyKey =
      [&](const symbolic::ExprNode &n) -> std::string {
    std::string s;
    s += std::to_string(static_cast<int>(n.kind));
    s += n.name;
    s += std::to_string(n.value);
    s += '(';
    for (const auto &op : n.operands) {
      s += legacyKey(*op);
      s += ',';
    }
    s += ')';
    return s;
  };
  symbolic::Expr wide;
  for (int i = 0; i < 24; ++i)
    wide += symbolic::Expr::intConst(i % 5 + 1) *
            symbolic::Expr::param("p" + std::to_string(i % 8)) *
            symbolic::Expr::param("q" + std::to_string(i % 3));
  symbolic::Expr same = wide + symbolic::Expr::intConst(0);

  constexpr int kEqualsRepeats = 20000;
  auto now = [] { return std::chrono::steady_clock::now(); };
  auto start = now();
  bool sink = false;
  for (int i = 0; i < kEqualsRepeats; ++i)
    sink ^= legacyKey(wide.node()) == legacyKey(same.node());
  const double legacySeconds =
      std::chrono::duration<double>(now() - start).count();
  start = now();
  for (int i = 0; i < kEqualsRepeats; ++i)
    sink ^= wide.equals(same);
  const double internedSeconds =
      std::chrono::duration<double>(now() - start).count();
  benchmark::DoNotOptimize(sink);
  std::printf("equals on a %zu-term expression, %d reps: string rebuild "
              "%.4f s -> hash-consed %.6f s (%.0fx)\n",
              wide.node().operands.size(), kEqualsRepeats, legacySeconds,
              internedSeconds,
              internedSeconds > 0 ? legacySeconds / internedSeconds : 0.0);
  bench::printRule();
}

std::vector<core::AnalysisSpec> coverageSpecs() {
  std::vector<core::AnalysisSpec> specs = suiteSpecs();
  for (core::AnalysisSpec &spec : specs)
    spec.artifacts = core::kArtifactCoverage | core::kArtifactDiagnostics;
  return specs;
}

/// The coverage-artifact ladder (ISSUE 4 headline): full compute vs.
/// recompile-on-demand vs. cached summary vs. warm daemon.
void printCoveragePhase() {
  bench::printHeader(
      "Coverage artifact ladder: where the answer comes from\n"
      "(same sources; lower rungs skip progressively more pipeline)");
  auto specs = coverageSpecs();
  auto now = [] { return std::chrono::steady_clock::now(); };
  auto elapsed = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Rung 1 — cold full compute: parse -> codegen -> model, per source.
  double coldSeconds = 0;
  {
    driver::BatchOptions options;
    options.threads = 1;
    options.useCache = false;
    driver::BatchAnalyzer analyzer(options);
    auto start = now();
    auto results = analyzer.runArtifacts(specs);
    coldSeconds = elapsed(start);
    for (const auto &artifacts : results)
      if (!artifacts.ok)
        std::abort();
  }

  // Rung 2 — recompile-on-demand: what a warm simulation pays for its
  // program — parse -> codegen, no model stage — plus one AST walk.
  double recompileSeconds = 0;
  {
    auto start = now();
    for (const auto &spec : specs) {
      auto handle = core::ProgramHandle::deferred(spec.source, spec.name,
                                                  spec.options.compile);
      auto program = handle->get();
      if (!program)
        std::abort();
      benchmark::DoNotOptimize(
          sema::computeLoopCoverage(*program->unit).loops);
    }
    recompileSeconds = elapsed(start);
  }

  // Rung 3 — cached summary from a warm disk cache: deserialization
  // only, no compiler at all.
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "mira_bench_coverage")
          .string();
  std::filesystem::remove_all(cacheDir);
  driver::BatchOptions diskOptions;
  diskOptions.threads = 1;
  diskOptions.cacheDir = cacheDir;
  {
    driver::BatchAnalyzer seed(diskOptions);
    seed.runArtifacts(specs); // populate the directory
  }
  double summarySeconds = 0;
  std::size_t summaryHits = 0, summaryRecompiles = 0;
  {
    driver::BatchAnalyzer warm(diskOptions);
    auto start = now();
    auto results = warm.runArtifacts(specs);
    summarySeconds = elapsed(start);
    benchmark::DoNotOptimize(results.size());
    summaryHits = warm.stats().coverageFromCache;
    summaryRecompiles = warm.stats().recompiles;
  }
  std::filesystem::remove_all(cacheDir);

  // Rung 4 — warm daemon over the Unix socket: summary + wire framing.
  double daemonSeconds = -1;
  const std::string socketPath =
      (std::filesystem::temp_directory_path() /
       ("mira_bench_coverage_" + std::to_string(::getpid()) + ".sock"))
          .string();
  server::ServerOptions serverOptions;
  serverOptions.socketPath = socketPath;
  serverOptions.threads = 2;
  server::AnalysisServer daemon(serverOptions);
  std::string error;
  if (daemon.start(error)) {
    std::thread serveThread([&daemon] { daemon.serve(); });
    server::Client client;
    if (client.connect(socketPath)) {
      for (const auto &spec : specs) { // warm the daemon's memory cache
        server::CoverageReply reply;
        if (!client.coverage(spec.name, spec.source, spec.options, reply) ||
            !reply.ok)
          std::abort();
      }
      auto start = now();
      for (const auto &spec : specs) {
        server::CoverageReply reply;
        if (!client.coverage(spec.name, spec.source, spec.options, reply) ||
            !reply.cacheHit)
          std::abort();
      }
      daemonSeconds = elapsed(start);
    }
    if (!client.shutdownServer())
      daemon.requestStop();
    serveThread.join();
  } else {
    std::printf("daemon rung skipped: %s\n", error.c_str());
  }

  const double perSource = 1e3 / static_cast<double>(specs.size());
  std::printf("%zu sources, ms/source:\n", specs.size());
  std::printf("  cold full compute       : %8.4f\n",
              coldSeconds * perSource);
  std::printf("  recompile-on-demand     : %8.4f (%.1fx vs cold)\n",
              recompileSeconds * perSource,
              recompileSeconds > 0 ? coldSeconds / recompileSeconds : 0.0);
  std::printf("  warm cached summary     : %8.4f (%.1fx vs cold, "
              "%zu from summaries, %zu recompiles)\n",
              summarySeconds * perSource,
              summarySeconds > 0 ? coldSeconds / summarySeconds : 0.0,
              summaryHits, summaryRecompiles);
  if (daemonSeconds >= 0)
    std::printf("  warm daemon (wire)      : %8.4f (%.1fx vs cold)\n",
                daemonSeconds * perSource,
                daemonSeconds > 0 ? coldSeconds / daemonSeconds : 0.0);
  if (summaryRecompiles != 0)
    std::printf("  WARNING: warm summary run recompiled %zu sources\n",
                summaryRecompiles);
  bench::printRule();
}

void BM_CoverageWarmDaemon(benchmark::State &state) {
  // Steady-state coverage latency against a warm daemon: one wire
  // round-trip answered from the cached schema-v2 summary — never the
  // compiler (the reply's recompiled flag pins that).
  const std::string socketPath =
      (std::filesystem::temp_directory_path() /
       ("mira_bench_cov_bm_" + std::to_string(::getpid()) + ".sock"))
          .string();
  server::ServerOptions options;
  options.socketPath = socketPath;
  server::AnalysisServer daemon(options);
  std::string error;
  if (!daemon.start(error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::thread serveThread([&daemon] { daemon.serve(); });
  server::Client client;
  server::CoverageReply reply;
  if (!client.connect(socketPath) ||
      !client.coverage("@fig5", workloads::fig5Source(), core::MiraOptions(),
                       reply)) {
    daemon.requestStop();
    serveThread.join();
    state.SkipWithError("daemon warmup failed");
    return;
  }
  for (auto _ : state) {
    if (!client.coverage("@fig5", workloads::fig5Source(),
                         core::MiraOptions(), reply) ||
        reply.recompiled)
      std::abort();
    benchmark::DoNotOptimize(reply.coverage.loops);
  }
  state.SetItemsProcessed(state.iterations());
  if (!client.shutdownServer())
    daemon.requestStop();
  serveThread.join();
}
BENCHMARK(BM_CoverageWarmDaemon)->Unit(benchmark::kMillisecond);

void BM_CoverageRecompileOnDemand(benchmark::State &state) {
  // The recompile-on-demand path in isolation: parse -> sema ->
  // codegen (no model generation) plus one AST walk, per iteration.
  const std::string &source = workloads::fig5Source();
  for (auto _ : state) {
    auto handle = core::ProgramHandle::deferred(source, "@fig5",
                                                core::CompileOptions{});
    auto program = handle->get();
    if (!program)
      std::abort();
    benchmark::DoNotOptimize(sema::computeLoopCoverage(*program->unit).loops);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoverageRecompileOnDemand)->Unit(benchmark::kMillisecond);

void BM_DaemonWarmAnalyze(benchmark::State &state) {
  // Socket round-trip + cache hit: the daemon's steady-state serving
  // latency for one already-hot source.
  const std::string socketPath =
      (std::filesystem::temp_directory_path() /
       ("mira_bench_daemon_bm_" + std::to_string(::getpid()) + ".sock"))
          .string();
  server::ServerOptions options;
  options.socketPath = socketPath;
  server::AnalysisServer daemon(options);
  std::string error;
  if (!daemon.start(error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::thread serveThread([&daemon] { daemon.serve(); });
  server::Client client;
  server::ClientOutcome outcome;
  if (!client.connect(socketPath) ||
      !client.analyze("@fig5", workloads::fig5Source(), core::MiraOptions(),
                      outcome)) {
    daemon.requestStop();
    serveThread.join();
    state.SkipWithError("daemon warmup failed");
    return;
  }
  for (auto _ : state) {
    if (!client.analyze("@fig5", workloads::fig5Source(), core::MiraOptions(),
                        outcome))
      std::abort();
    benchmark::DoNotOptimize(outcome.payload.size());
  }
  state.SetItemsProcessed(state.iterations());
  if (!client.shutdownServer())
    daemon.requestStop();
  serveThread.join();
}
BENCHMARK(BM_DaemonWarmAnalyze)->Unit(benchmark::kMillisecond);

void BM_ManifestBatchWarmDaemon(benchmark::State &state) {
  // Steady-state corpus latency: one ManifestBatch round-trip against a
  // warm daemon — selection planning, a memory hit per entry, and one
  // merged report on the wire. The per-item rate is what a polling CI
  // loop re-running an unchanged corpus pays.
  const std::filesystem::path corpusDir =
      std::filesystem::temp_directory_path() / "mira_bench_manifest_bm";
  corpus::Manifest manifest;
  if (!writeBenchCorpus(corpusDir, manifest)) {
    state.SkipWithError("corpus setup failed");
    return;
  }
  const std::string manifestBytes = corpus::serializeManifest(manifest);
  const std::string socketPath =
      (std::filesystem::temp_directory_path() /
       ("mira_bench_manifest_bm_" + std::to_string(::getpid()) + ".sock"))
          .string();
  server::ServerOptions options;
  options.socketPath = socketPath;
  options.threads = 2;
  server::AnalysisServer daemon(options);
  std::string error;
  if (!daemon.start(error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::thread serveThread([&daemon] { daemon.serve(); });
  server::Client client;
  std::string reportBytes;
  if (!client.connect(socketPath) ||
      !client.manifestBatch(manifestBytes, "", "", driver::ShardSpec{},
                            core::MiraOptions(), nullptr, reportBytes)) {
    daemon.requestStop();
    serveThread.join();
    state.SkipWithError("daemon warmup failed");
    return;
  }
  for (auto _ : state) {
    if (!client.manifestBatch(manifestBytes, "", "", driver::ShardSpec{},
                              core::MiraOptions(), nullptr, reportBytes))
      std::abort();
    benchmark::DoNotOptimize(reportBytes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(manifest.entries.size()));
  if (!client.shutdownServer())
    daemon.requestStop();
  serveThread.join();
  std::filesystem::remove_all(corpusDir);
}
BENCHMARK(BM_ManifestBatchWarmDaemon)->Unit(benchmark::kMillisecond);

void BM_BatchAnalyzeWarmDiskCache(benchmark::State &state) {
  auto requests = suiteSpecs();
  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "mira_bench_disk_cache_bm")
          .string();
  std::filesystem::remove_all(cacheDir);
  driver::BatchOptions options;
  options.threads = 4;
  options.cacheDir = cacheDir;
  {
    driver::BatchAnalyzer seed(options);
    seed.runArtifacts(requests); // populate the directory
  }
  for (auto _ : state) {
    // A fresh analyzer per iteration: every request goes memory-miss ->
    // disk-hit, timing deserialization rather than analysis.
    driver::BatchAnalyzer analyzer(options);
    auto outcomes = analyzer.runArtifacts(requests);
    benchmark::DoNotOptimize(outcomes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
  std::filesystem::remove_all(cacheDir);
}
BENCHMARK(BM_BatchAnalyzeWarmDiskCache)->Unit(benchmark::kMillisecond);

void BM_BatchAnalyzeSerial(benchmark::State &state) {
  auto requests = suiteSpecs();
  for (auto _ : state)
    benchmark::DoNotOptimize(timeBatch(requests, 1));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_BatchAnalyzeSerial)->Unit(benchmark::kMillisecond);

void BM_BatchAnalyzeParallel(benchmark::State &state) {
  auto requests = suiteSpecs();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(timeBatch(requests, threads));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_BatchAnalyzeParallel)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_ExprCanonicalizeLikeTerms(benchmark::State &state) {
  // The canonicalizing Expr::add hot path: many mergeable terms, the
  // merge keyed on interned node identity.
  using symbolic::Expr;
  for (auto _ : state) {
    std::vector<Expr> terms;
    terms.reserve(96);
    for (int i = 0; i < 96; ++i)
      terms.push_back(Expr::intConst(i % 7 + 1) *
                      Expr::param("p" + std::to_string(i % 8)));
    benchmark::DoNotOptimize(&Expr::add(std::move(terms)).node());
  }
  state.SetItemsProcessed(state.iterations() * 96);
}
BENCHMARK(BM_ExprCanonicalizeLikeTerms)->Unit(benchmark::kMicrosecond);

void BM_ExprEqualsInterned(benchmark::State &state) {
  // Pointer-identity equality on hash-consed expressions — the
  // comparison canonicalization and like-term merging do constantly.
  using symbolic::Expr;
  Expr a, b;
  for (int i = 0; i < 32; ++i) {
    a += Expr::param("n" + std::to_string(i % 6)) * Expr::intConst(i + 1);
    b += Expr::param("n" + std::to_string(i % 6)) * Expr::intConst(i + 1);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(a.equals(b));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExprEqualsInterned)->Unit(benchmark::kNanosecond);

void BM_BatchAnalyzeWarmCache(benchmark::State &state) {
  auto requests = suiteSpecs();
  driver::BatchAnalyzer analyzer(driver::BatchOptions{4, true});
  analyzer.runArtifacts(requests); // populate
  for (auto _ : state) {
    auto outcomes = analyzer.runArtifacts(requests);
    benchmark::DoNotOptimize(outcomes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_BatchAnalyzeWarmCache)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printSpeedupTable();
  printManifestBatchPhase();
  printCoveragePhase();
  printInternPhase();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
