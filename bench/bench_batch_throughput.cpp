// Manifest batches: the same corpus manifest executed locally vs. shipped
// to the serving daemon as one ManifestBatch request.
//
// The corpus is the ten Table I coverage kernels plus the fig-series
// workloads, written as .mc files. The phase runs it cold through the
// local executor (`mira-cli batch --manifest`) and through a daemon,
// each on an empty cache directory, and compares the two reports byte
// for byte: its verdict line is `cold reports: byte-identical (N bytes)`
// and the binary exits 1 when they differ. It then prints the warm gap,
// a fresh process paying disk hits vs. a warm daemon answering from
// memory; BM_ManifestBatchWarmDaemon times that warm round trip. The two
// BM_Expr* registrations time the symbolic core's canonicalizing add and
// interned equality.
//
// perfbench (perfbench/run.py) measures the other batch and daemon paths
// (cold and warm throughput, thread scaling, analyze and coverage hits,
// recompiles, intern counts); no perfbench workload sends ManifestBatch.
#include "bench_util.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "corpus/manifest.h"
#include "driver/batch.h"
#include "server/client.h"
#include "server/server.h"
#include "symbolic/expr.h"
#include "workloads/coverage_suite.h"

namespace {

using namespace mira;

/// Write the bench corpus as .mc files under `dir` and build its
/// manifest; false (with a message on stdout) when the host refuses.
bool writeBenchCorpus(const std::filesystem::path &dir,
                      corpus::Manifest &manifest) {
  std::vector<std::string> sources;
  for (const auto &kernel : workloads::coverageSuite())
    sources.push_back(kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    sources.push_back(*workload.source);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "src_%02zu.mc", i);
    std::ofstream out(dir / name, std::ios::binary);
    out << sources[i];
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
/// daemon answering from memory. True only when the cold reports were
/// compared and are identical.
bool printManifestBatchPhase() {
  bench::printHeader(
      "Manifest batch: one corpus request, local vs. daemon\n"
      "(same manifest and options; cold reports checked byte-identical)");
  const std::filesystem::path corpusDir =
      std::filesystem::temp_directory_path() / "mira_bench_manifest_corpus";
  corpus::Manifest manifest;
  if (!writeBenchCorpus(corpusDir, manifest)) {
    bench::printRule();
    return false;
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
    return false;
  }
  std::thread serveThread([&daemon] { daemon.serve(); });
  server::Client client;
  if (!client.connect(socketPath)) {
    std::printf("daemon side skipped: %s\n", client.lastError().c_str());
    daemon.requestStop();
    serveThread.join();
    std::filesystem::remove_all(localCache);
    bench::printRule();
    return false;
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
    daemon.requestStop(); // a failed wire shutdown must not hang join()
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
    std::printf("cold reports: DIFFER (local %zu vs daemon %zu bytes)\n",
                localReport.size(), daemonColdReport.size());
  std::filesystem::remove_all(corpusDir);
  std::filesystem::remove_all(localCache);
  std::filesystem::remove_all(daemonCache);
  bench::printRule();
  return identical;
}

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

} // namespace

int main(int argc, char **argv) {
  const bool identical = printManifestBatchPhase();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
