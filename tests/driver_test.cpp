// Batch-driver subsystem tests: FNV-1a hashing, the thread pool, cache
// keying, and the headline invariants — batch results are byte-identical
// to serial runs regardless of thread count, and the analysis cache
// de-duplicates repeated (source, options) pairs.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>

#include "driver/batch.h"
#include "model/python_emitter.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace mira::driver {
namespace {

/// One-shot model analysis through the artifact API (null on failure).
std::shared_ptr<const model::PerformanceModel>
analyzeModel(const std::string &source, const std::string &name,
             const core::MiraOptions &options, DiagnosticEngine &diags) {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  spec.options = options;
  spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics;
  core::Artifacts artifacts = core::analyze(spec, diags);
  return artifacts.ok ? artifacts.model : nullptr;
}

// ------------------------------------------------------------------ hash

TEST(Hash, Fnv1aReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(std::string()), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(std::string("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(std::string("foobar")), 0x85944171f73967e8ull);
}

TEST(Hash, CombineIsOrderSensitive) {
  std::uint64_t a = fnv1a(std::string("alpha"));
  std::uint64_t b = fnv1a(std::string("beta"));
  EXPECT_NE(hashCombine(a, b), hashCombine(b, a));
  EXPECT_NE(hashCombine(a, b), a);
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i)
      pool.submit([&counter] { ++counter; });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 100);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&counter] { ++counter; });
  } // ~ThreadPool must run everything before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, TasksMaySubmitFollowUpTasks) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  pool.submit([&] {
    ++counter;
    pool.submit([&] { ++counter; });
  });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 1u);
}

// ------------------------------------------------------------- cache key

core::AnalysisSpec makeSpec(const std::string &source,
                            const std::string &name = "test.mc") {
  core::AnalysisSpec spec;
  spec.name = name;
  spec.source = source;
  return spec;
}

TEST(RequestKey, DependsOnSourceAndOptionsButNotName) {
  core::AnalysisSpec a = makeSpec("int f() { return 1; }", "a.mc");
  core::AnalysisSpec b = makeSpec("int f() { return 1; }", "b.mc");
  EXPECT_EQ(requestKey(a), requestKey(b)); // name is display-only

  core::AnalysisSpec other = makeSpec("int f() { return 2; }");
  EXPECT_NE(requestKey(a), requestKey(other));

  core::AnalysisSpec noOpt = a;
  noOpt.options.compile.compiler.optimize = false;
  core::AnalysisSpec noVec = a;
  noVec.options.compile.compiler.vectorize = false;
  core::AnalysisSpec noBranch = a;
  noBranch.options.metrics.assumeBranchesTaken = false;
  std::set<std::uint64_t> keys{requestKey(a), requestKey(noOpt),
                               requestKey(noVec), requestKey(noBranch)};
  EXPECT_EQ(keys.size(), 4u); // every option perturbs the key
}

TEST(RequestKey, IsStableAcrossRuns) {
  // The key is the on-disk cache file name: it must be a pure function
  // of (source, options), reproducible in any process on any day. A
  // golden value pins that; if this test breaks, kCacheSchemaVersion
  // must be bumped because every existing cache is invalidated.
  core::AnalysisSpec spec = makeSpec("int f() { return 1; }");
  EXPECT_EQ(requestKey(spec), 0x03406ef14ab139eeull);
}

// ------------------------------------------------------------ batch runs

std::vector<core::AnalysisSpec> coverageSpecs() {
  std::vector<core::AnalysisSpec> specs;
  for (const auto &kernel : workloads::coverageSuite())
    specs.push_back(makeSpec(kernel.source, kernel.name));
  return specs;
}

/// Canonical byte rendering of a batch: names, status, diagnostics, and
/// the emitted Python of every model, in input order.
std::string fingerprint(const std::vector<core::Artifacts> &results) {
  std::string bytes;
  for (const auto &artifacts : results) {
    bytes += artifacts.name;
    bytes += artifacts.ok ? "|ok|" : "|fail|";
    bytes += artifacts.diagnostics;
    if (artifacts.model)
      bytes += model::emitPython(*artifacts.model);
    bytes += '\n';
  }
  return bytes;
}

TEST(BatchAnalyzerTest, ParallelResultsAreByteIdenticalToSerial) {
  auto specs = coverageSpecs();
  BatchOptions serialOptions;
  serialOptions.threads = 1;
  BatchAnalyzer serial(serialOptions);
  std::string reference = fingerprint(serial.runArtifacts(specs));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(serial.stats().failures, 0u);

  for (std::size_t threads : {2u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    BatchAnalyzer analyzer(options);
    EXPECT_EQ(fingerprint(analyzer.runArtifacts(specs)), reference)
        << "non-deterministic batch at " << threads << " threads";
  }
}

TEST(BatchAnalyzerTest, OutcomesKeepInputOrder) {
  std::vector<core::AnalysisSpec> specs;
  specs.push_back(makeSpec(workloads::dgemmSource(), "first"));
  specs.push_back(makeSpec("int broken(", "second"));
  specs.push_back(makeSpec(workloads::fig5Source(), "third"));

  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.runArtifacts(specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].name, "first");
  EXPECT_EQ(outcomes[1].name, "second");
  EXPECT_EQ(outcomes[2].name, "third");
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_EQ(analyzer.stats().failures, 1u);
}

TEST(BatchAnalyzerTest, MalformedSourceYieldsDiagnosticsNotCrash) {
  BatchAnalyzer analyzer(BatchOptions{2, true});
  auto outcomes = analyzer.runArtifacts({makeSpec("void f( {", "bad.mc")});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].model, nullptr);
  EXPECT_FALSE(outcomes[0].diagnostics.empty());
}

TEST(BatchAnalyzerTest, CachedDiagnosticsNameTheirProducer) {
  // Identical broken sources under different names share one cache
  // entry; the hit's diagnostics must say which request produced them
  // instead of silently citing the wrong file.
  BatchAnalyzer analyzer(BatchOptions{1, true});
  auto outcomes = analyzer.runArtifacts(
      {makeSpec("int broken(", "a.mc"), makeSpec("int broken(", "b.mc")});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_TRUE(outcomes[1].cacheHit);
  EXPECT_NE(outcomes[1].diagnostics.find("identical source 'a.mc'"),
            std::string::npos)
      << outcomes[1].diagnostics;
}

TEST(BatchAnalyzerTest, DuplicateRequestsShareOneAnalysis) {
  core::AnalysisSpec spec = makeSpec(workloads::fig5Source(), "fig5");
  std::vector<core::AnalysisSpec> specs{spec, spec, spec};

  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.runArtifacts(specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(analyzer.stats().cacheMisses, 1u);
  EXPECT_EQ(analyzer.stats().cacheHits, 2u);
  EXPECT_EQ(analyzer.cacheSize(), 1u);
  // All three positions share the one cached model object.
  EXPECT_EQ(outcomes[0].model, outcomes[1].model);
  EXPECT_EQ(outcomes[1].model, outcomes[2].model);
}

TEST(BatchAnalyzerTest, CachePersistsAcrossRuns) {
  auto specs = coverageSpecs();
  BatchOptions options;
  options.threads = 2;
  BatchAnalyzer analyzer(options);

  analyzer.runArtifacts(specs);
  EXPECT_EQ(analyzer.stats().cacheMisses, specs.size());
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);

  analyzer.runArtifacts(specs); // identical (source, options) pairs: all hits
  EXPECT_EQ(analyzer.stats().cacheMisses, 0u);
  EXPECT_EQ(analyzer.stats().cacheHits, specs.size());

  analyzer.clearCache();
  analyzer.runArtifacts(specs);
  EXPECT_EQ(analyzer.stats().cacheMisses, specs.size());
}

TEST(BatchAnalyzerTest, DifferentOptionsDoNotShareCacheEntries) {
  core::AnalysisSpec optimized = makeSpec(workloads::fig5Source());
  core::AnalysisSpec unoptimized = optimized;
  unoptimized.options.compile.compiler.optimize = false;

  BatchAnalyzer analyzer(BatchOptions{2, true});
  auto outcomes = analyzer.runArtifacts({optimized, unoptimized});
  EXPECT_EQ(analyzer.stats().cacheMisses, 2u);
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_NE(outcomes[0].model, outcomes[1].model);
}

TEST(BatchAnalyzerTest, CacheCanBeDisabled) {
  core::AnalysisSpec spec = makeSpec(workloads::fig5Source());
  BatchOptions options;
  options.threads = 2;
  options.useCache = false;
  BatchAnalyzer analyzer(options);
  auto outcomes = analyzer.runArtifacts({spec, spec});
  // Nothing is kept, so both requests run the pipeline: two misses.
  EXPECT_EQ(analyzer.stats().cacheHits, 0u);
  EXPECT_EQ(analyzer.stats().cacheMisses, 2u);
  EXPECT_EQ(analyzer.cacheSize(), 0u);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_NE(outcomes[0].model, outcomes[1].model); // recomputed
}

TEST(BatchAnalyzerTest, CachedModelStillEvaluates) {
  // A cached model is shared const; evaluating it must work and agree
  // with a fresh serial analysis (paper FPI on the Fig. 5 model).
  BatchAnalyzer analyzer(BatchOptions{4, true});
  auto first = analyzer.runArtifacts({makeSpec(workloads::fig5Source())});
  auto second = analyzer.runArtifacts({makeSpec(workloads::fig5Source())});
  ASSERT_TRUE(first[0].ok);
  ASSERT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].cacheHit);

  DiagnosticEngine diags;
  core::MiraOptions options;
  auto serial = analyzeModel(workloads::fig5Source(), "fig5.mc", options,
                             diags);
  ASSERT_TRUE(serial != nullptr) << diags.str();

  model::Env env{{"total", 8}, {"y", 16}};
  auto cached = second[0].model->evaluate("fig5_main", env);
  auto fresh = serial->evaluate("fig5_main", env);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(cached->fpInstructions, fresh->fpInstructions);
  EXPECT_EQ(cached->totalInstructions, fresh->totalInstructions);
}

/// Threads of this process right now. A thread another test joined may
/// linger here for a moment, so this can only overcount.
std::size_t liveThreads() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto &task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++threads;
  return threads;
}

TEST(BatchAnalyzerTest, AnAnalyzerServingOneSpecAtATimeStartsNoThread) {
  // A repeated `mira-cli analyze --cache-dir` builds an analyzer for one
  // request: its batch pool must not start (and join) a worker.
  const std::size_t before = liveThreads();
  BatchOptions options;
  options.threads = 4;
  BatchAnalyzer analyzer(options);
  EXPECT_TRUE(analyzer.analyzeArtifacts(makeSpec(workloads::fig5Source())).ok);
  EXPECT_TRUE(analyzer.analyzeArtifacts(makeSpec(workloads::fig5Source()))
                  .cacheHit);
  EXPECT_LE(liveThreads(), before);
  EXPECT_EQ(analyzer.threadCount(), 4u);
}

TEST(BatchAnalyzerTest, ALocalBatchWithoutADiskLevelEncodesNoPayload) {
  BatchAnalyzer analyzer(BatchOptions{2, true});
  const std::vector<core::Artifacts> results = analyzer.runArtifacts(
      {makeSpec(workloads::fig5Source()), makeSpec(workloads::dgemmSource()),
       makeSpec(workloads::fig5Source(), "again.mc")});
  for (const core::Artifacts &artifacts : results)
    EXPECT_TRUE(artifacts.ok) << artifacts.diagnostics;
  EXPECT_EQ(
      analyzer.metrics().counter("analyzer_model_encodes_total").value(), 0u);
}

} // namespace
} // namespace mira::driver
