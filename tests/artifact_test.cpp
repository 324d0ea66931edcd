// Artifact-API tests: the AnalysisSpec/Artifacts surface, the
// ProgramHandle recompile-on-demand path, per-request fulfillment
// planning across memory/disk layers, and which disk entries the
// analyzer serves.
//
// Headline invariants pinned here:
//   * every ArtifactMask combination yields exactly the requested
//     artifacts, one-shot and batched, with byte-identical models and
//     identical coverage/simulation counters through every layer;
//   * for every mask, an analyzer that keeps nothing serves what a
//     caching one serves, the model stage's warnings included;
//   * warm-disk coverage is answered from the serialized summary with
//     zero recompiles and zero model generation;
//   * warm-disk simulation recompiles parse->codegen exactly once per
//     (source, options) and never regenerates the model;
//   * a schema-v1 entry, or an ok entry without a coverage summary, is
//     recomputed and overwritten — never served.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "core/artifacts.h"
#include "driver/batch.h"
#include "model/python_emitter.h"
#include "model/serialize.h"
#include "server/protocol.h"
#include "support/binary_io.h"
#include "support/cache_store.h"
#include "support/hash.h"
#include "workloads/workloads.h"

namespace mira {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string &tag) {
    path = fs::temp_directory_path() /
           ("mira_artifact_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

core::AnalysisSpec fig5Spec(core::ArtifactMask mask) {
  core::AnalysisSpec spec;
  spec.name = "@fig5";
  spec.source = workloads::fig5Source();
  spec.artifacts = mask;
  if (mask & core::kArtifactSimulation) {
    spec.simulation.function = "fig5_main";
    spec.simulation.args = {sim::Value::ofInt(64)};
  }
  return spec;
}

/// A source whose one diagnostic, a warning, comes from the model stage.
core::AnalysisSpec ratioSpec(core::ArtifactMask mask) {
  core::AnalysisSpec spec;
  spec.name = "ratio.mc";
  spec.source = "double f(int n) {\n"
                "  double acc = 0.0;\n"
                "  for (int i = 0; i < n; i++) {\n"
                "    #pragma @Annotation {ratio:abc}\n"
                "    if (acc < 3.0) {\n"
                "      acc = acc + 1.0;\n"
                "    }\n"
                "  }\n"
                "  return acc;\n"
                "}\n";
  spec.artifacts = mask;
  if (mask & core::kArtifactSimulation) {
    spec.simulation.function = "f";
    spec.simulation.args = {sim::Value::ofInt(10)};
  }
  return spec;
}

/// Canonical bytes of a model, for equality assertions across paths.
std::string modelBytes(const model::PerformanceModel &model) {
  std::string out;
  model::serializeModel(model, out);
  return out;
}

/// Canonical bytes of a SimResult (the wire encoding), for equality
/// assertions across serving paths.
std::string simBytes(const sim::SimResult &result) {
  std::string out;
  server::putSimResult(out, result);
  return out;
}

/// Write a raw cache entry under `key` with an arbitrary schema
/// version — how the tests below plant entries of another schema.
void writeRawEntry(const fs::path &dir, std::uint64_t key,
                   std::uint32_t version, const std::string &payload) {
  std::string bytes;
  bio::putU32(bytes, 0x4172694d); // "MirA", the store's entry magic
  bio::putU32(bytes, version);
  bio::putU64(bytes, payload.size());
  bio::putU64(bytes, fnv1a(payload));
  bytes += payload;
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.mira",
                static_cast<unsigned long long>(key));
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --------------------------------------------------------- one-shot API

TEST(ArtifactApi, MaskMatrixYieldsExactlyTheRequestedArtifacts) {
  for (core::ArtifactMask mask = 1; mask <= core::kArtifactAll; ++mask) {
    core::Artifacts artifacts = core::analyze(fig5Spec(mask));
    ASSERT_TRUE(artifacts.ok) << "mask " << unsigned(mask) << ": "
                              << artifacts.diagnostics;
    EXPECT_EQ(artifacts.requested, mask);
    EXPECT_EQ(artifacts.model != nullptr,
              (mask & core::kArtifactModel) != 0);
    EXPECT_EQ(artifacts.coverage.has_value(),
              (mask & core::kArtifactCoverage) != 0);
    EXPECT_EQ(artifacts.simulation != nullptr,
              (mask & core::kArtifactSimulation) != 0);
    // The live program handle is free to attach, so one-shot analysis
    // always carries one; it is never deferred on this path.
    ASSERT_NE(artifacts.program, nullptr);
    EXPECT_FALSE(artifacts.program->isDeferred());
    EXPECT_TRUE(artifacts.program->materialized());
    EXPECT_FALSE(artifacts.recompiled);
    if (artifacts.simulation)
      EXPECT_TRUE(artifacts.simulation->ok) << artifacts.simulation->error;
  }
}

TEST(ArtifactApi, SkippingTheModelStillCompilesAndCovers) {
  core::Artifacts artifacts =
      core::analyze(fig5Spec(core::kArtifactCoverage));
  ASSERT_TRUE(artifacts.ok);
  EXPECT_EQ(artifacts.model, nullptr);
  ASSERT_TRUE(artifacts.coverage.has_value());
  EXPECT_GT(artifacts.coverage->loops, 0u);
  EXPECT_GT(artifacts.coverage->statements, 0u);
}

TEST(ArtifactApi, FailedSourceReportsDiagnosticsThroughEveryMask) {
  core::AnalysisSpec spec;
  spec.name = "bad.mc";
  spec.source = "int broken(";
  spec.artifacts = core::kArtifactAll;
  spec.simulation.function = "broken";
  core::Artifacts artifacts = core::analyze(spec);
  EXPECT_FALSE(artifacts.ok);
  EXPECT_FALSE(artifacts.diagnostics.empty());
  EXPECT_EQ(artifacts.model, nullptr);
  EXPECT_EQ(artifacts.program, nullptr);
  EXPECT_FALSE(artifacts.coverage.has_value());
  EXPECT_EQ(artifacts.simulation, nullptr);
}

// ------------------------------------------------------- ProgramHandle

TEST(ProgramHandleTest, DeferredHandleCompilesOnceAndMemoizes) {
  auto handle = core::ProgramHandle::deferred(
      workloads::fig5Source(), "@fig5", core::CompileOptions{});
  EXPECT_TRUE(handle->isDeferred());
  EXPECT_FALSE(handle->materialized());
  EXPECT_FALSE(handle->recompiled());

  bool compiledNow = false;
  auto program = handle->get(&compiledNow);
  ASSERT_NE(program, nullptr);
  EXPECT_TRUE(compiledNow);
  EXPECT_TRUE(handle->materialized());
  EXPECT_TRUE(handle->recompiled());

  auto again = handle->get(&compiledNow);
  EXPECT_EQ(again, program); // memoized, same object
  EXPECT_FALSE(compiledNow); // only the first call compiles
}

TEST(ProgramHandleTest, RecompiledProgramSimulatesLikeTheOriginal) {
  // The recompile skips model generation but must reproduce the same
  // binary semantics: simulation counters agree with a live compile.
  core::Artifacts live = core::analyze(fig5Spec(core::kArtifactSimulation));
  ASSERT_TRUE(live.ok);

  auto handle = core::ProgramHandle::deferred(
      workloads::fig5Source(), "@fig5", core::CompileOptions{});
  auto program = handle->get();
  ASSERT_NE(program, nullptr);
  sim::SimResult recompiled =
      core::simulate(*program, "fig5_main", {sim::Value::ofInt(64)});
  ASSERT_TRUE(recompiled.ok) << recompiled.error;
  EXPECT_EQ(simBytes(recompiled), simBytes(*live.simulation));
}

// ------------------------------------------------- batch fulfillment

TEST(ArtifactBatch, BatchedArtifactsMatchOneShotByteForByte) {
  core::Artifacts oneShot = core::analyze(fig5Spec(core::kArtifactAll));
  ASSERT_TRUE(oneShot.ok);

  driver::BatchOptions options;
  options.threads = 2;
  driver::BatchAnalyzer analyzer(options);
  auto results = analyzer.runArtifacts({fig5Spec(core::kArtifactAll)});
  ASSERT_EQ(results.size(), 1u);
  const core::Artifacts &batched = results[0];
  ASSERT_TRUE(batched.ok) << batched.diagnostics;

  EXPECT_EQ(model::emitPython(*batched.model),
            model::emitPython(*oneShot.model));
  EXPECT_EQ(batched.diagnostics, oneShot.diagnostics);
  ASSERT_TRUE(batched.coverage.has_value());
  EXPECT_EQ(batched.coverage->loops, oneShot.coverage->loops);
  EXPECT_EQ(batched.coverage->statements, oneShot.coverage->statements);
  EXPECT_EQ(batched.coverage->inLoopStatements,
            oneShot.coverage->inLoopStatements);
  EXPECT_EQ(simBytes(*batched.simulation), simBytes(*oneShot.simulation));

  const driver::BatchStats &stats = analyzer.stats();
  EXPECT_EQ(stats.modelArtifacts, 1u);
  EXPECT_EQ(stats.programArtifacts, 1u);
  EXPECT_EQ(stats.coverageArtifacts, 1u);
  EXPECT_EQ(stats.simulationArtifacts, 1u);
  EXPECT_EQ(stats.recompiles, 0u); // computed live, nothing deferred
}

TEST(ArtifactBatch, MaskDoesNotPerturbTheCacheKey) {
  for (core::ArtifactMask mask = 1; mask <= core::kArtifactAll; ++mask)
    EXPECT_EQ(driver::requestKey(fig5Spec(mask)),
              driver::requestKey(fig5Spec(core::kArtifactDefault)));
}

TEST(ArtifactBatch, DifferentMasksShareOneCacheEntry) {
  driver::BatchOptions options;
  options.threads = 2;
  driver::BatchAnalyzer analyzer(options);
  auto first = analyzer.runArtifacts({fig5Spec(core::kArtifactModel)});
  ASSERT_TRUE(first[0].ok);
  EXPECT_FALSE(first[0].cacheHit);

  // A coverage-only request for the same (source, options) must reuse
  // the entry the model request populated — full compute fills every
  // layer exactly so later masks are free.
  auto second = analyzer.runArtifacts({fig5Spec(core::kArtifactCoverage)});
  ASSERT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].cacheHit);
  ASSERT_TRUE(second[0].coverage.has_value());
  EXPECT_EQ(analyzer.cacheSize(), 1u);
  EXPECT_EQ(analyzer.stats().recompiles, 0u);
}

TEST(ArtifactBatch, ACachedValueKeepsNoCompiledProgram) {
  // Only the request that computed a value holds its live program. Once
  // that request's artifacts die the program is gone, while the analyzer
  // still caches the value and simulates from the value's image.
  driver::BatchOptions options;
  options.threads = 1;
  driver::BatchAnalyzer analyzer(options);
  std::weak_ptr<const core::CompiledProgram> program;
  {
    const core::Artifacts computed =
        analyzer.analyzeArtifacts(fig5Spec(core::kArtifactProgram));
    ASSERT_TRUE(computed.ok && computed.program) << computed.diagnostics;
    EXPECT_FALSE(computed.cacheHit);
    EXPECT_FALSE(computed.program->isDeferred());
    program = computed.program->get();
    EXPECT_FALSE(program.expired());
  }
  EXPECT_TRUE(program.expired());
  EXPECT_EQ(analyzer.cacheSize(), 1u);

  const core::Artifacts oneShot =
      core::analyze(fig5Spec(core::kArtifactSimulation));
  const auto results =
      analyzer.runArtifacts({fig5Spec(core::kArtifactSimulation)});
  ASSERT_TRUE(results[0].ok && results[0].simulation);
  EXPECT_TRUE(results[0].cacheHit);
  EXPECT_EQ(simBytes(*results[0].simulation), simBytes(*oneShot.simulation));
  EXPECT_EQ(analyzer.stats().recompiles, 0u);
}

TEST(ArtifactBatch, ConcurrentSimulationsShareOneImage) {
  // Eight threads simulate one memory-cached value, each with its own
  // arguments and half of them fast-forwarded: every result matches a
  // one-shot simulation byte for byte, and nothing recompiles.
  driver::BatchOptions options;
  options.threads = 1;
  driver::BatchAnalyzer analyzer(options);
  ASSERT_TRUE(analyzer.analyzeArtifacts(fig5Spec(core::kArtifactModel)).ok);
  const core::Artifacts live = core::analyze(fig5Spec(core::kArtifactProgram));
  ASSERT_TRUE(live.ok);
  constexpr int kThreads = 8;
  auto specFor = [](int t) {
    core::AnalysisSpec spec = fig5Spec(core::kArtifactSimulation);
    spec.simulation.args = {sim::Value::ofInt(16 + 8 * t)};
    spec.simulation.options.fastForward = t % 2 == 1;
    return spec;
  };
  std::vector<core::Artifacts> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { results[t] = analyzer.analyzeArtifacts(specFor(t)); });
  for (std::thread &thread : threads)
    thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok && results[t].simulation) << t;
    EXPECT_TRUE(results[t].cacheHit) << t;
    const core::SimulationArgs &sim = specFor(t).simulation;
    EXPECT_EQ(simBytes(*results[t].simulation),
              simBytes(core::simulate(*live.program->get(), sim.function,
                                      sim.args, sim.options)))
        << t;
  }
  EXPECT_EQ(driver::tallyBatchStats(results).recompiles, 0u);
}

TEST(ArtifactBatch, ProgramMemoryHitsShareOneRecompile) {
  // A kArtifactProgram memory hit gets the value's recompile-on-demand
  // handle; concurrent callers compile once between them.
  driver::BatchOptions options;
  options.threads = 1;
  driver::BatchAnalyzer analyzer(options);
  ASSERT_TRUE(analyzer.analyzeArtifacts(fig5Spec(core::kArtifactModel)).ok);
  constexpr int kThreads = 8;
  std::vector<core::Artifacts> hits(kThreads);
  std::vector<std::shared_ptr<const core::CompiledProgram>> programs(kThreads);
  std::vector<int> compiled(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      hits[t] = analyzer.analyzeArtifacts(fig5Spec(core::kArtifactProgram));
      bool compiledNow = false;
      if (hits[t].program)
        programs[t] = hits[t].program->get(&compiledNow);
      compiled[t] = compiledNow ? 1 : 0;
    });
  for (std::thread &thread : threads)
    thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(hits[t].cacheHit) << t;
    ASSERT_TRUE(hits[t].program && programs[t]) << t;
    EXPECT_TRUE(hits[t].program->isDeferred()) << t;
    EXPECT_EQ(programs[t], programs[0]) << t;
  }
  EXPECT_EQ(std::count(compiled.begin(), compiled.end(), 1), 1);
}

TEST(ArtifactBatch, ModelOnlyRequestsAttachCoverageOpportunistically) {
  // The serving layers forward whatever coverage the cache has into
  // wire payloads, so fulfillment attaches it when it costs nothing.
  driver::BatchAnalyzer analyzer(driver::BatchOptions{1, true});
  auto results = analyzer.runArtifacts({fig5Spec(core::kArtifactModel)});
  ASSERT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].coverage.has_value());
}

TEST(ArtifactBatch, NoCacheAnalyzerServesWhatACachedOneServes) {
  // With caching off nothing is kept, yet a miss computes the same value:
  // for every mask, a no-cache analyzer matches a caching one in outcome,
  // diagnostics, coverage, simulation bytes and, when asked, model bytes.
  // The ratio source's warning comes from the model stage alone, which
  // one-shot analysis runs only when the mask asks for it.
  const std::string warning = "invalid ratio annotation 'abc'";
  ASSERT_NE(core::analyze(ratioSpec(core::kArtifactModel))
                .diagnostics.find(warning),
            std::string::npos);
  ASSERT_EQ(core::analyze(ratioSpec(core::kArtifactCoverage))
                .diagnostics.find(warning),
            std::string::npos);
  for (auto makeSpec : {&fig5Spec, &ratioSpec}) {
    driver::BatchOptions options;
    options.threads = 1;
    driver::BatchAnalyzer cached(options);
    options.useCache = false;
    driver::BatchAnalyzer uncached(options);
    for (core::ArtifactMask mask = 1; mask <= core::kArtifactAll; ++mask) {
      const core::AnalysisSpec spec = makeSpec(mask);
      SCOPED_TRACE(spec.name + " mask " + std::to_string(mask));
      const core::Artifacts want = cached.analyzeArtifacts(spec);
      const core::Artifacts got = uncached.analyzeArtifacts(spec);
      ASSERT_TRUE(want.ok) << want.diagnostics;
      EXPECT_EQ(got.ok, want.ok);
      EXPECT_EQ(got.diagnostics, want.diagnostics);
      ASSERT_TRUE(got.coverage.has_value());
      EXPECT_EQ(got.coverage->loops, want.coverage->loops);
      EXPECT_EQ(got.coverage->statements, want.coverage->statements);
      EXPECT_EQ(got.coverage->inLoopStatements,
                want.coverage->inLoopStatements);
      ASSERT_EQ(got.simulation != nullptr, want.simulation != nullptr);
      if (want.simulation)
        EXPECT_EQ(simBytes(*got.simulation), simBytes(*want.simulation));
      ASSERT_EQ(got.model != nullptr, want.model != nullptr);
      if (want.model)
        EXPECT_EQ(modelBytes(*got.model), modelBytes(*want.model));
    }
  }
}

// ------------------------------------------------- warm-disk planning

TEST(ArtifactBatch, WarmDiskCoverageComesFromSummariesWithZeroRecompiles) {
  TempDir dir("coverage");
  driver::BatchOptions options;
  options.threads = 2;
  options.cacheDir = dir.str();

  std::vector<core::AnalysisSpec> specs = {
      fig5Spec(core::kArtifactCoverage)};
  core::AnalysisSpec dgemm;
  dgemm.name = "@dgemm";
  dgemm.source = workloads::dgemmSource();
  dgemm.artifacts = core::kArtifactCoverage | core::kArtifactDiagnostics;
  specs.push_back(dgemm);

  sema::LoopCoverage coldFig5;
  {
    driver::BatchAnalyzer cold(options);
    auto results = cold.runArtifacts(specs);
    ASSERT_TRUE(results[0].ok && results[1].ok);
    coldFig5 = *results[0].coverage;
    EXPECT_EQ(cold.stats().diskStores, 2u);
  }
  {
    // A fresh analyzer (a fresh process, in effect) must answer both
    // summaries from disk without compiling anything.
    driver::BatchAnalyzer warm(options);
    auto results = warm.runArtifacts(specs);
    ASSERT_TRUE(results[0].ok && results[1].ok);
    EXPECT_TRUE(results[0].cacheHit);
    EXPECT_EQ(results[0].coverage->loops, coldFig5.loops);
    EXPECT_EQ(results[0].coverage->statements, coldFig5.statements);
    EXPECT_EQ(results[0].coverage->inLoopStatements,
              coldFig5.inLoopStatements);
    const driver::BatchStats &stats = warm.stats();
    EXPECT_EQ(stats.diskHits, 2u);
    EXPECT_EQ(stats.coverageFromCache, 2u);
    EXPECT_EQ(stats.recompiles, 0u);
    EXPECT_EQ(stats.cacheMisses, 0u);
  }
}

TEST(ArtifactBatch, WarmDiskSimulationRecompilesOnceNeverRemodels) {
  TempDir dir("simulate");
  driver::BatchOptions options;
  options.threads = 2;
  options.cacheDir = dir.str();

  std::string coldModel, coldSim;
  {
    driver::BatchAnalyzer cold(options);
    auto results = cold.runArtifacts(
        {fig5Spec(core::kArtifactModel | core::kArtifactSimulation)});
    ASSERT_TRUE(results[0].ok);
    coldModel = model::emitPython(*results[0].model);
    coldSim = simBytes(*results[0].simulation);
  }
  {
    driver::BatchAnalyzer warm(options);
    // Two identical simulation requests: the deferred handle must
    // compile once and be shared; the model must come from disk bytes.
    auto spec = fig5Spec(core::kArtifactModel | core::kArtifactSimulation);
    auto results = warm.runArtifacts({spec, spec});
    ASSERT_TRUE(results[0].ok && results[1].ok);
    EXPECT_TRUE(results[0].cacheHit);
    EXPECT_TRUE(results[1].cacheHit);
    EXPECT_EQ(model::emitPython(*results[0].model), coldModel);
    EXPECT_EQ(simBytes(*results[0].simulation), coldSim);
    EXPECT_EQ(simBytes(*results[1].simulation), coldSim);
    const driver::BatchStats &stats = warm.stats();
    EXPECT_EQ(stats.diskHits, 1u);
    EXPECT_EQ(stats.recompiles, 1u); // one parse->codegen re-run, shared
    EXPECT_EQ(stats.simulationArtifacts, 2u);
    // Exactly one of the two requests performed the recompile.
    EXPECT_NE(results[0].recompiled, results[1].recompiled);
    // The image keeps the program's simulation plan, not the program.
    auto program = warm.runArtifacts({fig5Spec(core::kArtifactProgram)});
    ASSERT_TRUE(program[0].program);
    EXPECT_FALSE(program[0].program->materialized());
  }
}

TEST(ArtifactBatch, WarmDiskProgramHandleStaysLazyUntilUsed) {
  TempDir dir("lazy");
  driver::BatchOptions options;
  options.threads = 1;
  options.cacheDir = dir.str();
  {
    driver::BatchAnalyzer cold(options);
    cold.runArtifacts({fig5Spec(core::kArtifactModel)});
  }
  driver::BatchAnalyzer warm(options);
  auto results = warm.runArtifacts({fig5Spec(core::kArtifactProgram)});
  ASSERT_TRUE(results[0].ok);
  ASSERT_NE(results[0].program, nullptr);
  EXPECT_TRUE(results[0].program->isDeferred());
  // Handing out the handle costs nothing; only get() compiles.
  EXPECT_FALSE(results[0].program->materialized());
  EXPECT_EQ(warm.stats().recompiles, 0u);
  ASSERT_NE(results[0].program->get(), nullptr);
  EXPECT_TRUE(results[0].program->recompiled());
}

// -------------------------------------------- unusable disk entries

TEST(ArtifactBatch, SchemaV1EntryIsRecomputedAndOverwritten) {
  TempDir dir("v1entry");
  core::Artifacts reference = core::analyze(fig5Spec(core::kArtifactDefault));
  ASSERT_TRUE(reference.ok);
  // A schema-v1 entry as the removed v1 codec laid it out:
  // [ok u8][producerName str][diagnostics str][model bytes].
  std::string v1Payload;
  bio::putU8(v1Payload, 1);
  bio::putString(v1Payload, "@fig5");
  bio::putString(v1Payload, reference.diagnostics);
  model::serializeModel(*reference.model, v1Payload);
  const std::uint64_t key = driver::requestKey(fig5Spec(core::kArtifactModel));
  writeRawEntry(dir.path, key, 1, v1Payload);

  driver::BatchOptions options;
  options.threads = 1;
  options.cacheDir = dir.str();
  {
    // Out-of-range schema: one disk miss and one compute, not corruption.
    driver::BatchAnalyzer cold(options);
    auto results = cold.runArtifacts({fig5Spec(core::kArtifactModel)});
    ASSERT_TRUE(results[0].ok);
    EXPECT_FALSE(results[0].cacheHit);
    EXPECT_EQ(model::emitPython(*results[0].model),
              model::emitPython(*reference.model));
    EXPECT_EQ(cold.stats().diskMisses, 1u);
    EXPECT_EQ(cold.stats().cacheMisses, 1u);
    EXPECT_EQ(cold.stats().diskStores, 1u);
    const CacheStoreStats &store = cold.diskCache()->stats();
    EXPECT_EQ(store.hits, 0u);
    EXPECT_EQ(store.misses, 1u);
    EXPECT_EQ(store.corrupt, 0u);
  }
  // The store replaced the v1 file with a current-schema entry.
  CacheStore store(dir.str());
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_TRUE(store.peek(key).has_value());

  driver::BatchAnalyzer warm(options);
  auto results = warm.runArtifacts({fig5Spec(core::kArtifactModel)});
  ASSERT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].cacheHit);
  EXPECT_EQ(warm.stats().diskHits, 1u);
  EXPECT_EQ(warm.stats().cacheMisses, 0u);
}

TEST(ArtifactBatch, OkEntryWithoutCoverageIsRecomputedNotRecompiled) {
  TempDir dir("nocoverage");
  core::Artifacts reference = core::analyze(
      fig5Spec(core::kArtifactModel | core::kArtifactCoverage));
  ASSERT_TRUE(reference.ok);
  const std::uint64_t key = driver::requestKey(fig5Spec(core::kArtifactModel));
  {
    // A valid current-schema entry whose ok payload has hasCoverage = 0.
    CacheStore store(dir.str());
    ASSERT_TRUE(store.store(key, driver::serializeArtifactPayload(
                                     reference.model.get(), nullptr,
                                     reference.diagnostics, "@fig5")));
  }

  driver::BatchOptions options;
  options.threads = 1;
  options.cacheDir = dir.str();
  driver::BatchAnalyzer analyzer(options);
  auto results = analyzer.runArtifacts({fig5Spec(core::kArtifactCoverage)});
  ASSERT_TRUE(results[0].ok);
  ASSERT_TRUE(results[0].coverage.has_value());
  EXPECT_EQ(results[0].coverage->loops, reference.coverage->loops);
  EXPECT_FALSE(results[0].cacheHit);
  EXPECT_FALSE(results[0].recompiled);
  EXPECT_EQ(analyzer.stats().diskMisses, 1u);
  EXPECT_EQ(analyzer.stats().diskStores, 1u);

  // The rewritten entry carries the summary (hasCoverage = 1).
  CacheStore store(dir.str());
  auto payload = store.peek(key);
  ASSERT_TRUE(payload.has_value());
  std::shared_ptr<const core::AnalysisResult> analysis;
  std::optional<sema::LoopCoverage> coverage;
  std::string diagnostics, producer;
  ASSERT_TRUE(driver::deserializeArtifactPayload(*payload, analysis, coverage,
                                                 diagnostics, producer));
  ASSERT_NE(analysis, nullptr);
  ASSERT_TRUE(coverage.has_value());
  EXPECT_EQ(coverage->statements, reference.coverage->statements);
}

// ------------------------------------------------------ payload codec

TEST(ArtifactPayload, RoundTripsModelCoverageAndFailures) {
  core::Artifacts reference = core::analyze(
      fig5Spec(core::kArtifactModel | core::kArtifactCoverage));
  ASSERT_TRUE(reference.ok);

  const std::string payload = driver::serializeArtifactPayload(
      reference.model.get(), &*reference.coverage, reference.diagnostics,
      "@fig5");
  std::shared_ptr<const core::AnalysisResult> analysis;
  std::optional<sema::LoopCoverage> coverage;
  std::string diagnostics, producer;
  ASSERT_TRUE(driver::deserializeArtifactPayload(payload, analysis, coverage,
                                                 diagnostics, producer));
  ASSERT_NE(analysis, nullptr);
  EXPECT_EQ(model::emitPython(analysis->model),
            model::emitPython(*reference.model));
  ASSERT_TRUE(coverage.has_value());
  EXPECT_EQ(coverage->loops, reference.coverage->loops);
  EXPECT_EQ(producer, "@fig5");

  // Without a summary: the codec still reads the flag at 0 (the
  // analyzer then recomputes the entry).
  const std::string noCoverage = driver::serializeArtifactPayload(
      reference.model.get(), nullptr, reference.diagnostics, "@fig5");
  ASSERT_TRUE(driver::deserializeArtifactPayload(noCoverage, analysis,
                                                 coverage, diagnostics,
                                                 producer));
  EXPECT_FALSE(coverage.has_value());

  // Failure payloads carry no coverage and no model.
  const std::string failure = driver::serializeArtifactPayload(
      nullptr, nullptr, "bad.mc:1:1: error: nope\n", "bad.mc");
  ASSERT_TRUE(driver::deserializeArtifactPayload(failure, analysis, coverage,
                                                 diagnostics, producer));
  EXPECT_EQ(analysis, nullptr);
  EXPECT_FALSE(coverage.has_value());

  // Trailing garbage is corruption, not data.
  std::string tampered = payload + "x";
  EXPECT_FALSE(driver::deserializeArtifactPayload(tampered, analysis,
                                                  coverage, diagnostics,
                                                  producer));
}

TEST(ArtifactPayload, SimResultEncodingRoundTripsEveryField) {
  core::Artifacts artifacts =
      core::analyze(fig5Spec(core::kArtifactSimulation));
  ASSERT_TRUE(artifacts.ok);
  const sim::SimResult &reference = *artifacts.simulation;
  ASSERT_TRUE(reference.ok);

  std::string bytes = simBytes(reference);
  bio::Reader r{bytes, 0};
  sim::SimResult decoded;
  ASSERT_TRUE(server::readSimResult(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(simBytes(decoded), bytes); // canonical: re-encode identically
  EXPECT_EQ(decoded.total.totalInstructions,
            reference.total.totalInstructions);
  EXPECT_EQ(decoded.total.fpInstructions, reference.total.fpInstructions);
  EXPECT_EQ(decoded.functions.size(), reference.functions.size());
}

} // namespace
} // namespace mira
