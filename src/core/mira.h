// Mira public API: options and the shared result/simulation types.
//
// The entry point is the artifact-oriented v2 API in core/artifacts.h —
// build an AnalysisSpec naming the artifacts you need and call
// core::analyze (or, with caching, drive it through
// driver::BatchAnalyzer):
//
//   core::AnalysisSpec spec;
//   spec.name = "app.mc";
//   spec.source = source;
//   spec.artifacts = core::kArtifactModel | core::kArtifactCoverage;
//   core::Artifacts arts = core::analyze(spec);
//   auto counts = arts.model->evaluate("cg_solve", {{"n", 1000}});
//
// One call runs the full pipeline: parse -> sema -> compile
// (optimize/vectorize) -> object emission -> disassembly -> bridge ->
// metric generation -> model. simulate runs the same binary's semantics
// and returns the dynamic ground-truth counters (the TAU/PAPI
// substitute).
//
// Thread-safety contract: core::analyze keeps no shared mutable state —
// every request owns its DiagnosticEngine and all pipeline-internal
// statics are immutable lookup tables — so concurrent calls on different
// (spec, diags) tuples are safe. driver::BatchAnalyzer relies on this to
// fan requests across a thread pool; any future global cache or counter
// added to the pipeline must be synchronized or per-request.
//
// Within one request the pipeline is serial: requests are the only unit
// of parallelism, so every expression of a model is built on the thread
// that runs core::analyze, in that request's own ExprInterner.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "arch/arch.h"
#include "core/compiler.h"
#include "metrics/metric_generator.h"
#include "model/model.h"
#include "model/python_emitter.h"
#include "sim/simulator.h"

namespace mira::core {

struct MiraOptions {
  CompileOptions compile;
  metrics::MetricOptions metrics;
};

/// The model-affecting options as one byte, written once for every
/// place options are keyed or travel: the cache key hashes it
/// (driver::requestKeyFromContentHash), analysis requests carry it on
/// the wire (docs/PROTOCOL.md), and `cache prune` enumerates it. Equal
/// bytes and equal sources mean equal cache keys.
enum OptionFlags : std::uint8_t {
  kOptionOptimize = 1 << 0,
  kOptionVectorize = 1 << 1,
  kOptionAssumeBranchesTaken = 1 << 2,
};

/// Pack the model-affecting subset of MiraOptions into OptionFlags bits.
std::uint8_t packOptions(const MiraOptions &options);

/// Expand OptionFlags into a MiraOptions (all other fields default).
MiraOptions unpackOptions(std::uint8_t flags);

/// A model as the payload codec (driver::deserializeArtifactPayload)
/// restores it. Compiled programs never travel with it: the artifact
/// API's ProgramHandle (core/artifacts.h) recompiles on demand.
struct AnalysisResult {
  model::PerformanceModel model;
};

/// Dynamic ground truth on the same compiled program.
sim::SimResult simulate(const CompiledProgram &program,
                        const std::string &function,
                        const std::vector<sim::Value> &args,
                        const sim::SimOptions &options = {});

/// Relative error |a - b| / b (paper's validation metric), 0 when b == 0.
double relativeError(double modeled, double measured);

} // namespace mira::core
