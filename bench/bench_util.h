// Shared helpers for the reproduction benches: workload analysis caching,
// paper-style table printing, and error formatting. Each bench binary
// regenerates one table or figure of the paper (see DESIGN.md experiment
// index) and then runs its google-benchmark timings, if it registers any.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "core/mira.h"
#include "support/string_utils.h"
#include "workloads/workloads.h"

namespace mira::bench {

/// Analyze-once helper for the table printers: the model plus the live
/// program it came from. Guarded by a mutex so multi-threaded
/// google-benchmark registrations can share it.
inline const core::Artifacts &analyzeCached(const std::string &source,
                                            const std::string &name) {
  static std::mutex mutex;
  static std::map<std::string, core::Artifacts> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(name);
  if (it == cache.end()) {
    DiagnosticEngine diags;
    core::AnalysisSpec spec;
    spec.name = name;
    spec.source = source;
    spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                     core::kArtifactProgram;
    core::Artifacts artifacts = core::analyze(spec, diags);
    if (!artifacts.ok) {
      std::fprintf(stderr, "analysis of %s failed:\n%s\n", name.c_str(),
                   diags.str().c_str());
      std::abort();
    }
    it = cache.emplace(name, std::move(artifacts)).first;
  }
  return it->second;
}

inline sim::SimResult simulateFF(const core::Artifacts &analysis,
                                 const std::string &fn,
                                 const std::vector<sim::Value> &args) {
  sim::SimOptions options;
  options.fastForward = true;
  auto r = core::simulate(*analysis.program->get(), fn, args, options);
  if (!r.ok) {
    std::fprintf(stderr, "simulation of %s failed: %s\n", fn.c_str(),
                 r.error.c_str());
    std::abort();
  }
  return r;
}

inline void printRule(std::size_t width = 78) {
  std::puts(std::string(width, '-').c_str());
}

inline void printHeader(const std::string &title) {
  printRule();
  std::puts(title.c_str());
  printRule();
}

/// "8.239E7"-style count formatting as in the paper's tables.
inline std::string fmtCount(double v) { return formatCount(v); }
inline std::string fmtErr(double modeled, double measured) {
  return formatPercent(core::relativeError(modeled, measured));
}

} // namespace mira::bench
