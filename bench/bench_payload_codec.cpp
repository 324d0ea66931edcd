// Payload codec: what every cache hit pays to turn an artifact payload
// back into a model (the client's decode of each daemon reply, each disk
// hit of `analyze --cache-dir` or a warm batch) and what writing one
// costs.
//
// Analyzes the 15 embedded sources (the Table I suite and the fig-series
// kernels) once and encodes each value's artifact payload as the disk
// cache and the wire do. Then, pinned to one processor, it times
// driver::deserializeArtifactPayload and driver::serializeArtifactPayload
// per payload, best of kRounds rounds of kCalls timed calls each (the
// decoded model is freed outside the timed region), and counts the heap
// allocations one call makes through a counting operator new that only
// this binary installs. Every decoded payload must re-encode to its own
// bytes: the table ends with the verdict line
// `payload identity: 15/15 payloads re-encode byte for byte`, and the
// binary exits 1 when any payload does not. The google-benchmark
// registrations time one pass over all 15 payloads.
#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "driver/batch.h"
#include "workloads/coverage_suite.h"

namespace {
thread_local std::uint64_t tAllocations = 0;
} // namespace

// Counting replacements of the global allocation functions; the array,
// nothrow and sized forms route through these two in libstdc++.
void *operator new(std::size_t size) {
  ++tAllocations;
  if (void *p = std::malloc(size ? size : 1))
    return p;
  throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mira;

constexpr int kRounds = 300;
constexpr int kCalls = 5;

struct Payload {
  std::string name;
  std::string bytes;
  std::shared_ptr<const model::PerformanceModel> model;
  sema::LoopCoverage coverage;
  std::string diagnostics;
};

/// One artifact payload per embedded source, as the analyzer caches it.
const std::vector<Payload> &payloads() {
  static const std::vector<Payload> all = [] {
    std::vector<std::pair<std::string, const std::string *>> sources;
    for (const auto &kernel : workloads::coverageSuite())
      sources.emplace_back(kernel.name, &kernel.source);
    for (const auto &workload : workloads::figSeriesWorkloads())
      sources.emplace_back(workload.name, workload.source);
    std::vector<Payload> out;
    for (const auto &[name, source] : sources) {
      core::AnalysisSpec spec;
      spec.name = name;
      spec.source = *source;
      spec.artifacts = core::kArtifactModel | core::kArtifactDiagnostics |
                       core::kArtifactCoverage;
      core::Artifacts artifacts = core::analyze(spec);
      if (!artifacts.ok || !artifacts.model || !artifacts.coverage) {
        std::fprintf(stderr, "analysis of %s failed:\n%s\n", name.c_str(),
                     artifacts.diagnostics.c_str());
        std::exit(1);
      }
      Payload payload;
      payload.name = name;
      payload.model = artifacts.model;
      payload.coverage = *artifacts.coverage;
      payload.diagnostics = artifacts.diagnostics;
      payload.bytes = driver::serializeArtifactPayload(
          payload.model.get(), &payload.coverage, payload.diagnostics, name);
      out.push_back(std::move(payload));
    }
    return out;
  }();
  return all;
}

/// The decoded parts of one payload.
struct Decoded {
  std::shared_ptr<const core::AnalysisResult> analysis;
  std::optional<sema::LoopCoverage> coverage;
  std::string diagnostics;
  std::string producer;

  bool from(const std::string &bytes) {
    return driver::deserializeArtifactPayload(bytes, analysis, coverage,
                                              diagnostics, producer);
  }
  std::string encode() const {
    return driver::serializeArtifactPayload(
        analysis ? &analysis->model : nullptr,
        coverage ? &*coverage : nullptr, diagnostics, producer);
  }
};

std::string encodePayload(const Payload &payload) {
  return driver::serializeArtifactPayload(payload.model.get(),
                                          &payload.coverage,
                                          payload.diagnostics, payload.name);
}

double microsBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Mean microseconds of kCalls timed calls of `call`; `after` runs
/// outside the timed region after each call.
template <typename Call, typename After>
double meanMicros(Call call, After after) {
  double total = 0;
  for (int i = 0; i < kCalls; ++i) {
    const auto start = std::chrono::steady_clock::now();
    call();
    total += microsBetween(start, std::chrono::steady_clock::now());
    after();
  }
  return total / kCalls;
}

/// Pin this thread to the processor it is running on, as the benchmark
/// pins its daemon. False when the kernel refuses.
bool pinToOneProcessor() {
  const int cpu = sched_getcpu();
  if (cpu < 0)
    return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Prints the per-payload table and the identity verdict; false when a
/// payload fails to decode or re-encodes to other bytes.
bool printCodecTable() {
  const std::vector<Payload> &all = payloads();
  const bool pinned = pinToOneProcessor();
  struct Row {
    std::uint64_t decodeAllocs = 0;
    std::uint64_t encodeAllocs = 0;
    double decodeUs = std::numeric_limits<double>::max();
    double encodeUs = std::numeric_limits<double>::max();
  };
  std::vector<Row> rows(all.size());
  std::size_t identical = 0;
  for (std::size_t p = 0; p < all.size(); ++p) {
    Decoded decoded;
    std::uint64_t before = tAllocations;
    const bool ok = decoded.from(all[p].bytes);
    rows[p].decodeAllocs = tAllocations - before;
    if (ok && decoded.encode() == all[p].bytes)
      ++identical;
    else
      std::printf("%s: %s\n", all[p].name.c_str(),
                  ok ? "re-encodes to different bytes" : "does not decode");
    before = tAllocations;
    const std::string encoded = encodePayload(all[p]);
    rows[p].encodeAllocs = tAllocations - before;
    benchmark::DoNotOptimize(encoded);
  }
  // Rounds outermost, so a burst of noise costs one round of every
  // payload rather than every round of one.
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t p = 0; p < all.size(); ++p) {
      Decoded decoded;
      rows[p].decodeUs = std::min(
          rows[p].decodeUs,
          meanMicros(
              [&] { benchmark::DoNotOptimize(decoded.from(all[p].bytes)); },
              [&] { decoded = Decoded(); }));
      std::string sink;
      rows[p].encodeUs = std::min(
          rows[p].encodeUs, meanMicros([&] { sink = encodePayload(all[p]); },
                                       [&] { std::string().swap(sink); }));
    }
  }

  bench::printHeader(
      "Payload codec: best-of-" + std::to_string(kRounds) +
      " decode/encode per artifact payload, allocations per call\n"
      "(" + std::string(pinned ? "pinned to one processor"
                               : "NOT pinned: sched_setaffinity refused") +
      ")");
  std::printf("%-22s %7s %10s %8s %10s %8s\n", "payload", "bytes",
              "decode us", "allocs", "encode us", "allocs");
  bench::printRule();
  Row sum{0, 0, 0, 0};
  for (std::size_t p = 0; p < all.size(); ++p) {
    const Row &row = rows[p];
    std::printf("%-22s %7zu %10.2f %8llu %10.2f %8llu\n",
                all[p].name.c_str(), all[p].bytes.size(), row.decodeUs,
                static_cast<unsigned long long>(row.decodeAllocs),
                row.encodeUs,
                static_cast<unsigned long long>(row.encodeAllocs));
    sum.decodeUs += row.decodeUs;
    sum.encodeUs += row.encodeUs;
    sum.decodeAllocs += row.decodeAllocs;
    sum.encodeAllocs += row.encodeAllocs;
  }
  const double n = static_cast<double>(all.size());
  bench::printRule();
  std::printf("%-22s %7s %10.2f %8.1f %10.2f %8.1f\n", "mean", "",
              sum.decodeUs / n, static_cast<double>(sum.decodeAllocs) / n,
              sum.encodeUs / n, static_cast<double>(sum.encodeAllocs) / n);
  bench::printRule();
  std::printf("payload identity: %zu/%zu payloads re-encode byte for byte\n",
              identical, all.size());
  return identical == all.size();
}

void BM_PayloadDecode(benchmark::State &state) {
  const std::vector<Payload> &all = payloads();
  for (auto _ : state)
    for (const Payload &payload : all) {
      Decoded decoded;
      benchmark::DoNotOptimize(decoded.from(payload.bytes));
    }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(all.size()));
}
BENCHMARK(BM_PayloadDecode);

void BM_PayloadEncode(benchmark::State &state) {
  const std::vector<Payload> &all = payloads();
  for (auto _ : state)
    for (const Payload &payload : all) {
      std::string bytes = encodePayload(payload);
      benchmark::DoNotOptimize(bytes);
    }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(all.size()));
}
BENCHMARK(BM_PayloadEncode);

} // namespace

int main(int argc, char **argv) {
  const bool identical = printCodecTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
