// mira-cli: command-line front door to the analysis pipeline.
//
//   mira-cli analyze <file.mc | @workload> [--no-optimize] [--no-vectorize]
//            [--emit-python] [--model-threads N] [--cache-dir DIR]
//       Run the full pipeline on one source, print a model summary.
//
//   mira-cli batch <files/@workloads...> [--threads N] [--no-cache]
//            [--compare-serial] [--model-threads N]
//            [--cache-dir DIR] [--cache-limit BYTES]
//            [--manifest FILE [--since OLD] [--shard I/N] [--root DIR]]
//            [--report FILE]
//       Fan many sources across the thread pool; per-source status table,
//       cache statistics, and (with --compare-serial) the wall-clock
//       speedup against a 1-thread run. With --cache-dir, results persist
//       on disk and a rerun over an unchanged corpus recomputes nothing.
//       With --manifest the request list comes from a corpus manifest
//       instead of the command line: --since OLD analyzes only entries
//       added or changed since an older manifest, and --shard I/N keeps
//       only this process's deterministic share of the keys so N
//       processes over one --cache-dir behave like one warm batch.
//       --report writes a deterministic per-entry report for
//       `manifest merge`.
//
//   mira-cli manifest <build|diff|merge> ...
//       build <dir> --out FILE [--ext .mc]...  walk a workload tree into
//           a content-addressed manifest (docs/MANIFESTS.md);
//       diff OLD NEW  report added/changed/removed entries (exit 0 when
//           identical, 1 when they differ, 2 on trouble);
//       merge --out FILE <reports...>  fold per-shard batch reports into
//           the single report a 1-process run would have written.
//
//   mira-cli coverage [--threads N] [--compare-serial] [--cache-dir DIR]
//            [--via-daemon --socket PATH]
//       Drive the ten Table I kernels plus the fig-series workloads
//       through the artifact engine; print loop-coverage numbers next to
//       the paper's. With --cache-dir a warm run answers entirely from
//       the cached coverage summaries (zero recompiles, shown in the
//       stats line); --via-daemon asks a running daemon instead.
//
//   mira-cli simulate <file.mc|@workload> --function NAME [--sim-arg V]...
//            [--fast-forward] [--max-instructions N] [--cache-dir DIR]
//            [--via-daemon --socket PATH]
//       Run the dynamic simulator (the TAU/PAPI stand-in) on one source.
//       With a warm cache or daemon the model is never regenerated: the
//       binary comes back through a recompile-on-demand handle
//       (parse->codegen only), flagged in the output.
//
//   mira-cli cache <stats|clear|prune> --cache-dir DIR
//            [--manifest FILE]...
//       Inspect or empty a persistent analysis cache directory. stats
//       breaks bytes down per artifact (model vs coverage vs
//       diagnostics); prune removes entries no given manifest's sources
//       can produce (union over manifests and all option-flag combos).
//
//   mira-cli serve [--socket PATH] [--listen HOST:PORT] [--secret S]
//            [--threads N] [--model-threads N]
//            [--cache-dir DIR] [--cache-limit BYTES] [--max-inflight N]
//            [--drain-timeout SECONDS] [--metrics-file PATH]
//       Long-lived analysis daemon on a Unix-domain socket and/or a TCP
//       endpoint (--listen, port 0 = kernel-assigned, printed in the
//       readiness line): the in-memory cache stays hot across requests,
//       so repeat analyses cost one socket round-trip instead of a
//       process start plus a cold pipeline. --secret demands a
//       shared-secret Hello handshake before any request is served (a
//       stray port scan triggers no compute). Connections are pipelined
//       (replies in request order); --max-inflight bounds concurrent
//       analyses (excess gets a Busy reply, not an unbounded queue);
//       --metrics-file keeps a Prometheus-style dump fresh on disk.
//       Stops on SIGINT/SIGTERM or a client shutdown, draining
//       in-flight work for up to --drain-timeout seconds.
//
//   mira-cli client <analyze|batch|coverage|simulate|manifest-diff|
//            cache-stats|metrics|ping|shutdown>
//            (--socket PATH | --connect HOST:PORT) [sources...]
//            [--secret S] [--connect-timeout SECONDS]
//            [--no-optimize] [--no-vectorize]
//            [--emit-python] [--busy-retries N]
//       Talk to a running daemon over the wire protocol
//       (docs/PROTOCOL.md). Busy refusals are retried with the daemon's
//       backoff hint up to --busy-retries times.
//       `client batch --manifest FILE [--since OLD] [--shard I/N]
//       [--root DIR] [--report FILE] [--progress]` executes a whole
//       corpus on the daemon: report and cache directory come out
//       byte-identical to the local `batch --manifest` run, and
//       --progress streams per-chunk progress lines to stderr.
//       Failure diagnostics are uniform: one `mira-cli client: ...`
//       line on stderr, exit 3 when no daemon answered the socket,
//       exit 4 when the connection died mid-conversation, exit 1 when
//       the daemon or the analysis failed.
//
//   mira-cli coordinate --manifest FILE --workers host:port[,...]
//            [--shard-count N] [--since OLD] [--root DIR] [--report FILE]
//            [--lease-timeout SECONDS] [--connect-timeout SECONDS]
//            [--secret S] [--metrics-file PATH] [--progress]
//       Drive a corpus manifest across a fleet of TCP worker daemons
//       (docs/FLEET.md): shards are handed out as epoch-stamped leases
//       over the ManifestBatch request, progress frames double as
//       heartbeats, a dead or stalled worker's lease is re-issued under
//       a bumped epoch (stale replies are fenced), and the per-shard
//       reports merge into bytes identical to a 1-process local `batch
//       --manifest` run. Exit codes follow the client contract: 0 ok,
//       1 daemon/analysis failure, 3 no worker reachable, 4 the fleet
//       died mid-run.
//
// '@name' pulls an embedded workload (stream, dgemm, minife, fig5,
// listings) instead of reading a file. See docs/CLI.md for a full tour,
// docs/CACHING.md for the on-disk format, and docs/SERVING.md for the
// daemon operator guide.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "corpus/manifest.h"
#include "driver/batch.h"
#include "fleet/coordinator.h"
#include "model/python_emitter.h"
#include "support/binary_io.h"
#include "server/client.h"
#include "server/server.h"
#include "support/socket.h"
#include "support/cache_store.h"
#include "support/string_utils.h"
#include "sema/ast_stats.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace {

using namespace mira;

int usage(const char *argv0) {
  std::fprintf(
      stderr,
      "usage: %s <analyze|batch|coverage|simulate|manifest|cache|serve|"
      "client|coordinate> [args]\n"
      "  analyze <file.mc|@workload> [--no-optimize] [--no-vectorize]\n"
      "          [--emit-python] [--model-threads N] [--cache-dir DIR]\n"
      "  batch <files/@workloads...> [--threads N] [--no-cache]\n"
      "          [--compare-serial] [--model-threads N]\n"
      "          [--cache-dir DIR] [--cache-limit BYTES]\n"
      "          [--manifest FILE [--since OLD] [--shard I/N] [--root DIR]]\n"
      "          [--report FILE]\n"
      "  coverage [--threads N] [--compare-serial] [--cache-dir DIR]\n"
      "          [--via-daemon --socket PATH]\n"
      "  simulate <file.mc|@workload> --function NAME [--sim-arg V]...\n"
      "          [--fast-forward] [--max-instructions N] [--cache-dir DIR]\n"
      "          [--via-daemon --socket PATH]\n"
      "  manifest build <dir> --out FILE [--ext .mc]...\n"
      "  manifest diff <old.manifest> <new.manifest>\n"
      "  manifest merge --out FILE <reports...>\n"
      "  cache <stats|clear|prune> --cache-dir DIR\n"
      "          [--manifest FILE]...\n"
      "  serve [--socket PATH] [--listen HOST:PORT] [--secret S]\n"
      "          [--threads N] [--model-threads N]\n"
      "          [--cache-dir DIR] [--cache-limit BYTES] [--max-inflight N]\n"
      "          [--drain-timeout SECONDS] [--metrics-file PATH]\n"
      "  client <analyze|batch|coverage|simulate|manifest-diff|cache-stats|\n"
      "          metrics|ping|shutdown> (--socket PATH | --connect HOST:PORT)\n"
      "          [sources...] [--secret S] [--connect-timeout SECONDS]\n"
      "          [--no-optimize] [--no-vectorize] [--emit-python]\n"
      "          [--busy-retries N]\n"
      "          [--function NAME] [--sim-arg V] [--fast-forward]\n"
      "  client batch --manifest FILE [--since OLD] [--shard I/N]\n"
      "          [--root DIR] [--report FILE] [--progress] --socket PATH\n"
      "  coordinate --manifest FILE --workers host:port[,host:port...]\n"
      "          [--shard-count N] [--since OLD] [--root DIR] [--report FILE]\n"
      "          [--lease-timeout SECONDS] [--connect-timeout SECONDS]\n"
      "          [--secret S] [--metrics-file PATH] [--progress]\n"
      "          [--no-optimize] [--no-vectorize]\n"
      "workloads: @stream @dgemm @minife @fig5 @listings\n"
      "--cache-limit accepts plain bytes or a K/M/G suffix (e.g. 64M)\n"
      "--sim-arg parses integers (8) and doubles (2.5) positionally\n"
      "--shard I/N is 1-based: processes 1/N .. N/N partition a manifest\n",
      argv0);
  return 2;
}

/// Sentinel a command returns to exit with status 2 ("trouble", the
/// diff/cmp convention) *without* the usage dump main() prints for
/// ordinary argument errors — the command already printed a specific
/// message.
constexpr int kExitTrouble = -3;

const std::string *embeddedWorkload(const std::string &name) {
  for (const auto &workload : workloads::figSeriesWorkloads())
    if (workload.name == name)
      return workload.source;
  return nullptr;
}

/// Resolve a CLI source argument: '@name' -> embedded workload, anything
/// else -> file contents, into `spec`'s name and source. Returns false
/// (with a message) on failure.
bool loadSource(const std::string &arg, core::AnalysisSpec &spec) {
  if (!arg.empty() && arg[0] == '@') {
    const std::string *source = embeddedWorkload(arg.substr(1));
    if (!source) {
      std::fprintf(stderr, "unknown workload '%s'\n", arg.c_str());
      return false;
    }
    spec.name = arg;
    spec.source = *source;
    return true;
  }
  std::ifstream in(arg);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", arg.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  spec.name = arg;
  spec.source = buffer.str();
  return true;
}

void printModelSummary(const model::PerformanceModel &model) {
  std::printf("%-24s | %6s | %6s | %5s | parameters\n", "function", "counts",
              "calls", "exact");
  for (const auto &fn : model.functions) {
    std::string params;
    for (const auto &p : fn.parameters()) {
      if (!params.empty())
        params += ", ";
      params += p;
    }
    std::printf("%-24s | %6zu | %6zu | %5s | %s\n", fn.sourceName.c_str(),
                fn.counts.size(), fn.calls.size(), fn.exact ? "yes" : "no",
                params.c_str());
  }
}

struct CommonFlags {
  std::size_t threads = ThreadPool::defaultThreadCount();
  bool useCache = true;
  bool compareSerial = false;
  bool optimize = true;
  bool vectorize = true;
  bool emitPython = false;
  std::size_t modelThreads = 1;
  std::string cacheDir;
  std::uint64_t cacheBytesLimit = 0;
  std::string socketPath;
  bool viaDaemon = false;       ///< serve coverage/simulate over the wire
  std::size_t maxInflight = 0;  ///< serve --max-inflight (0 = unlimited)
  double drainTimeoutSeconds = 5.0; ///< serve --drain-timeout
  std::string metricsFile;      ///< serve --metrics-file
  std::size_t busyRetries = 8;  ///< client --busy-retries
  core::SimulationArgs sim;     ///< --function / --sim-arg / --fast-forward
  std::string outPath;          ///< `manifest build/merge --out`
  std::vector<std::string> extensions; ///< `manifest build --ext` (repeatable)
  /// batch --manifest (exactly one) / cache prune --manifest
  /// (repeatable: the keep-set is the union).
  std::vector<std::string> manifestPaths;
  std::string sincePath;        ///< batch --since (older manifest)
  std::string rootOverride;     ///< batch --root (resolve base override)
  std::string reportPath;       ///< batch --report (deterministic report)
  driver::ShardSpec shard;      ///< batch --shard I/N (default: unsharded)
  bool shardGiven = false;      ///< --shard appeared (even as 1/1)
  bool progress = false;        ///< client batch --progress (stream frames)
  std::string listenSpec;       ///< serve --listen HOST:PORT (TCP endpoint)
  std::string connectSpec;      ///< client --connect HOST:PORT (TCP daemon)
  std::string secret;           ///< shared-secret handshake (both sides)
  std::string workersSpec;      ///< coordinate --workers h:p,... (repeatable)
  std::size_t shardCount = 0;   ///< coordinate --shard-count (0 = #workers)
  double leaseTimeoutSeconds = 10.0;  ///< coordinate --lease-timeout
  double connectTimeoutSeconds = 5.0; ///< TCP connect bound (client too)
};

/// Parse "1048576", "64K", "64M", "2G" into bytes; false on junk or on
/// values that would overflow 64 bits (a silently wrapped limit would
/// evict a cache the user asked to be effectively unlimited).
bool parseByteSize(const std::string &text, std::uint64_t &bytes) {
  if (text.empty())
    return false;
  std::uint64_t multiplier = 1;
  std::string digits = text;
  switch (digits.back()) {
  case 'K':
  case 'k':
    multiplier = 1024ull;
    digits.pop_back();
    break;
  case 'M':
  case 'm':
    multiplier = 1024ull * 1024;
    digits.pop_back();
    break;
  case 'G':
  case 'g':
    multiplier = 1024ull * 1024 * 1024;
    digits.pop_back();
    break;
  default:
    break;
  }
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long parsed = std::strtoull(digits.c_str(), nullptr, 10);
  if (errno == ERANGE ||
      parsed > std::numeric_limits<std::uint64_t>::max() / multiplier)
    return false;
  bytes = parsed * multiplier;
  return true;
}

/// Consume recognized flags from args (in place); leave positionals.
bool parseFlags(std::vector<std::string> &args, CommonFlags &flags) {
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string &a = args[i];
    if (a == "--threads") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--threads requires a value\n");
        return false;
      }
      flags.threads = static_cast<std::size_t>(
          std::max(1L, std::atol(args[++i].c_str())));
    } else if (a == "--model-threads") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--model-threads requires a value\n");
        return false;
      }
      flags.modelThreads = static_cast<std::size_t>(
          std::max(1L, std::atol(args[++i].c_str())));
    } else if (a == "--cache-dir") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--cache-dir requires a value\n");
        return false;
      }
      flags.cacheDir = args[++i];
    } else if (a == "--socket") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--socket requires a value\n");
        return false;
      }
      flags.socketPath = args[++i];
    } else if (a == "--cache-limit") {
      if (i + 1 == args.size() ||
          !parseByteSize(args[i + 1], flags.cacheBytesLimit)) {
        std::fprintf(stderr,
                     "--cache-limit requires a byte size (e.g. 64M)\n");
        return false;
      }
      ++i;
    } else if (a == "--out") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--out requires a path\n");
        return false;
      }
      flags.outPath = args[++i];
    } else if (a == "--ext") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--ext requires an extension (e.g. .mc)\n");
        return false;
      }
      flags.extensions.push_back(args[++i]);
    } else if (a == "--manifest") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--manifest requires a path\n");
        return false;
      }
      flags.manifestPaths.push_back(args[++i]);
    } else if (a == "--since") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--since requires a manifest path\n");
        return false;
      }
      flags.sincePath = args[++i];
    } else if (a == "--root") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--root requires a directory\n");
        return false;
      }
      flags.rootOverride = args[++i];
    } else if (a == "--report") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--report requires a path\n");
        return false;
      }
      flags.reportPath = args[++i];
    } else if (a == "--shard") {
      if (i + 1 == args.size() ||
          !driver::parseShardSpec(args[i + 1], flags.shard)) {
        std::fprintf(stderr, "--shard requires I/N with 1 <= I <= N\n");
        return false;
      }
      flags.shardGiven = true;
      ++i;
    } else if (a == "--max-inflight") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--max-inflight requires a value\n");
        return false;
      }
      flags.maxInflight = static_cast<std::size_t>(
          std::max(0L, std::atol(args[++i].c_str())));
    } else if (a == "--drain-timeout") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--drain-timeout requires seconds\n");
        return false;
      }
      flags.drainTimeoutSeconds = std::max(0.0, std::atof(args[++i].c_str()));
    } else if (a == "--metrics-file") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--metrics-file requires a path\n");
        return false;
      }
      flags.metricsFile = args[++i];
    } else if (a == "--listen") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--listen requires HOST:PORT\n");
        return false;
      }
      flags.listenSpec = args[++i];
    } else if (a == "--connect") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--connect requires HOST:PORT\n");
        return false;
      }
      flags.connectSpec = args[++i];
    } else if (a == "--secret") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--secret requires a value\n");
        return false;
      }
      flags.secret = args[++i];
    } else if (a == "--workers") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--workers requires host:port[,host:port...]\n");
        return false;
      }
      // Repeatable; occurrences accumulate into one comma-joined list.
      if (!flags.workersSpec.empty())
        flags.workersSpec += ',';
      flags.workersSpec += args[++i];
    } else if (a == "--shard-count") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--shard-count requires a value\n");
        return false;
      }
      flags.shardCount = static_cast<std::size_t>(
          std::max(0L, std::atol(args[++i].c_str())));
    } else if (a == "--lease-timeout") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--lease-timeout requires seconds\n");
        return false;
      }
      flags.leaseTimeoutSeconds = std::max(0.05, std::atof(args[++i].c_str()));
    } else if (a == "--connect-timeout") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--connect-timeout requires seconds\n");
        return false;
      }
      flags.connectTimeoutSeconds =
          std::max(0.05, std::atof(args[++i].c_str()));
    } else if (a == "--busy-retries") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--busy-retries requires a value\n");
        return false;
      }
      flags.busyRetries = static_cast<std::size_t>(
          std::max(0L, std::atol(args[++i].c_str())));
    } else if (a == "--function") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--function requires a name\n");
        return false;
      }
      flags.sim.function = args[++i];
    } else if (a == "--sim-arg") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--sim-arg requires a value\n");
        return false;
      }
      const std::string &value = args[++i];
      if (value.find_first_of(".eE") != std::string::npos)
        flags.sim.args.push_back(sim::Value::ofDouble(std::atof(value.c_str())));
      else
        flags.sim.args.push_back(sim::Value::ofInt(std::atoll(value.c_str())));
    } else if (a == "--max-instructions") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--max-instructions requires a value\n");
        return false;
      }
      flags.sim.options.maxInstructions = static_cast<std::uint64_t>(
          std::max(1LL, std::atoll(args[++i].c_str())));
    } else if (a == "--fast-forward") {
      flags.sim.options.fastForward = true;
    } else if (a == "--progress") {
      flags.progress = true;
    } else if (a == "--via-daemon") {
      flags.viaDaemon = true;
    } else if (a == "--no-cache") {
      flags.useCache = false;
    } else if (a == "--compare-serial") {
      flags.compareSerial = true;
    } else if (a == "--no-optimize") {
      flags.optimize = false;
    } else if (a == "--no-vectorize") {
      flags.vectorize = false;
    } else if (a == "--emit-python") {
      flags.emitPython = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return false;
    } else {
      positional.push_back(a);
    }
  }
  args = std::move(positional);
  return true;
}

core::MiraOptions optionsFor(const CommonFlags &flags) {
  core::MiraOptions options;
  options.compile.compiler.optimize = flags.optimize;
  options.compile.compiler.vectorize = flags.vectorize;
  return options;
}

driver::BatchOptions batchOptionsFor(const CommonFlags &flags,
                                     std::size_t threads,
                                     bool withDiskCache = true) {
  driver::BatchOptions options;
  options.threads = threads;
  options.useCache = flags.useCache;
  if (withDiskCache)
    options.cacheDir = flags.cacheDir;
  options.cacheBytesLimit = flags.cacheBytesLimit;
  options.modelThreads = flags.modelThreads;
  return options;
}

/// Print the per-source status table and batch totals; returns the batch
/// wall time (negative on any failure).
double printOutcomes(const std::vector<core::Artifacts> &results,
                     const driver::BatchStats &stats, std::size_t threads,
                     bool quiet) {
  bool allOk = true;
  if (!quiet)
    std::printf("%-24s | %-6s | %-5s | %9s\n", "source", "status", "cache",
                "seconds");
  for (const auto &artifacts : results) {
    allOk = allOk && artifacts.ok;
    if (quiet)
      continue;
    std::printf("%-24s | %-6s | %-5s | %9.4f\n", artifacts.name.c_str(),
                artifacts.ok ? "ok" : "FAILED",
                artifacts.cacheHit ? "hit" : "miss", artifacts.seconds);
    if (!artifacts.ok)
      std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  }
  if (!quiet) {
    std::printf("%zu sources, %zu failures, cache %zu hit / %zu miss, "
                "%.4f s on %zu threads\n",
                stats.requests, stats.failures, stats.cacheHits,
                stats.cacheMisses, stats.wallSeconds, threads);
    if (stats.diskHits + stats.diskMisses + stats.diskStores > 0)
      std::printf("disk cache: %zu hit / %zu miss, %zu stored\n",
                  stats.diskHits, stats.diskMisses, stats.diskStores);
  }
  return allOk ? stats.wallSeconds : -1.0;
}

/// Run the specs through a fresh analyzer and print the table.
double runBatch(const std::vector<core::AnalysisSpec> &specs,
                const driver::BatchOptions &batchOptions, bool quiet) {
  driver::BatchAnalyzer analyzer(batchOptions);
  auto results = analyzer.runArtifacts(specs);
  return printOutcomes(results, analyzer.stats(), batchOptions.threads,
                       quiet);
}

void printSpeedup(double serialSeconds, double parallelSeconds,
                  std::size_t threads) {
  if (serialSeconds <= 0 || parallelSeconds <= 0)
    return;
  std::printf("serial %.4f s -> parallel %.4f s on %zu threads: %.2fx "
              "speedup\n",
              serialSeconds, parallelSeconds, threads,
              serialSeconds / parallelSeconds);
}

int cmdAnalyze(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  core::AnalysisSpec spec;
  if (!loadSource(args[0], spec))
    return 1;
  spec.options = optionsFor(flags);

  // One request: the batch pool is a single thread, but --model-threads
  // still fans out per-function model generation, and --cache-dir makes
  // repeated analyses of an unchanged source near-free.
  driver::BatchOptions batchOptions = batchOptionsFor(flags, 1);
  // For a single request the cache only matters as the disk level;
  // --no-cache still wins over --cache-dir.
  batchOptions.useCache = flags.useCache && !flags.cacheDir.empty();
  driver::BatchAnalyzer analyzer(batchOptions);
  const core::Artifacts artifacts = analyzer.analyzeArtifacts(spec);
  if (!artifacts.ok) {
    std::fprintf(stderr, "analysis of %s failed:\n%s\n",
                 artifacts.name.c_str(), artifacts.diagnostics.c_str());
    return 1;
  }
  if (!artifacts.diagnostics.empty())
    std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  std::printf("analyzed %s in %.4f s%s\n", artifacts.name.c_str(),
              artifacts.seconds, artifacts.cacheHit ? " (disk cache)" : "");
  printModelSummary(*artifacts.model);
  if (flags.emitPython) {
    std::puts("");
    std::puts(model::emitPython(*artifacts.model).c_str());
  }
  return 0;
}

// --------------------------------------------------------- manifests

/// Slurp a file's raw bytes (manifest and report files are binary;
/// loadSource is for sources and knows '@' workloads).
bool readFileBytes(const std::string &path, std::string &bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return false;
  }
  bytes.assign((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
  return true;
}

/// Counterpart writer, shared by `manifest merge` and `batch --report`.
bool writeFileBytes(const std::string &path, const std::string &bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

/// Print one diff listing — shared verbatim by the local `manifest
/// diff` and the daemon-backed `client manifest-diff` so CI can compare
/// the two outputs line for line. Returns the differing-path count.
std::size_t
printManifestDiff(const std::vector<corpus::ManifestEntry> &added,
                  const std::vector<corpus::ManifestEntry> &changed,
                  const std::vector<std::string> &removed) {
  for (const auto &entry : added)
    std::printf("added     %s (%016llx, %llu bytes)\n", entry.path.c_str(),
                static_cast<unsigned long long>(entry.contentHash),
                static_cast<unsigned long long>(entry.size));
  for (const auto &entry : changed)
    std::printf("changed   %s (%016llx, %llu bytes)\n", entry.path.c_str(),
                static_cast<unsigned long long>(entry.contentHash),
                static_cast<unsigned long long>(entry.size));
  for (const auto &path : removed)
    std::printf("removed   %s\n", path.c_str());
  std::printf("manifest diff: %zu added, %zu changed, %zu removed\n",
              added.size(), changed.size(), removed.size());
  return added.size() + changed.size() + removed.size();
}

/// Summary block of a (merged) batch report. Timing is absent by
/// design: reports are deterministic (driver::serializeBatchReport).
void printReportSummary(const driver::BatchReport &report) {
  const driver::BatchStats &stats = report.stats;
  std::printf("report: %zu entries, %zu failures, cache %zu hit / "
              "%zu miss\n",
              report.entries.size(), stats.failures, stats.cacheHits,
              stats.cacheMisses);
  if (stats.diskHits + stats.diskMisses + stats.diskStores > 0)
    std::printf("disk cache: %zu hit / %zu miss, %zu stored\n",
                stats.diskHits, stats.diskMisses, stats.diskStores);
}

int cmdManifest(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.empty())
    return 2;
  const std::string action = args[0];
  args.erase(args.begin());
  std::string error;

  if (action == "build") {
    if (args.size() != 1)
      return 2;
    if (flags.outPath.empty()) {
      std::fprintf(stderr, "manifest build requires --out FILE\n");
      return 2;
    }
    corpus::Manifest manifest;
    const std::vector<std::string> extensions =
        flags.extensions.empty() ? std::vector<std::string>{".mc"}
                                 : flags.extensions;
    if (!corpus::buildManifest(args[0], manifest, error, extensions)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!corpus::writeManifestFile(flags.outPath, manifest, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::uint64_t totalBytes = 0;
    for (const auto &entry : manifest.entries)
      totalBytes += entry.size;
    std::printf("manifest: %zu entries under '%s' (%llu source bytes) -> "
                "%s\n",
                manifest.entries.size(), manifest.root.c_str(),
                static_cast<unsigned long long>(totalBytes),
                flags.outPath.c_str());
    return 0;
  }

  if (action == "diff") {
    if (args.size() != 2)
      return 2;
    corpus::Manifest oldManifest, newManifest;
    if (!corpus::loadManifestFile(args[0], oldManifest, error) ||
        !corpus::loadManifestFile(args[1], newManifest, error)) {
      // The full diff/cmp convention: 0 = identical, 1 = differences,
      // 2 = trouble — so automation gating on exit 1 can never pass
      // vacuously off an unreadable manifest.
      std::fprintf(stderr, "%s\n", error.c_str());
      return kExitTrouble;
    }
    const corpus::ManifestDiff diff =
        corpus::diffManifests(oldManifest, newManifest);
    return printManifestDiff(diff.added, diff.changed, diff.removed) == 0
               ? 0
               : 1;
  }

  if (action == "merge") {
    if (args.empty())
      return 2;
    if (flags.outPath.empty()) {
      std::fprintf(stderr, "manifest merge requires --out FILE\n");
      return 2;
    }
    std::vector<driver::BatchReport> parts;
    for (const auto &path : args) {
      std::string bytes;
      if (!readFileBytes(path, bytes))
        return 1;
      driver::BatchReport part;
      if (!driver::deserializeBatchReport(bytes, part, error)) {
        std::fprintf(stderr, "'%s': %s\n", path.c_str(), error.c_str());
        return 1;
      }
      parts.push_back(std::move(part));
    }
    const driver::BatchReport merged = driver::mergeBatchReports(parts);
    if (!writeFileBytes(flags.outPath, driver::serializeBatchReport(merged)))
      return 1;
    printReportSummary(merged);
    std::printf("merged %zu shard reports -> %s\n", parts.size(),
                flags.outPath.c_str());
    return merged.stats.failures == 0 ? 0 : 1;
  }

  std::fprintf(stderr, "unknown manifest action '%s'\n", action.c_str());
  return 2;
}

/// `batch --manifest`: the request list comes from a corpus manifest —
/// optionally only what changed since an older one, optionally only
/// this process's deterministic shard of the keys.
int runManifestBatch(const CommonFlags &flags) {
  std::string error;
  corpus::Manifest manifest;
  if (!corpus::loadManifestFile(flags.manifestPaths[0], manifest, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  corpus::Manifest old;
  const bool haveSince = !flags.sincePath.empty();
  if (haveSince && !corpus::loadManifestFile(flags.sincePath, old, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  // Diff, merge, and shard via the one selection routine the daemon's
  // manifestBatch handler uses too, so both paths pick the same entries
  // in the same (manifest path) order.
  const core::MiraOptions options = optionsFor(flags);
  const driver::ManifestSelection selection = driver::selectManifestEntries(
      manifest, haveSince ? &old : nullptr, options, flags.shard);
  const std::vector<corpus::ManifestEntry> &mine = selection.entries;

  const std::string root =
      flags.rootOverride.empty() ? manifest.root : flags.rootOverride;
  std::vector<core::AnalysisSpec> specs;
  specs.reserve(mine.size());
  for (const auto &entry : mine) {
    core::AnalysisSpec spec;
    const std::string path =
        (std::filesystem::path(root) / entry.path).string();
    if (!loadSource(path, spec))
      return 1;
    spec.name = entry.path; // table/report identity = manifest path
    spec.options = options;
    specs.push_back(std::move(spec));
  }

  driver::BatchAnalyzer analyzer(batchOptionsFor(flags, flags.threads));
  auto results = analyzer.runArtifacts(specs);
  const double wall =
      printOutcomes(results, analyzer.stats(), flags.threads, false);
  std::printf("manifest: %zu of %zu entries selected", mine.size(),
              manifest.entries.size());
  if (haveSince)
    std::printf(" (%zu added, %zu changed, %zu removed skipped)",
                selection.added, selection.changed, selection.removed);
  if (flags.shard.count > 1)
    std::printf(" [shard %zu/%zu]", flags.shard.index + 1,
                flags.shard.count);
  std::printf("\n");

  if (!flags.reportPath.empty()) {
    driver::BatchReport report;
    report.stats = analyzer.stats();
    report.entries.reserve(results.size());
    // Report keys come from the manifest hash (already computed for the
    // shard filter), not a second rehash of the source bytes — so they
    // always agree with what planning tools and `cache prune` derive.
    for (std::size_t i = 0; i < results.size(); ++i)
      report.entries.push_back(
          {results[i].name,
           driver::requestKeyFromContentHash(mine[i].contentHash, options),
           results[i].ok});
    if (!writeFileBytes(flags.reportPath,
                        driver::serializeBatchReport(report)))
      return 1;
  }
  return wall < 0 ? 1 : 0;
}

int cmdBatch(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags))
    return 2;
  if (!flags.manifestPaths.empty()) {
    if (!args.empty()) {
      std::fprintf(stderr,
                   "batch --manifest takes no positional sources\n");
      return 2;
    }
    if (flags.manifestPaths.size() > 1) {
      std::fprintf(stderr, "batch takes exactly one --manifest\n");
      return 2;
    }
    return runManifestBatch(flags);
  }
  if (!flags.reportPath.empty() || !flags.sincePath.empty() ||
      !flags.rootOverride.empty() || flags.shardGiven) {
    std::fprintf(stderr,
                 "--report/--since/--shard/--root require --manifest FILE\n");
    return 2;
  }
  if (args.empty())
    return 2;
  std::vector<core::AnalysisSpec> specs;
  for (const auto &arg : args) {
    core::AnalysisSpec spec;
    if (!loadSource(arg, spec))
      return 1;
    spec.options = optionsFor(flags);
    specs.push_back(std::move(spec));
  }

  double parallelSeconds =
      runBatch(specs, batchOptionsFor(flags, flags.threads), false);
  if (flags.compareSerial) {
    // The serial reference run skips the disk cache: it would otherwise
    // be warmed by the parallel run above and win every comparison.
    double serialSeconds =
        runBatch(specs, batchOptionsFor(flags, 1, false), true);
    printSpeedup(serialSeconds, parallelSeconds, flags.threads);
  }
  return parallelSeconds < 0 ? 1 : 0;
}

std::vector<core::AnalysisSpec> coverageSpecs(const CommonFlags &flags) {
  std::vector<core::AnalysisSpec> specs;
  const auto add = [&](std::string name, std::string source) {
    core::AnalysisSpec spec;
    spec.name = std::move(name);
    spec.source = std::move(source);
    spec.options = optionsFor(flags); // same options (and cache keys) as
                                      // the --via-daemon path
    spec.artifacts = core::kArtifactCoverage | core::kArtifactDiagnostics;
    specs.push_back(std::move(spec));
  };
  for (const auto &kernel : workloads::coverageSuite())
    add(kernel.name, kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    add("@" + workload.name, *workload.source);
  return specs;
}

/// Print the Table I comparison for the first suite.size() artifacts.
void printCoverageTable(
    const std::vector<std::optional<sema::LoopCoverage>> &coverages) {
  std::printf("%-10s | %14s | %14s | %14s | %9s\n", "app", "loops p/o",
              "stmts p/o", "in-loop p/o", "pct p/o");
  const auto &suite = workloads::coverageSuite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto &kernel = suite[i];
    if (!coverages[i]) {
      std::printf("%-10s | analysis FAILED\n", kernel.name.c_str());
      continue;
    }
    const sema::LoopCoverage &coverage = *coverages[i];
    std::printf("%-10s | %6zu/%-7zu | %6zu/%-7zu | %6zu/%-7zu | %3d/%-5.0f\n",
                kernel.name.c_str(), kernel.paperLoops, coverage.loops,
                kernel.paperStatements, coverage.statements,
                kernel.paperInLoop, coverage.inLoopStatements,
                kernel.paperPercent, coverage.percent());
  }
  std::printf("\n");
}

/// Per-spec status table for artifact runs (coverage/simulate sweeps);
/// returns the batch wall time (negative on any failure).
double printArtifacts(const std::vector<core::Artifacts> &results,
                      const driver::BatchStats &stats, std::size_t threads,
                      bool quiet) {
  bool allOk = true;
  if (!quiet)
    std::printf("%-24s | %-6s | %-5s | %-9s | %9s\n", "source", "status",
                "cache", "recompile", "seconds");
  for (const auto &artifacts : results) {
    allOk = allOk && artifacts.ok;
    if (quiet)
      continue;
    std::printf("%-24s | %-6s | %-5s | %-9s | %9.4f\n",
                artifacts.name.c_str(), artifacts.ok ? "ok" : "FAILED",
                artifacts.cacheHit ? "hit" : "miss",
                artifacts.recompiled ? "yes" : "no", artifacts.seconds);
    if (!artifacts.ok)
      std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  }
  if (!quiet) {
    std::printf("%zu sources, %zu failures, cache %zu hit / %zu miss, "
                "%.4f s on %zu threads\n",
                stats.requests, stats.failures, stats.cacheHits,
                stats.cacheMisses, stats.wallSeconds, threads);
    std::printf("artifacts: %zu coverage (%zu from cached summaries), "
                "%zu simulations, %zu recompiles\n",
                stats.coverageArtifacts, stats.coverageFromCache,
                stats.simulationArtifacts, stats.recompiles);
    if (stats.diskHits + stats.diskMisses + stats.diskStores > 0)
      std::printf("disk cache: %zu hit / %zu miss, %zu stored\n",
                  stats.diskHits, stats.diskMisses, stats.diskStores);
  }
  return allOk ? stats.wallSeconds : -1.0;
}

int coverageViaDaemon(const CommonFlags &flags) {
  server::Client client;
  if (flags.socketPath.empty()) {
    std::fprintf(stderr, "--via-daemon requires --socket PATH\n");
    return 2;
  }
  if (!client.connect(flags.socketPath)) {
    std::fprintf(stderr, "%s\n", client.lastError().c_str());
    return 1;
  }
  auto specs = coverageSpecs(flags);
  std::vector<std::optional<sema::LoopCoverage>> coverages;
  bool allOk = true;
  std::size_t hits = 0, recompiles = 0;
  for (const auto &spec : specs) {
    server::CoverageReply reply;
    if (!client.coverage(spec.name, spec.source, optionsFor(flags), reply)) {
      std::fprintf(stderr, "%s\n", client.lastError().c_str());
      return 1;
    }
    allOk = allOk && reply.ok;
    if (reply.ok)
      coverages.push_back(reply.coverage);
    else
      coverages.push_back(std::nullopt);
    hits += reply.cacheHit ? 1 : 0;
    recompiles += reply.recompiled ? 1 : 0;
  }
  printCoverageTable(coverages);
  std::printf("%zu sources via daemon at %s: %zu cache hits, "
              "%zu recompiles\n",
              specs.size(), flags.socketPath.c_str(), hits, recompiles);
  return allOk ? 0 : 1;
}

int cmdCoverage(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || !args.empty())
    return 2;

  if (flags.viaDaemon)
    return coverageViaDaemon(flags);

  // One artifact run serves both the Table I numbers and the status
  // table below. With --cache-dir, a warm rerun answers every summary
  // from the cache: zero recompiles, zero model generation.
  auto specs = coverageSpecs(flags);
  driver::BatchAnalyzer analyzer(batchOptionsFor(flags, flags.threads));
  auto results = analyzer.runArtifacts(specs);

  std::vector<std::optional<sema::LoopCoverage>> coverages;
  coverages.reserve(results.size());
  for (const auto &artifacts : results)
    coverages.push_back(artifacts.coverage);
  printCoverageTable(coverages);

  double parallelSeconds =
      printArtifacts(results, analyzer.stats(), flags.threads, false);
  if (flags.compareSerial) {
    driver::BatchAnalyzer serial(batchOptionsFor(flags, 1, false));
    serial.runArtifacts(specs);
    printSpeedup(serial.stats().wallSeconds, parallelSeconds, flags.threads);
  }
  return parallelSeconds < 0 ? 1 : 0;
}

// ----------------------------------------------------------- simulate

/// Counter block shared verbatim by the one-shot and daemon paths, so
/// CI can diff the two outputs line for line.
void printSimResult(const sim::SimResult &result) {
  if (!result.ok) {
    std::printf("simulation FAILED: %s\n", result.error.c_str());
    return;
  }
  std::printf("return value        : int %lld, double %g\n",
              static_cast<long long>(result.returnValue.i),
              result.returnValue.f);
  std::printf("total instructions  : %llu\n",
              static_cast<unsigned long long>(result.total.totalInstructions));
  std::printf("fp instructions     : %llu\n",
              static_cast<unsigned long long>(result.total.fpInstructions));
  std::printf("flops               : %llu\n",
              static_cast<unsigned long long>(result.total.flops));
  std::printf("%-24s | %8s | %12s | %10s\n", "function", "calls",
              "instructions", "fp");
  for (const auto &entry : result.functions)
    std::printf("%-24s | %8llu | %12llu | %10llu\n", entry.first.c_str(),
                static_cast<unsigned long long>(entry.second.calls),
                static_cast<unsigned long long>(
                    entry.second.inclusive.totalInstructions),
                static_cast<unsigned long long>(
                    entry.second.inclusive.fpInstructions));
  if (!result.printed.empty()) {
    std::printf("printed             :");
    for (double value : result.printed)
      std::printf(" %g", value);
    std::printf("\n");
  }
}

int cmdSimulate(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  if (flags.sim.function.empty()) {
    std::fprintf(stderr, "simulate requires --function NAME\n");
    return 2;
  }
  core::AnalysisSpec spec;
  if (!loadSource(args[0], spec))
    return 1;

  if (flags.viaDaemon) {
    if (flags.socketPath.empty()) {
      std::fprintf(stderr, "--via-daemon requires --socket PATH\n");
      return 2;
    }
    server::Client client;
    if (!client.connect(flags.socketPath)) {
      std::fprintf(stderr, "%s\n", client.lastError().c_str());
      return 1;
    }
    server::SimulateReply reply;
    if (!client.simulate(spec.name, spec.source, optionsFor(flags),
                         flags.sim, reply)) {
      std::fprintf(stderr, "%s\n", client.lastError().c_str());
      return 1;
    }
    if (!reply.ok) {
      std::fprintf(stderr, "simulate of %s failed:\n%s\n",
                   spec.name.c_str(), reply.diagnostics.c_str());
      return 1;
    }
    std::printf("simulated %s:%s via daemon in %.4f s (%s%s)\n",
                spec.name.c_str(), flags.sim.function.c_str(),
                static_cast<double>(reply.micros) / 1e6,
                reply.cacheHit ? "cache hit" : "computed",
                reply.recompiled ? ", recompiled" : "");
    printSimResult(reply.result);
    return reply.result.ok ? 0 : 1;
  }

  spec.options = optionsFor(flags);
  spec.artifacts = core::kArtifactSimulation | core::kArtifactDiagnostics;
  spec.simulation = flags.sim;

  driver::BatchOptions batchOptions = batchOptionsFor(flags, 1);
  batchOptions.useCache = flags.useCache && !flags.cacheDir.empty();
  driver::BatchAnalyzer analyzer(batchOptions);
  core::Artifacts artifacts = analyzer.analyzeArtifacts(spec);
  if (!artifacts.ok || !artifacts.simulation) {
    std::fprintf(stderr, "simulate of %s failed:\n%s\n",
                 artifacts.name.c_str(), artifacts.diagnostics.c_str());
    return 1;
  }
  if (!artifacts.diagnostics.empty())
    std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  std::printf("simulated %s:%s in %.4f s (%s%s)\n", artifacts.name.c_str(),
              flags.sim.function.c_str(), artifacts.seconds,
              artifacts.cacheHit ? "cache hit" : "computed",
              artifacts.recompiled ? ", recompiled" : "");
  printSimResult(*artifacts.simulation);
  return artifacts.simulation->ok ? 0 : 1;
}

int cmdCache(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  if (flags.cacheDir.empty()) {
    std::fprintf(stderr, "cache requires --cache-dir\n");
    return 2;
  }
  // Opening a CacheStore creates the directory; an inspection command
  // must not conjure an empty cache out of a typo'd path and report
  // "0 entries removed" as success.
  std::error_code ec;
  if (!std::filesystem::is_directory(flags.cacheDir, ec)) {
    std::fprintf(stderr, "no cache directory at '%s'\n",
                 flags.cacheDir.c_str());
    return 1;
  }
  CacheStore store(flags.cacheDir, flags.cacheBytesLimit);
  if (!store.usable()) {
    std::fprintf(stderr, "cannot open cache directory '%s'\n",
                 flags.cacheDir.c_str());
    return 1;
  }
  if (args[0] == "stats") {
    // Raw counts stay first on each line (scripts parse them); the
    // human-readable size rides along in parentheses. Field meanings
    // are documented in docs/CACHING.md, "Observability".
    std::printf("cache directory : %s\n", store.directory().c_str());
    std::size_t entries = 0;
    std::uint64_t total = 0;
    store.usage(entries, total);
    std::printf("entries         : %zu\n", entries);
    std::printf("total bytes     : %llu (%s)\n",
                static_cast<unsigned long long>(total),
                formatBytes(total).c_str());
    if (store.bytesLimit() != 0)
      std::printf("byte limit      : %llu (%s)\n",
                  static_cast<unsigned long long>(store.bytesLimit()),
                  formatBytes(store.bytesLimit()).c_str());
    else
      std::printf("byte limit      : unlimited\n");
    std::printf("schema version  : %u\n", kCacheSchemaVersion);

    // Per-artifact byte breakdown: walk every entry (peek: no LRU
    // bump) and split its payload into the sections of the schema-v2
    // layout (docs/CACHING.md, "Entry format"). Programs are never
    // stored — they come back through recompile-on-demand handles —
    // so their column is identically zero by design.
    std::size_t failureEntries = 0;
    std::uint64_t modelBytes = 0, coverageBytes = 0, diagnosticsBytes = 0;
    for (std::uint64_t key : store.keys()) {
      auto payload = store.peek(key);
      if (!payload)
        continue; // another schema version or raced with a writer
      bio::Reader r{*payload, 0};
      std::uint8_t ok = 0;
      std::string producer, diagnostics;
      if (!r.u8(ok) || !r.str(producer) || !r.str(diagnostics))
        continue;
      diagnosticsBytes += diagnostics.size();
      if (!ok) {
        ++failureEntries;
        continue;
      }
      std::uint8_t hasCoverage = 0;
      const std::size_t beforeCoverage = r.offset;
      std::uint64_t scratch = 0;
      if (!r.u8(hasCoverage))
        continue;
      if (hasCoverage &&
          (!r.u64(scratch) || !r.u64(scratch) || !r.u64(scratch)))
        continue;
      coverageBytes += r.offset - beforeCoverage;
      modelBytes += r.remaining();
    }
    std::printf("cached failures   : %zu\n", failureEntries);
    std::printf("model bytes       : %llu (%s)\n",
                static_cast<unsigned long long>(modelBytes),
                formatBytes(modelBytes).c_str());
    std::printf("coverage bytes    : %llu (%s)\n",
                static_cast<unsigned long long>(coverageBytes),
                formatBytes(coverageBytes).c_str());
    std::printf("program bytes     : 0 (recompile-on-demand; never "
                "stored)\n");
    std::printf("diagnostics bytes : %llu (%s)\n",
                static_cast<unsigned long long>(diagnosticsBytes),
                formatBytes(diagnosticsBytes).c_str());
    return 0;
  }
  if (args[0] == "prune") {
    // Garbage-collect: drop every entry no manifest source still
    // produces. The manifest hash seeds the cache key
    // (driver::requestKeyFromContentHash), so no source bytes are
    // read. The keep-set is deliberately conservative: the union over
    // every given --manifest (repeatable) and every combination of the
    // wire-visible option flags, so a directory serving several
    // configurations of the same corpus survives one prune intact.
    // Entries keyed with a non-default arch (API callers only — the
    // CLI cannot set one) are not protected (docs/MANIFESTS.md).
    if (flags.manifestPaths.empty()) {
      std::fprintf(stderr, "cache prune requires --manifest FILE\n");
      return 2;
    }
    std::size_t sources = 0;
    std::set<std::uint64_t> keep;
    for (const std::string &path : flags.manifestPaths) {
      corpus::Manifest manifest;
      std::string error;
      if (!corpus::loadManifestFile(path, manifest, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      sources += manifest.entries.size();
      for (const auto &entry : manifest.entries)
        for (std::uint8_t bits = 0; bits < 8; ++bits)
          keep.insert(driver::requestKeyFromContentHash(
              entry.contentHash, server::unpackOptions(bits)));
    }
    std::size_t total = 0, removed = 0, failed = 0;
    for (std::uint64_t key : store.keys()) {
      ++total;
      if (keep.count(key))
        continue;
      if (store.remove(key))
        ++removed;
      else
        ++failed;
    }
    std::printf("pruned %zu of %zu entries from %s (%zu manifest sources "
                "kept across all option sets)\n",
                removed, total, store.directory().c_str(), sources);
    if (failed != 0) {
      std::fprintf(stderr, "failed to remove %zu entries\n", failed);
      return 1;
    }
    return 0;
  }
  if (args[0] == "clear") {
    const std::size_t before = store.entryCount();
    store.clear();
    std::printf("removed %zu cache entries from %s\n", before,
                store.directory().c_str());
    return 0;
  }
  return 2;
}

// ------------------------------------------------------------- daemon

// Signal handlers may only touch async-signal-safe state: a single
// write(2) on the server's stop-event pipe is exactly that.
volatile int g_serverStopFd = -1;

extern "C" void onStopSignal(int) {
  const int fd = g_serverStopFd;
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(fd, &byte, 1);
  }
}

int cmdServe(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || !args.empty())
    return 2;
  if (flags.socketPath.empty() && flags.listenSpec.empty()) {
    std::fprintf(stderr,
                 "serve requires --socket PATH and/or --listen HOST:PORT\n");
    return 2;
  }

  server::ServerOptions options;
  options.socketPath = flags.socketPath;
  if (!flags.listenSpec.empty()) {
    std::string parseError;
    if (!net::parseHostPort(flags.listenSpec, options.tcpHost,
                            options.tcpPortRequested, parseError)) {
      std::fprintf(stderr, "--listen: %s\n", parseError.c_str());
      return 2;
    }
    options.tcpListen = true;
  }
  options.secret = flags.secret;
  options.threads = flags.threads;
  options.modelThreads = flags.modelThreads;
  options.cacheDir = flags.cacheDir;
  options.cacheBytesLimit = flags.cacheBytesLimit;
  options.maxInflight = flags.maxInflight;
  options.drainTimeoutMillis =
      static_cast<std::uint32_t>(flags.drainTimeoutSeconds * 1000.0);
  options.metricsFile = flags.metricsFile;

  server::AnalysisServer daemon(options);
  std::string error;
  if (!daemon.start(error)) {
    std::fprintf(stderr, "cannot start daemon: %s\n", error.c_str());
    return 1;
  }

  g_serverStopFd = daemon.stopEventFd();
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);

  // The readiness line names every endpoint; a --listen port of 0 is
  // printed as the kernel-assigned port so supervisors and tests can
  // parse `tcp HOST:PORT` out of it instead of racing for a fixed port.
  std::string endpoints = options.socketPath;
  if (options.tcpListen) {
    if (!endpoints.empty())
      endpoints += " and ";
    endpoints +=
        "tcp " + options.tcpHost + ":" + std::to_string(daemon.tcpPort());
  }
  std::printf("mira daemon listening on %s (%zu session threads%s%s)\n",
              endpoints.c_str(), options.threads,
              options.cacheDir.empty() ? "" : ", disk cache at ",
              options.cacheDir.c_str());
  std::fflush(stdout); // supervisors tail this line to detect readiness

  daemon.serve();

  const server::ServerStats stats = daemon.snapshotStats();
  g_serverStopFd = -1;
  std::printf("daemon stopped: %llu requests over %llu connections, "
              "%llu analyses (%llu cache hits / %llu computed)\n",
              static_cast<unsigned long long>(stats.requestsServed),
              static_cast<unsigned long long>(stats.connectionsAccepted),
              static_cast<unsigned long long>(stats.sourcesAnalyzed),
              static_cast<unsigned long long>(stats.cacheHits),
              static_cast<unsigned long long>(stats.computed));
  return 0;
}

// ------------------------------------------------------------- client

/// Unified `mira-cli client` failure diagnostic: every daemon
/// conversation that fails prints one `mira-cli client: <reason>` line
/// to stderr, and the exit status tells scripts which class of failure
/// it was without parsing that text: 3 = could not connect (no daemon
/// there), 4 = the connection died or broke protocol mid-conversation,
/// 1 = the daemon (or the analysis itself) refused or failed.
/// tests/server_test.cpp pins both the format and the codes.
int clientFailure(const server::Client &client) {
  std::fprintf(stderr, "mira-cli client: %s\n", client.lastError().c_str());
  switch (client.lastErrorKind()) {
  case server::Client::ErrorKind::connect:
    return 3;
  case server::Client::ErrorKind::transport:
  case server::Client::ErrorKind::protocol:
    return 4;
  default:
    return 1;
  }
}

int requireClientConnection(server::Client &client,
                            const CommonFlags &flags) {
  if (flags.socketPath.empty() && flags.connectSpec.empty()) {
    std::fprintf(stderr,
                 "client requires --socket PATH or --connect HOST:PORT\n");
    return 2;
  }
  if (!flags.socketPath.empty() && !flags.connectSpec.empty()) {
    std::fprintf(stderr, "--socket and --connect are mutually exclusive\n");
    return 2;
  }
  client.setConnectTimeoutMillis(
      static_cast<int>(flags.connectTimeoutSeconds * 1000.0));
  client.setSecret(flags.secret);
  if (!flags.connectSpec.empty()) {
    std::string host, parseError;
    std::uint16_t port = 0;
    if (!net::parseHostPort(flags.connectSpec, host, port, parseError)) {
      std::fprintf(stderr, "--connect: %s\n", parseError.c_str());
      return 2;
    }
    if (!client.connectTcp(host, port))
      return clientFailure(client);
    return 0;
  }
  if (!client.connect(flags.socketPath))
    return clientFailure(client);
  return 0;
}

void printClientOutcome(const server::ClientOutcome &outcome) {
  if (!outcome.diagnostics.empty())
    std::fprintf(stderr, "%s\n", outcome.diagnostics.c_str());
  std::printf("analyzed %s via daemon in %.4f s (%s)\n",
              outcome.name.c_str(),
              static_cast<double>(outcome.micros) / 1e6,
              outcome.cacheHit ? "cache hit" : "computed");
}

int cmdClient(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.empty())
    return 2;
  const std::string action = args[0];
  args.erase(args.begin());

  server::Client client;
  client.setBusyRetries(flags.busyRetries);

  if (action == "ping") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    if (!client.ping())
      return clientFailure(client);
    std::printf("daemon at %s is alive\n",
                flags.socketPath.empty() ? flags.connectSpec.c_str()
                                         : flags.socketPath.c_str());
    return 0;
  }

  if (action == "shutdown") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    if (!client.shutdownServer())
      return clientFailure(client);
    std::printf("daemon at %s acknowledged shutdown\n",
                flags.socketPath.empty() ? flags.connectSpec.c_str()
                                         : flags.socketPath.c_str());
    return 0;
  }

  if (action == "cache-stats") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    server::ServerStats stats;
    if (!client.cacheStats(stats))
      return clientFailure(client);
    // Field meanings: docs/PROTOCOL.md, CacheStatsReply.
    std::printf("uptime          : %.1f s\n",
                static_cast<double>(stats.uptimeMicros) / 1e6);
    std::printf("connections     : %llu\n",
                static_cast<unsigned long long>(stats.connectionsAccepted));
    std::printf("requests served : %llu\n",
                static_cast<unsigned long long>(stats.requestsServed));
    std::printf("analyze / batch : %llu / %llu\n",
                static_cast<unsigned long long>(stats.analyzeRequests),
                static_cast<unsigned long long>(stats.batchRequests));
    std::printf("coverage / sim  : %llu / %llu (%llu recompiles)\n",
                static_cast<unsigned long long>(stats.coverageRequests),
                static_cast<unsigned long long>(stats.simulateRequests),
                static_cast<unsigned long long>(stats.recompiles));
    std::printf("sources analyzed: %llu (%llu cache hits, %llu computed, "
                "%llu failed)\n",
                static_cast<unsigned long long>(stats.sourcesAnalyzed),
                static_cast<unsigned long long>(stats.cacheHits),
                static_cast<unsigned long long>(stats.computed),
                static_cast<unsigned long long>(stats.failures));
    std::printf("protocol errors : %llu\n",
                static_cast<unsigned long long>(stats.protocolErrors));
    std::printf("memory entries  : %llu\n",
                static_cast<unsigned long long>(stats.memoryEntries));
    std::printf("disk cache      : %llu hit / %llu miss, %llu stored, "
                "%llu entries, %llu bytes (%s)\n",
                static_cast<unsigned long long>(stats.diskHits),
                static_cast<unsigned long long>(stats.diskMisses),
                static_cast<unsigned long long>(stats.diskStores),
                static_cast<unsigned long long>(stats.diskEntries),
                static_cast<unsigned long long>(stats.diskBytes),
                formatBytes(stats.diskBytes).c_str());
    std::printf("session threads : %llu\n",
                static_cast<unsigned long long>(stats.threads));
    return 0;
  }

  if (action == "metrics") {
    if (int rc = requireClientConnection(client, flags))
      return rc;
    std::vector<server::MetricSample> samples;
    if (!client.metrics(samples))
      return clientFailure(client);
    // Same names and `mira_` prefix as the --metrics-file dump; the
    // wire reply does not carry the counter/gauge kind, so no # TYPE
    // comment lines here.
    for (const server::MetricSample &sample : samples)
      std::printf("mira_%s %llu\n", sample.name.c_str(),
                  static_cast<unsigned long long>(sample.value));
    return 0;
  }

  if (action == "analyze") {
    if (args.size() != 1) {
      std::fprintf(stderr, "client analyze takes exactly one source\n");
      return 2;
    }
    core::AnalysisSpec spec;
    if (!loadSource(args[0], spec))
      return 1;
    if (int rc = requireClientConnection(client, flags))
      return rc;
    server::ClientOutcome outcome;
    if (!client.analyze(spec.name, spec.source, optionsFor(flags), outcome))
      return clientFailure(client);
    if (!outcome.ok) {
      std::fprintf(stderr, "analysis of %s failed:\n%s\n",
                   outcome.name.c_str(), outcome.diagnostics.c_str());
      return 1;
    }
    printClientOutcome(outcome);
    printModelSummary(outcome.analysis->model);
    if (flags.emitPython) {
      std::puts("");
      std::puts(model::emitPython(outcome.analysis->model).c_str());
    }
    return 0;
  }

  if (action == "batch") {
    if (!flags.manifestPaths.empty()) {
      // --manifest: the daemon executes the whole corpus and answers
      // one deterministic report — byte-identical (report and cache
      // dir) to a local `mira-cli batch --manifest` over the same
      // manifest, options, and cache directory.
      if (!args.empty()) {
        std::fprintf(stderr,
                     "client batch --manifest takes no positional sources\n");
        return 2;
      }
      if (flags.manifestPaths.size() > 1) {
        std::fprintf(stderr, "client batch takes exactly one --manifest\n");
        return 2;
      }
      std::string manifestBytes, sinceBytes;
      if (!readFileBytes(flags.manifestPaths[0], manifestBytes))
        return 1;
      if (!flags.sincePath.empty() &&
          !readFileBytes(flags.sincePath, sinceBytes))
        return 1;
      if (int rc = requireClientConnection(client, flags))
        return rc;
      server::Client::ProgressFn onProgress;
      if (flags.progress)
        onProgress = [](const server::BatchProgress &p) {
          // Progress is operator feedback, not results: stderr, so
          // stdout stays byte-comparable with and without --progress.
          std::fprintf(stderr,
                       "progress: %u/%u analyzed, %u failures, "
                       "%u cache hits\n",
                       p.done, p.total, p.failures, p.cacheHits);
        };
      std::string reportBytes;
      if (!client.manifestBatch(manifestBytes, sinceBytes,
                                flags.rootOverride, flags.shard,
                                optionsFor(flags), onProgress, reportBytes))
        return clientFailure(client);
      driver::BatchReport report;
      std::string error;
      if (!driver::deserializeBatchReport(reportBytes, report, error)) {
        std::fprintf(stderr, "mira-cli client: malformed report from "
                             "daemon: %s\n",
                     error.c_str());
        return 4;
      }
      std::printf("%-24s | %-6s | %16s\n", "source", "status", "key");
      for (const auto &entry : report.entries)
        std::printf("%-24s | %-6s | %016llx\n", entry.name.c_str(),
                    entry.ok ? "ok" : "FAILED",
                    static_cast<unsigned long long>(entry.key));
      printReportSummary(report);
      // The daemon's report bytes go to disk untouched: `manifest
      // merge` and byte-comparisons see exactly what a local shard
      // run would have written.
      if (!flags.reportPath.empty() &&
          !writeFileBytes(flags.reportPath, reportBytes))
        return 1;
      return report.stats.failures == 0 ? 0 : 1;
    }
    if (args.empty()) {
      std::fprintf(stderr, "client batch needs at least one source\n");
      return 2;
    }
    std::vector<server::SourceItem> items;
    for (const auto &arg : args) {
      core::AnalysisSpec spec;
      if (!loadSource(arg, spec))
        return 1;
      items.push_back({spec.name, spec.source});
    }
    if (int rc = requireClientConnection(client, flags))
      return rc;
    std::vector<server::ClientOutcome> outcomes;
    if (!client.analyzeBatch(items, optionsFor(flags), outcomes))
      return clientFailure(client);
    bool allOk = true;
    std::printf("%-24s | %-6s | %-5s | %9s\n", "source", "status", "cache",
                "seconds");
    for (const auto &outcome : outcomes) {
      allOk = allOk && outcome.ok;
      std::printf("%-24s | %-6s | %-5s | %9.4f\n", outcome.name.c_str(),
                  outcome.ok ? "ok" : "FAILED",
                  outcome.cacheHit ? "hit" : "miss",
                  static_cast<double>(outcome.micros) / 1e6);
      if (!outcome.ok)
        std::fprintf(stderr, "%s\n", outcome.diagnostics.c_str());
    }
    return allOk ? 0 : 1;
  }

  if (action == "coverage") {
    if (args.empty()) {
      std::fprintf(stderr, "client coverage needs at least one source\n");
      return 2;
    }
    if (int rc = requireClientConnection(client, flags))
      return rc;
    bool allOk = true;
    std::printf("%-24s | %6s | %6s | %8s | %4s | %-5s | %-9s\n", "source",
                "loops", "stmts", "in-loop", "pct", "cache", "recompile");
    for (const auto &arg : args) {
      core::AnalysisSpec spec;
      if (!loadSource(arg, spec))
        return 1;
      server::CoverageReply reply;
      if (!client.coverage(spec.name, spec.source, optionsFor(flags), reply))
        return clientFailure(client);
      if (!reply.ok) {
        allOk = false;
        std::printf("%-24s | analysis FAILED\n", spec.name.c_str());
        std::fprintf(stderr, "%s\n", reply.diagnostics.c_str());
        continue;
      }
      std::printf("%-24s | %6zu | %6zu | %8zu | %3.0f%% | %-5s | %-9s\n",
                  spec.name.c_str(), reply.coverage.loops,
                  reply.coverage.statements, reply.coverage.inLoopStatements,
                  reply.coverage.percent(),
                  reply.cacheHit ? "hit" : "miss",
                  reply.recompiled ? "yes" : "no");
    }
    return allOk ? 0 : 1;
  }

  if (action == "manifest-diff") {
    if (args.size() != 2) {
      std::fprintf(stderr,
                   "client manifest-diff takes OLD and NEW manifest files\n");
      return 2;
    }
    // Raw bytes travel; the daemon validates both blobs and answers
    // Error on anything malformed. Output matches the local
    // `manifest diff` line for line, and so does the exit-code
    // convention: 0 identical, 1 differences, 2 trouble (unreadable
    // file, no daemon, malformed manifest).
    std::string oldBytes, newBytes;
    if (!readFileBytes(args[0], oldBytes) || !readFileBytes(args[1], newBytes))
      return kExitTrouble;
    if (requireClientConnection(client, flags) != 0)
      return kExitTrouble;
    server::ManifestDiffReply reply;
    if (!client.manifestDiff(oldBytes, newBytes, reply)) {
      // Same one-line diagnostic format as every other client failure,
      // but the diff/cmp exit convention wins over the 3/4 split here.
      std::fprintf(stderr, "mira-cli client: %s\n",
                   client.lastError().c_str());
      return kExitTrouble;
    }
    return printManifestDiff(reply.added, reply.changed, reply.removed) == 0
               ? 0
               : 1;
  }

  if (action == "simulate") {
    if (args.size() != 1) {
      std::fprintf(stderr, "client simulate takes exactly one source\n");
      return 2;
    }
    if (flags.sim.function.empty()) {
      std::fprintf(stderr, "client simulate requires --function NAME\n");
      return 2;
    }
    core::AnalysisSpec spec;
    if (!loadSource(args[0], spec))
      return 1;
    if (int rc = requireClientConnection(client, flags))
      return rc;
    server::SimulateReply reply;
    if (!client.simulate(spec.name, spec.source, optionsFor(flags), flags.sim,
                         reply))
      return clientFailure(client);
    if (!reply.ok) {
      std::fprintf(stderr, "simulate of %s failed:\n%s\n",
                   spec.name.c_str(), reply.diagnostics.c_str());
      return 1;
    }
    std::printf("simulated %s:%s via daemon in %.4f s (%s%s)\n",
                spec.name.c_str(), flags.sim.function.c_str(),
                static_cast<double>(reply.micros) / 1e6,
                reply.cacheHit ? "cache hit" : "computed",
                reply.recompiled ? ", recompiled" : "");
    printSimResult(reply.result);
    return reply.result.ok ? 0 : 1;
  }

  std::fprintf(stderr, "unknown client action '%s'\n", action.c_str());
  return 2;
}

// -------------------------------------------------------- coordinator

/// `mira-cli coordinate`: run a corpus manifest across TCP worker
/// daemons with shard leases and failover (src/fleet/coordinator.h,
/// docs/FLEET.md). Exit codes follow the client contract: 0 ok, 1 the
/// work itself failed (daemon rejection or failing entries in the
/// merged report), 3 no worker was ever reachable, 4 the fleet died
/// mid-run.
int cmdCoordinate(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || !args.empty())
    return 2;
  if (flags.manifestPaths.size() != 1) {
    std::fprintf(stderr, "coordinate requires exactly one --manifest FILE\n");
    return 2;
  }
  if (flags.workersSpec.empty()) {
    std::fprintf(stderr,
                 "coordinate requires --workers host:port[,host:port...]\n");
    return 2;
  }

  fleet::CoordinatorOptions options;
  std::string error;
  if (!fleet::parseWorkerList(flags.workersSpec, options.workers, error)) {
    std::fprintf(stderr, "--workers: %s\n", error.c_str());
    return 2;
  }
  if (!readFileBytes(flags.manifestPaths[0], options.manifestBytes))
    return kExitTrouble;
  if (!flags.sincePath.empty() &&
      !readFileBytes(flags.sincePath, options.sinceBytes))
    return kExitTrouble;
  options.root = flags.rootOverride;
  options.options = optionsFor(flags);
  options.shardCount = flags.shardCount;
  options.leaseTimeoutMillis =
      static_cast<std::uint32_t>(flags.leaseTimeoutSeconds * 1000.0);
  options.connectTimeoutMillis =
      static_cast<int>(flags.connectTimeoutSeconds * 1000.0);
  options.secret = flags.secret;
  options.metricsFile = flags.metricsFile;
  if (flags.progress)
    options.onEvent = [](const std::string &line) {
      // Lease traffic is operator feedback, not results: stderr, so
      // stdout stays byte-comparable with and without --progress.
      std::fprintf(stderr, "fleet: %s\n", line.c_str());
    };

  core::MetricsRegistry metrics;
  const fleet::CoordinatorResult result =
      fleet::runCoordinator(options, metrics);
  if (result.status != fleet::CoordinatorStatus::ok) {
    // Same one-line diagnostic discipline as `mira-cli client`.
    std::fprintf(stderr, "mira-cli coordinate: %s\n", result.error.c_str());
    switch (result.status) {
    case fleet::CoordinatorStatus::connectFailed:
      return 3;
    case fleet::CoordinatorStatus::transportFailed:
      return 4;
    default:
      return 1;
    }
  }

  for (const auto &entry : result.report.entries)
    std::printf("%-24s | %-6s | %016llx\n", entry.name.c_str(),
                entry.ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(entry.key));
  printReportSummary(result.report);
  // The merged bytes go to disk untouched: byte-identical to a local
  // 1-process `batch --manifest --report` run by the fleet contract.
  if (!flags.reportPath.empty() &&
      !writeFileBytes(flags.reportPath, result.reportBytes))
    return 1;
  return result.report.stats.failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  int result = 2;
  if (command == "analyze")
    result = cmdAnalyze(std::move(args));
  else if (command == "batch")
    result = cmdBatch(std::move(args));
  else if (command == "coverage")
    result = cmdCoverage(std::move(args));
  else if (command == "simulate")
    result = cmdSimulate(std::move(args));
  else if (command == "manifest")
    result = cmdManifest(std::move(args));
  else if (command == "cache")
    result = cmdCache(std::move(args));
  else if (command == "serve")
    result = cmdServe(std::move(args));
  else if (command == "client")
    result = cmdClient(std::move(args));
  else if (command == "coordinate")
    result = cmdCoordinate(std::move(args));
  if (result == kExitTrouble)
    return 2; // specific message already printed; no usage dump
  return result == 2 ? usage(argv[0]) : result;
}
