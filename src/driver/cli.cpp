// mira-cli: command-line front door to the analysis pipeline. usage()
// below lists every command and flag; docs/CLI.md is the full tour.
//
// analyze, batch, coverage and simulate are written once, over a
// backend their flags select:
//   local (default)          a driver::BatchAnalyzer in this process;
//   --socket | --connect     a running daemon (`mira-cli serve`), which
//                            owns its cache and pool, through a
//                            server::Client whose replies become
//                            core::Artifacts;
//   --workers                `batch --manifest` only: a fleet of TCP
//                            daemons driven by fleet::runCoordinator.
// One printer per command serves every backend, and a flag the command
// or its backend does not use is a usage error. manifest, cache, serve
// and client (daemon administration) have one implementation each.
//
// Exit contract, every command: 0 ok; 1 the analysis (or the daemon)
// failed; 2 usage; 3 no daemon or worker answered; 4 the connection died
// mid-conversation. Daemon failures print one `mira-cli <command>: ...`
// line on stderr. '@name' pulls an embedded workload (stream, dgemm,
// minife, fig5, listings) instead of reading a file.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "corpus/manifest.h"
#include "driver/batch.h"
#include "fleet/coordinator.h"
#include "model/python_emitter.h"
#include "server/client.h"
#include "server/server.h"
#include "support/cache_store.h"
#include "support/file_io.h"
#include "support/socket.h"
#include "support/string_utils.h"
#include "workloads/coverage_suite.h"
#include "workloads/workloads.h"

namespace {

using namespace mira;

int usage(const char *argv0) {
  std::fprintf(
      stderr,
      "usage: %s <analyze|batch|coverage|simulate|manifest|cache|serve|"
      "client> [args]\n"
      "  analyze <file.mc|@workload> [--emit-python]\n"
      "  batch <files/@workloads...>\n"
      "  batch --manifest FILE [--since OLD] [--shard I/N] [--root DIR]\n"
      "          [--report FILE] [--progress]\n"
      "  coverage [sources...]\n"
      "  simulate <file.mc|@workload> --function NAME [--sim-arg V]...\n"
      "          [--fast-forward] [--max-instructions N]\n"
      "    each with [--no-optimize] [--no-vectorize] and one backend:\n"
      "      local   [--threads N] [--cache-dir DIR] [--cache-limit BYTES]\n"
      "              [--no-cache]\n"
      "      daemon  (--socket PATH | --connect HOST:PORT) [--secret S]\n"
      "              [--busy-retries N] [--connect-timeout SECONDS]\n"
      "      fleet   (batch --manifest only) --workers H:P[,H:P...]\n"
      "              [--shard-count N] [--lease-timeout SECONDS] [--secret S]\n"
      "              [--connect-timeout SECONDS] [--metrics-file PATH]\n"
      "  manifest build <dir> --out FILE [--ext .mc]...\n"
      "  manifest diff <old.manifest> <new.manifest>\n"
      "  manifest merge --out FILE <reports...>\n"
      "  cache <stats|clear|prune> --cache-dir DIR [--cache-limit BYTES]\n"
      "          [--manifest FILE]...\n"
      "  serve [--socket PATH] [--listen HOST:PORT] [--secret S]\n"
      "          [--threads N] [--cache-dir DIR] [--cache-limit BYTES]\n"
      "          [--max-inflight N] [--drain-timeout SECONDS]\n"
      "          [--metrics-file PATH]\n"
      "  client <ping|shutdown|cache-stats|metrics>\n"
      "          (--socket PATH | --connect HOST:PORT) [--secret S]\n"
      "          [--busy-retries N] [--connect-timeout SECONDS]\n"
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

/// Read a file's raw bytes (mira::readFile). Any failure, a directory
/// or a failed read included, prints `cannot open '<path>'`.
bool readFileBytes(const std::string &path, std::string &bytes) {
  if (readFile(path, bytes))
    return true;
  std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
  return false;
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
  spec.name = arg;
  return readFileBytes(arg, spec.source);
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

// -------------------------------------------------------------- flags

/// Every flag has one bit, so a command states which ones it uses.
constexpr std::uint64_t kThreads = 1ull << 0;
constexpr std::uint64_t kCacheDir = 1ull << 2;
constexpr std::uint64_t kCacheLimit = 1ull << 3;
constexpr std::uint64_t kNoCache = 1ull << 4;
constexpr std::uint64_t kNoOptimize = 1ull << 5;
constexpr std::uint64_t kNoVectorize = 1ull << 6;
constexpr std::uint64_t kEmitPython = 1ull << 7;
constexpr std::uint64_t kSocket = 1ull << 8;
constexpr std::uint64_t kConnect = 1ull << 9;
constexpr std::uint64_t kSecret = 1ull << 10;
constexpr std::uint64_t kConnectTimeout = 1ull << 11;
constexpr std::uint64_t kBusyRetries = 1ull << 12;
constexpr std::uint64_t kListen = 1ull << 13;
constexpr std::uint64_t kMaxInflight = 1ull << 14;
constexpr std::uint64_t kDrainTimeout = 1ull << 15;
constexpr std::uint64_t kMetricsFile = 1ull << 16;
constexpr std::uint64_t kOut = 1ull << 17;
constexpr std::uint64_t kExt = 1ull << 18;
constexpr std::uint64_t kManifest = 1ull << 19;
constexpr std::uint64_t kSince = 1ull << 20;
constexpr std::uint64_t kRoot = 1ull << 21;
constexpr std::uint64_t kReport = 1ull << 22;
constexpr std::uint64_t kShard = 1ull << 23;
constexpr std::uint64_t kProgress = 1ull << 24;
constexpr std::uint64_t kWorkers = 1ull << 25;
constexpr std::uint64_t kShardCount = 1ull << 26;
constexpr std::uint64_t kLeaseTimeout = 1ull << 27;
constexpr std::uint64_t kFunction = 1ull << 28;
constexpr std::uint64_t kSimArg = 1ull << 29;
constexpr std::uint64_t kMaxInstructions = 1ull << 30;
constexpr std::uint64_t kFastForward = 1ull << 31;

/// Flags every analysis backend honors (they travel on the wire).
constexpr std::uint64_t kCompileFlags = kNoOptimize | kNoVectorize;
/// The local engine's knobs; a daemon or fleet owns its own.
constexpr std::uint64_t kLocalFlags =
    kThreads | kCacheDir | kCacheLimit | kNoCache;
constexpr std::uint64_t kSimFlags =
    kFunction | kSimArg | kMaxInstructions | kFastForward;

struct CommonFlags {
  std::uint64_t given = 0; ///< Flag bits that appeared on the command line
  std::size_t threads = ThreadPool::defaultThreadCount();
  bool useCache = true;
  bool optimize = true;
  bool vectorize = true;
  bool emitPython = false;
  std::string cacheDir;
  std::uint64_t cacheBytesLimit = 0;
  std::string socketPath;
  std::string connectSpec;      ///< --connect HOST:PORT (TCP daemon)
  std::string secret;           ///< shared-secret handshake (both sides)
  double connectTimeoutSeconds = 5.0;
  std::size_t busyRetries = 8;
  std::string listenSpec;       ///< serve --listen HOST:PORT
  std::size_t maxInflight = 0;  ///< serve --max-inflight (0 = unlimited)
  double drainTimeoutSeconds = 5.0;
  std::string metricsFile;      ///< serve / fleet --metrics-file
  std::string outPath;          ///< `manifest build/merge --out`
  std::vector<std::string> extensions; ///< `manifest build --ext`
  /// batch --manifest (exactly one) / cache prune --manifest
  /// (repeatable: the keep-set is the union).
  std::vector<std::string> manifestPaths;
  std::string sincePath;
  std::string rootOverride;
  std::string reportPath;
  driver::ShardSpec shard;
  bool progress = false;
  std::string workersSpec;      ///< --workers h:p,... (repeatable)
  std::size_t shardCount = 0;   ///< --shard-count (0 = one per worker)
  double leaseTimeoutSeconds = 10.0;
  core::SimulationArgs sim;     ///< --function / --sim-arg / ...

  bool has(std::uint64_t bits) const { return (given & bits) != 0; }
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

/// The whole token is a decimal integer in [lo, hi].
template <typename T>
bool parseCount(const std::string &text, std::uint64_t lo, std::uint64_t hi,
                T &value) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || parsed < lo || parsed > hi)
    return false;
  value = static_cast<T>(parsed);
  return true;
}

/// The whole token is a finite decimal number in [lo, hi].
bool parseNumber(const std::string &text, double lo, double hi,
                 double &value) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    return false;
  char *end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(parsed) ||
      parsed < lo || parsed > hi)
    return false;
  value = parsed;
  return true;
}

/// A --sim-arg: an integer, or a double when it has '.', 'e' or 'E'.
bool parseSimArg(const std::string &text, std::vector<sim::Value> &args) {
  if (text.find_first_of(".eE") != std::string::npos) {
    double parsed = 0;
    if (!parseNumber(text, -std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::max(), parsed))
      return false;
    args.push_back(sim::Value::ofDouble(parsed));
    return true;
  }
  const bool negative = !text.empty() && text[0] == '-';
  std::uint64_t magnitude = 0;
  if (!parseCount(text.substr(negative ? 1 : 0), 0,
                  static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()) +
                      (negative ? 1 : 0),
                  magnitude))
    return false;
  args.push_back(sim::Value::ofInt(
      static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude)));
  return true;
}

constexpr std::uint64_t kMaxThreads = 1024;
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
constexpr double kMaxSeconds = 86400;

/// One flag: its bit, what its value must be (null for a switch), and
/// how it lands in CommonFlags (false = the value is malformed).
struct FlagInfo {
  const char *name;
  std::uint64_t bit;
  const char *expects;
  bool (*set)(CommonFlags &flags, const std::string &value);
};

// Short names for the setter signatures below.
using F = CommonFlags;
using V = const std::string &;

const FlagInfo kFlagTable[] = {
    {"--threads", kThreads, "a whole number in [1, 1024]",
     [](F &f, V v) { return parseCount(v, 1, kMaxThreads, f.threads); }},
    {"--cache-dir", kCacheDir, "a directory",
     [](F &f, V v) { f.cacheDir = v; return true; }},
    {"--cache-limit", kCacheLimit, "a byte size (e.g. 64M)",
     [](F &f, V v) { return parseByteSize(v, f.cacheBytesLimit); }},
    {"--no-cache", kNoCache, nullptr,
     [](F &f, V) { f.useCache = false; return true; }},
    {"--no-optimize", kNoOptimize, nullptr,
     [](F &f, V) { f.optimize = false; return true; }},
    {"--no-vectorize", kNoVectorize, nullptr,
     [](F &f, V) { f.vectorize = false; return true; }},
    {"--emit-python", kEmitPython, nullptr,
     [](F &f, V) { f.emitPython = true; return true; }},
    {"--socket", kSocket, "a path",
     [](F &f, V v) { f.socketPath = v; return true; }},
    {"--connect", kConnect, "HOST:PORT",
     [](F &f, V v) { f.connectSpec = v; return true; }},
    {"--secret", kSecret, "a value",
     [](F &f, V v) { f.secret = v; return true; }},
    {"--connect-timeout", kConnectTimeout, "seconds in [0.05, 86400]",
     [](F &f, V v) {
       return parseNumber(v, 0.05, kMaxSeconds, f.connectTimeoutSeconds);
     }},
    {"--busy-retries", kBusyRetries, "a whole number in [0, 4294967295]",
     [](F &f, V v) { return parseCount(v, 0, kMaxCount, f.busyRetries); }},
    {"--listen", kListen, "HOST:PORT",
     [](F &f, V v) { f.listenSpec = v; return true; }},
    {"--max-inflight", kMaxInflight, "a whole number in [0, 4294967295]",
     [](F &f, V v) { return parseCount(v, 0, kMaxCount, f.maxInflight); }},
    {"--drain-timeout", kDrainTimeout, "seconds in [0, 86400]",
     [](F &f, V v) {
       return parseNumber(v, 0, kMaxSeconds, f.drainTimeoutSeconds);
     }},
    {"--metrics-file", kMetricsFile, "a path",
     [](F &f, V v) { f.metricsFile = v; return true; }},
    {"--out", kOut, "a path", [](F &f, V v) { f.outPath = v; return true; }},
    {"--ext", kExt, "an extension (e.g. .mc)",
     [](F &f, V v) { f.extensions.push_back(v); return true; }},
    {"--manifest", kManifest, "a path",
     [](F &f, V v) { f.manifestPaths.push_back(v); return true; }},
    {"--since", kSince, "a manifest path",
     [](F &f, V v) { f.sincePath = v; return true; }},
    {"--root", kRoot, "a directory",
     [](F &f, V v) { f.rootOverride = v; return true; }},
    {"--report", kReport, "a path",
     [](F &f, V v) { f.reportPath = v; return true; }},
    {"--shard", kShard, "I/N with 1 <= I <= N",
     [](F &f, V v) { return driver::parseShardSpec(v, f.shard); }},
    {"--progress", kProgress, nullptr,
     [](F &f, V) { f.progress = true; return true; }},
    {"--workers", kWorkers, "HOST:PORT[,HOST:PORT...]",
     [](F &f, V v) {
       // Repeatable; occurrences accumulate into one comma-joined list.
       f.workersSpec += (f.workersSpec.empty() ? "" : ",") + v;
       return true;
     }},
    {"--shard-count", kShardCount, "a whole number in [0, 65536]",
     [](F &f, V v) { return parseCount(v, 0, 65536, f.shardCount); }},
    {"--lease-timeout", kLeaseTimeout, "seconds in [0.05, 86400]",
     [](F &f, V v) {
       return parseNumber(v, 0.05, kMaxSeconds, f.leaseTimeoutSeconds);
     }},
    {"--function", kFunction, "a function name",
     [](F &f, V v) { f.sim.function = v; return true; }},
    {"--sim-arg", kSimArg, "an integer or a decimal number",
     [](F &f, V v) { return parseSimArg(v, f.sim.args); }},
    {"--max-instructions", kMaxInstructions,
     "a whole number in [1, 18446744073709551615]",
     [](F &f, V v) {
       return parseCount(v, 1, std::numeric_limits<std::uint64_t>::max(),
                         f.sim.options.maxInstructions);
     }},
    {"--fast-forward", kFastForward, nullptr,
     [](F &f, V) { f.sim.options.fastForward = true; return true; }},
};

/// Consume recognized flags from args (in place); leave positionals.
bool parseFlags(std::vector<std::string> &args, CommonFlags &flags) {
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string &a = args[i];
    if (a.empty() || a[0] != '-') {
      positional.push_back(a);
      continue;
    }
    const auto flag =
        std::find_if(std::begin(kFlagTable), std::end(kFlagTable),
                     [&](const FlagInfo &info) { return a == info.name; });
    if (flag == std::end(kFlagTable)) {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return false;
    }
    if (flag->expects && i + 1 == args.size()) {
      std::fprintf(stderr, "%s requires %s\n", flag->name, flag->expects);
      return false;
    }
    const std::string value = flag->expects ? args[++i] : std::string();
    if (!flag->set(flags, value)) {
      std::fprintf(stderr, "%s: '%s' is not %s\n", flag->name, value.c_str(),
                   flag->expects);
      return false;
    }
    flags.given |= flag->bit;
  }
  args = std::move(positional);
  return true;
}

/// A flag outside `allowed` does not apply: a usage error naming it.
bool onlyFlags(const CommonFlags &flags, std::uint64_t allowed,
               const std::string &context) {
  for (const FlagInfo &info : kFlagTable)
    if (flags.has(info.bit) && !(allowed & info.bit)) {
      std::fprintf(stderr, "%s does not apply to %s\n", info.name,
                   context.c_str());
      return false;
    }
  return true;
}

core::MiraOptions optionsFor(const CommonFlags &flags) {
  core::MiraOptions options;
  options.compile.compiler.optimize = flags.optimize;
  options.compile.compiler.vectorize = flags.vectorize;
  return options;
}

driver::BatchOptions batchOptionsFor(const CommonFlags &flags,
                                     std::size_t threads) {
  driver::BatchOptions options;
  options.threads = threads;
  options.useCache = flags.useCache;
  options.cacheDir = flags.cacheDir;
  options.cacheBytesLimit = flags.cacheBytesLimit;
  return options;
}

/// Load every positional source into a spec asking for `artifacts`.
bool loadSpecs(const std::vector<std::string> &args, const CommonFlags &flags,
               core::ArtifactMask artifacts,
               std::vector<core::AnalysisSpec> &specs) {
  for (const std::string &arg : args) {
    core::AnalysisSpec spec;
    if (!loadSource(arg, spec))
      return false;
    spec.options = optionsFor(flags);
    spec.artifacts = artifacts;
    spec.simulation = flags.sim;
    specs.push_back(std::move(spec));
  }
  return true;
}

// ----------------------------------------------------------- backends

/// Everything a manifest batch needs, whichever backend runs it: the
/// parsed job for the local executor, the raw manifest bytes a daemon
/// or fleet receives.
struct ManifestRequest {
  driver::ManifestJob job;
  std::string manifestBytes;
  std::string sinceBytes; ///< empty = no baseline
  bool progress = false;  ///< stream progress lines to stderr
};

void printProgress(std::size_t done, std::size_t total, std::size_t failures,
                   std::size_t cacheHits) {
  // Progress is operator feedback, not results: stderr, so stdout stays
  // byte-comparable with and without --progress.
  std::fprintf(stderr, "progress: %zu/%zu analyzed, %zu failures, "
                       "%zu cache hits\n",
               done, total, failures, cacheHits);
}

/// A failed source's diagnostics, after a line naming the source:
/// diagnostics carry no file name, and a batch prints many.
void printFailure(const core::Artifacts &artifacts) {
  std::fprintf(stderr, "analysis of %s failed:\n%s\n", artifacts.name.c_str(),
               artifacts.diagnostics.c_str());
}

/// Runs `batch --manifest`: locally, on one daemon, or across a fleet.
class ManifestBackend {
public:
  virtual ~ManifestBackend() = default;
  /// Fill the report and its serialized bytes; 0, or the exit code
  /// after printing why.
  virtual int runManifest(const ManifestRequest &request,
                          driver::BatchReport &report,
                          std::string &reportBytes) = 0;
};

/// Also fulfills individual specs: the local analyzer or one daemon.
class Backend : public ManifestBackend {
public:
  /// Fulfill `specs` (sharing one artifact mask) in input order; 0, or
  /// the exit code after printing why.
  virtual int run(const std::vector<core::AnalysisSpec> &specs,
                  std::vector<core::Artifacts> &results) = 0;
  /// Where the work ran, for summary lines.
  virtual std::string where() const = 0;
};

class LocalBackend : public Backend {
public:
  explicit LocalBackend(const driver::BatchOptions &options)
      : analyzer_(options) {}

  int run(const std::vector<core::AnalysisSpec> &specs,
          std::vector<core::Artifacts> &results) override {
    if (int rc = openCache())
      return rc;
    results = analyzer_.analyzeArtifactsMany(specs);
    return 0;
  }

  int runManifest(const ManifestRequest &request, driver::BatchReport &report,
                  std::string &reportBytes) override {
    if (int rc = openCache())
      return rc;
    driver::ManifestOutcome outcome = driver::runManifestBatch(
        analyzer_, request.job, [&](const driver::ManifestProgress &p) {
          if (request.progress)
            printProgress(p.done, p.total, p.failures, p.cacheHits);
          return true;
        });
    if (outcome.status != driver::ManifestOutcome::Status::ok) {
      std::fprintf(stderr, "%s\n", outcome.error.c_str());
      return 1;
    }
    for (const core::Artifacts &artifacts : outcome.results)
      if (!artifacts.ok)
        printFailure(artifacts);
    report = std::move(outcome.report);
    reportBytes = driver::serializeBatchReport(report);
    return 0;
  }

  std::string where() const override {
    return "on " + std::to_string(analyzer_.threadCount()) + " threads";
  }

private:
  /// 0, or 1 after naming a --cache-dir the store could not open as a
  /// directory (a regular file, say): running uncached instead would
  /// hide it. A missing directory was created.
  int openCache() {
    const CacheStore *disk = analyzer_.diskCache();
    if (disk == nullptr || disk->usable())
      return 0;
    std::fprintf(stderr, "cannot open cache directory '%s'\n",
                 disk->directory().c_str());
    return 1;
  }

  driver::BatchAnalyzer analyzer_;
};

/// A daemon over --socket or --connect. Replies become core::Artifacts,
/// so the printers cannot tell which backend ran.
class DaemonBackend : public Backend {
public:
  explicit DaemonBackend(std::string command) : command_(std::move(command)) {}

  /// Apply the connection flags; false (usage) on a bad HOST:PORT.
  bool configure(const CommonFlags &flags) {
    client_.setBusyRetries(flags.busyRetries);
    client_.setConnectTimeoutMillis(
        static_cast<int>(flags.connectTimeoutSeconds * 1000.0));
    client_.setSecret(flags.secret);
    socketPath_ = flags.socketPath;
    endpoint_ = socketPath_.empty() ? flags.connectSpec : socketPath_;
    std::string error;
    if (socketPath_.empty() &&
        !net::parseHostPort(flags.connectSpec, host_, port_, error)) {
      std::fprintf(stderr, "--connect: %s\n", error.c_str());
      return false;
    }
    return true;
  }

  /// 0 once connected, else the exit code (3: no daemon there).
  int connect() {
    if (client_.connected())
      return 0;
    const bool ok = socketPath_.empty() ? client_.connectTcp(host_, port_)
                                        : client_.connect(socketPath_);
    return ok ? 0 : failure();
  }

  /// The one daemon failure diagnostic, and its exit-contract code.
  int failure() const {
    std::fprintf(stderr, "mira-cli %s: %s\n", command_.c_str(),
                 client_.lastError().c_str());
    switch (client_.lastErrorKind()) {
    case server::Client::ErrorKind::connect:
      return 3;
    case server::Client::ErrorKind::transport:
    case server::Client::ErrorKind::protocol:
      return 4;
    default:
      return 1;
    }
  }

  server::Client &client() { return client_; }
  const std::string &endpoint() const { return endpoint_; }

  int run(const std::vector<core::AnalysisSpec> &specs,
          std::vector<core::Artifacts> &results) override {
    results.clear();
    if (specs.empty())
      return 0;
    if (int rc = connect())
      return rc;
    const core::ArtifactMask mask = specs[0].artifacts;
    if (mask & core::kArtifactSimulation) {
      // simulate takes exactly one source.
      const core::AnalysisSpec &spec = specs[0];
      server::SimulateReply reply;
      if (!client_.simulate(spec.name, spec.source, spec.options,
                            spec.simulation, reply))
        return failure();
      core::Artifacts artifacts = served(spec, reply);
      if (reply.ok)
        artifacts.simulation =
            std::make_shared<const sim::SimResult>(reply.result);
      results.push_back(std::move(artifacts));
      return 0;
    }
    std::vector<server::SourceItem> items;
    for (const core::AnalysisSpec &spec : specs)
      items.push_back({spec.name, spec.source});
    if (mask & core::kArtifactCoverage) {
      std::vector<server::CoverageReply> replies;
      if (!client_.coveragePipelined(items, specs[0].options, replies))
        return failure();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        core::Artifacts artifacts = served(specs[i], replies[i]);
        if (replies[i].ok)
          artifacts.coverage = replies[i].coverage;
        artifacts.coverageFromCache = replies[i].ok && replies[i].cacheHit;
        results.push_back(std::move(artifacts));
      }
      return 0;
    }
    std::vector<server::ClientOutcome> outcomes;
    if (!client_.analyzePipelined(items, specs[0].options, outcomes))
      return failure();
    for (server::ClientOutcome &outcome : outcomes) {
      core::Artifacts artifacts;
      artifacts.name = outcome.name;
      artifacts.requested = mask;
      artifacts.ok = outcome.ok;
      artifacts.cacheHit = outcome.cacheHit;
      artifacts.seconds = static_cast<double>(outcome.micros) / 1e6;
      artifacts.diagnostics = std::move(outcome.diagnostics);
      artifacts.coverage = outcome.coverage;
      if (outcome.analysis)
        artifacts.model = std::shared_ptr<const model::PerformanceModel>(
            outcome.analysis, &outcome.analysis->model);
      results.push_back(std::move(artifacts));
    }
    return 0;
  }

  int runManifest(const ManifestRequest &request, driver::BatchReport &report,
                  std::string &reportBytes) override {
    if (int rc = connect())
      return rc;
    server::Client::ProgressFn onProgress;
    if (request.progress)
      onProgress = [](const server::BatchProgress &p) {
        printProgress(p.done, p.total, p.failures, p.cacheHits);
      };
    if (!client_.manifestBatch(request.manifestBytes, request.sinceBytes,
                               request.job.root, request.job.shard,
                               request.job.options, onProgress, reportBytes))
      return failure();
    std::string error;
    if (!driver::deserializeBatchReport(reportBytes, report, error)) {
      std::fprintf(stderr, "mira-cli %s: malformed report from daemon: %s\n",
                   command_.c_str(), error.c_str());
      return 4;
    }
    return 0;
  }

  std::string where() const override { return "via daemon at " + endpoint_; }

private:
  /// The artifacts every coverage or simulate reply to `spec` carries.
  template <typename Reply>
  static core::Artifacts served(const core::AnalysisSpec &spec,
                                const Reply &reply) {
    core::Artifacts artifacts;
    artifacts.name = spec.name;
    artifacts.requested = spec.artifacts;
    artifacts.ok = reply.ok;
    artifacts.cacheHit = reply.cacheHit;
    artifacts.recompiled = reply.recompiled;
    artifacts.seconds = static_cast<double>(reply.micros) / 1e6;
    artifacts.diagnostics = reply.diagnostics;
    return artifacts;
  }

  std::string command_;
  server::Client client_;
  std::string socketPath_, host_, endpoint_;
  std::uint16_t port_ = 0;
};

/// `batch --manifest --workers`: fleet::runCoordinator leases shards to
/// TCP worker daemons and merges their reports.
class FleetBackend : public ManifestBackend {
public:
  /// Apply the fleet flags; false (usage) on a bad worker list.
  bool configure(const CommonFlags &flags) {
    std::string error;
    if (!fleet::parseWorkerList(flags.workersSpec, options_.workers, error)) {
      std::fprintf(stderr, "--workers: %s\n", error.c_str());
      return false;
    }
    options_.shardCount = flags.shardCount;
    options_.leaseTimeoutMillis =
        static_cast<std::uint32_t>(flags.leaseTimeoutSeconds * 1000.0);
    options_.connectTimeoutMillis =
        static_cast<int>(flags.connectTimeoutSeconds * 1000.0);
    options_.secret = flags.secret;
    options_.metricsFile = flags.metricsFile;
    return true;
  }

  int runManifest(const ManifestRequest &request, driver::BatchReport &report,
                  std::string &reportBytes) override {
    options_.manifestBytes = request.manifestBytes;
    options_.sinceBytes = request.sinceBytes;
    options_.root = request.job.root;
    options_.options = request.job.options;
    if (request.progress)
      options_.onEvent = [](const std::string &line) {
        std::fprintf(stderr, "fleet: %s\n", line.c_str());
      };
    core::MetricsRegistry metrics;
    fleet::CoordinatorResult result = fleet::runCoordinator(options_, metrics);
    if (result.status == fleet::CoordinatorStatus::ok) {
      report = std::move(result.report);
      reportBytes = std::move(result.reportBytes);
      return 0;
    }
    std::fprintf(stderr, "mira-cli batch: %s\n", result.error.c_str());
    switch (result.status) {
    case fleet::CoordinatorStatus::connectFailed:
      return 3;
    case fleet::CoordinatorStatus::transportFailed:
      return 4;
    default:
      return 1;
    }
  }

private:
  fleet::CoordinatorOptions options_;
};

/// The daemon named by --socket or --connect, after rejecting every
/// flag outside `allowed` and the connection flags that transport does
/// not use. Null after a usage error.
std::unique_ptr<DaemonBackend> selectDaemon(const CommonFlags &flags,
                                            const std::string &command,
                                            std::uint64_t allowed) {
  if (flags.has(kSocket) && flags.has(kConnect)) {
    std::fprintf(stderr, "--socket and --connect are mutually exclusive\n");
    return nullptr;
  }
  // Unix-domain connects are immediate, so only TCP has a timeout.
  allowed |= kSecret | kBusyRetries |
             (flags.has(kSocket) ? kSocket : kConnect | kConnectTimeout);
  auto daemon = std::make_unique<DaemonBackend>(command);
  if (!onlyFlags(flags, allowed, command + " over a daemon") ||
      !daemon->configure(flags))
    return nullptr;
  return daemon;
}

/// The backend an analysis command's flags select: a daemon with
/// --socket/--connect, else the local analyzer built from `local`.
/// `own` are the command's flags, `localFlags` the local engine knobs
/// it uses. Null after a usage error.
std::unique_ptr<Backend> selectBackend(const CommonFlags &flags,
                                       const std::string &command,
                                       std::uint64_t own,
                                       std::uint64_t localFlags,
                                       const driver::BatchOptions &local) {
  if (flags.has(kSocket | kConnect))
    return selectDaemon(flags, command, own);
  if (!onlyFlags(flags, own | localFlags, command))
    return nullptr;
  return std::make_unique<LocalBackend>(local);
}

/// Run `specs` on `backend` and time the whole run; 0 or the exit code.
int runTimed(Backend &backend, const std::vector<core::AnalysisSpec> &specs,
             std::vector<core::Artifacts> &results,
             driver::BatchStats &stats) {
  const auto start = std::chrono::steady_clock::now();
  if (int rc = backend.run(specs, results))
    return rc;
  stats = driver::tallyBatchStats(results);
  stats.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return 0;
}

// ----------------------------------------------------------- printers

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

/// The per-source table batch and coverage print, then the totals;
/// coverage adds its numbers and the recompile column. Returns false
/// when any source failed.
bool printResults(const std::vector<core::Artifacts> &results,
                  const driver::BatchStats &stats, const std::string &where,
                  bool coverage) {
  std::printf("%-24s | %-6s | ", "source", "status");
  if (coverage)
    std::printf("%6s | %6s | %7s | %4s | ", "loops", "stmts", "in-loop",
                "pct");
  std::printf("%-5s | %s%9s\n", "cache", coverage ? "recompile | " : "",
              "seconds");
  bool allOk = true;
  for (const core::Artifacts &artifacts : results) {
    allOk = allOk && artifacts.ok;
    std::printf("%-24s | %-6s | ", artifacts.name.c_str(),
                artifacts.ok ? "ok" : "FAILED");
    if (coverage && artifacts.coverage)
      std::printf("%6zu | %6zu | %7zu | %3.0f%% | ", artifacts.coverage->loops,
                  artifacts.coverage->statements,
                  artifacts.coverage->inLoopStatements,
                  artifacts.coverage->percent());
    else if (coverage)
      std::printf("%6s | %6s | %7s | %4s | ", "-", "-", "-", "-");
    std::printf("%-5s | %s%9.4f\n", artifacts.cacheHit ? "hit" : "miss",
                !coverage ? "" : artifacts.recompiled ? "yes       | "
                                                      : "no        | ",
                artifacts.seconds);
    if (!artifacts.ok)
      printFailure(artifacts);
  }
  std::printf("%zu sources, %zu failures, cache %zu hit / %zu miss, "
              "%.4f s %s\n",
              stats.requests, stats.failures, stats.cacheHits,
              stats.cacheMisses, stats.wallSeconds, where.c_str());
  if (coverage)
    std::printf("artifacts: %zu coverage (%zu from cached summaries), "
                "%zu simulations, %zu recompiles\n",
                stats.coverageArtifacts, stats.coverageFromCache,
                stats.simulationArtifacts, stats.recompiles);
  if (stats.diskHits + stats.diskMisses + stats.diskStores > 0)
    std::printf("disk cache: %zu hit / %zu miss, %zu stored\n",
                stats.diskHits, stats.diskMisses, stats.diskStores);
  return allOk;
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

/// The one manifest printer: a pure function of the report, so every
/// backend's stdout is byte-identical for one corpus.
void printReport(const driver::BatchReport &report) {
  std::printf("%-24s | %-6s | %16s\n", "source", "status", "key");
  for (const auto &entry : report.entries)
    std::printf("%-24s | %-6s | %016llx\n", entry.name.c_str(),
                entry.ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(entry.key));
  printReportSummary(report);
}

/// Print the Table I comparison for the first suite.size() results.
void printCoverageTable(const std::vector<core::Artifacts> &results) {
  std::printf("%-10s | %14s | %14s | %14s | %9s\n", "app", "loops p/o",
              "stmts p/o", "in-loop p/o", "pct p/o");
  const auto &suite = workloads::coverageSuite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto &kernel = suite[i];
    if (!results[i].coverage) {
      std::printf("%-10s | analysis FAILED\n", kernel.name.c_str());
      continue;
    }
    const sema::LoopCoverage &coverage = *results[i].coverage;
    std::printf("%-10s | %6zu/%-7zu | %6zu/%-7zu | %6zu/%-7zu | %3d/%-5.0f\n",
                kernel.name.c_str(), kernel.paperLoops, coverage.loops,
                kernel.paperStatements, coverage.statements,
                kernel.paperInLoop, coverage.inLoopStatements,
                kernel.paperPercent, coverage.percent());
  }
  std::printf("\n");
}

/// Counter block printed the same way whichever backend simulated, so
/// outputs can be diffed line for line.
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

// ----------------------------------------------------------- commands

int cmdAnalyze(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  auto backend = selectBackend(flags, "analyze", kCompileFlags | kEmitPython,
                               kLocalFlags & ~kThreads,
                               batchOptionsFor(flags, 1));
  if (!backend)
    return 2;
  std::vector<core::AnalysisSpec> specs;
  if (!loadSpecs(args, flags, core::kArtifactDefault, specs))
    return 1;
  std::vector<core::Artifacts> results;
  if (int rc = backend->run(specs, results))
    return rc;
  const core::Artifacts &artifacts = results[0];
  if (!artifacts.ok) {
    printFailure(artifacts);
    return 1;
  }
  if (!artifacts.diagnostics.empty())
    std::fprintf(stderr, "%s\n", artifacts.diagnostics.c_str());
  std::printf("analyzed %s in %.4f s (%s)\n", artifacts.name.c_str(),
              artifacts.seconds, artifacts.cacheHit ? "cache hit" : "computed");
  printModelSummary(*artifacts.model);
  if (flags.emitPython) {
    std::puts("");
    std::puts(model::emitPython(*artifacts.model).c_str());
  }
  return 0;
}

/// `batch --manifest`, on whichever backend the flags select.
int runManifestCommand(const CommonFlags &flags,
                       const std::vector<std::string> &args) {
  if (!args.empty()) {
    std::fprintf(stderr, "batch --manifest takes no positional sources\n");
    return 2;
  }
  if (flags.manifestPaths.size() > 1) {
    std::fprintf(stderr, "batch takes exactly one --manifest\n");
    return 2;
  }
  const std::uint64_t own =
      kCompileFlags | kManifest | kSince | kRoot | kReport | kProgress;
  std::unique_ptr<ManifestBackend> backend;
  if (flags.has(kWorkers)) {
    auto fleet = std::make_unique<FleetBackend>();
    if (!onlyFlags(flags,
                   own | kWorkers | kShardCount | kLeaseTimeout |
                       kMetricsFile | kSecret | kConnectTimeout,
                   "batch --manifest --workers") ||
        !fleet->configure(flags))
      return 2;
    backend = std::move(fleet);
  } else {
    backend = selectBackend(flags, "batch", own | kShard, kLocalFlags,
                            batchOptionsFor(flags, flags.threads));
    if (!backend)
      return 2;
  }

  // Every backend gets a validated manifest: a bad one never travels.
  ManifestRequest request;
  std::string error;
  if (!readFileBytes(flags.manifestPaths[0], request.manifestBytes) ||
      (!flags.sincePath.empty() &&
       !readFileBytes(flags.sincePath, request.sinceBytes)))
    return 1;
  if (!corpus::deserializeManifest(request.manifestBytes, request.job.manifest,
                                   error)) {
    std::fprintf(stderr, "'%s': %s\n", flags.manifestPaths[0].c_str(),
                 error.c_str());
    return 1;
  }
  if (!flags.sincePath.empty() &&
      !corpus::deserializeManifest(request.sinceBytes,
                                   request.job.since.emplace(), error)) {
    std::fprintf(stderr, "'%s': %s\n", flags.sincePath.c_str(),
                 error.c_str());
    return 1;
  }
  request.job.root = flags.rootOverride;
  request.job.options = optionsFor(flags);
  request.job.shard = flags.shard;
  request.progress = flags.progress;

  driver::BatchReport report;
  std::string reportBytes;
  if (int rc = backend->runManifest(request, report, reportBytes))
    return rc;
  printReport(report);
  if (!flags.reportPath.empty() &&
      !writeFileBytes(flags.reportPath, reportBytes))
    return 1;
  return report.stats.failures == 0 ? 0 : 1;
}

int cmdBatch(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags))
    return 2;
  if (flags.has(kManifest))
    return runManifestCommand(flags, args);
  if (args.empty())
    return 2;
  auto backend =
      selectBackend(flags, "batch", kCompileFlags, kLocalFlags,
                    batchOptionsFor(flags, flags.threads));
  if (!backend)
    return 2;
  std::vector<core::AnalysisSpec> specs;
  if (!loadSpecs(args, flags, core::kArtifactDefault, specs))
    return 1;
  std::vector<core::Artifacts> results;
  driver::BatchStats stats;
  if (int rc = runTimed(*backend, specs, results, stats))
    return rc;
  return printResults(results, stats, backend->where(), false) ? 0 : 1;
}

/// The Table I suite plus the fig-series workloads.
std::vector<core::AnalysisSpec> coverageSuiteSpecs(const CommonFlags &flags) {
  std::vector<core::AnalysisSpec> specs;
  const auto add = [&](std::string name, std::string source) {
    core::AnalysisSpec spec;
    spec.name = std::move(name);
    spec.source = std::move(source);
    spec.options = optionsFor(flags);
    spec.artifacts = core::kArtifactCoverage | core::kArtifactDiagnostics;
    specs.push_back(std::move(spec));
  };
  for (const auto &kernel : workloads::coverageSuite())
    add(kernel.name, kernel.source);
  for (const auto &workload : workloads::figSeriesWorkloads())
    add("@" + workload.name, *workload.source);
  return specs;
}

int cmdCoverage(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags))
    return 2;
  auto backend = selectBackend(flags, "coverage", kCompileFlags, kLocalFlags,
                               batchOptionsFor(flags, flags.threads));
  if (!backend)
    return 2;
  // No sources: the paper's suite, compared against Table I.
  const bool suite = args.empty();
  std::vector<core::AnalysisSpec> specs;
  if (suite)
    specs = coverageSuiteSpecs(flags);
  else if (!loadSpecs(args, flags,
                      core::kArtifactCoverage | core::kArtifactDiagnostics,
                      specs))
    return 1;
  std::vector<core::Artifacts> results;
  driver::BatchStats stats;
  if (int rc = runTimed(*backend, specs, results, stats))
    return rc;
  if (suite)
    printCoverageTable(results);
  return printResults(results, stats, backend->where(), true) ? 0 : 1;
}

int cmdSimulate(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  if (flags.sim.function.empty()) {
    std::fprintf(stderr, "simulate requires --function NAME\n");
    return 2;
  }
  auto backend = selectBackend(flags, "simulate", kCompileFlags | kSimFlags,
                               kLocalFlags & ~kThreads,
                               batchOptionsFor(flags, 1));
  if (!backend)
    return 2;
  std::vector<core::AnalysisSpec> specs;
  if (!loadSpecs(args, flags,
                 core::kArtifactSimulation | core::kArtifactDiagnostics, specs))
    return 1;
  std::vector<core::Artifacts> results;
  if (int rc = backend->run(specs, results))
    return rc;
  const core::Artifacts &artifacts = results[0];
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

// ---------------------------------------------------------- manifests

/// One diff listing. Returns the differing-path count.
std::size_t printManifestDiff(const corpus::ManifestDiff &diff) {
  for (const auto &entry : diff.added)
    std::printf("added     %s (%016llx, %llu bytes)\n", entry.path.c_str(),
                static_cast<unsigned long long>(entry.contentHash),
                static_cast<unsigned long long>(entry.size));
  for (const auto &entry : diff.changed)
    std::printf("changed   %s (%016llx, %llu bytes)\n", entry.path.c_str(),
                static_cast<unsigned long long>(entry.contentHash),
                static_cast<unsigned long long>(entry.size));
  for (const auto &path : diff.removed)
    std::printf("removed   %s\n", path.c_str());
  std::printf("manifest diff: %zu added, %zu changed, %zu removed\n",
              diff.added.size(), diff.changed.size(), diff.removed.size());
  return diff.added.size() + diff.changed.size() + diff.removed.size();
}

int cmdManifest(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.empty())
    return 2;
  const std::string action = args[0];
  args.erase(args.begin());
  std::string error;

  if (action == "build") {
    if (!onlyFlags(flags, kOut | kExt, "manifest build") || args.size() != 1)
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
    if (!onlyFlags(flags, 0, "manifest diff") || args.size() != 2)
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
    return printManifestDiff(corpus::diffManifests(oldManifest, newManifest)) ==
                   0
               ? 0
               : 1;
  }

  if (action == "merge") {
    if (!onlyFlags(flags, kOut, "manifest merge") || args.empty())
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

// -------------------------------------------------------------- cache

int cmdCache(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  const std::uint64_t prune = args[0] == "prune" ? kManifest : 0;
  if (!onlyFlags(flags, kCacheDir | kCacheLimit | prune, "cache " + args[0]))
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

    // Per-artifact byte breakdown over every entry (peek: no LRU bump).
    // Programs are never stored — they come back through
    // recompile-on-demand handles — so their column is zero by design.
    std::size_t failureEntries = 0;
    std::uint64_t modelBytes = 0, coverageBytes = 0, diagnosticsBytes = 0;
    for (std::uint64_t key : store.keys()) {
      auto payload = store.peek(key);
      driver::ArtifactPayloadSizes sizes;
      // Skip another schema version, or a race with a writer.
      if (!payload || !driver::measureArtifactPayload(*payload, sizes))
        continue;
      failureEntries += sizes.ok ? 0 : 1;
      diagnosticsBytes += sizes.diagnosticsBytes;
      coverageBytes += sizes.coverageBytes;
      modelBytes += sizes.modelBytes;
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
    // option flags (core::OptionFlags), so a directory serving several
    // configurations of the same corpus survives one prune intact.
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
              entry.contentHash, core::unpackOptions(bits)));
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

/// A daemon's registry samples by name, as %llu prints them. A name the
/// daemon never set reads 0: the disk gauges of a daemon without
/// --cache-dir.
std::map<std::string, unsigned long long>
samplesByName(const std::vector<server::MetricSample> &samples) {
  std::map<std::string, unsigned long long> values;
  for (const server::MetricSample &sample : samples)
    values.emplace(sample.name, sample.value);
  return values;
}

int cmdServe(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || !args.empty())
    return 2;
  if (!onlyFlags(flags,
                 kSocket | kListen | kSecret | kThreads | kCacheDir |
                     kCacheLimit | kMaxInflight | kDrainTimeout | kMetricsFile,
                 "serve"))
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

  std::map<std::string, unsigned long long> m =
      samplesByName(daemon.metricsSamples());
  g_serverStopFd = -1;
  std::printf("daemon stopped: %llu requests over %llu connections, "
              "%llu analyses (%llu cache hits / %llu computed)\n",
              m["server_requests_served_total"],
              m["server_connections_accepted_total"],
              m["server_sources_analyzed_total"], m["server_cache_hits_total"],
              m["server_computed_total"]);
  return 0;
}

/// `mira-cli client`: daemon administration. Analysis goes through the
/// analysis commands with --socket/--connect instead.
int cmdClient(std::vector<std::string> args) {
  CommonFlags flags;
  if (!parseFlags(args, flags) || args.size() != 1)
    return 2;
  const std::string action = args[0];
  if (action != "ping" && action != "shutdown" && action != "cache-stats" &&
      action != "metrics") {
    std::fprintf(stderr, "unknown client action '%s'\n", action.c_str());
    return 2;
  }
  if (!flags.has(kSocket | kConnect)) {
    std::fprintf(stderr,
                 "client requires --socket PATH or --connect HOST:PORT\n");
    return 2;
  }
  auto daemon = selectDaemon(flags, "client", 0);
  if (!daemon)
    return 2;
  if (int rc = daemon->connect())
    return rc;
  server::Client &client = daemon->client();

  if (action == "ping") {
    if (!client.ping())
      return daemon->failure();
    std::printf("daemon at %s is alive\n", daemon->endpoint().c_str());
    return 0;
  }

  if (action == "shutdown") {
    if (!client.shutdownServer())
      return daemon->failure();
    std::printf("daemon at %s acknowledged shutdown\n",
                daemon->endpoint().c_str());
    return 0;
  }

  std::vector<server::MetricSample> samples;
  if (!client.metrics(samples))
    return daemon->failure();
  if (action == "metrics") {
    // Same names and `mira_` prefix as the --metrics-file dump; the
    // wire reply does not carry the counter/gauge kind, so no # TYPE
    // comment lines here.
    for (const server::MetricSample &sample : samples)
      std::printf("mira_%s %llu\n", sample.name.c_str(),
                  static_cast<unsigned long long>(sample.value));
    return 0;
  }

  // cache-stats: a summary of the same reply; docs/SERVING.md,
  // "Monitoring", maps each line to its registry names.
  std::map<std::string, unsigned long long> m = samplesByName(samples);
  std::printf("uptime          : %.1f s\n",
              static_cast<double>(m["server_uptime_micros"]) / 1e6);
  std::printf("connections     : %llu\n",
              m["server_connections_accepted_total"]);
  std::printf("requests served : %llu\n", m["server_requests_served_total"]);
  std::printf("analyze         : %llu\n", m["server_analyze_requests_total"]);
  std::printf("coverage / sim  : %llu / %llu (%llu recompiles)\n",
              m["server_coverage_requests_total"],
              m["server_simulate_requests_total"],
              m["server_recompiles_total"]);
  std::printf("sources analyzed: %llu (%llu cache hits, %llu computed, "
              "%llu failed)\n",
              m["server_sources_analyzed_total"], m["server_cache_hits_total"],
              m["server_computed_total"], m["server_failures_total"]);
  std::printf("protocol errors : %llu\n", m["server_protocol_errors_total"]);
  std::printf("memory entries  : %llu\n", m["server_cache_memory_entries"]);
  std::printf("disk cache      : %llu hit / %llu miss, %llu stored, "
              "%llu entries, %llu bytes (%s)\n",
              m["analyzer_disk_hits_total"], m["analyzer_disk_misses_total"],
              m["analyzer_disk_stores_total"], m["server_disk_entries"],
              m["server_disk_bytes"],
              formatBytes(m["server_disk_bytes"]).c_str());
  std::printf("session threads : %llu\n", m["server_threads"]);
  return 0;
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
  if (result == kExitTrouble)
    return 2; // specific message already printed; no usage dump
  return result == 2 ? usage(argv[0]) : result;
}
