#include "fleet/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "corpus/manifest.h"
#include "server/client.h"
#include "support/file_io.h"

namespace mira::fleet {

namespace {

/// A shard failing this many leases gives up and fails the run (a
/// backstop against a poisoned shard consuming the fleet forever).
constexpr std::size_t kMaxAttemptsPerShard = 5;
/// Consecutive failed connects after which a worker is declared dead.
constexpr std::size_t kMaxConnectFailures = 2;

/// One shard's place in the lease state machine.
enum class ShardPhase { pending, leased, done };

struct ShardState {
  ShardPhase phase = ShardPhase::pending;
  /// Epoch of the current (or most recently issued) lease. Bumped on
  /// every issue *and* on every expiry/failure repool, so a reply from
  /// a superseded lease can never match and exactly one reply per
  /// shard is accepted.
  std::uint64_t epoch = 0;
  std::size_t attempts = 0;
  /// Workers that have ever held a lease on this shard. Re-issues
  /// prefer workers outside this set so a re-run lands on a cold cache
  /// and reproduces the canonical cold-run report bytes.
  std::set<std::size_t> attemptedBy;
  std::string reportBytes; ///< accepted reply; meaningful when done
};

/// The lease a worker thread currently holds. `lastBeatMillis` is the
/// heartbeat cell the progress callback bumps from the worker thread
/// while the monitor reads it — atomic, everything else under the
/// fleet mutex.
struct LeaseSlot {
  bool active = false;
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  std::atomic<std::int64_t> lastBeatMillis{0};
};

struct FleetMetrics {
  core::MetricsRegistry::Counter &issued;
  core::MetricsRegistry::Counter &reissued;
  core::MetricsRegistry::Counter &expired;
  core::MetricsRegistry::Counter &fenced;
  core::MetricsRegistry::Counter &workerFailures;
  core::MetricsRegistry::Counter &shardsCompleted;
  core::MetricsRegistry::Gauge &workersAlive;
  core::MetricsRegistry::Gauge &shardsPending;

  explicit FleetMetrics(core::MetricsRegistry &registry)
      : issued(registry.counter("fleet_leases_issued_total")),
        reissued(registry.counter("fleet_leases_reissued_total")),
        expired(registry.counter("fleet_leases_expired_total")),
        fenced(registry.counter("fleet_leases_fenced_total")),
        workerFailures(registry.counter("fleet_worker_failures_total")),
        shardsCompleted(registry.counter("fleet_shards_completed_total")),
        workersAlive(registry.gauge("fleet_workers_alive")),
        shardsPending(registry.gauge("fleet_shards_pending")) {}
};

/// Shared run state. The mutex guards everything except the heartbeat
/// cells; the cv wakes idle workers when a shard becomes available and
/// the main thread when the run resolves.
struct FleetState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<ShardState> shards;
  std::vector<LeaseSlot> slots; // one per worker; never resized
  std::size_t shardsRemaining = 0;
  std::size_t workersAlive = 0;
  std::uint64_t nextEpoch = 1;
  bool anyWorkerConnected = false;
  bool failed = false;
  CoordinatorStatus failStatus = CoordinatorStatus::transportFailed;
  std::string failError;
  bool stopMonitor = false;
};

class Coordinator {
public:
  Coordinator(const CoordinatorOptions &options,
              core::MetricsRegistry &registry)
      : options_(options), registry_(registry), metrics_(registry),
        started_(std::chrono::steady_clock::now()) {}

  CoordinatorResult run();

private:
  std::int64_t nowMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - started_)
        .count();
  }

  void event(const std::string &line) const {
    if (options_.onEvent)
      options_.onEvent(line);
  }

  void refreshGauges() {
    metrics_.workersAlive.set(state_.workersAlive);
    metrics_.shardsPending.set(state_.shardsRemaining);
  }

  /// Atomically (re)write options_.metricsFile; true when it was written
  /// or none is configured.
  bool writeMetricsFile() const {
    return options_.metricsFile.empty() ||
           replaceFile(options_.metricsFile, registry_.renderText());
  }

  /// Is shard `i` leasable by worker `w` right now? Prefer workers that
  /// never attempted it; once every live worker has (approximated by
  /// comparing set size against the alive count), anyone may retry —
  /// a documented degradation that favors progress over placement.
  bool eligible(std::size_t i, std::size_t w) const {
    const ShardState &shard = state_.shards[i];
    if (shard.phase != ShardPhase::pending)
      return false;
    return shard.attemptedBy.count(w) == 0 ||
           shard.attemptedBy.size() >= state_.workersAlive;
  }

  bool anyEligible(std::size_t w) const {
    for (std::size_t i = 0; i < state_.shards.size(); ++i)
      if (eligible(i, w))
        return true;
    return false;
  }

  /// Declare worker `w` dead (under the lock). When the last worker
  /// dies with shards outstanding the whole run fails.
  void workerDied(std::size_t w, const std::string &why) {
    metrics_.workerFailures.increment();
    --state_.workersAlive;
    refreshGauges();
    event("worker " + workerName(w) + " dead: " + why);
    if (state_.workersAlive == 0 && state_.shardsRemaining > 0 &&
        !state_.failed) {
      state_.failed = true;
      state_.failStatus = state_.anyWorkerConnected
                              ? CoordinatorStatus::transportFailed
                              : CoordinatorStatus::connectFailed;
      state_.failError = "all workers failed with " +
                         std::to_string(state_.shardsRemaining) +
                         " shard(s) outstanding (last: " + why + ")";
    }
    // Eligibility depends on the alive count; re-check waiters either way.
    state_.cv.notify_all();
  }

  /// Return a failed/expired shard to the pool under a bumped epoch, or
  /// fail the run when its attempt budget is spent.
  void repoolShard(std::size_t i, server::Client::ErrorKind kind,
                   const std::string &why) {
    ShardState &shard = state_.shards[i];
    if (shard.attempts >= kMaxAttemptsPerShard) {
      if (!state_.failed) {
        state_.failed = true;
        state_.failStatus = kind == server::Client::ErrorKind::daemon
                                ? CoordinatorStatus::daemonFailed
                                : CoordinatorStatus::transportFailed;
        state_.failError = "shard " + std::to_string(i + 1) + "/" +
                           std::to_string(state_.shards.size()) +
                           " gave up after " +
                           std::to_string(shard.attempts) +
                           " lease(s): " + why;
      }
    } else {
      shard.phase = ShardPhase::pending;
      shard.epoch = state_.nextEpoch++; // fence the superseded lease
    }
    state_.cv.notify_all();
  }

  std::string workerName(std::size_t w) const {
    const WorkerEndpoint &endpoint = options_.workers[w];
    return endpoint.host + ":" + std::to_string(endpoint.port);
  }

  void workerLoop(std::size_t w);
  void monitorLoop();

  const CoordinatorOptions &options_;
  core::MetricsRegistry &registry_;
  FleetMetrics metrics_;
  const std::chrono::steady_clock::time_point started_;
  std::size_t shardCount_ = 0;
  FleetState state_;
};

void Coordinator::workerLoop(std::size_t w) {
  server::Client client;
  client.setConnectTimeoutMillis(options_.connectTimeoutMillis);
  // Backstop well past the lease timeout: a reply from a stalled daemon
  // should be *received* and fenced (proving the epoch check), not
  // dropped on a tight read timeout; only a truly hung daemon trips it.
  client.setReadTimeoutMillis(
      static_cast<int>(options_.leaseTimeoutMillis) * 10);
  client.setSecret(options_.secret);
  const WorkerEndpoint &endpoint = options_.workers[w];
  LeaseSlot &slot = state_.slots[w];
  std::size_t consecutiveConnectFailures = 0;

  for (;;) {
    if (!client.connected()) {
      if (!client.connectTcp(endpoint.host, endpoint.port)) {
        ++consecutiveConnectFailures;
        std::unique_lock<std::mutex> lock(state_.mutex);
        if (state_.failed || state_.shardsRemaining == 0)
          return;
        if (consecutiveConnectFailures >= kMaxConnectFailures) {
          workerDied(w, client.lastError());
          return;
        }
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        continue;
      }
      consecutiveConnectFailures = 0;
      std::lock_guard<std::mutex> lock(state_.mutex);
      state_.anyWorkerConnected = true;
    }

    // Acquire a lease (or learn the run is over).
    std::size_t shardIndex = 0;
    std::uint64_t epoch = 0;
    {
      std::unique_lock<std::mutex> lock(state_.mutex);
      state_.cv.wait(lock, [&] {
        return state_.failed || state_.shardsRemaining == 0 || anyEligible(w);
      });
      if (state_.failed || state_.shardsRemaining == 0)
        return;
      // Lowest-index eligible shard, un-attempted ones first.
      std::size_t pick = state_.shards.size();
      for (std::size_t i = 0; i < state_.shards.size(); ++i) {
        if (!eligible(i, w))
          continue;
        if (state_.shards[i].attemptedBy.count(w) == 0) {
          pick = i;
          break;
        }
        if (pick == state_.shards.size())
          pick = i;
      }
      ShardState &shard = state_.shards[pick];
      shard.phase = ShardPhase::leased;
      shard.epoch = state_.nextEpoch++;
      shard.attempts++;
      shard.attemptedBy.insert(w);
      shardIndex = pick;
      epoch = shard.epoch;
      slot.active = true;
      slot.shard = pick;
      slot.epoch = epoch;
      slot.lastBeatMillis.store(nowMillis(), std::memory_order_relaxed);
      metrics_.issued.increment();
      if (shard.attempts > 1)
        metrics_.reissued.increment();
      event("lease: shard " + std::to_string(pick + 1) + "/" +
            std::to_string(shardCount_) + " epoch " + std::to_string(epoch) +
            " -> worker " + workerName(w) + " (attempt " +
            std::to_string(shard.attempts) + ")");
    }

    // Execute the lease: the shard travels as an ordinary ManifestBatch
    // request; its progress frames double as the lease heartbeat.
    driver::ShardSpec spec;
    spec.index = shardIndex;
    spec.count = shardCount_;
    std::string reportBytes;
    const bool ok = client.manifestBatch(
        options_.manifestBytes, options_.sinceBytes, options_.root, spec,
        options_.options,
        [&](const server::BatchProgress &) {
          slot.lastBeatMillis.store(nowMillis(), std::memory_order_relaxed);
        },
        reportBytes);

    // Resolve it under the lock: the epoch decides whether this reply
    // is current or a fenced straggler from a superseded lease.
    {
      std::lock_guard<std::mutex> lock(state_.mutex);
      slot.active = false;
      ShardState &shard = state_.shards[shardIndex];
      const bool current =
          shard.phase == ShardPhase::leased && shard.epoch == epoch;
      if (!current) {
        metrics_.fenced.increment();
        event("fenced: shard " + std::to_string(shardIndex + 1) + " epoch " +
              std::to_string(epoch) + " superseded; reply from worker " +
              workerName(w) + " discarded");
      } else if (ok) {
        shard.phase = ShardPhase::done;
        shard.reportBytes = std::move(reportBytes);
        --state_.shardsRemaining;
        metrics_.shardsCompleted.increment();
        refreshGauges();
        event("done: shard " + std::to_string(shardIndex + 1) + "/" +
              std::to_string(shardCount_) + " epoch " +
              std::to_string(epoch) + " from worker " + workerName(w));
        if (state_.shardsRemaining == 0)
          state_.cv.notify_all();
      } else {
        event("failed: shard " + std::to_string(shardIndex + 1) + " epoch " +
              std::to_string(epoch) + " on worker " + workerName(w) + ": " +
              client.lastError());
        repoolShard(shardIndex, client.lastErrorKind(), client.lastError());
      }
      if (state_.failed || state_.shardsRemaining == 0)
        return;
    }
    if (!ok) {
      // The connection is suspect (EOF, timeout, or the daemon closed
      // after an Error); start the next lease on a fresh one.
      client.disconnect();
    }
  }
}

void Coordinator::monitorLoop() {
  const auto tick = std::chrono::milliseconds(
      std::max<std::uint32_t>(50, options_.leaseTimeoutMillis / 4));
  std::unique_lock<std::mutex> lock(state_.mutex);
  for (;;) {
    state_.cv.wait_for(lock, tick, [&] { return state_.stopMonitor; });
    if (state_.stopMonitor)
      return;
    const std::int64_t now = nowMillis();
    for (std::size_t w = 0; w < state_.slots.size(); ++w) {
      LeaseSlot &slot = state_.slots[w];
      if (!slot.active)
        continue;
      const std::int64_t beat =
          slot.lastBeatMillis.load(std::memory_order_relaxed);
      if (now - beat <= static_cast<std::int64_t>(options_.leaseTimeoutMillis))
        continue;
      ShardState &shard = state_.shards[slot.shard];
      if (shard.phase == ShardPhase::leased && shard.epoch == slot.epoch) {
        metrics_.expired.increment();
        event("expired: shard " + std::to_string(slot.shard + 1) +
              " epoch " + std::to_string(slot.epoch) + " on worker " +
              workerName(w) + " (no heartbeat for " +
              std::to_string(now - beat) + " ms)");
        repoolShard(slot.shard, server::Client::ErrorKind::transport,
                    "lease heartbeat timed out");
      }
      slot.active = false; // its worker thread will fence its own reply
    }
    refreshGauges();
    writeMetricsFile();
  }
}

CoordinatorResult Coordinator::run() {
  CoordinatorResult result;
  if (options_.workers.empty()) {
    result.status = CoordinatorStatus::connectFailed;
    result.error = "no workers configured";
    return result;
  }
  // Validate the manifest blobs locally before shipping them N times; a
  // corrupt manifest is the coordinator's own input error, not a worker
  // problem, and retrying it elsewhere could never succeed.
  corpus::Manifest manifest;
  std::string manifestError;
  if (!corpus::deserializeManifest(options_.manifestBytes, manifest,
                                   manifestError)) {
    result.status = CoordinatorStatus::daemonFailed;
    result.error = "invalid manifest: " + manifestError;
    return result;
  }
  if (!options_.sinceBytes.empty()) {
    corpus::Manifest since;
    if (!corpus::deserializeManifest(options_.sinceBytes, since,
                                     manifestError)) {
      result.status = CoordinatorStatus::daemonFailed;
      result.error = "invalid --since manifest: " + manifestError;
      return result;
    }
  }

  shardCount_ = options_.shardCount ? options_.shardCount
                                    : options_.workers.size();
  state_.shards = std::vector<ShardState>(shardCount_);
  state_.slots = std::vector<LeaseSlot>(options_.workers.size());
  state_.shardsRemaining = shardCount_;
  state_.workersAlive = options_.workers.size();
  refreshGauges();
  // The first write is the check that the file can be written at all:
  // an unwritable one stops the run before any lease.
  if (!writeMetricsFile()) {
    result.status = CoordinatorStatus::daemonFailed;
    result.error =
        "cannot write metrics file '" + options_.metricsFile + "'";
    return result;
  }
  event("fleet: " + std::to_string(options_.workers.size()) + " worker(s), " +
        std::to_string(shardCount_) + " shard(s), lease timeout " +
        std::to_string(options_.leaseTimeoutMillis) + " ms");

  std::vector<std::thread> workers;
  workers.reserve(options_.workers.size());
  for (std::size_t w = 0; w < options_.workers.size(); ++w)
    workers.emplace_back([this, w] { workerLoop(w); });
  std::thread monitor([this] { monitorLoop(); });

  for (std::thread &thread : workers)
    thread.join();
  {
    std::lock_guard<std::mutex> lock(state_.mutex);
    state_.stopMonitor = true;
    state_.cv.notify_all();
  }
  monitor.join();

  if (state_.failed) {
    result.status = state_.failStatus;
    result.error = state_.failError;
    writeMetricsFile();
    return result;
  }

  // Merge the per-shard reports exactly as `mira-cli manifest merge`
  // would: deserialize, fold, re-serialize — byte-identical to the
  // 1-process local run by the shard-disjointness + merge contract.
  std::vector<driver::BatchReport> parts;
  parts.reserve(shardCount_);
  for (std::size_t i = 0; i < shardCount_; ++i) {
    driver::BatchReport part;
    std::string error;
    if (!driver::deserializeBatchReport(state_.shards[i].reportBytes, part,
                                        error)) {
      result.status = CoordinatorStatus::transportFailed;
      result.error =
          "shard " + std::to_string(i + 1) + " report corrupt: " + error;
      writeMetricsFile();
      return result;
    }
    parts.push_back(std::move(part));
  }
  result.report = driver::mergeBatchReports(parts);
  result.reportBytes = driver::serializeBatchReport(result.report);
  result.status = CoordinatorStatus::ok;
  writeMetricsFile();
  return result;
}

} // namespace

CoordinatorResult runCoordinator(const CoordinatorOptions &options,
                                 core::MetricsRegistry &metrics) {
  Coordinator coordinator(options, metrics);
  return coordinator.run();
}

bool parseWorkerList(const std::string &spec,
                     std::vector<WorkerEndpoint> &workers,
                     std::string &error) {
  workers.clear();
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos)
      end = spec.size();
    const std::string part = spec.substr(begin, end - begin);
    if (!part.empty()) {
      WorkerEndpoint endpoint;
      if (!net::parseHostPort(part, endpoint.host, endpoint.port, error))
        return false;
      if (endpoint.port == 0) {
        error = "worker endpoint '" + part + "' needs an explicit port";
        return false;
      }
      workers.push_back(std::move(endpoint));
    }
    begin = end + 1;
  }
  if (workers.empty()) {
    error = "no worker endpoints in '" + spec + "'";
    return false;
  }
  return true;
}

} // namespace mira::fleet
