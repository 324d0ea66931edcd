/// \file
/// Fleet coordinator: drive a corpus manifest across worker daemons
/// over TCP, with shard leases, epoch fencing, and failover.
///
/// The coordinator is the distribution layer the manifest machinery was
/// built for: shard assignment is a pure function of (cache key, shard
/// count) (driver::keyInShard), every worker executes its shard through
/// the same ManifestBatch request a local client would send, and
/// per-shard BatchReports merge associatively (driver::mergeBatchReports)
/// — so the merged report is byte-identical to a 1-process local
/// `mira-cli batch --manifest` run, even when workers die or stall
/// mid-shard and their leases are re-issued elsewhere.
///
/// Fault model (docs/FLEET.md): each shard is handed out as a *lease*
/// stamped with a monotonically increasing epoch. BatchProgress frames
/// streamed by the worker double as heartbeats; a lease whose heartbeat
/// goes quiet past the lease timeout is expired — the shard returns to
/// the pending pool under a bumped epoch and the next free worker picks
/// it up. A late reply from a superseded lease is *fenced*: its epoch
/// no longer matches the shard's, so the bytes are discarded (exactly
/// one reply per shard is ever accepted). Re-issues prefer workers that
/// have not attempted the shard before, so a re-run lands on a cold
/// cache and reproduces the canonical cold-run report bytes.
///
/// Everything observable (leases issued/re-issued/expired/fenced,
/// worker health, shard completion) is exported through the same
/// core::MetricsRegistry / --metrics-file path the daemon uses.
/// tests/fleet_test.cpp pins the chaos/failover behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/metrics_registry.h"
#include "core/mira.h"
#include "driver/batch.h"

namespace mira::fleet {

/// One worker daemon's TCP endpoint.
struct WorkerEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Why a coordinator run ended; maps onto the client CLI exit contract
/// (docs/CLI.md): ok -> 0, daemonFailed -> 1, connectFailed -> 3,
/// transportFailed -> 4. Usage errors never reach the coordinator.
enum class CoordinatorStatus {
  ok,              ///< every shard completed and the reports merged
  connectFailed,   ///< no worker ever accepted a connection + handshake
  transportFailed, ///< a shard exhausted its attempts on transport-class
                   ///< failures (workers dying/vanishing mid-shard)
  daemonFailed,    ///< the work itself was refused — a worker's Error
                   ///< reply, an invalid manifest, an unwritable
                   ///< metrics file — which retrying elsewhere cannot fix
};

/// Coordinator configuration. The manifest travels as raw
/// corpus::serializeManifest bytes — exactly what each worker's
/// ManifestBatch request carries — so the coordinator never needs the
/// workload tree on its own filesystem.
struct CoordinatorOptions {
  std::string manifestBytes;           ///< corpus::serializeManifest bytes
  std::string sinceBytes;              ///< optional baseline; empty = full
  std::string root;                    ///< resolve override; empty = manifest's
  core::MiraOptions options;           ///< analysis options for every entry
  std::vector<WorkerEndpoint> workers; ///< at least one
  /// Shards to partition the manifest into; 0 = one per worker.
  std::size_t shardCount = 0;
  /// A leased shard whose heartbeat is older than this is expired and
  /// re-issued under a bumped epoch.
  std::uint32_t leaseTimeoutMillis = 10000;
  /// Bound on establishing each worker TCP connection.
  int connectTimeoutMillis = 5000;
  /// Shared secret for workers started with --secret; empty = none.
  std::string secret;
  /// When non-empty, rewritten (write-temp-then-rename) on every
  /// monitor tick and once at start/end with the registry's Prometheus
  /// text dump — same contract as the daemon's --metrics-file: a first
  /// write that fails ends the run (daemonFailed) before any lease.
  std::string metricsFile;
  /// Optional human-readable event stream (lease grants, expiries,
  /// fences, worker deaths); the CLI points this at stderr.
  std::function<void(const std::string &)> onEvent;
};

/// Outcome of a coordinator run.
struct CoordinatorResult {
  CoordinatorStatus status = CoordinatorStatus::transportFailed;
  /// Merged driver::serializeBatchReport bytes; byte-identical to a
  /// 1-process local run of the same manifest + options against a cold
  /// cache. Only meaningful when status == ok.
  std::string reportBytes;
  /// The decoded merged report (entry outcomes + summed stats).
  driver::BatchReport report;
  std::string error; ///< description when status != ok
};

/// Run a manifest across the fleet: lease shards to workers, heartbeat,
/// expire, fence, retry, merge. Blocks until every shard completed or
/// the run failed. Coordinator state is exported through `metrics`
/// under `fleet_*` names (and options.metricsFile when set).
CoordinatorResult runCoordinator(const CoordinatorOptions &options,
                                 core::MetricsRegistry &metrics);

/// Parse a comma-separated `host:port,host:port,...` worker list.
/// False with a description on an empty list or a malformed endpoint.
bool parseWorkerList(const std::string &spec,
                     std::vector<WorkerEndpoint> &workers,
                     std::string &error);

} // namespace mira::fleet
