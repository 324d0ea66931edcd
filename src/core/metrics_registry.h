/// \file
/// One shared registry of named monotonic counters and gauges.
///
/// A counter or gauge is registered exactly once by name, and every
/// layer that shares a registry (the daemon and the batch analyzer
/// behind it) bumps the same cell. Every view renders from one snapshot
/// of it: the Metrics wire reply, the --metrics-file text dump, and
/// `mira-cli client metrics` and `client cache-stats`, which both print
/// that reply. The views therefore cannot disagree by construction. A
/// new number is a new name here, never a new field in a fixed wire
/// layout.
///
/// Concurrency: counter()/gauge() registration takes a mutex; the
/// returned references are stable for the registry's lifetime, and all
/// reads/writes through them are relaxed atomics — hot paths never lock.
/// snapshot() locks only to walk the name table.
///
/// Naming: lowercase `[a-z0-9_]` names in the Prometheus idiom —
/// monotonic counters end in `_total` ("server_requests_served_total"),
/// gauges name a current level ("server_memory_entries"). renderText()
/// emits the standard exposition format with every name prefixed
/// `mira_`, one `# TYPE` line per sample.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mira::core {

/// Registry of named monotonic counters and gauges shared by the batch
/// analyzer, the daemon, and every metrics view.
class MetricsRegistry {
public:
  /// Monotonically increasing counter. Never reset; an interval's count
  /// is the difference of two snapshots.
  class Counter {
  public:
    void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    void increment() { add(1); }
    std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    Counter() = default;
    std::atomic<std::uint64_t> value_{0};
  };

  /// Last-write-wins level (cache occupancy, in-flight requests). Owners
  /// refresh gauges before a snapshot is taken.
  class Gauge {
  public:
    void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    Gauge() = default;
    std::atomic<std::uint64_t> value_{0};
  };

  /// One (name, value) pair of a snapshot; `monotonic` distinguishes
  /// counters from gauges for renderers that care (# TYPE lines).
  struct Sample {
    std::string name;
    std::uint64_t value = 0;
    bool monotonic = false;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Find-or-create the counter named `name`. The reference stays valid
  /// for the registry's lifetime; repeated calls return the same cell.
  Counter &counter(const std::string &name);

  /// Find-or-create the gauge named `name` (same stability contract).
  Gauge &gauge(const std::string &name);

  /// Point-in-time view of every registered metric, name-sorted (the
  /// map order), so equal registry states render to equal bytes.
  std::vector<Sample> snapshot() const;

  /// Render a snapshot in the Prometheus text exposition format:
  /// `# TYPE mira_<name> counter|gauge` then `mira_<name> <value>`.
  static std::string renderText(const std::vector<Sample> &samples);

  /// snapshot() + renderText() in one call.
  std::string renderText() const { return renderText(snapshot()); }

private:
  mutable std::mutex mutex_;
  // unique_ptr cells: map rebalancing must not move the atomics that
  // hot paths hold references to.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

} // namespace mira::core
