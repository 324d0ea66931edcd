/// \file
/// Environment-driven fault injection for crash/fault-tolerance tests.
///
/// Production code marks a handful of interesting failure sites with a
/// named hook (`fault::hit("cache-write")`). When the MIRA_FAULT
/// environment variable is unset — always, outside the test harness —
/// a hook is one relaxed atomic load. When set, it arms specific sites
/// to fail, crash (SIGKILL self), or stall on their Nth execution, so
/// tests/fault_injection_test.cpp can deterministically kill a daemon
/// mid-batch, fail the Nth cache write, or freeze a frame write without
/// sleeping and hoping.
///
/// Spec grammar (comma-separated rules):
///
///     MIRA_FAULT=site:action:N[+][:durationMs][,site:action:N...]
///
///   - `site`   — the hook name. Current sites: `cache-write`
///                (CacheStore::store), `compute`
///                (BatchAnalyzer::computeValue), `frame-write`
///                (net::writeFrame), `thread-start` (each worker
///                ThreadPool::submit starts).
///   - `action` — `fail` (hook reports failure to its caller), `crash`
///                (raise SIGKILL, simulating kill -9 / power loss at
///                exactly that point), `stall` (sleep durationMs, then
///                proceed normally — default 2000).
///   - `N`      — 1-based hit ordinal that triggers the action. A
///                trailing `+` arms the Nth and every later hit.
///
/// Example: `MIRA_FAULT=cache-write:fail:2+` fails every cache write
/// from the second on; `MIRA_FAULT=compute:crash:3` SIGKILLs the
/// process the third time a value is computed. Counters are process-
/// global and thread-safe; the spec is parsed once per process, so a
/// forked daemon inherits its faults through the environment.
#pragma once

namespace mira::fault {

/// What a triggered injection point asks of its caller.
enum class Action {
  none, ///< not armed (or a stall that already slept): proceed normally
  fail, ///< caller should take its failure path (e.g. return false)
};

/// Count one execution of injection point `site` and return the action
/// the caller must take. `crash` rules never return; `stall` rules
/// sleep here and then return Action::none.
Action hit(const char *site);

/// Convenience for boolean failure sites: true when this hit of `site`
/// should fail.
inline bool shouldFail(const char *site) { return hit(site) == Action::fail; }

/// True when MIRA_FAULT armed at least one rule for this process (used
/// by hot paths that want to skip even the site-name comparison).
bool armed();

} // namespace mira::fault
