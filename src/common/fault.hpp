// Deterministic fault-injection harness.
//
// Tests arm named sites ("sc_static_analysis", "lu_solve", "fft",
// "cycle_model", ...) to throw NumericalError or emit NaN, either on the
// k-th hit or at a seeded probability. Instrumented code calls
// fault::inject(site) at the boundary; the fast path is one relaxed atomic
// load, so probes are always compiled in and cost nothing when disarmed.
//
// Determinism across thread counts: the thread pool wraps every top-level
// task in a fault::TaskScope, so hits are counted per (site, task) rather
// than in global arrival order, and probability decisions hash
// (seed, site, task index, within-task hit index). Nested parallel regions
// run inline on the owning task's thread and inherit its scope; code running
// outside any pool task counts hits in a shared serial stream (cleared by
// reset_hits()). Arming or disarming sites mid-sweep is not supported.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace ivory::fault {

enum class Action {
  Throw,    ///< probe throws NumericalError("fault-injection: ...")
  EmitNan,  ///< probe returns NaN for the caller to fold into its data
};

/// Arms `site` to fire exactly once, on the k-th hit (1-based) of its
/// counting stream (per pool task, or the serial stream outside tasks).
void arm_on_hit(const std::string& site, Action action, std::uint64_t k);

/// Arms `site` to fire on each hit with probability `p`, decided by a
/// deterministic hash of (seed, site, task, hit) — independent of thread
/// count and of any other armed site.
void arm_probability(const std::string& site, Action action, double p, std::uint64_t seed);

void disarm_all();

/// Clears the serial-stream hit counters of every armed site (task-scoped
/// counters reset automatically at task start). Call between repeated runs
/// that must see identical injection patterns.
void reset_hits();

bool any_armed();

/// Number of times `site` actually fired since it was armed.
std::uint64_t trip_count(const std::string& site);

namespace detail {
extern std::atomic<int> g_armed_sites;
double inject_slow(const char* site);
}  // namespace detail

/// Probe placed at instrumented boundaries. Returns 0.0 (or NaN when the
/// site fires in EmitNan mode — add it to a local value); throws in Throw
/// mode. Disarmed cost: one relaxed atomic load.
inline double inject(const char* site) {
  if (detail::g_armed_sites.load(std::memory_order_relaxed) == 0) return 0.0;
  return detail::inject_slow(site);
}

/// RAII marker the thread pool places around each top-level task so hit
/// counting is attributed to the task index, not to global arrival order.
/// No-op while nothing is armed.
class TaskScope {
 public:
  explicit TaskScope(std::uint64_t task_index);
  ~TaskScope();
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool engaged_ = false;
};

}  // namespace ivory::fault
