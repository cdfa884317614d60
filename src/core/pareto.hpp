// Multi-fidelity DSE funnel (ROADMAP open item 2): cheap-screen a dense
// candidate space with closed-form static surrogates, extract the exact
// Pareto front over efficiency/area/ripple, then run the full dynamic
// (cycle + in-cycle) simulation only on the frontier.
//
// Stage boundaries:
//   1. *Screen* — millions of candidates, streamed through `parallel_for`
//      in fixed-size blocks so memory stays bounded, and walked row by row
//      inside a block. Each candidate is the exact static model: the SC
//      and buck screens call the analyzers' own O(1) evaluation kernels on
//      a part prepared once per plan, sizing each row once (an SC row's
//      regulated rates for its interleave values; buck_row, the buck
//      kernel's f_sw-free half, for buck_at at each f_sw); the small
//      LDO/DLDO spaces call the real analyzers directly. Per-candidate
//      quarantine: a candidate whose evaluation throws becomes a recorded
//      skip, never an aborted sweep.
//   2. *Extract* — exact non-dominated filtering: a bucketed sweep that
//      sorts only the points no better-efficiency bucket already dominates.
//      Block-local fronts are merged serially in block order, so the front
//      is byte-identical at any thread count. Tie-break: duplicates and
//      dominated candidates always lose to the lowest candidate index.
//   3. *Simulate* — the surviving dozens of frontier points (ranked and
//      capped on the screen's numbers, which are the exact ones) get their
//      design records from the same evaluation and are driven through the
//      combined cycle + in-cycle dynamic response on a deterministic
//      load-step trace. Each simulation flows through a bounded,
//      content-addressed cache keyed by the canonical JSON of its inputs, so
//      incremental re-exploration (one SystemParams field changed)
//      re-simulates only frontier points whose inputs actually changed.
//
// Dominance: candidate a dominates b when a is no worse in every enabled
// objective (efficiency maximized; area and ripple minimized) and strictly
// better in at least one. A candidate equal to an earlier one in every
// enabled objective is a duplicate and is dropped (earliest index kept).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/outcome.hpp"
#include "core/optimizer.hpp"

namespace ivory::core {

/// Which objectives participate in dominance. Disabling one collapses the
/// front along that axis (e.g. efficiency+area only).
struct FunnelObjectives {
  bool efficiency = true;  ///< maximized
  bool area = true;        ///< minimized
  bool ripple = true;      ///< minimized
};

/// Grid density and stage policy of the funnel. The defaults screen on the
/// order of 10^6 candidates; `scaled()` shrinks or grows every axis for
/// smoke tiers and serve requests.
struct FunnelSpec {
  // SC axes: capacitor area share x output-decap share x interleave.
  int sc_split_steps = 48;     ///< cap_frac in [0.50, 0.98]
  int sc_out_frac_steps = 12;  ///< c_out share of cap area in [0.05, 0.60]
  // Buck axes: inductor share x switch utilization x log-spaced fsw.
  int buck_l_frac_steps = 16;  ///< l_frac in [0.02, 0.70]
  int buck_util_steps = 12;    ///< sw_util in [0.03, 1.00]
  int buck_fsw_steps = 40;     ///< f_sw log-spaced in [2 MHz, 1 GHz]
  // LDO axes: decap share x pass-device drop fraction.
  int ldo_decap_steps = 48;    ///< decap share in [0.20, 0.80]
  int ldo_drop_steps = 12;     ///< fully-on drop / headroom in [0.08, 0.45]
  // DLDO axes (per bits x comparator-count variant): clock margin x decap.
  int dldo_clock_steps = 10;   ///< clock margin in [1.0, 3.0]
  int dldo_decap_steps = 8;    ///< decap share in [0.25, 0.75]
  // Hybrid delivery: IVR share of the load in [0.55, 1.0]; the remainder
  // rides an off-chip board VRM (h = 1.0 is always included).
  int hybrid_steps = 4;

  FunnelObjectives objectives;
  std::size_t front_cap = 32;      ///< keep the best-by-efficiency N points
  std::size_t block = std::size_t{1} << 14;  ///< screening block size
  bool simulate = true;            ///< run stage 3 on the frontier
  double sim_duration_s = 1e-6;    ///< load-step trace length
  double sim_dt_s = 1e-9;          ///< trace sample interval

  /// Every grid axis multiplied by `density` (minimum 2 steps per swept
  /// axis, 1 for the hybrid axis). density < 1 shrinks, > 1 refines.
  FunnelSpec scaled(double density) const;
};

/// Stage-1 fidelity metrics of one candidate (the dominance coordinates).
struct ScreenMetrics {
  double efficiency = 0.0;  ///< system efficiency (IVR + VRM share if hybrid)
  double area_m2 = 0.0;     ///< total area across distributed IVRs
  double ripple_pp_v = 0.0; ///< IVR rail static ripple
};

/// True when `a` dominates `b`: no worse in every enabled objective and
/// strictly better in at least one.
bool dominates(const ScreenMetrics& a, const ScreenMetrics& b,
               const FunnelObjectives& obj = {});

/// Exact non-dominated extraction over `pts`: returns the positions of the
/// front members in ascending position order. Duplicates keep the earliest
/// position — the result is invariant to appending dominated points and is
/// what the block-streamed screening computes incrementally.
std::vector<std::size_t> pareto_filter(const std::vector<ScreenMetrics>& pts,
                                       const FunnelObjectives& obj = {});

/// One frontier point: the candidate's screen metrics, its design record
/// (whose efficiency, area and ripple equal the screen's bit for bit), and
/// (when simulated) the dynamic load-step response.
struct ParetoPoint {
  std::uint64_t index = 0;     ///< global candidate index (the tie-break key)
  double ivr_load_frac = 1.0;  ///< hybrid delivery: IVR share of the load
  ScreenMetrics screen;
  DseResult design;            ///< the design and its exact static metrics
  bool simulated = false;
  bool sim_cached = false;     ///< stage-3 result came from the cache
  double droop_pp_v = 0.0;     ///< settled peak-to-peak of the step response
  double v_mean_v = 0.0;       ///< mean output over the settled window
};

struct FunnelStats {
  std::uint64_t n_screened = 0;   ///< stage-1 candidates evaluated
  std::uint64_t n_feasible = 0;   ///< stage-1 candidates meeting constraints
  std::uint64_t n_blocks = 0;
  std::uint64_t frontier_size = 0;
  std::uint64_t sim_cache_hits = 0;
  std::uint64_t sim_cache_misses = 0;
  double screen_s = 0.0;  ///< stage 1+2 wall time
  double sim_s = 0.0;     ///< stage 3 wall time (0 when simulate=false)
};

/// The extracted front, ordered by screen efficiency descending with the
/// candidate index as the deterministic tie-break.
struct ParetoFront {
  std::vector<ParetoPoint> points;
  FunnelStats stats;
};

/// Runs the three-stage funnel. Skips (quarantined candidates at any stage)
/// are recorded in `report`; throws an aggregated SweepError only when every
/// screened candidate died. Byte-identical at any thread count.
ParetoFront funnel_explore(const SystemParams& sys, const FunnelSpec& spec = {},
                           SweepReport* report = nullptr);

/// Entries the process-wide stage-3 simulation cache keeps (~0.4 MB of
/// canonical-JSON keys); a full cache drops all but the most recently used
/// three quarters of its entries.
inline constexpr std::size_t kFunnelSimCacheCapacity = 1024;

/// Process-wide stage-3 simulation cache introspection (the counters the
/// incremental re-exploration tests assert on).
struct FunnelCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};
FunnelCacheStats funnel_sim_cache_stats();
void funnel_sim_cache_clear();

}  // namespace ivory::core
