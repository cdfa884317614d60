// Design-optimization module (paper Section 3.1, "Design optimization
// module"): searches topology, conversion ratio, switching frequency, switch
// width, capacitor/inductor area allocation, interleaving, and distribution
// count under the user's constraints. Maximum conversion efficiency is the
// default target, per the paper; area and supply noise are selectable.
// Fault isolation: every sweep evaluates its candidates under per-candidate
// quarantine. A candidate whose evaluation throws (numerical failure,
// non-finite guard, injected fault) is recorded as a structured skip in the
// optional SweepReport and dropped from the results; a candidate that is
// merely infeasible (domain rejection) stays in the results with
// feasible = false. Only when *every* candidate of a sweep dies does the
// sweep itself throw — a single aggregated SweepError naming the dominant
// failure reason. Reports are merged serially in task-index order, so both
// the results and the report are byte-identical at any thread count.
#pragma once

#include <string>
#include <vector>

#include "common/outcome.hpp"
#include "core/buck_model.hpp"
#include "core/dldo_model.hpp"
#include "core/ldo_model.hpp"
#include "core/sc_model.hpp"

namespace ivory::core {

enum class IvrTopology { SwitchedCapacitor, Buck, LinearRegulator, DigitalLdo };
const char* topology_name(IvrTopology t);

enum class OptTarget { Efficiency, Area, Noise };

/// The user-facing system parameters (paper Table 1).
struct SystemParams {
  tech::Node node = tech::Node::n32;
  double area_max_m2 = 20e-6;      ///< Total IVR area budget (20 mm^2).
  double p_load_w = 20.0;          ///< Total average load power.
  double vin_v = 3.3;              ///< IVR input (board) voltage.
  double vout_v = 1.0;             ///< IVR output voltage (core nominal + margin).
  int max_distributed = 4;         ///< Max number of distributed IVRs.
  double ripple_max_v = 0.010;     ///< Static ripple budget.
  /// The GPU case study assumes a high-density capacitor process (paper
  /// Table 1 lists ~10^2 nF/mm^2-class density; Section 5.2 notes "a high
  /// capacitor density process can be used" to lift the SC area hurdle).
  tech::CapKind cap_kind = tech::CapKind::DeepTrench;
  tech::InductorKind inductor = tech::InductorKind::MagneticFilm;
};

/// SC designs hold regulation at this multiple of the average load: the
/// workload traces swing to ~2.5x their mean, and at the average load the
/// hysteretic controller skips pulses (a lower effective frequency).
inline constexpr double kPeakLoadFactor = 2.5;

/// One explored/optimized design point.
struct DseResult {
  IvrTopology topology = IvrTopology::SwitchedCapacitor;
  std::string label;          ///< e.g. "3:1 SC", "buck", "LDO", "DLDO x4".
  int n_distributed = 1;
  bool feasible = false;
  double efficiency = 0.0;
  double ripple_pp_v = 0.0;
  double f_sw_hz = 0.0;
  double area_m2 = 0.0;       ///< Total across all distributed IVRs.
  int n_interleave = 1;
  // The concrete per-IVR design (one of these is meaningful per topology).
  ScDesign sc{};
  BuckDesign buck{};
  LdoDesign ldo{};
  DldoDesign dldo{};
};

/// Optimizes one topology family for `n_distributed` IVRs sharing the load
/// and area budget equally. Returns feasible=false when no design meets the
/// constraints. When `report` is non-null, every quarantined candidate skip
/// is appended to it (also on throw, so the caller can see what died).
DseResult optimize_topology(const SystemParams& sys, IvrTopology topo, int n_distributed,
                            SweepReport* report = nullptr);

/// Full sweep: every topology x distribution count in {1, 2, ..., max}
/// (powers of two), ordered by the optimization target (best first). A sweep
/// point whose evaluation throws is omitted from the results and recorded in
/// `report`; if every point dies, throws one aggregated SweepError.
std::vector<DseResult> explore(const SystemParams& sys, OptTarget target = OptTarget::Efficiency,
                               SweepReport* report = nullptr);

/// The single best design under `target`, selected with one linear scan over
/// the raw sweep (no full sort). Skips are recorded in `report` like
/// explore(); throws InvalidParameter when no feasible design exists.
DseResult best_design(const SystemParams& sys, OptTarget target = OptTarget::Efficiency,
                      SweepReport* report = nullptr);

/// Validates the user-facing system parameters (throws InvalidParameter).
/// Shared by every sweep entry point, including the funnel in pareto.hpp.
void check_system_params(const SystemParams& sys);

/// Candidate SC ratios n:m (n <= 6, coprime) whose ideal output can regulate
/// down to vout from vin, sorted by ideal output closest to vout (highest
/// attainable efficiency first).
std::vector<std::pair<int, int>> candidate_sc_ratios(double vin_v, double vout_v);

/// Hierarchical two-stage composition (paper contribution: "hierarchical
/// composition of multi-stage on-chip and off-chip power delivery
/// networks"): a centralized first stage converts vin to an intermediate
/// rail, distributed second stages convert the rail to vout at each domain.
/// The optimizer sweeps the intermediate voltage and the area split between
/// the stages.
struct TwoStageResult {
  bool feasible = false;
  double v_mid_v = 0.0;        ///< Chosen intermediate rail.
  double area_frac_stage1 = 0.0;
  DseResult stage1;            ///< vin -> v_mid, centralized.
  DseResult stage2;            ///< v_mid -> vout, distributed n_distributed ways.
  double efficiency = 0.0;     ///< Cascade: eta1 * eta2.
};
TwoStageResult optimize_two_stage(const SystemParams& sys, int n_distributed,
                                  SweepReport* report = nullptr);

}  // namespace ivory::core
