#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/optimize.hpp"
#include "common/outcome.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace ivory::core {

const char* topology_name(IvrTopology t) {
  switch (t) {
    case IvrTopology::SwitchedCapacitor: return "SC";
    case IvrTopology::Buck: return "buck";
    case IvrTopology::LinearRegulator: return "LDO";
    case IvrTopology::DigitalLdo: return "DLDO";
  }
  return "?";
}

std::vector<std::pair<int, int>> candidate_sc_ratios(double vin_v, double vout_v) {
  require(vin_v > vout_v && vout_v > 0.0, "candidate_sc_ratios: need vin > vout > 0");
  std::vector<std::pair<int, int>> out;
  for (int n = 2; n <= 6; ++n) {
    for (int m = 1; m < n; ++m) {
      if (std::gcd(n, m) != 1) continue;
      const double videal = vin_v * static_cast<double>(m) / static_cast<double>(n);
      // Need headroom for the I*R_out regulation drop.
      if (videal < vout_v * 1.02) continue;
      out.emplace_back(n, m);
    }
  }
  std::sort(out.begin(), out.end(), [&](const auto& a, const auto& b) {
    return static_cast<double>(a.second) / a.first < static_cast<double>(b.second) / b.first;
  });
  return out;
}

void check_system_params(const SystemParams& sys) {
  require(sys.area_max_m2 > 0.0, "SystemParams: area budget must be positive");
  require(sys.p_load_w > 0.0, "SystemParams: load power must be positive");
  require(sys.vin_v > sys.vout_v && sys.vout_v > 0.0, "SystemParams: need vin > vout > 0");
  require(sys.max_distributed >= 1, "SystemParams: max_distributed must be >= 1");
  require(sys.ripple_max_v > 0.0, "SystemParams: ripple budget must be positive");
}

namespace {

// explore()'s sort predicate: feasible designs first, then strictly better
// under `target`. Strict-weak; stable_sort therefore keeps the serial sweep
// order on ties.
bool dse_better(const DseResult& a, const DseResult& b, OptTarget target) {
  if (a.feasible != b.feasible) return a.feasible;
  switch (target) {
    case OptTarget::Efficiency: return a.efficiency > b.efficiency;
    case OptTarget::Area: return a.area_m2 < b.area_m2;
    case OptTarget::Noise: return a.ripple_pp_v < b.ripple_pp_v;
  }
  return false;
}

// Deterministic best-point reduction: candidates arrive in a fixed index
// order (the flattened serial nesting order), and a later point replaces the
// incumbent only on a strict improvement — exactly the serial loop's rule, so
// the winner is independent of how many threads computed the candidates.
DseResult reduce_best(const std::vector<DseResult>& candidates, DseResult init) {
  DseResult best = std::move(init);
  for (const DseResult& r : candidates)
    if (r.feasible && (!best.feasible || r.efficiency > best.efficiency)) best = r;
  return best;
}

// --- Switched capacitor ------------------------------------------------------

// Consumes the quarantined per-candidate outcomes of one sweep in index
// order: survivors are collected, skips recorded in `report`. When every
// candidate died, throws the aggregated SweepError (after merging into
// `report` so the caller still sees the individual skips).
std::vector<DseResult> collect_survivors(const char* sweep,
                                         const std::vector<EvalOutcome<DseResult>>& outcomes,
                                         SweepReport& report) {
  SweepReport local;
  std::vector<DseResult> survivors;
  survivors.reserve(outcomes.size());
  for (const EvalOutcome<DseResult>& o : outcomes) {
    if (o.ok()) {
      local.record_survivor();
      survivors.push_back(o.value());
    } else {
      local.record_skip(o.diagnostics());
    }
  }
  report.merge(local);
  if (local.n_survived == 0 && local.n_evaluated > 0) throw_all_failed(sweep, local);
  return survivors;
}

DseResult optimize_sc(const SystemParams& sys, int n_dist, SweepReport& report) {
  const double area_ivr = sys.area_max_m2 / n_dist;
  const double i_ivr = sys.p_load_w / sys.vout_v / n_dist;
  const tech::CapacitorTech cap = tech::capacitor_tech(sys.node, sys.cap_kind);

  DseResult bestr;
  bestr.topology = IvrTopology::SwitchedCapacitor;
  bestr.n_distributed = n_dist;

  std::vector<std::pair<std::pair<int, int>, ScFamily>> variants;
  for (const auto& ratio : candidate_sc_ratios(sys.vin_v, sys.vout_v)) {
    // The ladder's one-rung switch stress often admits thin-oxide devices
    // where series-parallel needs thick-oxide; try both families for n:1.
    variants.push_back({ratio, ScFamily::Ladder});
    if (ratio.second == 1) variants.push_back({ratio, ScFamily::SeriesParallel});
  }

  // Every variant is an independent pure task: fan the ratio x family grid
  // out over the pool and reduce the per-variant winners in index order.
  // Each variant evaluates under quarantine — one ill-conditioned ratio
  // becomes a recorded skip, not an aborted sweep.
  const std::vector<EvalOutcome<DseResult>> variant_best =
      par::parallel_map<EvalOutcome<DseResult>>(variants.size(), [&](std::size_t vi) {
    const auto& [vratio, vfamily] = variants[vi];
    const std::string candidate = std::to_string(vratio.first) + ":" +
                                  std::to_string(vratio.second) +
                                  (vfamily == ScFamily::SeriesParallel ? " series-parallel"
                                                                       : " ladder") +
                                  " SC @ dist " + std::to_string(n_dist);
    return quarantine("optimize_sc", candidate, [&]() -> DseResult {
    const auto& [ratio, family] = variants[vi];
    const auto& [n, m] = ratio;
    ScDesign base;
    base.node = sys.node;
    base.cap_kind = sys.cap_kind;
    base.n = n;
    base.m = m;
    base.family = family;
    const ScPrepared k = prepare_sc(base, sys.vin_v);
    // The converter must hold regulation at the worst-case load peak, not
    // the average.
    const double r_needed_peak = (k.vout_ideal_v - sys.vout_v) / (kPeakLoadFactor * i_ivr);

    // At a fixed (C, G) split, peak-load regulation pins the maximum switching
    // frequency; the only free variable is the capacitor share of the area
    // budget.
    auto evaluate_split = [&](double cap_frac) -> DseResult {
      DseResult r;
      r.topology = IvrTopology::SwitchedCapacitor;
      r.n_distributed = n_dist;
      const double usable = area_ivr / kWiringOverhead;
      const double area_caps = cap_frac * usable;
      const double area_sw = (1.0 - cap_frac) * usable * 0.95;  // 5% peripheral.
      const double c_total = area_caps * cap.density_f_m2;
      ScDesign d = base;
      d.c_fly_f = 0.85 * c_total;
      d.c_out_f = 0.15 * c_total;
      d.g_tot_s = area_sw / k.area_per_s;

      // Cannot regulate: FSL floor too high.
      if (r_needed_peak <= sc_rfsl(k, d.sizing()) * 1.02) return r;
      d.f_sw_hz = sc_frequency_for(k, d.sizing(), r_needed_peak);
      if (d.f_sw_hz < 1e5 || d.f_sw_hz > 5e9) return r;  // Outside sane switching range.
      d.n_interleave = 1;

      // At the average load, pulse skipping lowers the effective frequency.
      const ScRegulated reg0 = analyze_sc_regulated(d, sys.vin_v, sys.vout_v, i_ivr);
      if (!reg0.feasible) return r;
      // Interleave to meet the ripple budget at the operating frequency.
      const double c_hf = sc_output_hf_cap(d);
      const double n_il = std::ceil(i_ivr / (reg0.f_sw_used_hz * c_hf * sys.ripple_max_v));
      d.n_interleave = static_cast<int>(std::clamp(n_il, 1.0, 64.0));
      const ScRegulated reg = analyze_sc_regulated(d, sys.vin_v, sys.vout_v, i_ivr);
      if (!reg.feasible) return r;

      const ScAnalysis& a = reg.analysis;
      r.feasible = a.ripple_pp_v <= sys.ripple_max_v * 1.05 && a.area_m2 <= area_ivr * 1.02;
      r.efficiency = a.efficiency;
      r.ripple_pp_v = a.ripple_pp_v;
      r.f_sw_hz = reg.f_sw_used_hz;
      r.area_m2 = a.area_m2 * n_dist;
      r.n_interleave = d.n_interleave;
      r.sc = d;
      r.label = std::to_string(n) + ":" + std::to_string(m) + " SC";
      return r;
    };

    // Feasibility cliffs make the objective non-unimodal: coarse grid first,
    // then a golden refinement around the best cell.
    auto objective = [&](double x) {
      const DseResult r = evaluate_split(x);
      return r.feasible ? r.efficiency : -1.0;
    };
    double best_x = 0.5, best_f = objective(0.5);
    for (int i = 1; i <= 16; ++i) {
      const double x = 0.50 + 0.48 * i / 16.0;
      const double fx = objective(x);
      if (fx > best_f) {
        best_f = fx;
        best_x = x;
      }
    }
    const ScalarOptimum opt = golden_maximize(objective, std::max(0.50, best_x - 0.03),
                                              std::min(0.98, best_x + 0.03), 1e-4);
    return evaluate_split(opt.f > best_f ? opt.x : best_x);
    });
  });
  return reduce_best(collect_survivors("optimize_sc", variant_best, report), std::move(bestr));
}

// --- Buck --------------------------------------------------------------------

DseResult optimize_buck(const SystemParams& sys, int n_dist, SweepReport& report) {
  const double area_ivr = sys.area_max_m2 / n_dist;
  const double i_ivr = sys.p_load_w / sys.vout_v / n_dist;
  BuckDesign base;
  base.node = sys.node;
  base.inductor = sys.inductor;
  base.cap_kind = sys.cap_kind;
  // The design-independent part once per sweep; every grid point runs
  // analyze_buck's kernel on it.
  const BuckPrepared k = prepare_buck(base, sys.vin_v);

  DseResult bestr;
  bestr.topology = IvrTopology::Buck;
  bestr.n_distributed = n_dist;

  const double duty0 = sys.vout_v / sys.vin_v;
  // Conduction-optimal high/low split at the nominal duty.
  const double sd = std::sqrt(duty0), si = std::sqrt(1.0 - duty0);

  // Flatten the phase x inductor-fraction x switch-utilization grid in the
  // serial nesting order; each point's frequency sweep is an independent
  // task for the pool. The area budget is a ceiling, not a quota: oversized
  // switches burn gate charge, so the switch-area utilization is itself a
  // design variable.
  std::vector<std::tuple<int, double, double>> grid;
  for (int n_phases : {2, 4, 8, 16})
    for (double l_frac : {0.02, 0.03, 0.05, 0.10, 0.18, 0.25, 0.40, 0.55, 0.70})
      for (double sw_util : {0.03, 0.07, 0.15, 0.3, 0.6, 1.0})
        grid.emplace_back(n_phases, l_frac, sw_util);

  const std::vector<EvalOutcome<DseResult>> grid_best =
      par::parallel_map<EvalOutcome<DseResult>>(grid.size(), [&](std::size_t gi) {
        const auto& [n_phases, l_frac, sw_util] = grid[gi];
        const std::string candidate = "buck " + std::to_string(n_phases) + "-phase l_frac " +
                                      std::to_string(l_frac) + " sw_util " +
                                      std::to_string(sw_util) + " @ dist " +
                                      std::to_string(n_dist);
        return quarantine("optimize_buck", candidate, [&, n_phases, l_frac, sw_util] {
          // analyze_buck's entry guards, once per grid point: a poisoned
          // load makes every grid point a quarantined skip.
          IVORY_CHECK_FINITE(sys.vin_v, "optimize_buck");
          IVORY_CHECK_FINITE(sys.vout_v, "optimize_buck");
          IVORY_CHECK_FINITE(i_ivr, "optimize_buck");
          require(i_ivr > 0.0, "optimize_buck: load current must be positive");
          DseResult r;
          r.topology = IvrTopology::Buck;
          r.n_distributed = n_dist;

          // The grid point's sizing and its f_sw-free row, once for the
          // whole frequency sweep. A degenerate sizing or an unreachable
          // duty is infeasible at every frequency.
          const double usable = area_ivr / kWiringOverhead;
          const double area_l = l_frac * usable;
          const double rest = (1.0 - l_frac) * usable;
          const double area_sw = 0.4 * rest * sw_util;
          const double area_c = 0.55 * rest;  // 5% peripheral.
          BuckDesign d = base;
          d.n_phases = n_phases;
          d.l_per_phase_h = area_l * k.ind->density_h_m2 / n_phases;
          d.c_out_f = area_c * k.cap.density_f_m2;
          const double w_total = area_sw / k.dev.area_per_w_m;
          d.w_high_m = w_total / n_phases * sd / (sd + si);
          d.w_low_m = w_total / n_phases * si / (sd + si);
          if (d.l_per_phase_h <= 0.0 || d.c_out_f <= 0.0 || d.w_high_m <= 0.0) return r;
          const BuckRow row = buck_row(k, d, sys.vout_v, i_ivr);
          if (!row.reachable) return r;
          // Require CCM: ripple current below twice the per-phase DC current.
          const double i_ripple_max = 2.0 * i_ivr / n_phases;

          // Runs the kernel at `f_sw` into `a`, followed by the analyzer's
          // exit guards, and returns whether the point is a feasible design.
          // A non-finite result throws to the quarantine; a point out of CCM
          // stays in the sweep as infeasible.
          BuckAnalysis a;
          const auto evaluate = [&](double f_sw) -> bool {
            a = buck_at(k, row, f_sw, k.ind->inductance_at(d.l_per_phase_h, f_sw));
            IVORY_CHECK_FINITE(a.efficiency, "optimize_buck");
            IVORY_CHECK_FINITE(a.ripple_pp_v, "optimize_buck");
            IVORY_CHECK_FINITE(a.area_m2, "optimize_buck");
            if (a.i_ripple_phase_a > i_ripple_max) return false;
            return a.ripple_pp_v <= sys.ripple_max_v && a.area_die_m2 <= area_ivr * 1.02;
          };
          const ScalarOptimum opt = log_grid_minimize(
              [&](double f) { return evaluate(f) ? 1.0 - a.efficiency : 2.0; }, 2e6, 1e9, 48);
          if (!evaluate(opt.x)) return r;
          d.f_sw_hz = opt.x;
          r.feasible = true;
          r.efficiency = a.efficiency;
          r.ripple_pp_v = a.ripple_pp_v;
          r.f_sw_hz = opt.x;
          r.area_m2 = a.area_m2 * n_dist;
          r.n_interleave = n_phases;
          r.buck = d;
          r.label = "buck";
          return r;
        });
      });
  return reduce_best(collect_survivors("optimize_buck", grid_best, report), std::move(bestr));
}

// --- LDO ---------------------------------------------------------------------

DseResult optimize_ldo(const SystemParams& sys, int n_dist, SweepReport& report) {
  const double area_ivr = sys.area_max_m2 / n_dist;
  const double i_ivr = sys.p_load_w / sys.vout_v / n_dist;
  const tech::CapacitorTech cap = tech::capacitor_tech(sys.node, sys.cap_kind);
  const tech::SwitchTech& core_dev = tech::switch_tech(sys.node, tech::DeviceClass::Core);
  const tech::SwitchTech& dev = sys.vin_v > core_dev.vmax_v
                                    ? tech::switch_tech(sys.node, tech::DeviceClass::Io)
                                    : core_dev;

  DseResult r;
  r.topology = IvrTopology::LinearRegulator;
  r.n_distributed = n_dist;
  r.label = "LDO";

  try {
    LdoDesign d;
    d.node = sys.node;
    d.cap_kind = sys.cap_kind;
    d.n_bits = 8;
    // Pass device sized so the fully-on drop is 20% of the available headroom.
    const double r_pass = 0.2 * (sys.vin_v - sys.vout_v) / i_ivr;
    d.w_pass_m = dev.ron_w_ohm_m / r_pass;
    // Half the area goes to output decap; clock chosen to hit the ripple
    // budget with one-LSB limit cycling.
    d.c_out_f = 0.5 * area_ivr / kWiringOverhead * cap.density_f_m2;
    const double i_lsb = (sys.vin_v - sys.vout_v) / r_pass / std::pow(2.0, d.n_bits);
    d.f_clk_hz = std::clamp(i_lsb / (0.8 * sys.ripple_max_v * d.c_out_f), 10e6, 3e9);
    d.i_quiescent_a = 0.002 * i_ivr;

    const LdoAnalysis a = analyze_ldo(d, sys.vin_v, sys.vout_v, i_ivr);
    r.feasible = a.ripple_pp_v <= sys.ripple_max_v && a.area_m2 <= area_ivr * 1.05;
    r.efficiency = a.efficiency;
    r.ripple_pp_v = a.ripple_pp_v;
    r.f_sw_hz = d.f_clk_hz;
    r.area_m2 = a.area_m2 * n_dist;
    r.ldo = d;
    report.record_survivor();
  } catch (const InvalidParameter&) {
    // Domain rejection (e.g. pass device too narrow): the candidate stays in
    // the sweep as infeasible. The previous catch here was the only one, so
    // a NumericalError used to unwind through the whole explore() sweep.
    report.record_survivor();
  } catch (...) {
    SweepReport local;
    local.record_skip(diagnose_current_exception(
        "optimize_ldo", "LDO @ dist " + std::to_string(n_dist)));
    report.merge(local);
    // The LDO sweep has exactly one candidate, so its death is by definition
    // the every-candidate-died case.
    throw_all_failed("optimize_ldo", local);
  }
  return r;
}

// --- Digital LDO -------------------------------------------------------------

DseResult optimize_dldo(const SystemParams& sys, int n_dist, SweepReport& report) {
  const double area_ivr = sys.area_max_m2 / n_dist;
  const double i_ivr = sys.p_load_w / sys.vout_v / n_dist;
  const tech::CapacitorTech cap = tech::capacitor_tech(sys.node, sys.cap_kind);
  const tech::SwitchTech& core_dev = tech::switch_tech(sys.node, tech::DeviceClass::Core);
  const tech::SwitchTech& dev = sys.vin_v > core_dev.vmax_v
                                    ? tech::switch_tech(sys.node, tech::DeviceClass::Io)
                                    : core_dev;

  DseResult bestr;
  bestr.topology = IvrTopology::DigitalLdo;
  bestr.n_distributed = n_dist;

  // Quantization and interleaving trade ripple against comparator power:
  // more bits shrink the LSB current, more comparator slices raise the
  // decision rate — either way the limit cycle gets smaller while the
  // peripheral clock tree burns more. Sweep the small grid under quarantine.
  std::vector<std::pair<int, int>> grid;
  for (int bits : {6, 7, 8, 9})
    for (int n_comp : {1, 2, 4, 8}) grid.emplace_back(bits, n_comp);

  const std::vector<EvalOutcome<DseResult>> grid_best =
      par::parallel_map<EvalOutcome<DseResult>>(grid.size(), [&](std::size_t gi) {
        const auto& [bits, n_comp] = grid[gi];
        const std::string candidate = "DLDO " + std::to_string(bits) + "b x" +
                                      std::to_string(n_comp) + " @ dist " +
                                      std::to_string(n_dist);
        return quarantine("optimize_dldo", candidate, [&, bits, n_comp]() -> DseResult {
          DseResult r;
          r.topology = IvrTopology::DigitalLdo;
          r.n_distributed = n_dist;

          DldoDesign d;
          d.node = sys.node;
          d.cap_kind = sys.cap_kind;
          d.n_bits = bits;
          d.n_comparators = n_comp;
          // Pass array sized so the fully-on drop is 20% of the headroom;
          // half the area goes to output decap (mirrors the analog LDO).
          const double r_pass = 0.2 * (sys.vin_v - sys.vout_v) / i_ivr;
          d.w_pass_m = dev.ron_w_ohm_m / r_pass;
          d.c_out_f = 0.5 * area_ivr / kWiringOverhead * cap.density_f_m2;
          // Per-slice clock chosen so the *interleaved* decision rate hits
          // the ripple budget with one-LSB limit cycling, but never so slow
          // that a full-scale code walk (2^bits decisions) takes longer than
          // 1 us — the counter's slew limit, not the ripple, is what lets
          // the loop track load steps.
          const double segments = std::pow(2.0, bits);
          const double i_lsb = (sys.vin_v - sys.vout_v) / r_pass / segments;
          const double f_ripple =
              i_lsb / (0.8 * sys.ripple_max_v * d.c_out_f * static_cast<double>(n_comp));
          const double f_slew = segments / (1e-6 * static_cast<double>(n_comp));
          d.f_clk_hz = std::clamp(std::max(f_ripple, f_slew), 10e6, 3e9);
          d.i_quiescent_a = 0.002 * i_ivr;

          try {
            const DldoAnalysis a = analyze_dldo(d, sys.vin_v, sys.vout_v, i_ivr);
            r.feasible = a.ripple_pp_v <= sys.ripple_max_v && a.area_m2 <= area_ivr * 1.05;
            r.efficiency = a.efficiency;
            r.ripple_pp_v = a.ripple_pp_v;
            r.f_sw_hz = d.f_clk_hz;
            r.area_m2 = a.area_m2 * n_dist;
            r.n_interleave = n_comp;
            r.dldo = d;
            r.label = "DLDO x" + std::to_string(n_comp);
          } catch (const InvalidParameter&) {
            // Domain rejection (pass array too narrow): the grid point stays
            // in the sweep as infeasible; real faults propagate to the
            // quarantine.
          }
          return r;
        });
      });
  return reduce_best(collect_survivors("optimize_dldo", grid_best, report), std::move(bestr));
}

// Dispatch shared by the public entry point and the quarantined sweeps.
// check_system_params/range validation stays with the public wrappers: user-input
// errors are not candidate faults and must keep throwing InvalidParameter.
DseResult optimize_topology_impl(const SystemParams& sys, IvrTopology topo, int n_distributed,
                                 SweepReport& report) {
  // Whole-sweep injection point: in Throw mode the point dies before any
  // candidate runs; in EmitNan mode the poisoned load power rides into every
  // candidate and trips the models' finite guards.
  SystemParams s = sys;
  s.p_load_w += fault::inject("optimize_topology");
  switch (topo) {
    case IvrTopology::SwitchedCapacitor: return optimize_sc(s, n_distributed, report);
    case IvrTopology::Buck: return optimize_buck(s, n_distributed, report);
    case IvrTopology::LinearRegulator: return optimize_ldo(s, n_distributed, report);
    case IvrTopology::DigitalLdo: return optimize_dldo(s, n_distributed, report);
  }
  throw InvalidParameter("optimize_topology: unknown topology");
}

// explore() minus the final ordering: the raw sweep results in the serial
// iteration order (topology-major, distribution-minor). best_design() scans
// this directly instead of paying for a full sort of results it discards.
std::vector<DseResult> explore_unsorted(const SystemParams& sys, SweepReport* report) {
  // Fan the topology x distribution-count points out over the pool. Each
  // point is a pure function of (sys, topo, n); results land in the serial
  // iteration order. The inner sweeps of optimize_topology notice they
  // run inside a pool task and stay serial (nested-region rejection).
  std::vector<std::pair<IvrTopology, int>> points;
  for (IvrTopology topo : {IvrTopology::SwitchedCapacitor, IvrTopology::Buck,
                           IvrTopology::LinearRegulator, IvrTopology::DigitalLdo}) {
    for (int n = 1; n <= sys.max_distributed; n *= 2) points.emplace_back(topo, n);
  }

  // Each point is quarantined with its own inner report; the serial
  // index-order merge below keeps results and report thread-count-invariant.
  struct PointCell {
    EvalOutcome<DseResult> outcome;
    SweepReport inner;
  };
  const std::vector<PointCell> cells =
      par::parallel_map<PointCell>(points.size(), [&](std::size_t i) {
        PointCell cell;
        const std::string candidate = std::string(topology_name(points[i].first)) +
                                      " @ dist " + std::to_string(points[i].second);
        cell.outcome = quarantine("explore", candidate, [&] {
          return optimize_topology_impl(sys, points[i].first, points[i].second, cell.inner);
        });
        return cell;
      });

  SweepReport merged;       // inner candidate records + point-level records
  SweepReport point_level;  // drives the all-points-died aggregation
  std::vector<DseResult> all;
  all.reserve(cells.size());
  for (const PointCell& cell : cells) {
    merged.merge(cell.inner);
    if (cell.outcome.ok()) {
      point_level.record_survivor();
      all.push_back(cell.outcome.value());
    } else {
      point_level.record_skip(cell.outcome.diagnostics());
    }
  }
  merged.merge(point_level);
  if (report) report->merge(merged);
  if (point_level.n_survived == 0 && point_level.n_evaluated > 0)
    throw_all_failed("explore", point_level);
  return all;
}

}  // namespace

DseResult optimize_topology(const SystemParams& sys, IvrTopology topo, int n_distributed,
                            SweepReport* report) {
  IVORY_TRACE("dse.optimize_topology");
  metrics::registry().counter("dse.sweeps.optimize_topology").add();
  check_system_params(sys);
  require(n_distributed >= 1 && n_distributed <= sys.max_distributed,
          "optimize_topology: distribution count out of range");
  SweepReport local;
  try {
    const DseResult r = optimize_topology_impl(sys, topo, n_distributed, local);
    if (report) report->merge(local);
    return r;
  } catch (...) {
    // Merge even on failure so the caller's report names what died.
    if (report) report->merge(local);
    throw;
  }
}

std::vector<DseResult> explore(const SystemParams& sys, OptTarget target, SweepReport* report) {
  IVORY_TRACE("dse.explore");
  metrics::registry().counter("dse.sweeps.explore").add();
  check_system_params(sys);
  std::vector<DseResult> all = explore_unsorted(sys, report);
  std::stable_sort(all.begin(), all.end(), [target](const DseResult& a, const DseResult& b) {
    return dse_better(a, b, target);
  });
  return all;
}

DseResult best_design(const SystemParams& sys, OptTarget target, SweepReport* report) {
  IVORY_TRACE("dse.best_design");
  metrics::registry().counter("dse.sweeps.best_design").add();
  check_system_params(sys);
  // Single pass instead of sorting the whole sweep to take index 0: replace
  // the incumbent only on a strict dse_better() improvement — exactly the
  // element stable_sort would have put first.
  const std::vector<DseResult> all = explore_unsorted(sys, report);
  require(!all.empty(), "best_design: empty sweep");
  std::size_t win = 0;
  for (std::size_t i = 1; i < all.size(); ++i)
    if (dse_better(all[i], all[win], target)) win = i;
  require(all[win].feasible, "best_design: no feasible design found");
  return all[win];
}

TwoStageResult optimize_two_stage(const SystemParams& sys, int n_distributed,
                                  SweepReport* report) {
  IVORY_TRACE("dse.optimize_two_stage");
  metrics::registry().counter("dse.sweeps.optimize_two_stage").add();
  check_system_params(sys);
  require(n_distributed >= 1 && n_distributed <= sys.max_distributed,
          "optimize_two_stage: distribution count out of range");

  // Flatten the v_mid x area-split grid in the serial nesting order; each
  // cascade point optimizes both stages independently of every other point.
  std::vector<std::pair<double, double>> grid;
  for (double v_mid : {1.3 * sys.vout_v, 1.6 * sys.vout_v, 2.0 * sys.vout_v,
                       0.5 * (sys.vout_v + sys.vin_v), 0.7 * sys.vin_v}) {
    if (v_mid <= sys.vout_v * 1.1 || v_mid >= sys.vin_v * 0.95) continue;
    for (double a1 : {0.25, 0.40, 0.55}) grid.emplace_back(v_mid, a1);
  }

  // Same quarantine structure as explore(): per-cascade inner reports merged
  // serially in grid order so the outcome is thread-count-invariant.
  struct CascadeCell {
    EvalOutcome<TwoStageResult> outcome;
    SweepReport inner;
  };
  const std::vector<CascadeCell> cells =
      par::parallel_map<CascadeCell>(grid.size(), [&](std::size_t gi) {
        const auto& [gv_mid, ga1] = grid[gi];
        CascadeCell cell;
        const std::string candidate = "cascade v_mid " + std::to_string(gv_mid) +
                                      " a1 " + std::to_string(ga1);
        cell.outcome = quarantine("optimize_two_stage", candidate, [&] {
          const auto& [v_mid, a1] = grid[gi];
          TwoStageResult cand;
          // Stage 2 first: v_mid -> vout, distributed, sets the power stage 1
          // must carry. Grid construction guarantees valid rails, so the
          // impl entry (no re-check_system_params) is safe here.
          SystemParams s2 = sys;
          s2.vin_v = v_mid;
          s2.area_max_m2 = sys.area_max_m2 * (1.0 - a1);
          const DseResult r2 = optimize_topology_impl(s2, IvrTopology::SwitchedCapacitor,
                                                      n_distributed, cell.inner);
          if (!r2.feasible) return cand;

          SystemParams s1 = sys;
          s1.vout_v = v_mid;
          s1.area_max_m2 = sys.area_max_m2 * a1;
          s1.p_load_w = sys.p_load_w / r2.efficiency;  // Stage 1 carries stage 2's input.
          // The intermediate rail tolerates more ripple than the core rail.
          s1.ripple_max_v = 5.0 * sys.ripple_max_v;
          const DseResult r1 =
              optimize_topology_impl(s1, IvrTopology::SwitchedCapacitor, 1, cell.inner);
          if (!r1.feasible) return cand;

          cand.feasible = true;
          cand.v_mid_v = v_mid;
          cand.area_frac_stage1 = a1;
          cand.stage1 = r1;
          cand.stage2 = r2;
          cand.efficiency = r1.efficiency * r2.efficiency;
          return cand;
        });
        return cell;
      });

  SweepReport merged;
  SweepReport cascade_level;
  TwoStageResult best;
  for (const CascadeCell& cell : cells) {
    merged.merge(cell.inner);
    if (cell.outcome.ok()) {
      cascade_level.record_survivor();
      const TwoStageResult& cand = cell.outcome.value();
      if (cand.feasible && (!best.feasible || cand.efficiency > best.efficiency)) best = cand;
    } else {
      cascade_level.record_skip(cell.outcome.diagnostics());
    }
  }
  merged.merge(cascade_level);
  if (report) report->merge(merged);
  if (cascade_level.n_survived == 0 && cascade_level.n_evaluated > 0)
    throw_all_failed("optimize_two_stage", cascade_level);
  return best;
}

}  // namespace ivory::core
