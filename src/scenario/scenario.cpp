#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/dynamic.hpp"
#include "core/report_json.hpp"
#include "pdn/pdn.hpp"

namespace ivory::scenario {

const char* delivery_name(Delivery d) {
  switch (d) {
    case Delivery::OnChipIvr: return "ivr";
    case Delivery::OffChipVrm: return "vrm";
  }
  return "?";
}

Delivery delivery_from_string(const std::string& s) {
  if (s == "ivr") return Delivery::OnChipIvr;
  if (s == "vrm") return Delivery::OffChipVrm;
  throw InvalidParameter("delivery_from_string: unknown delivery '" + s +
                         "' (known: ivr, vrm)");
}

namespace {

// The board VRM serving a domain is rated at the workload peak (~2.5x the
// nominal mean, the optimizer's kPeakLoadFactor), like the IVR designs.
// The factor itself lives in pdn.hpp so the DSE funnel's hybrid candidates
// size their VRM share identically.
using pdn::kVrmRatingFactor;

double tail_peak_to_peak(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t k0 = v.size() / 5;  // Skip the settling transient.
  double lo = v[k0], hi = v[k0];
  for (std::size_t k = k0; k < v.size(); ++k) {
    lo = std::min(lo, v[k]);
    hi = std::max(hi, v[k]);
  }
  return hi - lo;
}

// One (domain, state) cell. Runs under quarantine: a state the design cannot
// serve throws and becomes a structured skip.
StateEval evaluate_cell(const core::SystemParams& sys, const ScenarioSpec& spec,
                        const DomainSpec& dom, const workload::PowerStateSpec& st,
                        const core::DseResult& design, int n_dist, double ivr_frac,
                        const pdn::PdnParams& pdn_p, double r_pdn_ohm, std::uint64_t seed) {
  StateEval ev;
  ev.domain = dom.name;
  ev.state = st.name;
  ev.delivery = dom.delivery;
  ev.gated = st.gated;
  ev.residency = st.residency;
  ev.v_v = st.v_v;
  ev.f_hz = st.f_hz;

  const double p_dom_nom = sys.p_load_w * dom.power_frac;
  if (st.gated) {
    // Power-gated: no useful output. The on-chip IVR gates off with the
    // domain (negligible header leakage); the shared board VRM cannot be
    // turned off and keeps burning its load-independent fixed loss — the
    // FlexWatts asymmetry that makes hybrid delivery pay off on idle-heavy
    // residency mixes.
    if (dom.delivery == Delivery::OffChipVrm) {
      const pdn::VrmModel vrm =
          pdn::VrmModel::board_vrm(sys.vout_v, kVrmRatingFactor * p_dom_nom / sys.vout_v);
      ev.p_in_w = vrm.p_fixed_w;
    }
    return ev;
  }

  // Synthesize the domain's load current at this state's (V, f, activity):
  // per-sample activity from the benchmark trace, replayed through the
  // digital load model exactly like examples/dvfs_transient.cpp.
  const workload::DigitalLoadModel load =
      workload::DigitalLoadModel::from_average_power(p_dom_nom, sys.vout_v, spec.f_nom_hz);
  const workload::PowerTrace trace = workload::generate_gpu_traces(
      dom.benchmark, 1, p_dom_nom, spec.duration_s, spec.dt_s, seed)[0];
  std::vector<double> i_dom(trace.watts.size());
  double i_sum = 0.0;
  for (std::size_t k = 0; k < i_dom.size(); ++k) {
    const double act = trace.watts[k] / p_dom_nom * st.activity;
    i_dom[k] = load.current(st.v_v, st.f_hz, act);
    i_sum += i_dom[k];
  }
  const double i_avg = i_sum / static_cast<double>(i_dom.size());
  ev.i_avg_a = i_avg;
  ev.p_out_w = st.v_v * i_avg;

  if (dom.delivery == Delivery::OffChipVrm) {
    // Off-chip path: VRM conversion loss at this load plus the PDN IR loss
    // of carrying the full low-voltage current across board/package/C4.
    const pdn::VrmModel vrm =
        pdn::VrmModel::board_vrm(sys.vout_v, kVrmRatingFactor * p_dom_nom / sys.vout_v);
    const double p_vrm_loss =
        vrm.p_fixed_w + vrm.r_loss_ohm * i_avg * i_avg + vrm.v_drop_v * i_avg;
    ev.p_in_w = ev.p_out_w + p_vrm_loss + i_avg * i_avg * r_pdn_ohm;
    const std::vector<double> v_die =
        pdn::simulate_die_voltage(pdn_p, st.v_v, i_dom, spec.dt_s);
    ev.droop_pp_v = tail_peak_to_peak(v_die);
  } else {
    // On-chip path: this domain owns a pro-rata slice of the n_dist IVRs
    // (power_frac / ivr_frac of the fleet), so the per-IVR operating point
    // at the nominal state is exactly the optimizer's design point.
    const double scale = ivr_frac / (static_cast<double>(n_dist) * dom.power_frac);
    std::vector<double> i_ivr(i_dom);
    for (double& x : i_ivr) x *= scale;
    const double i_eval = i_avg * scale;

    double eta = 0.0;
    core::DynWaveform w;
    switch (design.topology) {
      case core::IvrTopology::SwitchedCapacitor: {
        const core::ScRegulated reg =
            core::analyze_sc_regulated(design.sc, sys.vin_v, st.v_v, i_eval);
        if (!reg.feasible)
          throw InvalidParameter("scenario: SC design cannot regulate to " +
                                 std::to_string(st.v_v) + " V in state '" + st.name + "'");
        eta = reg.analysis.efficiency;
        w = core::sc_combined_response(design.sc, sys.vin_v, st.v_v, i_ivr, spec.dt_s);
        break;
      }
      case core::IvrTopology::Buck: {
        const core::BuckAnalysis a =
            core::analyze_buck(design.buck, sys.vin_v, st.v_v, i_eval);
        eta = a.efficiency;
        w = core::buck_combined_response(design.buck, sys.vin_v, st.v_v, i_ivr, spec.dt_s);
        break;
      }
      case core::IvrTopology::LinearRegulator: {
        const core::LdoAnalysis a =
            core::analyze_ldo(design.ldo, sys.vin_v, st.v_v, i_eval);
        eta = a.efficiency;
        w = core::ldo_combined_response(design.ldo, sys.vin_v, st.v_v, i_ivr, spec.dt_s);
        break;
      }
      case core::IvrTopology::DigitalLdo: {
        const core::DldoAnalysis a =
            core::analyze_dldo(design.dldo, sys.vin_v, st.v_v, i_eval);
        eta = a.efficiency;
        w = core::dldo_combined_response(design.dldo, sys.vin_v, st.v_v, i_ivr, spec.dt_s);
        break;
      }
    }
    if (!(eta > 0.0))
      throw InvalidParameter("scenario: non-positive efficiency in state '" + st.name + "'");
    // Fleet-wide input power at the same per-IVR efficiency; the PDN carries
    // the high-voltage input current (the IVR advantage: vin/vout times less
    // current crossing the board).
    const double p_ivr_in = ev.p_out_w / eta;
    const double i_pdn = p_ivr_in / sys.vin_v;
    ev.p_in_w = p_ivr_in + i_pdn * i_pdn * r_pdn_ohm;
    ev.droop_pp_v = tail_peak_to_peak(w.v);
  }
  ev.efficiency = ev.p_out_w / ev.p_in_w;
  IVORY_CHECK_FINITE(ev.efficiency, "evaluate_cell");
  IVORY_CHECK_FINITE(ev.droop_pp_v, "evaluate_cell");
  return ev;
}

}  // namespace

ScenarioReport evaluate_scenario(const core::SystemParams& sys, core::IvrTopology topo,
                                 int n_distributed, const ScenarioSpec& spec,
                                 SweepReport* report) {
  IVORY_TRACE("scenario.evaluate");
  metrics::registry().counter("scenario.evaluations").add();
  workload::check_power_states(spec.states);
  require(!spec.domains.empty(), "evaluate_scenario: need at least one domain");
  require(spec.f_nom_hz > 0.0, "evaluate_scenario: f_nom must be positive");
  require(spec.dt_s > 0.0 && spec.duration_s > spec.dt_s,
          "evaluate_scenario: bad duration/dt");
  double frac_total = 0.0, ivr_frac = 0.0;
  for (std::size_t i = 0; i < spec.domains.size(); ++i) {
    const DomainSpec& d = spec.domains[i];
    if (!(d.power_frac > 0.0))
      throw InvalidParameter("evaluate_scenario: domain " + std::to_string(i) + " (" + d.name +
                             "): power_frac must be positive");
    frac_total += d.power_frac;
    if (d.delivery == Delivery::OnChipIvr) ivr_frac += d.power_frac;
  }
  if (!(std::fabs(frac_total - 1.0) <= 1e-9))
    throw InvalidParameter("evaluate_scenario: domain power fractions sum to " +
                           std::to_string(frac_total) + ", expected 1");

  ScenarioReport rep;
  rep.scenario = spec.name;
  SweepReport merged;

  if (ivr_frac > 0.0) {
    // One design serves all IVR domains: optimize the topology for their
    // aggregate share of the load, distributed n_distributed ways.
    core::SystemParams s = sys;
    s.p_load_w = sys.p_load_w * ivr_frac;
    rep.design = core::optimize_topology(s, topo, n_distributed, &merged);
    rep.has_ivr = true;
    rep.area_m2 = rep.design.area_m2;
    if (!rep.design.feasible) {
      if (report) report->merge(merged);
      throw InvalidParameter(std::string("evaluate_scenario: no feasible ") +
                             core::topology_name(topo) + " design for the IVR domains");
    }
  }

  const pdn::PdnParams pdn_p = pdn::PdnParams::gpuvolt_default();
  const double r_pdn = pdn_p.board.r_ohm + pdn_p.package.r_ohm + pdn_p.c4.r_ohm;

  // Flatten the (domain, state) grid in domain-major order; each cell is an
  // independent pure task with a deterministic per-cell seed.
  std::vector<std::pair<std::size_t, std::size_t>> grid;
  for (std::size_t di = 0; di < spec.domains.size(); ++di)
    for (std::size_t si = 0; si < spec.states.size(); ++si) grid.emplace_back(di, si);

  const std::vector<EvalOutcome<StateEval>> outcomes =
      par::parallel_map<EvalOutcome<StateEval>>(grid.size(), [&](std::size_t gi) {
        const auto& [di, si] = grid[gi];
        const DomainSpec& dom = spec.domains[di];
        const workload::PowerStateSpec& st = spec.states[si];
        const std::string candidate =
            dom.name + "/" + st.name + " (" + delivery_name(dom.delivery) + ")";
        const std::uint64_t seed = spec.seed + 1000003u * di + 131u * si;
        return quarantine("scenario_eval", candidate, [&] {
          return evaluate_cell(sys, spec, dom, st, rep.design, n_distributed, ivr_frac,
                               pdn_p, r_pdn, seed);
        });
      });

  // Serial index-order merge: survivors, skips, and aggregates are all
  // byte-identical at any thread count.
  SweepReport cell_level;
  double w_out = 0.0, w_in = 0.0;
  for (const EvalOutcome<StateEval>& o : outcomes) {
    if (o.ok()) {
      cell_level.record_survivor();
      const StateEval& ev = o.value();
      w_out += ev.residency * ev.p_out_w;
      w_in += ev.residency * ev.p_in_w;
      rep.worst_droop_pp_v = std::max(rep.worst_droop_pp_v, ev.droop_pp_v);
      rep.cells.push_back(ev);
    } else {
      cell_level.record_skip(o.diagnostics());
      rep.complete = false;
    }
  }
  merged.merge(cell_level);
  if (report) report->merge(merged);
  if (cell_level.n_survived == 0 && cell_level.n_evaluated > 0)
    throw_all_failed("scenario_eval", cell_level);

  metrics::registry().counter("scenario.cells").add(rep.cells.size());
  rep.p_out_avg_w = w_out;
  rep.p_in_avg_w = w_in;
  rep.weighted_efficiency = w_in > 0.0 ? w_out / w_in : 0.0;
  IVORY_CHECK_FINITE(rep.weighted_efficiency, "evaluate_scenario");
  return rep;
}

json::Value to_json(const ScenarioReport& r) {
  using json::Value;
  Value::Array cells;
  cells.reserve(r.cells.size());
  for (const StateEval& ev : r.cells) {
    Value::Object c;
    c.emplace_back("domain", ev.domain);
    c.emplace_back("state", ev.state);
    c.emplace_back("delivery", delivery_name(ev.delivery));
    c.emplace_back("gated", ev.gated);
    c.emplace_back("residency", ev.residency);
    c.emplace_back("v_v", ev.v_v);
    c.emplace_back("f_hz", ev.f_hz);
    c.emplace_back("i_avg_a", ev.i_avg_a);
    c.emplace_back("p_out_w", ev.p_out_w);
    c.emplace_back("p_in_w", ev.p_in_w);
    c.emplace_back("efficiency", ev.efficiency);
    c.emplace_back("droop_pp_v", ev.droop_pp_v);
    cells.push_back(Value(std::move(c)));
  }
  Value::Object o;
  o.emplace_back("scenario", r.scenario);
  o.emplace_back("complete", r.complete);
  o.emplace_back("has_ivr", r.has_ivr);
  o.emplace_back("weighted_efficiency", r.weighted_efficiency);
  o.emplace_back("p_out_avg_w", r.p_out_avg_w);
  o.emplace_back("p_in_avg_w", r.p_in_avg_w);
  o.emplace_back("worst_droop_pp_v", r.worst_droop_pp_v);
  o.emplace_back("area_m2", r.area_m2);
  if (r.has_ivr) o.emplace_back("design", core::to_json(r.design));
  o.emplace_back("cells", Value(std::move(cells)));
  return Value(std::move(o));
}

}  // namespace ivory::scenario
