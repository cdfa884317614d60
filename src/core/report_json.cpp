#include "core/report_json.hpp"

#include "tech/tech.hpp"

namespace ivory {

using json::Value;

Value to_json(const Diagnostics& d) {
  Value::Object o;
  o.emplace_back("code", error_code_name(d.code));
  o.emplace_back("site", d.site);
  o.emplace_back("candidate", d.candidate);
  o.emplace_back("detail", d.detail);
  return Value(std::move(o));
}

Value to_json(const SweepReport& r) {
  Value::Array skips;
  skips.reserve(r.skips.size());
  for (const Diagnostics& d : r.skips) skips.push_back(to_json(d));
  Value::Object o;
  o.emplace_back("n_evaluated", static_cast<double>(r.n_evaluated));
  o.emplace_back("n_survived", static_cast<double>(r.n_survived));
  o.emplace_back("n_skipped", static_cast<double>(r.n_skipped()));
  o.emplace_back("skips", Value(std::move(skips)));
  return Value(std::move(o));
}

namespace core {

const char* sc_family_name(ScFamily f) {
  switch (f) {
    case ScFamily::Auto: return "auto";
    case ScFamily::SeriesParallel: return "series-parallel";
    case ScFamily::Ladder: return "ladder";
    case ScFamily::Dickson: return "dickson";
  }
  return "?";
}

Value to_json(const ScDesign& d) {
  Value::Object o;
  o.emplace_back("node", tech::node_name(d.node));
  o.emplace_back("cap", tech::cap_kind_name(d.cap_kind));
  o.emplace_back("n", d.n);
  o.emplace_back("m", d.m);
  o.emplace_back("family", sc_family_name(d.family));
  o.emplace_back("cfly", d.c_fly_f);
  o.emplace_back("cout", d.c_out_f);
  o.emplace_back("gtot", d.g_tot_s);
  o.emplace_back("fsw", d.f_sw_hz);
  o.emplace_back("interleave", d.n_interleave);
  o.emplace_back("duty", d.duty);
  return Value(std::move(o));
}

Value to_json(const BuckDesign& d) {
  Value::Object o;
  o.emplace_back("node", tech::node_name(d.node));
  o.emplace_back("cap", tech::cap_kind_name(d.cap_kind));
  o.emplace_back("inductor", tech::inductor_kind_name(d.inductor));
  o.emplace_back("l", d.l_per_phase_h);
  o.emplace_back("fsw", d.f_sw_hz);
  o.emplace_back("phases", d.n_phases);
  o.emplace_back("whs", d.w_high_m);
  o.emplace_back("wls", d.w_low_m);
  o.emplace_back("cout", d.c_out_f);
  return Value(std::move(o));
}

Value to_json(const LdoDesign& d) {
  Value::Object o;
  o.emplace_back("node", tech::node_name(d.node));
  o.emplace_back("cap", tech::cap_kind_name(d.cap_kind));
  o.emplace_back("wpass", d.w_pass_m);
  o.emplace_back("bits", d.n_bits);
  o.emplace_back("fclk", d.f_clk_hz);
  o.emplace_back("cout", d.c_out_f);
  o.emplace_back("iq", d.i_quiescent_a);
  return Value(std::move(o));
}

Value to_json(const DldoDesign& d) {
  Value::Object o;
  o.emplace_back("node", tech::node_name(d.node));
  o.emplace_back("cap", tech::cap_kind_name(d.cap_kind));
  o.emplace_back("wpass", d.w_pass_m);
  o.emplace_back("bits", d.n_bits);
  o.emplace_back("fclk", d.f_clk_hz);
  o.emplace_back("ncomp", d.n_comparators);
  o.emplace_back("cout", d.c_out_f);
  o.emplace_back("iq", d.i_quiescent_a);
  return Value(std::move(o));
}

Value to_json(const ScAnalysis& a) {
  Value::Object o;
  o.emplace_back("vin_v", a.vin_v);
  o.emplace_back("i_load_a", a.i_load_a);
  o.emplace_back("vout_ideal_v", a.vout_ideal_v);
  o.emplace_back("vout_v", a.vout_v);
  o.emplace_back("rssl_ohm", a.rssl_ohm);
  o.emplace_back("rfsl_ohm", a.rfsl_ohm);
  o.emplace_back("rout_ohm", a.rout_ohm);
  o.emplace_back("p_out_w", a.p_out_w);
  o.emplace_back("p_conduction_w", a.p_conduction_w);
  o.emplace_back("p_gate_w", a.p_gate_w);
  o.emplace_back("p_bottom_plate_w", a.p_bottom_plate_w);
  o.emplace_back("p_leakage_w", a.p_leakage_w);
  o.emplace_back("p_peripheral_w", a.p_peripheral_w);
  o.emplace_back("p_in_w", a.p_in_w);
  o.emplace_back("efficiency", a.efficiency);
  o.emplace_back("ripple_pp_v", a.ripple_pp_v);
  o.emplace_back("area_caps_m2", a.area_caps_m2);
  o.emplace_back("area_switches_m2", a.area_switches_m2);
  o.emplace_back("area_peripheral_m2", a.area_peripheral_m2);
  o.emplace_back("area_m2", a.area_m2);
  o.emplace_back("switch_width_m", a.switch_width_m);
  return Value(std::move(o));
}

Value to_json(const ScRegulated& r) {
  Value::Object o;
  o.emplace_back("feasible", r.feasible);
  o.emplace_back("f_sw_used_hz", r.f_sw_used_hz);
  o.emplace_back("analysis", to_json(r.analysis));
  return Value(std::move(o));
}

Value to_json(const BuckAnalysis& a) {
  Value::Object o;
  o.emplace_back("vin_v", a.vin_v);
  o.emplace_back("vout_v", a.vout_v);
  o.emplace_back("i_load_a", a.i_load_a);
  o.emplace_back("duty", a.duty);
  o.emplace_back("l_eff_h", a.l_eff_h);
  o.emplace_back("i_ripple_phase_a", a.i_ripple_phase_a);
  o.emplace_back("i_ripple_out_a", a.i_ripple_out_a);
  o.emplace_back("p_out_w", a.p_out_w);
  o.emplace_back("p_conduction_w", a.p_conduction_w);
  o.emplace_back("p_gate_w", a.p_gate_w);
  o.emplace_back("p_overlap_w", a.p_overlap_w);
  o.emplace_back("p_coss_w", a.p_coss_w);
  o.emplace_back("p_deadtime_w", a.p_deadtime_w);
  o.emplace_back("p_peripheral_w", a.p_peripheral_w);
  o.emplace_back("p_in_w", a.p_in_w);
  o.emplace_back("efficiency", a.efficiency);
  o.emplace_back("ripple_pp_v", a.ripple_pp_v);
  o.emplace_back("area_die_m2", a.area_die_m2);
  o.emplace_back("area_offdie_m2", a.area_offdie_m2);
  o.emplace_back("area_m2", a.area_m2);
  return Value(std::move(o));
}

Value to_json(const LdoAnalysis& a) {
  Value::Object o;
  o.emplace_back("vin_v", a.vin_v);
  o.emplace_back("vout_v", a.vout_v);
  o.emplace_back("i_load_a", a.i_load_a);
  o.emplace_back("dropout_v", a.dropout_v);
  o.emplace_back("current_efficiency", a.current_efficiency);
  o.emplace_back("efficiency", a.efficiency);
  o.emplace_back("p_out_w", a.p_out_w);
  o.emplace_back("p_pass_w", a.p_pass_w);
  o.emplace_back("p_quiescent_w", a.p_quiescent_w);
  o.emplace_back("p_peripheral_w", a.p_peripheral_w);
  o.emplace_back("p_in_w", a.p_in_w);
  o.emplace_back("ripple_pp_v", a.ripple_pp_v);
  o.emplace_back("area_m2", a.area_m2);
  return Value(std::move(o));
}

Value to_json(const DldoAnalysis& a) {
  Value::Object o;
  o.emplace_back("vin_v", a.vin_v);
  o.emplace_back("vout_v", a.vout_v);
  o.emplace_back("i_load_a", a.i_load_a);
  o.emplace_back("dropout_v", a.dropout_v);
  o.emplace_back("i_lsb_a", a.i_lsb_a);
  o.emplace_back("current_efficiency", a.current_efficiency);
  o.emplace_back("efficiency", a.efficiency);
  o.emplace_back("p_out_w", a.p_out_w);
  o.emplace_back("p_pass_w", a.p_pass_w);
  o.emplace_back("p_quiescent_w", a.p_quiescent_w);
  o.emplace_back("p_peripheral_w", a.p_peripheral_w);
  o.emplace_back("p_in_w", a.p_in_w);
  o.emplace_back("ripple_pp_v", a.ripple_pp_v);
  o.emplace_back("t_response_s", a.t_response_s);
  o.emplace_back("area_m2", a.area_m2);
  return Value(std::move(o));
}

Value to_json(const DseResult& r) {
  Value::Object o;
  o.emplace_back("topology", topology_name(r.topology));
  o.emplace_back("label", r.label);
  o.emplace_back("n_distributed", r.n_distributed);
  o.emplace_back("feasible", r.feasible);
  o.emplace_back("efficiency", r.efficiency);
  o.emplace_back("ripple_pp_v", r.ripple_pp_v);
  o.emplace_back("f_sw_hz", r.f_sw_hz);
  o.emplace_back("area_m2", r.area_m2);
  o.emplace_back("n_interleave", r.n_interleave);
  switch (r.topology) {
    case IvrTopology::SwitchedCapacitor: o.emplace_back("design", to_json(r.sc)); break;
    case IvrTopology::Buck: o.emplace_back("design", to_json(r.buck)); break;
    case IvrTopology::LinearRegulator: o.emplace_back("design", to_json(r.ldo)); break;
    case IvrTopology::DigitalLdo: o.emplace_back("design", to_json(r.dldo)); break;
  }
  return Value(std::move(o));
}

Value to_json(const ParetoPoint& p) {
  Value::Object o;
  o.emplace_back("index", static_cast<std::uint64_t>(p.index));
  o.emplace_back("ivr_load_frac", p.ivr_load_frac);
  Value::Object s;
  s.emplace_back("efficiency", p.screen.efficiency);
  s.emplace_back("area_m2", p.screen.area_m2);
  s.emplace_back("ripple_pp_v", p.screen.ripple_pp_v);
  o.emplace_back("screen", Value(std::move(s)));
  o.emplace_back("design", to_json(p.design));
  o.emplace_back("simulated", p.simulated);
  if (p.simulated) {
    o.emplace_back("droop_pp_v", p.droop_pp_v);
    o.emplace_back("v_mean_v", p.v_mean_v);
  }
  return Value(std::move(o));
}

Value to_json(const ParetoFront& f) {
  Value::Array pts;
  pts.reserve(f.points.size());
  for (const ParetoPoint& p : f.points) pts.push_back(to_json(p));
  Value::Object stats;
  stats.emplace_back("n_screened", f.stats.n_screened);
  stats.emplace_back("n_feasible", f.stats.n_feasible);
  stats.emplace_back("n_blocks", f.stats.n_blocks);
  stats.emplace_back("frontier_size", f.stats.frontier_size);
  Value::Object o;
  o.emplace_back("points", Value(std::move(pts)));
  o.emplace_back("stats", Value(std::move(stats)));
  return Value(std::move(o));
}

Value to_json(const TwoStageResult& r) {
  Value::Object o;
  o.emplace_back("feasible", r.feasible);
  o.emplace_back("v_mid_v", r.v_mid_v);
  o.emplace_back("area_frac_stage1", r.area_frac_stage1);
  o.emplace_back("efficiency", r.efficiency);
  o.emplace_back("stage1", to_json(r.stage1));
  o.emplace_back("stage2", to_json(r.stage2));
  return Value(std::move(o));
}

Value to_json(const PdsBreakdown& b) {
  Value::Object o;
  o.emplace_back("v_core_actual_v", b.v_core_actual_v);
  o.emplace_back("p_core_useful_w", b.p_core_useful_w);
  o.emplace_back("p_guardband_w", b.p_guardband_w);
  o.emplace_back("p_grid_ir_w", b.p_grid_ir_w);
  o.emplace_back("p_pdn_ir_w", b.p_pdn_ir_w);
  o.emplace_back("p_ivr_loss_w", b.p_ivr_loss_w);
  o.emplace_back("p_vrm_loss_w", b.p_vrm_loss_w);
  o.emplace_back("p_total_w", b.p_total_w);
  o.emplace_back("efficiency", b.efficiency);
  return Value(std::move(o));
}

Value::Object tran_counters(const spice::TranResult& r, std::size_t n_points) {
  Value::Object o;
  o.emplace_back("steps_taken", static_cast<std::uint64_t>(r.steps_taken));
  o.emplace_back("lu_factorizations", static_cast<std::uint64_t>(r.lu_factorizations));
  o.emplace_back("lu_cache_hits", static_cast<std::uint64_t>(r.lu_cache_hits));
  o.emplace_back("lu_cache_evictions", static_cast<std::uint64_t>(r.lu_cache_evictions));
  o.emplace_back("max_resident_factorizations",
                 static_cast<std::uint64_t>(r.max_resident_factorizations));
  o.emplace_back("kernel", r.kernel);
  o.emplace_back("symbolic_analyses", static_cast<std::uint64_t>(r.symbolic_analyses));
  o.emplace_back("factor_nnz", static_cast<std::uint64_t>(r.factor_nnz));
  o.emplace_back("n_points", static_cast<std::uint64_t>(n_points));
  return o;
}

Value::Object node_summary(const std::string& name, const NodeStats& s) {
  Value::Object n;
  n.emplace_back("node", name);
  n.emplace_back("final_v", s.final_v());
  n.emplace_back("mean_v", s.mean_v());
  n.emplace_back("min_v", s.lo);
  n.emplace_back("max_v", s.hi);
  return n;
}

Value to_json(const spice::TranResult& r, const std::vector<std::string>& node_names,
              bool include_waveforms) {
  require(node_names.size() == r.nodes.size(),
          "to_json(TranResult): one name per recorded node required");
  Value::Object o = tran_counters(r, r.time.size());
  Value::Array nodes;
  nodes.reserve(r.nodes.size());
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    const std::vector<double>& v = r.voltages[i];
    Value::Object n = node_summary(node_names[i], NodeStats::of(v));
    if (include_waveforms) {
      Value::Array wave;
      wave.reserve(v.size());
      for (double s : v) wave.push_back(s);
      n.emplace_back("v", Value(std::move(wave)));
    }
    nodes.push_back(Value(std::move(n)));
  }
  o.emplace_back("nodes", Value(std::move(nodes)));
  if (include_waveforms) {
    Value::Array time;
    time.reserve(r.time.size());
    for (double t : r.time) time.push_back(t);
    o.emplace_back("time_s", Value(std::move(time)));
  }
  return Value(std::move(o));
}

}  // namespace core
}  // namespace ivory
