#include "core/sc_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ivory::core {

namespace {

void check_design(const ScDesign& d) {
  if (!d.custom_topology)
    require(d.n >= 2 && d.m >= 1 && d.m < d.n,
            "ScDesign: need ratio n:m with n >= 2, 1 <= m < n");
  require(d.c_fly_f > 0.0, "ScDesign: c_fly must be positive");
  require(d.g_tot_s > 0.0, "ScDesign: g_tot must be positive");
  require(d.f_sw_hz > 0.0, "ScDesign: f_sw must be positive");
  require(d.n_interleave >= 1, "ScDesign: n_interleave must be >= 1");
  require(d.duty > 0.0 && d.duty <= 0.5, "ScDesign: duty must be in (0, 0.5]");
  require(d.c_out_f >= 0.0, "ScDesign: c_out must be non-negative");
}

// Static (topology-only) analysis of the design, memoized for the built-in
// families; custom topologies are derived per call.
struct OwnedStatic {
  const ScStaticAnalysis* cached = nullptr;
  ScStaticAnalysis owned;
  const ScStaticAnalysis& get() const { return cached ? *cached : owned; }
};

OwnedStatic static_analysis_for(const ScDesign& d) {
  OwnedStatic s;
  if (!d.custom_topology) {
    s.cached = &sc_static_analysis(d.n, d.m, d.family);
    return s;
  }
  s.owned.topo = *d.custom_topology;
  s.owned.cv = charge_vectors(s.owned.topo);
  s.owned.stress = switch_stress_ratios(s.owned.topo);
  return s;
}

// Fly-capacitance fraction facing the output, averaged over the two
// phases. Series-parallel n:1: the parallel phase presents all of C, the
// series phase a chain of n-1 slices in series (C/(n-1)^2); for 2:1 that
// makes the FULL fly cap effective at all times (one terminal is always on
// a stiff rail). Ladder topologies keep roughly the bottom-rung half.
// Validated against switch-level simulation in the Fig. 9(b) bench.
double hf_fly_fraction(const ScDesign& d) {
  const bool series_parallel =
      !d.custom_topology &&
      (d.family == ScFamily::SeriesParallel || (d.family == ScFamily::Auto && d.m == 1));
  if (!series_parallel) return 0.5;
  const double chain = static_cast<double>(d.n - 1);
  return 0.5 * (1.0 + 1.0 / (chain * chain));
}

// Evaluate at an explicit frequency (regulation modulates frequency): the
// impedances and output power, then the shared per-candidate evaluation.
ScAnalysis analyze_at(const ScPrepared& k, const ScSizing& s, double vin_v, double i_load_a,
                      double f_sw) {
  ScAnalysis a;
  a.vin_v = vin_v;
  a.i_load_a = i_load_a;
  a.vout_ideal_v = k.vout_ideal_v;

  // Interleaving slices the converter N ways at the same frequency: output
  // impedance is unchanged (each slice has C/N, G/N but N run in parallel).
  a.rssl_ohm = k.sum_ac * k.sum_ac / (s.c_fly_f * f_sw);
  a.rfsl_ohm = sc_rfsl(k, s);
  a.rout_ohm = std::hypot(a.rssl_ohm, a.rfsl_ohm);
  // Guard before the vout feasibility check below: a NaN output impedance
  // must surface as NonFiniteError, not as a bogus "load collapses the
  // output" domain rejection (NaN fails every comparison).
  IVORY_CHECK_FINITE(a.rout_ohm, "analyze_sc");

  a.vout_v = a.vout_ideal_v - i_load_a * a.rout_ohm;
  require(a.vout_v > 0.0, "analyze_sc: load collapses the output (vout <= 0)");
  a.p_out_w = a.vout_v * i_load_a;
  a.p_conduction_w = i_load_a * i_load_a * a.rout_ohm;

  // Capacitor voltage-rating check: graded-voltage families (Dickson) stack
  // k*Vin/n across their upper caps, which on-chip capacitors often cannot
  // take — the reason the paper restricts itself to equal-rating families.
  require(k.cap_rating_ok,
          "analyze_sc: a capacitor's held voltage exceeds the technology's rating");
  sc_evaluate(k, s, f_sw, i_load_a, a);
  a.efficiency = a.p_out_w / a.p_in_w;
  IVORY_CHECK_FINITE(a.efficiency, "analyze_sc");
  IVORY_CHECK_FINITE(a.ripple_pp_v, "analyze_sc");
  IVORY_CHECK_FINITE(a.area_m2, "analyze_sc");
  return a;
}

}  // namespace

ScPrepared prepare_sc(const ScDesign& d, double vin_v) {
  const OwnedStatic st = static_analysis_for(d);
  const ScTopology& topo = st.get().topo;
  const ChargeVectors& cv = st.get().cv;
  const std::vector<double>& stress = st.get().stress;

  ScPrepared k;
  k.vin_v = vin_v;
  k.ratio = topo.ideal_ratio();
  k.vout_ideal_v = k.ratio * vin_v;
  k.sum_ac = cv.sum_ac();
  k.sum_ar = cv.sum_ar();

  // Per-switch device selection. Conductance allocation is optimal
  // (G_i ~ |a_r,i|, floored at 2% of the mean share); width follows from
  // the selected device class (W = RonW * G).
  const tech::SwitchTech& core_dev = tech::switch_tech(d.node, tech::DeviceClass::Core);
  const tech::SwitchTech& io_dev = tech::switch_tech(d.node, tech::DeviceClass::Io);
  const std::size_t n_sw = topo.switches.size();
  for (std::size_t i = 0; i < n_sw; ++i) {
    const double share =
        std::max(cv.a_switch[i], 0.02 * k.sum_ar / static_cast<double>(n_sw)) / k.sum_ar;
    const double v_block = stress[i] * vin_v;
    const tech::SwitchTech& dev = v_block > core_dev.vmax_v ? io_dev : core_dev;
    k.width_per_s += share * dev.ron_w_ohm_m;
    k.area_per_s += share * dev.ron_w_ohm_m * dev.area_per_w_m;
    k.gate_cv2_per_s +=
        share * dev.ron_w_ohm_m * dev.cgate_per_w_f_m * dev.vdd_nom_v * dev.vdd_nom_v;
    // Off half the time, blocking v_block.
    k.leak_w_per_s += 0.5 * share * dev.ron_w_ohm_m * dev.ileak_per_w_a_m * v_block;
  }

  k.per = peripheral_tech(d.node);
  k.gate_c_core_per_s = k.gate_cv2_per_s / (k.per.vdd_v * k.per.vdd_v);

  k.cap = d.capacitor();
  double worst_cap_ratio = 0.0;
  for (const ScCap& cc : topo.caps) worst_cap_ratio = std::max(worst_cap_ratio, cc.ideal_v_ratio);
  k.cap_rating_ok = worst_cap_ratio * vin_v <= k.cap.vmax_v * 1.05;
  // Vin/n for the built-in families; the topology's own rating for custom
  // networks.
  k.v_cap_v = vin_v * (topo.caps.empty() ? 1.0 : topo.caps.front().ideal_v_ratio);
  k.hf_fly_fraction = hf_fly_fraction(d);
  return k;
}

ScAnalysis analyze_sc(const ScDesign& d, double vin_v, double i_load_a) {
  check_design(d);
  IVORY_CHECK_FINITE(vin_v, "analyze_sc");
  IVORY_CHECK_FINITE(i_load_a, "analyze_sc");
  require(vin_v > 0.0, "analyze_sc: vin must be positive");
  require(i_load_a > 0.0, "analyze_sc: load current must be positive");
  return analyze_at(prepare_sc(d, vin_v), d.sizing(), vin_v, i_load_a, d.f_sw_hz);
}

ScRegulated analyze_sc_regulated(const ScDesign& d, double vin_v, double vout_target_v,
                                 double i_load_a) {
  check_design(d);
  IVORY_CHECK_FINITE(vin_v, "analyze_sc_regulated");
  IVORY_CHECK_FINITE(vout_target_v, "analyze_sc_regulated");
  IVORY_CHECK_FINITE(i_load_a, "analyze_sc_regulated");
  require(vin_v > 0.0, "analyze_sc_regulated: vin must be positive");
  require(vout_target_v > 0.0, "analyze_sc_regulated: vout target must be positive");
  require(i_load_a > 0.0, "analyze_sc_regulated: load current must be positive");

  const ScPrepared k = prepare_sc(d, vin_v);
  const ScSizing s = d.sizing();
  const double rfsl = sc_rfsl(k, s);
  // A NaN charge-multiplier sum would sail through the feasibility
  // comparisons below (NaN compares false) and reach analyze_at; stop it
  // here with the proper classification.
  IVORY_CHECK_FINITE(rfsl, "analyze_sc_regulated");

  ScRegulated out;
  const double r_needed = (k.vout_ideal_v - vout_target_v) / i_load_a;
  // Feasibility: R_out is sqrt(rssl^2 + rfsl^2) >= rfsl, and rssl can only be
  // *raised* by slowing down from the design frequency.
  const double rssl_at_design = k.sum_ac * k.sum_ac / (d.c_fly_f * d.f_sw_hz);
  const double r_min = std::hypot(rssl_at_design, rfsl);
  if (r_needed < r_min || vout_target_v >= k.vout_ideal_v) return out;  // Past the cliff.

  const double f_used = sc_frequency_for(k, s, r_needed);
  IVORY_CHECK_FINITE(f_used, "analyze_sc_regulated");
  out.feasible = true;
  out.f_sw_used_hz = f_used;
  out.analysis = analyze_at(k, s, vin_v, i_load_a, f_used);
  return out;
}

double sc_output_hf_cap(const ScDesign& d) {
  return d.c_out_f + hf_fly_fraction(d) * d.c_fly_f;
}

}  // namespace ivory::core
