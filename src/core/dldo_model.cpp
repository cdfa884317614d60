#include "core/dldo_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ivory::core {

DldoAnalysis analyze_dldo(const DldoDesign& d, double vin_v, double vout_v, double i_load_a) {
  IVORY_CHECK_FINITE(vin_v, "analyze_dldo");
  IVORY_CHECK_FINITE(vout_v, "analyze_dldo");
  IVORY_CHECK_FINITE(i_load_a, "analyze_dldo");
  require(vin_v > 0.0, "analyze_dldo: vin must be positive");
  require(vout_v > 0.0 && vout_v < vin_v, "analyze_dldo: need 0 < vout < vin");
  require(i_load_a > 0.0, "analyze_dldo: load current must be positive");
  require(d.w_pass_m > 0.0, "DldoDesign: pass width must be positive");
  require(d.n_bits >= 1 && d.n_bits <= 16, "DldoDesign: bits must be in [1, 16]");
  require(d.f_clk_hz > 0.0, "DldoDesign: clock must be positive");
  require(d.n_comparators >= 1 && d.n_comparators <= 64,
          "DldoDesign: comparator slices must be in [1, 64]");
  require(d.c_out_f > 0.0, "DldoDesign: output capacitance must be positive");
  require(d.i_quiescent_a >= 0.0, "DldoDesign: quiescent current must be non-negative");

  // The pass device must survive the full input voltage.
  const tech::SwitchTech& core_dev = tech::switch_tech(d.node, tech::DeviceClass::Core);
  const tech::SwitchTech& dev = vin_v > core_dev.vmax_v
                                    ? tech::switch_tech(d.node, tech::DeviceClass::Io)
                                    : core_dev;

  DldoAnalysis a;
  a.vin_v = vin_v;
  a.vout_v = vout_v;
  a.i_load_a = i_load_a;

  a.dropout_v = dev.ron(d.w_pass_m) * i_load_a;
  require(vin_v - vout_v >= a.dropout_v,
          "analyze_dldo: pass array too narrow for this dropout/load");

  a.p_out_w = vout_v * i_load_a;
  a.p_pass_w = (vin_v - vout_v) * i_load_a;
  a.p_quiescent_w = vin_v * d.i_quiescent_a;

  // Counter + comparator slices: each of the n_comparators interleaved
  // slices samples at f_clk, so the controller sees n_comp decisions per
  // clock; ~2 LSB of pass-array gate charge toggles per decision on average.
  const double segments = std::pow(2.0, d.n_bits);
  const double c_lsb = dev.cgate(d.w_pass_m) / segments;
  const PeripheralBudget per =
      peripheral_budget(d.node, d.f_clk_hz, d.n_comparators, 2.0 * c_lsb, dev.vdd_nom_v);
  a.p_peripheral_w = per.total_power();

  a.p_in_w = a.p_out_w + a.p_pass_w + a.p_quiescent_w + a.p_peripheral_w;
  a.efficiency = a.p_out_w / a.p_in_w;
  a.current_efficiency = i_load_a / (i_load_a + d.i_quiescent_a +
                                     a.p_peripheral_w / std::max(vin_v, 1e-9));

  // Limit cycle at the interleaved decision rate n_comp * f_clk: the loop
  // dithers by one LSB of pass current per decision and the output
  // integrates that error on C_out for one decision interval. Full-scale
  // response traverses all 2^bits codes one LSB per decision.
  const double f_decision = static_cast<double>(d.n_comparators) * d.f_clk_hz;
  a.i_lsb_a = (vin_v - vout_v) / dev.ron(d.w_pass_m) / segments;
  a.ripple_pp_v = std::max(a.i_lsb_a, 0.0) / (f_decision * d.c_out_f);
  a.t_response_s = segments / f_decision;

  const tech::CapacitorTech cap = tech::capacitor_tech(d.node, d.cap_kind);
  a.area_m2 = kWiringOverhead * (dev.area(d.w_pass_m) + cap.area(d.c_out_f) + per.area_m2);
  IVORY_CHECK_FINITE(a.efficiency, "analyze_dldo");
  IVORY_CHECK_FINITE(a.ripple_pp_v, "analyze_dldo");
  IVORY_CHECK_FINITE(a.area_m2, "analyze_dldo");
  return a;
}

}  // namespace ivory::core
