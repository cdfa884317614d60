#include "core/ldo_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ivory::core {

LdoAnalysis analyze_ldo(const LdoDesign& d, double vin_v, double vout_v, double i_load_a) {
  IVORY_CHECK_FINITE(vin_v, "analyze_ldo");
  IVORY_CHECK_FINITE(vout_v, "analyze_ldo");
  IVORY_CHECK_FINITE(i_load_a, "analyze_ldo");
  require(vin_v > 0.0, "analyze_ldo: vin must be positive");
  require(vout_v > 0.0 && vout_v < vin_v, "analyze_ldo: need 0 < vout < vin");
  require(i_load_a > 0.0, "analyze_ldo: load current must be positive");
  require(d.w_pass_m > 0.0, "LdoDesign: pass width must be positive");
  require(d.n_bits >= 1 && d.n_bits <= 16, "LdoDesign: bits must be in [1, 16]");
  require(d.f_clk_hz > 0.0, "LdoDesign: clock must be positive");
  require(d.c_out_f > 0.0, "LdoDesign: output capacitance must be positive");
  require(d.i_quiescent_a >= 0.0, "LdoDesign: quiescent current must be non-negative");

  // The pass device must survive the full input voltage.
  const tech::SwitchTech& core_dev = tech::switch_tech(d.node, tech::DeviceClass::Core);
  const tech::SwitchTech& dev = vin_v > core_dev.vmax_v
                                    ? tech::switch_tech(d.node, tech::DeviceClass::Io)
                                    : core_dev;

  LdoAnalysis a;
  a.vin_v = vin_v;
  a.vout_v = vout_v;
  a.i_load_a = i_load_a;

  a.dropout_v = dev.ron(d.w_pass_m) * i_load_a;
  require(vin_v - vout_v >= a.dropout_v,
          "analyze_ldo: pass device too narrow for this dropout/load");

  a.p_out_w = vout_v * i_load_a;
  a.p_pass_w = (vin_v - vout_v) * i_load_a;
  a.p_quiescent_w = vin_v * d.i_quiescent_a;

  // Digital feedback: controller + comparator clocked at f_clk, plus the
  // gate charge of the unary pass segments that toggle (~2 LSB worth per
  // decision on average).
  const double segments = std::pow(2.0, d.n_bits);
  const double c_lsb = dev.cgate(d.w_pass_m) / segments;
  const PeripheralBudget per =
      peripheral_budget(d.node, d.f_clk_hz, 1, 2.0 * c_lsb, dev.vdd_nom_v);
  a.p_peripheral_w = per.total_power();

  a.p_in_w = a.p_out_w + a.p_pass_w + a.p_quiescent_w + a.p_peripheral_w;
  a.efficiency = a.p_out_w / a.p_in_w;
  a.current_efficiency = i_load_a / (i_load_a + d.i_quiescent_a +
                                     a.p_peripheral_w / std::max(vin_v, 1e-9));

  // Limit cycle: the loop dithers by one LSB of pass current each clock; the
  // output integrates that error on C_out for one clock period.
  const double i_lsb = (vin_v - vout_v) / dev.ron(d.w_pass_m) / segments;
  a.ripple_pp_v = std::max(i_lsb, 0.0) / (d.f_clk_hz * d.c_out_f);

  const tech::CapacitorTech cap = tech::capacitor_tech(d.node, d.cap_kind);
  a.area_m2 = kWiringOverhead * (dev.area(d.w_pass_m) + cap.area(d.c_out_f) + per.area_m2);
  IVORY_CHECK_FINITE(a.efficiency, "analyze_ldo");
  IVORY_CHECK_FINITE(a.ripple_pp_v, "analyze_ldo");
  IVORY_CHECK_FINITE(a.area_m2, "analyze_ldo");
  return a;
}

}  // namespace ivory::core
