#include "core/buck_model.hpp"

#include "common/error.hpp"
#include "spice/phase_clock.hpp"

namespace ivory::core {

BuckPrepared prepare_buck(const BuckDesign& d, double vin_v) {
  BuckPrepared k;
  k.vin_v = vin_v;
  // Device class: the power train sees the full input voltage.
  const tech::SwitchTech& core_dev = tech::switch_tech(d.node, tech::DeviceClass::Core);
  k.dev = vin_v > core_dev.vmax_v ? tech::switch_tech(d.node, tech::DeviceClass::Io) : core_dev;
  k.ind = &tech::inductor_tech(d.inductor);
  k.cap = tech::capacitor_tech(d.node, d.cap_kind);
  k.v_drive_v = std::min(k.dev.vdd_nom_v, vin_v);
  // Transition time ~ 4x the device Ron*Cg figure of merit (self-loaded
  // driver).
  k.t_tr_s = 4.0 * k.dev.fom_s();
  k.per = peripheral_tech(d.node);
  return k;
}

BuckAnalysis analyze_buck(const BuckDesign& d, double vin_v, double vout_v, double i_load_a) {
  IVORY_CHECK_FINITE(vin_v, "analyze_buck");
  IVORY_CHECK_FINITE(vout_v, "analyze_buck");
  IVORY_CHECK_FINITE(i_load_a, "analyze_buck");
  require(vin_v > 0.0, "analyze_buck: vin must be positive");
  require(vout_v > 0.0 && vout_v < vin_v, "analyze_buck: need 0 < vout < vin");
  require(i_load_a > 0.0, "analyze_buck: load current must be positive");
  require(d.l_per_phase_h > 0.0, "BuckDesign: inductance must be positive");
  require(d.f_sw_hz > 0.0, "BuckDesign: f_sw must be positive");
  require(d.n_phases >= 1, "BuckDesign: need at least one phase");
  require(d.w_high_m > 0.0 && d.w_low_m > 0.0, "BuckDesign: switch widths must be positive");
  require(d.c_out_f > 0.0, "BuckDesign: output capacitance must be positive");

  const BuckPrepared k = prepare_buck(d, vin_v);
  const BuckRow row = buck_row(k, d, vout_v, i_load_a);
  require(row.reachable, "analyze_buck: duty out of range — vout unreachable");
  const double l_eff = d.ignore_l_rolloff ? d.l_per_phase_h
                                          : k.ind->inductance_at(d.l_per_phase_h, d.f_sw_hz);
  const BuckAnalysis a = buck_at(k, row, d.f_sw_hz, l_eff);
  IVORY_CHECK_FINITE(a.efficiency, "analyze_buck");
  IVORY_CHECK_FINITE(a.ripple_pp_v, "analyze_buck");
  IVORY_CHECK_FINITE(a.area_m2, "analyze_buck");
  return a;
}

BuckNetlist build_buck_netlist(spice::Circuit& c, const BuckStage& s) {
  const spice::NodeId vin = c.node("vin");
  const spice::NodeId sw = c.node("sw");
  const spice::NodeId lx = c.node("lx");
  const spice::NodeId out = c.node("out");
  c.add_vsource("v1", vin, spice::kGround, spice::Waveform::dc(s.vin_v));
  const spice::PhaseClock clk(s.f_sw_hz, 1, s.duty);
  c.add_switch("s_hs", vin, sw, s.r_high_ohm, 1e8, clk.phase(0));
  c.add_switch("s_ls", sw, spice::kGround, s.r_low_ohm, 1e8, clk.phase(0, /*inverted=*/true));
  c.add_inductor_ic("l1", sw, lx, s.l_h, s.i_load_a);
  c.add_resistor("r_dcr", lx, out, s.r_dcr_ohm);
  c.add_capacitor_ic("cout", out, spice::kGround, s.c_out_f, s.vout_ic_v);
  c.add_isource("iload", out, spice::kGround, spice::Waveform::dc(s.i_load_a));
  return {sw, out};
}

}  // namespace ivory::core
