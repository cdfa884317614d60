// Reproduces Fig. 8: buck-converter efficiency validation.
//
// Left: Ivory vs measurements of a 45 nm SOI 2.5D buck with integrated
// interposer inductors at 1 / 3 / 4 A load. Right: Ivory vs switch-level
// circuit simulation (ivory_spice) of a 10 nm-class buck at 1 / 2 A.
#include <cstdio>

#include "common/statistics.hpp"
#include "common/table.hpp"
#include "core/ivory.hpp"
#include "support/refdata.hpp"

using namespace ivory;
using ivory::bench::CurvePoint;

namespace {

// Ivory model of the published 2.5D part: interposer coupled inductors,
// 45 nm switches, a few phases at tens of MHz.
core::BuckDesign part_45nm() {
  core::BuckDesign d;
  d.node = tech::Node::n45;
  d.inductor = tech::InductorKind::IntegratedInterposer;
  d.cap_kind = tech::CapKind::DeepTrench;
  d.l_per_phase_h = 13e-9;
  d.f_sw_hz = 75e6;
  d.n_phases = 2;
  d.w_high_m = 0.10;
  d.w_low_m = 0.13;
  d.c_out_f = 200e-9;
  return d;
}

// Simulates the single-phase equivalent buck switch-level and returns
// (vout, efficiency); the gate/driver losses the netlist cannot express are
// taken from the analytical model (the same treatment the paper applies
// when comparing against power-stage-only simulations).
struct SimPoint {
  double vout;
  double eff;
};
SimPoint simulate_buck(const core::BuckDesign& d, double vin, double i_load) {
  const core::BuckAnalysis a = core::analyze_buck(d, vin, 1.0, i_load);  // For duty + overheads.
  const tech::SwitchTech& core_dev = tech::switch_tech(d.node, tech::DeviceClass::Core);
  const tech::SwitchTech& dev =
      vin > core_dev.vmax_v ? tech::switch_tech(d.node, tech::DeviceClass::Io) : core_dev;
  const tech::InductorTech& ind = tech::inductor_tech(d.inductor);
  const double n = d.n_phases;  // N phases folded in parallel.
  core::BuckStage stage;
  stage.vin_v = vin;
  stage.f_sw_hz = d.f_sw_hz;
  stage.duty = a.duty;
  stage.r_high_ohm = dev.ron(d.w_high_m) / n;
  stage.r_low_ohm = dev.ron(d.w_low_m) / n;
  stage.l_h = ind.inductance_at(d.l_per_phase_h, d.f_sw_hz) / n;
  stage.r_dcr_ohm = std::max(ind.dcr(d.l_per_phase_h) / n, 1e-6);
  stage.c_out_f = d.c_out_f;
  stage.vout_ic_v = 1.0;
  stage.i_load_a = i_load;
  spice::Circuit ckt;
  const core::BuckNetlist net = core::build_buck_netlist(ckt, stage);
  const spice::NodeId out = net.out, sw = net.sw;

  spice::TranSpec spec;
  spec.tstop = 120.0 / d.f_sw_hz;
  spec.dt = 1.0 / (1600.0 * d.f_sw_hz);
  spec.use_ic = true;
  spec.record_nodes = {out, sw};
  const spice::TranResult res = spice::transient(ckt, spec);

  // Average over the settled last quarter; input current flows while the
  // high-side switch conducts.
  const spice::PhaseClock clk(d.f_sw_hz, 1, a.duty);
  const std::vector<double>& vo = res.at(out);
  const std::vector<double>& vsw = res.at(sw);
  double vout_avg = 0.0, p_in = 0.0;
  std::size_t cnt = 0;
  for (std::size_t k = vo.size() * 3 / 4; k < vo.size(); ++k) {
    vout_avg += vo[k];
    const double t = res.time[k];
    const double i_in = clk.active(0, t) ? (vin - vsw[k]) / stage.r_high_ohm : 0.0;
    p_in += vin * i_in;
    ++cnt;
  }
  vout_avg /= static_cast<double>(cnt);
  p_in /= static_cast<double>(cnt);
  // Add the losses the power-stage netlist cannot express.
  p_in += a.p_gate_w + a.p_overlap_w + a.p_coss_w + a.p_deadtime_w + a.p_peripheral_w;
  return {vout_avg, vout_avg * i_load / p_in};
}

}  // namespace

int main() {
  std::printf("=== Fig. 8: efficiency validation for buck converters ===\n\n");

  // Left: measured 45 nm 2.5D buck at three load currents, Vin = 1.8 V.
  for (double i_load : {1.0, 3.0, 4.0}) {
    std::printf("--- %.0f A vs 45nm 2.5D measurements ---\n", i_load);
    TextTable table({"Vout (V)", "measured eff", "Ivory eff", "delta"});
    double worst = 0.0;
    for (const CurvePoint& p : ivory::bench::measured_buck_45nm(i_load)) {
      const core::BuckAnalysis a = core::analyze_buck(part_45nm(), 1.8, p.x, i_load);
      const double delta = a.efficiency - p.y;
      worst = std::max(worst, std::fabs(delta));
      table.add_row({TextTable::num(p.x, 3), TextTable::num(p.y, 3),
                     TextTable::num(a.efficiency, 3), TextTable::num(delta, 2)});
    }
    std::printf("%sworst |delta|: %.3f\n\n", table.render().c_str(), worst);
  }

  // Right: Ivory vs switch-level simulation, 10 nm-class design at 1 / 2 A.
  std::printf("--- 10nm buck, Ivory vs circuit simulation ---\n");
  TextTable table({"I load", "Ivory vout", "sim vout", "Ivory eff", "sim eff", "delta"});
  core::BuckDesign d;
  d.node = tech::Node::n10;
  d.inductor = tech::InductorKind::IntegratedInterposer;
  d.cap_kind = tech::CapKind::DeepTrench;
  d.l_per_phase_h = 8e-9;
  d.f_sw_hz = 100e6;
  d.n_phases = 2;
  d.w_high_m = 0.05;
  d.w_low_m = 0.07;
  d.c_out_f = 150e-9;
  for (double i_load : {1.0, 2.0}) {
    const core::BuckAnalysis a = core::analyze_buck(d, 1.8, 1.0, i_load);
    const SimPoint sim = simulate_buck(d, 1.8, i_load);
    table.add_row({TextTable::num(i_load, 2), TextTable::num(a.vout_v, 3),
                   TextTable::num(sim.vout, 3), TextTable::num(a.efficiency, 3),
                   TextTable::num(sim.eff, 3), TextTable::num(a.efficiency - sim.eff, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: Ivory tracks the measured dome within a few percent and the\n"
              "switch-level simulation closely (same power stage, same overhead terms).\n");
  return 0;
}
