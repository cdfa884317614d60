// Shared IVR building blocks: drivers, comparator, digital controller, and
// clock generator.
//
// "Different IVR topologies share many of the same circuit building blocks
// ... By commensurately modeling these shared building blocks across all
// topologies, Ivory guarantees fair comparisons between different
// topologies" (paper Section 3.2). Power and area here are small next to the
// power train, but they matter for transient response and for the
// scalability of distributed designs, so they are modeled explicitly from
// per-node gate energies rather than ignored.
#pragma once

#include "common/error.hpp"
#include "tech/tech.hpp"

namespace ivory::core {

/// Wiring/keep-out overhead applied to every converter's summed block area
/// (15%); the sizing code divides an area budget by it to get the usable
/// share.
inline constexpr double kWiringOverhead = 1.15;

// Gate populations (gate equivalents) for the digital feedback system; sized
// after published digital-LDO / SC-controller breakdowns.
inline constexpr double kControllerGates = 1500.0;
inline constexpr double kClockGatesPerPhase = 200.0;
inline constexpr double kComparatorGateEquiv = 50.0;
inline constexpr double kActivity = 0.2;         ///< Average toggling activity.
inline constexpr double kDriverOverhead = 0.30;  ///< Tapered-buffer chain vs final stage.
inline constexpr double kUnitWidth_m = 0.5e-6;   ///< Unit gate: 0.5 um of W, 4 devices.

struct PeripheralBudget {
  double p_controller_w = 0.0;
  double p_clockgen_w = 0.0;
  double p_comparator_w = 0.0;
  double p_driver_w = 0.0;  ///< Tapered-buffer overhead beyond the final gate charge.
  double area_m2 = 0.0;

  double total_power() const {
    return p_controller_w + p_clockgen_w + p_comparator_w + p_driver_w;
  }
};

/// The per-node constants of the peripheral blocks, looked up once so the
/// per-candidate evaluations never touch the technology tables.
struct PeripheralTech {
  double vdd_v = 0.0;         ///< Core supply the digital blocks run at.
  double unit_cg_f = 0.0;     ///< Unit gate capacitance: 4 devices of kUnitWidth_m.
  double unit_area_m2 = 0.0;  ///< Die area of one kUnitWidth_m device.
};

PeripheralTech peripheral_tech(tech::Node node);

/// The frequency-free half of the peripheral budget: each power term's
/// energy per event of its rate (every product's leading factors, in the
/// order the budget multiplies them), and the area.
struct PeripheralRates {
  double n_phases = 1.0;
  double controller_j = 0.0;  ///< Per controller event (f_sw * n_phases).
  double clockgen_j = 0.0;    ///< Per clock period (f_sw).
  double comparator_j = 0.0;  ///< Per controller event.
  double driver_j = 0.0;      ///< Per drive event (f_drive).
  double area_m2 = 0.0;
};

/// The rates of a converter with `n_phases` interleaved phases, driving
/// `c_gate_total_f` of final-stage gate capacitance at `v_drive_v`.
///
/// The digital blocks are modeled as gate populations (controller ~1.5k
/// gates, clock generator ~200 gates per phase, comparator ~50 gate-
/// equivalents per sample) with per-node unit gate capacitance; the driver
/// chain adds the classic tapered-buffer factor (~1/(F-1) of the final-stage
/// energy per stage, lumped as 30%).
inline PeripheralRates peripheral_rates(const PeripheralTech& t, int n_phases,
                                        double c_gate_total_f, double v_drive_v) {
  require(n_phases >= 1, "peripheral_budget: need at least one phase");
  require(c_gate_total_f >= 0.0, "peripheral_budget: gate cap must be non-negative");
  require(v_drive_v > 0.0, "peripheral_budget: drive voltage must be positive");

  const double vdd = t.vdd_v;
  const double cg = t.unit_cg_f;
  PeripheralRates r;
  r.n_phases = static_cast<double>(n_phases);
  r.controller_j = kControllerGates * kActivity * cg * vdd * vdd;
  r.clockgen_j = kClockGatesPerPhase * r.n_phases * kActivity * cg * vdd * vdd;
  r.comparator_j = kComparatorGateEquiv * cg * vdd * vdd;
  r.driver_j = kDriverOverhead * c_gate_total_f * v_drive_v * v_drive_v;

  const double gate_count =
      kControllerGates + kClockGatesPerPhase * r.n_phases + kComparatorGateEquiv * r.n_phases;
  // Each gate: 4 unit devices plus routing (x2).
  r.area_m2 = gate_count * 4.0 * t.unit_area_m2 * 2.0;
  return r;
}

/// The budget at clock `f_sw_hz`, driving `f_drive_hz` times a second (the
/// switching rate, which pulse skipping can hold below the clock).
inline PeripheralBudget peripheral_at(const PeripheralRates& r, double f_sw_hz,
                                      double f_drive_hz) {
  // The controller and comparator run once per switching event of any phase.
  const double f_ctrl = f_sw_hz * r.n_phases;
  PeripheralBudget b;
  b.p_controller_w = r.controller_j * f_ctrl;
  b.p_clockgen_w = r.clockgen_j * f_sw_hz;
  b.p_comparator_w = r.comparator_j * f_ctrl;
  b.p_driver_w = r.driver_j * f_drive_hz;
  b.area_m2 = r.area_m2;
  return b;
}

/// Peripheral power/area for a converter clocked at `f_sw_hz`: the rates
/// of peripheral_rates at peripheral_at's frequencies.
inline PeripheralBudget peripheral_budget(const PeripheralTech& t, double f_sw_hz,
                                          int n_phases, double c_gate_total_f,
                                          double v_drive_v, double f_drive_hz) {
  require(f_sw_hz > 0.0, "peripheral_budget: f_sw must be positive");
  return peripheral_at(peripheral_rates(t, n_phases, c_gate_total_f, v_drive_v), f_sw_hz,
                       f_drive_hz);
}

/// The same budget in technology `node`, driving at the clock rate.
inline PeripheralBudget peripheral_budget(tech::Node node, double f_sw_hz, int n_phases,
                                          double c_gate_total_f, double v_drive_v) {
  return peripheral_budget(peripheral_tech(node), f_sw_hz, n_phases, c_gate_total_f, v_drive_v,
                           f_sw_hz);
}

}  // namespace ivory::core
