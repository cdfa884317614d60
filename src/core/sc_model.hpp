// Static model of switched-capacitor IVRs (paper Section 3.2).
//
// Follows Seeman's analytical methodology: the charge-multiplier vectors of
// the topology give the slow- and fast-switching-limit output impedances
//
//   R_SSL = (sum |a_c,i|)^2 / (C_tot * f_sw)
//   R_FSL = (sum |a_r,i|)^2 / (G_tot * D_cyc)
//
// (paper eq. (1), optimal capacitor/switch allocation). Conduction loss is
// I^2 * sqrt(R_SSL^2 + R_FSL^2); switching losses cover gate drive, bottom-
// plate parasitics, capacitor gate leakage and switch off-state leakage; the
// shared peripheral blocks come from blocks.hpp. Device class (core vs
// thick-oxide IO) is chosen per switch from its blocking-voltage stress.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/blocks.hpp"
#include "core/sc_topology.hpp"
#include "tech/tech.hpp"

namespace ivory::core {

/// The sizing of an SC design: the fields a sweep varies from candidate to
/// candidate, and all the per-candidate evaluation reads of a design.
struct ScSizing {
  double c_fly_f = 0.0;
  double c_out_f = 0.0;
  double g_tot_s = 0.0;
  double f_sw_hz = 0.0;  ///< Design switching frequency.
  int n_interleave = 1;
  double duty = 0.5;
};

struct ScDesign {
  tech::Node node = tech::Node::n32;
  tech::CapKind cap_kind = tech::CapKind::MosCap;
  int n = 2, m = 1;           ///< Conversion ratio n:m (Vout ~ m/n * Vin).
  ScFamily family = ScFamily::Auto;
  double c_fly_f = 0.0;       ///< Total flying (+ interior DC) capacitance.
  double g_tot_s = 0.0;       ///< Total switch on-conductance.
  double f_sw_hz = 0.0;       ///< Per-phase switching frequency.
  int n_interleave = 1;       ///< Interleaved converter slices.
  double c_out_f = 0.0;       ///< Output decap (not part of c_fly_f).
  double duty = 0.5;          ///< D_cyc of the phase signals.

  // --- advanced-user hooks (paper Section 3.2) -----------------------------
  /// Custom switch topology: "advanced users can plug-in their own switch
  /// topology" — when set, n/m/family above are ignored and the charge
  /// multipliers are derived from this network instead.
  std::shared_ptr<const ScTopology> custom_topology;
  /// Direct technology overrides (bypass the built-in database).
  std::optional<tech::CapacitorTech> custom_cap;

  /// The topology this design analyzes (custom or built-in).
  ScTopology topology() const {
    return custom_topology ? *custom_topology : make_topology(n, m, family);
  }
  /// The capacitor technology this design uses (custom or database).
  tech::CapacitorTech capacitor() const {
    return custom_cap ? *custom_cap : tech::capacitor_tech(node, cap_kind);
  }
  ScSizing sizing() const { return {c_fly_f, c_out_f, g_tot_s, f_sw_hz, n_interleave, duty}; }
  void set_sizing(const ScSizing& s) {
    c_fly_f = s.c_fly_f;
    c_out_f = s.c_out_f;
    g_tot_s = s.g_tot_s;
    f_sw_hz = s.f_sw_hz;
    n_interleave = s.n_interleave;
    duty = s.duty;
  }
};

struct ScAnalysis {
  // Operating point.
  double vin_v = 0.0, i_load_a = 0.0;
  double vout_ideal_v = 0.0;  ///< (m/n) * Vin.
  double vout_v = 0.0;        ///< After the I*R_out drop.
  // Impedances.
  double rssl_ohm = 0.0, rfsl_ohm = 0.0, rout_ohm = 0.0;
  // Power breakdown [W].
  double p_out_w = 0.0;
  double p_conduction_w = 0.0;
  double p_gate_w = 0.0;
  double p_bottom_plate_w = 0.0;
  double p_leakage_w = 0.0;
  double p_peripheral_w = 0.0;
  double p_in_w = 0.0;
  double efficiency = 0.0;
  // Ripple and area.
  double ripple_pp_v = 0.0;
  double area_caps_m2 = 0.0, area_switches_m2 = 0.0, area_peripheral_m2 = 0.0;
  double area_m2 = 0.0;
  double switch_width_m = 0.0;  ///< Total gate width across all switches.
};

/// The design-independent part of the SC model for one topology x
/// technology x vin: the charge-multiplier sums, the switch sums of the
/// optimal conductance allocation (G_i ~ |a_r,i|, device class chosen per
/// switch from its blocking voltage) per siemens of G_tot, the capacitor and
/// its rating check, and the output's HF fly-capacitance fraction. Every
/// sizing of that topology evaluates against it in O(1).
struct ScPrepared {
  double vin_v = 0.0;
  double ratio = 0.0;         ///< Ideal conversion ratio m/n.
  double vout_ideal_v = 0.0;  ///< ratio * vin.
  double sum_ac = 0.0, sum_ar = 0.0;
  // Switch sums per siemens of G_tot (W_i = RonW_i * G_i).
  double width_per_s = 0.0;        ///< Gate width [m/S].
  double area_per_s = 0.0;         ///< Die area [m^2/S].
  double gate_cv2_per_s = 0.0;     ///< Gate C * V_drive^2, each at its own drive [F V^2/S].
  double gate_c_core_per_s = 0.0;  ///< The same energy as gate C at the core supply [F/S].
  double leak_w_per_s = 0.0;       ///< Off-state leakage power, off half the time [W/S].
  tech::CapacitorTech cap{};
  bool cap_rating_ok = false;      ///< Every cap's held voltage within the rating.
  double v_cap_v = 0.0;            ///< Voltage held by the first cap (leakage bias).
  double hf_fly_fraction = 0.0;    ///< sc_output_hf_cap's share of c_fly.
  PeripheralTech per;
};

/// Prepares the topology, technology and capacitor of `d` at `vin_v` (its
/// sizing is not read).
ScPrepared prepare_sc(const ScDesign& d, double vin_v);

/// Bottom-plate loss: the parasitic bottom plate of every fly cap swings by
/// about one output voltage each cycle. Modern SC IVRs recover most of that
/// charge with bottom-plate charge recycling (Tong et al., CICC'13 — the
/// paper's ref [4]); the factor keeps the unrecovered quarter.
inline constexpr double kBottomPlateResidual = 0.25;

/// FSL output impedance sum_ar^2 / (G_tot * D) of sizing `s`.
inline double sc_rfsl(const ScPrepared& k, const ScSizing& s) {
  return k.sum_ar * k.sum_ar / (s.g_tot_s * s.duty);
}

/// The switching frequency at which sizing `s`'s output impedance
/// hypot(R_SSL, R_FSL) equals `r_out_ohm` (NaN below the FSL floor).
inline double sc_frequency_for(const ScPrepared& k, const ScSizing& s, double r_out_ohm) {
  const double rfsl = sc_rfsl(k, s);
  const double rssl = std::sqrt(r_out_ohm * r_out_ohm - rfsl * rfsl);
  return k.sum_ac * k.sum_ac / (s.c_fly_f * rssl);
}

/// Per-candidate evaluation: the switching and shunt losses, input power,
/// ripple and area of sizing `s` switching at `f_sw_hz` (the regulated
/// rate; s.f_sw_hz is the design rate the peripheral blocks run at) and
/// delivering `i_load_a`. Fills every loss, ripple and area field of `a`;
/// the impedances, output power and efficiency are the analyzer's.
/// O(1) in the switch count; never allocates, locks or throws for a valid
/// sizing.
inline void sc_evaluate(const ScPrepared& k, const ScSizing& s, double f_sw_hz,
                        double i_load_a, ScAnalysis& a) {
  a.switch_width_m = k.width_per_s * s.g_tot_s;
  a.area_switches_m2 = k.area_per_s * s.g_tot_s;
  a.p_gate_w = f_sw_hz * k.gate_cv2_per_s * s.g_tot_s;
  const double v_bp = k.vout_ideal_v;
  a.p_bottom_plate_w =
      kBottomPlateResidual * f_sw_hz * k.cap.bottom_plate_ratio * s.c_fly_f * v_bp * v_bp;
  // Capacitor (gate-oxide) leakage at the cap's held voltage, plus the
  // switches' off-state leakage.
  a.p_leakage_w = k.cap.leak_a_per_f * s.c_fly_f * k.v_cap_v + k.leak_w_per_s * s.g_tot_s;

  // Shared peripheral blocks. The controller/comparator/clock run at the
  // *design* frequency even when the regulation loop skips pulses (f_sw
  // here may be the lower effective rate) — this fixed overhead is what
  // bends measured SC efficiency below the ideal vout/videal slope at light
  // output. The driver chain switches at the effective rate; its gate
  // capacitance is the core-supply equivalent of every switch's drive
  // energy.
  const PeripheralBudget per =
      peripheral_budget(k.per, s.f_sw_hz, 2 * s.n_interleave, k.gate_c_core_per_s * s.g_tot_s,
                        k.per.vdd_v, f_sw_hz);
  a.p_peripheral_w = per.total_power();

  // Input power: ideal transformer charge ratio plus all shunt losses
  // (conduction loss is already inside the vin*(m/n)*I - vout*I gap).
  a.p_in_w = k.vin_v * k.ratio * i_load_a + a.p_gate_w + a.p_bottom_plate_w + a.p_leakage_w +
             a.p_peripheral_w;

  // Output ripple: one interleave slice delivers its charge packet every
  // 1/(N*f) seconds into the high-frequency output capacitance.
  a.ripple_pp_v = i_load_a / (static_cast<double>(s.n_interleave) * f_sw_hz) /
                  std::max(s.c_out_f + k.hf_fly_fraction * s.c_fly_f, 1e-18);

  a.area_caps_m2 = k.cap.area(s.c_fly_f) + (s.c_out_f > 0.0 ? k.cap.area(s.c_out_f) : 0.0);
  // peripheral_budget already replicates the clock/comparator per phase.
  a.area_peripheral_m2 = per.area_m2;
  a.area_m2 = kWiringOverhead * (a.area_caps_m2 + a.area_switches_m2 + a.area_peripheral_m2);
}

/// Evaluates the design at (vin, i_load) running open-loop at its design
/// switching frequency.
ScAnalysis analyze_sc(const ScDesign& d, double vin_v, double i_load_a);

/// Evaluates the design regulated to `vout_target`: the controller lowers the
/// effective switching frequency (raising R_SSL) until the output drops to
/// the target. Infeasible when the target exceeds what the converter can
/// reach at its design frequency (the "efficiency cliff" past the peak in
/// Fig. 7) or sits below the floor the FSL impedance allows.
struct ScRegulated {
  bool feasible = false;
  double f_sw_used_hz = 0.0;
  ScAnalysis analysis;
};
ScRegulated analyze_sc_regulated(const ScDesign& d, double vin_v, double vout_target_v,
                                 double i_load_a);

/// Effective high-frequency decoupling seen at the output: the output decap
/// plus the fly-capacitance fraction connected across the load at any
/// instant. This is the C of the in-cycle model.
double sc_output_hf_cap(const ScDesign& d);

}  // namespace ivory::core
