// Static model of buck-converter IVRs (paper Section 3.2).
//
// Loss model follows the validated off-chip buck analysis of Choi et al.
// (TCAD'07), extended on-chip by deriving switch and inductor parameters
// from the technology database, including the polynomial-fitted frequency-
// dependent inductance coefficient that matters for buck IVRs switching at
// tens-to-hundreds of MHz.
//
// Continuous conduction mode (CCM) throughout; N-way interleaving splits the
// load across phases and cancels output ripple with the classic multiphase
// cancellation factor.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/blocks.hpp"
#include "tech/tech.hpp"

namespace ivory::core {

struct BuckDesign {
  tech::Node node = tech::Node::n32;
  tech::InductorKind inductor = tech::InductorKind::MagneticFilm;
  tech::CapKind cap_kind = tech::CapKind::MosCap;
  double l_per_phase_h = 0.0;  ///< DC inductance per phase.
  double f_sw_hz = 0.0;
  int n_phases = 1;            ///< Interleaved phases.
  double w_high_m = 0.0;       ///< High-side switch width per phase.
  double w_low_m = 0.0;        ///< Low-side switch width per phase.
  double c_out_f = 0.0;        ///< Output capacitance (total).
  /// Ablation hook: pretend L(f) = L0 (disables the polynomial-fitted
  /// frequency rolloff the paper highlights for buck IVRs).
  bool ignore_l_rolloff = false;
};

struct BuckAnalysis {
  double vin_v = 0.0, vout_v = 0.0, i_load_a = 0.0;
  double duty = 0.0;
  double l_eff_h = 0.0;          ///< Inductance after frequency rolloff.
  double i_ripple_phase_a = 0.0; ///< Peak-to-peak inductor ripple per phase.
  double i_ripple_out_a = 0.0;   ///< After interleaving cancellation.
  // Power breakdown [W].
  double p_out_w = 0.0;
  double p_conduction_w = 0.0;  ///< Switch + inductor DCR conduction.
  double p_gate_w = 0.0;
  double p_overlap_w = 0.0;     ///< V-I overlap during transitions.
  double p_coss_w = 0.0;        ///< Output-capacitance (junction) loss.
  double p_deadtime_w = 0.0;    ///< Body-diode conduction in dead time.
  double p_peripheral_w = 0.0;
  double p_in_w = 0.0;
  double efficiency = 0.0;
  // Ripple and area.
  double ripple_pp_v = 0.0;
  double area_die_m2 = 0.0;      ///< Die area (switches, caps, on-die inductors).
  double area_offdie_m2 = 0.0;   ///< Interposer/board area for off-die inductors.
  double area_m2 = 0.0;          ///< area_die + area_offdie.
};

/// Multiphase output-ripple cancellation factor in [0, 1]:
/// ratio of the summed N-phase ripple to a single phase's ripple at duty D.
inline double interleave_cancellation(int n_phases, double duty) {
  require(n_phases >= 1, "interleave_cancellation: need at least one phase");
  require(duty > 0.0 && duty < 1.0, "interleave_cancellation: duty must be in (0, 1)");
  if (n_phases == 1) return 1.0;
  const double nd = static_cast<double>(n_phases) * duty;
  const double frac = nd - std::floor(nd);
  // Classic multiphase ripple-current cancellation (summed inductor current
  // ripple relative to one phase's ripple). Exactly zero when N*D is an
  // integer.
  return frac * (1.0 - frac) / (static_cast<double>(n_phases) * duty * (1.0 - duty));
}

/// The design-independent part of the buck model for one technology x vin:
/// the power-train device (thick-oxide IO when vin exceeds the core
/// rating), the inductor and output-capacitor technologies, and the drive
/// constants. Every sizing evaluates against it in O(1).
struct BuckPrepared {
  double vin_v = 0.0;
  tech::SwitchTech dev{};
  const tech::InductorTech* ind = nullptr;
  tech::CapacitorTech cap{};
  double v_drive_v = 0.0;  ///< Gate swing: the device rating, capped by the vin rail.
  double t_tr_s = 0.0;     ///< Switching-transition time.
  PeripheralTech per;
};

/// Prepares the node, inductor and capacitor kinds of `d` at `vin_v` (the
/// sizing fields of `d` are not read).
BuckPrepared prepare_buck(const BuckDesign& d, double vin_v);

/// First half of the per-candidate evaluation: the CCM duty cycle from
/// volt-second balance with conduction drops, and the per-phase and
/// interleaved inductor ripple, with `l_eff_h` the inductance at d.f_sw_hz.
/// Returns false, leaving the ripple unset, when the duty leaves (0, 1):
/// vout is unreachable (analyze_buck reports that as InvalidParameter).
inline bool buck_operating_point(const BuckPrepared& k, const BuckDesign& d, double l_eff_h,
                                 double vout_v, double i_load_a, BuckAnalysis& a) {
  const double vin_v = k.vin_v;
  const double i_ph = i_load_a / static_cast<double>(d.n_phases);
  const double r_hs = k.dev.ron(d.w_high_m);
  const double r_ls = k.dev.ron(d.w_low_m);
  const double r_dcr = k.ind->dcr(d.l_per_phase_h);
  a.l_eff_h = l_eff_h;

  // CCM volt-second balance with conduction drops, two fixed-point passes.
  double duty = vout_v / vin_v;
  for (int pass = 0; pass < 2; ++pass) {
    const double drop_on = i_ph * (r_hs + r_dcr);
    const double drop_off = i_ph * (r_ls + r_dcr);
    duty = (vout_v + drop_off) / std::max(vin_v - drop_on + drop_off, 1e-9);
  }
  a.duty = duty;
  if (!(duty > 0.0 && duty < 1.0)) return false;

  a.i_ripple_phase_a = (vin_v - vout_v) * duty / (a.l_eff_h * d.f_sw_hz);
  a.i_ripple_out_a = a.i_ripple_phase_a * interleave_cancellation(d.n_phases, duty);
  return true;
}

/// Second half: the losses, input power, efficiency, output ripple and
/// area at the operating point buck_operating_point left in `a`. Never
/// allocates, locks or throws for a valid sizing.
inline void buck_evaluate(const BuckPrepared& k, const BuckDesign& d, double vout_v,
                          double i_load_a, BuckAnalysis& a) {
  const tech::SwitchTech& dev = k.dev;
  const double vin_v = k.vin_v;
  const double duty = a.duty;
  const double n = static_cast<double>(d.n_phases);
  const double i_ph = i_load_a / n;
  const double r_hs = dev.ron(d.w_high_m);
  const double r_ls = dev.ron(d.w_low_m);
  const double r_dcr = k.ind->dcr(d.l_per_phase_h);

  a.p_out_w = vout_v * i_load_a;

  // Conduction: RMS current includes the triangular ripple term.
  const double i_sq = i_ph * i_ph + a.i_ripple_phase_a * a.i_ripple_phase_a / 12.0;
  const double r_eff = duty * r_hs + (1.0 - duty) * r_ls + r_dcr;
  a.p_conduction_w = n * i_sq * r_eff;

  // Gate drive swings at most the available input rail (drivers are supplied
  // from vin), capped by the device's nominal gate rating.
  const double v_drive = k.v_drive_v;
  const double cg_phase = dev.cgate(d.w_high_m) + dev.cgate(d.w_low_m);
  a.p_gate_w = n * d.f_sw_hz * cg_phase * v_drive * v_drive;

  // Transition (V-I overlap), two transitions per cycle.
  const double t_tr = k.t_tr_s;
  a.p_overlap_w = n * vin_v * i_ph * t_tr * d.f_sw_hz;

  // Junction capacitance of the switching node charged to vin each cycle.
  const double cd_phase = dev.cdrain(d.w_high_m) + dev.cdrain(d.w_low_m);
  a.p_coss_w = n * d.f_sw_hz * cd_phase * vin_v * vin_v;

  // Body-diode conduction during dead time (both edges).
  const double t_dead = 2.0 * t_tr;
  const double v_diode = 0.65;
  a.p_deadtime_w = n * 2.0 * d.f_sw_hz * t_dead * i_ph * v_diode;

  const PeripheralBudget per =
      peripheral_budget(k.per, d.f_sw_hz, d.n_phases, n * cg_phase, v_drive, d.f_sw_hz);
  a.p_peripheral_w = per.total_power();

  a.p_in_w = a.p_out_w + a.p_conduction_w + a.p_gate_w + a.p_overlap_w + a.p_coss_w +
             a.p_deadtime_w + a.p_peripheral_w;
  a.efficiency = a.p_out_w / a.p_in_w;

  // Output ripple: capacitive charging of C_out by the residual current
  // ripple at the N-phase effective frequency, plus the ESR step.
  const double f_eff = n * d.f_sw_hz;
  a.ripple_pp_v = a.i_ripple_out_a / (8.0 * f_eff * d.c_out_f) +
                  a.i_ripple_out_a * k.cap.esr(d.c_out_f);

  // Area: switches and decap on die; inductors wherever the technology puts
  // them.
  const double area_sw = n * (dev.area(d.w_high_m) + dev.area(d.w_low_m));
  const double area_cap = k.cap.area(d.c_out_f);
  const double area_ind = n * k.ind->area(d.l_per_phase_h);
  a.area_die_m2 =
      kWiringOverhead * (area_sw + area_cap + per.area_m2 + (k.ind->on_die ? area_ind : 0.0));
  a.area_offdie_m2 = k.ind->on_die ? 0.0 : area_ind;
  a.area_m2 = a.area_die_m2 + a.area_offdie_m2;
}

/// Evaluates the buck at (vin -> vout, i_load). The converter is regulated:
/// the duty cycle settles wherever CCM volt-second balance (including
/// conduction drops) puts it. Throws when the target is unreachable
/// (vout >= vin) or the design fields are invalid.
BuckAnalysis analyze_buck(const BuckDesign& d, double vin_v, double vout_v, double i_load_a);

}  // namespace ivory::core
