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
#include "spice/circuit.hpp"
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

/// The half of a buck evaluation that does not depend on the switching
/// frequency, computed once per sizing (a row of the f_sw axis): the phase
/// current, the CCM duty and its reachability, the interleave cancellation,
/// the capacitance sums, each f-proportional loss's leading factors, the
/// ESR and the areas. Only `reachable` is meaningful when it is false.
struct BuckRow {
  bool reachable = false;  ///< The duty lies in (0, 1): vout is reachable.
  double vout_v = 0.0, i_load_a = 0.0;
  double n = 1.0;             ///< Phases.
  double i_phase_a = 0.0;     ///< DC current per phase.
  double duty = 0.0;
  double v_ripple_v = 0.0;    ///< (vin - vout) * duty = ripple per phase x L x f_sw.
  double cancellation = 1.0;  ///< interleave_cancellation(n_phases, duty).
  double i_phase_sq = 0.0;    ///< DC term of the squared RMS phase current.
  double r_eff_ohm = 0.0;     ///< Duty-weighted switch resistance plus DCR.
  double cg_phase_f = 0.0;    ///< Gate capacitance per phase.
  double cd_phase_f = 0.0;    ///< Drain (junction) capacitance per phase.
  double overlap_j = 0.0;     ///< V-I overlap energy per cycle, all phases.
  double n_edges = 0.0;       ///< Dead-time edges per cycle, all phases.
  double t_dead_s = 0.0;
  PeripheralRates per;
  double c_out_f = 0.0, esr_ohm = 0.0;
  double p_out_w = 0.0;
  double area_die_m2 = 0.0, area_offdie_m2 = 0.0, area_m2 = 0.0;
};

/// The row of sizing `d` (its f_sw_hz is not read) delivering `i_load_a`
/// at `vout_v`. An unreachable duty (analyze_buck's InvalidParameter) is a
/// row with `reachable` false, not an exception.
inline BuckRow buck_row(const BuckPrepared& k, const BuckDesign& d, double vout_v,
                        double i_load_a) {
  const tech::SwitchTech& dev = k.dev;
  const double vin_v = k.vin_v;
  BuckRow row;
  row.vout_v = vout_v;
  row.i_load_a = i_load_a;
  row.n = static_cast<double>(d.n_phases);
  const double i_ph = i_load_a / row.n;
  row.i_phase_a = i_ph;
  const double r_hs = dev.ron(d.w_high_m);
  const double r_ls = dev.ron(d.w_low_m);
  const double r_dcr = k.ind->dcr(d.l_per_phase_h);

  // CCM volt-second balance with conduction drops. The drops are the phase
  // current's, whatever the duty, so the balance needs no iteration.
  const double drop_on = i_ph * (r_hs + r_dcr);
  const double drop_off = i_ph * (r_ls + r_dcr);
  const double duty = (vout_v + drop_off) / std::max(vin_v - drop_on + drop_off, 1e-9);
  row.duty = duty;
  if (!(duty > 0.0 && duty < 1.0)) return row;
  row.reachable = true;
  row.v_ripple_v = (vin_v - vout_v) * duty;
  row.cancellation = interleave_cancellation(d.n_phases, duty);

  row.p_out_w = vout_v * i_load_a;
  // Conduction: RMS current includes the triangular ripple term.
  row.i_phase_sq = i_ph * i_ph;
  row.r_eff_ohm = duty * r_hs + (1.0 - duty) * r_ls + r_dcr;
  row.cg_phase_f = dev.cgate(d.w_high_m) + dev.cgate(d.w_low_m);
  // Transition (V-I overlap), two transitions per cycle.
  row.overlap_j = row.n * vin_v * i_ph * k.t_tr_s;
  // Junction capacitance of the switching node charged to vin each cycle.
  row.cd_phase_f = dev.cdrain(d.w_high_m) + dev.cdrain(d.w_low_m);
  // Body-diode conduction during dead time (both edges).
  row.n_edges = row.n * 2.0;
  row.t_dead_s = 2.0 * k.t_tr_s;
  row.per = peripheral_rates(k.per, d.n_phases, row.n * row.cg_phase_f, k.v_drive_v);

  row.c_out_f = d.c_out_f;
  row.esr_ohm = k.cap.esr(d.c_out_f);
  // Area: switches and decap on die; inductors wherever the technology puts
  // them.
  const double area_sw = row.n * (dev.area(d.w_high_m) + dev.area(d.w_low_m));
  const double area_cap = k.cap.area(d.c_out_f);
  const double area_ind = row.n * k.ind->area(d.l_per_phase_h);
  row.area_die_m2 = kWiringOverhead * (area_sw + area_cap + row.per.area_m2 +
                                       (k.ind->on_die ? area_ind : 0.0));
  row.area_offdie_m2 = k.ind->on_die ? 0.0 : area_ind;
  row.area_m2 = row.area_die_m2 + row.area_offdie_m2;
  return row;
}

/// Peak-to-peak inductor ripple per phase of a reachable row switching at
/// `f_sw_hz` with inductance `l_eff_h`: buck_at's i_ripple_phase_a, for a
/// CCM check before any loss term.
inline double buck_ripple_phase(const BuckRow& row, double f_sw_hz, double l_eff_h) {
  return row.v_ripple_v / (l_eff_h * f_sw_hz);
}

/// The other half: the ripple, the f-proportional losses, input power,
/// efficiency and output ripple of a reachable row switching at
/// `f_sw_hz` > 0 with inductance `l_eff_h` (the row's per-phase inductance
/// at that frequency). Never allocates, locks or throws.
inline BuckAnalysis buck_at(const BuckPrepared& k, const BuckRow& row, double f_sw_hz,
                            double l_eff_h) {
  BuckAnalysis a;
  a.vin_v = k.vin_v;
  a.vout_v = row.vout_v;
  a.i_load_a = row.i_load_a;
  a.duty = row.duty;
  a.l_eff_h = l_eff_h;
  a.i_ripple_phase_a = buck_ripple_phase(row, f_sw_hz, l_eff_h);
  a.i_ripple_out_a = a.i_ripple_phase_a * row.cancellation;

  a.p_out_w = row.p_out_w;
  const double i_sq = row.i_phase_sq + a.i_ripple_phase_a * a.i_ripple_phase_a / 12.0;
  a.p_conduction_w = row.n * i_sq * row.r_eff_ohm;
  const double nf = row.n * f_sw_hz;
  const double v_drive = k.v_drive_v;
  a.p_gate_w = nf * row.cg_phase_f * v_drive * v_drive;
  a.p_overlap_w = row.overlap_j * f_sw_hz;
  a.p_coss_w = nf * row.cd_phase_f * k.vin_v * k.vin_v;
  const double v_diode = 0.65;
  a.p_deadtime_w = row.n_edges * f_sw_hz * row.t_dead_s * row.i_phase_a * v_diode;
  a.p_peripheral_w = peripheral_at(row.per, f_sw_hz, f_sw_hz).total_power();

  a.p_in_w = a.p_out_w + a.p_conduction_w + a.p_gate_w + a.p_overlap_w + a.p_coss_w +
             a.p_deadtime_w + a.p_peripheral_w;
  a.efficiency = a.p_out_w / a.p_in_w;

  // Output ripple: capacitive charging of C_out by the residual current
  // ripple at the N-phase effective frequency, plus the ESR step.
  a.ripple_pp_v = a.i_ripple_out_a / (8.0 * nf * row.c_out_f) + a.i_ripple_out_a * row.esr_ohm;
  a.area_die_m2 = row.area_die_m2;
  a.area_offdie_m2 = row.area_offdie_m2;
  a.area_m2 = row.area_m2;
  return a;
}

/// Evaluates the buck at (vin -> vout, i_load). The converter is regulated:
/// the duty cycle settles wherever CCM volt-second balance (including
/// conduction drops) puts it. Throws when the target is unreachable
/// (vout >= vin) or the design fields are invalid.
BuckAnalysis analyze_buck(const BuckDesign& d, double vin_v, double vout_v, double i_load_a);

/// Element values of a buck power stage folded to its single-phase
/// equivalent (N phases in parallel), for simulation against the MNA engine.
struct BuckStage {
  double vin_v = 0.0;
  double f_sw_hz = 0.0;
  double duty = 0.0;        ///< High-side on-fraction of each period.
  double r_high_ohm = 0.0;  ///< High-side switch on-resistance.
  double r_low_ohm = 0.0;   ///< Low-side switch on-resistance.
  double l_h = 0.0;
  double r_dcr_ohm = 0.0;
  double c_out_f = 0.0;
  double vout_ic_v = 0.0;   ///< Output capacitor's initial voltage.
  double i_load_a = 0.0;    ///< DC load, also the inductor's initial current.
};

struct BuckNetlist {
  spice::NodeId sw;  ///< Switch node.
  spice::NodeId out;
};

/// Emits the stage: a DC source, complementary high/low switches clocked at
/// f_sw, the inductor and its DCR into the output capacitor, a DC load.
/// The sibling of build_sc_netlist (sc_topology.hpp) for the buck.
BuckNetlist build_buck_netlist(spice::Circuit& c, const BuckStage& s);

}  // namespace ivory::core
