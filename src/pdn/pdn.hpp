// Power-delivery-network (PDN) models: off-chip VRM, board/package RLC
// ladder, C4 bump array, and the on-chip grid.
//
// The PDS of Fig. 1 in the paper is: Vsrc -> off-chip VRM -> board PDN ->
// package PDN -> C4 bumps -> on-chip grid (-> IVRs) -> cores. This module
// provides (a) parameter sets for each stage (defaults follow the GPUVolt
// equivalent circuit the case study uses), (b) a closed-form input impedance
// Z(jw) seen from the die, (c) a netlist builder that emits the same ladder
// into an ivory_spice Circuit for transient/AC cross-checks, and (d) a fast
// dedicated transient solver for ladder + load-current traces.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "spice/circuit.hpp"

namespace ivory::pdn {

/// One series-RL stage of the ladder with a shunt decoupling capacitor
/// (C + ESR) hanging off its downstream node.
struct LadderStage {
  double r_ohm;
  double l_h;
  double decap_f;
  double decap_esr_ohm;
};

struct PdnParams {
  LadderStage board;    ///< PCB spreading + bulk capacitors.
  LadderStage package;  ///< Package planes + package caps.
  LadderStage c4;       ///< Bump array (decap field lives on-die).
  double grid_r_ohm;    ///< On-chip grid effective series resistance.
  double grid_l_h;      ///< On-chip grid effective inductance.
  double ondie_decap_f;
  double ondie_decap_esr_ohm;

  /// Values matching the GPUVolt-style equivalent circuit used by the
  /// paper's GPU case study (board-level 3.3 V supply, four-SM die).
  static PdnParams gpuvolt_default();

  /// Effective parameters when the die is split into `n` independent power
  /// domains: each domain sees the full board/package (shared, scaled by the
  /// per-domain current share) but only a 1/n slice of grid and decap.
  PdnParams per_domain(int n) const;
};

/// Impedance seen from the die looking back toward the VRM (VRM modeled as
/// ideal at DC: short). Closed form; cross-checked against spice AC analysis
/// in the tests.
std::complex<double> input_impedance(const PdnParams& p, double f_hz);

/// Peak of |Z| over a log frequency sweep (the classic PDN resonance).
/// A coarse log-grid scan locates the resonance cell; a golden-section
/// polish inside that cell then refines it, so small `n_pts` no longer
/// aliases the board/package resonance.
struct ImpedancePeak {
  double f_hz;
  double z_ohm;
};
ImpedancePeak find_impedance_peak(const PdnParams& p, double f_lo, double f_hi, int n_pts = 400);

/// Adds the ladder to `c`. Returns the die-side node; the VRM side is driven
/// by an ideal source of `v_supply`.
struct PdnNodes {
  spice::NodeId vrm;
  spice::NodeId die;
};
PdnNodes build_pdn_netlist(spice::Circuit& c, const PdnParams& p, double v_supply);

/// Parameterized N x M on-chip power-grid netlist. Tiles form a regular
/// resistive mesh (`seg_r_ohm` per segment) with a decoupling capacitor and a
/// DC load current source per tile. C4/bump boundary conditions: every
/// `bump_pitch`-th tile in each direction carries a bump — an ideal supply
/// behind the bump resistance (and optional bump inductance). A central
/// block of tiles adds a step load (`step_load_a`, starting at `step_t0_s`)
/// on top of the quiescent draw, the stimulus for droop studies. All bump
/// attachments are per-bump (no shared supply hub node), so the stamped MNA
/// pattern stays local and the grid remains near-banded under RCM — the
/// structure the banded kernel is built for.
struct GridParams {
  int nx = 8;                     ///< Tiles in x.
  int ny = 8;                     ///< Tiles in y.
  double vdd_v = 1.0;
  double seg_r_ohm = 0.05;        ///< Mesh segment resistance.
  double tile_cap_f = 50e-12;     ///< Per-tile decap (to ground).
  double tile_load_a = 0.01;      ///< Quiescent per-tile load.
  double step_load_a = 0.10;      ///< Extra step load per center-block tile.
  double step_t0_s = 2e-9;        ///< Step-load start time.
  double step_rise_s = 2e-10;     ///< Step-load rise time.
  int bump_pitch = 4;             ///< Bump every `bump_pitch` tiles each way.
  double bump_r_ohm = 0.02;
  double bump_l_h = 0.0;          ///< Optional bump inductance (0 = off).
};

struct GridNodes {
  int nx = 0, ny = 0;
  std::vector<spice::NodeId> tiles;  ///< tiles[y * nx + x].
  std::vector<spice::NodeId> bumps;  ///< Bump-side supply nodes.
  spice::NodeId center = 0;          ///< Center tile (droop observation point).

  spice::NodeId tile(int x, int y) const {
    return tiles[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
                 static_cast<std::size_t>(x)];
  }
};

/// Adds the grid to `c`; returns the tile/bump node map.
GridNodes build_grid_netlist(spice::Circuit& c, const GridParams& p);

/// Convenience: a Circuit holding just the grid (tests and benches).
spice::Circuit make_grid_circuit(const GridParams& p);

/// Index of the sample a zero-order hold of period `dt` plays at time t,
/// clamped to [0, n): floor(t / dt), except that a t within 1e-6 dt below a
/// grid time k*dt plays sample k. The transient engine's t is a running sum
/// of its steps, which often lands a few ULP short of the grid.
std::size_t hold_index(double t, double dt, std::size_t n);

/// Fast dedicated transient: die voltage response to a load-current trace
/// i_load[k] sampled at dt (zero-order hold, see hold_index), supply held at
/// v_supply. Uses trapezoidal integration on the ladder state (validated
/// against ivory_spice).
std::vector<double> simulate_die_voltage(const PdnParams& p, double v_supply,
                                         const std::vector<double>& i_load, double dt);

/// Rated-current headroom used when sizing a board VRM for a given load: the
/// part is picked to carry `kVrmRatingFactor` x the nominal current so that
/// transients and derating do not push it into its loss knee. Shared by the
/// scenario engine's off-chip delivery paths and the DSE funnel's hybrid
/// (split IVR/VRM) candidates.
inline constexpr double kVrmRatingFactor = 2.5;

/// Off-chip voltage-regulator-module model: conversion efficiency versus load,
/// eta(i) = p_out / (p_out + p_fixed + r_loss * i^2 + v_drop * i).
struct VrmModel {
  double vout_v;
  double p_fixed_w;    ///< Gate drive + controller, load independent.
  double r_loss_ohm;   ///< Lumped conduction loss coefficient.
  double v_drop_v;     ///< Switching-loss coefficient expressed as a drop.

  /// Efficiency at output current `i_a` (0 < eta < 1; throws on i <= 0).
  double efficiency(double i_a) const;
  /// Input power required to deliver `p_out_w`.
  double input_power(double p_out_w) const;

  /// A 12 V -> `vout` board VRM with parameters tuned so that peak
  /// efficiency lands near the published ~90% (high vout) / ~85% (1 V-class
  /// output at tens of amps) figures.
  static VrmModel board_vrm(double vout_v, double i_rated_a);
};

}  // namespace ivory::pdn
