#include "pdn/pdn.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/units.hpp"
#include "spice/analysis.hpp"

namespace ivory::pdn {

PdnParams PdnParams::gpuvolt_default() {
  // Ladder values follow the published equivalent circuits used by GPUVolt /
  // Kim et al. (HPCA'08) scaled to an embedded four-SM GPU: first droop
  // resonance lands in the tens of MHz with a peak impedance of a few
  // milliohms, which produces the ~100 mV-class noise the paper reports for
  // the off-chip-VRM configuration at ~20 A load swings.
  PdnParams p;
  p.board = {0.4e-3, 20e-12, 240e-6, 0.2e-3};
  p.package = {0.5e-3, 10e-12, 26e-6, 0.5e-3};
  p.c4 = {0.1e-3, 1e-12, 10e-9, 1e-3};
  // On-chip distribution from the regulation point to the cores: an embedded
  // GPU's grid is sparser than a server CPU's, and this span is exactly what
  // distributed IVRs shorten (the cen-vs-distributed noise lever in Fig. 11).
  p.grid_r_ohm = 2.0e-3;
  p.grid_l_h = 12e-12;
  p.ondie_decap_f = 500e-9;
  p.ondie_decap_esr_ohm = 0.5e-3;
  return p;
}

PdnParams PdnParams::per_domain(int n) const {
  require(n >= 1, "PdnParams::per_domain: need n >= 1");
  // Symmetric slice: the shared board/package/C4 network splits into n
  // parallel copies with impedance x n and decap / n (exact for symmetric
  // domains). The on-chip grid between the regulation point and the domain's
  // load shortens as domains localize: the x n slice narrowing and the 1/n
  // path shortening cancel, leaving the total grid values per domain.
  PdnParams p = *this;
  const double nf = static_cast<double>(n);
  auto scale_stage = [nf](LadderStage& s) {
    s.r_ohm *= nf;
    s.l_h *= nf;
    s.decap_f /= nf;
    s.decap_esr_ohm *= nf;
  };
  scale_stage(p.board);
  scale_stage(p.package);
  scale_stage(p.c4);
  // Grid slice: width/n (x n per square) but length/n (local path) -> total
  // unchanged; decap splits.
  p.ondie_decap_f /= nf;
  p.ondie_decap_esr_ohm *= nf;
  return p;
}

namespace {

using C = std::complex<double>;

C shunt_impedance(double c_f, double esr_ohm, double w) {
  if (c_f <= 0.0) return C(1e18, 0.0);  // No decap: open.
  return C(esr_ohm, 0.0) + C(0.0, -1.0 / (w * c_f));
}

C parallel(C a, C b) { return a * b / (a + b); }

}  // namespace

std::complex<double> input_impedance(const PdnParams& p, double f_hz) {
  require(f_hz > 0.0, "input_impedance: frequency must be positive");
  const double w = 2.0 * pi * f_hz;
  // From the VRM (ideal: 0 ohm) outward toward the die.
  C z = C(fault::inject("pdn_transfer"), 0.0);
  for (const LadderStage* s : {&p.board, &p.package, &p.c4}) {
    z += C(s->r_ohm, w * s->l_h);
    z = parallel(z, shunt_impedance(s->decap_f, s->decap_esr_ohm, w));
  }
  z += C(p.grid_r_ohm, w * p.grid_l_h);
  z = parallel(z, shunt_impedance(p.ondie_decap_f, p.ondie_decap_esr_ohm, w));
  return check_finite(z, "input_impedance: PDN transfer");
}

ImpedancePeak find_impedance_peak(const PdnParams& p, double f_lo, double f_hi, int n_pts) {
  require(f_lo > 0.0 && f_hi > f_lo, "find_impedance_peak: need 0 < f_lo < f_hi");
  require(n_pts >= 2, "find_impedance_peak: need at least 2 points");
  const double llo = std::log10(f_lo), lhi = std::log10(f_hi);
  const auto grid = [&](int i) { return llo + (lhi - llo) * i / (n_pts - 1); };
  const auto z_at = [&](double lf) {
    return std::abs(input_impedance(p, std::pow(10.0, lf)));
  };

  int best_i = 0;
  double best_z = z_at(grid(0));
  for (int i = 1; i < n_pts; ++i) {
    const double z = z_at(grid(i));
    if (z > best_z) {
      best_i = i;
      best_z = z;
    }
  }

  // Golden-section polish in log-frequency between the neighbours of the best
  // grid point. The coarse grid only locates a resonance to within one cell;
  // |Z| is smooth and unimodal inside that bracket, so the search recovers
  // the true peak without re-sweeping at a denser resolution.
  double a = grid(std::max(best_i - 1, 0));
  double b = grid(std::min(best_i + 1, n_pts - 1));
  constexpr double kInvPhi = 0.6180339887498949;
  double x1 = b - kInvPhi * (b - a), x2 = a + kInvPhi * (b - a);
  double z1 = z_at(x1), z2 = z_at(x2);
  while (b - a > 1e-10) {
    if (z1 < z2) {
      a = x1;
      x1 = x2;
      z1 = z2;
      x2 = a + kInvPhi * (b - a);
      z2 = z_at(x2);
    } else {
      b = x2;
      x2 = x1;
      z2 = z1;
      x1 = b - kInvPhi * (b - a);
      z1 = z_at(x1);
    }
  }
  const double lf = 0.5 * (a + b);
  const double z = z_at(lf);
  // A multi-modal bracket (two resonances inside one grid cell) could in
  // principle converge to the lesser peak; never answer worse than the scan.
  if (z < best_z) return {std::pow(10.0, grid(best_i)), best_z};
  return {std::pow(10.0, lf), z};
}

PdnNodes build_pdn_netlist(spice::Circuit& c, const PdnParams& p, double v_supply) {
  using spice::kGround;
  const spice::NodeId vrm = c.node("vrm");
  c.add_vsource("vvrm", vrm, kGround, spice::Waveform::dc(v_supply));

  spice::NodeId prev = vrm;
  int idx = 0;
  auto add_stage = [&](const LadderStage& s, const std::string& tag) {
    const spice::NodeId mid = c.node(tag + "_rl");
    const spice::NodeId out = c.node(tag);
    c.add_resistor("r_" + tag, prev, mid, s.r_ohm);
    c.add_inductor("l_" + tag, mid, out, s.l_h);
    if (s.decap_f > 0.0) {
      const spice::NodeId dk = c.node(tag + "_decap");
      c.add_resistor("resr_" + tag, out, dk, std::max(s.decap_esr_ohm, 1e-9));
      c.add_capacitor("c_" + tag, dk, kGround, s.decap_f);
    }
    prev = out;
    ++idx;
  };
  add_stage(p.board, "board");
  add_stage(p.package, "pkg");
  add_stage(p.c4, "c4");

  const spice::NodeId gmid = c.node("grid_rl");
  const spice::NodeId die = c.node("die");
  c.add_resistor("r_grid", prev, gmid, p.grid_r_ohm);
  c.add_inductor("l_grid", gmid, die, p.grid_l_h);
  const spice::NodeId dk = c.node("die_decap");
  c.add_resistor("resr_die", die, dk, std::max(p.ondie_decap_esr_ohm, 1e-9));
  c.add_capacitor("c_die", dk, kGround, p.ondie_decap_f);
  return {vrm, die};
}

std::size_t hold_index(double t, double dt, std::size_t n) {
  const double k = std::floor(t / dt + 1e-6);
  return static_cast<std::size_t>(std::clamp(k, 0.0, static_cast<double>(n - 1)));
}

std::vector<double> simulate_die_voltage(const PdnParams& p, double v_supply,
                                         const std::vector<double>& i_load, double dt) {
  require(i_load.size() >= 2, "simulate_die_voltage: need at least two samples");
  require(dt > 0.0, "simulate_die_voltage: dt must be positive");

  spice::Circuit c;
  const PdnNodes nodes = build_pdn_netlist(c, p, v_supply);
  // Zero-order-hold playback of the sampled load current.
  const std::vector<double> samples = i_load;
  c.add_isource("iload", nodes.die, spice::kGround,
                spice::Waveform::custom([samples, dt](double t) {
                  return samples[hold_index(t, dt, samples.size())];
                }));

  spice::TranSpec spec;
  spec.tstop = static_cast<double>(i_load.size() - 1) * dt;
  spec.dt = dt;
  spec.record_nodes = {nodes.die};
  const spice::TranResult res = spice::transient(c, spec);
  return check_finite(res.at(nodes.die), "simulate_die_voltage: die voltage trace");
}

GridNodes build_grid_netlist(spice::Circuit& c, const GridParams& p) {
  require(p.nx >= 2 && p.ny >= 2, "build_grid_netlist: grid must be at least 2x2");
  require(p.bump_pitch >= 1, "build_grid_netlist: bump_pitch must be >= 1");
  require(p.seg_r_ohm > 0.0, "build_grid_netlist: seg_r_ohm must be positive");
  require(p.bump_r_ohm > 0.0, "build_grid_netlist: bump_r_ohm must be positive");
  require(p.tile_cap_f > 0.0, "build_grid_netlist: tile_cap_f must be positive");
  require(p.vdd_v > 0.0, "build_grid_netlist: vdd_v must be positive");

  const spice::NodeId gnd = spice::kGround;
  GridNodes out;
  out.nx = p.nx;
  out.ny = p.ny;
  out.tiles.reserve(static_cast<std::size_t>(p.nx) * static_cast<std::size_t>(p.ny));
  for (int y = 0; y < p.ny; ++y)
    for (int x = 0; x < p.nx; ++x)
      out.tiles.push_back(c.node("g" + std::to_string(x) + "_" + std::to_string(y)));
  out.center = out.tile(p.nx / 2, p.ny / 2);

  // Mesh segments.
  for (int y = 0; y < p.ny; ++y)
    for (int x = 0; x < p.nx; ++x) {
      const std::string sfx = std::to_string(x) + "_" + std::to_string(y);
      if (x + 1 < p.nx)
        c.add_resistor("rh" + sfx, out.tile(x, y), out.tile(x + 1, y), p.seg_r_ohm);
      if (y + 1 < p.ny)
        c.add_resistor("rv" + sfx, out.tile(x, y), out.tile(x, y + 1), p.seg_r_ohm);
    }

  // Per-tile decap and load. The central quarter block additionally draws a
  // step load — the droop stimulus.
  const int x0 = p.nx / 4, x1 = p.nx - p.nx / 4;
  const int y0 = p.ny / 4, y1 = p.ny - p.ny / 4;
  for (int y = 0; y < p.ny; ++y)
    for (int x = 0; x < p.nx; ++x) {
      const std::string sfx = std::to_string(x) + "_" + std::to_string(y);
      const spice::NodeId n = out.tile(x, y);
      c.add_capacitor("cd" + sfx, n, gnd, p.tile_cap_f);
      if (p.tile_load_a > 0.0)
        c.add_isource("il" + sfx, n, gnd, spice::Waveform::dc(p.tile_load_a));
      if (p.step_load_a > 0.0 && x >= x0 && x < x1 && y >= y0 && y < y1)
        c.add_isource("is" + sfx, n, gnd,
                      spice::Waveform::pulse(0.0, p.step_load_a, p.step_t0_s, p.step_rise_s,
                                             p.step_rise_s, 1.0, 2.0));
    }

  // C4 bumps: per-bump ideal supply behind the bump resistance (and optional
  // inductance). No shared supply hub — each attachment is local, keeping the
  // stamped pattern near-banded under RCM.
  for (int y = 0; y < p.ny; y += p.bump_pitch)
    for (int x = 0; x < p.nx; x += p.bump_pitch) {
      const std::string sfx = std::to_string(x) + "_" + std::to_string(y);
      const spice::NodeId b = c.node("bump" + sfx);
      out.bumps.push_back(b);
      c.add_vsource("vb" + sfx, b, gnd, spice::Waveform::dc(p.vdd_v));
      if (p.bump_l_h > 0.0) {
        const spice::NodeId bl = c.node("bumpl" + sfx);
        c.add_inductor("lb" + sfx, b, bl, p.bump_l_h);
        c.add_resistor("rb" + sfx, bl, out.tile(x, y), p.bump_r_ohm);
      } else {
        c.add_resistor("rb" + sfx, b, out.tile(x, y), p.bump_r_ohm);
      }
    }
  return out;
}

spice::Circuit make_grid_circuit(const GridParams& p) {
  spice::Circuit c;
  build_grid_netlist(c, p);
  return c;
}

double VrmModel::efficiency(double i_a) const {
  require(i_a > 0.0, "VrmModel::efficiency: current must be positive");
  const double p_out = vout_v * i_a;
  return p_out / (p_out + p_fixed_w + r_loss_ohm * i_a * i_a + v_drop_v * i_a);
}

double VrmModel::input_power(double p_out_w) const {
  require(p_out_w > 0.0, "VrmModel::input_power: power must be positive");
  return p_out_w / efficiency(p_out_w / vout_v);
}

VrmModel VrmModel::board_vrm(double vout_v, double i_rated_a) {
  require(vout_v > 0.0 && i_rated_a > 0.0, "VrmModel::board_vrm: invalid rating");
  // Peak efficiency improves with output voltage (lower conversion ratio,
  // lower current for the same power): ~86% for 1 V-class rails, ~92% at 3.3 V.
  const double eta_peak = std::min(0.92, 0.84 + 0.025 * vout_v);
  const double loss_rated = vout_v * i_rated_a * (1.0 - eta_peak) / eta_peak;
  VrmModel m;
  m.vout_v = vout_v;
  m.p_fixed_w = 0.20 * loss_rated;
  m.r_loss_ohm = 0.50 * loss_rated / (i_rated_a * i_rated_a);
  m.v_drop_v = 0.30 * loss_rated / i_rated_a;
  return m;
}

}  // namespace ivory::pdn
