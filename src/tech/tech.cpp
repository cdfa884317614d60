#include "tech/tech.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace ivory::tech {

namespace {

// Unit helpers local to the tables: the database is written in the units the
// literature uses, converted once here.
constexpr double ohm_um = 1e-6;     // ohm*um -> ohm*m
constexpr double ff_per_um = 1e-9;  // fF/um -> F/m
constexpr double na_per_um = 1e-3;  // nA/um -> A/m
constexpr double um_pitch = 1e-6;   // um^2 of area per um of width -> m
constexpr double nf_per_mm2 = 1e-3; // nF/mm^2 -> F/m^2
constexpr double nh_per_mm2 = 1e-3; // nH/mm^2 -> H/m^2

struct NodeRow {
  Node node;
  double nm;
  SwitchTech core;
  SwitchTech io;
};

// Core-device trends follow ITRS/PTM: Vdd scales 1.3 V -> 0.75 V, Ron*W
// improves ~3x over the range, Cg/W shrinks ~2.7x, leakage per width grows as
// oxides thin. IO (thick-oxide, 3.3 V tolerant) devices trade ~3.5x Ron*W and
// ~1.8x Cg/W for the voltage rating.
SwitchTech make_core(double vdd, double ron_w_ohmum, double cg_ff_um, double cd_ff_um,
                     double leak_na_um, double pitch_um) {
  // Terminal tolerance ~1.2x Vdd (standard overdrive rating headroom).
  return SwitchTech{vdd,
                    vdd * 1.2,
                    ron_w_ohmum * ohm_um,
                    cg_ff_um * ff_per_um,
                    cd_ff_um * ff_per_um,
                    leak_na_um * na_per_um,
                    pitch_um * um_pitch};
}

SwitchTech make_io(const SwitchTech& core) {
  SwitchTech io = core;
  io.vdd_nom_v = 3.3;
  io.vmax_v = 3.6;
  io.ron_w_ohm_m = core.ron_w_ohm_m * 3.5;
  io.cgate_per_w_f_m = core.cgate_per_w_f_m * 1.8;
  io.cdrain_per_w_f_m = core.cdrain_per_w_f_m * 1.6;
  io.ileak_per_w_a_m = core.ileak_per_w_a_m * 0.1;
  io.area_per_w_m = core.area_per_w_m * 2.5;
  return io;
}

const std::array<NodeRow, 8>& node_table() {
  static const std::array<NodeRow, 8> rows = [] {
    std::array<NodeRow, 8> t{};
    auto fill = [](Node n, double nm, double vdd, double ron, double cg, double cd, double leak,
                   double pitch) {
      NodeRow r;
      r.node = n;
      r.nm = nm;
      r.core = make_core(vdd, ron, cg, cd, leak, pitch);
      r.io = make_io(r.core);
      return r;
    };
    // Ron*W for power switches driven at full overdrive in deep triode;
    // the area pitch is the contacted-poly pitch of a dense power-FET
    // finger array (plus taps/guard), not a logic-cell pitch.
    t[0] = fill(Node::n130, 130.0, 1.30, 1040.0, 1.90, 1.10, 0.1, 0.60);
    t[1] = fill(Node::n90, 90.0, 1.20, 880.0, 1.60, 0.95, 0.3, 0.42);
    t[2] = fill(Node::n65, 65.0, 1.10, 760.0, 1.35, 0.80, 1.0, 0.30);
    t[3] = fill(Node::n45, 45.0, 1.00, 640.0, 1.15, 0.70, 2.0, 0.22);
    t[4] = fill(Node::n32, 32.0, 0.95, 560.0, 1.00, 0.60, 3.0, 0.18);
    t[5] = fill(Node::n22, 22.0, 0.90, 480.0, 0.85, 0.50, 4.0, 0.14);
    t[6] = fill(Node::n14, 14.0, 0.80, 400.0, 0.75, 0.45, 5.0, 0.11);
    t[7] = fill(Node::n10, 10.0, 0.75, 360.0, 0.70, 0.40, 6.0, 0.09);
    return t;
  }();
  return rows;
}

const NodeRow& row(Node node) {
  for (const NodeRow& r : node_table())
    if (r.node == node) return r;
  throw InvalidParameter("tech: unknown node");
}

std::size_t node_index(Node node) {
  const auto& t = node_table();
  for (std::size_t i = 0; i < t.size(); ++i)
    if (t[i].node == node) return i;
  throw InvalidParameter("tech: unknown node");
}

}  // namespace

double node_nm(Node node) { return row(node).nm; }

const char* node_name(Node node) {
  switch (node) {
    case Node::n130: return "130nm";
    case Node::n90: return "90nm";
    case Node::n65: return "65nm";
    case Node::n45: return "45nm";
    case Node::n32: return "32nm";
    case Node::n22: return "22nm";
    case Node::n14: return "14nm";
    case Node::n10: return "10nm";
  }
  return "?";
}

Node node_from_string(const std::string& name) {
  std::string digits;
  for (char ch : name)
    if (ch >= '0' && ch <= '9') digits.push_back(ch);
  if (digits.empty()) throw InvalidParameter("tech: unparseable node name '" + name + "'");
  const int nm = std::stoi(digits);
  switch (nm) {
    case 130: return Node::n130;
    case 90: return Node::n90;
    case 65: return Node::n65;
    case 45: return Node::n45;
    case 32: return Node::n32;
    case 22: return Node::n22;
    case 14: return Node::n14;
    case 10: return Node::n10;
    default: throw InvalidParameter("tech: node '" + name + "' not in database");
  }
}

const SwitchTech& switch_tech(Node node, DeviceClass cls) {
  const NodeRow& r = row(node);
  return cls == DeviceClass::Core ? r.core : r.io;
}

const char* cap_kind_name(CapKind kind) {
  switch (kind) {
    case CapKind::MosCap: return "MOS";
    case CapKind::Mim: return "MIM";
    case CapKind::DeepTrench: return "deep-trench";
  }
  return "?";
}

namespace {

CapacitorTech make_capacitor_tech(Node node, CapKind kind) {
  // MOS cap density grows as gate oxide thins; deep-trench (embedded DRAM
  // style, per Chang [VLSI'10]) gives ~10-20x MOS density at ~1% bottom plate.
  static const double mos_density_nf_mm2[] = {4.0, 5.0, 6.5, 8.0, 10.0, 12.0, 14.0, 16.0};
  static const double mos_leak_a_f[] = {2e-5, 5e-5, 1e-4, 3e-4, 5e-4, 6e-4, 7e-4, 8e-4};
  // Deep-trench (embedded-DRAM) density: published parts span ~100 nF/mm^2
  // (45 nm era, Chang/Sturcken) up past 500 nF/mm^2 on recent nodes.
  static const double trench_density_nf_mm2[] = {100.0, 140.0, 190.0, 250.0,
                                                 325.0, 400.0, 475.0, 550.0};

  const std::size_t i = node_index(node);
  const NodeRow& r = row(node);

  switch (kind) {
    case CapKind::MosCap:
      return CapacitorTech{mos_density_nf_mm2[i] * nf_per_mm2, 0.06, mos_leak_a_f[i],
                           50e-12,  // ohm*F: ~50 mohm for 1 nF
                           r.core.vmax_v};
    case CapKind::Mim:
      return CapacitorTech{2.0 * nf_per_mm2, 0.015, 1e-7, 20e-12, 3.6};
    case CapKind::DeepTrench:
      return CapacitorTech{trench_density_nf_mm2[i] * nf_per_mm2, 0.01, 1e-6, 100e-12,
                           r.core.vmax_v * 1.5};
  }
  throw InvalidParameter("tech: unknown capacitor kind");
}

}  // namespace

const CapacitorTech& capacitor_tech(Node node, CapKind kind) {
  constexpr std::size_t n_kinds = 3;
  require(static_cast<std::size_t>(kind) < n_kinds, "tech: unknown capacitor kind");
  // The full (node x kind) table is built once, on first use, under the
  // magic-static lock; afterwards lookups are lock-free reads.
  static const std::array<std::array<CapacitorTech, n_kinds>, 8> table = [] {
    std::array<std::array<CapacitorTech, n_kinds>, 8> t{};
    for (std::size_t ni = 0; ni < t.size(); ++ni)
      for (std::size_t ki = 0; ki < n_kinds; ++ki)
        t[ni][ki] = make_capacitor_tech(node_table()[ni].node, static_cast<CapKind>(ki));
    return t;
  }();
  return table[node_index(node)][static_cast<std::size_t>(kind)];
}

const char* inductor_kind_name(InductorKind kind) {
  switch (kind) {
    case InductorKind::SurfaceMount: return "surface-mount";
    case InductorKind::IntegratedInterposer: return "2.5D-interposer";
    case InductorKind::MagneticFilm: return "magnetic-film";
  }
  return "?";
}

double InductorTech::inductance_at(double l0_h, double f_hz) const {
  require(l0_h > 0.0, "InductorTech: inductance must be positive");
  require(f_hz > 0.0, "InductorTech: frequency must be positive");
  if (f_hz <= f_knee_hz) return l0_h;
  const double x = std::log10(f_hz / f_knee_hz);
  const double mult = std::clamp(rolloff(x), rolloff_floor, 1.0);
  return l0_h * mult;
}

const InductorTech& inductor_tech(InductorKind kind) {
  // Rolloff polynomial fitted to published L(f) curves: gentle loss in the
  // first decade above the knee, steeper in the second (eddy/skin effects in
  // magnetic material), clamped at a floor (air-core residual inductance).
  static const Polynomial kRolloff({1.0, -0.18, -0.12});

  // DCR per henry follows published parts: ~1 mohm/nH for discrete SMT
  // power inductors, ~5 mohm/nH for interposer coupled-magnetic inductors
  // (Sturcken: 26.5 nH at ~100 mohm class), ~20 mohm/nH for on-die
  // magnetic-film spirals (Gardner).
  static const InductorTech surface_mount{100.0 * nh_per_mm2, 1.0e6, 5e6, false, kRolloff, 0.8};
  static const InductorTech interposer{20.0 * nh_per_mm2, 5.0e6, 5e7, false, kRolloff, 0.5};
  static const InductorTech magnetic_film{50.0 * nh_per_mm2, 2.0e7, 1e8, true, kRolloff, 0.35};

  switch (kind) {
    case InductorKind::SurfaceMount: return surface_mount;
    case InductorKind::IntegratedInterposer: return interposer;
    case InductorKind::MagneticFilm: return magnetic_film;
  }
  throw InvalidParameter("tech: unknown inductor kind");
}

}  // namespace ivory::tech
