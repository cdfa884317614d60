// Sparse/banded MNA kernel tests: dense-vs-sparse agreement on seeded random
// circuits and power grids (the multifrontal path), automatic kernel
// selection, symbolic reuse across switch-state changes and from the
// operating point, LU-cache byte-identity with sparse kernels, deterministic
// parallel DSE over grid candidates, singular-matrix diagnostics, and the
// dense kernel's size limit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/sparse.hpp"
#include "pdn/pdn.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/parser.hpp"
#include "spice/phase_clock.hpp"

using namespace ivory;

namespace {

// Largest relative difference between two runs' samples, entry by entry.
// A UIC run (`uic`) starts from a solve whose pinned nodes sit at 0 V up to
// rounding that differs per kernel (up to 3.3e-14 V next to volts), so its
// t = 0 sample is measured against that sample's largest voltage instead.
double max_rel_diff(const spice::TranResult& a, const spice::TranResult& b, bool uic = false) {
  EXPECT_EQ(a.time.size(), b.time.size());
  EXPECT_EQ(a.voltages.size(), b.voltages.size());
  double t0_scale = 0.0;
  if (uic)
    for (std::size_t i = 0; i < a.voltages.size() && i < b.voltages.size(); ++i)
      if (!a.voltages[i].empty() && !b.voltages[i].empty())
        t0_scale = std::max({t0_scale, std::fabs(a.voltages[i][0]), std::fabs(b.voltages[i][0])});
  double worst = 0.0;
  for (std::size_t i = 0; i < a.voltages.size() && i < b.voltages.size(); ++i)
    for (std::size_t k = 0; k < a.voltages[i].size() && k < b.voltages[i].size(); ++k) {
      const double x = a.voltages[i][k], y = b.voltages[i][k];
      const double denom = std::max({k == 0 ? t0_scale : 0.0, std::fabs(x), std::fabs(y), 1e-12});
      worst = std::max(worst, std::fabs(x - y) / denom);
    }
  return worst;
}

bool byte_identical(const spice::TranResult& a, const spice::TranResult& b) {
  if (a.time.size() != b.time.size() || a.voltages.size() != b.voltages.size()) return false;
  if (!a.time.empty() &&
      std::memcmp(a.time.data(), b.time.data(), a.time.size() * sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.voltages.size(); ++i) {
    if (a.voltages[i].size() != b.voltages[i].size()) return false;
    if (!a.voltages[i].empty() &&
        std::memcmp(a.voltages[i].data(), b.voltages[i].data(),
                    a.voltages[i].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

// Seeded random RC(L) network: a guaranteed-connected resistive spanning
// tree plus random extra resistors, caps, series inductors, and loads. The
// spanning tree plus the single source keep every instance nonsingular.
spice::Circuit random_circuit(std::uint64_t seed, int n_nodes) {
  Pcg32 rng(seed, 7);
  spice::Circuit c;
  std::vector<spice::NodeId> nodes;
  nodes.push_back(c.node("n0"));
  c.add_vsource("vs", nodes[0], spice::kGround, spice::Waveform::dc(rng.uniform(0.8, 3.0)));
  for (int i = 1; i < n_nodes; ++i) {
    const spice::NodeId ni = c.node("n" + std::to_string(i));
    const spice::NodeId prev =
        nodes[rng.next_u32() % static_cast<std::uint32_t>(nodes.size())];
    c.add_resistor("rt" + std::to_string(i), prev, ni, rng.uniform(0.01, 5.0));
    if (rng.bernoulli(0.6))
      c.add_capacitor("c" + std::to_string(i), ni, spice::kGround, rng.uniform(1e-12, 1e-9));
    if (rng.bernoulli(0.25))
      c.add_resistor("rx" + std::to_string(i), ni,
                     nodes[rng.next_u32() % static_cast<std::uint32_t>(nodes.size())],
                     rng.uniform(0.1, 20.0));
    if (rng.bernoulli(0.15) && i >= 2)
      c.add_inductor("l" + std::to_string(i), ni, nodes[nodes.size() / 2],
                     rng.uniform(1e-10, 1e-8));
    if (rng.bernoulli(0.3))
      c.add_isource("i" + std::to_string(i), ni, spice::kGround,
                    spice::Waveform::dc(rng.uniform(0.0, 0.05)));
    nodes.push_back(ni);
  }
  return c;
}

// The circuit whose DC operating point is a UIC run's initial solve of `c`
// (no switches): each capacitor a voltage source at its initial voltage,
// each inductor an open (no initial current). Both stamp one MNA system, in
// the same order.
spice::Circuit uic_twin(const spice::Circuit& c) {
  spice::Circuit t;
  for (int n = 1; n < c.node_count(); ++n) t.node(c.node_name(n));
  for (const spice::Resistor& r : c.resistors()) t.add_resistor(r.name, r.a, r.b, r.ohms);
  for (const spice::VSource& v : c.vsources()) t.add_vsource(v.name, v.pos, v.neg, v.wave);
  for (const spice::Capacitor& cap : c.capacitors())
    t.add_vsource(cap.name, cap.a, cap.b, spice::Waveform::dc(cap.use_ic ? cap.v0 : 0.0));
  for (const spice::ISource& i : c.isources()) t.add_isource(i.name, i.pos, i.neg, i.wave);
  return t;
}

// RC ladder with an optional mid-chain clocked switch — low bandwidth by
// construction, the banded kernel's home turf.
spice::Circuit ladder_circuit(int n_stages, bool with_switch) {
  spice::Circuit c;
  spice::NodeId prev = c.node("in");
  c.add_vsource("vs", prev, spice::kGround, spice::Waveform::dc(1.0));
  spice::NodeId mid_a = prev, mid_b = prev;
  for (int i = 0; i < n_stages; ++i) {
    const spice::NodeId ni = c.node("n" + std::to_string(i));
    c.add_resistor("r" + std::to_string(i), prev, ni, 0.1);
    c.add_capacitor("c" + std::to_string(i), ni, spice::kGround, 1e-9);
    if (i == n_stages / 2) mid_a = ni;
    if (i == n_stages / 2 + 1) mid_b = ni;
    prev = ni;
  }
  c.add_isource("load", prev, spice::kGround, spice::Waveform::dc(0.02));
  if (with_switch) {
    const spice::PhaseClock clk(50e6, 1, 0.5);
    c.add_switch("sw", mid_a, mid_b, 0.01, 1e6, clk.phase(0));
  }
  return c;
}

// Seeded N x N power grid: random mesh, decap, quiescent and pulsed step
// loads, bump pitch (2..4, so some grids carry a bump on every other tile)
// and, on every other seed, bump inductance (a DC-shorted branch unknown).
pdn::GridParams seeded_grid(std::uint64_t seed, int n) {
  Pcg32 rng(seed, 11);
  pdn::GridParams gp;
  gp.nx = gp.ny = n;
  gp.seg_r_ohm = rng.uniform(0.03, 0.08);
  gp.tile_cap_f = rng.uniform(30e-12, 80e-12);
  gp.tile_load_a = rng.uniform(0.005, 0.02);
  gp.step_load_a = rng.uniform(0.05, 0.15);
  gp.bump_pitch = 2 + static_cast<int>(rng.next_u32() % 3);
  gp.bump_r_ohm = rng.uniform(0.01, 0.03);
  gp.bump_l_h = seed % 2 == 0 ? rng.uniform(5e-12, 50e-12) : 0.0;
  return gp;
}

// The N x N grid netlist text perfbench's transient_mix sends (its
// grid_request with fixed element values; the workload sends 64 x 64).
std::string perfbench_grid_netlist(int n) {
  std::string net = "* grid\n";
  const int lo = n / 4, hi = n - n / 4;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      const std::string s = std::to_string(x) + "_" + std::to_string(y);
      const std::string node = " g" + s;
      if (x + 1 < n)
        net += "rh" + s + node + " g" + std::to_string(x + 1) + "_" + std::to_string(y) +
               " 0.05\n";
      if (y + 1 < n)
        net += "rv" + s + node + " g" + std::to_string(x) + "_" + std::to_string(y + 1) +
               " 0.05\n";
      net += "cd" + s + node + " 0 50p\n";
      net += "il" + s + node + " 0 DC 0.01\n";
      if (x >= lo && x < hi && y >= lo && y < hi)
        net += "is" + s + node + " 0 PULSE(0 0.1 2n 0.2n 0.2n 1 2)\n";
    }
  for (int y = 0; y < n; y += 4)
    for (int x = 0; x < n; x += 4) {
      const std::string s = std::to_string(x) + "_" + std::to_string(y);
      net += "vb" + s + " bump" + s + " 0 DC 1\n";
      net += "rb" + s + " bump" + s + " g" + s + " 0.02\n";
    }
  return net + ".end\n";
}

// Largest relative difference between two operating points.
double max_rel_diff(const spice::DcResult& a, const spice::DcResult& b) {
  EXPECT_EQ(a.node_v.size(), b.node_v.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.node_v.size() && i < b.node_v.size(); ++i) {
    const double x = a.node_v[i], y = b.node_v[i];
    worst = std::max(worst, std::fabs(x - y) / std::max({std::fabs(x), std::fabs(y), 1e-12}));
  }
  return worst;
}

spice::TranSpec base_spec(sparse::Kernel k) {
  spice::TranSpec spec;
  spec.tstop = 100e-9;
  spec.dt = 1e-9;
  spec.method = spice::Integrator::BackwardEuler;
  spec.use_ic = true;
  spec.kernel = k;
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Dense vs sparse vs banded agreement on seeded random circuits
// ---------------------------------------------------------------------------

TEST(SparseAgreement, RandomCircuitsAllKernelsAgree) {
  // Irregular netlists: their RCM band is wide, so forced `sparse` runs
  // Gilbert-Peierls, never multifrontal. Each UIC run starts from its own
  // kernel's initial solve, bit for bit.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("random_circuit seed=" + std::to_string(seed) +
                 " (reproduce: random_circuit(seed, 120))");
    const spice::Circuit c = random_circuit(seed, 120);
    EXPECT_FALSE(sparse::analyze(spice::dc_matrix(c), sparse::Kernel::Sparse)->multifrontal());
    const spice::TranResult dense = spice::transient(c, base_spec(sparse::Kernel::Dense));
    const spice::TranResult banded = spice::transient(c, base_spec(sparse::Kernel::Banded));
    const spice::TranResult gen = spice::transient(c, base_spec(sparse::Kernel::Sparse));
    EXPECT_EQ(dense.kernel, "dense");
    EXPECT_EQ(banded.kernel, "banded");
    EXPECT_EQ(gen.kernel, "sparse");
    EXPECT_LE(max_rel_diff(dense, banded, true), 1e-9);
    EXPECT_LE(max_rel_diff(dense, gen, true), 1e-9);
    const spice::Circuit twin = uic_twin(c);
    for (const spice::TranResult* run : {&dense, &banded, &gen}) {
      SCOPED_TRACE("kernel " + run->kernel);
      const spice::DcResult start =
          spice::dc_operating_point(twin, sparse::kernel_from_string(run->kernel));
      ASSERT_EQ(run->nodes.size() + 1, start.node_v.size());
      for (std::size_t i = 0; i < run->nodes.size(); ++i) {
        const double v0 = run->voltages[i].front();
        const double want = start.node_v[static_cast<std::size_t>(run->nodes[i])];
        EXPECT_EQ(0, std::memcmp(&v0, &want, sizeof v0))
            << "node " << run->nodes[i] << ": " << v0 << " vs " << want;
      }
    }
  }
}

TEST(SparseAgreement, DcOperatingPointMatchesAcrossKernels) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("random_circuit seed=" + std::to_string(seed));
    const spice::Circuit c = random_circuit(seed, 90);
    const spice::DcResult dense = spice::dc_operating_point(c, sparse::Kernel::Dense);
    const spice::DcResult banded = spice::dc_operating_point(c, sparse::Kernel::Banded);
    const spice::DcResult gen = spice::dc_operating_point(c, sparse::Kernel::Sparse);
    ASSERT_EQ(dense.node_v.size(), banded.node_v.size());
    ASSERT_EQ(dense.node_v.size(), gen.node_v.size());
    for (std::size_t i = 0; i < dense.node_v.size(); ++i) {
      const double denom = std::max(std::fabs(dense.node_v[i]), 1e-12);
      EXPECT_LE(std::fabs(dense.node_v[i] - banded.node_v[i]) / denom, 1e-9) << "node " << i;
      EXPECT_LE(std::fabs(dense.node_v[i] - gen.node_v[i]) / denom, 1e-9) << "node " << i;
    }
  }
}

TEST(SparseAgreement, GridsMultifrontalMatchesBandedAndDense) {
  // Forced `sparse` runs the multifrontal path on grids: seeded grids from
  // 8 x 8 to 48 x 48 over 40 steps, and the 64 x 64 netlist text
  // transient_mix sends (4608 unknowns) over its 100 steps. Operating point
  // and trapezoidal transient (through the pulsed step load) must agree
  // with banded, and with dense where dense stays cheap.
  struct Case {
    std::string name;
    spice::Circuit circuit;
    double tstop;
  };
  std::vector<Case> cases;
  for (const auto& [seed, n] : {std::pair{1, 8}, std::pair{2, 12}, std::pair{3, 16},
                                std::pair{4, 24}, std::pair{5, 32}, std::pair{6, 48}})
    cases.push_back({"seeded_grid(seed=" + std::to_string(seed) + ", n=" + std::to_string(n) +
                         ")",
                     pdn::make_grid_circuit(seeded_grid(static_cast<std::uint64_t>(seed), n)),
                     4e-9});
  cases.push_back(
      {"perfbench 64x64 grid", spice::parse_netlist(perfbench_grid_netlist(64)), 10e-9});
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    const spice::Circuit& c = k.circuit;
    ASSERT_TRUE(sparse::analyze(spice::dc_matrix(c), sparse::Kernel::Sparse)->multifrontal());
    std::vector<sparse::Kernel> refs = {sparse::Kernel::Banded};
    if (c.mna_size() <= 1000) refs.push_back(sparse::Kernel::Dense);
    const spice::DcResult op = spice::dc_operating_point(c, sparse::Kernel::Sparse);
    spice::TranSpec spec = base_spec(sparse::Kernel::Sparse);
    spec.tstop = k.tstop;
    spec.dt = 0.1e-9;
    spec.method = spice::Integrator::Trapezoidal;
    spec.use_ic = false;
    const spice::TranResult tran = spice::transient(c, spec);
    EXPECT_EQ(tran.kernel, "sparse");
    for (const sparse::Kernel ref : refs) {
      SCOPED_TRACE(std::string("reference kernel ") + sparse::kernel_name(ref));
      EXPECT_LE(max_rel_diff(op, spice::dc_operating_point(c, ref)), 1e-9);
      spec.kernel = ref;
      EXPECT_LE(max_rel_diff(tran, spice::transient(c, spec)), 1e-9);
    }
  }
}

TEST(SparseAgreement, ZeroDiagonalUnknownsPivotInsideTheirFront) {
  // MNA's zero diagonals on the multifrontal path, in DC: a voltage source
  // between two grid nodes, a node held only by a voltage source to the
  // grid and a capacitor, and one held only by a voltage source to ground
  // and a capacitor (its row and its branch row are both empty on the
  // diagonal).
  spice::Circuit c = pdn::make_grid_circuit(seeded_grid(21, 32));
  c.add_vsource("vab", c.node("g3_4"), c.node("g20_17"), spice::Waveform::dc(0.05));
  const spice::NodeId held = c.node("held");
  c.add_vsource("vheld", held, c.node("g10_10"), spice::Waveform::dc(0.02));
  c.add_capacitor("cheld", held, spice::kGround, 1e-12);
  const spice::NodeId pinned = c.node("pinned");
  c.add_vsource("vpinned", pinned, spice::kGround, spice::Waveform::dc(0.9));
  c.add_capacitor("cpinned", pinned, c.node("g30_2"), 2e-12);
  ASSERT_TRUE(sparse::analyze(spice::dc_matrix(c), sparse::Kernel::Sparse)->multifrontal());

  const spice::DcResult mf = spice::dc_operating_point(c, sparse::Kernel::Sparse);
  const spice::DcResult banded = spice::dc_operating_point(c, sparse::Kernel::Banded);
  EXPECT_LE(max_rel_diff(mf, banded), 1e-9);
  EXPECT_NEAR(mf.voltage(held) - mf.voltage(c.node("g10_10")), 0.02, 1e-12);
  EXPECT_NEAR(mf.voltage(pinned), 0.9, 1e-12);

  spice::TranSpec spec = base_spec(sparse::Kernel::Sparse);
  spec.tstop = 4e-9;
  spec.dt = 0.1e-9;
  spec.use_ic = false;
  const spice::TranResult tran = spice::transient(c, spec);
  spec.kernel = sparse::Kernel::Banded;
  EXPECT_LE(max_rel_diff(tran, spice::transient(c, spec)), 1e-9);
}

TEST(SparseAgreement, ZeroDiagonalUnknownWithoutAFreePartnerLeavesTheFronts) {
  // Three floating sources chained p-a-x-q off a 32 x 32 grid, the middle
  // one declared last: the first two take a and x as pivot partners, so the
  // third finds both terminals taken. Grouped with a, its branch row and
  // v1's would both reach only a inside the front, which would then have no
  // pivot for one of them: the DC solve would throw SingularMatrixError,
  // and the UIC solve (every capacitor a branch unknown, the grid pinned at
  // 0 V) would fall back to all-zero voltages. Such a pattern keeps the
  // other kernels: Gilbert-Peierls under `sparse`, banded under `auto`.
  struct Placement {
    int a, p;  // a and x sit at (a, a) and (a + 1, a); p at (p, 31 - p), q at (31 - p, p).
  };
  for (const Placement& pl : {Placement{25, 13}, Placement{19, 25}}) {
    SCOPED_TRACE("a at g" + std::to_string(pl.a) + "_" + std::to_string(pl.a) + ", p at g" +
                 std::to_string(pl.p) + "_" + std::to_string(31 - pl.p));
    pdn::GridParams gp;
    gp.nx = gp.ny = 32;
    spice::Circuit c = pdn::make_grid_circuit(gp);
    const auto tile = [&](int tx, int ty) {
      return c.node("g" + std::to_string(tx) + "_" + std::to_string(ty));
    };
    const spice::NodeId a = c.node("fa"), x = c.node("fx"), p = c.node("fp"), q = c.node("fq");
    c.add_resistor("ra", a, tile(pl.a, pl.a), 0.2);
    c.add_resistor("rx", x, tile(pl.a + 1, pl.a), 0.3);
    c.add_resistor("rp", p, tile(pl.p, 31 - pl.p), 0.4);
    c.add_resistor("rq", q, tile(31 - pl.p, pl.p), 0.5);
    c.add_vsource("v1", a, p, spice::Waveform::dc(0.03));
    c.add_vsource("v2", x, q, spice::Waveform::dc(-0.02));
    c.add_vsource("v3", a, x, spice::Waveform::dc(0.01));
    EXPECT_FALSE(sparse::analyze(spice::dc_matrix(c), sparse::Kernel::Sparse)->multifrontal());
    EXPECT_EQ(sparse::analyze(spice::dc_matrix(c), sparse::Kernel::Auto)->kernel,
              sparse::Kernel::Banded);

    const spice::DcResult banded = spice::dc_operating_point(c, sparse::Kernel::Banded);
    spice::TranSpec uic = base_spec(sparse::Kernel::Banded);
    uic.tstop = 1e-9;
    uic.dt = 0.1e-9;
    const spice::TranResult uic_banded = spice::transient(c, uic);
    ASSERT_EQ(uic_banded.nodes.at(0), tile(0, 0));
    EXPECT_EQ(uic_banded.voltages.at(0).front(), 0.0);  // Pinned by its capacitor.
    for (const sparse::Kernel k : {sparse::Kernel::Sparse, sparse::Kernel::Auto}) {
      SCOPED_TRACE(std::string("kernel ") + sparse::kernel_name(k));
      const spice::DcResult op = spice::dc_operating_point(c, k);
      EXPECT_LE(max_rel_diff(op, banded), 1e-9);
      EXPECT_NEAR(op.voltage(a) - op.voltage(x), 0.01, 1e-12);
      uic.kernel = k;
      const spice::TranResult tran = spice::transient(c, uic);
      EXPECT_NEAR(tran.voltages.at(static_cast<std::size_t>(a - 1)).front() -
                      tran.voltages.at(static_cast<std::size_t>(x - 1)).front(),
                  0.01, 1e-12);
      EXPECT_LE(max_rel_diff(tran, uic_banded, true), 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Automatic kernel selection
// ---------------------------------------------------------------------------

TEST(SparseSelection, LadderPicksBanded) {
  const spice::Circuit c = ladder_circuit(200, false);
  const spice::TranResult res = spice::transient(c, base_spec(sparse::Kernel::Auto));
  EXPECT_EQ(res.kernel, "banded");
  EXPECT_EQ(res.symbolic_analyses, 1u);
}

TEST(SparseSelection, GridPicksBanded) {
  pdn::GridParams gp;
  gp.nx = gp.ny = 16;
  const spice::Circuit c = pdn::make_grid_circuit(gp);
  spice::TranSpec spec = base_spec(sparse::Kernel::Auto);
  spec.use_ic = false;
  const spice::TranResult res = spice::transient(c, spec);
  EXPECT_EQ(res.kernel, "banded");
  EXPECT_GT(res.factor_nnz, 0u);
}

TEST(SparseSelection, LargeGridPicksMultifrontalSparse) {
  // Above the crossover the nested-dissection factor stores at most a third
  // of the band's entries, so `auto` leaves banded; 16 x 16 (GridPicksBanded)
  // and ladders (LadderPicksBanded) do not cross.
  for (const int n : {32, 64}) {
    SCOPED_TRACE("grid " + std::to_string(n) + "x" + std::to_string(n));
    pdn::GridParams gp;
    gp.nx = gp.ny = n;
    const spice::Circuit c = pdn::make_grid_circuit(gp);
    const auto sym = sparse::analyze(spice::dc_matrix(c), sparse::Kernel::Auto);
    EXPECT_EQ(sym->kernel, sparse::Kernel::Sparse);
    EXPECT_TRUE(sym->multifrontal());
    spice::TranSpec spec = base_spec(sparse::Kernel::Auto);
    spec.tstop = 2e-9;
    spec.dt = 0.1e-9;
    spec.use_ic = false;
    const spice::TranResult res = spice::transient(c, spec);
    EXPECT_EQ(res.kernel, "sparse");
    EXPECT_EQ(res.symbolic_analyses, 1u);
  }
}

TEST(SparseSelection, IrregularNetlistPicksSparse) {
  // A random RC tree has no small bandwidth under any ordering, so `auto`
  // picks the general sparse kernel — the regime where it beats banded
  // (10-15x at a few thousand nodes); grids and ladders stay banded.
  const spice::Circuit c = random_circuit(3, 500);
  const spice::TranResult res = spice::transient(c, base_spec(sparse::Kernel::Auto));
  EXPECT_EQ(res.kernel, "sparse");
}

TEST(SparseSelection, IrregularNetlistsKeepMinimumDegree) {
  // Nested dissection is tried only on narrow bands, where it replaces
  // banded; a random netlist's band is wide at every size, so `auto` and
  // forced `sparse` both keep minimum-degree Gilbert-Peierls on it.
  for (const int n : {120, 500, 2000}) {
    SCOPED_TRACE("random_circuit(3, " + std::to_string(n) + ")");
    const sparse::CscMatrix a = spice::dc_matrix(random_circuit(3, n));
    for (const sparse::Kernel k : {sparse::Kernel::Auto, sparse::Kernel::Sparse}) {
      const auto sym = sparse::analyze(a, k);
      EXPECT_EQ(sym->kernel, sparse::Kernel::Sparse) << sparse::kernel_name(k);
      EXPECT_FALSE(sym->multifrontal()) << sparse::kernel_name(k);
    }
  }
}

TEST(SparseSelection, SmallCircuitStaysDense) {
  // n <= 48: the legacy dense path, byte for byte.
  const spice::Circuit c = ladder_circuit(10, false);
  const spice::TranResult res = spice::transient(c, base_spec(sparse::Kernel::Auto));
  EXPECT_EQ(res.kernel, "dense");
}

// ---------------------------------------------------------------------------
// Symbolic reuse across switch-state changes
// ---------------------------------------------------------------------------

TEST(SparseSymbolic, ReusedAcrossSwitchStates) {
  const spice::Circuit c = ladder_circuit(120, true);
  spice::TranSpec spec = base_spec(sparse::Kernel::Auto);
  spec.tstop = 200e-9;
  const spice::TranResult res = spice::transient(c, spec);
  EXPECT_EQ(res.kernel, "banded");
  // The clocked switch toggles the matrix values every half period, forcing
  // multiple numeric factorizations — but the sparsity pattern never moves,
  // so exactly one structural analysis serves the whole run.
  EXPECT_GE(res.lu_factorizations, 2u);
  EXPECT_EQ(res.symbolic_analyses, 1u);
}

TEST(SparseSymbolic, OperatingPointIsTheForcedKernelsAndItsAnalysisIsReused) {
  // The operating point solves with the run's kernel, and a grid (every
  // capacitor to ground, so the stepping matrix has the operating point's
  // pattern) runs one structural analysis: the t = 0 sample is the forced
  // kernel's operating point, bit for bit.
  const spice::Circuit c = pdn::make_grid_circuit(seeded_grid(31, 48));
  for (const sparse::Kernel k : {sparse::Kernel::Banded, sparse::Kernel::Sparse}) {
    SCOPED_TRACE(std::string("kernel ") + sparse::kernel_name(k));
    const spice::DcResult op = spice::dc_operating_point(c, k);
    spice::TranSpec spec = base_spec(k);
    spec.tstop = 1e-9;
    spec.dt = 0.1e-9;
    spec.use_ic = false;
    const spice::TranResult res = spice::transient(c, spec);
    EXPECT_EQ(res.symbolic_analyses, 1u);
    ASSERT_EQ(res.nodes.size() + 1, op.node_v.size());
    for (std::size_t i = 0; i < res.nodes.size(); ++i) {
      const double v0 = res.voltages[i].front();
      const double dc = op.node_v[static_cast<std::size_t>(res.nodes[i])];
      EXPECT_EQ(0, std::memcmp(&v0, &dc, sizeof v0)) << "node " << res.nodes[i] << ": " << v0
                                                     << " vs " << dc;
    }
  }
}

// ---------------------------------------------------------------------------
// LU-cache byte-identity with sparse kernels
// ---------------------------------------------------------------------------

TEST(SparseCache, ByteIdenticalAcrossCapacities) {
  // Switched circuits on every sparse-family path: a ladder banded and
  // forced sparse (multifrontal), an irregular netlist forced sparse
  // (Gilbert-Peierls), and a 32 x 32 grid with a clocked strap switch that
  // `auto` factors multifrontal. Every switch edge swaps the resident
  // factorization.
  spice::Circuit grid = pdn::make_grid_circuit(seeded_grid(41, 32));
  const spice::PhaseClock clk(500e6, 1, 0.5);
  grid.add_switch("strap", grid.node("g8_8"), grid.node("g24_24"), 0.05, 1e6, clk.phase(0));
  ASSERT_TRUE(sparse::analyze(spice::dc_matrix(grid), sparse::Kernel::Auto)->multifrontal());
  spice::TranSpec grid_spec = base_spec(sparse::Kernel::Auto);
  grid_spec.tstop = 10e-9;
  grid_spec.dt = 0.1e-9;
  grid_spec.use_ic = false;

  const spice::Circuit ladder = ladder_circuit(120, true);
  spice::TranSpec banded = base_spec(sparse::Kernel::Banded);
  banded.tstop = 200e-9;
  spice::TranSpec forced_sparse = banded;
  forced_sparse.kernel = sparse::Kernel::Sparse;
  // Irregular enough for Gilbert-Peierls.
  spice::Circuit irregular = random_circuit(3, 500);
  irregular.add_switch("sw", irregular.node("n10"), irregular.node("n400"), 0.01, 1e6,
                       spice::PhaseClock(50e6, 1, 0.5).phase(0));
  ASSERT_FALSE(
      sparse::analyze(spice::dc_matrix(irregular), sparse::Kernel::Sparse)->multifrontal());

  struct Case {
    const char* name;
    const spice::Circuit& circuit;
    spice::TranSpec spec;
  };
  for (const Case& k : {Case{"ladder, banded", ladder, banded},
                        Case{"ladder, sparse", ladder, forced_sparse},
                        Case{"irregular, sparse", irregular, forced_sparse},
                        Case{"grid, auto", grid, grid_spec}}) {
    SCOPED_TRACE(k.name);
    const spice::Circuit& c = k.circuit;
    spice::TranSpec spec = k.spec;
    spec.lu_cache_capacity = 0;
    const spice::TranResult cap0 = spice::transient(c, spec);
    spec.lu_cache_capacity = 1;
    const spice::TranResult cap1 = spice::transient(c, spec);
    spec.lu_cache_capacity = spice::TranSpec{}.lu_cache_capacity;
    const spice::TranResult capN = spice::transient(c, spec);
    EXPECT_TRUE(byte_identical(cap0, cap1));
    EXPECT_TRUE(byte_identical(cap0, capN));
    EXPECT_GT(capN.lu_cache_hits, 0u);
    EXPECT_LT(capN.lu_factorizations, cap1.lu_factorizations);
  }
}

// ---------------------------------------------------------------------------
// Parallel DSE over grid candidates (ThreadSanitizer suite)
// ---------------------------------------------------------------------------

TEST(SparseParallel, GridCandidateSweepIsDeterministic) {
  std::vector<pdn::GridParams> candidates;
  for (const int pitch : {2, 4})
    for (const double decap : {20e-12, 50e-12, 100e-12}) {
      pdn::GridParams gp;
      gp.nx = gp.ny = 8;
      gp.bump_pitch = pitch;
      gp.tile_cap_f = decap;
      candidates.push_back(gp);
    }
  // One candidate above the crossover: `auto` factors it multifrontal.
  pdn::GridParams large;
  large.nx = large.ny = 32;
  candidates.push_back(large);

  const auto run = [&](std::size_t i) {
    spice::Circuit ckt;
    const pdn::GridNodes nodes = pdn::build_grid_netlist(ckt, candidates[i]);
    spice::TranSpec spec = base_spec(sparse::Kernel::Auto);
    spec.tstop = 20e-9;
    spec.dt = 0.2e-9;
    spec.use_ic = false;
    spec.record_nodes = {nodes.center};
    return spice::transient(ckt, spec).voltages.at(0);
  };

  std::vector<std::vector<double>> serial;
  serial.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) serial.push_back(run(i));

  par::set_global_threads(4);
  const std::vector<std::vector<double>> parallel =
      par::parallel_map<std::vector<double>>(candidates.size(), run);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size()) << "candidate " << i;
    EXPECT_EQ(0, std::memcmp(serial[i].data(), parallel[i].data(),
                             serial[i].size() * sizeof(double)))
        << "candidate " << i << ": parallel result differs from serial";
  }
}

// ---------------------------------------------------------------------------
// Singular-matrix diagnostics
// ---------------------------------------------------------------------------

TEST(SparseDiagnostics, SingularNamesDimensionPivotAndUnknown) {
  // Two ideal sources in parallel with different values: structurally
  // singular (dependent branch rows).
  spice::Circuit c;
  const spice::NodeId n1 = c.node("rail");
  c.add_vsource("v1", n1, spice::kGround, spice::Waveform::dc(1.0));
  c.add_vsource("v2", n1, spice::kGround, spice::Waveform::dc(2.0));
  c.add_resistor("rl", n1, spice::kGround, 1.0);
  try {
    spice::dc_operating_point(c);
    FAIL() << "expected SingularMatrixError";
  } catch (const SingularMatrixError& e) {
    EXPECT_EQ(e.dim(), 3u);  // 1 node + 2 branch currents.
    EXPECT_LT(e.pivot_col(), 3u);
    const std::string what = e.what();
    EXPECT_NE(what.find("singular"), std::string::npos) << what;
    EXPECT_NE(what.find("n=3"), std::string::npos) << what;
    EXPECT_NE(what.find("offending unknown"), std::string::npos) << what;
    EXPECT_NE(what.find("branch current"), std::string::npos) << what;
  }

  // On the multifrontal path: a node tied to a grid only through a
  // capacitor floats in DC, its front finds no pivot, and the error names
  // it in original indices.
  spice::Circuit grid = pdn::make_grid_circuit(seeded_grid(51, 32));
  const spice::NodeId floating = grid.node("floating");
  grid.add_capacitor("cfloat", floating, grid.node("g5_9"), 1e-12);
  ASSERT_TRUE(sparse::analyze(spice::dc_matrix(grid), sparse::Kernel::Sparse)->multifrontal());
  try {
    spice::dc_operating_point(grid, sparse::Kernel::Sparse);
    FAIL() << "expected SingularMatrixError";
  } catch (const SingularMatrixError& e) {
    EXPECT_EQ(e.dim(), static_cast<std::size_t>(grid.mna_size()));
    EXPECT_EQ(e.pivot_col(), static_cast<std::size_t>(floating - 1));
    const std::string what = e.what();
    EXPECT_NE(what.find("singular"), std::string::npos) << what;
    EXPECT_NE(what.find("n=" + std::to_string(grid.mna_size())), std::string::npos) << what;
    EXPECT_NE(what.find("offending unknown: node 'floating'"), std::string::npos) << what;
  }
}

TEST(SparseDiagnostics, SingularIsStillANumericalError) {
  // Existing callers catching NumericalError keep working.
  spice::Circuit c;
  const spice::NodeId n1 = c.node("a");
  c.add_vsource("v1", n1, spice::kGround, spice::Waveform::dc(1.0));
  c.add_vsource("v2", n1, spice::kGround, spice::Waveform::dc(2.0));
  c.add_resistor("rl", n1, spice::kGround, 1.0);
  EXPECT_THROW(spice::dc_operating_point(c), NumericalError);
}

// ---------------------------------------------------------------------------
// Kernel-level: compression and structural analysis
// ---------------------------------------------------------------------------

TEST(SparseKernel, CompressSumsDuplicatesInInsertionOrder) {
  sparse::SparseStamp s(3);
  s.add(0, 0, 1.0);
  s.add(1, 1, 2.0);
  s.add(0, 0, 0.5);   // Duplicate: summed with the first stamp.
  s.add(2, 1, -1.0);
  s.add(1, 2, 4.0);
  s.add(2, 2, 3.0);
  sparse::CscMatrix m;
  sparse::compress(s, m);
  EXPECT_EQ(m.n, 3u);
  EXPECT_EQ(m.nnz(), 5u);
  // Column 0: single (0,0) entry holding 1.0 + 0.5.
  EXPECT_EQ(m.col_ptr[0], 0);
  EXPECT_EQ(m.col_ptr[1], 1);
  EXPECT_EQ(m.row_ind[0], 0);
  EXPECT_DOUBLE_EQ(m.val[0], 1.5);
  // Column 1: rows 1, 2 sorted.
  EXPECT_EQ(m.row_ind[1], 1);
  EXPECT_EQ(m.row_ind[2], 2);
}

TEST(SparseKernel, PatternHashIgnoresValues) {
  sparse::SparseStamp a(2), b(2);
  a.add(0, 0, 1.0);
  a.add(1, 1, 2.0);
  b.add(0, 0, 5.0);
  b.add(1, 1, -3.0);
  sparse::CscMatrix ma, mb;
  sparse::compress(a, ma);
  sparse::compress(b, mb);
  EXPECT_EQ(ma.pattern_hash(), mb.pattern_hash());
  b.add(0, 1, 1.0);
  sparse::compress(b, mb);
  EXPECT_NE(ma.pattern_hash(), mb.pattern_hash());
}

TEST(SparseKernel, ForcedKernelsSolveIdenticalSystem) {
  // 1D Laplacian-ish SPD band system, solved by all three kernels.
  const std::size_t n = 60;
  sparse::SparseStamp s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.add(i, i, 2.5);
    if (i + 1 < n) {
      s.add(i, i + 1, -1.0);
      s.add(i + 1, i, -1.0);
    }
  }
  sparse::CscMatrix m;
  sparse::compress(s, m);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<double>(i % 7) - 3.0;

  const auto xd =
      sparse::MnaFactorization(m, sparse::analyze(m, sparse::Kernel::Dense)).solve(b);
  const auto xb =
      sparse::MnaFactorization(m, sparse::analyze(m, sparse::Kernel::Banded)).solve(b);
  const auto xs =
      sparse::MnaFactorization(m, sparse::analyze(m, sparse::Kernel::Sparse)).solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(xb[i], xd[i], 1e-9 * std::max(1.0, std::fabs(xd[i]))) << i;
    EXPECT_NEAR(xs[i], xd[i], 1e-9 * std::max(1.0, std::fabs(xd[i]))) << i;
  }
}

// ---------------------------------------------------------------------------
// Dense kernel size limit
// ---------------------------------------------------------------------------

TEST(SparseKernel, ForcedDenseAboveTheLimitIsRefusedBeforeAllocating) {
  const std::size_t n = 20001;
  sparse::SparseStamp s(n);
  for (std::size_t i = 0; i < n; ++i) s.add(i, i, 1.0);
  sparse::CscMatrix m;
  sparse::compress(s, m);
  try {
    sparse::analyze(m, sparse::Kernel::Dense);
    FAIL() << "expected InvalidParameter";
  } catch (const InvalidParameter& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel"), std::string::npos) << what;
    EXPECT_NE(what.find("n=20001"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(n * n * sizeof(double)) + " bytes"), std::string::npos)
        << what;
  }
  // The limit is the dense kernel's: the same system runs on the others.
  EXPECT_EQ(sparse::analyze(m, sparse::Kernel::Auto)->kernel, sparse::Kernel::Banded);
  // And a 48 x 48 grid (2592 unknowns) still fits.
  pdn::GridParams gp;
  gp.nx = gp.ny = 48;
  const sparse::CscMatrix grid = spice::dc_matrix(pdn::make_grid_circuit(gp));
  EXPECT_EQ(sparse::analyze(grid, sparse::Kernel::Dense)->kernel, sparse::Kernel::Dense);
}

TEST(SparseKernel, ForcedDenseTransientAboveTheLimitFailsUpFront) {
  // A 4200-stage RC ladder forced dense fails in the operating point's
  // analysis, naming the kernel, before any matrix is built.
  spice::Circuit c;
  spice::NodeId prev = c.node("in");
  c.add_vsource("vs", prev, spice::kGround, spice::Waveform::dc(1.0));
  for (int i = 0; i < 4200; ++i) {
    const spice::NodeId ni = c.node("n" + std::to_string(i));
    c.add_resistor("r" + std::to_string(i), prev, ni, 0.1);
    c.add_capacitor("c" + std::to_string(i), ni, spice::kGround, 1e-9);
    prev = ni;
  }
  spice::TranSpec spec = base_spec(sparse::Kernel::Dense);
  spec.use_ic = false;
  EXPECT_THROW(spice::transient(c, spec), InvalidParameter);
  spec.use_ic = true;
  EXPECT_THROW(spice::transient(c, spec), InvalidParameter);
}
