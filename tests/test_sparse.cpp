// Sparse/banded MNA kernel tests: dense-vs-sparse agreement on seeded random
// circuits, automatic kernel selection, symbolic reuse across switch-state
// changes, LU-cache byte-identity with sparse kernels, deterministic
// parallel DSE over grid candidates, and singular-matrix diagnostics.
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
#include "spice/phase_clock.hpp"

using namespace ivory;

namespace {

double max_rel_diff(const spice::TranResult& a, const spice::TranResult& b) {
  EXPECT_EQ(a.time.size(), b.time.size());
  EXPECT_EQ(a.voltages.size(), b.voltages.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.voltages.size() && i < b.voltages.size(); ++i)
    for (std::size_t k = 0; k < a.voltages[i].size() && k < b.voltages[i].size(); ++k) {
      const double x = a.voltages[i][k], y = b.voltages[i][k];
      const double denom = std::max({std::fabs(x), std::fabs(y), 1e-12});
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
    c.add_switch("sw", mid_a, mid_b, 0.01, 1e6, clk.control(0), clk.edge_fn(0));
  }
  return c;
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
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("random_circuit seed=" + std::to_string(seed) +
                 " (reproduce: random_circuit(seed, 120))");
    const spice::Circuit c = random_circuit(seed, 120);
    const spice::TranResult dense = spice::transient(c, base_spec(sparse::Kernel::Dense));
    const spice::TranResult banded = spice::transient(c, base_spec(sparse::Kernel::Banded));
    const spice::TranResult gen = spice::transient(c, base_spec(sparse::Kernel::Sparse));
    EXPECT_EQ(dense.kernel, "dense");
    EXPECT_EQ(banded.kernel, "banded");
    EXPECT_EQ(gen.kernel, "sparse");
    EXPECT_LE(max_rel_diff(dense, banded), 1e-9);
    EXPECT_LE(max_rel_diff(dense, gen), 1e-9);
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

TEST(SparseSelection, IrregularNetlistPicksSparse) {
  // A random RC tree has no small bandwidth under any ordering, so `auto`
  // picks the general sparse kernel — the regime where it beats banded
  // (10-15x at a few thousand nodes); grids and ladders stay banded.
  const spice::Circuit c = random_circuit(3, 500);
  const spice::TranResult res = spice::transient(c, base_spec(sparse::Kernel::Auto));
  EXPECT_EQ(res.kernel, "sparse");
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

// ---------------------------------------------------------------------------
// LU-cache byte-identity with sparse kernels
// ---------------------------------------------------------------------------

TEST(SparseCache, ByteIdenticalAcrossCapacities) {
  const spice::Circuit c = ladder_circuit(120, true);
  for (const sparse::Kernel k : {sparse::Kernel::Banded, sparse::Kernel::Sparse}) {
    spice::TranSpec spec = base_spec(k);
    spec.tstop = 200e-9;
    spec.lu_cache_capacity = 0;
    const spice::TranResult cap0 = spice::transient(c, spec);
    spec.lu_cache_capacity = 1;
    const spice::TranResult cap1 = spice::transient(c, spec);
    spec.lu_cache_capacity = spice::TranSpec{}.lu_cache_capacity;
    const spice::TranResult capN = spice::transient(c, spec);
    EXPECT_TRUE(byte_identical(cap0, cap1)) << "kernel " << sparse::kernel_name(k);
    EXPECT_TRUE(byte_identical(cap0, capN)) << "kernel " << sparse::kernel_name(k);
    EXPECT_GT(capN.lu_cache_hits, 0u);
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
