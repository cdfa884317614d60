// Fault-injection harness tests: sweeps must survive injected failures with
// the surviving candidates and the skip report byte-identical at any thread
// count, and degrade to a single aggregated error only when every candidate
// dies.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/fft.hpp"
#include "common/matrix.hpp"
#include "common/outcome.hpp"
#include "common/parallel.hpp"
#include "core/dynamic.hpp"
#include "core/optimizer.hpp"
#include "core/pareto.hpp"

namespace ivory {
namespace {

using core::DseResult;
using core::OptTarget;
using core::SystemParams;

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::disarm_all();
    par::set_global_threads(1);
  }
};

// --- Probe mechanics ------------------------------------------------------

TEST_F(FaultInjectionTest, KthHitThrowFiresExactlyOnce) {
  const LuFactorization<double> lu(Matrix<double>::identity(3));
  const std::vector<double> b{1.0, 2.0, 3.0};

  fault::arm_on_hit("lu_solve", fault::Action::Throw, 2);
  EXPECT_NO_THROW(lu.solve(b));  // Hit 1: passes.
  try {
    lu.solve(b);  // Hit 2: armed.
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("fault-injection"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("lu_solve"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(lu.solve(b));  // Hit 3: fires exactly once.
  EXPECT_EQ(fault::trip_count("lu_solve"), 1u);
}

TEST_F(FaultInjectionTest, EmitNanTripsTheSolveGuard) {
  const LuFactorization<double> lu(Matrix<double>::identity(2));
  fault::arm_on_hit("lu_solve", fault::Action::EmitNan, 1);
  // The injected NaN rides into the solution vector and must be caught by
  // the finite guard rather than escaping to the caller's arithmetic.
  EXPECT_THROW(lu.solve({1.0, 1.0}), NonFiniteError);
  EXPECT_EQ(fault::trip_count("lu_solve"), 1u);
}

TEST_F(FaultInjectionTest, FftThrowInjection) {
  std::vector<std::complex<double>> data(8, {1.0, 0.0});
  fault::arm_on_hit("fft", fault::Action::Throw, 1);
  EXPECT_THROW(fft_radix2(data), NumericalError);
}

TEST_F(FaultInjectionTest, FftNanInjectionTripsOutputGuard) {
  std::vector<std::complex<double>> data(8, {1.0, 0.0});
  fault::arm_on_hit("fft", fault::Action::EmitNan, 1);
  EXPECT_THROW(fft_radix2(data), NonFiniteError);
}

TEST_F(FaultInjectionTest, CycleModelNanInjectionTripsWaveformGuard) {
  core::ScDesign d;
  d.n = 2;
  d.m = 1;
  d.c_fly_f = 1e-6;
  d.c_out_f = 0.2e-6;
  d.g_tot_s = 5000.0;
  d.f_sw_hz = 100e6;
  const std::vector<double> iload(64, 1.0);
  fault::arm_on_hit("cycle_model", fault::Action::EmitNan, 1);
  EXPECT_THROW(core::sc_cycle_response(d, 2.4, 1.0, iload, 1e-9), NonFiniteError);
}

TEST_F(FaultInjectionTest, RearmResetsCounters) {
  const LuFactorization<double> lu(Matrix<double>::identity(2));
  fault::arm_on_hit("lu_solve", fault::Action::Throw, 1);
  EXPECT_THROW(lu.solve({1.0, 1.0}), NumericalError);
  fault::arm_on_hit("lu_solve", fault::Action::Throw, 1);  // Fresh stream.
  EXPECT_THROW(lu.solve({1.0, 1.0}), NumericalError);
  EXPECT_EQ(fault::trip_count("lu_solve"), 1u);  // Re-arm cleared the count.
}

// --- Sweep-level quarantine under injected faults -------------------------

struct SweepRun {
  std::vector<DseResult> results;
  SweepReport report;
};

SweepRun run_explore(unsigned threads, const SystemParams& sys) {
  par::set_global_threads(threads);
  fault::reset_hits();
  SweepRun run;
  run.results = core::explore(sys, OptTarget::Efficiency, &run.report);
  return run;
}

void expect_same_result(const DseResult& a, const DseResult& b, std::size_t i) {
  EXPECT_EQ(a.topology, b.topology) << "survivor " << i;
  EXPECT_EQ(a.label, b.label) << "survivor " << i;
  EXPECT_EQ(a.n_distributed, b.n_distributed) << "survivor " << i;
  EXPECT_EQ(a.feasible, b.feasible) << "survivor " << i;
  EXPECT_EQ(bits(a.efficiency), bits(b.efficiency)) << "survivor " << i;
  EXPECT_EQ(bits(a.ripple_pp_v), bits(b.ripple_pp_v)) << "survivor " << i;
  EXPECT_EQ(bits(a.f_sw_hz), bits(b.f_sw_hz)) << "survivor " << i;
  EXPECT_EQ(bits(a.area_m2), bits(b.area_m2)) << "survivor " << i;
  EXPECT_EQ(a.n_interleave, b.n_interleave) << "survivor " << i;
}

void expect_same_run(const SweepRun& a, const SweepRun& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i)
    expect_same_result(a.results[i], b.results[i], i);
  EXPECT_EQ(a.report.n_evaluated, b.report.n_evaluated);
  EXPECT_EQ(a.report.n_survived, b.report.n_survived);
  ASSERT_EQ(a.report.skips.size(), b.report.skips.size());
  for (std::size_t i = 0; i < a.report.skips.size(); ++i) {
    EXPECT_EQ(a.report.skips[i].code, b.report.skips[i].code) << "skip " << i;
    EXPECT_EQ(a.report.skips[i].site, b.report.skips[i].site) << "skip " << i;
    EXPECT_EQ(a.report.skips[i].candidate, b.report.skips[i].candidate) << "skip " << i;
    EXPECT_EQ(a.report.skips[i].detail, b.report.skips[i].detail) << "skip " << i;
  }
}

TEST_F(FaultInjectionTest, ExploreSurvivesPointLevelFaultsIdenticallyAcrossThreads) {
  const SystemParams sys;
  core::explore(sys);  // Warm the static-analysis caches before arming.

  // Seeded so a minority (<= 30%) of the twelve explore points die; the rest
  // of the sweep must come through untouched and identical at 1/2/4 threads.
  fault::arm_probability("optimize_topology", fault::Action::Throw, 0.18, 42);
  const SweepRun r1 = run_explore(1, sys);

  ASSERT_FALSE(r1.report.skips.empty()) << "injection never fired; pick another seed";
  ASSERT_FALSE(r1.results.empty());
  std::size_t point_skips = 0;
  for (const Diagnostics& d : r1.report.skips) {
    EXPECT_EQ(d.site, "explore");
    EXPECT_EQ(d.code, ErrorCode::Numerical);
    EXPECT_NE(d.detail.find("fault-injection"), std::string::npos) << d.detail;
    ++point_skips;
  }
  EXPECT_LE(static_cast<double>(point_skips), 0.30 * 12.0)
      << "injected failures must stay a minority of the 12 explore points";
  EXPECT_EQ(r1.results.size() + point_skips, 12u);

  const SweepRun r2 = run_explore(2, sys);
  const SweepRun r4 = run_explore(4, sys);
  expect_same_run(r1, r2);
  expect_same_run(r1, r4);
}

TEST_F(FaultInjectionTest, ExploreSurvivesModelLevelFaultsIdenticallyAcrossThreads) {
  const SystemParams sys;
  core::explore(sys);  // Warm the static-analysis caches before arming.

  // Low per-hit probability: the SC static-analysis probe is hit many times
  // per variant, so this kills some variants (and possibly whole points)
  // while leaving survivors.
  fault::arm_probability("sc_static_analysis", fault::Action::Throw, 0.001, 1234);
  const SweepRun r1 = run_explore(1, sys);

  ASSERT_FALSE(r1.report.skips.empty()) << "injection never fired; pick another seed";
  ASSERT_FALSE(r1.results.empty());
  EXPECT_GT(fault::trip_count("sc_static_analysis"), 0u);

  const SweepRun r2 = run_explore(2, sys);
  const SweepRun r4 = run_explore(4, sys);
  expect_same_run(r1, r2);
  expect_same_run(r1, r4);
}

TEST_F(FaultInjectionTest, AllCandidatesDeadRaisesAggregatedError) {
  const SystemParams sys;
  fault::arm_probability("optimize_topology", fault::Action::Throw, 1.0, 7);
  SweepReport report;
  try {
    core::explore(sys, OptTarget::Efficiency, &report);
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    EXPECT_EQ(e.dominant().code, ErrorCode::Numerical);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("explore"), std::string::npos) << msg;
    EXPECT_NE(msg.find("all 12 candidates failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fault-injection"), std::string::npos) << msg;
  }
  // The report still lists every skip even though the sweep threw.
  EXPECT_EQ(report.skips.size(), 12u);
}

TEST_F(FaultInjectionTest, AllCandidatesNanRaisesNonFiniteDominant) {
  const SystemParams sys;
  // NaN load power poisons every candidate; the model entry guards must
  // classify the deaths as NonFinite, and the aggregate must say so.
  fault::arm_probability("optimize_topology", fault::Action::EmitNan, 1.0, 7);
  try {
    core::explore(sys);
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    EXPECT_EQ(e.dominant().code, ErrorCode::NonFinite);
  }
}

// Also at block 256, where block boundaries split the screen's rows: a row
// that throws becomes one skip per candidate of its block segment, so the
// skips are the same list at either block size, one per candidate in index
// order, each with its own label.
TEST_F(FaultInjectionTest, FunnelNanLoadQuarantinesEveryCandidate) {
  const SystemParams sys;
  core::FunnelSpec spec = core::FunnelSpec{}.scaled(0.15);
  spec.simulate = false;
  const std::uint64_t n_screened = core::funnel_explore(sys, spec).stats.n_screened;
  ASSERT_GT(n_screened, 0u);

  std::vector<std::string> ref;
  for (const std::size_t block : {spec.block, std::size_t{256}}) {
    spec.block = block;
    // The poisoned load reaches every candidate of every topology, and each
    // must die on a finite guard: an unreachable buck duty is no excuse to
    // call a NaN-loaded candidate merely infeasible.
    fault::arm_probability("funnel_explore", fault::Action::EmitNan, 1.0, 7);
    SweepReport report;
    try {
      core::funnel_explore(sys, spec, &report);
      FAIL() << "expected SweepError at block " << block;
    } catch (const SweepError& e) {
      EXPECT_EQ(e.dominant().code, ErrorCode::NonFinite) << "block " << block;
    }
    fault::disarm_all();
    EXPECT_EQ(report.skips.size(), n_screened) << "block " << block;
    EXPECT_EQ(report.n_survived, 0u) << "block " << block;
    std::size_t not_non_finite = 0;
    std::vector<std::string> skips;
    std::set<std::string> labels;
    for (const Diagnostics& d : report.skips) {
      if (d.code != ErrorCode::NonFinite) ++not_non_finite;
      skips.push_back(d.to_string());
      labels.insert(d.candidate);
    }
    EXPECT_EQ(not_non_finite, 0u) << "block " << block;
    EXPECT_EQ(labels.size(), skips.size()) << "block " << block << ": a label repeats";
    if (ref.empty())
      ref = skips;
    else
      EXPECT_EQ(skips, ref) << "block " << block << " changed the skips or their order";
  }
}

}  // namespace
}  // namespace ivory
