// Tests for the deterministic thread pool (src/common/parallel.*) and the
// determinism contract of the parallel DSE engine: explore() must produce
// byte-identical ordered results no matter how many threads run the sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/optimizer.hpp"

namespace ivory {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  static_assert(sizeof(u) == sizeof(x));
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(ThreadPool, StartStopResize) {
  par::set_global_threads(1);
  EXPECT_EQ(par::global_threads(), 1u);
  par::set_global_threads(4);
  EXPECT_EQ(par::global_threads(), 4u);
  // Resizing to the current size is a no-op; back to 2 spawns a fresh pool.
  par::set_global_threads(4);
  EXPECT_EQ(par::global_threads(), 4u);
  par::set_global_threads(2);
  EXPECT_EQ(par::global_threads(), 2u);
  EXPECT_THROW(par::set_global_threads(0), InvalidParameter);
  par::set_global_threads(1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 5u}) {
    par::set_global_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    par::parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
  par::set_global_threads(1);
}

// Many short batches back to back: each batch lives on the submitter's
// stack, and a worker that is still letting go of one must not touch it
// after the submitter has returned and reused the stack for the next. Under
// ThreadSanitizer (`ctest -L tsan`) a late touch reports as a race.
TEST(ThreadPool, ShortBatchesBackToBack) {
  par::set_global_threads(4);
  constexpr int kBatches = 12000;
  std::atomic<std::size_t> total{0};
  for (int b = 0; b < kBatches; ++b)
    par::parallel_for(8, [&](std::size_t i) { total.fetch_add(i + 1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(), std::size_t{36} * kBatches);
  par::set_global_threads(1);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  par::set_global_threads(4);
  const std::vector<double> out =
      par::parallel_map<double>(257, [](std::size_t i) { return 3.0 * static_cast<double>(i); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], 3.0 * static_cast<double>(i));
  par::set_global_threads(1);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  par::set_global_threads(4);
  try {
    par::parallel_for(100, [](std::size_t i) {
      if (i >= 17) throw InvalidParameter("task " + std::to_string(i));
    });
    FAIL() << "expected InvalidParameter";
  } catch (const InvalidParameter& e) {
    // Every throwing index is recorded; the rethrown one is deterministic —
    // always the lowest — regardless of which thread hit it first.
    EXPECT_STREQ(e.what(), "task 17");
  }
  par::set_global_threads(1);
}

TEST(ThreadPool, PoolSurvivesAndReportsTaskExceptions) {
  par::set_global_threads(3);
  EXPECT_THROW(par::parallel_for(8, [](std::size_t) { throw NumericalError("boom"); }),
               NumericalError);
  // The pool must still be usable after a failed batch.
  std::atomic<int> sum{0};
  par::parallel_for(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
  par::set_global_threads(1);
}

TEST(ThreadPool, NestedParallelForIsRejectedFromThePool) {
  par::set_global_threads(4);
  std::atomic<int> nested_total{0};
  std::atomic<bool> saw_region_flag{false};
  std::atomic<bool> nested_changed_thread{false};
  par::parallel_for(8, [&](std::size_t) {
    if (par::in_parallel_region()) saw_region_flag = true;
    const std::thread::id outer = std::this_thread::get_id();
    // The nested loop must run inline (serially, on this worker) instead of
    // re-entering the pool — re-entry could deadlock a bounded pool.
    par::parallel_for(16, [&](std::size_t) {
      nested_total.fetch_add(1);
      if (std::this_thread::get_id() != outer) nested_changed_thread = true;
    });
  });
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_FALSE(nested_changed_thread.load());
  EXPECT_EQ(nested_total.load(), 8 * 16);
  // Outside any region the flag must be clear again.
  EXPECT_FALSE(par::in_parallel_region());
  par::set_global_threads(1);
}

TEST(ThreadPool, ConfiguredThreadsReadsEnv) {
  ::setenv("IVORY_THREADS", "3", 1);
  EXPECT_EQ(par::configured_threads(), 3u);
  ::setenv("IVORY_THREADS", "not-a-number", 1);
  EXPECT_GE(par::configured_threads(), 1u);  // Falls back to hardware_concurrency.
  ::unsetenv("IVORY_THREADS");
  EXPECT_GE(par::configured_threads(), 1u);
}

TEST(ThreadPool, EmptyAndSingleIndexLoops) {
  par::set_global_threads(4);
  int calls = 0;
  par::parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  par::parallel_for(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
  par::set_global_threads(1);
}

// --- Determinism contract of the DSE engine --------------------------------

void expect_bitwise_equal(const core::DseResult& a, const core::DseResult& b,
                          std::size_t index) {
  EXPECT_EQ(a.topology, b.topology) << "point " << index;
  EXPECT_EQ(a.label, b.label) << "point " << index;
  EXPECT_EQ(a.n_distributed, b.n_distributed) << "point " << index;
  EXPECT_EQ(a.feasible, b.feasible) << "point " << index;
  EXPECT_EQ(bits(a.efficiency), bits(b.efficiency)) << "point " << index;
  EXPECT_EQ(bits(a.ripple_pp_v), bits(b.ripple_pp_v)) << "point " << index;
  EXPECT_EQ(bits(a.f_sw_hz), bits(b.f_sw_hz)) << "point " << index;
  EXPECT_EQ(bits(a.area_m2), bits(b.area_m2)) << "point " << index;
  EXPECT_EQ(a.n_interleave, b.n_interleave) << "point " << index;
  // The concrete winning designs, field by field.
  EXPECT_EQ(a.sc.n, b.sc.n) << "point " << index;
  EXPECT_EQ(a.sc.m, b.sc.m) << "point " << index;
  EXPECT_EQ(a.sc.family, b.sc.family) << "point " << index;
  EXPECT_EQ(bits(a.sc.c_fly_f), bits(b.sc.c_fly_f)) << "point " << index;
  EXPECT_EQ(bits(a.sc.c_out_f), bits(b.sc.c_out_f)) << "point " << index;
  EXPECT_EQ(bits(a.sc.g_tot_s), bits(b.sc.g_tot_s)) << "point " << index;
  EXPECT_EQ(bits(a.sc.f_sw_hz), bits(b.sc.f_sw_hz)) << "point " << index;
  EXPECT_EQ(a.sc.n_interleave, b.sc.n_interleave) << "point " << index;
  EXPECT_EQ(bits(a.buck.l_per_phase_h), bits(b.buck.l_per_phase_h)) << "point " << index;
  EXPECT_EQ(bits(a.buck.f_sw_hz), bits(b.buck.f_sw_hz)) << "point " << index;
  EXPECT_EQ(a.buck.n_phases, b.buck.n_phases) << "point " << index;
  EXPECT_EQ(bits(a.buck.w_high_m), bits(b.buck.w_high_m)) << "point " << index;
  EXPECT_EQ(bits(a.buck.w_low_m), bits(b.buck.w_low_m)) << "point " << index;
  EXPECT_EQ(bits(a.buck.c_out_f), bits(b.buck.c_out_f)) << "point " << index;
  EXPECT_EQ(bits(a.ldo.w_pass_m), bits(b.ldo.w_pass_m)) << "point " << index;
  EXPECT_EQ(bits(a.ldo.f_clk_hz), bits(b.ldo.f_clk_hz)) << "point " << index;
  EXPECT_EQ(bits(a.ldo.c_out_f), bits(b.ldo.c_out_f)) << "point " << index;
}

TEST(Determinism, ExploreIsByteIdenticalAcrossThreadCounts) {
  // The GPU case study (paper Table 1 defaults): the full sweep with one
  // thread and with eight must produce identical ordered result vectors —
  // same winners, same bit patterns, same order.
  const core::SystemParams sys;
  par::set_global_threads(1);
  const std::vector<core::DseResult> serial = core::explore(sys);
  par::set_global_threads(8);
  const std::vector<core::DseResult> parallel = core::explore(sys);
  par::set_global_threads(1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_bitwise_equal(serial[i], parallel[i], i);
}

TEST(Determinism, TwoStageIsByteIdenticalAcrossThreadCounts) {
  const core::SystemParams sys;
  par::set_global_threads(1);
  const core::TwoStageResult serial = core::optimize_two_stage(sys, 4);
  par::set_global_threads(8);
  const core::TwoStageResult parallel = core::optimize_two_stage(sys, 4);
  par::set_global_threads(1);

  ASSERT_EQ(serial.feasible, parallel.feasible);
  EXPECT_EQ(bits(serial.v_mid_v), bits(parallel.v_mid_v));
  EXPECT_EQ(bits(serial.area_frac_stage1), bits(parallel.area_frac_stage1));
  EXPECT_EQ(bits(serial.efficiency), bits(parallel.efficiency));
  expect_bitwise_equal(serial.stage1, parallel.stage1, 0);
  expect_bitwise_equal(serial.stage2, parallel.stage2, 1);
}

}  // namespace
}  // namespace ivory
