// Multi-fidelity DSE funnel tests: exact Pareto extraction (property-tested
// against a quadratic reference on seeded random sets), thread-count and
// warm-cache byte-identity of the funnel, and incremental re-exploration
// through the content-addressed stage-3 simulation cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/pareto.hpp"
#include "core/report_json.hpp"

namespace ivory {
namespace {

using core::FunnelObjectives;
using core::FunnelSpec;
using core::ParetoFront;
using core::ScreenMetrics;
using core::SystemParams;

class ParetoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    par::set_global_threads(1);
    core::funnel_sim_cache_clear();
  }
};

bool equal_in_enabled(const ScreenMetrics& a, const ScreenMetrics& b,
                      const FunnelObjectives& obj) {
  if (obj.efficiency && a.efficiency != b.efficiency) return false;
  if (obj.area && a.area_m2 != b.area_m2) return false;
  if (obj.ripple && a.ripple_pp_v != b.ripple_pp_v) return false;
  return true;
}

bool weak(const ScreenMetrics& a, const ScreenMetrics& b, const FunnelObjectives& obj) {
  return core::dominates(a, b, obj) || equal_in_enabled(a, b, obj);
}

// Quadratic reference for the extraction contract: position i survives iff
// no earlier point weakly dominates it and no later point strictly
// dominates it (the "duplicates keep the earliest index" rule).
std::vector<std::size_t> reference_front(const std::vector<ScreenMetrics>& pts,
                                         const FunnelObjectives& obj) {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool dead = false;
    for (std::size_t j = 0; j < pts.size() && !dead; ++j) {
      if (j == i) continue;
      dead = j < i ? weak(pts[j], pts[i], obj) : core::dominates(pts[j], pts[i], obj);
    }
    if (!dead) keep.push_back(i);
  }
  return keep;
}

std::vector<ScreenMetrics> random_points(std::mt19937_64& rng, std::size_t n) {
  // A few discrete levels per axis so exact ties (and therefore genuine
  // duplicates and weak-dominance edges) actually occur.
  std::uniform_int_distribution<int> level(0, 7);
  std::vector<ScreenMetrics> pts(n);
  for (ScreenMetrics& p : pts) {
    p.efficiency = 0.5 + 0.05 * level(rng);
    p.area_m2 = 1e-6 * (1 + level(rng));
    p.ripple_pp_v = 1e-3 * (1 + level(rng));
  }
  return pts;
}

// --- Dominance semantics --------------------------------------------------

TEST_F(ParetoTest, DominanceRequiresStrictImprovement) {
  const ScreenMetrics a{0.9, 10e-6, 5e-3};
  const ScreenMetrics equal = a;
  const ScreenMetrics better_eff{0.95, 10e-6, 5e-3};
  const ScreenMetrics mixed{0.95, 20e-6, 5e-3};  // better eff, worse area

  EXPECT_FALSE(core::dominates(a, equal));
  EXPECT_FALSE(core::dominates(equal, a));
  EXPECT_TRUE(core::dominates(better_eff, a));
  EXPECT_FALSE(core::dominates(a, better_eff));
  EXPECT_FALSE(core::dominates(mixed, a));
  EXPECT_FALSE(core::dominates(a, mixed));

  // Disabling the area objective collapses the trade-off: now `mixed` wins.
  FunnelObjectives no_area;
  no_area.area = false;
  EXPECT_TRUE(core::dominates(mixed, a, no_area));
}

TEST_F(ParetoTest, DuplicatesKeepTheEarliestIndex) {
  const ScreenMetrics p{0.9, 10e-6, 5e-3};
  const std::vector<ScreenMetrics> pts{p, p, p};
  EXPECT_EQ(core::pareto_filter(pts), (std::vector<std::size_t>{0}));
}

// --- Extraction property test ---------------------------------------------

TEST_F(ParetoTest, FilterMatchesQuadraticReferenceOnSeededRandomSets) {
  const FunnelObjectives kObjSets[] = {
      {},                       // all three
      {true, true, false},      // efficiency + area
      {true, false, false},     // efficiency only
      {false, true, true},      // area + ripple
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const std::vector<ScreenMetrics> pts = random_points(rng, 250);
    for (const FunnelObjectives& obj : kObjSets) {
      const std::vector<std::size_t> front = core::pareto_filter(pts, obj);
      EXPECT_EQ(front, reference_front(pts, obj)) << "seed " << seed;

      // No member dominates (or duplicates) another member.
      for (const std::size_t i : front)
        for (const std::size_t j : front)
          if (i != j) {
            EXPECT_FALSE(weak(pts[i], pts[j], obj))
                << "seed " << seed << ": member " << i << " weakly dominates member " << j;
          }

      // Every non-member is strictly dominated by some member, or is a
      // duplicate of an earlier member.
      std::set<std::size_t> members(front.begin(), front.end());
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (members.count(i)) continue;
        bool covered = false;
        for (const std::size_t m : front)
          if (core::dominates(pts[m], pts[i], obj) ||
              (m < i && equal_in_enabled(pts[m], pts[i], obj))) {
            covered = true;
            break;
          }
        EXPECT_TRUE(covered) << "seed " << seed << ": non-member " << i << " is uncovered";
      }
    }
  }
}

TEST_F(ParetoTest, FrontSetIsInvariantToInputOrdering) {
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<ScreenMetrics> pts = random_points(rng, 200);

    const auto metric_set = [](const std::vector<ScreenMetrics>& all,
                               const std::vector<std::size_t>& front) {
      std::vector<std::array<double, 3>> s;
      for (const std::size_t i : front)
        s.push_back({all[i].efficiency, all[i].area_m2, all[i].ripple_pp_v});
      std::sort(s.begin(), s.end());
      return s;
    };
    const auto base = metric_set(pts, core::pareto_filter(pts));
    std::shuffle(pts.begin(), pts.end(), rng);
    EXPECT_EQ(metric_set(pts, core::pareto_filter(pts)), base) << "seed " << seed;
  }
}

// --- Funnel determinism ---------------------------------------------------

// Small-density spec shared by the determinism/cache tests. front_cap large
// enough that the true (untruncated) front survives, which keeps a mix of
// all four topologies on the frontier.
FunnelSpec small_spec() {
  FunnelSpec spec = FunnelSpec{}.scaled(0.15);
  spec.front_cap = 512;
  return spec;
}

TEST_F(ParetoTest, FrontIsByteIdenticalAtAnyThreadCount) {
  const SystemParams sys;
  const FunnelSpec spec = small_spec();

  par::set_global_threads(1);
  core::funnel_sim_cache_clear();
  const std::string ref = core::to_json(core::funnel_explore(sys, spec)).write_canonical();
  ASSERT_FALSE(ref.empty());

  for (const unsigned n : {2u, 4u}) {
    par::set_global_threads(n);
    core::funnel_sim_cache_clear();
    EXPECT_EQ(core::to_json(core::funnel_explore(sys, spec)).write_canonical(), ref)
        << "thread count " << n;
  }
}

TEST_F(ParetoTest, WarmCacheRerunIsByteIdenticalAndAllHits) {
  const SystemParams sys;
  const FunnelSpec spec = small_spec();

  core::funnel_sim_cache_clear();
  const ParetoFront cold = core::funnel_explore(sys, spec);
  EXPECT_GT(cold.stats.sim_cache_misses, 0u);
  EXPECT_EQ(cold.stats.sim_cache_hits, 0u);

  const ParetoFront warm = core::funnel_explore(sys, spec);
  EXPECT_EQ(warm.stats.sim_cache_misses, 0u);
  EXPECT_EQ(warm.stats.sim_cache_hits, cold.stats.sim_cache_misses);
  for (const core::ParetoPoint& p : warm.points)
    if (p.simulated) {
      EXPECT_TRUE(p.sim_cached);
    }

  // The serialized front excludes cache provenance, so warm == cold bytes.
  EXPECT_EQ(core::to_json(warm).write_canonical(), core::to_json(cold).write_canonical());
}

TEST_F(ParetoTest, SweepReportDoesNotDependOnTheSimulationMemo) {
  // A memo hit counts as a simulated survivor just like a fresh simulation,
  // so a pareto reply's report bytes are the same cold or warm.
  SystemParams sys;
  sys.p_load_w = 20.0;
  sys.area_max_m2 = 20e-6;
  const FunnelSpec spec = FunnelSpec{}.scaled(0.3);

  core::funnel_sim_cache_clear();
  SweepReport cold;
  const ParetoFront cold_front = core::funnel_explore(sys, spec, &cold);
  ASSERT_GT(cold_front.stats.sim_cache_misses, 0u);
  SweepReport warm;
  const ParetoFront warm_front = core::funnel_explore(sys, spec, &warm);
  ASSERT_EQ(warm_front.stats.sim_cache_misses, 0u);
  EXPECT_EQ(warm.n_evaluated, cold.n_evaluated);
  EXPECT_EQ(to_json(warm).write(), to_json(cold).write());
}

TEST_F(ParetoTest, ExploreOverloadSortsTheFrontierLikeExplore) {
  const SystemParams sys;
  FunnelSpec spec = small_spec();
  spec.simulate = false;
  const std::vector<core::DseResult> designs =
      core::explore(sys, spec, core::OptTarget::Efficiency);
  ASSERT_FALSE(designs.empty());
  for (std::size_t i = 1; i < designs.size(); ++i) {
    if (designs[i - 1].feasible == designs[i].feasible)
      EXPECT_GE(designs[i - 1].efficiency, designs[i].efficiency) << "position " << i;
    else
      EXPECT_TRUE(designs[i - 1].feasible) << "infeasible sorted above feasible at " << i;
  }
}

// --- Incremental re-exploration -------------------------------------------

// Changing the inductor technology only changes buck candidate designs (the
// inductor kind is part of the buck design's canonical JSON, and no other
// topology references it), so a re-exploration must re-simulate exactly the
// frontier points whose simulation inputs changed — the rest hit the cache.
TEST_F(ParetoTest, IncrementalReexplorationResimulatesOnlyChangedCandidates) {
  SystemParams a;
  a.inductor = tech::InductorKind::MagneticFilm;
  SystemParams b = a;
  b.inductor = tech::InductorKind::IntegratedInterposer;
  const FunnelSpec spec = small_spec();

  core::funnel_sim_cache_clear();
  const ParetoFront front_a = core::funnel_explore(a, spec);
  const std::uint64_t sims_a = front_a.stats.sim_cache_misses;
  ASSERT_GT(sims_a, 0u);

  // Expected hits for run B: points whose (design, IVR load share) pair
  // already appeared on A's frontier — the exact inputs the sim key hashes
  // (vin/vout/load are identical between A and B).
  const auto key_of = [](const core::ParetoPoint& p) {
    return std::make_pair(core::to_json(p.design).write_canonical(), p.ivr_load_frac);
  };
  std::set<std::pair<std::string, double>> seen;
  for (const core::ParetoPoint& p : front_a.points)
    if (p.simulated) seen.insert(key_of(p));

  const ParetoFront front_b = core::funnel_explore(b, spec);
  std::uint64_t expect_hits = 0, expect_misses = 0, n_buck = 0;
  for (const core::ParetoPoint& p : front_b.points) {
    if (!p.simulated) continue;
    if (seen.count(key_of(p))) ++expect_hits;
    else ++expect_misses;
    if (p.design.topology == core::IvrTopology::Buck) ++n_buck;
  }
  ASSERT_GT(n_buck, 0u) << "frontier lost its buck points; the test needs a topology mix";
  EXPECT_EQ(front_b.stats.sim_cache_hits, expect_hits);
  EXPECT_EQ(front_b.stats.sim_cache_misses, expect_misses);
  EXPECT_GT(expect_hits, 0u) << "unaffected candidates should have hit the cache";
  EXPECT_LE(expect_misses, front_b.points.size() - expect_hits);
  // Every buck design embeds the new inductor kind, so none can hit A's
  // cache entries.
  EXPECT_GE(expect_misses, n_buck);

  // The warm (incremental) result is byte-identical to a cold run of B.
  const std::string warm_json = core::to_json(front_b).write_canonical();
  core::funnel_sim_cache_clear();
  const ParetoFront cold_b = core::funnel_explore(b, spec);
  EXPECT_EQ(cold_b.stats.sim_cache_hits, 0u);
  EXPECT_EQ(core::to_json(cold_b).write_canonical(), warm_json);
}

// --- Spec validation ------------------------------------------------------

TEST_F(ParetoTest, ScaledClampsEveryAxis) {
  const FunnelSpec tiny = FunnelSpec{}.scaled(1e-6);
  EXPECT_GE(tiny.sc_split_steps, 2);
  EXPECT_GE(tiny.buck_fsw_steps, 2);
  EXPECT_GE(tiny.dldo_decap_steps, 2);
  EXPECT_GE(tiny.hybrid_steps, 1);
  EXPECT_THROW(FunnelSpec{}.scaled(0.0), InvalidParameter);
  EXPECT_THROW(FunnelSpec{}.scaled(-1.0), InvalidParameter);
}

TEST_F(ParetoTest, InvalidSystemOrSpecThrows) {
  SystemParams bad;
  bad.p_load_w = -1.0;
  EXPECT_THROW(core::funnel_explore(bad), InvalidParameter);

  FunnelSpec spec;
  spec.front_cap = 0;
  EXPECT_THROW(core::funnel_explore(SystemParams{}, spec), InvalidParameter);
}

}  // namespace
}  // namespace ivory
