// Multi-fidelity DSE funnel tests: exact Pareto extraction (property-tested
// against a quadratic reference on seeded random sets, and against the
// single full sort on large ones), thread-count and warm-cache byte-identity
// of the funnel, and incremental re-exploration through the bounded,
// content-addressed stage-3 simulation cache.
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
#include "pdn/pdn.hpp"

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

// The single-sort extraction the bucketed sweep replaced, kept as the
// O(n log n) reference: every enabled objective oriented to "minimize", one
// lexicographic sort with the position as the final key, and a forward sweep
// over a (k2, k3) staircase that keeps k3 strictly decreasing in k2.
std::vector<std::size_t> full_sort_front(const std::vector<ScreenMetrics>& pts,
                                         const FunnelObjectives& obj) {
  struct Key {
    double k1, k2, k3;
    std::size_t pos;
  };
  std::vector<Key> keys;
  keys.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    keys.push_back({obj.efficiency ? -pts[i].efficiency : 0.0, obj.area ? pts[i].area_m2 : 0.0,
                    obj.ripple ? pts[i].ripple_pp_v : 0.0, i});
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.k1 != b.k1) return a.k1 < b.k1;
    if (a.k2 != b.k2) return a.k2 < b.k2;
    if (a.k3 != b.k3) return a.k3 < b.k3;
    return a.pos < b.pos;
  });
  std::vector<std::pair<double, double>> stair;
  std::vector<std::size_t> keep;
  for (const Key& k : keys) {
    const auto it = std::upper_bound(
        stair.begin(), stair.end(), k.k2,
        [](double v, const std::pair<double, double>& s) { return v < s.first; });
    if (it != stair.begin() && std::prev(it)->second <= k.k3) continue;
    const auto lo = std::lower_bound(
        stair.begin(), stair.end(), k.k2,
        [](const std::pair<double, double>& s, double v) { return s.first < v; });
    auto hi = lo;
    while (hi != stair.end() && hi->second >= k.k3) ++hi;
    if (lo == hi) {
      stair.insert(lo, {k.k2, k.k3});
    } else {
      *lo = {k.k2, k.k3};
      stair.erase(lo + 1, hi);
    }
    keep.push_back(k.pos);
  }
  std::sort(keep.begin(), keep.end());
  return keep;
}

// The bucketed sweep against the full sort on sets far past the quadratic
// reference's reach: continuous draws (independent, and anti-correlated so
// the front is large), the few-levels draws (exact ties and duplicates), and
// a constant leading key (the single-bucket case), under every objective
// subset.
TEST_F(ParetoTest, BucketedExtractionMatchesFullSort) {
  const FunnelObjectives kObjSets[] = {
      {},                   // all three
      {true, true, false},  // efficiency + area
      {true, false, false}, // efficiency only
      {false, true, true},  // area + ripple
  };
  const char* const kShapes[] = {"independent", "anti-correlated", "few-levels",
                                 "constant-efficiency"};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const std::size_t n = 20000 + 6000 * static_cast<std::size_t>(seed - 1);
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<ScreenMetrics> pts;
      if (shape == 2) {
        pts = random_points(rng, n);
      } else {
        pts.resize(n);
        for (ScreenMetrics& p : pts) {
          const double u = unit(rng);
          p.efficiency = shape == 3 ? 0.8 : 0.3 + 0.65 * u;
          p.area_m2 = shape == 1 ? 1e-6 * (1.0 + 20.0 * u + 0.5 * unit(rng))
                                 : 1e-6 * (1.0 + 20.0 * unit(rng));
          p.ripple_pp_v = 1e-3 * (1.0 + 9.0 * unit(rng));
        }
      }
      for (const FunnelObjectives& obj : kObjSets) {
        const std::string where =
            "seed " + std::to_string(seed) + ", " + kShapes[shape] + ", n " +
            std::to_string(n) + ", objectives {" + (obj.efficiency ? "eff " : "") +
            (obj.area ? "area " : "") + (obj.ripple ? "ripple" : "") + "}";
        const std::vector<std::size_t> got = core::pareto_filter(pts, obj);
        const std::vector<std::size_t> want = full_sort_front(pts, obj);
        ASSERT_EQ(got.size(), want.size()) << where;
        const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
        EXPECT_TRUE(diff.first == got.end())
            << where << ": member " << (diff.first - got.begin()) << " is position "
            << *diff.first << ", the full sort keeps " << *diff.second;
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

// Thread count and block size are both free. The screen walks each block
// row by row (an SC row holds 7 candidates, a buck row one per f_sw value),
// and blocks of 256 and 1000 cut rows apart where the default block, which
// holds this whole sweep, does not. The front, its stats apart from the
// block count, and the report are the same bytes every time.
TEST_F(ParetoTest, FrontIsByteIdenticalAtAnyThreadCount) {
  const SystemParams sys;
  std::string ref;
  for (const std::size_t block : {FunnelSpec{}.block, std::size_t{256}, std::size_t{1000}}) {
    FunnelSpec spec = small_spec();
    spec.block = block;
    for (const unsigned n : {1u, 2u, 4u}) {
      par::set_global_threads(n);
      core::funnel_sim_cache_clear();
      SweepReport report;
      ParetoFront front = core::funnel_explore(sys, spec, &report);
      EXPECT_EQ(front.stats.n_blocks, (front.stats.n_screened + block - 1) / block);
      front.stats.n_blocks = 0;
      const std::string got = core::to_json(front).write_canonical() + "\n" +
                              to_json(report).write_canonical();
      if (ref.empty()) {
        ref = got;
        ASSERT_GT(front.stats.n_screened, 2 * 1000u) << "too few candidates to split blocks";
      } else {
        EXPECT_EQ(got, ref) << "block " << block << ", thread count " << n;
      }
    }
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

// --- Screen fidelity ------------------------------------------------------

// A frontier point's system metrics recomputed from its design record by
// the public analyzer, with the funnel's per-IVR load and hybrid VRM share.
ScreenMetrics analyzer_metrics(const SystemParams& sys, const core::ParetoPoint& pt) {
  const core::DseResult& d = pt.design;
  const double h = pt.ivr_load_frac;
  const double i_ivr = h * sys.p_load_w / sys.vout_v / d.n_distributed;
  double p_in = 0.0, ripple = 0.0, area = 0.0;
  switch (d.topology) {
    case core::IvrTopology::SwitchedCapacitor: {
      const core::ScRegulated reg =
          core::analyze_sc_regulated(d.sc, sys.vin_v, sys.vout_v, i_ivr);
      EXPECT_TRUE(reg.feasible) << d.label;
      EXPECT_EQ(reg.f_sw_used_hz, d.f_sw_hz) << d.label;
      p_in = reg.analysis.p_in_w;
      ripple = reg.analysis.ripple_pp_v;
      area = reg.analysis.area_m2;
      break;
    }
    case core::IvrTopology::Buck: {
      const core::BuckAnalysis a = core::analyze_buck(d.buck, sys.vin_v, sys.vout_v, i_ivr);
      p_in = a.p_in_w;
      ripple = a.ripple_pp_v;
      area = a.area_m2;
      break;
    }
    case core::IvrTopology::LinearRegulator: {
      const core::LdoAnalysis a = core::analyze_ldo(d.ldo, sys.vin_v, sys.vout_v, i_ivr);
      p_in = a.p_in_w;
      ripple = a.ripple_pp_v;
      area = a.area_m2;
      break;
    }
    case core::IvrTopology::DigitalLdo: {
      const core::DldoAnalysis a = core::analyze_dldo(d.dldo, sys.vin_v, sys.vout_v, i_ivr);
      p_in = a.p_in_w;
      ripple = a.ripple_pp_v;
      area = a.area_m2;
      break;
    }
  }
  double p_vrm_in = 0.0;
  if (h < 1.0) {
    const double p_vrm_out = (1.0 - h) * sys.p_load_w;
    p_vrm_in = pdn::VrmModel::board_vrm(sys.vout_v,
                                        pdn::kVrmRatingFactor * p_vrm_out / sys.vout_v)
                   .input_power(p_vrm_out);
  }
  ScreenMetrics m;
  m.efficiency = sys.p_load_w / (static_cast<double>(d.n_distributed) * p_in + p_vrm_in);
  m.ripple_pp_v = ripple;
  m.area_m2 = area * static_cast<double>(d.n_distributed);
  return m;
}

// The screen is the analyzers' own evaluation, not an approximation of it:
// every returned frontier point's screen metrics equal its design record's
// and the public analyzer's answer for that design, bit for bit. Systems:
// the default plus seeded draws over the benchmark's request ranges.
TEST_F(ParetoTest, ScreenIsTheAnalyzer) {
  std::vector<SystemParams> systems{SystemParams{}};
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto draw = [&](double lo, double hi) { return lo + (hi - lo) * unit(rng); };
  const tech::Node nodes[] = {tech::Node::n45, tech::Node::n32, tech::Node::n22};
  const tech::InductorKind inductors[] = {tech::InductorKind::SurfaceMount,
                                          tech::InductorKind::IntegratedInterposer,
                                          tech::InductorKind::MagneticFilm};
  for (int i = 0; i < 12; ++i) {
    SystemParams s;
    s.vin_v = draw(2.5, 3.6);
    s.vout_v = draw(0.8, 1.2);
    s.p_load_w = draw(10.0, 40.0);
    s.area_max_m2 = draw(10.0, 40.0) * 1e-6;
    s.node = nodes[rng() % 3];
    s.inductor = inductors[rng() % 3];
    systems.push_back(s);
  }
  FunnelObjectives area_ripple;
  area_ripple.efficiency = false;
  FunnelSpec spec = FunnelSpec{}.scaled(0.15);
  spec.front_cap = 4096;
  spec.simulate = false;

  std::set<core::IvrTopology> topologies;
  for (std::size_t si = 0; si < systems.size(); ++si) {
    const SystemParams& sys = systems[si];
    for (const FunnelObjectives& obj : {FunnelObjectives{}, area_ripple}) {
      spec.objectives = obj;
      const ParetoFront front = core::funnel_explore(sys, spec);
      ASSERT_FALSE(front.points.empty()) << "system " << si;
      for (const core::ParetoPoint& pt : front.points) {
        const std::string where = "system " + std::to_string(si) +
                                  (obj.efficiency ? " {all}" : " {area, ripple}") + " #" +
                                  std::to_string(pt.index) + " " + pt.design.label;
        EXPECT_EQ(pt.screen.efficiency, pt.design.efficiency) << where;
        EXPECT_EQ(pt.screen.area_m2, pt.design.area_m2) << where;
        EXPECT_EQ(pt.screen.ripple_pp_v, pt.design.ripple_pp_v) << where;
        const ScreenMetrics exact = analyzer_metrics(sys, pt);
        EXPECT_EQ(pt.screen.efficiency, exact.efficiency) << where;
        EXPECT_EQ(pt.screen.area_m2, exact.area_m2) << where;
        EXPECT_EQ(pt.screen.ripple_pp_v, exact.ripple_pp_v) << where;
        topologies.insert(pt.design.topology);
      }
    }
  }
  EXPECT_EQ(topologies.size(), 4u) << "the systems no longer put every topology on a front";
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

// The stage-3 memo is bounded: more distinct frontier simulations than its
// capacity leave at most kFunnelSimCacheCapacity entries, and the least
// recently used go first, so rerunning the latest system still hits every
// point.
TEST_F(ParetoTest, SimulationMemoIsBoundedAndKeepsTheLatestSystem) {
  FunnelSpec spec = FunnelSpec{}.scaled(0.15);
  spec.front_cap = 4096;
  spec.sim_duration_s = 16.0 * spec.sim_dt_s;  // cheap waveforms; distinct keys
  core::funnel_sim_cache_clear();
  SystemParams sys;
  std::uint64_t simulated = 0;
  for (int i = 0; simulated <= core::kFunnelSimCacheCapacity + 64; ++i) {
    ASSERT_LT(i, 200) << "fronts too small to fill the memo";
    sys.p_load_w = 10.0 + 0.25 * i;  // every per-IVR load, so every key, differs
    const ParetoFront front = core::funnel_explore(sys, spec);
    EXPECT_EQ(front.stats.sim_cache_hits, 0u) << "system " << i;
    simulated += front.stats.sim_cache_misses;
    EXPECT_LE(core::funnel_sim_cache_stats().entries, core::kFunnelSimCacheCapacity)
        << "system " << i;
  }
  EXPECT_GE(core::funnel_sim_cache_stats().entries, core::kFunnelSimCacheCapacity / 2)
      << "a full memo should drop only its least recently used entries";

  const ParetoFront warm = core::funnel_explore(sys, spec);
  EXPECT_GT(warm.stats.sim_cache_hits, 0u);
  EXPECT_EQ(warm.stats.sim_cache_misses, 0u);
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
