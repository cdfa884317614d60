#include "core/pareto.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/outcome.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/dynamic.hpp"
#include "core/report_json.hpp"
#include "pdn/pdn.hpp"

namespace ivory::core {

// ---------------------------------------------------------------------------
// Dominance and exact extraction
// ---------------------------------------------------------------------------

namespace {

// No worse in every enabled objective (ties allowed everywhere).
bool weakly_dominates(const ScreenMetrics& a, const ScreenMetrics& b,
                      const FunnelObjectives& obj) {
  if (obj.efficiency && a.efficiency < b.efficiency) return false;
  if (obj.area && a.area_m2 > b.area_m2) return false;
  if (obj.ripple && a.ripple_pp_v > b.ripple_pp_v) return false;
  return true;
}

}  // namespace

bool dominates(const ScreenMetrics& a, const ScreenMetrics& b, const FunnelObjectives& obj) {
  if (!weakly_dominates(a, b, obj)) return false;
  if (obj.efficiency && a.efficiency > b.efficiency) return true;
  if (obj.area && a.area_m2 < b.area_m2) return true;
  if (obj.ripple && a.ripple_pp_v < b.ripple_pp_v) return true;
  return false;
}

namespace {

struct FrontEntry {
  std::uint64_t index = 0;
  ScreenMetrics m;
};

// Exact non-dominated extraction in O(n log n), replacing the quadratic
// pairwise scan (at ~300k feasible candidates per sweep the scan dominated
// the whole funnel). Every enabled objective is oriented to "minimize"
// (efficiency negated; disabled axes become the constant 0, which every
// comparison ties on), the points are sorted lexicographically with the
// candidate index as the final tie-break, and a single sweep maintains a
// 2-D staircase over the trailing two keys:
//
//   - A later point in sort order can never strictly dominate an earlier
//     one (its first differing key is worse), so one forward pass suffices.
//   - A point is weakly dominated by some earlier point iff a *kept*
//     earlier point beats it in keys 2 and 3 (key 1 is <= by the sort, and
//     weak dominance is transitive through dropped points).
//   - The staircase stores kept (k2, k3) pairs with k3 strictly decreasing
//     as k2 increases; the entry with the largest k2 <= p.k2 therefore
//     carries the minimum k3 over all kept points with k2 <= p.k2.
//
// Ties in all enabled objectives are duplicates: the index tie-break sorts
// the earliest first and the staircase drops the rest, exactly the
// "duplicates keep the earliest index" contract. The survivor *set* is a
// property of the points alone, so the result is invariant to input order
// up to that duplicate rule, which funnel_explore's serial block-order
// merge makes deterministic at any thread count.
//
// Only what can survive is sorted. A stable counting sort puts the points
// into ~n/16 buckets by a monotone map of k1 over [min, max], and the
// buckets are walked in k1 order. Every point of an earlier bucket has a
// strictly smaller k1 than every point of a later one, so it precedes them
// in the sort order, and the staircase's dominated region only grows: a
// point the staircase of the earlier buckets already covers is one the full
// sweep drops too, and dropping it never changes the staircase. So each
// bucket first loses those points, and only the rest are sorted and swept
// as above; the kept set is the full sort's exactly. A constant k1
// (efficiency disabled, or a single level) is one bucket: the full sort.
//
// `pts` arrive in ascending candidate-index order (a block's candidates;
// block fronts in block order), so the position is the index tie-break and
// the front comes back in that order.
struct FrontKey {
  double k1 = 0.0, k2 = 0.0, k3 = 0.0;
  std::uint32_t pos = 0;  ///< position in the caller's entry vector
};

constexpr std::size_t kPointsPerBucket = 16;

// Staircase over (k2, k3): kept (k2, k3) pairs, k2 ascending and k3 strictly
// descending, so the entry with the largest k2 <= p.k2 carries the minimum
// k3 over all kept points with k2 <= p.k2.
class Staircase {
 public:
  // Weakly dominated in (k2, k3) by a kept point. Branch-free search: the
  // prefilter asks this of every point, and the answer is a coin flip for
  // the branch predictor.
  bool covers(const FrontKey& k) const {
    if (steps_.empty()) return false;
    const Step* base = steps_.data();
    for (std::size_t n = steps_.size(); n > 1;) {
      const std::size_t half = n / 2;
      base = base[half].k2 <= k.k2 ? base + half : base;
      n -= half;
    }
    return base->k2 <= k.k2 && base->k3 <= k.k3;
  }
  void insert(const FrontKey& k) {
    const auto lo = std::lower_bound(steps_.begin(), steps_.end(), k.k2,
                                     [](const Step& s, double v) { return s.k2 < v; });
    auto hi = lo;
    while (hi != steps_.end() && hi->k3 >= k.k3) ++hi;
    if (lo == hi) {
      steps_.insert(lo, {k.k2, k.k3});
    } else {
      *lo = {k.k2, k.k3};
      steps_.erase(lo + 1, hi);
    }
  }

 private:
  struct Step {
    double k2, k3;
  };
  std::vector<Step> steps_;
};

std::vector<FrontEntry> extract_front(const std::vector<FrontEntry>& pts,
                                      const FunnelObjectives& obj) {
  const std::size_t n = pts.size();
  const auto key_of = [&](std::uint32_t pos) {
    const ScreenMetrics& m = pts[pos].m;
    FrontKey k;
    if (obj.efficiency) k.k1 = -m.efficiency;
    if (obj.area) k.k2 = m.area_m2;
    if (obj.ripple) k.k3 = m.ripple_pp_v;
    k.pos = pos;
    return k;
  };

  // Stable counting sort of the positions into the k1 buckets. The map is
  // monotone in k1 (a subtraction, a positive scale and a truncation each
  // keep order) and clamps the largest k1 into the last bucket.
  double k1_lo = 0.0, k1_hi = 0.0;
  if (obj.efficiency && n > 0) {
    k1_lo = k1_hi = -pts[0].m.efficiency;
    for (const FrontEntry& p : pts) {
      k1_lo = std::min(k1_lo, -p.m.efficiency);
      k1_hi = std::max(k1_hi, -p.m.efficiency);
    }
  }
  const double span = k1_hi - k1_lo;
  const std::size_t n_buckets =
      span > 0.0 && std::isfinite(span) ? std::max<std::size_t>(1, n / kPointsPerBucket) : 1;
  const double scale = n_buckets > 1 ? static_cast<double>(n_buckets) / span : 0.0;
  std::vector<std::uint32_t> bucket(n, 0);
  std::vector<std::uint32_t> start(n_buckets + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (n_buckets > 1) {
      const double t = (-pts[i].m.efficiency - k1_lo) * scale;
      bucket[i] = static_cast<std::uint32_t>(
          t < static_cast<double>(n_buckets) ? static_cast<std::size_t>(t) : n_buckets - 1);
    }
    ++start[bucket[i] + 1];
  }
  for (std::size_t b = 0; b < n_buckets; ++b) start[b + 1] += start[b];
  std::vector<std::uint32_t> order(n);
  {
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) order[next[bucket[i]]++] = static_cast<std::uint32_t>(i);
  }

  const auto key_less = [](const FrontKey& a, const FrontKey& b) {
    if (a.k1 != b.k1) return a.k1 < b.k1;
    if (a.k2 != b.k2) return a.k2 < b.k2;
    if (a.k3 != b.k3) return a.k3 < b.k3;
    return a.pos < b.pos;
  };
  Staircase stair;
  std::vector<char> kept(n, 0);
  std::vector<FrontKey> live;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    live.clear();
    for (std::uint32_t j = start[b]; j < start[b + 1]; ++j) {
      const FrontKey k = key_of(order[j]);
      if (!stair.covers(k)) live.push_back(k);
    }
    std::sort(live.begin(), live.end(), key_less);
    for (const FrontKey& k : live) {
      if (stair.covers(k)) continue;
      stair.insert(k);
      kept[k.pos] = 1;
    }
  }
  std::vector<FrontEntry> front;
  for (std::size_t i = 0; i < n; ++i)
    if (kept[i]) front.push_back(pts[i]);
  return front;
}

}  // namespace

std::vector<std::size_t> pareto_filter(const std::vector<ScreenMetrics>& pts,
                                       const FunnelObjectives& obj) {
  std::vector<FrontEntry> entries;
  entries.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    entries.push_back(FrontEntry{static_cast<std::uint64_t>(i), pts[i]});
  const std::vector<FrontEntry> front = extract_front(entries, obj);
  std::vector<std::size_t> keep;
  keep.reserve(front.size());
  for (const FrontEntry& f : front) keep.push_back(static_cast<std::size_t>(f.index));
  return keep;
}

// ---------------------------------------------------------------------------
// FunnelSpec
// ---------------------------------------------------------------------------

FunnelSpec FunnelSpec::scaled(double density) const {
  require(density > 0.0 && std::isfinite(density), "FunnelSpec::scaled: density must be > 0");
  FunnelSpec s = *this;
  const auto ax = [&](int steps) {
    return std::max(2, static_cast<int>(std::lround(steps * density)));
  };
  s.sc_split_steps = ax(sc_split_steps);
  s.sc_out_frac_steps = ax(sc_out_frac_steps);
  s.buck_l_frac_steps = ax(buck_l_frac_steps);
  s.buck_util_steps = ax(buck_util_steps);
  s.buck_fsw_steps = ax(buck_fsw_steps);
  s.ldo_decap_steps = ax(ldo_decap_steps);
  s.ldo_drop_steps = ax(ldo_drop_steps);
  s.dldo_clock_steps = ax(dldo_clock_steps);
  s.dldo_decap_steps = ax(dldo_decap_steps);
  s.hybrid_steps = std::max(1, static_cast<int>(std::lround(hybrid_steps * density)));
  return s;
}

// ---------------------------------------------------------------------------
// Candidate-space construction
// ---------------------------------------------------------------------------

namespace {

constexpr int kIlSteps = 7;  // SC interleave axis: 1, 2, ..., 64.

enum class PlanKind { Sc, Buck, Ldo, Dldo };

// One SC (ratio, family) variant: its unsized design and prepared model part.
struct ScVariant {
  ScDesign design;
  ScPrepared k;
};

struct Plan {
  PlanKind kind = PlanKind::Sc;
  int variant = 0;   // index into sc_variants / buck_phases / dldo_variants
  int n_dist = 1;
  double h = 1.0;    // IVR share of the load
  std::uint64_t base = 0;
  std::uint64_t count = 0;
  // Derived per (n_dist, h):
  double i_ivr = 0.0;       // per-IVR average load current
  double area_ivr = 0.0;    // per-IVR area budget
  double usable = 0.0;      // area_ivr / kWiringOverhead
  double p_vrm_in_w = 0.0;  // board-VRM input power for the (1-h) share
};

struct FunnelCtx {
  SystemParams sys;
  FunnelSpec spec;
  const tech::CapacitorTech* cap = nullptr;
  const tech::InductorTech* ind = nullptr;
  const tech::SwitchTech* pass_dev = nullptr;  // IO class when vin > core vmax
  BuckPrepared buck;
  double buck_sd = 0.0, buck_si = 0.0;  // sqrt(duty0), sqrt(1 - duty0)

  std::vector<double> sc_split, sc_out_frac;
  std::vector<double> buck_l_frac, buck_util, buck_fsw, buck_lmult;
  std::vector<double> ldo_decap, ldo_drop;
  std::vector<double> dldo_margin, dldo_decap;
  std::vector<double> hybrid;
  std::vector<int> dists;
  std::vector<ScVariant> sc_variants;
  std::vector<int> buck_phases{2, 4, 8, 16};
  std::vector<std::pair<int, int>> dldo_variants;  // (bits, n_comparators)

  std::vector<Plan> plans;
  std::uint64_t total = 0;
};

std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> v;
  if (n <= 1) {
    v.push_back(0.5 * (lo + hi));
    return v;
  }
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    v.push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1));
  return v;
}

std::vector<double> logspace(double lo, double hi, int n) {
  std::vector<double> v;
  if (n <= 1) {
    v.push_back(std::sqrt(lo * hi));
    return v;
  }
  v.reserve(static_cast<std::size_t>(n));
  const double llo = std::log(lo), lhi = std::log(hi);
  for (int i = 0; i < n; ++i)
    v.push_back(std::exp(llo + (lhi - llo) * static_cast<double>(i) / static_cast<double>(n - 1)));
  return v;
}

void check_spec(const FunnelSpec& spec) {
  require(spec.sc_split_steps >= 1 && spec.sc_out_frac_steps >= 1 &&
              spec.buck_l_frac_steps >= 1 && spec.buck_util_steps >= 1 &&
              spec.buck_fsw_steps >= 1 && spec.ldo_decap_steps >= 1 &&
              spec.ldo_drop_steps >= 1 && spec.dldo_clock_steps >= 1 &&
              spec.dldo_decap_steps >= 1 && spec.hybrid_steps >= 1,
          "FunnelSpec: every grid axis needs at least one step");
  require(spec.block >= 256, "FunnelSpec: block size must be >= 256");
  require(spec.front_cap >= 1, "FunnelSpec: front_cap must be >= 1");
  require(spec.sim_dt_s > 0.0 && spec.sim_duration_s >= 16.0 * spec.sim_dt_s,
          "FunnelSpec: need sim_duration >= 16 * sim_dt > 0");
}

FunnelCtx build_ctx(const SystemParams& sys, const FunnelSpec& spec) {
  FunnelCtx c;
  c.sys = sys;
  c.spec = spec;
  c.cap = &tech::capacitor_tech(sys.node, sys.cap_kind);
  c.ind = &tech::inductor_tech(sys.inductor);
  const tech::SwitchTech& core_dev = tech::switch_tech(sys.node, tech::DeviceClass::Core);
  c.pass_dev = sys.vin_v > core_dev.vmax_v
                   ? &tech::switch_tech(sys.node, tech::DeviceClass::Io)
                   : &core_dev;
  BuckDesign buck;
  buck.node = sys.node;
  buck.inductor = sys.inductor;
  buck.cap_kind = sys.cap_kind;
  c.buck = prepare_buck(buck, sys.vin_v);
  const double duty0 = sys.vout_v / sys.vin_v;
  c.buck_sd = std::sqrt(duty0);
  c.buck_si = std::sqrt(1.0 - duty0);

  c.sc_split = linspace(0.50, 0.98, spec.sc_split_steps);
  c.sc_out_frac = linspace(0.05, 0.60, spec.sc_out_frac_steps);
  c.buck_l_frac = linspace(0.02, 0.70, spec.buck_l_frac_steps);
  c.buck_util = linspace(0.03, 1.00, spec.buck_util_steps);
  c.buck_fsw = logspace(2e6, 1e9, spec.buck_fsw_steps);
  c.buck_lmult.reserve(c.buck_fsw.size());
  // inductance_at scales linearly in L0, so its rolloff multiplier is
  // tabulated once per fsw grid step.
  for (const double f : c.buck_fsw) c.buck_lmult.push_back(c.ind->inductance_at(1.0, f));
  c.ldo_decap = linspace(0.20, 0.80, spec.ldo_decap_steps);
  c.ldo_drop = linspace(0.08, 0.45, spec.ldo_drop_steps);
  c.dldo_margin = linspace(1.0, 3.0, spec.dldo_clock_steps);
  c.dldo_decap = linspace(0.25, 0.75, spec.dldo_decap_steps);

  // Hybrid axis: full-IVR first, then descending IVR share down to 0.55 —
  // the remainder of the load rides the off-chip board VRM.
  c.hybrid.push_back(1.0);
  for (int k = 1; k < spec.hybrid_steps; ++k)
    c.hybrid.push_back(1.0 - 0.45 * static_cast<double>(k) /
                                 static_cast<double>(spec.hybrid_steps - 1));

  for (int n = 1; n <= sys.max_distributed; n *= 2) c.dists.push_back(n);

  // SC ratio x family variants (same enumeration order as optimize_sc).
  for (const auto& ratio : candidate_sc_ratios(sys.vin_v, sys.vout_v)) {
    for (const ScFamily family :
         ratio.second == 1 ? std::vector<ScFamily>{ScFamily::Ladder, ScFamily::SeriesParallel}
                           : std::vector<ScFamily>{ScFamily::Ladder}) {
      ScVariant v;
      v.design.node = sys.node;
      v.design.cap_kind = sys.cap_kind;
      v.design.n = ratio.first;
      v.design.m = ratio.second;
      v.design.family = family;
      v.k = prepare_sc(v.design, sys.vin_v);
      // A variant whose caps exceed the technology rating can never survive
      // analyze_sc's check, so it is excluded from the candidate space
      // instead of producing millions of identical skips.
      if (!v.k.cap_rating_ok) continue;
      c.sc_variants.push_back(v);
    }
  }

  for (int bits : {6, 7, 8, 9})
    for (int n_comp : {1, 2, 4, 8}) c.dldo_variants.emplace_back(bits, n_comp);

  // Plan enumeration: topology-major, then variant, distribution, hybrid —
  // a fixed serial order that defines the global candidate index space.
  const auto add_plans = [&](PlanKind kind, int n_variants, std::uint64_t inner) {
    for (int v = 0; v < n_variants; ++v)
      for (const int dist : c.dists)
        for (const double h : c.hybrid) {
          Plan p;
          p.kind = kind;
          p.variant = v;
          p.n_dist = dist;
          p.h = h;
          p.base = c.total;
          p.count = inner;
          p.i_ivr = h * sys.p_load_w / sys.vout_v / dist;
          p.area_ivr = sys.area_max_m2 / dist;
          p.usable = p.area_ivr / kWiringOverhead;
          if (h < 1.0) {
            const double p_vrm_out = (1.0 - h) * sys.p_load_w;
            const pdn::VrmModel vrm = pdn::VrmModel::board_vrm(
                sys.vout_v, pdn::kVrmRatingFactor * p_vrm_out / sys.vout_v);
            p.p_vrm_in_w = vrm.input_power(p_vrm_out);
          }
          c.total += inner;
          c.plans.push_back(p);
        }
  };
  add_plans(PlanKind::Sc, static_cast<int>(c.sc_variants.size()),
            static_cast<std::uint64_t>(c.sc_split.size()) * c.sc_out_frac.size() * kIlSteps);
  add_plans(PlanKind::Buck, static_cast<int>(c.buck_phases.size()),
            static_cast<std::uint64_t>(c.buck_l_frac.size()) * c.buck_util.size() *
                c.buck_fsw.size());
  add_plans(PlanKind::Ldo, 1,
            static_cast<std::uint64_t>(c.ldo_decap.size()) * c.ldo_drop.size());
  add_plans(PlanKind::Dldo, static_cast<int>(c.dldo_variants.size()),
            static_cast<std::uint64_t>(c.dldo_margin.size()) * c.dldo_decap.size());
  return c;
}

// ---------------------------------------------------------------------------
// Stage 1: closed-form screens
// ---------------------------------------------------------------------------

// Shared tail: system-level metrics from per-IVR input power and IVR-rail
// ripple/area. Hybrid candidates add the plan-constant VRM input power.
void fill_metrics(const FunnelCtx& c, const Plan& p, double p_in_ivr, double ripple,
                  double area_ivr_total, ScreenMetrics& m) {
  m.efficiency = c.sys.p_load_w /
                 (static_cast<double>(p.n_dist) * p_in_ivr + p.p_vrm_in_w);
  m.ripple_pp_v = ripple;
  m.area_m2 = area_ivr_total * static_cast<double>(p.n_dist);
  if (!(std::isfinite(m.efficiency) && std::isfinite(m.area_m2) &&
        std::isfinite(m.ripple_pp_v)))
    throw NonFiniteError("funnel_screen: non-finite screen metric");
}

// The screen walks each plan's candidates row by row: a row is a run of
// consecutive candidates sharing every axis but the innermost one, so its
// sizing and everything else the inner axis does not touch is computed once
// (`*_row`), and each candidate of the row is one `*_point` on it. Both are
// shared by the screen and the frontier's design record: a point fills `m`
// once the candidate is viable and returns whether it meets the ripple and
// area constraints; with `r`, the design is recorded there too.

// SC: capacitor area share x output-decap share x interleave. The design
// frequency holds regulation at the peak load, and analyze_sc_regulated's
// pulse skipping sets the effective rate at the average load (as
// optimize_sc). Neither rate depends on the interleave, so a row (plan,
// split, output-decap share) is sized and solved once for its kIlSteps
// interleave values.
struct ScRow {
  ScSizing s;           ///< the row's sizing; n_interleave is the point's
  double f_used = 0.0;  ///< regulated rate at the average load
  bool viable = false;  ///< false: FSL floor or f_sw range fails for every point
};

ScRow sc_row(const FunnelCtx& c, const Plan& p, std::uint64_t row_index) {
  const ScVariant& v = c.sc_variants[static_cast<std::size_t>(p.variant)];
  const double y = c.sc_out_frac[row_index % c.sc_out_frac.size()];
  const double x = c.sc_split[row_index / c.sc_out_frac.size()];
  ScRow row;
  ScSizing& s = row.s;
  const double c_total = x * p.usable * c.cap->density_f_m2;
  s.c_fly_f = (1.0 - y) * c_total;
  s.c_out_f = y * c_total;
  s.g_tot_s = (1.0 - x) * p.usable * 0.95 / v.k.area_per_s;  // 5% peripheral.

  const double r_needed_peak = (v.k.vout_ideal_v - c.sys.vout_v) / (kPeakLoadFactor * p.i_ivr);
  if (r_needed_peak <= sc_rfsl(v.k, s) * 1.02) return row;  // FSL floor at the peak.
  s.f_sw_hz = sc_frequency_for(v.k, s, r_needed_peak);
  if (s.f_sw_hz < 1e5 || s.f_sw_hz > 5e9) return row;
  // r_needed at the average load is kPeakLoadFactor x r_needed_peak, which
  // always clears the regulator's floor hypot(R_SSL(f_max), R_FSL) =
  // r_needed_peak.
  const double f_used = sc_frequency_for(v.k, s, (v.k.vout_ideal_v - c.sys.vout_v) / p.i_ivr);
  IVORY_CHECK_FINITE(f_used, "funnel_screen");
  row.f_used = f_used;
  row.viable = true;
  return row;
}

// Interleave 2^il of an SC row.
bool sc_point(const FunnelCtx& c, const Plan& p, const ScRow& row, std::uint64_t il,
              ScreenMetrics& m, DseResult* r) {
  const ScVariant& v = c.sc_variants[static_cast<std::size_t>(p.variant)];
  if (r) {
    r->topology = IvrTopology::SwitchedCapacitor;
    r->label = std::to_string(v.design.n) + ":" + std::to_string(v.design.m) + " SC";
  }
  if (!row.viable) return false;
  ScSizing s = row.s;
  s.n_interleave = 1 << static_cast<int>(il);
  ScAnalysis a;
  sc_evaluate(v.k, s, row.f_used, p.i_ivr, a);
  fill_metrics(c, p, a.p_in_w, a.ripple_pp_v, a.area_m2, m);
  if (r) {
    r->sc = v.design;
    r->sc.set_sizing(s);
    r->f_sw_hz = row.f_used;
    r->n_interleave = s.n_interleave;
  }
  return a.ripple_pp_v <= c.sys.ripple_max_v * 1.05 && a.area_m2 <= p.area_ivr * 1.02;
}

// Buck: inductor area share x switch utilization x log-spaced f_sw. A row
// (plan, l_frac, util) is one sizing, so the buck kernel's f_sw-free half
// runs once for its buck_fsw.size() frequencies.
struct BuckScreenRow {
  BuckDesign d;  ///< the row's sizing; f_sw_hz is the point's
  BuckRow k;     ///< the kernel's f_sw-free half; unreachable for a degenerate sizing
};

BuckScreenRow buck_screen_row(const FunnelCtx& c, const Plan& p, std::uint64_t row_index) {
  const int n_phases = c.buck_phases[static_cast<std::size_t>(p.variant)];
  const double nn = static_cast<double>(n_phases);
  const double util = c.buck_util[row_index % c.buck_util.size()];
  const double l_frac = c.buck_l_frac[row_index / c.buck_util.size()];
  BuckScreenRow row;
  BuckDesign& d = row.d;
  d.node = c.sys.node;
  d.inductor = c.sys.inductor;
  d.cap_kind = c.sys.cap_kind;
  d.n_phases = n_phases;
  const double rest_a = (1.0 - l_frac) * p.usable;
  d.l_per_phase_h = l_frac * p.usable * c.ind->density_h_m2 / nn;
  d.c_out_f = 0.55 * rest_a * c.cap->density_f_m2;  // 5% peripheral, as optimize_buck.
  const double w_total = 0.4 * rest_a * util / c.pass_dev->area_per_w_m;
  d.w_high_m = w_total / nn * c.buck_sd / (c.buck_sd + c.buck_si);
  d.w_low_m = w_total / nn * c.buck_si / (c.buck_sd + c.buck_si);
  if (!(d.l_per_phase_h > 0.0 && d.c_out_f > 0.0 && d.w_high_m > 0.0)) return row;
  // analyze_buck's guard: a poisoned load is a fault, not an unreachable duty.
  IVORY_CHECK_FINITE(p.i_ivr, "funnel_screen");
  row.k = buck_row(c.buck, d, c.sys.vout_v, p.i_ivr);
  return row;
}

// Frequency buck_fsw[f_idx] of a buck row.
bool buck_point(const FunnelCtx& c, const Plan& p, const BuckScreenRow& row,
                std::uint64_t f_idx, ScreenMetrics& m, DseResult* r) {
  if (r) {
    r->topology = IvrTopology::Buck;
    r->label = "buck";
  }
  if (!row.k.reachable) return false;
  const double f_sw = c.buck_fsw[f_idx];
  const double l_eff = row.d.l_per_phase_h * c.buck_lmult[f_idx];
  if (buck_ripple_phase(row.k, f_sw, l_eff) > 2.0 * row.k.i_phase_a) return false;  // Require CCM.
  const BuckAnalysis a = buck_at(c.buck, row.k, f_sw, l_eff);
  fill_metrics(c, p, a.p_in_w, a.ripple_pp_v, a.area_m2, m);
  if (r) {
    r->buck = row.d;
    r->buck.f_sw_hz = f_sw;
    r->f_sw_hz = f_sw;
    r->n_interleave = row.d.n_phases;
  }
  return a.ripple_pp_v <= c.sys.ripple_max_v && a.area_die_m2 <= p.area_ivr * 1.02;
}

// LDO/DLDO spaces are small; both call the real analyzers and treat
// InvalidParameter (pass device too narrow, etc.) as a domain rejection —
// exactly the optimizer's convention. Each candidate is its own row.
bool eval_ldo(const FunnelCtx& c, const Plan& p, std::uint64_t local, ScreenMetrics& m,
              DseResult* r) {
  const double drop_frac = c.ldo_drop[local % c.ldo_drop.size()];
  const double decap_frac = c.ldo_decap[local / c.ldo_drop.size()];
  if (r) {
    r->topology = IvrTopology::LinearRegulator;
    r->label = "LDO";
  }
  LdoDesign d;
  d.node = c.sys.node;
  d.cap_kind = c.sys.cap_kind;
  d.n_bits = 8;
  const double r_pass = drop_frac * (c.sys.vin_v - c.sys.vout_v) / p.i_ivr;
  d.w_pass_m = c.pass_dev->ron_w_ohm_m / r_pass;
  d.c_out_f = decap_frac * p.usable * c.cap->density_f_m2;
  const double i_lsb = (c.sys.vin_v - c.sys.vout_v) / r_pass / std::pow(2.0, d.n_bits);
  d.f_clk_hz = std::clamp(i_lsb / (0.8 * c.sys.ripple_max_v * d.c_out_f), 10e6, 3e9);
  d.i_quiescent_a = 0.002 * p.i_ivr;
  try {
    const LdoAnalysis a = analyze_ldo(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
    fill_metrics(c, p, a.p_in_w, a.ripple_pp_v, a.area_m2, m);
    if (r) {
      r->ldo = d;
      r->f_sw_hz = d.f_clk_hz;
    }
    return a.ripple_pp_v <= c.sys.ripple_max_v && a.area_m2 <= p.area_ivr * 1.05;
  } catch (const InvalidParameter&) {
    return false;
  }
}

bool eval_dldo(const FunnelCtx& c, const Plan& p, std::uint64_t local, ScreenMetrics& m,
               DseResult* r) {
  const auto& [bits, n_comp] = c.dldo_variants[static_cast<std::size_t>(p.variant)];
  const double decap_frac = c.dldo_decap[local % c.dldo_decap.size()];
  const double margin = c.dldo_margin[local / c.dldo_decap.size()];
  if (r) {
    r->topology = IvrTopology::DigitalLdo;
    r->label = "DLDO x" + std::to_string(n_comp);
  }
  DldoDesign d;
  d.node = c.sys.node;
  d.cap_kind = c.sys.cap_kind;
  d.n_bits = bits;
  d.n_comparators = n_comp;
  const double r_pass = 0.2 * (c.sys.vin_v - c.sys.vout_v) / p.i_ivr;
  d.w_pass_m = c.pass_dev->ron_w_ohm_m / r_pass;
  d.c_out_f = decap_frac * p.usable * c.cap->density_f_m2;
  const double segments = std::pow(2.0, bits);
  const double i_lsb = (c.sys.vin_v - c.sys.vout_v) / r_pass / segments;
  const double f_ripple =
      i_lsb / (0.8 * c.sys.ripple_max_v * d.c_out_f * static_cast<double>(n_comp));
  const double f_slew = segments / (1e-6 * static_cast<double>(n_comp));
  d.f_clk_hz = std::clamp(margin * std::max(f_ripple, f_slew), 10e6, 3e9);
  d.i_quiescent_a = 0.002 * p.i_ivr;
  try {
    const DldoAnalysis a = analyze_dldo(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
    fill_metrics(c, p, a.p_in_w, a.ripple_pp_v, a.area_m2, m);
    if (r) {
      r->dldo = d;
      r->f_sw_hz = d.f_clk_hz;
      r->n_interleave = n_comp;
    }
    return a.ripple_pp_v <= c.sys.ripple_max_v && a.area_m2 <= p.area_ivr * 1.05;
  } catch (const InvalidParameter&) {
    return false;
  }
}

// Calls `visit(width, make_row, point)` with plan `p`'s row width and its
// topology's row and point functions (point(row, j, m, r) evaluates the
// j-th candidate of the row) and returns what `visit` returns.
template <class Visit>
decltype(auto) visit_rows(const FunnelCtx& c, const Plan& p, Visit&& visit) {
  const auto local_row = [](std::uint64_t local) { return local; };
  switch (p.kind) {
    case PlanKind::Sc:
      return visit(std::uint64_t{kIlSteps},
                   [&](std::uint64_t row) { return sc_row(c, p, row); },
                   [&](const ScRow& row, std::uint64_t j, ScreenMetrics& m, DseResult* r) {
                     return sc_point(c, p, row, j, m, r);
                   });
    case PlanKind::Buck:
      return visit(std::uint64_t{c.buck_fsw.size()},
                   [&](std::uint64_t row) { return buck_screen_row(c, p, row); },
                   [&](const BuckScreenRow& row, std::uint64_t j, ScreenMetrics& m,
                       DseResult* r) { return buck_point(c, p, row, j, m, r); });
    case PlanKind::Ldo:
      return visit(std::uint64_t{1}, local_row,
                   [&](std::uint64_t local, std::uint64_t, ScreenMetrics& m, DseResult* r) {
                     return eval_ldo(c, p, local, m, r);
                   });
    case PlanKind::Dldo: break;
  }
  return visit(std::uint64_t{1}, local_row,
               [&](std::uint64_t local, std::uint64_t, ScreenMetrics& m, DseResult* r) {
                 return eval_dldo(c, p, local, m, r);
               });
}

std::string plan_label(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  char hbuf[32];
  std::snprintf(hbuf, sizeof(hbuf), " h=%.2f", p.h);
  std::string s;
  switch (p.kind) {
    case PlanKind::Sc: {
      const ScDesign& v = c.sc_variants[static_cast<std::size_t>(p.variant)].design;
      s = std::to_string(v.n) + ":" + std::to_string(v.m) +
          (v.family == ScFamily::SeriesParallel ? " series-parallel SC" : " ladder SC");
      break;
    }
    case PlanKind::Buck:
      s = "buck " + std::to_string(c.buck_phases[static_cast<std::size_t>(p.variant)]) +
          "-phase";
      break;
    case PlanKind::Ldo: s = "LDO"; break;
    case PlanKind::Dldo: {
      const auto& [bits, n_comp] = c.dldo_variants[static_cast<std::size_t>(p.variant)];
      s = "DLDO " + std::to_string(bits) + "b x" + std::to_string(n_comp);
      break;
    }
  }
  s += " @ dist " + std::to_string(p.n_dist) + (p.h < 1.0 ? hbuf : "") + " #" +
       std::to_string(local);
  return s;
}

// One block's screen: its survivors' metrics and its skips, each in
// candidate-index order.
struct BlockOut {
  std::vector<FrontEntry> front;  // block-local non-dominated set, index asc
  std::uint64_t survived = 0;
  std::uint64_t feasible = 0;
  std::vector<Diagnostics> skips;
};

// Screens the local candidates [lo, hi) of plan `p` into `bo`, row by row:
// `make_row` once per row of `width` candidates that the segment touches (a
// block boundary can split a row), then `point` for each of the row's
// candidates inside the segment. A row that throws becomes one skip per
// candidate of the segment it covers, each with its own label.
template <class MakeRow, class Point>
void screen_rows(const FunnelCtx& c, const Plan& p, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t width, const MakeRow& make_row, const Point& point,
                 BlockOut& bo) {
  std::uint64_t row_index = lo / width;
  for (std::uint64_t first = row_index * width; first < hi; first += width, ++row_index) {
    const std::uint64_t begin = std::max(lo, first), end = std::min(hi, first + width);
    decltype(make_row(row_index)) row;
    try {
      row = make_row(row_index);
    } catch (...) {
      for (std::uint64_t local = begin; local < end; ++local)
        bo.skips.push_back(diagnose_current_exception("funnel_screen", plan_label(c, p, local)));
      continue;
    }
    for (std::uint64_t local = begin; local < end; ++local) {
      ScreenMetrics m;
      bool feasible = false;
      try {
        feasible = point(row, local - first, m, nullptr);
      } catch (...) {
        bo.skips.push_back(diagnose_current_exception("funnel_screen", plan_label(c, p, local)));
        continue;
      }
      ++bo.survived;
      if (feasible) {
        ++bo.feasible;
        bo.front.push_back(FrontEntry{p.base + local, m});
      }
    }
  }
}

// The plan holding global candidate `index`.
std::size_t plan_index(const FunnelCtx& c, std::uint64_t index) {
  return static_cast<std::size_t>(
             std::upper_bound(c.plans.begin(), c.plans.end(), index,
                              [](std::uint64_t v, const Plan& pl) { return v < pl.base; }) -
             c.plans.begin()) -
         1;
}

// ---------------------------------------------------------------------------
// Stage 2.5: the frontier's design records
// ---------------------------------------------------------------------------

// The screen's own row and point for one candidate, keeping the design; its
// metrics are the screen's bit for bit.
DseResult materialize(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  DseResult r;
  r.n_distributed = p.n_dist;
  ScreenMetrics m;
  r.feasible = visit_rows(c, p, [&](std::uint64_t width, const auto& make_row,
                                     const auto& point) {
    return point(make_row(local / width), local % width, m, &r);
  });
  r.efficiency = m.efficiency;
  r.ripple_pp_v = m.ripple_pp_v;
  r.area_m2 = m.area_m2;
  if (p.h < 1.0) {
    char hbuf[32];
    std::snprintf(hbuf, sizeof(hbuf), " (h=%.2f)", p.h);
    r.label += hbuf;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Stage 3: frontier simulation through the content-addressed cache
// ---------------------------------------------------------------------------

struct SimOut {
  double droop_pp_v = 0.0;
  double v_mean_v = 0.0;
};

// The process-wide stage-3 memo, bounded at kFunnelSimCacheCapacity
// entries. Every lookup hit and insert stamps its entry with the next tick,
// so the entries stamped within the last 3/4 * capacity ticks are the most
// recently used ones; a full cache keeps only those, which frees at least a
// quarter of it per eviction scan.
struct SimCache {
  struct Entry {
    SimOut out;
    std::uint64_t last_use = 0;
  };

  std::mutex mu;
  std::unordered_map<std::string, Entry> map;
  std::uint64_t tick = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  // Both members below expect `mu` held.
  const SimOut* find(const std::string& key) {
    const auto it = map.find(key);
    if (it == map.end()) return nullptr;
    it->second.last_use = ++tick;
    return &it->second.out;
  }
  void insert(std::string key, const SimOut& out) {
    if (find(key)) return;  // A concurrent sweep simulated it first.
    if (map.size() >= kFunnelSimCacheCapacity) {
      const std::uint64_t cut = tick - kFunnelSimCacheCapacity * 3 / 4;  // tick >= size
      std::erase_if(map, [cut](const auto& kv) { return kv.second.last_use <= cut; });
    }
    map.emplace(std::move(key), Entry{out, ++tick});
  }
};

SimCache& sim_cache() {
  static SimCache* c = new SimCache;
  return *c;
}

// Content address of one frontier simulation: the canonical JSON of every
// input that determines the waveform. A SystemParams change that leaves a
// frontier design byte-identical (e.g. a new inductor technology for an SC
// design) therefore hits the cache.
std::string sim_key(const FunnelCtx& c, const Plan& p, const DseResult& d) {
  json::Value design;
  switch (d.topology) {
    case IvrTopology::SwitchedCapacitor: design = to_json(d.sc); break;
    case IvrTopology::Buck: design = to_json(d.buck); break;
    case IvrTopology::LinearRegulator: design = to_json(d.ldo); break;
    case IvrTopology::DigitalLdo: design = to_json(d.dldo); break;
  }
  json::Value::Object o;
  o.emplace_back("op", json::Value("funnel_sim"));
  o.emplace_back("topology", json::Value(topology_name(d.topology)));
  o.emplace_back("design", std::move(design));
  o.emplace_back("vin", json::Value(c.sys.vin_v));
  o.emplace_back("vref", json::Value(c.sys.vout_v));
  o.emplace_back("i_avg", json::Value(p.i_ivr));
  o.emplace_back("duration", json::Value(c.spec.sim_duration_s));
  o.emplace_back("dt", json::Value(c.spec.sim_dt_s));
  return json::Value(std::move(o)).write_canonical();
}

// Deterministic load-step trace: a third at the average load, a third at
// 1.6x (the up-step), a third at 0.6x (the release). No RNG — byte-identical
// keys and waveforms across runs.
SimOut simulate_design(const FunnelCtx& c, const Plan& p, const DseResult& d) {
  const std::size_t n = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::llround(c.spec.sim_duration_s / c.spec.sim_dt_s)));
  std::vector<double> trace(n);
  for (std::size_t k = 0; k < n; ++k)
    trace[k] = p.i_ivr * (k < n / 3 ? 1.0 : k < 2 * n / 3 ? 1.6 : 0.6);

  DynWaveform w;
  switch (d.topology) {
    case IvrTopology::SwitchedCapacitor:
      w = sc_combined_response(d.sc, c.sys.vin_v, c.sys.vout_v, trace, c.spec.sim_dt_s);
      break;
    case IvrTopology::Buck:
      w = buck_combined_response(d.buck, c.sys.vin_v, c.sys.vout_v, trace, c.spec.sim_dt_s);
      break;
    case IvrTopology::LinearRegulator:
      w = ldo_combined_response(d.ldo, c.sys.vin_v, c.sys.vout_v, trace, c.spec.sim_dt_s);
      break;
    case IvrTopology::DigitalLdo:
      w = dldo_combined_response(d.dldo, c.sys.vin_v, c.sys.vout_v, trace, c.spec.sim_dt_s);
      break;
  }
  require(!w.v.empty(), "funnel_sim: empty waveform");
  // Settled window: skip the first third (startup at the average load), so
  // the droop covers the up-step and the release.
  const std::size_t start = w.v.size() / 3;
  double lo = w.v[start], hi = w.v[start], sum = 0.0;
  for (std::size_t k = start; k < w.v.size(); ++k) {
    lo = std::min(lo, w.v[k]);
    hi = std::max(hi, w.v[k]);
    sum += w.v[k];
  }
  SimOut out;
  out.droop_pp_v = hi - lo;
  out.v_mean_v = sum / static_cast<double>(w.v.size() - start);
  IVORY_CHECK_FINITE(out.droop_pp_v, "funnel_sim");
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// The funnel
// ---------------------------------------------------------------------------

FunnelCacheStats funnel_sim_cache_stats() {
  SimCache& c = sim_cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return FunnelCacheStats{c.hits, c.misses, c.map.size()};
}

void funnel_sim_cache_clear() {
  SimCache& c = sim_cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.map.clear();
  c.hits = 0;
  c.misses = 0;
}

ParetoFront funnel_explore(const SystemParams& sys, const FunnelSpec& spec,
                           SweepReport* report) {
  IVORY_TRACE("dse.funnel_explore");
  metrics::registry().counter("dse.sweeps.funnel_explore").add();
  check_system_params(sys);
  check_spec(spec);
  // Whole-sweep fault-injection point, like optimize_topology: in Throw mode
  // the funnel dies before any candidate runs; in EmitNan mode the poisoned
  // load rides into every candidate and trips the finite guards.
  SystemParams s = sys;
  s.p_load_w += fault::inject("funnel_explore");

  const FunnelCtx ctx = build_ctx(s, spec);
  ParetoFront out;
  out.stats.n_screened = ctx.total;
  SweepReport merged;

  // --- Stage 1+2: block-streamed screening with incremental extraction ----
  const double t0 = now_s();
  const std::uint64_t n_blocks =
      ctx.total == 0 ? 0 : (ctx.total + spec.block - 1) / spec.block;
  out.stats.n_blocks = n_blocks;

  const std::vector<BlockOut> blocks =
      par::parallel_map<BlockOut>(static_cast<std::size_t>(n_blocks), [&](std::size_t b) {
        BlockOut bo;
        const std::uint64_t lo = static_cast<std::uint64_t>(b) * spec.block;
        const std::uint64_t hi = std::min(ctx.total, lo + spec.block);
        // Each plan's share of [lo, hi), row by row.
        for (std::size_t pi = plan_index(ctx, lo);
             pi < ctx.plans.size() && ctx.plans[pi].base < hi; ++pi) {
          const Plan& pl = ctx.plans[pi];
          const std::uint64_t seg_lo = std::max(lo, pl.base) - pl.base;
          const std::uint64_t seg_hi = std::min(hi, pl.base + pl.count) - pl.base;
          visit_rows(ctx, pl, [&](std::uint64_t width, const auto& make_row,
                                  const auto& point) {
            screen_rows(ctx, pl, seg_lo, seg_hi, width, make_row, point, bo);
          });
        }
        // Reduce the block's feasible set to its non-dominated subset here,
        // inside the parallel region, so the serial merge below only ever
        // sees a few hundred entries per block.
        bo.front = extract_front(bo.front, spec.objectives);
        return bo;
      });

  // Serial merge in block order: Pareto(Pareto(A) u Pareto(B)) =
  // Pareto(A u B), and candidate indices stay ascending across the
  // concatenation, so the earliest-index duplicate tie-break is exact and
  // the front is byte-identical at any thread count. Counters move in bulk
  // (millions of candidates; the per-candidate record_survivor would double
  // the screening cost).
  std::vector<FrontEntry> pool;
  std::uint64_t survived = 0;
  for (const BlockOut& bo : blocks) {
    survived += bo.survived;
    out.stats.n_feasible += bo.feasible;
    pool.insert(pool.end(), bo.front.begin(), bo.front.end());
    for (const Diagnostics& d : bo.skips) merged.skips.push_back(d);
  }
  std::vector<FrontEntry> front = extract_front(pool, spec.objectives);
  merged.n_evaluated += ctx.total;
  merged.n_survived += survived;
  metrics::registry().counter("dse.candidates.evaluated").add(ctx.total);
  metrics::registry().counter("dse.candidates.survived").add(survived);
  if (!merged.skips.empty())
    metrics::registry().counter("dse.candidates.quarantined").add(merged.skips.size());
  if (survived == 0 && ctx.total > 0) {
    if (report) report->merge(merged);
    throw_all_failed("funnel_explore", merged);
  }

  // Final ordering + front-size cap: best efficiency first (the screen's
  // numbers are the analyzers'), candidate index as the deterministic
  // tie-break. The cap trims the low-efficiency tail of the front.
  std::sort(front.begin(), front.end(), [](const FrontEntry& a, const FrontEntry& b) {
    if (a.m.efficiency != b.m.efficiency) return a.m.efficiency > b.m.efficiency;
    return a.index < b.index;
  });
  if (front.size() > spec.front_cap) front.resize(spec.front_cap);
  out.stats.frontier_size = front.size();
  out.stats.screen_s = now_s() - t0;

  // --- Stage 2.5: the frontier's design records ---------------------------
  struct PointCell {
    EvalOutcome<ParetoPoint> outcome;
  };
  const std::vector<PointCell> cells =
      par::parallel_map<PointCell>(front.size(), [&](std::size_t i) {
        PointCell cell;
        const FrontEntry& e = front[i];
        const Plan& pl = ctx.plans[plan_index(ctx, e.index)];
        const std::uint64_t local = e.index - pl.base;
        cell.outcome =
            quarantine("funnel_frontier", plan_label(ctx, pl, local), [&]() -> ParetoPoint {
              ParetoPoint pt;
              pt.index = e.index;
              pt.ivr_load_frac = pl.h;
              pt.screen = e.m;
              pt.design = materialize(ctx, pl, local);
              return pt;
            });
        return cell;
      });
  for (const PointCell& cell : cells) {
    if (cell.outcome.ok()) {
      merged.record_survivor();
      out.points.push_back(cell.outcome.value());
    } else {
      merged.record_skip(cell.outcome.diagnostics());
    }
  }

  // --- Stage 3: simulate the frontier through the sim cache ---------------
  if (spec.simulate && !out.points.empty()) {
    const double t1 = now_s();
    SimCache& cache = sim_cache();
    // Serial pass in frontier order: compute keys, satisfy hits, collect
    // misses. Keeping the counters out of the parallel region makes the
    // hit/miss totals thread-count-invariant.
    std::vector<std::string> keys(out.points.size());
    std::vector<std::size_t> plan_of(out.points.size());
    std::vector<std::size_t> miss;
    {
      std::lock_guard<std::mutex> lock(cache.mu);
      for (std::size_t i = 0; i < out.points.size(); ++i) {
        ParetoPoint& pt = out.points[i];
        if (!pt.design.feasible) continue;  // Simulate realizable designs only.
        plan_of[i] = plan_index(ctx, pt.index);
        keys[i] = sim_key(ctx, ctx.plans[plan_of[i]], pt.design);
        if (const SimOut* hit = cache.find(keys[i])) {
          // A memo hit is a simulated survivor too, so the report does not
          // depend on what earlier calls left in the cache.
          merged.record_survivor();
          ++cache.hits;
          ++out.stats.sim_cache_hits;
          pt.simulated = true;
          pt.sim_cached = true;
          pt.droop_pp_v = hit->droop_pp_v;
          pt.v_mean_v = hit->v_mean_v;
        } else {
          ++cache.misses;
          ++out.stats.sim_cache_misses;
          miss.push_back(i);
        }
      }
    }
    const std::vector<EvalOutcome<SimOut>> sims =
        par::parallel_map<EvalOutcome<SimOut>>(miss.size(), [&](std::size_t k) {
          const std::size_t i = miss[k];
          const ParetoPoint& pt = out.points[i];
          return quarantine("funnel_sim", pt.design.label + " @ dist " +
                                              std::to_string(pt.design.n_distributed),
                            [&] {
                              return simulate_design(ctx, ctx.plans[plan_of[i]], pt.design);
                            });
        });
    {
      std::lock_guard<std::mutex> lock(cache.mu);
      for (std::size_t k = 0; k < miss.size(); ++k) {
        const std::size_t i = miss[k];
        if (sims[k].ok()) {
          merged.record_survivor();
          ParetoPoint& pt = out.points[i];
          pt.simulated = true;
          pt.droop_pp_v = sims[k].value().droop_pp_v;
          pt.v_mean_v = sims[k].value().v_mean_v;
          cache.insert(std::move(keys[i]), sims[k].value());  // Failures never cached.
        } else {
          merged.record_skip(sims[k].diagnostics());
        }
      }
    }
    out.stats.sim_s = now_s() - t1;
  }

  if (report) report->merge(merged);
  return out;
}

}  // namespace ivory::core
