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
struct FrontKey {
  double k1 = 0.0, k2 = 0.0, k3 = 0.0;
  std::uint64_t index = 0;
  std::uint32_t pos = 0;  ///< position in the caller's entry vector
};

std::vector<FrontEntry> extract_front(const std::vector<FrontEntry>& pts,
                                      const FunnelObjectives& obj) {
  std::vector<FrontKey> keys;
  keys.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    FrontKey k;
    if (obj.efficiency) k.k1 = -pts[i].m.efficiency;
    if (obj.area) k.k2 = pts[i].m.area_m2;
    if (obj.ripple) k.k3 = pts[i].m.ripple_pp_v;
    k.index = pts[i].index;
    k.pos = static_cast<std::uint32_t>(i);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end(), [](const FrontKey& a, const FrontKey& b) {
    if (a.k1 != b.k1) return a.k1 < b.k1;
    if (a.k2 != b.k2) return a.k2 < b.k2;
    if (a.k3 != b.k3) return a.k3 < b.k3;
    return a.index < b.index;
  });
  // Staircase over (k2, k3): key -> minimum k3 among kept points with that
  // k2. Flat vector kept sorted by k2 ascending / k3 strictly descending.
  std::vector<std::pair<double, double>> stair;
  std::vector<FrontEntry> keep;
  for (const FrontKey& k : keys) {
    const auto it = std::upper_bound(
        stair.begin(), stair.end(), k.k2,
        [](double v, const std::pair<double, double>& s) { return v < s.first; });
    if (it != stair.begin() && std::prev(it)->second <= k.k3) continue;  // weakly dominated
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
    keep.push_back(pts[k.pos]);
  }
  // Restore ascending candidate-index order (the order block merging and
  // the final efficiency sort both start from).
  std::sort(keep.begin(), keep.end(),
            [](const FrontEntry& a, const FrontEntry& b) { return a.index < b.index; });
  return keep;
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

constexpr int kIlSteps = 7;            // SC interleave axis: 1, 2, ..., 64.
constexpr double kPeakLoadFactor = 2.5;  // Mirrors optimize_sc.

enum class PlanKind { Sc, Buck, Ldo, Dldo };

// Per-(ratio, family) constants of the SC closed-form screen, derived once
// from the memoized static analysis. The coefficients reduce analyze_at's
// per-switch loop to three multiplies per candidate:
//   p_gate   = f_used * kgate_pg  * g_tot
//   p_leak_sw =          kleak_pg * g_tot
//   c_gate    =          kcgate_pg * g_tot
struct ScVariantConst {
  int n = 0, m = 0;
  ScFamily family = ScFamily::Ladder;
  double ratio = 0.0;      // m/n
  double videal = 0.0;
  double sum_ac = 0.0, sum_ar = 0.0;
  double k_area_g = 0.0;   // die area per siemens of G_tot
  double kgate_pg = 0.0;
  double kleak_pg = 0.0;
  double kcgate_pg = 0.0;
  double vcap = 0.0;       // first cap's held voltage
  double kappa = 0.0;      // HF fly-cap fraction at the output
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
  double usable = 0.0;      // area_ivr / 1.15
  double p_vrm_in_w = 0.0;  // board-VRM input power for the (1-h) share
};

struct FunnelCtx {
  SystemParams sys;
  FunnelSpec spec;
  const tech::CapacitorTech* cap = nullptr;
  const tech::InductorTech* ind = nullptr;
  const tech::SwitchTech* core_dev = nullptr;
  const tech::SwitchTech* pass_dev = nullptr;  // IO class when vin > core vmax
  double ugc = 0.0;       // unit_gate_cap(node)
  double vdd_core = 0.0;
  double buck_sd = 0.0, buck_si = 0.0;  // sqrt(duty0), sqrt(1 - duty0)

  std::vector<double> sc_split, sc_out_frac;
  std::vector<double> buck_l_frac, buck_util, buck_fsw, buck_lmult;
  std::vector<double> ldo_decap, ldo_drop;
  std::vector<double> dldo_margin, dldo_decap;
  std::vector<double> hybrid;
  std::vector<int> dists;
  std::vector<ScVariantConst> sc_variants;
  std::vector<int> buck_phases{2, 4, 8, 16};
  std::vector<std::pair<int, int>> dldo_variants;  // (bits, n_comparators)
  double sc_per_area[kIlSteps] = {};  // peripheral area at 2*il phases
  std::vector<double> buck_per_area;  // peripheral area per phase count

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

// Peripheral-block die area at `phases` phases (mirrors blocks.cpp).
double peripheral_area(const tech::SwitchTech& core_dev, int phases) {
  const double gates = 1500.0 + (200.0 + 50.0) * static_cast<double>(phases);
  return gates * 4.0 * core_dev.area(0.5e-6) * 2.0;
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
  c.core_dev = &tech::switch_tech(sys.node, tech::DeviceClass::Core);
  c.pass_dev = sys.vin_v > c.core_dev->vmax_v
                   ? &tech::switch_tech(sys.node, tech::DeviceClass::Io)
                   : c.core_dev;
  c.ugc = unit_gate_cap(sys.node);
  c.vdd_core = c.core_dev->vdd_nom_v;
  const double duty0 = sys.vout_v / sys.vin_v;
  c.buck_sd = std::sqrt(duty0);
  c.buck_si = std::sqrt(1.0 - duty0);

  c.sc_split = linspace(0.50, 0.98, spec.sc_split_steps);
  c.sc_out_frac = linspace(0.05, 0.60, spec.sc_out_frac_steps);
  c.buck_l_frac = linspace(0.02, 0.70, spec.buck_l_frac_steps);
  c.buck_util = linspace(0.03, 1.00, spec.buck_util_steps);
  c.buck_fsw = logspace(2e6, 1e9, spec.buck_fsw_steps);
  c.buck_lmult.reserve(c.buck_fsw.size());
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
      const ScStaticAnalysis& st = sc_static_analysis(ratio.first, ratio.second, family);
      // Plan-level capacitor voltage-rating check (mirrors analyze_at's
      // require): a variant whose caps exceed the technology rating can
      // never survive, so it is excluded from the candidate space instead
      // of producing millions of identical skips.
      double worst_cap_ratio = 0.0;
      for (const ScCap& cc : st.topo.caps)
        worst_cap_ratio = std::max(worst_cap_ratio, cc.ideal_v_ratio);
      if (worst_cap_ratio * sys.vin_v > c.cap->vmax_v * 1.05) continue;

      ScVariantConst v;
      v.n = ratio.first;
      v.m = ratio.second;
      v.family = family;
      v.ratio = st.topo.ideal_ratio();
      v.videal = v.ratio * sys.vin_v;
      v.sum_ac = st.cv.sum_ac();
      v.sum_ar = st.cv.sum_ar();
      const tech::SwitchTech& io_dev = tech::switch_tech(sys.node, tech::DeviceClass::Io);
      const std::size_t n_sw = st.topo.switches.size();
      for (std::size_t i = 0; i < n_sw; ++i) {
        const double weight =
            std::max(st.cv.a_switch[i], 0.02 * v.sum_ar / static_cast<double>(n_sw));
        const double share = weight / v.sum_ar;  // g_i = share * g_tot
        const double v_block = st.stress[i] * sys.vin_v;
        const tech::SwitchTech& dev = v_block > c.core_dev->vmax_v ? io_dev : *c.core_dev;
        v.k_area_g += share * dev.ron_w_ohm_m * dev.area_per_w_m;
        v.kgate_pg += share * dev.ron_w_ohm_m * dev.cgate_per_w_f_m * dev.vdd_nom_v *
                      dev.vdd_nom_v;
        v.kleak_pg += 0.5 * share * dev.ron_w_ohm_m * dev.ileak_per_w_a_m * v_block;
        v.kcgate_pg += share * dev.ron_w_ohm_m * dev.cgate_per_w_f_m;
      }
      v.vcap = sys.vin_v * (st.topo.caps.empty() ? 1.0 : st.topo.caps.front().ideal_v_ratio);
      v.kappa = 0.5;
      if (family == ScFamily::SeriesParallel) {
        const double chain = static_cast<double>(v.n - 1);
        v.kappa = 0.5 * (1.0 + 1.0 / (chain * chain));
      }
      c.sc_variants.push_back(v);
    }
  }

  for (int il = 0; il < kIlSteps; ++il)
    c.sc_per_area[il] = peripheral_area(*c.core_dev, 2 * (1 << il));
  for (const int ph : c.buck_phases) c.buck_per_area.push_back(peripheral_area(*c.core_dev, ph));

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
          p.usable = p.area_ivr / 1.15;
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
inline void fill_metrics(const FunnelCtx& c, const Plan& p, double p_in_ivr, double ripple,
                         double area_ivr_total, ScreenMetrics& m) {
  m.efficiency = c.sys.p_load_w /
                 (static_cast<double>(p.n_dist) * p_in_ivr + p.p_vrm_in_w);
  m.ripple_pp_v = ripple;
  m.area_m2 = area_ivr_total * static_cast<double>(p.n_dist);
}

void check_screen_finite(const ScreenMetrics& m) {
  if (!(std::isfinite(m.efficiency) && std::isfinite(m.area_m2) &&
        std::isfinite(m.ripple_pp_v)))
    throw NonFiniteError("funnel_screen: non-finite screen metric");
}

// SC sizing shared by the screen and the frontier re-derivation.
struct ScSizing {
  double c_fly = 0.0, c_out = 0.0, g_tot = 0.0;
  double area_caps = 0.0, area_sw = 0.0;
  int n_il = 1;
  double f_max = 0.0;   // design (peak-regulation) frequency
  double f_used = 0.0;  // pulse-skipped frequency at the average load
  bool viable = false;  // passes the FSL floor and sane-frequency gates
};

ScSizing sc_sizing(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  const ScVariantConst& v = c.sc_variants[static_cast<std::size_t>(p.variant)];
  const int il_idx = static_cast<int>(local % kIlSteps);
  const std::uint64_t rest = local / kIlSteps;
  const double y = c.sc_out_frac[rest % c.sc_out_frac.size()];
  const double x = c.sc_split[rest / c.sc_out_frac.size()];

  ScSizing s;
  s.n_il = 1 << il_idx;
  s.area_caps = x * p.usable;
  s.area_sw = (1.0 - x) * p.usable * 0.95;  // 5% peripheral, as optimize_sc.
  const double c_total = s.area_caps * c.cap->density_f_m2;
  s.c_fly = (1.0 - y) * c_total;
  s.c_out = y * c_total;
  s.g_tot = s.area_sw / v.k_area_g;

  const double rfsl = v.sum_ar * v.sum_ar / (s.g_tot * 0.5);
  const double r_needed_peak = (v.videal - c.sys.vout_v) / (kPeakLoadFactor * p.i_ivr);
  if (r_needed_peak <= rfsl * 1.02) return s;  // FSL floor: cannot regulate at peak.
  const double rssl_peak = std::sqrt(r_needed_peak * r_needed_peak - rfsl * rfsl);
  s.f_max = v.sum_ac * v.sum_ac / (s.c_fly * rssl_peak);
  if (s.f_max < 1e5 || s.f_max > 5e9) return s;
  // Regulated at the average load: r_needed_avg = 2.5 * r_needed_peak always
  // clears the feasibility floor hypot(rssl_peak, rfsl) = r_needed_peak.
  const double r_needed_avg = (v.videal - c.sys.vout_v) / p.i_ivr;
  const double rssl_needed = std::sqrt(r_needed_avg * r_needed_avg - rfsl * rfsl);
  s.f_used = v.sum_ac * v.sum_ac / (s.c_fly * rssl_needed);
  s.viable = true;
  return s;
}

// Closed-form mirror of evaluate_split + analyze_sc_regulated + analyze_at.
bool screen_sc(const FunnelCtx& c, const Plan& p, std::uint64_t local, ScreenMetrics& m) {
  const ScVariantConst& v = c.sc_variants[static_cast<std::size_t>(p.variant)];
  const ScSizing s = sc_sizing(c, p, local);
  if (!s.viable) return false;

  const double i = p.i_ivr;
  const double p_gate = s.f_used * v.kgate_pg * s.g_tot;
  const double p_bp = 0.25 * s.f_used * c.cap->bottom_plate_ratio * s.c_fly * v.videal * v.videal;
  const double p_leak = c.cap->leak_a_per_f * s.c_fly * v.vcap + v.kleak_pg * s.g_tot;
  // Peripheral: controller/clock/comparator run at the *design* frequency
  // (pulse skipping does not gate them); the driver term scales with the
  // effective rate. Mirrors analyze_at's peripheral_budget call.
  const int phases = 2 * s.n_il;
  const double cgvdd2 = c.ugc * c.vdd_core * c.vdd_core;
  const double f_ctrl = s.f_max * static_cast<double>(phases);
  const double p_per = 1500.0 * 0.2 * cgvdd2 * f_ctrl +
                       200.0 * static_cast<double>(phases) * 0.2 * cgvdd2 * s.f_max +
                       50.0 * cgvdd2 * f_ctrl +
                       0.3 * v.kcgate_pg * s.g_tot * c.vdd_core * c.vdd_core * s.f_used;
  const double p_in = c.sys.vin_v * v.ratio * i + p_gate + p_bp + p_leak + p_per;

  const double c_hf = s.c_out + v.kappa * s.c_fly;
  const double ripple = i / (static_cast<double>(s.n_il) * s.f_used * std::max(c_hf, 1e-18));
  const int il_idx = static_cast<int>(local % kIlSteps);
  const double area_model = 1.15 * (s.area_caps + s.area_sw + c.sc_per_area[il_idx]);

  fill_metrics(c, p, p_in, ripple, area_model, m);
  check_screen_finite(m);
  return ripple <= c.sys.ripple_max_v * 1.05 && area_model <= p.area_ivr * 1.02;
}

// Buck sizing shared by the screen and the frontier re-derivation.
struct BuckSizing {
  double l_phase = 0.0, c_out = 0.0, w_hs = 0.0, w_ls = 0.0, f_sw = 0.0;
  double area_l = 0.0, area_sw = 0.0, area_c = 0.0;
  bool viable = false;
};

BuckSizing buck_sizing(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  const double nn = static_cast<double>(c.buck_phases[static_cast<std::size_t>(p.variant)]);
  const std::uint64_t f_idx = local % c.buck_fsw.size();
  const std::uint64_t rest = local / c.buck_fsw.size();
  const double util = c.buck_util[rest % c.buck_util.size()];
  const double l_frac = c.buck_l_frac[rest / c.buck_util.size()];

  BuckSizing s;
  s.f_sw = c.buck_fsw[f_idx];
  s.area_l = l_frac * p.usable;
  const double rest_a = (1.0 - l_frac) * p.usable;
  s.area_sw = 0.4 * rest_a * util;
  s.area_c = 0.55 * rest_a;  // 5% peripheral, as optimize_buck.
  const double l_total = s.area_l * c.ind->density_h_m2;
  s.l_phase = l_total / nn;
  s.c_out = s.area_c * c.cap->density_f_m2;
  const double w_total = s.area_sw / c.pass_dev->area_per_w_m;
  s.w_hs = w_total / nn * c.buck_sd / (c.buck_sd + c.buck_si);
  s.w_ls = w_total / nn * c.buck_si / (c.buck_sd + c.buck_si);
  s.viable = s.l_phase > 0.0 && s.c_out > 0.0 && s.w_hs > 0.0;
  return s;
}

// Closed-form mirror of analyze_buck (with the per-frequency inductance
// rolloff multiplier precomputed per fsw grid step).
bool screen_buck(const FunnelCtx& c, const Plan& p, std::uint64_t local, ScreenMetrics& m) {
  const BuckSizing s = buck_sizing(c, p, local);
  if (!s.viable) return false;
  const tech::SwitchTech& dev = *c.pass_dev;
  const int n_phases = c.buck_phases[static_cast<std::size_t>(p.variant)];
  const double nn = static_cast<double>(n_phases);
  const double i = p.i_ivr, i_ph = i / nn;
  const double vin = c.sys.vin_v, vout = c.sys.vout_v;
  const double f = s.f_sw;

  const double l_eff = s.l_phase * c.buck_lmult[local % c.buck_fsw.size()];
  const double r_hs = dev.ron_w_ohm_m / s.w_hs;
  const double r_ls = dev.ron_w_ohm_m / s.w_ls;
  const double r_dcr = c.ind->dcr_ohm_per_h * s.l_phase;

  double duty = vout / vin;
  for (int pass = 0; pass < 2; ++pass) {
    const double drop_on = i_ph * (r_hs + r_dcr);
    const double drop_off = i_ph * (r_ls + r_dcr);
    duty = (vout + drop_off) / std::max(vin - drop_on + drop_off, 1e-9);
  }
  if (!(duty > 0.0 && duty < 1.0)) return false;  // Unreachable operating point.

  const double i_rip = (vin - vout) * duty / (l_eff * f);
  if (i_rip > 2.0 * i_ph) return false;  // Require CCM, as optimize_buck.
  const double nd = nn * duty;
  const double frac = nd - std::floor(nd);
  const double canc =
      n_phases == 1 ? 1.0 : frac * (1.0 - frac) / (nn * duty * (1.0 - duty));
  const double i_ro = i_rip * canc;

  const double p_out = vout * i;
  const double i_sq = i_ph * i_ph + i_rip * i_rip / 12.0;
  const double r_eff = duty * r_hs + (1.0 - duty) * r_ls + r_dcr;
  const double p_cond = nn * i_sq * r_eff;
  const double v_drive = std::min(dev.vdd_nom_v, vin);
  const double cg_phase = dev.cgate_per_w_f_m * (s.w_hs + s.w_ls);
  const double p_gate = nn * f * cg_phase * v_drive * v_drive;
  const double t_tr = 4.0 * dev.fom_s();
  const double p_overlap = nn * vin * i_ph * t_tr * f;
  const double cd_phase = dev.cdrain_per_w_f_m * (s.w_hs + s.w_ls);
  const double p_coss = nn * f * cd_phase * vin * vin;
  const double p_dead = nn * 2.0 * f * (2.0 * t_tr) * i_ph * 0.65;
  const double cgvdd2 = c.ugc * c.vdd_core * c.vdd_core;
  const double f_ctrl = f * nn;
  const double p_per = 1500.0 * 0.2 * cgvdd2 * f_ctrl + 200.0 * nn * 0.2 * cgvdd2 * f +
                       50.0 * cgvdd2 * f_ctrl + 0.3 * nn * cg_phase * v_drive * v_drive * f;
  const double p_in = p_out + p_cond + p_gate + p_overlap + p_coss + p_dead + p_per;

  const double f_eff = nn * f;
  const double ripple = i_ro / (8.0 * f_eff * s.c_out) + i_ro * (c.cap->esr_ohm_f / s.c_out);
  const double per_area = c.buck_per_area[static_cast<std::size_t>(p.variant)];
  const double area_die = 1.15 * (s.area_sw + s.area_c + per_area +
                                  (c.ind->on_die ? s.area_l : 0.0));
  const double area_total = area_die + (c.ind->on_die ? 0.0 : s.area_l);

  fill_metrics(c, p, p_in, ripple, area_total, m);
  check_screen_finite(m);
  return ripple <= c.sys.ripple_max_v && area_die <= p.area_ivr * 1.02;
}

// LDO/DLDO spaces are small; both call the real analyzers directly and treat
// InvalidParameter (pass device too narrow, etc.) as a domain rejection —
// exactly the optimizer's convention.
LdoDesign ldo_design_at(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  const double drop_frac = c.ldo_drop[local % c.ldo_drop.size()];
  const double decap_frac = c.ldo_decap[local / c.ldo_drop.size()];
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
  return d;
}

bool screen_ldo(const FunnelCtx& c, const Plan& p, std::uint64_t local, ScreenMetrics& m) {
  const LdoDesign d = ldo_design_at(c, p, local);
  try {
    const LdoAnalysis a = analyze_ldo(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
    fill_metrics(c, p, a.p_in_w, a.ripple_pp_v, a.area_m2, m);
    check_screen_finite(m);
    return a.ripple_pp_v <= c.sys.ripple_max_v && a.area_m2 <= p.area_ivr * 1.05;
  } catch (const InvalidParameter&) {
    return false;
  }
}

DldoDesign dldo_design_at(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  const auto& [bits, n_comp] = c.dldo_variants[static_cast<std::size_t>(p.variant)];
  const double decap_frac = c.dldo_decap[local % c.dldo_decap.size()];
  const double margin = c.dldo_margin[local / c.dldo_decap.size()];
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
  return d;
}

bool screen_dldo(const FunnelCtx& c, const Plan& p, std::uint64_t local, ScreenMetrics& m) {
  const DldoDesign d = dldo_design_at(c, p, local);
  try {
    const DldoAnalysis a = analyze_dldo(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
    fill_metrics(c, p, a.p_in_w, a.ripple_pp_v, a.area_m2, m);
    check_screen_finite(m);
    return a.ripple_pp_v <= c.sys.ripple_max_v && a.area_m2 <= p.area_ivr * 1.05;
  } catch (const InvalidParameter&) {
    return false;
  }
}

bool screen_candidate(const FunnelCtx& c, const Plan& p, std::uint64_t local,
                      ScreenMetrics& m) {
  switch (p.kind) {
    case PlanKind::Sc: return screen_sc(c, p, local, m);
    case PlanKind::Buck: return screen_buck(c, p, local, m);
    case PlanKind::Ldo: return screen_ldo(c, p, local, m);
    case PlanKind::Dldo: return screen_dldo(c, p, local, m);
  }
  return false;
}

std::string plan_label(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  char hbuf[32];
  std::snprintf(hbuf, sizeof(hbuf), " h=%.2f", p.h);
  std::string s;
  switch (p.kind) {
    case PlanKind::Sc: {
      const ScVariantConst& v = c.sc_variants[static_cast<std::size_t>(p.variant)];
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

// ---------------------------------------------------------------------------
// Stage 2.5: exact static re-derivation of a frontier candidate
// ---------------------------------------------------------------------------

// Applies the hybrid suffix and the system-level efficiency to a re-derived
// DseResult. `p_in_ivr` is the per-IVR input power from the full analyzer.
void finish_design(const FunnelCtx& c, const Plan& p, double p_in_ivr, DseResult& r) {
  r.efficiency = c.sys.p_load_w /
                 (static_cast<double>(p.n_dist) * p_in_ivr + p.p_vrm_in_w);
  if (p.h < 1.0) {
    char hbuf[32];
    std::snprintf(hbuf, sizeof(hbuf), " (h=%.2f)", p.h);
    r.label += hbuf;
  }
}

DseResult materialize(const FunnelCtx& c, const Plan& p, std::uint64_t local) {
  DseResult r;
  r.n_distributed = p.n_dist;
  switch (p.kind) {
    case PlanKind::Sc: {
      r.topology = IvrTopology::SwitchedCapacitor;
      const ScVariantConst& v = c.sc_variants[static_cast<std::size_t>(p.variant)];
      r.label = std::to_string(v.n) + ":" + std::to_string(v.m) + " SC";
      const ScSizing s = sc_sizing(c, p, local);
      if (!s.viable) return r;
      ScDesign d;
      d.node = c.sys.node;
      d.cap_kind = c.sys.cap_kind;
      d.n = v.n;
      d.m = v.m;
      d.family = v.family;
      d.c_fly_f = s.c_fly;
      d.c_out_f = s.c_out;
      d.g_tot_s = s.g_tot;
      d.f_sw_hz = s.f_max;
      d.duty = 0.5;
      d.n_interleave = s.n_il;
      const ScRegulated reg = analyze_sc_regulated(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
      if (!reg.feasible) return r;
      const ScAnalysis& a = reg.analysis;
      r.feasible = a.ripple_pp_v <= c.sys.ripple_max_v * 1.05 &&
                   a.area_m2 <= p.area_ivr * 1.02;
      r.ripple_pp_v = a.ripple_pp_v;
      r.f_sw_hz = reg.f_sw_used_hz;
      r.area_m2 = a.area_m2 * p.n_dist;
      r.n_interleave = s.n_il;
      r.sc = d;
      finish_design(c, p, a.p_in_w, r);
      return r;
    }
    case PlanKind::Buck: {
      r.topology = IvrTopology::Buck;
      r.label = "buck";
      const BuckSizing s = buck_sizing(c, p, local);
      if (!s.viable) return r;
      BuckDesign d;
      d.node = c.sys.node;
      d.inductor = c.sys.inductor;
      d.cap_kind = c.sys.cap_kind;
      d.l_per_phase_h = s.l_phase;
      d.f_sw_hz = s.f_sw;
      d.n_phases = c.buck_phases[static_cast<std::size_t>(p.variant)];
      d.w_high_m = s.w_hs;
      d.w_low_m = s.w_ls;
      d.c_out_f = s.c_out;
      try {
        const BuckAnalysis a = analyze_buck(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
        if (a.i_ripple_phase_a > 2.0 * p.i_ivr / d.n_phases) return r;  // CCM.
        r.feasible =
            a.ripple_pp_v <= c.sys.ripple_max_v && a.area_die_m2 <= p.area_ivr * 1.02;
        r.ripple_pp_v = a.ripple_pp_v;
        r.f_sw_hz = s.f_sw;
        r.area_m2 = a.area_m2 * p.n_dist;
        r.n_interleave = d.n_phases;
        r.buck = d;
        finish_design(c, p, a.p_in_w, r);
      } catch (const InvalidParameter&) {
        // Domain rejection: the frontier point degrades to infeasible.
      }
      return r;
    }
    case PlanKind::Ldo: {
      r.topology = IvrTopology::LinearRegulator;
      r.label = "LDO";
      const LdoDesign d = ldo_design_at(c, p, local);
      try {
        const LdoAnalysis a = analyze_ldo(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
        r.feasible =
            a.ripple_pp_v <= c.sys.ripple_max_v && a.area_m2 <= p.area_ivr * 1.05;
        r.ripple_pp_v = a.ripple_pp_v;
        r.f_sw_hz = d.f_clk_hz;
        r.area_m2 = a.area_m2 * p.n_dist;
        r.ldo = d;
        finish_design(c, p, a.p_in_w, r);
      } catch (const InvalidParameter&) {
      }
      return r;
    }
    case PlanKind::Dldo: {
      r.topology = IvrTopology::DigitalLdo;
      const auto& [bits, n_comp] = c.dldo_variants[static_cast<std::size_t>(p.variant)];
      (void)bits;
      r.label = "DLDO x" + std::to_string(n_comp);
      const DldoDesign d = dldo_design_at(c, p, local);
      try {
        const DldoAnalysis a = analyze_dldo(d, c.sys.vin_v, c.sys.vout_v, p.i_ivr);
        r.feasible =
            a.ripple_pp_v <= c.sys.ripple_max_v && a.area_m2 <= p.area_ivr * 1.05;
        r.ripple_pp_v = a.ripple_pp_v;
        r.f_sw_hz = d.f_clk_hz;
        r.area_m2 = a.area_m2 * p.n_dist;
        r.n_interleave = n_comp;
        r.dldo = d;
        finish_design(c, p, a.p_in_w, r);
      } catch (const InvalidParameter&) {
      }
      return r;
    }
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

struct SimCache {
  std::mutex mu;
  std::unordered_map<std::string, SimOut> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
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

  struct BlockOut {
    std::vector<FrontEntry> front;  // block-local non-dominated set, index asc
    std::uint64_t survived = 0;
    std::uint64_t feasible = 0;
    std::vector<Diagnostics> skips;
  };
  const std::vector<BlockOut> blocks =
      par::parallel_map<BlockOut>(static_cast<std::size_t>(n_blocks), [&](std::size_t b) {
        BlockOut bo;
        const std::uint64_t lo = static_cast<std::uint64_t>(b) * spec.block;
        const std::uint64_t hi = std::min(ctx.total, lo + spec.block);
        // Locate the plan containing `lo`, then walk forward.
        std::size_t pi =
            static_cast<std::size_t>(
                std::upper_bound(ctx.plans.begin(), ctx.plans.end(), lo,
                                 [](std::uint64_t v, const Plan& pl) { return v < pl.base; }) -
                ctx.plans.begin()) -
            1;
        for (std::uint64_t idx = lo; idx < hi; ++idx) {
          while (idx >= ctx.plans[pi].base + ctx.plans[pi].count) ++pi;
          const Plan& pl = ctx.plans[pi];
          const std::uint64_t local = idx - pl.base;
          ScreenMetrics m;
          bool feasible = false, ok = true;
          try {
            feasible = screen_candidate(ctx, pl, local, m);
          } catch (...) {
            bo.skips.push_back(
                diagnose_current_exception("funnel_screen", plan_label(ctx, pl, local)));
            ok = false;
          }
          if (!ok) continue;
          ++bo.survived;
          if (feasible) {
            ++bo.feasible;
            bo.front.push_back(FrontEntry{idx, m});
          }
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

  // Final ordering + front-size cap: best screen efficiency first, candidate
  // index as the deterministic tie-break. The cap trims the low-efficiency
  // tail of the front.
  std::sort(front.begin(), front.end(), [](const FrontEntry& a, const FrontEntry& b) {
    if (a.m.efficiency != b.m.efficiency) return a.m.efficiency > b.m.efficiency;
    return a.index < b.index;
  });
  if (front.size() > spec.front_cap) front.resize(spec.front_cap);
  out.stats.frontier_size = front.size();
  out.stats.screen_s = now_s() - t0;

  // --- Stage 2.5: exact static re-derivation of the frontier --------------
  struct PointCell {
    EvalOutcome<ParetoPoint> outcome;
  };
  const std::vector<PointCell> cells =
      par::parallel_map<PointCell>(front.size(), [&](std::size_t i) {
        PointCell cell;
        const FrontEntry& e = front[i];
        const std::size_t pi =
            static_cast<std::size_t>(
                std::upper_bound(ctx.plans.begin(), ctx.plans.end(), e.index,
                                 [](std::uint64_t v, const Plan& pl) { return v < pl.base; }) -
                ctx.plans.begin()) -
            1;
        const Plan& pl = ctx.plans[pi];
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
        const std::size_t pi =
            static_cast<std::size_t>(
                std::upper_bound(ctx.plans.begin(), ctx.plans.end(), pt.index,
                                 [](std::uint64_t v, const Plan& pl) { return v < pl.base; }) -
                ctx.plans.begin()) -
            1;
        plan_of[i] = pi;
        keys[i] = sim_key(ctx, ctx.plans[pi], pt.design);
        const auto it = cache.map.find(keys[i]);
        if (it != cache.map.end()) {
          // A memo hit is a simulated survivor too, so the report does not
          // depend on what earlier calls left in the cache.
          merged.record_survivor();
          ++cache.hits;
          ++out.stats.sim_cache_hits;
          pt.simulated = true;
          pt.sim_cached = true;
          pt.droop_pp_v = it->second.droop_pp_v;
          pt.v_mean_v = it->second.v_mean_v;
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
          cache.map.emplace(keys[i], sims[k].value());  // Failures never cached.
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

std::vector<DseResult> explore(const SystemParams& sys, const FunnelSpec& spec,
                               OptTarget target, SweepReport* report) {
  const ParetoFront front = funnel_explore(sys, spec, report);
  std::vector<DseResult> all;
  all.reserve(front.points.size());
  for (const ParetoPoint& pt : front.points) all.push_back(pt.design);
  sort_dse_results(all, target);
  return all;
}

}  // namespace ivory::core
