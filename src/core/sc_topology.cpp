#include "core/sc_topology.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/matrix.hpp"
#include "spice/phase_clock.hpp"

namespace ivory::core {

double ChargeVectors::sum_ac() const {
  double acc = 0.0;
  for (double a : a_cap) acc += a;
  return acc;
}

double ChargeVectors::sum_ar() const {
  double acc = 0.0;
  for (double a : a_switch) acc += a;
  return acc;
}

ScTopology series_parallel(int n) {
  require(n >= 2, "series_parallel: ratio must be n:1 with n >= 2");
  ScTopology t;
  t.name = std::to_string(n) + ":1 series-parallel";
  t.n = n;
  t.m = 1;

  const double vr = 1.0 / static_cast<double>(n);
  std::vector<int> pos, neg;
  for (int k = 0; k < n - 1; ++k) {
    pos.push_back(t.new_node());
    neg.push_back(t.new_node());
    t.caps.push_back({pos.back(), neg.back(), vr, false});
  }
  // Phase A: Vin - C1 - C2 - ... - C(n-1) - Vout in series.
  t.switches.push_back({0, kScVin, pos[0]});
  for (int k = 0; k + 1 < n - 1; ++k) t.switches.push_back({0, neg[static_cast<size_t>(k)],
                                                            pos[static_cast<size_t>(k) + 1]});
  t.switches.push_back({0, neg[static_cast<size_t>(n) - 2], kScVout});
  // Phase B: every cap in parallel across Vout.
  for (int k = 0; k < n - 1; ++k) {
    t.switches.push_back({1, pos[static_cast<size_t>(k)], kScVout});
    t.switches.push_back({1, neg[static_cast<size_t>(k)], kScGnd});
  }
  return t;
}

ScTopology ladder(int n, int m) {
  require(n >= 2 && m >= 1 && m < n, "ladder: need n >= 2 and 1 <= m < n");
  ScTopology t;
  t.name = std::to_string(n) + ":" + std::to_string(m) + " ladder";
  t.n = n;
  t.m = m;

  const double vr = 1.0 / static_cast<double>(n);
  // Rung nodes u_0..u_n at potentials k*Vin/n.
  std::vector<int> u(static_cast<size_t>(n) + 1);
  u[0] = kScGnd;
  u[static_cast<size_t>(n)] = kScVin;
  u[static_cast<size_t>(m)] = kScVout;
  for (int k = 1; k < n; ++k)
    if (k != m) u[static_cast<size_t>(k)] = t.new_node();

  // Interior DC caps hold the rungs. The cap that would sit directly across
  // Vout-gnd is the output bypass and is excluded from the charge analysis.
  for (int k = 1; k < n; ++k) {
    const int a = u[static_cast<size_t>(k)];
    const int b = u[static_cast<size_t>(k) - 1];
    if ((a == kScVout && b == kScGnd) || (a == kScGnd && b == kScVout)) continue;
    t.caps.push_back({a, b, vr, true});
  }
  // Flying caps: bridge rung (k-1, k) in phase A, (k, k+1) in phase B.
  for (int k = 1; k < n; ++k) {
    const int fp = t.new_node();
    const int fn = t.new_node();
    t.caps.push_back({fp, fn, vr, false});
    t.switches.push_back({0, fp, u[static_cast<size_t>(k)]});
    t.switches.push_back({0, fn, u[static_cast<size_t>(k) - 1]});
    t.switches.push_back({1, fp, u[static_cast<size_t>(k) + 1]});
    t.switches.push_back({1, fn, u[static_cast<size_t>(k)]});
  }
  return t;
}

ScTopology dickson(int n) {
  require(n >= 2, "dickson: ratio must be n:1 with n >= 2");
  ScTopology t;
  t.name = std::to_string(n) + ":1 Dickson";
  t.n = n;
  t.m = 1;

  // Cap k (k = 1..n-1) holds k*Vout = k/n * Vin (graded ratings). Bottom
  // plates alternate between gnd and Vout on opposite phases; the top-plate
  // chain ratchets charge from Vin down to Vout.
  std::vector<int> top(static_cast<size_t>(n));   // top[k], k = 1..n-1.
  std::vector<int> bot(static_cast<size_t>(n));
  auto phase_of = [](int k) { return k % 2; };    // Alternating clocking.
  for (int k = 1; k < n; ++k) {
    top[static_cast<size_t>(k)] = t.new_node();
    bot[static_cast<size_t>(k)] = t.new_node();
    t.caps.push_back({top[static_cast<size_t>(k)], bot[static_cast<size_t>(k)],
                      static_cast<double>(k) / n, false});
    // Bottom-plate drive: gnd while the cap delivers, Vout while it charges.
    t.switches.push_back({phase_of(k), bot[static_cast<size_t>(k)], kScGnd});
    t.switches.push_back({1 - phase_of(k), bot[static_cast<size_t>(k)], kScVout});
  }
  // Top chain: each link conducts in the phase where its two plates sit at
  // the same potential (adjacent caps clock in antiphase).
  for (int k = 1; k + 1 < n; ++k)
    t.switches.push_back({phase_of(k + 1), top[static_cast<size_t>(k)],
                          top[static_cast<size_t>(k) + 1]});
  t.switches.push_back({1 - phase_of(n - 1), kScVin, top[static_cast<size_t>(n) - 1]});
  t.switches.push_back({phase_of(1), top[1], kScVout});
  return t;
}

ScTopology make_topology(int n, int m, ScFamily family) {
  require(n >= 2 && m >= 1 && m < n, "make_topology: need n >= 2 and 1 <= m < n");
  switch (family) {
    case ScFamily::SeriesParallel:
      require(m == 1, "make_topology: series-parallel realizes only n:1 ratios");
      return series_parallel(n);
    case ScFamily::Ladder:
      return ladder(n, m);
    case ScFamily::Dickson:
      require(m == 1, "make_topology: Dickson realizes only n:1 ratios");
      return dickson(n);
    case ScFamily::Auto:
      return m == 1 ? series_parallel(n) : ladder(n, m);
  }
  throw InvalidParameter("make_topology: unknown family");
}

// ---------------------------------------------------------------------------
// Charge-flow solver
// ---------------------------------------------------------------------------

namespace {

// Column layout of the charge-flow unknown vector.
struct Layout {
  int n_caps = 0;
  int n_switches = 0;
  int q_in_col[2] = {-1, -1};
  int q_out_col[2] = {-1, -1};
  int n_cols = 0;

  int cap_col(int phase, int i) const { return phase * n_caps + i; }
  int sw_col(int i) const { return 2 * n_caps + i; }
};

// Is `node` electrically present in `phase` (incident to a capacitor or an
// active switch)?
bool node_present(const ScTopology& t, int phase, int node) {
  for (const ScCap& c : t.caps)
    if (c.pos == node || c.neg == node) return true;
  for (const ScSwitch& s : t.switches)
    if (s.phase == phase && (s.a == node || s.b == node)) return true;
  return false;
}

}  // namespace

ChargeVectors charge_vectors(const ScTopology& t) {
  require(!t.caps.empty(), "charge_vectors: topology has no capacitors");
  require(!t.switches.empty(), "charge_vectors: topology has no switches");

  Layout lay;
  lay.n_caps = static_cast<int>(t.caps.size());
  lay.n_switches = static_cast<int>(t.switches.size());
  int col = 2 * lay.n_caps + lay.n_switches;
  for (int p = 0; p < 2; ++p) {
    if (node_present(t, p, kScVin)) lay.q_in_col[p] = col++;
    if (node_present(t, p, kScVout)) lay.q_out_col[p] = col++;
  }
  lay.n_cols = col;
  if (lay.q_out_col[0] < 0 && lay.q_out_col[1] < 0)
    throw StructuralError("charge_vectors: output node is not connected in either phase");

  // Rows: KCL per present non-ground node per phase, capacitor balance, and
  // the unit-output normalization.
  std::vector<std::vector<std::pair<int, double>>> rows;
  std::vector<double> rhs;
  auto add_row = [&](std::vector<std::pair<int, double>> entries, double b) {
    rows.push_back(std::move(entries));
    rhs.push_back(b);
  };

  for (int p = 0; p < 2; ++p) {
    for (int node = 1; node < t.node_count; ++node) {
      if (!node_present(t, p, node)) continue;
      std::vector<std::pair<int, double>> entries;
      for (int i = 0; i < lay.n_caps; ++i) {
        const ScCap& c = t.caps[static_cast<size_t>(i)];
        if (c.pos == node) entries.emplace_back(lay.cap_col(p, i), 1.0);
        if (c.neg == node) entries.emplace_back(lay.cap_col(p, i), -1.0);
      }
      for (int i = 0; i < lay.n_switches; ++i) {
        const ScSwitch& s = t.switches[static_cast<size_t>(i)];
        if (s.phase != p) continue;
        if (s.a == node) entries.emplace_back(lay.sw_col(i), 1.0);
        if (s.b == node) entries.emplace_back(lay.sw_col(i), -1.0);
      }
      if (node == kScVin && lay.q_in_col[p] >= 0) entries.emplace_back(lay.q_in_col[p], -1.0);
      if (node == kScVout && lay.q_out_col[p] >= 0) entries.emplace_back(lay.q_out_col[p], 1.0);
      if (!entries.empty()) add_row(std::move(entries), 0.0);
    }
  }
  for (int i = 0; i < lay.n_caps; ++i)
    add_row({{lay.cap_col(0, i), 1.0}, {lay.cap_col(1, i), 1.0}}, 0.0);
  {
    std::vector<std::pair<int, double>> entries;
    for (int p = 0; p < 2; ++p)
      if (lay.q_out_col[p] >= 0) entries.emplace_back(lay.q_out_col[p], 1.0);
    add_row(std::move(entries), 1.0);
  }

  Matrix<double> a(rows.size(), static_cast<size_t>(lay.n_cols));
  for (size_t r = 0; r < rows.size(); ++r)
    for (const auto& [c, v] : rows[r]) a(r, static_cast<size_t>(c)) += v;

  const std::vector<double> x = solve_min_norm(a, rhs);
  const double resid = residual_norm(a, x, rhs);
  if (resid > 1e-6)
    throw StructuralError("charge_vectors: inconsistent charge-flow system (residual " +
                          std::to_string(resid) + ") — topology cannot operate");

  ChargeVectors cv;
  cv.a_cap.resize(static_cast<size_t>(lay.n_caps));
  for (int i = 0; i < lay.n_caps; ++i)
    cv.a_cap[static_cast<size_t>(i)] =
        std::max(std::fabs(x[static_cast<size_t>(lay.cap_col(0, i))]),
                 std::fabs(x[static_cast<size_t>(lay.cap_col(1, i))]));
  cv.a_switch.resize(static_cast<size_t>(lay.n_switches));
  for (int i = 0; i < lay.n_switches; ++i)
    cv.a_switch[static_cast<size_t>(i)] = std::fabs(x[static_cast<size_t>(lay.sw_col(i))]);
  for (int p = 0; p < 2; ++p)
    if (lay.q_in_col[p] >= 0) cv.q_in += x[static_cast<size_t>(lay.q_in_col[p])];
  if (lay.q_out_col[0] >= 0) cv.q_out_phase_a = x[static_cast<size_t>(lay.q_out_col[0])];
  return cv;
}

// ---------------------------------------------------------------------------
// Memoized static analysis
// ---------------------------------------------------------------------------

namespace {

const ScStaticAnalysis& sc_static_analysis_cached(int n, int m, ScFamily family) {
  using Key = std::tuple<int, int, int>;
  // unique_ptr values keep entries at stable addresses; the map only grows.
  static std::mutex mutex;
  static std::map<Key, std::unique_ptr<const ScStaticAnalysis>> cache;

  const Key key{n, m, static_cast<int>(family)};
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return *it->second;
  }
  // Derive outside the lock: the solve is the expensive part, and deriving
  // the same triple twice on a race is harmless (first insert wins).
  auto fresh = std::make_unique<ScStaticAnalysis>();
  fresh->topo = make_topology(n, m, family);
  fresh->cv = charge_vectors(fresh->topo);
  fresh->stress = switch_stress_ratios(fresh->topo);
  std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = cache.try_emplace(key, std::move(fresh));
  (void)inserted;
  return *it->second;
}

}  // namespace

const ScStaticAnalysis& sc_static_analysis(int n, int m, ScFamily family) {
  if (family == ScFamily::Auto) family = m == 1 ? ScFamily::SeriesParallel : ScFamily::Ladder;
  // Injection point for the fault harness. The probe fires per *call* (not
  // per derivation) so injected behaviour is independent of cache warmth. In
  // EmitNan mode the NaN is folded into a thread-local copy, never into the
  // shared cache entry.
  const double injected = fault::inject("sc_static_analysis");
  const ScStaticAnalysis& clean = sc_static_analysis_cached(n, m, family);
  if (std::isnan(injected)) {
    thread_local ScStaticAnalysis poisoned;
    poisoned = clean;
    for (double& a : poisoned.cv.a_cap) a += injected;
    for (double& a : poisoned.cv.a_switch) a += injected;
    poisoned.cv.q_in += injected;
    return poisoned;
  }
  return clean;
}

// ---------------------------------------------------------------------------
// Ideal node ratios & switch stress
// ---------------------------------------------------------------------------

NodeRatios ideal_node_ratios(const ScTopology& t) {
  NodeRatios out;
  for (int p = 0; p < 2; ++p) {
    std::vector<std::vector<std::pair<int, double>>> rows;
    std::vector<double> rhs;
    auto add_row = [&](std::vector<std::pair<int, double>> entries, double b) {
      rows.push_back(std::move(entries));
      rhs.push_back(b);
    };
    add_row({{kScGnd, 1.0}}, 0.0);
    add_row({{kScVin, 1.0}}, 1.0);
    add_row({{kScVout, 1.0}}, t.ideal_ratio());
    for (const ScSwitch& s : t.switches)
      if (s.phase == p) add_row({{s.a, 1.0}, {s.b, -1.0}}, 0.0);
    for (const ScCap& c : t.caps) add_row({{c.pos, 1.0}, {c.neg, -1.0}}, c.ideal_v_ratio);

    Matrix<double> a(rows.size(), static_cast<size_t>(t.node_count));
    for (size_t r = 0; r < rows.size(); ++r)
      for (const auto& [cix, v] : rows[r]) a(r, static_cast<size_t>(cix)) += v;
    const std::vector<double> x = solve_min_norm(a, rhs);
    const double resid = residual_norm(a, x, rhs);
    if (resid > 1e-6)
      throw StructuralError("ideal_node_ratios: inconsistent topology (residual " +
                            std::to_string(resid) + ")");
    (p == 0 ? out.phase_a : out.phase_b) = x;
  }
  return out;
}

std::vector<double> switch_stress_ratios(const ScTopology& t) {
  const NodeRatios nr = ideal_node_ratios(t);
  std::vector<double> stress;
  stress.reserve(t.switches.size());
  for (const ScSwitch& s : t.switches) {
    // Blocking voltage appears in the phase the switch is OFF.
    const std::vector<double>& r = s.phase == 0 ? nr.phase_b : nr.phase_a;
    stress.push_back(std::fabs(r[static_cast<size_t>(s.a)] - r[static_cast<size_t>(s.b)]));
  }
  return stress;
}

// ---------------------------------------------------------------------------
// Netlist emission
// ---------------------------------------------------------------------------

namespace {

// Shared netlist emission; vref_v < 0 selects open-loop (plain time-clocked)
// switches, vref_v >= 0 gates every switch with a vout < vref comparator.
ScNetlistResult build_netlist_impl(spice::Circuit& c, const ScTopology& t,
                                   const ChargeVectors& cv, const spice::Waveform& vin_wave,
                                   double vref_v, double vhyst_v, double c_fly_tot, double g_tot,
                                   double f_sw, double c_out, double duty) {
  const double vin_v = vin_wave(0.0);
  require(vin_v > 0.0, "build_sc_netlist: vin(0) must be positive");
  require(c_fly_tot > 0.0 && g_tot > 0.0, "build_sc_netlist: c and g must be positive");
  require(f_sw > 0.0, "build_sc_netlist: f_sw must be positive");
  require(cv.a_cap.size() == t.caps.size() && cv.a_switch.size() == t.switches.size(),
          "build_sc_netlist: charge vectors do not match topology");

  // Map topology node ids onto circuit nodes.
  std::vector<spice::NodeId> node(static_cast<size_t>(t.node_count));
  node[kScGnd] = spice::kGround;
  node[kScVin] = c.node("sc_vin");
  node[kScVout] = c.node("sc_vout");
  for (int i = 3; i < t.node_count; ++i)
    node[static_cast<size_t>(i)] = c.node("sc_n" + std::to_string(i));

  c.add_vsource("sc_vsrc", node[kScVin], spice::kGround, vin_wave);

  // Capacitors sized proportionally to |a_c| (optimal SSL allocation), with a
  // small floor so zero-multiplier caps still exist physically.
  const double sum_ac = cv.sum_ac();
  require(sum_ac > 0.0, "build_sc_netlist: degenerate charge vectors");
  const double floor_weight = 0.02 * sum_ac / static_cast<double>(t.caps.size());
  double weight_total = 0.0;
  std::vector<double> weights(t.caps.size());
  for (size_t i = 0; i < t.caps.size(); ++i) {
    weights[i] = std::max(cv.a_cap[i], floor_weight);
    weight_total += weights[i];
  }
  for (size_t i = 0; i < t.caps.size(); ++i) {
    const ScCap& cap = t.caps[i];
    const double c_i = c_fly_tot * weights[i] / weight_total;
    c.add_capacitor_ic("sc_c" + std::to_string(i), node[static_cast<size_t>(cap.pos)],
                       node[static_cast<size_t>(cap.neg)], c_i, cap.ideal_v_ratio * vin_v);
  }

  // Switches sized proportionally to |a_r| (optimal FSL allocation).
  const double sum_ar = cv.sum_ar();
  const double sw_floor = 0.02 * sum_ar / static_cast<double>(t.switches.size());
  double g_weight_total = 0.0;
  std::vector<double> g_weights(t.switches.size());
  for (size_t i = 0; i < t.switches.size(); ++i) {
    g_weights[i] = std::max(cv.a_switch[i], sw_floor);
    g_weight_total += g_weights[i];
  }
  const spice::PhaseClock clk(f_sw, 2, duty);
  for (size_t i = 0; i < t.switches.size(); ++i) {
    const ScSwitch& s = t.switches[i];
    const double g_i = g_tot * g_weights[i] / g_weight_total;
    if (vref_v < 0.0) {
      c.add_switch("sc_s" + std::to_string(i), node[static_cast<size_t>(s.a)],
                   node[static_cast<size_t>(s.b)], 1.0 / g_i, 1e9, clk.phase(s.phase));
    } else {
      c.add_gated_switch("sc_s" + std::to_string(i), node[static_cast<size_t>(s.a)],
                         node[static_cast<size_t>(s.b)], 1.0 / g_i, 1e9, clk.phase(s.phase),
                         node[kScVout], spice::kGround, vref_v, vhyst_v);
    }
  }

  if (c_out > 0.0) {
    const double v0 = vref_v < 0.0 ? t.ideal_ratio() * vin_v
                                   : std::min(t.ideal_ratio() * vin_v, vref_v);
    c.add_capacitor_ic("sc_cout", node[kScVout], spice::kGround, c_out, v0);
  }
  return {node[kScVin], node[kScVout]};
}

}  // namespace

ScNetlistResult build_sc_netlist(spice::Circuit& c, const ScTopology& t, const ChargeVectors& cv,
                                 double vin_v, double c_fly_tot, double g_tot, double f_sw,
                                 double c_out, double duty) {
  return build_netlist_impl(c, t, cv, spice::Waveform::dc(vin_v), -1.0, 0.0, c_fly_tot, g_tot,
                            f_sw, c_out, duty);
}

ScNetlistResult build_sc_netlist_regulated(spice::Circuit& c, const ScTopology& t,
                                           const ChargeVectors& cv, spice::Waveform vin_wave,
                                           double vref_v, double vhyst_v, double c_fly_tot,
                                           double g_tot, double f_sw, double c_out, double duty) {
  require(vref_v > 0.0, "build_sc_netlist_regulated: vref must be positive");
  require(vhyst_v >= 0.0, "build_sc_netlist_regulated: hysteresis must be non-negative");
  return build_netlist_impl(c, t, cv, std::move(vin_wave), vref_v, vhyst_v, c_fly_tot, g_tot,
                            f_sw, c_out, duty);
}

}  // namespace ivory::core
