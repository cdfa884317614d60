#include "spice/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/metrics.hpp"
#include "common/sparse.hpp"
#include "common/trace.hpp"

namespace ivory::spice {

namespace {

// Row index of a non-ground node in the MNA system.
inline int nrow(NodeId n) { return n - 1; }

// The stamp helpers are generic over the accumulation target `M` — anything
// with add(row, col, value). Dense Matrix<T> and the sparse::SparseStamp
// triplet accumulator both qualify, so DC/transient assembly writes straight
// into sparse storage with no dense intermediate while AC keeps its dense
// complex matrix.

// Stamps a conductance between two nodes (either may be ground).
template <typename M, typename T>
void stamp_conductance(M& g, NodeId a, NodeId b, T gval) {
  if (a != kGround) g.add(static_cast<std::size_t>(nrow(a)), static_cast<std::size_t>(nrow(a)), gval);
  if (b != kGround) g.add(static_cast<std::size_t>(nrow(b)), static_cast<std::size_t>(nrow(b)), gval);
  if (a != kGround && b != kGround) {
    g.add(static_cast<std::size_t>(nrow(a)), static_cast<std::size_t>(nrow(b)), -gval);
    g.add(static_cast<std::size_t>(nrow(b)), static_cast<std::size_t>(nrow(a)), -gval);
  }
}

// Injects a current of `i` INTO node a and OUT of node b.
template <typename T>
void stamp_current(std::vector<T>& rhs, NodeId a, NodeId b, T i) {
  if (a != kGround) rhs[static_cast<std::size_t>(nrow(a))] += i;
  if (b != kGround) rhs[static_cast<std::size_t>(nrow(b))] -= i;
}

// Stamps a branch-current unknown at column/row m for a branch flowing from
// `a` to `b` (KCL coupling only; the branch equation row is the caller's
// responsibility).
template <typename M, typename T>
void stamp_branch_kcl(M& g, NodeId a, NodeId b, int m, T one) {
  if (a != kGround) {
    g.add(static_cast<std::size_t>(nrow(a)), static_cast<std::size_t>(m), one);
    g.add(static_cast<std::size_t>(m), static_cast<std::size_t>(nrow(a)), one);
  }
  if (b != kGround) {
    g.add(static_cast<std::size_t>(nrow(b)), static_cast<std::size_t>(m), -one);
    g.add(static_cast<std::size_t>(m), static_cast<std::size_t>(nrow(b)), -one);
  }
}

// Names the MNA unknown behind column `col` of the standard (non-UIC) system
// layout: node voltages, then vsource branch currents, then inductor branch
// currents. Used to enrich singular-matrix diagnostics.
std::string mna_unknown(const Circuit& c, std::size_t col) {
  const std::size_t nv = static_cast<std::size_t>(c.node_count() - 1);
  if (col < nv) return "node '" + c.node_name(static_cast<NodeId>(col + 1)) + "'";
  std::size_t k = col - nv;
  if (k < c.vsources().size())
    return "vsource '" + c.vsources()[k].name + "' branch current";
  k -= c.vsources().size();
  if (k < c.inductors().size())
    return "inductor '" + c.inductors()[k].name + "' branch current";
  return "unknown column " + std::to_string(col);
}

// Rethrows a singular-matrix failure with the offending MNA unknown named
// (and optional extra context), preserving the structured dim/pivot fields.
[[noreturn]] void rethrow_singular(const Circuit& c, const SingularMatrixError& e,
                                   const std::string& context) {
  throw SingularMatrixError(
      std::string(e.what()) + "; offending unknown: " + mna_unknown(c, e.pivot_col()) + context,
      e.dim(), e.pivot_col());
}

double switch_resistance(const Switch& s, bool closed) { return closed ? s.ron : s.roff; }

// Hysteretic voltage gates given node voltages and the previous gate state.
// Kind::Voltage closes when the control voltage rises above the threshold;
// Kind::TimeVoltage's gate asserts when it falls below (the enable-below
// comparator of hysteretic converter feedback).
bool gate_above(const Switch& s, const std::vector<double>& node_v, bool prev) {
  const double vc = node_v[static_cast<std::size_t>(s.cp)] -
                    node_v[static_cast<std::size_t>(s.cn)];
  if (prev) return vc > s.vth - 0.5 * s.vhyst;
  return vc > s.vth + 0.5 * s.vhyst;
}

bool gate_below(const Switch& s, const std::vector<double>& node_v, bool prev) {
  const double vc = node_v[static_cast<std::size_t>(s.cp)] -
                    node_v[static_cast<std::size_t>(s.cn)];
  if (prev) return vc < s.vth + 0.5 * s.vhyst;
  return vc < s.vth - 0.5 * s.vhyst;
}

// Combined closed state given the time part and the voltage-gate state.
bool switch_closed(const Switch& s, double t, bool vgate) {
  switch (s.kind) {
    case Switch::Kind::Time: return s.control(t);
    case Switch::Kind::Voltage: return vgate;
    case Switch::Kind::TimeVoltage: return s.control(t) && vgate;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// DC operating point
// ---------------------------------------------------------------------------

namespace {

// Stamps the DC system at the given switch states: capacitors open,
// inductors shorted, sources at t = 0.
void stamp_dc(const Circuit& c, const std::vector<bool>& sw_closed, sparse::SparseStamp& stamp,
              std::vector<double>& rhs) {
  stamp.reset();
  rhs.assign(static_cast<std::size_t>(c.mna_size()), 0.0);
  for (const Resistor& r : c.resistors()) stamp_conductance(stamp, r.a, r.b, 1.0 / r.ohms);
  for (std::size_t k = 0; k < c.switches().size(); ++k) {
    const Switch& s = c.switches()[k];
    stamp_conductance(stamp, s.a, s.b, 1.0 / switch_resistance(s, sw_closed[k]));
  }
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const VSource& v = c.vsources()[k];
    const int m = c.vsource_current_index(static_cast<int>(k));
    stamp_branch_kcl(stamp, v.pos, v.neg, m, 1.0);
    rhs[static_cast<std::size_t>(m)] = v.wave(0.0);
  }
  for (std::size_t k = 0; k < c.inductors().size(); ++k) {
    const Inductor& l = c.inductors()[k];
    const int m = c.inductor_current_index(static_cast<int>(k));
    stamp_branch_kcl(stamp, l.a, l.b, m, 1.0);  // Branch row: v_a - v_b = 0 (short).
  }
  for (const ISource& i : c.isources()) stamp_current(rhs, i.neg, i.pos, i.wave(0.0));
}

// Switch states at t = 0 with every voltage gate open: where the operating
// point's fixed-point iteration starts.
std::vector<bool> initial_switch_states(const Circuit& c) {
  std::vector<bool> sw_closed(c.switches().size(), false);
  for (std::size_t k = 0; k < c.switches().size(); ++k)
    sw_closed[k] = switch_closed(c.switches()[k], 0.0, false);
  return sw_closed;
}

// The operating point solve behind dc_operating_point; also hands back the
// structural analysis it used, which the transient stepping loop reuses when
// its matrix has the same pattern.
DcResult solve_operating_point(const Circuit& c, sparse::Kernel kernel,
                               std::shared_ptr<const sparse::Symbolic>& sym) {
  const int size = c.mna_size();
  require(size > 0, "dc_operating_point: empty circuit");

  std::vector<bool> vgate(c.switches().size(), false);
  std::vector<bool> sw_closed = initial_switch_states(c);

  // Sparse stamp + structural analysis shared across the fixed-point
  // iterations: switch-state changes move values, never positions.
  sparse::SparseStamp stamp(static_cast<std::size_t>(size));
  sparse::CscMatrix csc;
  sym.reset();

  std::vector<double> x, rhs;
  // Fixed-point iteration over voltage-controlled switch states.
  for (int iter = 0;; ++iter) {
    stamp_dc(c, sw_closed, stamp, rhs);
    sparse::compress(stamp, csc);
    if (!sym) sym = sparse::analyze(csc, kernel);
    try {
      x = sparse::MnaFactorization(csc, sym).solve(rhs);
    } catch (const SingularMatrixError& e) {
      rethrow_singular(c, e, " (dc_operating_point)");
    }

    std::vector<double> node_v(static_cast<std::size_t>(c.node_count()), 0.0);
    for (int n = 1; n < c.node_count(); ++n)
      node_v[static_cast<std::size_t>(n)] = x[static_cast<std::size_t>(nrow(n))];

    bool changed = false;
    for (std::size_t k = 0; k < c.switches().size(); ++k) {
      const Switch& s = c.switches()[k];
      if (s.kind == Switch::Kind::Time) continue;
      const bool next_gate = s.kind == Switch::Kind::Voltage
                                 ? gate_above(s, node_v, vgate[k])
                                 : gate_below(s, node_v, vgate[k]);
      vgate[k] = next_gate;
      const bool next = switch_closed(s, 0.0, next_gate);
      if (next != sw_closed[k]) {
        sw_closed[k] = next;
        changed = true;
      }
    }
    if (!changed) {
      DcResult res;
      res.node_v = std::move(node_v);
      for (std::size_t k = 0; k < c.vsources().size(); ++k)
        res.vsource_i.push_back(
            x[static_cast<std::size_t>(c.vsource_current_index(static_cast<int>(k)))]);
      for (std::size_t k = 0; k < c.inductors().size(); ++k)
        res.inductor_i.push_back(
            x[static_cast<std::size_t>(c.inductor_current_index(static_cast<int>(k)))]);
      return res;
    }
    if (iter >= 64)
      throw NumericalError("dc_operating_point: voltage-controlled switches did not settle");
  }
}

}  // namespace

DcResult dc_operating_point(const Circuit& c, sparse::Kernel kernel) {
  std::shared_ptr<const sparse::Symbolic> sym;
  return solve_operating_point(c, kernel, sym);
}

sparse::CscMatrix dc_matrix(const Circuit& c) {
  require(c.mna_size() > 0, "dc_matrix: empty circuit");
  sparse::SparseStamp stamp(static_cast<std::size_t>(c.mna_size()));
  std::vector<double> rhs;
  stamp_dc(c, initial_switch_states(c), stamp, rhs);
  sparse::CscMatrix csc;
  sparse::compress(stamp, csc);
  return csc;
}

// ---------------------------------------------------------------------------
// Transient
// ---------------------------------------------------------------------------

const std::vector<double>& TranResult::at(NodeId n) const {
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (nodes[i] == n) return voltages[i];
  throw InvalidParameter("TranResult: node was not recorded");
}

namespace {

struct TranState {
  std::vector<double> node_v;   // Indexed by NodeId, ground included.
  std::vector<double> cap_vab;  // Per capacitor.
  std::vector<double> cap_i;    // Per capacitor (trapezoidal memory).
  std::vector<double> ind_j;    // Per inductor.
  std::vector<double> ind_vab;  // Per inductor (trapezoidal memory).
  std::vector<bool> sw_closed;  // Per switch: combined closed state.
  std::vector<bool> sw_vgate;   // Per switch: hysteretic voltage-gate state.
};

// Initial conditions: DC operating point by default, or a consistent solve
// honouring explicit ICs (caps as fixed voltage sources, inductors as fixed
// current sources) for UIC runs. Both solve with the run's kernel, and
// `dc_sym` receives the operating point's structural analysis (null for UIC
// runs).
TranState initial_state(const Circuit& c, bool use_ic, sparse::Kernel kernel,
                        std::shared_ptr<const sparse::Symbolic>& dc_sym) {
  TranState st;
  st.node_v.assign(static_cast<std::size_t>(c.node_count()), 0.0);
  st.cap_vab.assign(c.capacitors().size(), 0.0);
  st.cap_i.assign(c.capacitors().size(), 0.0);
  st.ind_j.assign(c.inductors().size(), 0.0);
  st.ind_vab.assign(c.inductors().size(), 0.0);
  st.sw_closed = initial_switch_states(c);
  st.sw_vgate.assign(c.switches().size(), false);

  if (!use_ic) {
    const DcResult op = solve_operating_point(c, kernel, dc_sym);
    st.node_v = op.node_v;
    for (std::size_t k = 0; k < c.capacitors().size(); ++k) {
      const Capacitor& cap = c.capacitors()[k];
      st.cap_vab[k] = op.voltage(cap.a) - op.voltage(cap.b);
    }
    st.ind_j = op.inductor_i;
    for (std::size_t k = 0; k < c.switches().size(); ++k) {
      const Switch& s = c.switches()[k];
      if (s.kind == Switch::Kind::Time) continue;
      st.sw_vgate[k] = s.kind == Switch::Kind::Voltage ? gate_above(s, st.node_v, false)
                                                       : gate_below(s, st.node_v, false);
      st.sw_closed[k] = switch_closed(s, 0.0, st.sw_vgate[k]);
    }
    return st;
  }

  // UIC: solve the resistive network with every capacitor pinned to its
  // initial voltage (0 V when unspecified, matching SPICE UIC semantics) and
  // inductors injecting i0. Falls back to all-zero voltages when the network
  // is singular (e.g. conflicting source loops).
  const int nv = c.node_count() - 1;
  const int extra = static_cast<int>(c.capacitors().size());
  const int size = nv + static_cast<int>(c.vsources().size()) + extra;
  try {
    sparse::SparseStamp stamp(static_cast<std::size_t>(size));
    std::vector<double> rhs(static_cast<std::size_t>(size), 0.0);
    for (const Resistor& r : c.resistors()) stamp_conductance(stamp, r.a, r.b, 1.0 / r.ohms);
    for (std::size_t k = 0; k < c.switches().size(); ++k) {
      const Switch& s = c.switches()[k];
      stamp_conductance(stamp, s.a, s.b, 1.0 / switch_resistance(s, st.sw_closed[k]));
    }
    for (std::size_t k = 0; k < c.vsources().size(); ++k) {
      const VSource& v = c.vsources()[k];
      const int m = nv + static_cast<int>(k);
      stamp_branch_kcl(stamp, v.pos, v.neg, m, 1.0);
      rhs[static_cast<std::size_t>(m)] = v.wave(0.0);
    }
    int m = nv + static_cast<int>(c.vsources().size());
    for (const Capacitor& cap : c.capacitors()) {
      stamp_branch_kcl(stamp, cap.a, cap.b, m, 1.0);
      rhs[static_cast<std::size_t>(m)] = cap.use_ic ? cap.v0 : 0.0;
      ++m;
    }
    for (std::size_t k = 0; k < c.inductors().size(); ++k) {
      const Inductor& l = c.inductors()[k];
      stamp_current(rhs, l.b, l.a, l.use_ic ? l.i0 : 0.0);
    }
    for (const ISource& i : c.isources()) stamp_current(rhs, i.neg, i.pos, i.wave(0.0));

    sparse::CscMatrix csc;
    sparse::compress(stamp, csc);
    const std::vector<double> x =
        sparse::MnaFactorization(csc, sparse::analyze(csc, kernel)).solve(rhs);
    for (int n = 1; n < c.node_count(); ++n)
      st.node_v[static_cast<std::size_t>(n)] = x[static_cast<std::size_t>(nrow(n))];
  } catch (const NumericalError&) {
    // Keep zeros; explicit ICs below still seed the reactive elements.
  }

  for (std::size_t k = 0; k < c.capacitors().size(); ++k) {
    const Capacitor& cap = c.capacitors()[k];
    st.cap_vab[k] = cap.use_ic
                        ? cap.v0
                        : st.node_v[static_cast<std::size_t>(cap.a)] -
                              st.node_v[static_cast<std::size_t>(cap.b)];
  }
  for (std::size_t k = 0; k < c.inductors().size(); ++k)
    st.ind_j[k] = c.inductors()[k].use_ic ? c.inductors()[k].i0 : 0.0;
  for (std::size_t k = 0; k < c.switches().size(); ++k) {
    const Switch& s = c.switches()[k];
    if (s.kind == Switch::Kind::Time) continue;
    st.sw_vgate[k] = s.kind == Switch::Kind::Voltage ? gate_above(s, st.node_v, false)
                                                     : gate_below(s, st.node_v, false);
    st.sw_closed[k] = switch_closed(s, 0.0, st.sw_vgate[k]);
  }
  return st;
}

// Identity of one transient conductance matrix. The stamped matrix is fully
// determined by (step size, integrator, switch states): every other
// contribution — resistors, capacitances, inductances, branch topology — is
// constant over a run. Keying on the exact bit pattern of h keeps cache hits
// byte-identical: a hit can only replay the factorization the same matrix
// would have produced.
struct FactorKey {
  std::uint64_t h_bits = 0;
  bool be = false;
  std::uint64_t sw_mask = 0;           ///< Packed switch states (<= 64 switches).
  std::vector<std::uint64_t> sw_wide;  ///< Fallback words above 64 switches.

  friend bool operator==(const FactorKey& a, const FactorKey& b) {
    return a.h_bits == b.h_bits && a.be == b.be && a.sw_mask == b.sw_mask &&
           a.sw_wide == b.sw_wide;
  }
};

inline std::uint64_t double_bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Packs the per-step configuration into `key`, reusing its storage (the wide
// fallback reassigns in place, so steady-state stepping stays allocation-free).
void pack_factor_key(FactorKey& key, double h, bool be, const std::vector<bool>& sw_closed) {
  key.h_bits = double_bits(h);
  key.be = be;
  const std::size_t n = sw_closed.size();
  if (n <= 64) {
    std::uint64_t m = 0;
    for (std::size_t k = 0; k < n; ++k)
      if (sw_closed[k]) m |= std::uint64_t{1} << k;
    key.sw_mask = m;
    key.sw_wide.clear();
    return;
  }
  key.sw_mask = 0;
  key.sw_wide.assign((n + 63) / 64, 0);
  for (std::size_t k = 0; k < n; ++k)
    if (sw_closed[k]) key.sw_wide[k / 64] |= std::uint64_t{1} << (k % 64);
}

// Bounded LRU over keyed factorizations. Linear scan: capacities are single
// digits (one entry per distinct phase configuration), so a scan beats any
// hashed structure and keeps eviction exact.
class FactorCache {
 public:
  explicit FactorCache(std::size_t capacity) : capacity_(capacity) {
    entries_.reserve(std::min<std::size_t>(capacity, 64));
  }

  /// Returns the resident factorization for `key` (refreshing its LRU stamp)
  /// or nullptr. The pointer is valid until the next insert().
  ///
  /// MRU fast path: consecutive steps overwhelmingly repeat the previous
  /// configuration, and the most recently returned entry already carries the
  /// maximum stamp — so a repeat costs one key compare, no scan, no stamp
  /// bump.
  sparse::MnaFactorization* find(const FactorKey& key) {
    if (mru_ < entries_.size() && entries_[mru_].key == key) return &entries_[mru_].lu;
    for (std::size_t i = 0; i < entries_.size(); ++i)
      if (entries_[i].key == key) {
        entries_[i].stamp = ++clock_;
        mru_ = i;
        return &entries_[i].lu;
      }
    return nullptr;
  }

  /// Inserts a freshly built factorization, displacing the least recently
  /// used entry when full. Returns the resident copy.
  sparse::MnaFactorization* insert(const FactorKey& key, sparse::MnaFactorization lu,
                                   std::size_t* evictions) {
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{key, std::move(lu), ++clock_});
      mru_ = entries_.size() - 1;
      return &entries_.back().lu;
    }
    std::size_t victim = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i)
      if (entries_[i].stamp < entries_[victim].stamp) victim = i;
    entries_[victim] = Entry{key, std::move(lu), ++clock_};
    mru_ = victim;
    ++*evictions;
    return &entries_[victim].lu;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    FactorKey key;
    sparse::MnaFactorization lu;
    std::uint64_t stamp;
  };
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::size_t mru_ = static_cast<std::size_t>(-1);  ///< Index of the last entry returned.
  std::vector<Entry> entries_;
};

}  // namespace

TranResult transient(const Circuit& c, const TranSpec& spec) {
  IVORY_TRACE("spice.transient");
  require(spec.dt > 0.0, "transient: dt must be positive");
  require(spec.tstop > spec.dt, "transient: tstop must exceed dt");
  require(spec.record_every >= 1, "transient: record_every must be >= 1");

  const int size = c.mna_size();
  require(size > 0, "transient: empty circuit");

  // Structural analysis shared across every same-pattern numeric
  // factorization: the operating point's, when the stepping matrix has its
  // pattern (grids whose capacitors all go to ground).
  std::shared_ptr<const sparse::Symbolic> sym;
  TranState st = initial_state(c, spec.use_ic, spec.kernel, sym);

  TranResult res;
  res.nodes = spec.record_nodes;
  if (res.nodes.empty())
    for (int n = 1; n < c.node_count(); ++n) res.nodes.push_back(n);
  res.voltages.assign(res.nodes.size(), {});

  // Hoisted scratch row for the streaming sink: the record path stays
  // allocation-free either way.
  std::vector<double> sink_row(spec.sample_sink ? res.nodes.size() : 0);
  auto record = [&](double t) {
    if (spec.sample_sink) {
      for (std::size_t i = 0; i < res.nodes.size(); ++i)
        sink_row[i] = st.node_v[static_cast<std::size_t>(res.nodes[i])];
      spec.sample_sink(t, sink_row.data(), sink_row.size());
      return;
    }
    res.time.push_back(t);
    for (std::size_t i = 0; i < res.nodes.size(); ++i)
      res.voltages[i].push_back(st.node_v[static_cast<std::size_t>(res.nodes[i])]);
  };
  record(0.0);

  require(spec.lu_cache_capacity >= 0, "transient: lu_cache_capacity must be >= 0");
  const std::size_t cache_capacity = static_cast<std::size_t>(spec.lu_cache_capacity);
  FactorCache cache(cache_capacity);
  std::optional<sparse::MnaFactorization> uncached;  // Capacity-0 (disabled) path.
  FactorKey key;  // Scratch, reused every step.

  // Sparse stamping state, hoisted: the triplet accumulator and CSC buffer
  // reuse their storage across refactorizations, and the structural analysis
  // (kernel choice + orderings, `sym` above) is computed once per sparsity
  // pattern — switch-state and step-size changes move matrix values, never
  // positions.
  sparse::SparseStamp stamp(static_cast<std::size_t>(size));
  sparse::CscMatrix csc;

  // Hoisted per-step buffers: the steady-state loop below performs no heap
  // allocation (vector assignments reuse capacity after the first step).
  std::vector<double> rhs(static_cast<std::size_t>(size), 0.0);
  std::vector<double> x(static_cast<std::size_t>(size), 0.0);
  std::vector<bool> sw_closed_before;
  std::vector<bool> sw_vgate_before;

  double t = 0.0;
  std::size_t step_index = 0;
  bool first_step = true;
  const double tend = spec.tstop * (1.0 - 1e-12);

  // Adaptive (delta-V limited) stepping state: h_base grows/shrinks between
  // spec.dt and h_cap; fixed-step runs keep h_base == spec.dt forever.
  require(!spec.adaptive || spec.dv_max_v > 0.0, "transient: dv_max must be positive");
  const double h_cap =
      spec.adaptive ? (spec.dt_max > 0.0 ? spec.dt_max : 100.0 * spec.dt) : spec.dt;
  require(h_cap >= spec.dt, "transient: dt_max must be >= dt");
  double h_base = spec.dt;

  while (t < tend) {
    double h = h_base;
    if (spec.align_to_switch_edges) {
      // Floor on the shortened step: an edge a few ULP past t (floating-point
      // residue of landing exactly on a previous edge) must count as already
      // taken, or h collapses toward zero and the companion conductances
      // blow up.
      const double h_floor = std::max(spec.dt * 1e-6,
                                      8.0 * std::numeric_limits<double>::epsilon() * t);
      for (const Switch& s : c.switches()) {
        if (!s.next_edge) continue;
        const double e = s.next_edge(t);
        if (e > t + h_floor && e < t + h) h = e - t;
      }
    }
    if (t + h > spec.tstop) h = spec.tstop - t;
    if (h < spec.dt * 1e-6) break;  // Reached tstop up to floating-point residue.
    const double tm = t + h;

    // Switch states for this step: time switches sampled at the midpoint
    // (steps land on edges, so the midpoint is inside a single phase);
    // voltage-controlled switches from the previous accepted solution.
    // Snapshots allow a rejected adaptive step to roll back cleanly.
    sw_closed_before = st.sw_closed;
    sw_vgate_before = st.sw_vgate;
    bool states_changed = first_step;
    for (std::size_t k = 0; k < c.switches().size(); ++k) {
      const Switch& s = c.switches()[k];
      if (s.kind != Switch::Kind::Time) {
        st.sw_vgate[k] = s.kind == Switch::Kind::Voltage
                             ? gate_above(s, st.node_v, st.sw_vgate[k])
                             : gate_below(s, st.node_v, st.sw_vgate[k]);
      }
      const bool next = switch_closed(s, t + 0.5 * h, st.sw_vgate[k]);
      if (next != static_cast<bool>(st.sw_closed[k])) {
        st.sw_closed[k] = next;
        states_changed = true;
      }
    }

    // One BE step after every discontinuity avoids trapezoidal ringing.
    const bool use_be = spec.method == Integrator::BackwardEuler || first_step || states_changed;

    // Factorization lookup: the matrix is determined by (h, integrator,
    // switch states), so the keyed cache factors once per distinct
    // configuration and replays it on every later step with the same key.
    pack_factor_key(key, h, use_be, st.sw_closed);
    sparse::MnaFactorization* lu =
        cache_capacity > 0 ? cache.find(key) : nullptr;
    if (lu != nullptr) {
      ++res.lu_cache_hits;
    } else {
      stamp.reset();
      for (const Resistor& r : c.resistors()) stamp_conductance(stamp, r.a, r.b, 1.0 / r.ohms);
      for (std::size_t k = 0; k < c.switches().size(); ++k) {
        const Switch& s = c.switches()[k];
        stamp_conductance(stamp, s.a, s.b, 1.0 / switch_resistance(s, st.sw_closed[k]));
      }
      for (std::size_t k = 0; k < c.capacitors().size(); ++k) {
        const Capacitor& cap = c.capacitors()[k];
        const double gc = (use_be ? 1.0 : 2.0) * cap.farads / h;
        stamp_conductance(stamp, cap.a, cap.b, gc);
      }
      for (std::size_t k = 0; k < c.vsources().size(); ++k) {
        const VSource& v = c.vsources()[k];
        stamp_branch_kcl(stamp, v.pos, v.neg, c.vsource_current_index(static_cast<int>(k)), 1.0);
      }
      for (std::size_t k = 0; k < c.inductors().size(); ++k) {
        const Inductor& l = c.inductors()[k];
        const int m = c.inductor_current_index(static_cast<int>(k));
        stamp_branch_kcl(stamp, l.a, l.b, m, 1.0);
        stamp.add(static_cast<std::size_t>(m), static_cast<std::size_t>(m),
                  -(use_be ? 1.0 : 2.0) * l.henries / h);
      }
      sparse::compress(stamp, csc);
      if (!sym || csc.pattern_hash() != sym->pattern_hash) {
        sym = sparse::analyze(csc, spec.kernel);
        ++res.symbolic_analyses;
      } else if (res.symbolic_analyses == 0) {
        ++res.symbolic_analyses;  // The operating point's analysis, reused.
      }
      try {
        if (cache_capacity > 0) {
          lu = cache.insert(key, sparse::MnaFactorization(csc, sym),
                            &res.lu_cache_evictions);
        } else {
          uncached.emplace(csc, sym);
          lu = &*uncached;
        }
      } catch (const SingularMatrixError& e) {
        rethrow_singular(c, e, " (transient at t=" + std::to_string(t) +
                                   ", h=" + std::to_string(h) + ")");
      } catch (const NumericalError& e) {
        throw NumericalError(std::string(e.what()) + " (transient at t=" + std::to_string(t) +
                             ", h=" + std::to_string(h) + ")");
      }
      ++res.lu_factorizations;
      res.factor_nnz = lu->factor_nnz();
      if (res.kernel.empty()) res.kernel = sparse::kernel_name(lu->kernel());
    }
    res.max_resident_factorizations =
        std::max(res.max_resident_factorizations,
                 cache_capacity > 0 ? cache.size() : std::size_t{1});

    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (std::size_t k = 0; k < c.capacitors().size(); ++k) {
      const Capacitor& cap = c.capacitors()[k];
      const double gc = (use_be ? 1.0 : 2.0) * cap.farads / h;
      const double ieq = use_be ? gc * st.cap_vab[k] : gc * st.cap_vab[k] + st.cap_i[k];
      stamp_current(rhs, cap.a, cap.b, ieq);
    }
    for (std::size_t k = 0; k < c.vsources().size(); ++k) {
      const VSource& v = c.vsources()[k];
      rhs[static_cast<std::size_t>(c.vsource_current_index(static_cast<int>(k)))] = v.wave(tm);
    }
    for (std::size_t k = 0; k < c.inductors().size(); ++k) {
      const Inductor& l = c.inductors()[k];
      const int m = c.inductor_current_index(static_cast<int>(k));
      const double zl = (use_be ? 1.0 : 2.0) * l.henries / h;
      rhs[static_cast<std::size_t>(m)] =
          use_be ? -zl * st.ind_j[k] : -zl * st.ind_j[k] - st.ind_vab[k];
    }
    for (const ISource& i : c.isources()) stamp_current(rhs, i.neg, i.pos, i.wave(tm));

    lu->solve_into(rhs, x);

    if (spec.adaptive) {
      double dv = 0.0;
      for (int n = 1; n < c.node_count(); ++n)
        dv = std::max(dv, std::fabs(x[static_cast<std::size_t>(nrow(n))] -
                                    st.node_v[static_cast<std::size_t>(n)]));
      if (dv > spec.dv_max_v && h > spec.dt * 1.0001) {
        // Reject: restore switch states, shrink, retry the same instant.
        st.sw_closed = sw_closed_before;
        st.sw_vgate = sw_vgate_before;
        h_base = std::max(spec.dt, 0.5 * h);
        continue;
      }
      if (states_changed)
        h_base = spec.dt;  // Re-resolve fast dynamics after a switch event.
      else if (dv < 0.3 * spec.dv_max_v)
        h_base = std::min(h_cap, 1.5 * h_base);
    }

    for (int n = 1; n < c.node_count(); ++n)
      st.node_v[static_cast<std::size_t>(n)] = x[static_cast<std::size_t>(nrow(n))];
    for (std::size_t k = 0; k < c.capacitors().size(); ++k) {
      const Capacitor& cap = c.capacitors()[k];
      const double vab = st.node_v[static_cast<std::size_t>(cap.a)] -
                         st.node_v[static_cast<std::size_t>(cap.b)];
      const double gc = (use_be ? 1.0 : 2.0) * cap.farads / h;
      st.cap_i[k] = use_be ? gc * (vab - st.cap_vab[k]) : gc * (vab - st.cap_vab[k]) - st.cap_i[k];
      st.cap_vab[k] = vab;
    }
    for (std::size_t k = 0; k < c.inductors().size(); ++k) {
      const Inductor& l = c.inductors()[k];
      const int m = c.inductor_current_index(static_cast<int>(k));
      st.ind_j[k] = x[static_cast<std::size_t>(m)];
      st.ind_vab[k] = st.node_v[static_cast<std::size_t>(l.a)] -
                      st.node_v[static_cast<std::size_t>(l.b)];
    }

    t = tm;
    ++step_index;
    ++res.steps_taken;
    first_step = false;
    if (step_index % static_cast<std::size_t>(spec.record_every) == 0) record(t);
  }

  // Fold the run's counters onto the process registry once, here — the
  // stepping loop above stays metrics-free, and the TranResult fields remain
  // the per-run snapshot API (the registry holds process-lifetime totals).
  {
    static metrics::Counter& runs = metrics::registry().counter("spice.tran.runs");
    static metrics::Counter& steps = metrics::registry().counter("spice.tran.steps");
    static metrics::Counter& factorizations =
        metrics::registry().counter("spice.tran.lu_factorizations");
    static metrics::Counter& hits = metrics::registry().counter("spice.tran.lu_cache_hits");
    static metrics::Counter& evictions =
        metrics::registry().counter("spice.tran.lu_cache_evictions");
    runs.add();
    steps.add(res.steps_taken);
    factorizations.add(res.lu_factorizations);
    hits.add(res.lu_cache_hits);
    evictions.add(res.lu_cache_evictions);
    metrics::registry()
        .gauge("spice.tran.max_resident_factorizations")
        .set_max(static_cast<std::int64_t>(res.max_resident_factorizations));
    // Sparse-kernel observability: per-kernel factorization/solve counts, the
    // symbolic-analysis count (reuse means this stays at runs, not
    // factorizations), and the fill-in high-water mark.
    // The kernel names are a closed set, so the registry lookups are
    // function-local statics (registered once, then lock-free adds): short
    // grid runs must not pay string building + a mutexed lookup per run.
    if (!res.kernel.empty()) {
      struct LuCounters {
        metrics::Counter& factorizations;
        metrics::Counter& solves;
      };
      static LuCounters dense{metrics::registry().counter("ivory.lu.dense.factorizations"),
                              metrics::registry().counter("ivory.lu.dense.solves")};
      static LuCounters banded{metrics::registry().counter("ivory.lu.banded.factorizations"),
                               metrics::registry().counter("ivory.lu.banded.solves")};
      static LuCounters sparse_lu{metrics::registry().counter("ivory.lu.sparse.factorizations"),
                                  metrics::registry().counter("ivory.lu.sparse.solves")};
      static metrics::Counter& symbolic =
          metrics::registry().counter("ivory.lu.symbolic_analyses");
      static metrics::Gauge& fill = metrics::registry().gauge("ivory.lu.fill_nnz");
      const sparse::Kernel kernel = sparse::kernel_from_string(res.kernel);
      LuCounters& by_kernel = kernel == sparse::Kernel::Banded   ? banded
                              : kernel == sparse::Kernel::Sparse ? sparse_lu
                                                                 : dense;
      by_kernel.factorizations.add(res.lu_factorizations);
      by_kernel.solves.add(res.steps_taken);
      symbolic.add(res.symbolic_analyses);
      fill.set_max(static_cast<std::int64_t>(res.factor_nnz));
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// AC analysis
// ---------------------------------------------------------------------------

const std::vector<std::complex<double>>& AcResult::at(NodeId n) const {
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (nodes[i] == n) return response[i];
  throw InvalidParameter("AcResult: node was not recorded");
}

AcResult ac_analysis(const Circuit& c, const std::vector<double>& freqs_hz,
                     std::vector<NodeId> record_nodes) {
  require(!freqs_hz.empty(), "ac_analysis: need at least one frequency");
  const int size = c.mna_size();
  require(size > 0, "ac_analysis: empty circuit");

  // Freeze switch states at the operating point.
  std::vector<bool> sw_closed(c.switches().size(), false);
  {
    const DcResult op = dc_operating_point(c);
    for (std::size_t k = 0; k < c.switches().size(); ++k) {
      const Switch& s = c.switches()[k];
      const bool vgate = s.kind == Switch::Kind::Voltage  ? gate_above(s, op.node_v, false)
                         : s.kind == Switch::Kind::TimeVoltage ? gate_below(s, op.node_v, false)
                                                               : false;
      sw_closed[k] = switch_closed(s, 0.0, vgate);
    }
  }

  AcResult res;
  res.freq_hz = freqs_hz;
  res.nodes = std::move(record_nodes);
  if (res.nodes.empty())
    for (int n = 1; n < c.node_count(); ++n) res.nodes.push_back(n);
  res.response.assign(res.nodes.size(), {});

  using C = std::complex<double>;
  for (double f : freqs_hz) {
    require(f > 0.0, "ac_analysis: frequencies must be positive");
    const C jw(0.0, 2.0 * 3.14159265358979323846 * f);
    Matrix<C> g(static_cast<std::size_t>(size), static_cast<std::size_t>(size));
    std::vector<C> rhs(static_cast<std::size_t>(size), C{});

    for (const Resistor& r : c.resistors()) stamp_conductance(g, r.a, r.b, C{1.0 / r.ohms});
    for (std::size_t k = 0; k < c.switches().size(); ++k) {
      const Switch& s = c.switches()[k];
      stamp_conductance(g, s.a, s.b, C{1.0 / switch_resistance(s, sw_closed[k])});
    }
    for (const Capacitor& cap : c.capacitors()) stamp_conductance(g, cap.a, cap.b, jw * cap.farads);
    for (std::size_t k = 0; k < c.vsources().size(); ++k) {
      const VSource& v = c.vsources()[k];
      const int m = c.vsource_current_index(static_cast<int>(k));
      stamp_branch_kcl(g, v.pos, v.neg, m, C{1.0});
      rhs[static_cast<std::size_t>(m)] = C{v.wave.ac_magnitude()};
    }
    for (std::size_t k = 0; k < c.inductors().size(); ++k) {
      const Inductor& l = c.inductors()[k];
      const int m = c.inductor_current_index(static_cast<int>(k));
      stamp_branch_kcl(g, l.a, l.b, m, C{1.0});
      g(m, m) -= jw * l.henries;
    }
    for (const ISource& i : c.isources())
      stamp_current(rhs, i.neg, i.pos, C{i.wave.ac_magnitude()});

    const std::vector<C> x = solve_linear(std::move(g), rhs);
    for (std::size_t i = 0; i < res.nodes.size(); ++i) {
      const NodeId n = res.nodes[i];
      res.response[i].push_back(n == kGround ? C{} : x[static_cast<std::size_t>(nrow(n))]);
    }
  }
  return res;
}

std::vector<double> log_frequencies(double lo_hz, double hi_hz, int n) {
  require(lo_hz > 0.0 && hi_hz > lo_hz, "log_frequencies: need 0 < lo < hi");
  require(n >= 2, "log_frequencies: need n >= 2");
  std::vector<double> out(static_cast<std::size_t>(n));
  const double llo = std::log10(lo_hz), lhi = std::log10(hi_hz);
  for (int i = 0; i < n; ++i)
    out[static_cast<std::size_t>(i)] =
        std::pow(10.0, llo + (lhi - llo) * static_cast<double>(i) / (n - 1));
  return out;
}

}  // namespace ivory::spice
