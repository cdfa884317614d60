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

// Combined closed state given the clock phase's state and the voltage-gate
// state.
bool switch_closed(const Switch& s, bool clocked, bool vgate) {
  switch (s.kind) {
    case Switch::Kind::Time: return clocked;
    case Switch::Kind::Voltage: return vgate;
    case Switch::Kind::TimeVoltage: return clocked && vgate;
  }
  return false;
}

// The clock phase's state at t = 0: what the operating point, the AC sweep
// and the initial conditions see.
bool clocked_at_zero(const Switch& s) { return s.drive && s.drive->closed(0.0); }

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
    sw_closed[k] = switch_closed(c.switches()[k], clocked_at_zero(c.switches()[k]), false);
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
      const bool next = switch_closed(s, clocked_at_zero(s), next_gate);
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
      st.sw_closed[k] = switch_closed(s, clocked_at_zero(s), st.sw_vgate[k]);
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
    st.sw_closed[k] = switch_closed(s, clocked_at_zero(s), st.sw_vgate[k]);
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

// Bounded LRU over keyed factorizations. Linear scan: capacities are small
// (one entry per distinct phase configuration; default 16, at most 64), so a
// scan beats any hashed structure and keeps eviction exact.
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

// One clock period's time base: a cycle count, the in-period offset at
// which the next step starts and the next edge of any phase on that period.
// A step never crosses an edge; it is shortened to land on it, and the
// landing sets the offset to the edge's own in-period value (the period end
// wraps it to 0 and counts a cycle). Offsets therefore restart from the same
// values every period, so every period repeats the same step sizes bit for
// bit and the keyed LU cache factors each configuration once per run.
struct ClockFrame {
  double period = 0.0;
  std::vector<double> edges;  ///< Distinct in-period edges in (0, period], ascending.
  std::size_t next = 0;       ///< Index of the next edge.
  double offset = 0.0;        ///< In-period offset of the next step's start.
  std::uint64_t cycles = 0;   ///< Completed periods.

  double to_edge() const { return edges[next] - offset; }

  /// Absolute time of the next step's start.
  double time() const { return static_cast<double>(cycles) * period + offset; }

  void land() {
    const bool wraps = next + 1 == edges.size();
    offset = wraps ? 0.0 : edges[next];
    next = wraps ? 0 : next + 1;
    cycles += wraps ? 1 : 0;
  }

  /// Advances past an accepted step of `h` (never more than to_edge()).
  /// An edge within `floor` of where the step ends counts as reached: the
  /// step was meant to land on it and only rounding kept it short. Returns
  /// true when the frame landed on at least one edge.
  bool advance(double h, double floor) {
    bool landed = h >= to_edge();
    if (landed)
      land();
    else
      offset += h;
    for (std::size_t laps = 0; to_edge() <= floor; ++laps) {
      // Every edge within the floor of the one before: no step can resolve
      // this clock.
      if (laps == edges.size())
        throw InvalidParameter("transient: a clock period of " + std::to_string(period) +
                               " s is too short to resolve at this dt");
      land();
      landed = true;
    }
    return landed;
  }
};

// One frame per distinct clock period among the switches' drives, holding
// every on and off edge of the phases on it; `frame_of[k]` is switch k's
// frame (-1 for undriven switches).
std::vector<ClockFrame> clock_frames(const Circuit& c, std::vector<int>& frame_of) {
  std::vector<ClockFrame> frames;
  frame_of.assign(c.switches().size(), -1);
  for (std::size_t k = 0; k < c.switches().size(); ++k) {
    const std::optional<ClockPhase>& drive = c.switches()[k].drive;
    if (!drive) continue;
    const double period = drive->clock.period();
    std::size_t f = 0;
    while (f < frames.size() && frames[f].period != period) ++f;
    if (f == frames.size()) frames.push_back(ClockFrame{period, {period}});
    frame_of[k] = static_cast<int>(f);
    for (const double frac :
         {drive->clock.on_fraction(drive->phase), drive->clock.off_fraction(drive->phase)})
      if (frac > 0.0 && frac < 1.0) frames[f].edges.push_back(frac * period);
  }
  for (ClockFrame& f : frames) {
    std::sort(f.edges.begin(), f.edges.end());
    f.edges.erase(std::unique(f.edges.begin(), f.edges.end()), f.edges.end());
  }
  return frames;
}

// The whole run without any observability: `transient` wraps it in the trace
// span and folds the counters afterwards. Kept out of line so the stepping
// loop compiles to the same machine code whether the metrics layer is
// compiled in or out (-DIVORY_NO_METRICS), which perf_smoke_same_code
// checks; inlined, the span's cleanup and the fold changed its register
// allocation and block layout, which a wall-clock A/B of the two builds read
// as up to 25% either way on single points.
[[gnu::noinline]] TranResult run_transient(const Circuit& c, const TranSpec& spec) {
  require(spec.dt > 0.0, "transient: dt must be positive");
  require(spec.tstop > spec.dt, "transient: tstop must exceed dt");
  require(spec.record_every >= 1, "transient: record_every must be >= 1");
  if (spec.lu_cache_capacity < 0 || spec.lu_cache_capacity > kMaxLuCacheCapacity)
    throw InvalidParameter("transient: lu_cache_capacity must be in [0, " +
                           std::to_string(kMaxLuCacheCapacity) + "]");

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
  // allocation-free either way. Forced inline: it runs every recorded step,
  // and GCC's -O3 growth limit for this large function otherwise leaves it
  // an out-of-line call, which made the 5-unknown switched requests of
  // perfbench's transient_mix ~7% slower.
  std::vector<double> sink_row(spec.sample_sink ? res.nodes.size() : 0);
  auto record = [&](double t) __attribute__((always_inline)) {
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

  // Clock time base (see ClockFrame) and the switch states it drives.
  // `clocked[k]` is switch k's clock-phase state, re-read only after a
  // landing; voltage gates are re-read every step.
  const double h_floor = spec.dt * 1e-6;
  std::vector<int> frame_of;
  std::vector<ClockFrame> frames = clock_frames(c, frame_of);
  for (ClockFrame& f : frames) f.advance(0.0, h_floor);
  std::vector<char> clocked(c.switches().size(), 0);
  const bool has_gates =
      std::any_of(c.switches().begin(), c.switches().end(),
                  [](const Switch& s) { return s.kind != Switch::Kind::Time; });
  bool clock_moved = true;

  // The resolved configuration: its factorization and the companion
  // conductances of its step size and integrator. Steps that repeat it —
  // every step between two edges but the first, unless a voltage gate flips —
  // go straight to RHS, solve and state update.
  sparse::MnaFactorization* lu = nullptr;
  double lu_h = 0.0;
  bool lu_be = false;
  std::vector<double> g_cap(c.capacitors().size(), 0.0);
  std::vector<double> z_ind(c.inductors().size(), 0.0);

  double t = 0.0;
  int until_record = spec.record_every;
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
    for (const ClockFrame& f : frames) h = std::min(h, f.to_edge());
    // The last step is cut to end at tstop. A clocked run treats tstop as it
    // treats an edge, reached when the step ends within the landing floor of
    // it, so a tstop on the clock's grid repeats a configuration instead of
    // adding one; clock-less runs keep the exact cut.
    if (t + h > spec.tstop && (frames.empty() || t + h - spec.tstop > h_floor))
      h = spec.tstop - t;
    if (h < h_floor) break;  // Reached tstop up to floating-point residue.
    const double tm = t + h;

    // Switch states for this step: clock phases read at the step's midpoint
    // offset (steps land on edges, so the midpoint is inside a single
    // phase); voltage gates from the previous accepted solution. Snapshots
    // allow a rejected adaptive step to roll back cleanly; the frames only
    // move once a step is accepted.
    if (spec.adaptive) {
      sw_closed_before = st.sw_closed;
      sw_vgate_before = st.sw_vgate;
    }
    bool states_changed = first_step;
    if (clock_moved || has_gates) {
      for (std::size_t k = 0; k < c.switches().size(); ++k) {
        const Switch& s = c.switches()[k];
        if (clock_moved && s.drive) {
          const ClockFrame& f = frames[static_cast<std::size_t>(frame_of[k])];
          clocked[k] = s.drive->closed(f.offset + 0.5 * h);
        }
        if (s.kind != Switch::Kind::Time) {
          st.sw_vgate[k] = s.kind == Switch::Kind::Voltage
                               ? gate_above(s, st.node_v, st.sw_vgate[k])
                               : gate_below(s, st.node_v, st.sw_vgate[k]);
        }
        const bool next = switch_closed(s, clocked[k] != 0, st.sw_vgate[k]);
        if (next != static_cast<bool>(st.sw_closed[k])) {
          st.sw_closed[k] = next;
          states_changed = true;
        }
      }
      clock_moved = false;
    }

    // One BE step after every discontinuity avoids trapezoidal ringing.
    const bool use_be = spec.method == Integrator::BackwardEuler || first_step || states_changed;

    if (lu != nullptr && !states_changed && h == lu_h && use_be == lu_be && cache_capacity > 0) {
      ++res.lu_cache_hits;  // The resolved configuration again.
    } else {
      // Factorization lookup: the matrix is determined by (h, integrator,
      // switch states), so the keyed cache factors once per distinct
      // configuration and replays it on every later step with the same key.
      pack_factor_key(key, h, use_be, st.sw_closed);
      lu = cache_capacity > 0 ? cache.find(key) : nullptr;
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
          stamp_branch_kcl(stamp, v.pos, v.neg, c.vsource_current_index(static_cast<int>(k)),
                           1.0);
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
      lu_h = h;
      lu_be = use_be;
      for (std::size_t k = 0; k < c.capacitors().size(); ++k)
        g_cap[k] = (use_be ? 1.0 : 2.0) * c.capacitors()[k].farads / h;
      for (std::size_t k = 0; k < c.inductors().size(); ++k)
        z_ind[k] = (use_be ? 1.0 : 2.0) * c.inductors()[k].henries / h;
    }

    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (std::size_t k = 0; k < c.capacitors().size(); ++k) {
      const Capacitor& cap = c.capacitors()[k];
      const double ieq =
          use_be ? g_cap[k] * st.cap_vab[k] : g_cap[k] * st.cap_vab[k] + st.cap_i[k];
      stamp_current(rhs, cap.a, cap.b, ieq);
    }
    for (std::size_t k = 0; k < c.vsources().size(); ++k) {
      const VSource& v = c.vsources()[k];
      rhs[static_cast<std::size_t>(c.vsource_current_index(static_cast<int>(k)))] = v.wave(tm);
    }
    for (std::size_t k = 0; k < c.inductors().size(); ++k) {
      const int m = c.inductor_current_index(static_cast<int>(k));
      rhs[static_cast<std::size_t>(m)] =
          use_be ? -z_ind[k] * st.ind_j[k] : -z_ind[k] * st.ind_j[k] - st.ind_vab[k];
    }
    for (const ISource& i : c.isources()) stamp_current(rhs, i.neg, i.pos, i.wave(tm));

    lu->solve_into(rhs, x);

    if (spec.adaptive) {
      double dv = 0.0;
      for (int n = 1; n < c.node_count(); ++n)
        dv = std::max(dv, std::fabs(x[static_cast<std::size_t>(nrow(n))] -
                                    st.node_v[static_cast<std::size_t>(n)]));
      if (dv > spec.dv_max_v && h > spec.dt * 1.0001) {
        // Reject: restore switch states, shrink, retry the same instant (the
        // frames have not moved, so the retry re-reads the same phases).
        st.sw_closed = sw_closed_before;
        st.sw_vgate = sw_vgate_before;
        h_base = std::max(spec.dt, 0.5 * h);
        clock_moved = true;
        lu = nullptr;
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
      st.cap_i[k] = use_be ? g_cap[k] * (vab - st.cap_vab[k])
                           : g_cap[k] * (vab - st.cap_vab[k]) - st.cap_i[k];
      st.cap_vab[k] = vab;
    }
    for (std::size_t k = 0; k < c.inductors().size(); ++k) {
      const Inductor& l = c.inductors()[k];
      const int m = c.inductor_current_index(static_cast<int>(k));
      st.ind_j[k] = x[static_cast<std::size_t>(m)];
      st.ind_vab[k] = st.node_v[static_cast<std::size_t>(l.a)] -
                      st.node_v[static_cast<std::size_t>(l.b)];
    }
    // Time sums the steps (a fixed-step time axis stays an arithmetic run
    // between edges) and restarts from the first clock's own count at each
    // of its landings, so it never drifts from the edges.
    t = tm;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (!frames[i].advance(h, h_floor)) continue;
      clock_moved = true;
      if (i == 0) t = frames[0].time();
    }
    ++res.steps_taken;
    first_step = false;
    if (--until_record == 0) {
      until_record = spec.record_every;
      record(t);
    }
  }
  return res;
}

// Folds one run's counters onto the process registry, once per run — never
// per step. The TranResult fields remain the per-run snapshot API (the
// registry holds process-lifetime totals).
void fold_run_metrics(const TranResult& res) {
  static metrics::Counter& runs = metrics::registry().counter("spice.tran.runs");
  static metrics::Counter& steps = metrics::registry().counter("spice.tran.steps");
  static metrics::Counter& factorizations =
      metrics::registry().counter("spice.tran.lu_factorizations");
  static metrics::Counter& hits = metrics::registry().counter("spice.tran.lu_cache_hits");
  static metrics::Counter& evictions =
      metrics::registry().counter("spice.tran.lu_cache_evictions");
  static metrics::Gauge& max_resident =
      metrics::registry().gauge("spice.tran.max_resident_factorizations");
  runs.add();
  steps.add(res.steps_taken);
  factorizations.add(res.lu_factorizations);
  hits.add(res.lu_cache_hits);
  evictions.add(res.lu_cache_evictions);
  max_resident.set_max(static_cast<std::int64_t>(res.max_resident_factorizations));
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

}  // namespace

TranResult transient(const Circuit& c, const TranSpec& spec) {
  IVORY_TRACE("spice.transient");
  TranResult res = run_transient(c, spec);
  fold_run_metrics(res);
  return res;
}

StepBound step_bound(const Circuit& c, double tstop, double dt) {
  std::vector<int> frame_of;
  const std::vector<ClockFrame> frames = clock_frames(c, frame_of);
  StepBound bound{tstop / dt + 1.0, -1};
  double most = 0.0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const double landings =
        static_cast<double>(frames[f].edges.size()) * std::ceil(tstop / frames[f].period);
    bound.steps += landings;
    if (landings <= most) continue;
    most = landings;
    bound.busiest = static_cast<int>(
        std::find(frame_of.begin(), frame_of.end(), static_cast<int>(f)) - frame_of.begin());
  }
  return bound;
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
      sw_closed[k] = switch_closed(s, clocked_at_zero(s), vgate);
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
