// Circuit analyses: DC operating point, transient, AC sweep.
//
// All three assemble modified-nodal-analysis (MNA) systems over the Circuit
// netlist: node voltages plus one branch-current unknown per voltage source
// and per inductor. The transient integrator supports backward Euler and
// trapezoidal companion models, lands steps exactly on the switches' clock
// edges (timed from each clock's own period, so every period repeats the
// same step sizes), takes a backward-Euler step right after any switch event
// (avoids the classic trapezoidal ringing at discontinuities), and reuses LU
// factorizations through a small LRU keyed by (step size, integrator,
// switch-state bitmask) — a steady-state switched circuit factors once per
// distinct phase configuration per run, not once per edge.
#pragma once

#include <complex>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/sparse.hpp"
#include "spice/circuit.hpp"

namespace ivory::spice {

struct DcResult {
  std::vector<double> node_v;   ///< Indexed by NodeId (ground included, = 0).
  std::vector<double> vsource_i;  ///< Current through each voltage source.
  std::vector<double> inductor_i; ///< Current through each inductor.

  double voltage(NodeId n) const { return node_v.at(static_cast<std::size_t>(n)); }
};

/// Computes the DC operating point: capacitors open, inductors short,
/// time-controlled switches at their t = 0 state, voltage-controlled switches
/// resolved by fixed-point iteration. `kernel` selects the factorization
/// kernel (Auto = density/bandwidth heuristic).
DcResult dc_operating_point(const Circuit& circuit,
                            sparse::Kernel kernel = sparse::Kernel::Auto);

/// The operating point's MNA matrix at the t = 0 switch states: what
/// dc_operating_point factors first, for inspecting its structural analysis
/// (sparse::analyze) without solving.
sparse::CscMatrix dc_matrix(const Circuit& circuit);

enum class Integrator { BackwardEuler, Trapezoidal };

/// Default and upper bound of TranSpec::lu_cache_capacity. Each entry holds
/// one factorization (n^2 doubles dense; ~5.8 MB for a 64x64 grid's
/// multifrontal factor), so the bound keeps a request from pinning
/// unbounded memory.
inline constexpr int kDefaultLuCacheCapacity = 16;
inline constexpr int kMaxLuCacheCapacity = 64;

struct TranSpec {
  double tstop = 0.0;
  double dt = 0.0;
  Integrator method = Integrator::Trapezoidal;
  /// Start from capacitor/inductor initial conditions instead of the DC
  /// operating point (SPICE "UIC").
  bool use_ic = false;
  /// Record every n-th accepted step (1 = all).
  int record_every = 1;
  /// Nodes to record; empty = all non-ground nodes.
  std::vector<NodeId> record_nodes;

  /// Adaptive (delta-V limited) stepping: the step grows while the largest
  /// node-voltage change per step stays under `dv_max_v` and shrinks when it
  /// is exceeded (the offending step is retried). `dt` is the initial and
  /// minimum step; `dt_max` caps growth (0 = 100x dt). Switch events still
  /// land exactly and reset the step. Useful for circuits with long quiet
  /// stretches between fast transients (PDN droop studies).
  bool adaptive = false;
  double dv_max_v = 1e-3;
  double dt_max = 0.0;

  /// Capacity of the keyed LU-factorization cache: factorizations are kept
  /// in a small LRU keyed by (step size, integrator, switch-state bitmask),
  /// so steady-state switched circuits factor once per distinct phase
  /// configuration instead of once per switch edge. A two-phase clock with
  /// dead time has up to 9 configurations per period at dt = T/100, which
  /// the default holds; an 8-entry LRU would evict each of 9 just before it
  /// recurs. 1 keeps a single slot; 0 disables reuse entirely (refactorize
  /// every step). At most kMaxLuCacheCapacity. The output waveform is byte-identical at
  /// every capacity: a cache hit replays the exact factorization the same
  /// matrix would produce.
  int lu_cache_capacity = kDefaultLuCacheCapacity;

  /// Factorization kernel. Auto picks from the stamped structure
  /// (density/bandwidth heuristic, see sparse::analyze): small or dense
  /// systems keep the legacy dense LU byte for byte, PDN ladders and small
  /// grids go banded, large grids and irregular large systems go general
  /// sparse. Any other value forces that kernel, for the initial solve (DC
  /// operating point or UIC) as well as the stepping loop.
  sparse::Kernel kernel = sparse::Kernel::Auto;

  /// Streaming sample sink. When set, every recorded row is delivered here
  /// — (time, voltages of the recorded nodes in TranResult::nodes order, row
  /// width) — instead of being appended to TranResult::time/voltages, which
  /// stay empty; the counters in the returned TranResult are unaffected. The
  /// rows arrive in simulation order on the calling thread. Exceptions
  /// thrown by the sink propagate out of transient() (the streamed serve
  /// transport uses this to abort a cancelled request mid-run).
  std::function<void(double t, const double* v, std::size_t n)> sample_sink;
};

struct TranResult {
  std::vector<double> time;
  std::vector<NodeId> nodes;                 ///< Recorded nodes, in order.
  std::vector<std::vector<double>> voltages; ///< voltages[i] is the trace of nodes[i].

  std::size_t steps_taken = 0;
  std::size_t lu_factorizations = 0;

  // Keyed-cache observability (see TranSpec::lu_cache_capacity). Hits count
  // steps that reused a resident factorization (including consecutive steps
  // with an unchanged configuration); evictions count LRU displacements;
  // max_resident_factorizations is the high-water mark of entries held.
  std::size_t lu_cache_hits = 0;
  std::size_t lu_cache_evictions = 0;
  std::size_t max_resident_factorizations = 0;

  // Sparse-kernel observability. `kernel` is the selected factorization
  // kernel ("dense" / "banded" / "sparse"); `symbolic_analyses` counts the
  // structural analyses serving the stepping loop (1 per run when the
  // pattern is stable — switch-state changes refactorize numerically
  // without re-running symbolic, and a loop that inherits the operating
  // point's analysis counts it once); `factor_nnz` is the stored factor's
  // nonzero footprint (n^2 dense, band storage banded, k^2 + 2kb per front
  // multifrontal, nnz(L)+nnz(U)+n Gilbert-Peierls).
  std::string kernel;
  std::size_t symbolic_analyses = 0;
  std::size_t factor_nnz = 0;

  /// Trace of a recorded node; throws InvalidParameter if it was not recorded.
  const std::vector<double>& at(NodeId n) const;
};

TranResult transient(const Circuit& circuit, const TranSpec& spec);

/// Upper bound on the steps transient() takes to `tstop` at step `dt`: tstop/dt + 1, plus
/// each distinct clock period's in-period edges per period begun. `busiest` is a switch on
/// the clock adding the most landings (-1 when none is clocked).
struct StepBound {
  double steps = 0.0;
  int busiest = -1;
};
StepBound step_bound(const Circuit& circuit, double tstop, double dt);

struct AcResult {
  std::vector<double> freq_hz;
  std::vector<NodeId> nodes;
  /// response[i][k]: complex voltage of nodes[i] at freq_hz[k] for unit
  /// (or ac_magnitude-scaled) excitation.
  std::vector<std::vector<std::complex<double>>> response;

  const std::vector<std::complex<double>>& at(NodeId n) const;
};

/// Small-signal sweep: sources contribute their ac_magnitude; switches are
/// frozen at their DC-operating-point state.
AcResult ac_analysis(const Circuit& circuit, const std::vector<double>& freqs_hz,
                     std::vector<NodeId> record_nodes = {});

/// Log-spaced frequency grid helper: n points from lo to hi inclusive.
std::vector<double> log_frequencies(double lo_hz, double hi_hz, int n);

}  // namespace ivory::spice
