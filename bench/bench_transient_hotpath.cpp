// Transient hot-path throughput benchmark.
//
// Times the switch-level transient engine on the two converters that define
// its steady-state workload — the Fig. 9 two-phase SC converter and the
// Fig. 8 buck power stage — in fixed-step and adaptive modes, at LU-cache
// capacity 1 (a single slot), the default LRU, and 0 (refactorize every
// step). Reports steps/s and LU factorizations per 1k steps, self-checks that
// every capacity produces byte-identical waveforms, and writes the
// measurements to BENCH_transient.json so the perf trajectory is tracked
// across PRs. Also counts each scenario's configurations per cycle (the
// factorizations of a one-period run) and fails when a fixed-step scenario
// factors more often than that at the default capacity: a deterministic work
// gate, unlike the wall-clock columns.
//
// Also sweeps N x N on-chip power grids (8x8 up to 100x100, ~10k MNA
// unknowns) across the dense, banded, and sparse factorization kernels
// (sparse runs multifrontal on grids), cross-checks the kernels agree to
// 1e-9 relative tolerance, times each kernel's structural analysis, records
// `auto`'s pick per size, the dense -> sparse crossover (steps/s ratio at the
// largest grid dense can still handle), and the 100x100 verdict against the
// sparse-kernel gate (factor entries >= 3x fewer than banded, steps/s >= 2x
// banded's) into the same JSON.
//
// Usage: bench_transient_hotpath [--smoke] [output.json]
//   --smoke  tiny sizes, min of two reps (used by the perf-smoke ctest label)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/ivory.hpp"
#include "pdn/pdn.hpp"

using namespace ivory;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool identical(const spice::TranResult& a, const spice::TranResult& b) {
  if (a.time.size() != b.time.size() || a.voltages.size() != b.voltages.size()) return false;
  if (!a.time.empty() &&
      std::memcmp(a.time.data(), b.time.data(), a.time.size() * sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.voltages.size(); ++i) {
    if (a.voltages[i].size() != b.voltages[i].size()) return false;
    if (!a.voltages[i].empty() &&
        std::memcmp(a.voltages[i].data(), b.voltages[i].data(),
                    a.voltages[i].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

// Fig. 9's converter: 2:1 ladder SC, 100 nF fly/out, 20 MHz.
core::ScDesign sc_converter() {
  core::ScDesign d;
  d.node = tech::Node::n32;
  d.cap_kind = tech::CapKind::DeepTrench;
  d.n = 2;
  d.m = 1;
  d.c_fly_f = 100e-9;
  d.c_out_f = 100e-9;
  d.g_tot_s = 2000.0;
  d.f_sw_hz = 20e6;
  return d;
}

void build_sc(spice::Circuit& ckt, spice::NodeId* vout) {
  const core::ScDesign d = sc_converter();
  const core::ScTopology topo = core::make_topology(d.n, d.m, d.family);
  const core::ChargeVectors cv = core::charge_vectors(topo);
  const core::ScNetlistResult nodes =
      core::build_sc_netlist(ckt, topo, cv, 3.3, d.c_fly_f, d.g_tot_s, d.f_sw_hz, d.c_out_f);
  ckt.add_isource("iload", nodes.vout, spice::kGround, spice::Waveform::dc(0.25));
  *vout = nodes.vout;
}

// The same two-phase SC stage fed from the GPUVolt PDN ladder instead of an
// ideal source: board/package/C4 stages, on-die grid, and their decaps push
// the MNA system from ~7 to ~20 unknowns — the regime where factoring
// (O(n^3)) visibly outweighs a cached solve (O(n^2)).
void build_sc_pdn(spice::Circuit& ckt, spice::NodeId* vout) {
  const pdn::PdnParams pp = pdn::PdnParams::gpuvolt_default();
  const pdn::PdnNodes pn = pdn::build_pdn_netlist(ckt, pp, 3.3);
  const spice::NodeId fly = ckt.node("fly");
  const spice::NodeId out = ckt.node("out");
  const spice::PhaseClock clk(20e6, 2, 0.48);
  ckt.add_switch("s1", pn.die, fly, 0.01, 1e8, clk.phase(0));
  ckt.add_switch("s2", fly, out, 0.01, 1e8, clk.phase(1));
  ckt.add_capacitor_ic("cfly", fly, spice::kGround, 100e-9, 1.65);
  ckt.add_capacitor_ic("cout", out, spice::kGround, 100e-9, 1.65);
  ckt.add_resistor("rl", out, spice::kGround, 3.3);
  *vout = out;
}

// Fig. 8's power stage, folded to the single-phase equivalent: complementary
// high/low switches into L + DCR + output cap, DC load.
void build_buck(spice::Circuit& ckt, spice::NodeId* vout) {
  core::BuckStage stage;
  stage.vin_v = 1.8;
  stage.f_sw_hz = 100e6;
  stage.duty = 0.55;
  stage.r_high_ohm = stage.r_low_ohm = 5e-3;
  stage.l_h = 4e-9;
  stage.r_dcr_ohm = 1e-3;
  stage.c_out_f = 150e-9;
  stage.vout_ic_v = 1.0;
  stage.i_load_a = 1.0;
  *vout = core::build_buck_netlist(ckt, stage).out;
}

struct Scenario {
  std::string name;
  std::function<void(spice::Circuit&, spice::NodeId*)> build;
  double tstop = 0.0;
  double dt = 0.0;
  bool adaptive = false;
  double period = 0.0;  ///< Switching period.
};

struct Point {
  int capacity = 0;
  double wall_s = 0.0;
  spice::TranResult res;
};

struct GridPoint {
  std::string kernel;       ///< Requested kernel name.
  std::string selected;     ///< Kernel actually used (differs only for auto).
  bool multifrontal = false;  ///< The sparse kernel's path (else Gilbert-Peierls).
  double analysis_ms = 0.0;   ///< sparse::analyze on the operating-point matrix.
  double wall_s = 0.0;
  double steps_per_s = 0.0;
  std::size_t steps = 0;
  std::size_t factor_nnz = 0;
  double max_rel_err = 0.0;  ///< vs the first kernel run at this size.
};

struct GridRow {
  int nx = 0;
  std::size_t n_mna = 0;
  std::vector<GridPoint> points;
};

// Largest relative waveform difference between two same-spec runs.
double max_rel_diff(const spice::TranResult& a, const spice::TranResult& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.voltages.size(); ++i)
    for (std::size_t k = 0; k < a.voltages[i].size(); ++k) {
      const double x = a.voltages[i][k], y = b.voltages[i][k];
      const double denom = std::max({std::fabs(x), std::fabs(y), 1e-12});
      worst = std::max(worst, std::fabs(x - y) / denom);
    }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_transient.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[i];
  }
  // Smoke still takes min-of-2 per point: the first rep absorbs one-time
  // process warmup (allocator, page faults, registry/tracer init) that would
  // otherwise dominate millisecond-scale points and poison A/B comparisons.
  const int reps = smoke ? 2 : 3;
  // SC: 100 steps/cycle at 20 MHz — the regime the cache targets: coarse
  // enough that edge-triggered refactorization is a real share of the work
  // (at very fine resolution factoring amortizes away regardless). Buck: 800
  // steps/cycle at 100 MHz. Smoke shrinks the horizon ~20x, keeping enough
  // cycles for the cache to reach steady state.
  const double sc_tstop = smoke ? 2e-6 : 40e-6;
  const double sc_dt = 1.0 / (100.0 * 20e6);
  const double buck_tstop = smoke ? 20e-9 : 400e-9;
  const double buck_dt = 1.0 / (800.0 * 100e6);

  const double sc_period = 1.0 / 20e6, buck_period = 1.0 / 100e6;
  const std::vector<Scenario> scenarios = {
      {"sc2_fixed", build_sc, sc_tstop, sc_dt, false, sc_period},
      {"sc2_adaptive", build_sc, sc_tstop, sc_dt, true, sc_period},
      {"sc2_pdn_fixed", build_sc_pdn, sc_tstop, sc_dt, false, sc_period},
      {"buck_fixed", build_buck, buck_tstop, buck_dt, false, buck_period},
      {"buck_adaptive", build_buck, buck_tstop, buck_dt, true, buck_period},
  };
  const int kDefaultCapacity = spice::TranSpec{}.lu_cache_capacity;
  const std::vector<int> capacities = {0, 1, kDefaultCapacity};

  std::printf("=== Transient hot path: keyed LU cache throughput%s ===\n\n",
              smoke ? " (smoke)" : "");

  bool all_identical = true;
  bool configs_gate_met = true;
  double sc_fixed_factor_ratio = 0.0, sc_fixed_speedup = 0.0, sc_fixed_speedup_vs_off = 0.0;
  double sc_pdn_speedup = 0.0;
  std::vector<std::pair<Scenario, std::vector<Point>>> all;
  std::vector<std::size_t> all_configs;  ///< Configurations per cycle, per scenario.

  for (const Scenario& s : scenarios) {
    spice::Circuit ckt;
    spice::NodeId vout = spice::kGround;
    s.build(ckt, &vout);

    spice::TranSpec spec;
    spec.tstop = s.tstop;
    spec.dt = s.dt;
    spec.method = spice::Integrator::BackwardEuler;
    spec.use_ic = true;
    spec.record_nodes = {vout};
    spec.adaptive = s.adaptive;

    // Configurations per cycle: the distinct (step, integrator, switch
    // states) keys of the first period, each factored once by a cache with
    // room for all of them.
    spice::TranSpec one_period = spec;
    one_period.tstop = s.period;
    one_period.lu_cache_capacity = spice::kMaxLuCacheCapacity;
    const std::size_t configs = spice::transient(ckt, one_period).lu_factorizations;

    std::vector<Point> points;
    for (int cap : capacities) {
      spec.lu_cache_capacity = cap;

      Point p;
      p.capacity = cap;
      p.wall_s = 1e300;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        spice::TranResult res = spice::transient(ckt, spec);
        p.wall_s = std::min(p.wall_s, seconds_since(t0));
        p.res = std::move(res);
      }
      points.push_back(std::move(p));
    }

    // Byte-identity self-check: every capacity must reproduce the same
    // waveform bit for bit — a cache hit replays the exact factorization the
    // same matrix would produce, so any difference is a bug.
    for (std::size_t i = 1; i < points.size(); ++i)
      if (!identical(points[0].res, points[i].res)) {
        std::printf("ERROR: %s waveform differs between lu_cache_capacity=%d and %d\n",
                    s.name.c_str(), points[0].capacity, points[i].capacity);
        all_identical = false;
      }

    TextTable table({"capacity", "steps", "wall", "steps/s", "LU factors", "per 1k steps",
                     "hits", "evictions", "resident"});
    for (const Point& p : points) {
      const double steps = static_cast<double>(p.res.steps_taken);
      table.add_row({std::to_string(p.capacity), std::to_string(p.res.steps_taken),
                     TextTable::si(p.wall_s, "s"), TextTable::si(steps / p.wall_s, ""),
                     std::to_string(p.res.lu_factorizations),
                     TextTable::num(1e3 * static_cast<double>(p.res.lu_factorizations) / steps, 2),
                     std::to_string(p.res.lu_cache_hits),
                     std::to_string(p.res.lu_cache_evictions),
                     std::to_string(p.res.max_resident_factorizations)});
    }
    std::printf("--- %s (tstop %.3g s, dt %.3g s%s) ---\n%s\n", s.name.c_str(), s.tstop, s.dt,
                s.adaptive ? ", adaptive" : "", table.render().c_str());

    const Point& cap1 = points[1];
    const Point& capN = points[2];
    // Fixed-step runs repeat the first period's step sizes every period, so
    // the default cache must factor each configuration once. Adaptive step
    // sizes follow the solution and need not recur; they are reported only.
    const bool gated = !s.adaptive;
    const bool within = capN.res.lu_factorizations <= configs;
    std::printf("%s: %zu configurations per cycle, %zu factorizations at the default capacity "
                "%d%s\n\n",
                s.name.c_str(), configs, capN.res.lu_factorizations, kDefaultCapacity,
                !gated ? " (adaptive: not gated)" : within ? " (gate: <= configurations, met)"
                                                            : " (gate: <= configurations, NOT met)");
    if (gated && !within) configs_gate_met = false;
    if (s.name == "sc2_fixed") {
      sc_fixed_factor_ratio = static_cast<double>(cap1.res.lu_factorizations) /
                              static_cast<double>(std::max<std::size_t>(capN.res.lu_factorizations, 1));
      sc_fixed_speedup = cap1.wall_s / capN.wall_s;
      sc_fixed_speedup_vs_off = points[0].wall_s / capN.wall_s;
    }
    if (s.name == "sc2_pdn_fixed") sc_pdn_speedup = cap1.wall_s / capN.wall_s;
    all.emplace_back(s, std::move(points));
    all_configs.push_back(configs);
  }

  // --- Grid-size sweep: dense vs banded vs sparse kernels on N x N on-chip
  // power grids. Dense is capped at the largest size where an O(n^3) factor
  // still completes in benchmark time; the sparse kernels run the full
  // range, demonstrating the asymptotic crossover.
  const std::vector<int> grid_sizes = smoke ? std::vector<int>{8, 12, 32}
                                            : std::vector<int>{8, 16, 24, 32, 48, 64, 100};
  const int dense_cap_nx = smoke ? 12 : 48;
  std::vector<GridRow> grid_rows;
  bool grid_agree = true;
  bool multifrontal_ran = false;
  double crossover_speedup = 0.0;
  int crossover_nx = 0;
  int auto_sparse_from_nx = 0;  ///< Smallest swept size `auto` factors sparse.
  // Gate at the largest swept size (100x100 in the full sweep).
  double gate_fill_ratio = 0.0, gate_steps_ratio = 0.0;

  std::printf("=== Grid-size sweep: dense vs banded vs sparse ===\n\n");
  for (const int nx : grid_sizes) {
    pdn::GridParams gp;
    gp.nx = gp.ny = nx;
    spice::Circuit ckt;
    const pdn::GridNodes nodes = pdn::build_grid_netlist(ckt, gp);

    GridRow row;
    row.nx = nx;
    row.n_mna = static_cast<std::size_t>(ckt.mna_size());

    std::vector<std::pair<std::string, sparse::Kernel>> kernels = {
        {"auto", sparse::Kernel::Auto},
        {"banded", sparse::Kernel::Banded},
        {"sparse", sparse::Kernel::Sparse}};
    if (nx <= dense_cap_nx)
      kernels.insert(kernels.begin() + 1, {"dense", sparse::Kernel::Dense});

    std::vector<spice::TranResult> results;
    results.reserve(kernels.size());
    double dense_sps = 0.0, best_sparse_sps = 0.0;
    const sparse::CscMatrix dc = spice::dc_matrix(ckt);
    for (const auto& [kname, kreq] : kernels) {
      GridPoint p;
      p.kernel = kname;
      p.analysis_ms = 1e300;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        const auto sym = sparse::analyze(dc, kreq);
        p.analysis_ms = std::min(p.analysis_ms, 1e3 * seconds_since(t0));
        p.multifrontal = sym->multifrontal();
      }

      spice::TranSpec spec;
      spec.tstop = 10e-9;
      spec.dt = 0.1e-9;
      spec.method = spice::Integrator::BackwardEuler;
      spec.record_nodes = {nodes.center};
      spec.kernel = kreq;

      p.wall_s = 1e300;
      spice::TranResult res;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        res = spice::transient(ckt, spec);
        p.wall_s = std::min(p.wall_s, seconds_since(t0));
      }
      p.selected = res.kernel;
      p.steps = res.steps_taken;
      p.steps_per_s = static_cast<double>(res.steps_taken) / p.wall_s;
      p.factor_nnz = res.factor_nnz;
      if (!results.empty()) {
        p.max_rel_err = max_rel_diff(results.front(), res);
        if (p.max_rel_err > 1e-9) {
          std::printf("ERROR: grid %dx%d kernel %s deviates from %s by %.3e (> 1e-9)\n", nx,
                      nx, kname.c_str(), results.front().kernel.c_str(), p.max_rel_err);
          grid_agree = false;
        }
      }
      if (kname == "dense") dense_sps = p.steps_per_s;
      if (kname == "banded" || kname == "sparse")
        best_sparse_sps = std::max(best_sparse_sps, p.steps_per_s);
      if (kname == "sparse") multifrontal_ran = multifrontal_ran || p.multifrontal;
      if (kname == "auto" && p.selected == "sparse" && auto_sparse_from_nx == 0)
        auto_sparse_from_nx = nx;
      results.push_back(std::move(res));
      row.points.push_back(std::move(p));
    }
    if (dense_sps > 0.0 && best_sparse_sps > 0.0) {
      // Track the crossover at the largest mutually-feasible size.
      crossover_nx = nx;
      crossover_speedup = best_sparse_sps / dense_sps;
    }
    const auto point = [&](const char* kname) -> const GridPoint& {
      for (const GridPoint& p : row.points)
        if (p.kernel == kname) return p;
      return row.points.front();
    };
    gate_fill_ratio = static_cast<double>(point("banded").factor_nnz) /
                      static_cast<double>(std::max<std::size_t>(point("sparse").factor_nnz, 1));
    gate_steps_ratio = point("sparse").steps_per_s / point("banded").steps_per_s;

    TextTable table({"kernel", "selected", "path", "analysis", "steps", "wall", "steps/s",
                     "factor nnz", "max rel err"});
    for (const GridPoint& p : row.points)
      table.add_row({p.kernel, p.selected,
                     p.selected != "sparse" ? "-" : p.multifrontal ? "multifrontal" : "min-degree",
                     TextTable::si(1e-3 * p.analysis_ms, "s"), std::to_string(p.steps),
                     TextTable::si(p.wall_s, "s"), TextTable::si(p.steps_per_s, ""),
                     std::to_string(p.factor_nnz), TextTable::num(p.max_rel_err, 3)});
    std::printf("--- grid %dx%d (%zu MNA unknowns) ---\n%s\n", nx, nx, row.n_mna,
                table.render().c_str());
    grid_rows.push_back(std::move(row));
  }
  if (crossover_nx > 0)
    std::printf("grid crossover: at %dx%d the best sparse kernel sustains %.1fx the dense "
                "steps/s\n",
                crossover_nx, crossover_nx, crossover_speedup);
  const int gate_nx = grid_sizes.back();
  const bool gate_met = gate_fill_ratio >= 3.0 && gate_steps_ratio >= 2.0;
  std::printf("auto picks sparse from %dx%d on; below it, banded\n", auto_sparse_from_nx,
              auto_sparse_from_nx);
  std::printf("sparse-kernel gate at %dx%d%s: banded/sparse factor entries %.2fx (>= 3), "
              "sparse/banded steps/s %.2fx (>= 2): %s\n",
              gate_nx, gate_nx, smoke ? " (judged at 100x100 in the full sweep)" : "",
              gate_fill_ratio, gate_steps_ratio, gate_met ? "met" : "NOT met");
  if (!multifrontal_ran) {
    std::printf("ERROR: no forced-sparse grid took the multifrontal path\n");
    grid_agree = false;
  }

  std::printf("sc2_fixed: default capacity does %.1fx fewer factorizations than capacity 1 "
              "(wall-clock speedup %.2fx vs capacity 1, %.2fx vs no cache)\n",
              sc_fixed_factor_ratio, sc_fixed_speedup, sc_fixed_speedup_vs_off);
  std::printf("sc2_pdn_fixed: wall-clock speedup %.2fx vs capacity 1 (the ~20-unknown MNA "
              "system, where factoring outweighs a cached solve)\n",
              sc_pdn_speedup);
  if (!all_identical)
    std::printf("ERROR: waveforms are NOT byte-identical across cache capacities!\n");
  if (!configs_gate_met)
    std::printf("ERROR: a fixed-step scenario factored more often than its configurations per "
                "cycle at the default capacity\n");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::printf("ERROR: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"transient_hotpath\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"byte_identical\": %s,\n", all_identical ? "true" : "false");
  std::fprintf(f, "  \"factorizations_within_configs_per_cycle\": %s,\n",
               configs_gate_met ? "true" : "false");
  std::fprintf(f, "  \"sc2_fixed_factorization_ratio_cap1_vs_default\": %.3f,\n",
               sc_fixed_factor_ratio);
  std::fprintf(f, "  \"sc2_fixed_speedup_default_vs_cap1\": %.3f,\n", sc_fixed_speedup);
  std::fprintf(f, "  \"sc2_fixed_speedup_default_vs_nocache\": %.3f,\n", sc_fixed_speedup_vs_off);
  std::fprintf(f, "  \"sc2_pdn_speedup_default_vs_cap1\": %.3f,\n", sc_pdn_speedup);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t si = 0; si < all.size(); ++si) {
    const Scenario& s = all[si].first;
    const std::vector<Point>& points = all[si].second;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"adaptive\": %s, \"configs_per_cycle\": %zu, "
                 "\"points\": [\n",
                 s.name.c_str(), s.adaptive ? "true" : "false", all_configs[si]);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      const double steps = static_cast<double>(p.res.steps_taken);
      std::fprintf(f,
                   "      {\"capacity\": %d, \"steps\": %zu, \"wall_s\": %.6e, "
                   "\"steps_per_s\": %.6e, \"lu_factorizations\": %zu, "
                   "\"factorizations_per_1k_steps\": %.3f, \"cache_hits\": %zu, "
                   "\"cache_evictions\": %zu, \"max_resident\": %zu}%s\n",
                   p.capacity, p.res.steps_taken, p.wall_s, steps / p.wall_s,
                   p.res.lu_factorizations,
                   1e3 * static_cast<double>(p.res.lu_factorizations) / steps,
                   p.res.lu_cache_hits, p.res.lu_cache_evictions,
                   p.res.max_resident_factorizations, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", si + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"grid_kernels_agree_1e-9\": %s,\n", grid_agree ? "true" : "false");
  std::fprintf(f, "  \"grid_crossover_nx\": %d,\n", crossover_nx);
  std::fprintf(f, "  \"grid_crossover_sparse_vs_dense_steps_per_s\": %.3f,\n",
               crossover_speedup);
  std::fprintf(f, "  \"grid_auto_sparse_from_nx\": %d,\n", auto_sparse_from_nx);
  std::fprintf(f, "  \"grid_gate_nx\": %d,\n", gate_nx);
  std::fprintf(f, "  \"grid_gate_banded_over_sparse_factor_nnz\": %.3f,\n", gate_fill_ratio);
  std::fprintf(f, "  \"grid_gate_sparse_over_banded_steps_per_s\": %.3f,\n", gate_steps_ratio);
  std::fprintf(f, "  \"grid_gate_met\": %s,\n", gate_met ? "true" : "false");
  std::fprintf(f, "  \"grid\": [\n");
  for (std::size_t gi = 0; gi < grid_rows.size(); ++gi) {
    const GridRow& row = grid_rows[gi];
    std::fprintf(f, "    {\"nx\": %d, \"n_mna\": %zu, \"points\": [\n", row.nx, row.n_mna);
    for (std::size_t i = 0; i < row.points.size(); ++i) {
      const GridPoint& p = row.points[i];
      std::fprintf(f,
                   "      {\"kernel\": \"%s\", \"selected\": \"%s\", \"multifrontal\": %s, "
                   "\"analysis_ms\": %.4f, \"steps\": %zu, \"wall_s\": %.6e, "
                   "\"steps_per_s\": %.6e, \"factor_nnz\": %zu, \"max_rel_err\": %.3e}%s\n",
                   p.kernel.c_str(), p.selected.c_str(), p.multifrontal ? "true" : "false",
                   p.analysis_ms, p.steps, p.wall_s, p.steps_per_s, p.factor_nnz, p.max_rel_err,
                   i + 1 < row.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", gi + 1 < grid_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("Wrote %s\n", out_path.c_str());
  return all_identical && grid_agree && configs_gate_met ? 0 : 1;
}
