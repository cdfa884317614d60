// Google-benchmark microbenchmarks of Ivory's computational kernels: the
// charge-multiplier solver, static analyses, the cycle-by-cycle dynamic
// model, one MNA transient step stream, the dense LU solve, the FFT, and the
// netlist and request-line readers on a 64x64 grid.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/fft.hpp"
#include "common/json.hpp"
#include "common/matrix.hpp"
#include "core/ivory.hpp"
#include "perfbench_grid.hpp"
#include "serve/service.hpp"
#include "spice/parser.hpp"

using namespace ivory;

namespace {

void BM_ChargeVectors_SeriesParallel5(benchmark::State& state) {
  const core::ScTopology topo = core::series_parallel(5);
  for (auto _ : state) benchmark::DoNotOptimize(core::charge_vectors(topo));
}
BENCHMARK(BM_ChargeVectors_SeriesParallel5);

void BM_ChargeVectors_Ladder6to5(benchmark::State& state) {
  const core::ScTopology topo = core::ladder(6, 5);
  for (auto _ : state) benchmark::DoNotOptimize(core::charge_vectors(topo));
}
BENCHMARK(BM_ChargeVectors_Ladder6to5);

void BM_AnalyzeSc(benchmark::State& state) {
  core::ScDesign d;
  d.n = 3;
  d.m = 1;
  d.cap_kind = tech::CapKind::DeepTrench;
  d.c_fly_f = 4e-6;
  d.c_out_f = 1e-6;
  d.g_tot_s = 15000.0;
  d.f_sw_hz = 80e6;
  d.n_interleave = 16;
  for (auto _ : state) benchmark::DoNotOptimize(core::analyze_sc(d, 3.3, 20.0));
}
BENCHMARK(BM_AnalyzeSc);

void BM_AnalyzeBuck(benchmark::State& state) {
  core::BuckDesign d;
  d.inductor = tech::InductorKind::IntegratedInterposer;
  d.l_per_phase_h = 5e-9;
  d.f_sw_hz = 100e6;
  d.n_phases = 4;
  d.w_high_m = 0.08;
  d.w_low_m = 0.10;
  d.c_out_f = 1e-6;
  for (auto _ : state) benchmark::DoNotOptimize(core::analyze_buck(d, 3.3, 1.0, 10.0));
}
BENCHMARK(BM_AnalyzeBuck);

void BM_ScCycleModel_PerSample(benchmark::State& state) {
  core::ScDesign d;
  d.n = 3;
  d.m = 1;
  d.cap_kind = tech::CapKind::DeepTrench;
  d.c_fly_f = 4e-6;
  d.c_out_f = 1e-6;
  d.g_tot_s = 15000.0;
  d.f_sw_hz = 80e6;
  d.n_interleave = 8;
  const std::vector<double> load(10000, 10.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::sc_cycle_response(d, 3.3, 1.0, load, 2e-9));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_ScCycleModel_PerSample);

void BM_SpiceTransient_RlcSteps(benchmark::State& state) {
  for (auto _ : state) {
    spice::Circuit c;
    const spice::NodeId in = c.node("in");
    const spice::NodeId a = c.node("a");
    const spice::NodeId out = c.node("out");
    c.add_vsource("v", in, spice::kGround, spice::Waveform::sine(0.0, 1.0, 1e6));
    c.add_resistor("r", in, a, 5.0);
    c.add_inductor("l", a, out, 1e-6);
    c.add_capacitor("cc", out, spice::kGround, 1e-9);
    spice::TranSpec spec;
    spec.tstop = 10e-6;
    spec.dt = 1e-9;
    spec.record_nodes = {out};
    benchmark::DoNotOptimize(spice::transient(c, spec));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SpiceTransient_RlcSteps);

// One dense LU solve per iteration, fed the previous solution as its
// right-hand side: the latency a cached transient step pays for its solve.
// The matrix is a Householder reflector (orthogonal and its own inverse), so
// the chain neither grows nor decays, and its LU swaps rows. n <= 16 runs
// the fixed-size solve, 17 and 20 the loop.
void BM_DenseSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> v(n);
  double vv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(1.0 + 0.7 * static_cast<double>(i));
    vv += v[i] * v[i];
  }
  Matrix<double> h = Matrix<double>::identity(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) h(i, j) -= 2.0 * v[i] * v[j] / vv;
  const LuFactorization<double> lu(std::move(h));
  std::vector<double> b(n, 1.0), x(n);
  for (auto _ : state) {
    lu.solve_into(b, x);
    b.swap(x);
  }
  benchmark::DoNotOptimize(b.data());
}
BENCHMARK(BM_DenseSolve)->Arg(3)->Arg(5)->Arg(14)->Arg(16)->Arg(17)->Arg(20);

// The two text layers of a 64x64 grid transient request (perfbench's
// transient_mix sends 0.48 MB lines of this grid): the netlist reader, and
// the service's decode of the request line (JSON parse, canonical form and
// cache key).
void BM_ParseNetlist_Grid64(benchmark::State& state) {
  const std::string text = perfbench_grid_netlist(64);
  for (auto _ : state) benchmark::DoNotOptimize(spice::parse_netlist(text));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseNetlist_Grid64)->Unit(benchmark::kMillisecond);

void BM_DecodeLine_Grid64(benchmark::State& state) {
  const std::string line =
      R"({"id":1,"op":"transient","topology":"spice","netlist":)" +
      json::escape_string(perfbench_grid_netlist(64)) +
      R"(,"tstop":1e-8,"dt":1e-10,"record":["g32_32"]})";
  serve::Service service;
  for (auto _ : state) benchmark::DoNotOptimize(service.decode(line));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * line.size()));
}
BENCHMARK(BM_DecodeLine_Grid64)->Unit(benchmark::kMillisecond);

void BM_Fft64k(benchmark::State& state) {
  std::vector<double> sig(65536);
  for (std::size_t i = 0; i < sig.size(); ++i) sig[i] = std::sin(0.01 * static_cast<double>(i));
  for (auto _ : state) benchmark::DoNotOptimize(amplitude_spectrum(sig, 1e9));
}
BENCHMARK(BM_Fft64k);

// A/B of the memoized per-stage twiddle tables: `TwiddleCache` serves every
// stage from the size-indexed table (built once, on the first transform of
// each size); `TwiddleRecompute` rebuilds the `w *= wlen` chains on every
// call, which is what fft_radix2 used to do unconditionally.
void BM_FftRadix2_64k_TwiddleCache(benchmark::State& state) {
  std::vector<std::complex<double>> base(65536);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = std::sin(0.01 * static_cast<double>(i));
  const bool prev = fft_use_twiddle_cache(true);
  for (auto _ : state) {
    std::vector<std::complex<double>> data = base;
    fft_radix2(data);
    benchmark::DoNotOptimize(data.data());
  }
  fft_use_twiddle_cache(prev);
}
BENCHMARK(BM_FftRadix2_64k_TwiddleCache);

void BM_FftRadix2_64k_TwiddleRecompute(benchmark::State& state) {
  std::vector<std::complex<double>> base(65536);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = std::sin(0.01 * static_cast<double>(i));
  const bool prev = fft_use_twiddle_cache(false);
  for (auto _ : state) {
    std::vector<std::complex<double>> data = base;
    fft_radix2(data);
    benchmark::DoNotOptimize(data.data());
  }
  fft_use_twiddle_cache(prev);
}
BENCHMARK(BM_FftRadix2_64k_TwiddleRecompute);

void BM_PdnImpedanceSweep(benchmark::State& state) {
  const pdn::PdnParams p = pdn::PdnParams::gpuvolt_default();
  for (auto _ : state) benchmark::DoNotOptimize(pdn::find_impedance_peak(p, 1e3, 1e10, 200));
}
BENCHMARK(BM_PdnImpedanceSweep);

void BM_OptimizeScTopology(benchmark::State& state) {
  const core::SystemParams sys;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::optimize_topology(sys, core::IvrTopology::SwitchedCapacitor, 1));
}
BENCHMARK(BM_OptimizeScTopology);

}  // namespace

BENCHMARK_MAIN();
