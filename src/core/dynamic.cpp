#include "core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/units.hpp"

namespace ivory::core {

namespace {

void check_trace(const std::vector<double>& i_load, double dt) {
  require(i_load.size() >= 2, "dynamic model: need at least two load samples");
  require(dt > 0.0, "dynamic model: dt must be positive");
}

// Resamples a waveform known at times grid[j] (piecewise linear) onto a
// uniform dt grid of n samples.
std::vector<double> resample(const std::vector<double>& times, const std::vector<double>& values,
                             double dt, std::size_t n) {
  std::vector<double> out(n);
  std::size_t j = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) * dt;
    while (j + 1 < times.size() && times[j + 1] <= t) ++j;
    if (j + 1 >= times.size()) {
      out[k] = values.back();
      continue;
    }
    const double t0 = times[j], t1 = times[j + 1];
    const double a = t1 > t0 ? (t - t0) / (t1 - t0) : 0.0;
    out[k] = values[j] * (1.0 - std::clamp(a, 0.0, 1.0)) + values[j + 1] * std::clamp(a, 0.0, 1.0);
  }
  return out;
}

}  // namespace

DynWaveform sc_cycle_response(const ScDesign& d, double vin_v, double vref_v,
                              const std::vector<double>& i_load, double dt_s,
                              ScControl control) {
  check_trace(i_load, dt_s);
  require(vin_v > 0.0, "sc_cycle_response: vin must be positive");
  return sc_cycle_response_traces(d, std::vector<double>(i_load.size(), vin_v),
                                  std::vector<double>(i_load.size(), vref_v), i_load, dt_s,
                                  control);
}

DynWaveform sc_cycle_response_traces(const ScDesign& d, const std::vector<double>& vin_trace,
                                     const std::vector<double>& vref_trace,
                                     const std::vector<double>& i_load, double dt_s,
                                     ScControl control) {
  check_trace(i_load, dt_s);
  // The cycle loop below indexes all three traces with one shared index; a
  // length mismatch would read out of bounds, so reject it up front with the
  // offending sizes spelled out.
  if (vin_trace.size() != i_load.size() || vref_trace.size() != i_load.size())
    throw InvalidParameter(
        "sc_cycle_response_traces: vin/vref/load traces must share length (got vin " +
        std::to_string(vin_trace.size()) + ", vref " + std::to_string(vref_trace.size()) +
        ", load " + std::to_string(i_load.size()) + ")");
  for (double v : vin_trace)
    require(v > 0.0, "sc_cycle_response_traces: vin must stay positive");
  const double vin_v = vin_trace.front();
  const double vref_v = vref_trace.front();

  // Custom topologies are derived per call; built-in (n, m, family) triples
  // come from the process-wide memo cache.
  ScStaticAnalysis local;
  const ScStaticAnalysis* st;
  if (d.custom_topology) {
    local.topo = *d.custom_topology;
    local.cv = charge_vectors(local.topo);
    st = &local;
  } else {
    st = &sc_static_analysis(d.n, d.m, d.family);
  }
  const ScTopology& topo = st->topo;
  const ChargeVectors& cv = st->cv;
  const double sum_ac = cv.sum_ac();
  const double sum_ar = cv.sum_ar();

  // Equivalent-circuit parameters matched to the static impedances:
  // slow limit  R(T -> inf) = 1/(f Ceq)        => Ceq = C_tot / (sum a_c)^2
  // fast limit  R(T -> 0)   = 2 Req            => Req = R_FSL / 2.
  const double c_eq = d.c_fly_f / (sum_ac * sum_ac);
  const double r_fsl = sum_ar * sum_ar / (d.g_tot_s * d.duty);
  const double r_eq = 0.5 * r_fsl;
  const double ratio = topo.ideal_ratio();
  const double c_o = sc_output_hf_cap(d);

  const double t_full = 1.0 / d.f_sw_hz;
  const int n_il = d.n_interleave;
  const double t_sub = t_full / static_cast<double>(n_il);
  // Charge-transfer completeness per slice: a slice's own R*C product is
  // invariant under interleaving (R x N, C / N).
  const double kx = 1.0 - std::exp(-t_full / (2.0 * r_eq * c_eq));
  const double c_eq_sub = c_eq / static_cast<double>(n_il);

  const double t_end = static_cast<double>(i_load.size()) * dt_s;
  const std::size_t n_cycles = static_cast<std::size_t>(t_end / t_sub) + 1;
  const WindowMean load_mean(i_load, dt_s);

  std::vector<double> times, values;
  times.reserve(n_cycles + 1);
  values.reserve(n_cycles + 1);
  double v = std::min(ratio * vin_v, vref_v > 0.0 ? vref_v : ratio * vin_v);
  v += fault::inject("cycle_model");
  times.push_back(0.0);
  values.push_back(v);

  for (std::size_t k = 0; k < n_cycles; ++k) {
    const double t0 = static_cast<double>(k) * t_sub;
    const std::size_t idx = std::min(load_mean.index_of(t0), i_load.size() - 1);
    const double vin_k = vin_trace[idx];
    const double vref_k = vref_trace[idx];
    const double i_out = load_mean.over_cycle(k, t_sub);
    const bool fire = control == ScControl::FreeRunning || v < vref_k;
    // Paper eq. (2), evaluated semi-implicitly: the transferred charge is
    // computed against the end-of-cycle voltage, which keeps the exact SSL
    // steady state I*T = (n*Vin - V)*Ceq*kx while making the discrete map
    // unconditionally stable (the explicit form diverges when the fly
    // capacitance dwarfs the output capacitance, Ceq*kx > 2*Co).
    const double a = c_eq_sub * kx;
    const double dq =
        fire ? a * (ratio * vin_k - v + i_out * t_sub / c_o) / (1.0 + a / c_o) : 0.0;
    v += (-i_out * t_sub + dq) / c_o;
    times.push_back(t0 + t_sub);
    values.push_back(v);
  }

  DynWaveform out;
  out.dt_s = dt_s;
  out.v = resample(times, values, dt_s, i_load.size());
  check_finite(out.v, "sc_cycle_response_traces: output waveform");
  return out;
}

DynWaveform buck_cycle_response(const BuckDesign& d, double vin_v, double vref_v,
                                const std::vector<double>& i_load, double dt_s) {
  check_trace(i_load, dt_s);
  require(vin_v > 0.0 && vref_v > 0.0 && vref_v < vin_v,
          "buck_cycle_response: need 0 < vref < vin");

  const tech::InductorTech& ind = tech::inductor_tech(d.inductor);
  // N interleaved phases fold into one equivalent converter with L/N.
  const double l_eq = ind.inductance_at(d.l_per_phase_h, d.f_sw_hz) /
                      static_cast<double>(d.n_phases);
  const double r_s = ind.dcr(d.l_per_phase_h) / static_cast<double>(d.n_phases);
  const double t = 1.0 / d.f_sw_hz;

  // Conservative PI voltage-mode gains referred to duty.
  const double kp = 0.2 / vin_v;
  const double ki = 0.02 / vin_v;

  const double t_end = static_cast<double>(i_load.size()) * dt_s;
  const std::size_t n_cycles = static_cast<std::size_t>(t_end / t) + 1;
  const WindowMean load_mean(i_load, dt_s);

  std::vector<double> times, values;
  times.reserve(n_cycles + 1);
  double v = vref_v + fault::inject("cycle_model");
  double i_l = load_mean.over_cycle(0, t);
  double integ = 0.0;
  times.push_back(0.0);
  values.push_back(v);

  for (std::size_t k = 0; k < n_cycles; ++k) {
    const double t0 = static_cast<double>(k) * t;
    const double i_out = load_mean.over_cycle(k, t);
    const double err = vref_v - v;
    integ += err;
    const double duty = std::clamp(vref_v / vin_v + kp * err + ki * integ, 0.0, 1.0);
    // Semi-implicit averaged CCM update: current first, then voltage.
    i_l += t * (duty * vin_v - v - i_l * r_s) / l_eq;
    v += t * (i_l - i_out) / d.c_out_f;
    times.push_back(t0 + t);
    values.push_back(v);
  }

  DynWaveform out;
  out.dt_s = dt_s;
  out.v = resample(times, values, dt_s, i_load.size());
  check_finite(out.v, "buck_cycle_response: output waveform");
  return out;
}

DynWaveform ldo_cycle_response(const LdoDesign& d, double vin_v, double vref_v,
                               const std::vector<double>& i_load, double dt_s) {
  check_trace(i_load, dt_s);
  require(vin_v > 0.0 && vref_v > 0.0 && vref_v < vin_v,
          "ldo_cycle_response: need 0 < vref < vin");

  const tech::SwitchTech& core_dev = tech::switch_tech(d.node, tech::DeviceClass::Core);
  const tech::SwitchTech& dev = vin_v > core_dev.vmax_v
                                    ? tech::switch_tech(d.node, tech::DeviceClass::Io)
                                    : core_dev;
  const double g_full = 1.0 / dev.ron(d.w_pass_m);
  const double segments = std::pow(2.0, d.n_bits);
  const double t = 1.0 / d.f_clk_hz;

  const double t_end = static_cast<double>(i_load.size()) * dt_s;
  const std::size_t n_cycles = static_cast<std::size_t>(t_end / t) + 1;
  const WindowMean load_mean(i_load, dt_s);

  std::vector<double> times, values;
  double v = vref_v + fault::inject("cycle_model");
  // Start with the code that carries the initial load.
  const double i0 = load_mean.over_cycle(0, t);
  double code = std::clamp(i0 / ((vin_v - v) * g_full) * segments, 0.0, segments);
  times.push_back(0.0);
  values.push_back(v);

  for (std::size_t k = 0; k < n_cycles; ++k) {
    const double t0 = static_cast<double>(k) * t;
    const double i_out = load_mean.over_cycle(k, t);
    // Clocked bang-bang comparator steps the unary array one segment.
    code = std::clamp(code + (v < vref_v ? 1.0 : -1.0), 0.0, segments);
    const double i_pass = (code / segments) * g_full * std::max(vin_v - v, 0.0);
    v += t * (i_pass - i_out) / d.c_out_f;
    times.push_back(t0 + t);
    values.push_back(v);
  }

  DynWaveform out;
  out.dt_s = dt_s;
  out.v = resample(times, values, dt_s, i_load.size());
  check_finite(out.v, "ldo_cycle_response: output waveform");
  return out;
}

DynWaveform dldo_cycle_response(const DldoDesign& d, double vin_v, double vref_v,
                                const std::vector<double>& i_load, double dt_s) {
  check_trace(i_load, dt_s);
  require(vin_v > 0.0 && vref_v > 0.0 && vref_v < vin_v,
          "dldo_cycle_response: need 0 < vref < vin");
  require(d.n_comparators >= 1, "dldo_cycle_response: need at least one comparator");

  const tech::SwitchTech& core_dev = tech::switch_tech(d.node, tech::DeviceClass::Core);
  const tech::SwitchTech& dev = vin_v > core_dev.vmax_v
                                    ? tech::switch_tech(d.node, tech::DeviceClass::Io)
                                    : core_dev;
  const double g_full = 1.0 / dev.ron(d.w_pass_m);
  const double segments = std::pow(2.0, d.n_bits);
  // Time-interleaved comparator slices fire round-robin: one code decision
  // every 1 / (n_comp * f_clk).
  const double t = 1.0 / (static_cast<double>(d.n_comparators) * d.f_clk_hz);

  const double t_end = static_cast<double>(i_load.size()) * dt_s;
  const std::size_t n_cycles = static_cast<std::size_t>(t_end / t) + 1;
  const WindowMean load_mean(i_load, dt_s);

  std::vector<double> times, values;
  double v = vref_v + fault::inject("cycle_model");
  // Start with the code that carries the initial load.
  const double i0 = load_mean.over_cycle(0, t);
  double code = std::clamp(i0 / ((vin_v - v) * g_full) * segments, 0.0, segments);
  times.push_back(0.0);
  values.push_back(v);

  for (std::size_t k = 0; k < n_cycles; ++k) {
    const double t0 = static_cast<double>(k) * t;
    const double i_out = load_mean.over_cycle(k, t);
    code = std::clamp(code + (v < vref_v ? 1.0 : -1.0), 0.0, segments);
    const double i_pass = (code / segments) * g_full * std::max(vin_v - v, 0.0);
    v += t * (i_pass - i_out) / d.c_out_f;
    times.push_back(t0 + t);
    values.push_back(v);
  }

  DynWaveform out;
  out.dt_s = dt_s;
  out.v = resample(times, values, dt_s, i_load.size());
  check_finite(out.v, "dldo_cycle_response: output waveform");
  return out;
}

std::vector<double> in_cycle_response(const std::vector<double>& i_load, double dt_s,
                                      double t_cycle_s, double c_hf_f) {
  check_trace(i_load, dt_s);
  require(t_cycle_s > 0.0, "in_cycle_response: cycle period must be positive");
  require(c_hf_f > 0.0, "in_cycle_response: capacitance must be positive");

  std::vector<double> out(i_load.size(), 0.0);
  const std::size_t per_cycle = std::max<std::size_t>(
      static_cast<std::size_t>(std::llround(t_cycle_s / dt_s)), 1);
  for (std::size_t start = 0; start < i_load.size(); start += per_cycle) {
    const std::size_t end = std::min(start + per_cycle, i_load.size());
    double mean = 0.0;
    for (std::size_t k = start; k < end; ++k) mean += i_load[k];
    mean /= static_cast<double>(end - start);
    double acc = 0.0;
    for (std::size_t k = start; k < end; ++k) {
      acc += (i_load[k] - mean) * dt_s;
      out[k] = -acc / c_hf_f;
    }
  }
  return out;
}

std::vector<double> grid_noise(const std::vector<double>& i_load, double dt_s, double r_ohm,
                               double l_h) {
  check_trace(i_load, dt_s);
  require(r_ohm >= 0.0 && l_h >= 0.0, "grid_noise: r and l must be non-negative");
  double mean = 0.0;
  for (double i : i_load) mean += i;
  mean /= static_cast<double>(i_load.size());

  std::vector<double> out(i_load.size(), 0.0);
  for (std::size_t k = 0; k < i_load.size(); ++k) {
    const double didt = k + 1 < i_load.size() ? (i_load[k + 1] - i_load[k]) / dt_s
                                              : (i_load[k] - i_load[k - 1]) / dt_s;
    out[k] = -r_ohm * (i_load[k] - mean) - l_h * didt;
  }
  return out;
}

namespace {

DynWaveform add_in_cycle(DynWaveform base, const std::vector<double>& i_load, double dt_s,
                         double t_cycle, double c_hf) {
  const std::vector<double> hf = in_cycle_response(i_load, dt_s, t_cycle, c_hf);
  for (std::size_t k = 0; k < base.v.size() && k < hf.size(); ++k) base.v[k] += hf[k];
  return base;
}

}  // namespace

DynWaveform sc_combined_response(const ScDesign& d, double vin_v, double vref_v,
                                 const std::vector<double>& i_load, double dt_s,
                                 ScControl control) {
  DynWaveform base = sc_cycle_response(d, vin_v, vref_v, i_load, dt_s, control);
  const double t_sub = 1.0 / (d.f_sw_hz * static_cast<double>(d.n_interleave));
  return add_in_cycle(std::move(base), i_load, dt_s, t_sub, sc_output_hf_cap(d));
}

DynWaveform buck_combined_response(const BuckDesign& d, double vin_v, double vref_v,
                                   const std::vector<double>& i_load, double dt_s) {
  DynWaveform base = buck_cycle_response(d, vin_v, vref_v, i_load, dt_s);
  const double t_sub = 1.0 / (d.f_sw_hz * static_cast<double>(d.n_phases));
  return add_in_cycle(std::move(base), i_load, dt_s, t_sub, d.c_out_f);
}

DynWaveform ldo_combined_response(const LdoDesign& d, double vin_v, double vref_v,
                                  const std::vector<double>& i_load, double dt_s) {
  DynWaveform base = ldo_cycle_response(d, vin_v, vref_v, i_load, dt_s);
  return add_in_cycle(std::move(base), i_load, dt_s, 1.0 / d.f_clk_hz, d.c_out_f);
}

DynWaveform dldo_combined_response(const DldoDesign& d, double vin_v, double vref_v,
                                   const std::vector<double>& i_load, double dt_s) {
  DynWaveform base = dldo_cycle_response(d, vin_v, vref_v, i_load, dt_s);
  const double t_dec = 1.0 / (static_cast<double>(d.n_comparators) * d.f_clk_hz);
  return add_in_cycle(std::move(base), i_load, dt_s, t_dec, d.c_out_f);
}

// ---------------------------------------------------------------------------
// Frequency-domain transfer (eqs. 3-5)
// ---------------------------------------------------------------------------

std::complex<double> NoiseTransfer::f_load(double f_hz) const {
  require(f_hz > 0.0, "NoiseTransfer: frequency must be positive");
  const std::complex<double> jw(0.0, 2.0 * pi * f_hz);
  return 1.0 / (1.0 + jw * r_out_ohm * c_hf_f);
}

std::complex<double> NoiseTransfer::f_zoh(double f_hz) const {
  require(f_hz > 0.0, "NoiseTransfer: frequency must be positive");
  require(f_sw_hz > 0.0, "NoiseTransfer: f_sw must be set");
  const double t = 1.0 / f_sw_hz;
  const std::complex<double> jwt(0.0, 2.0 * pi * f_hz * t);
  if (std::abs(jwt) < 1e-9) return {1.0, 0.0};
  return (1.0 - std::exp(-jwt)) / jwt;
}

std::complex<double> NoiseTransfer::rejection(double f_hz) const {
  const std::complex<double> fl = f_load(f_hz);
  const double delay = ctrl_delay_s > 0.0 ? ctrl_delay_s : 0.5 / f_sw_hz;
  const std::complex<double> fctl =
      ctrl_gain * std::exp(std::complex<double>(0.0, -2.0 * pi * f_hz * delay));
  // |F_sw| falls as 1/f above f_sw and nulls at multiples of f_sw: past the
  // switching frequency the loop contributes nothing and H -> F_L (eq. 5).
  return fl / (1.0 + fl * fctl * f_zoh(f_hz));
}

}  // namespace ivory::core
