#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace ivory::workload {

double PowerTrace::average() const {
  require(!watts.empty(), "PowerTrace::average: empty trace");
  double acc = 0.0;
  for (double w : watts) acc += w;
  return acc / static_cast<double>(watts.size());
}

double PowerTrace::peak() const {
  require(!watts.empty(), "PowerTrace::peak: empty trace");
  return *std::max_element(watts.begin(), watts.end());
}

PowerTrace PowerTrace::sum(const std::vector<PowerTrace>& traces) {
  require(!traces.empty(), "PowerTrace::sum: no traces");
  PowerTrace out;
  out.dt_s = traces.front().dt_s;
  out.watts.assign(traces.front().watts.size(), 0.0);
  for (std::size_t ti = 0; ti < traces.size(); ++ti) {
    const PowerTrace& t = traces[ti];
    // Name the offending trace so a caller mixing generated and file-loaded
    // traces can tell which input is off (the diagnostics pipeline carries
    // this message through ErrorCode::InvalidParameter).
    if (t.dt_s != out.dt_s)
      throw InvalidParameter("PowerTrace::sum: trace " + std::to_string(ti) + ": dt " +
                             std::to_string(t.dt_s) + " != " + std::to_string(out.dt_s) +
                             " of trace 0");
    if (t.watts.size() != out.watts.size())
      throw InvalidParameter("PowerTrace::sum: trace " + std::to_string(ti) + ": length " +
                             std::to_string(t.watts.size()) + " != " +
                             std::to_string(out.watts.size()) + " of trace 0");
    for (std::size_t i = 0; i < t.watts.size(); ++i) out.watts[i] += t.watts[i];
  }
  return out;
}

const char* benchmark_name(Benchmark b) {
  switch (b) {
    case Benchmark::BACKP: return "BACKP";
    case Benchmark::BFS2: return "BFS2";
    case Benchmark::CFD: return "CFD";
    case Benchmark::HOTSP: return "HOTSP";
    case Benchmark::KMN: return "KMN";
    case Benchmark::LUD: return "LUD";
    case Benchmark::MGST: return "MGST";
  }
  return "?";
}

Benchmark benchmark_from_string(const std::string& name) {
  for (Benchmark b : kAllBenchmarks)
    if (name == benchmark_name(b)) return b;
  std::string known;
  for (Benchmark b : kAllBenchmarks) {
    if (!known.empty()) known += ", ";
    known += benchmark_name(b);
  }
  throw InvalidParameter("benchmark_from_string: unknown benchmark '" + name + "' (known: " +
                         known + ")");
}

TraceStyle benchmark_style(Benchmark b) {
  // Profiles chosen to mimic the per-benchmark behaviour visible in the
  // GPUVolt data: CFD is the noisiest (deep kernel phases, large swings) and
  // HOTSP the calmest; BFS2 is irregular and spiky; KMN bursts periodically.
  switch (b) {
    case Benchmark::BACKP: return {0.15, 0.8e-6, 0.20, 5e-6, 2e5, 0.4, 0.7};
    case Benchmark::BFS2:  return {0.30, 0.5e-6, 0.15, 7e-6, 6e5, 0.6, 0.5};
    case Benchmark::CFD:   return {0.25, 1.0e-6, 0.50, 8e-6, 3e5, 0.7, 0.8};
    case Benchmark::HOTSP: return {0.10, 1.2e-6, 0.10, 6e-6, 1e5, 0.3, 0.7};
    case Benchmark::KMN:   return {0.18, 0.6e-6, 0.40, 3e-6, 4e5, 0.5, 0.75};
    case Benchmark::LUD:   return {0.20, 0.9e-6, 0.30, 10e-6, 2e5, 0.5, 0.6};
    case Benchmark::MGST:  return {0.20, 0.7e-6, 0.25, 6e-6, 3e5, 0.4, 0.65};
  }
  throw InvalidParameter("benchmark_style: unknown benchmark");
}

std::vector<PowerTrace> generate_gpu_traces(Benchmark b, int n_sm, double sm_avg_w,
                                            double duration_s, double dt_s, std::uint64_t seed) {
  require(n_sm >= 1, "generate_gpu_traces: need at least one SM");
  require(sm_avg_w > 0.0, "generate_gpu_traces: average power must be positive");
  require(duration_s > dt_s && dt_s > 0.0, "generate_gpu_traces: bad duration/dt");

  const TraceStyle style = benchmark_style(b);
  const std::size_t n = static_cast<std::size_t>(duration_s / dt_s);

  // Common (cross-SM correlated) OU noise and shared kernel phase.
  Pcg32 common_rng(seed, 0x9e3779b97f4a7c15ULL);
  const double alpha = std::exp(-dt_s / style.noise_tau_s);
  const double sigma_step = std::sqrt(1.0 - alpha * alpha);
  std::vector<double> common_noise(n);
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x = alpha * x + sigma_step * common_rng.normal();
    common_noise[i] = x;
  }

  std::vector<PowerTrace> out;
  out.reserve(static_cast<std::size_t>(n_sm));
  const double rho = style.sm_correlation;
  for (int sm = 0; sm < n_sm; ++sm) {
    Pcg32 rng(seed + 17u * static_cast<std::uint64_t>(sm + 1), 0xda3e39cb94b95bdbULL);
    PowerTrace trace;
    trace.dt_s = dt_s;
    trace.watts.resize(n);

    double own = 0.0;
    double spike = 0.0;
    // Microarchitectural events (pipeline flushes, warp stalls, barrier
    // releases) give GPU current its fast di/dt content: sharp-onset spikes
    // and dips with ~80 ns tails.
    const double spike_decay = std::exp(-dt_s / (80e-9));
    const double phase_shift = 0.03 * static_cast<double>(sm);  // SMs slightly skewed.
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) * dt_s;
      own = alpha * own + sigma_step * rng.normal();
      const double noise = rho * common_noise[i] + std::sqrt(1.0 - rho * rho) * own;

      // Kernel phases: clipped sine gives flat-topped compute phases with
      // dips at kernel boundaries.
      const double ph = std::sin(2.0 * pi * (t / style.phase_period_s + phase_shift));
      const double phase = style.phase_depth * std::clamp(1.5 * ph, -1.0, 1.0);

      spike *= spike_decay;
      if (rng.bernoulli(style.spike_rate_hz * dt_s)) {
        const double sign = rng.bernoulli(0.7) ? 1.0 : -0.8;
        spike += sign * style.spike_frac * rng.uniform(0.5, 1.0);
      }

      double w = sm_avg_w * (1.0 + phase + style.noise_frac * noise + spike);
      // Physical clamps: idle floor and thermal-limit ceiling.
      w = std::clamp(w, 0.2 * sm_avg_w, 2.5 * sm_avg_w);
      trace.watts[i] = w;
    }
    out.push_back(std::move(trace));
  }
  return out;
}

void write_traces_csv(std::ostream& out, const std::vector<PowerTrace>& traces) {
  require(!traces.empty(), "write_traces_csv: no traces");
  const double dt = traces.front().dt_s;
  const std::size_t n = traces.front().watts.size();
  require(n >= 2, "write_traces_csv: traces too short");
  for (const PowerTrace& t : traces) {
    require(t.dt_s == dt, "write_traces_csv: mismatched dt");
    require(t.watts.size() == n, "write_traces_csv: mismatched length");
  }
  out << "time_s";
  for (std::size_t s = 0; s < traces.size(); ++s) out << ",sm" << s << "_w";
  out << "\n";
  out.precision(9);
  for (std::size_t k = 0; k < n; ++k) {
    out << static_cast<double>(k) * dt;
    for (const PowerTrace& t : traces) out << ',' << t.watts[k];
    out << "\n";
  }
}

std::vector<PowerTrace> read_traces_csv(std::istream& in) {
  std::string line;
  require(static_cast<bool>(std::getline(in, line)), "read_traces_csv: empty input");
  // Column count from the header.
  std::size_t n_cols = 1;
  for (char ch : line)
    if (ch == ',') ++n_cols;
  require(n_cols >= 2, "read_traces_csv: need a time column and at least one trace");

  std::vector<double> times;
  std::vector<PowerTrace> traces(n_cols - 1);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t row = times.size();  // 0-based sample index of this data row.
    std::size_t pos = 0, col = 0;
    while (col < n_cols) {
      const std::size_t comma = line.find(',', pos);
      const std::string cell =
          line.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (cell.empty())
        throw InvalidParameter("read_traces_csv: empty cell at sample " + std::to_string(row) +
                               ", column " + std::to_string(col));
      double v = 0.0;
      try {
        std::size_t used = 0;
        v = std::stod(cell, &used);
        require(used == cell.size(), "trailing garbage");
      } catch (const std::exception&) {
        throw InvalidParameter("read_traces_csv: unparseable cell '" + cell + "' at sample " +
                               std::to_string(row) + ", column " + std::to_string(col));
      }
      if (!std::isfinite(v))
        throw InvalidParameter("read_traces_csv: non-finite value at sample " +
                               std::to_string(row) + ", column " + std::to_string(col));
      if (col == 0)
        times.push_back(v);
      else
        traces[col - 1].watts.push_back(v);
      if (comma == std::string::npos && col != n_cols - 1)
        throw InvalidParameter("read_traces_csv: row at sample " + std::to_string(row) +
                               " has too few columns");
      pos = comma + 1;
      ++col;
    }
  }
  require(times.size() >= 2, "read_traces_csv: need at least two samples");
  const double dt = times[1] - times[0];
  require(dt > 0.0, "read_traces_csv: time column must increase (sample 1)");
  for (std::size_t k = 1; k < times.size(); ++k) {
    const double step = times[k] - times[k - 1];
    if (!(step > 0.0))
      throw InvalidParameter("read_traces_csv: non-increasing timestamp at sample " +
                             std::to_string(k));
    if (!(std::fabs(step - dt) <= 0.01 * dt))
      throw InvalidParameter("read_traces_csv: non-uniform sampling at sample " +
                             std::to_string(k));
  }
  for (PowerTrace& t : traces) t.dt_s = dt;
  return traces;
}

double DigitalLoadModel::power(double v, double f_hz, double activity) const {
  require(v > 0.0 && f_hz > 0.0, "DigitalLoadModel::power: v and f must be positive");
  require(activity >= 0.0, "DigitalLoadModel::power: activity must be non-negative");
  const double vr = v / v_nom_v;
  const double dyn = p_dyn_nom_w * activity * vr * vr * (f_hz / f_nom_hz);
  const double leak = p_leak_nom_w * vr * vr * vr;
  return dyn + leak;
}

double DigitalLoadModel::current(double v, double f_hz, double activity) const {
  return power(v, f_hz, activity) / v;
}

DigitalLoadModel DigitalLoadModel::from_average_power(double p_avg_w, double v_nom_v,
                                                      double f_nom_hz, double leak_fraction) {
  require(p_avg_w > 0.0, "DigitalLoadModel: average power must be positive");
  require(leak_fraction >= 0.0 && leak_fraction < 1.0,
          "DigitalLoadModel: leak fraction must be in [0, 1)");
  DigitalLoadModel m;
  m.v_nom_v = v_nom_v;
  m.f_nom_hz = f_nom_hz;
  m.p_leak_nom_w = p_avg_w * leak_fraction;
  m.p_dyn_nom_w = p_avg_w - m.p_leak_nom_w;
  return m;
}

std::vector<double> power_to_current(const PowerTrace& trace, const DigitalLoadModel& load,
                                     double v) {
  require(!trace.watts.empty(), "power_to_current: empty trace");
  require(v > 0.0, "power_to_current: voltage must be positive");
  // Each sample's activity is inferred at nominal conditions, then replayed
  // at voltage v: dynamic power rescales by (v/vn)^2, leakage by (v/vn)^3.
  std::vector<double> out(trace.watts.size());
  for (std::size_t i = 0; i < trace.watts.size(); ++i) {
    const double p_dyn_nom = std::max(trace.watts[i] - load.p_leak_nom_w, 0.0);
    const double activity = load.p_dyn_nom_w > 0.0 ? p_dyn_nom / load.p_dyn_nom_w : 0.0;
    out[i] = load.current(v, load.f_nom_hz, activity);
  }
  return out;
}

void check_power_states(const std::vector<PowerStateSpec>& states) {
  require(!states.empty(), "check_power_states: need at least one state");
  double total = 0.0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const PowerStateSpec& s = states[i];
    const auto where = [&] {
      return "state " + std::to_string(i) + (s.name.empty() ? "" : " (" + s.name + ")");
    };
    if (!(s.v_v > 0.0 && s.f_hz > 0.0))
      throw InvalidParameter("check_power_states: " + where() + ": v and f must be positive");
    if (!(s.activity >= 0.0))
      throw InvalidParameter("check_power_states: " + where() + ": negative activity");
    if (!(s.residency >= 0.0))
      throw InvalidParameter("check_power_states: " + where() + ": negative residency");
    total += s.residency;
  }
  if (!(std::fabs(total - 1.0) <= 1e-9))
    throw InvalidParameter("check_power_states: residencies sum to " + std::to_string(total) +
                           ", expected 1");
}

std::vector<PowerStateSpec> residency_preset(const std::string& name) {
  // V/f points are expressed against the default 1.0 V / 1 GHz nominal of
  // the case study. "gpu-dvfs-step" encodes exactly the fast-DVFS excursion
  // of examples/dvfs_transient.cpp (1.00 V / 1 GHz <-> 0.85 V / 0.7 GHz).
  std::vector<PowerStateSpec> states;
  if (name == "gpu-dvfs-step") {
    states = {{"perf", 1.00, 1.0e9, 1.0, 0.65, false},
              {"eco", 0.85, 0.7e9, 1.0, 0.35, false}};
  } else if (name == "active-idle") {
    states = {{"active", 1.00, 1.0e9, 1.0, 0.30, false},
              {"idle", 0.70, 0.2e9, 0.05, 0.70, true}};
  } else if (name == "race-to-halt") {
    states = {{"burst", 1.00, 1.2e9, 1.0, 0.20, false},
              {"nominal", 0.95, 0.9e9, 0.70, 0.20, false},
              {"halt", 0.65, 0.1e9, 0.02, 0.60, true}};
  } else if (name == "server-diurnal") {
    states = {{"peak", 1.00, 1.1e9, 1.0, 0.35, false},
              {"typical", 0.92, 0.85e9, 0.60, 0.45, false},
              {"trough", 0.80, 0.5e9, 0.25, 0.20, false}};
  } else {
    std::string known;
    for (const std::string& n : residency_preset_names())
      known += (known.empty() ? "" : ", ") + n;
    throw InvalidParameter("residency_preset: unknown preset '" + name + "' (known: " + known +
                           ")");
  }
  check_power_states(states);
  return states;
}

std::vector<std::string> residency_preset_names() {
  return {"gpu-dvfs-step", "active-idle", "race-to-halt", "server-diurnal"};
}

DvfsSchedule down_and_back_schedule(const std::vector<PowerStateSpec>& states, double dwell_s) {
  require(dwell_s > 0.0, "down_and_back_schedule: dwell must be positive");
  std::vector<DvfsPoint> points;
  for (const PowerStateSpec& s : states) {
    if (s.gated) continue;  // A gated state has no DVFS setpoint to dwell on.
    points.push_back({static_cast<double>(points.size()) * dwell_s, s.v_v, s.f_hz});
  }
  require(!points.empty(), "down_and_back_schedule: no non-gated states");
  points.push_back({static_cast<double>(points.size()) * dwell_s, points.front().v_v,
                    points.front().f_hz});
  return DvfsSchedule(std::move(points));
}

DvfsSchedule::DvfsSchedule(std::vector<DvfsPoint> points) : points_(std::move(points)) {
  require(!points_.empty(), "DvfsSchedule: need at least one point");
  require(points_.front().t_s == 0.0, "DvfsSchedule: first point must be at t = 0");
  for (std::size_t i = 1; i < points_.size(); ++i)
    require(points_[i].t_s > points_[i - 1].t_s, "DvfsSchedule: times must increase");
  for (const DvfsPoint& p : points_)
    require(p.v_v > 0.0 && p.f_hz > 0.0, "DvfsSchedule: v and f must be positive");
}

const DvfsPoint& DvfsSchedule::at(double t) const {
  const DvfsPoint* best = &points_.front();
  for (const DvfsPoint& p : points_) {
    if (p.t_s <= t) best = &p;
    else break;
  }
  return *best;
}

DvfsSchedule DvfsSchedule::constant(double v, double f_hz) {
  return DvfsSchedule({{0.0, v, f_hz}});
}

}  // namespace ivory::workload
