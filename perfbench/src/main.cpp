// Ivory's end-to-end benchmark.
//
// Starts an in-process `serve::Server` and drives it the way Ivory's
// callers do: closed-loop `serve::BlockingClient` connections, each sending
// its next seeded NDJSON request only after the previous reply arrived.
// The thread pool is pinned to one thread for every workload.
//
//   ivory_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--work-dir DIR]
//
// --trace 0 reports the end-to-end metrics of a timed run: requests per
// second, p50/p90/p99 latency, set-up time and peak RSS. --trace 1 reports
// the per-layer metrics of a separate traced run (see traced.hpp) and
// writes its spans as Chrome trace_event JSON into the work directory.
// Both print the host calibration and the deterministic work counters of
// the workload's fixed request prefix, and end with one JSON result line.
//
// Workloads (see requests.cpp for the exact mix):
//   dse_sweep      1 connection: pareto and explore over distinct systems
//   transient_mix  1 connection: switched SC netlists, 32x32 and 64x64
//                  grids, behavioural transients, scenario presets
//   serve_mix      2 connections: cheap static ops, half of them repeats,
//                  5% streamed wave1 transients
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/pareto.hpp"
#include "loadgen.hpp"
#include "requests.hpp"
#include "traced.hpp"
#include "util.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build";
  bool setup_probe = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--work-dir") a.work_dir = value();
    else if (k == "--setup-probe") a.setup_probe = true;
    else throw std::invalid_argument("unknown argument '" + k + "'");
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

/// Set-up as a user pays it: a fresh process starts the server and sends
/// the warm-up requests that fill the memo tables. Runs in a child process
/// (`--setup-probe`) so every sample starts cold; returns seconds from
/// spawn to exit, or a negative value if the probe failed.
double setup_probe_seconds(const Args& a) {
  std::vector<std::string> args = {"/proc/self/exe", "--setup-probe", "--workload",
                                   a.workload, "--work-dir", a.work_dir};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  const auto t0 = Clock::now();
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0)
    return -1.0;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1.0;
  const double s = ms_between(t0, Clock::now()) / 1e3;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1.0;
}

/// End-to-end figures of one stretch of the timed run.
struct Window {
  double req_per_s = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

/// Splits the timed run into equal stretches of at least 1000 requests
/// each (at most 15) and measures each one, so a disturbance of the host
/// that lasts a few seconds moves one window, not the reported median.
std::vector<Window> windows(const TimedRun& run) {
  const std::size_t k = std::clamp<std::size_t>(run.samples.size() / 1000, 1, 15);
  const double span = run.wall_s / static_cast<double>(k);
  std::vector<std::vector<double>> ms(k);
  for (const Sample& s : run.samples)
    ms[std::min(k - 1, static_cast<std::size_t>(s.end_s / span))].push_back(s.ms);
  std::vector<Window> out;
  for (const std::vector<double>& v : ms)
    out.push_back({static_cast<double>(v.size()) / span, quantile(v, 0.50), quantile(v, 0.90),
                   quantile(v, 0.99)});
  return out;
}

/// The generator's own self-test: two independent generators for the same
/// seed must produce byte-identical prefixes. Returns their digest, or 0.
std::uint64_t generator_self_test(Workload w, std::uint64_t seed) {
  const WorkloadShape shape = workload_shape(w);
  const std::size_t n = shape.block * shape.count_blocks;
  std::uint64_t digest = fnv1a("");
  for (int c = 0; c < shape.connections; ++c) {
    const std::vector<RequestSpec> a = generate(w, seed, c, n);
    const std::vector<RequestSpec> b = generate(w, seed, c, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i].line != b[i].line) return 0;
      digest = fnv1a(a[i].line, digest);
    }
  }
  return digest;
}

/// What a run reports: its metrics and how many requests failed a check.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::string error;  ///< first failure

  void add(std::uint64_t n_attempted, std::uint64_t n_failed, const std::string& why) {
    attempted += n_attempted;
    failed += n_failed;
    if (error.empty()) error = why;
  }
};

/// Wall time of each phase of a run, printed with the results.
class Phases {
 public:
  void end(const char* name) {
    const Clock::time_point now = Clock::now();
    times_.emplace_back(name, ms_between(last_, now) / 1e3);
    last_ = now;
  }
  void print() const {
    std::printf("phases (s):");
    for (const auto& [name, s] : times_) std::printf(" %s %.3f", name, s);
    std::printf("\n");
  }

 private:
  Clock::time_point last_ = Clock::now();
  std::vector<std::pair<const char*, double>> times_;
};

HostCalibration print_calibration(Phases& phases) {
  const HostCalibration host = calibrate_host();
  std::printf("host: spin %.4f ns/iter; raw std::thread parallelism at 4 threads %.3f "
              "(not gated)\n",
              host.spin_ns, host.parallelism_4t);
  phases.end("calibration");
  return host;
}

/// --trace 0: set-up probes, the timed closed-loop run, then the work
/// counters of the fixed prefix.
void untraced(const Args& a, Workload w, Phases& phases, Outcome& out) {
  // Before any server thread exists, so each probe spawns from a quiet process.
  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) {
    const double s = setup_probe_seconds(a);
    if (s < 0.0)
      out.add(0, 1, "set-up probe failed");
    else
      setups.push_back(s);
  }
  phases.end("setup_probes");
  print_calibration(phases);

  TimedRun run;
  double cpu_s = 0.0;
  {
    BenchServer srv(a.work_dir);
    if (!warm_up(srv.path(), w)) out.add(0, 1, "warm-up failed");
    phases.end("warm_up");
    const double cpu0 = process_cpu_s();
    run = run_timed(srv.path(), w, a.seed, a.seconds);
    cpu_s = process_cpu_s() - cpu0;
  }
  phases.end("timed");
  out.add(run.attempted, run.failed, run.error);

  std::vector<double> all;
  std::vector<std::vector<double>> by_class(run.classes.size());
  for (const Sample& s : run.samples) {
    all.push_back(s.ms);
    by_class[s.cls].push_back(s.ms);
  }
  std::printf("timed run: %zu requests in %.3f s; process cpu %.6f ms per request\n",
              all.size(), run.wall_s,
              all.empty() ? 0.0 : 1e3 * cpu_s / static_cast<double>(all.size()));
  for (std::size_t c = 0; c < run.classes.size(); ++c)
    std::printf("  %-13s n %7zu  p50 %10.4f ms  p90 %10.4f ms  max %10.4f ms\n",
                run.classes[c].c_str(), by_class[c].size(), quantile(by_class[c], 0.5),
                quantile(by_class[c], 0.9), quantile(by_class[c], 1.0));
  std::printf("set-up: %zu fresh-process probes, min %.4f s, max %.4f s\n", setups.size(),
              quantile(setups, 0.0), quantile(setups, 1.0));

  // Work counters: the fixed prefix again, through a fresh server; its
  // replies must equal the timed run's. The stage-3 simulation memo is
  // process-wide and a pareto reply's sweep report counts only the
  // simulations that missed it, so the replay starts from an empty memo,
  // as the timed run's first requests did.
  ivory::core::funnel_sim_cache_clear();
  FixedPass fixed;
  {
    BenchServer srv(a.work_dir);
    fixed = run_fixed(srv, w, a.seed, &run);
  }
  phases.end("count_pass");
  out.add(0, fixed.failed, fixed.error);
  const WorkloadShape shape = workload_shape(w);
  char title[128];
  std::snprintf(title, sizeof title, "work counters (first %zu requests per connection):",
                shape.block * shape.count_blocks);
  fixed.counters.print(title);

  const std::vector<Window> win = windows(run);
  const auto med = [&win](double Window::*field) {
    std::vector<double> v;
    for (const Window& x : win) v.push_back(x.*field);
    return median(v);
  };
  out.metrics = {
      {"req_per_s", med(&Window::req_per_s), "1/s"},
      {"p50_ms", med(&Window::p50), "ms"},
      {"p90_ms", med(&Window::p90), "ms"},
      {"p99_ms", med(&Window::p99), "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
  std::printf("windows (req/s, p50 ms):");
  for (const Window& x : win) std::printf(" %.5g/%.4g", x.req_per_s, x.p50);
  std::printf("\nend-to-end metrics (median over %zu window(s) of the %zu latency samples):\n",
              win.size(), all.size());
  print_metrics(out.metrics);
}

/// --trace 1: the per-layer metrics of the traced run.
void traced(const Args& a, Workload w, Phases& phases, Outcome& out) {
  const HostCalibration host = print_calibration(phases);
  const std::string trace_path =
      a.work_dir + "/trace-" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
  TracedResult tr = run_traced(a.work_dir, w, a.seed, trace_path);
  phases.end("traced");
  out.add(tr.attempted, tr.failed, tr.error);
  out.metrics = std::move(tr.metrics);
  out.metrics.push_back({"host.spin_ns", host.spin_ns, "ns"});
  out.metrics.push_back({"host.parallelism_4t", host.parallelism_4t, "threads"});
  std::printf("traced run: %llu requests, %zu spans written to %s\n",
              static_cast<unsigned long long>(tr.attempted), tr.spans, trace_path.c_str());
  std::printf("per-layer metrics:\n");
  print_metrics(out.metrics);
}

int run(const Args& a) {
  const Workload w = workload_from_string(a.workload);
  ivory::par::set_global_threads(1);

  if (a.setup_probe) {
    BenchServer srv(a.work_dir);
    return warm_up(srv.path(), w) ? 0 : 1;
  }

  Phases phases;
  std::printf("perfbench %s: seed %llu, %g s, trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  std::printf("load: closed loop, %d connection(s), one client thread each, one process; "
              "pool pinned to %u thread\n",
              workload_shape(w).connections, ivory::par::global_threads());

  Outcome out;
  const std::uint64_t gen_digest = generator_self_test(w, a.seed);
  if (gen_digest == 0) out.add(0, 1, "request generator is not deterministic");
  std::printf("requests: generator self-test %s, prefix digest %016llx\n",
              gen_digest != 0 ? "ok" : "FAILED", static_cast<unsigned long long>(gen_digest));
  phases.end("self_test");

  if (a.trace == 1)
    traced(a, w, phases, out);
  else
    untraced(a, w, phases, out);

  phases.print();
  std::printf("checks: %llu attempted, %llu failed, error_frac %.6f%s%s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.attempted > 0
                  ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                  : 0.0,
              out.error.empty() ? "" : "; first failure: ", out.error.c_str());
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("%s\n", result_line(correct, out.attempted, out.failed, out.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ivory_perfbench: %s\n", e.what());
    return 2;
  }
}
