#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A dependent multiply-add chain: one iteration cannot start before the
/// previous ends, so the time per iteration tracks core speed only.
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + (x >> 29);
  return x;
}

double spin_seconds(std::uint64_t iters, int threads) {
  std::vector<std::thread> pool;
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&sinks, t, iters] { sinks[static_cast<std::size_t>(t)] = spin(iters); });
  for (std::thread& th : pool) th.join();
  const double s = ms_between(t0, Clock::now()) / 1e3;
  volatile std::uint64_t keep = sinks[0];
  (void)keep;
  return s;
}

}  // namespace

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\":") + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" + json_number(metrics[i].value) +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

HostCalibration calibrate_host() {
  constexpr std::uint64_t kIters = 20'000'000;
  HostCalibration c;
  double one = 1e300;
  for (int rep = 0; rep < 3; ++rep) one = std::min(one, spin_seconds(kIters, 1));
  c.spin_ns = one * 1e9 / static_cast<double>(kIters);
  double four = 1e300;
  for (int rep = 0; rep < 2; ++rep) four = std::min(four, spin_seconds(kIters, 4));
  c.parallelism_4t = 4.0 * one / four;
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

bool response_ok(std::string_view resp) {
  const std::size_t p = resp.find(",\"ok\":");
  return resp.rfind("{\"id\":", 0) == 0 && p != std::string_view::npos &&
         resp.compare(p, 11, ",\"ok\":true,") == 0;
}

std::string_view without_id(std::string_view resp) {
  const std::size_t p = resp.find(",\"ok\":");
  return p == std::string_view::npos ? resp : resp.substr(p);
}

}  // namespace perfbench
