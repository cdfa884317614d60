// Small helpers shared by the benchmark's passes: timing, order
// statistics, the result line, host calibration and response envelopes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Prints `metrics` one per line, aligned, to stdout.
void print_metrics(const std::vector<Metric>& metrics);

/// Fixed work that shows how fast and how parallel this host is right now.
struct HostCalibration {
  double spin_ns = 0.0;         ///< ns per iteration of a dependent integer chain
  double parallelism_4t = 0.0;  ///< 4 * T(1 thread) / T(4 threads, 4x the work)
};
HostCalibration calibrate_host();

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// User plus system CPU time of this process so far, in seconds.
double process_cpu_s();

/// True when a response line is an {"id":...,"ok":true,...} envelope.
bool response_ok(std::string_view resp);

/// The response with its echoed id cut off (from ,"ok": on), so responses
/// to one body sent under different ids compare equal.
std::string_view without_id(std::string_view resp);

}  // namespace perfbench
