// In-memory spans for the traced run, written out as Chrome trace_event
// JSON when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct Span {
  const char* name;
  double t0_us, t1_us;  ///< since the run's origin
  std::uint64_t id, parent, request;
  int tid;
};

/// Spans of one client thread. Ids are unique across threads.
class SpanLog {
 public:
  SpanLog(int tid, Clock::time_point origin)
      : tid_(tid), base_(static_cast<std::uint64_t>(tid) * 1'000'000'000ull), origin_(origin) {}

  std::uint64_t open(const char* name, std::uint64_t parent, std::uint64_t request) {
    spans.push_back({name, now_us(), 0.0, base_ + spans.size() + 1, parent, request, tid_});
    return spans.back().id;
  }
  /// Ends span `id`; returns its duration in ms.
  double close(std::uint64_t id) {
    Span& s = spans[id - base_ - 1];
    s.t1_us = now_us();
    return (s.t1_us - s.t0_us) / 1e3;
  }

  std::vector<Span> spans;

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  int tid_;
  std::uint64_t base_;
  Clock::time_point origin_;
};

/// Runs `f` inside span `name`; returns the span's duration in ms.
template <class F>
double timed_span(SpanLog& log, const char* name, std::uint64_t parent, std::uint64_t request,
                  F&& f) {
  const std::uint64_t id = log.open(name, parent, request);
  f();
  return log.close(id);
}

/// {"traceEvents":[{"ph":"X",...,"args":{"id","parent","request"}},...]}
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
