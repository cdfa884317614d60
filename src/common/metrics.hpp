// Process-wide observability primitives: a metrics registry of monotonic
// counters, gauges and fixed-bucket latency histograms.
//
// Design goals, in order:
//
//  1. *Never perturb results.* No metric feeds back into any computation;
//     every existing output (batch NDJSON, transient waveforms, DSE reports)
//     is byte-identical with metrics enabled, runtime-disabled, or compiled
//     out. Tests lock this down (tests/test_observability.cpp).
//  2. *Cheap on the hot path.* Counter increments are a relaxed fetch_add on
//     one of a small set of cacheline-padded per-thread stripes — lock-free,
//     no false sharing between pool workers. Aggregation (summing the
//     stripes) happens only on read. Instrumentation sites sit at batch /
//     request / run granularity, never inside per-step loops: the transient
//     engine accumulates its counters locally (TranResult snapshots) and
//     folds them into the registry once per run; tools/perf_smoke_same_code.sh
//     checks that every function its stepping loop can reach compiles to the
//     same instructions with this layer compiled out.
//  3. *Deterministic where the computation is.* Counter values are exact sums
//     of the work performed, so a serial section produces byte-identical
//     counter values across runs; a parallel section produces identical
//     totals at any thread count (per-stripe distribution varies, the sum
//     does not). Latency histograms and gauges are time-dependent by nature
//     and carry no determinism contract.
//
// Compile-time kill switch: building with -DIVORY_NO_METRICS turns every
// type in this header into a zero-cost stub (empty structs, no-op inline
// methods, empty registry output), the twin build that same-code check
// disassembles. A runtime switch (`set_enabled(false)`, or environment
// `IVORY_METRICS=0`) short-circuits recording without recompiling.
//
// Naming: dotted lowercase paths ("serve.cache.hits"). The Prometheus
// renderer mangles '.' to '_' to satisfy the exposition-format grammar.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace ivory::metrics {

/// Stable small integer id of the calling thread (assigned on first use,
/// monotonically). Shared by the metric stripes and the span tracer.
unsigned thread_index();

/// Runtime kill switch. Defaults to on unless the environment sets
/// IVORY_METRICS=0. Disabling stops recording; already-recorded values remain
/// readable.
bool enabled();
void set_enabled(bool on);

#if !defined(IVORY_NO_METRICS)

/// Stripe count for the lock-free fast path. Threads map onto stripes by
/// index modulo; totals are exact regardless of the mapping.
inline constexpr std::size_t kStripes = 16;

namespace detail {
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};
inline std::size_t stripe() { return thread_index() % kStripes; }
}  // namespace detail

/// Monotonic counter. add() is lock-free (relaxed fetch_add on the calling
/// thread's stripe); value() sums the stripes.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    slots_[detail::stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::PaddedU64 slots_[kStripes];
};

/// Last-write-wins signed gauge (queue depths, thread counts, high-water
/// marks via set_max).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) {
    if (!enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if below (monotonic high-water mark).
  void set_max(std::int64_t v) {
    if (!enabled()) return;
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram. Bucket upper bounds are set at registration and
/// immutable; observe() finds the bucket by linear scan (bound counts are
/// single digits) and bumps a striped counter, plus a striped sum (bit-cast
/// CAS — doubles have no atomic fetch_add pre-C++20 on all toolchains).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;        ///< finite upper bounds, ascending
    std::vector<std::uint64_t> counts; ///< per-bucket (bounds.size()+1: +inf last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;
  void reset();

  /// Default latency bucket bounds in milliseconds: 0.01 .. 10000, decades
  /// split 1/2.5/5.
  static std::vector<double> default_latency_bounds_ms();

 private:
  std::vector<double> bounds_;
  /// counts_[bucket * kStripes + stripe]; last bucket row is +inf.
  std::vector<detail::PaddedU64> counts_;
  detail::PaddedU64 sums_[kStripes];  ///< double bits accumulated via CAS
};

#else  // IVORY_NO_METRICS: zero-cost stubs with the same surface.

class Counter {
 public:
  void add(std::uint64_t = 1) {}
  std::uint64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  void set(std::int64_t) {}
  void add(std::int64_t) {}
  void set_max(std::int64_t) {}
  std::int64_t value() const { return 0; }
  void reset() {}
};

class Histogram {
 public:
  explicit Histogram(std::vector<double>) {}
  void observe(double) {}
  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const { return {}; }
  void reset() {}
  static std::vector<double> default_latency_bounds_ms() { return {}; }
};

#endif  // IVORY_NO_METRICS

/// Process-wide named-metric registry. Registration (first call for a name)
/// takes a mutex; the returned reference is stable for the process lifetime,
/// so call sites cache it in a function-local static and hit only the
/// lock-free recording path afterwards.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Registers with explicit bucket bounds (ignored if already registered).
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  Histogram& histogram(std::string_view name) {
    return histogram(name, Histogram::default_latency_bounds_ms());
  }

  /// Canonical JSON snapshot:
  ///   {"counters":{name:value,...},
  ///    "gauges":{name:value,...},
  ///    "histograms":{name:{"buckets":[{"le":b,"count":c},...],
  ///                        "count":n,"sum":s},...}}
  /// Keys sort bytewise when written with write_canonical(); bucket counts
  /// are cumulative (Prometheus convention); the final +inf bucket is the
  /// total "count" member (JSON has no Inf literal).
  json::Value to_json() const;

  /// Zeroes every registered metric (tests; registration survives).
  void reset();

 private:
  struct Impl;
  Impl& impl() const;
  mutable std::unique_ptr<Impl> impl_;

 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
};

/// The process-wide registry every layer instruments into.
Registry& registry();

/// Prometheus text exposition (version 0.0.4) of a registry JSON snapshot:
/// `# TYPE` lines, '.'->'_' name mangling, histogram `_bucket{le="..."}` /
/// `_sum` / `_count` series. Taking the JSON form (rather than the Registry)
/// lets `ivory metrics` render a snapshot fetched from a remote server.
std::string render_prometheus(const json::Value& snapshot);

/// render_prometheus(registry().to_json()) convenience.
std::string render_prometheus();

}  // namespace ivory::metrics
