// The traced run: per-layer numbers for one workload, timed from the
// benchmark's own code around calls into each layer's public functions.
//
// It replays the workload's fixed prefix (the same requests the work
// counters cover) three ways:
//   1. untraced, over the socket to a fresh server: reply latencies, the
//      server's counters and the scheduler's queue-wait histogram;
//   2. traced, request by request: the same socket round trip, then
//      `Service::handle_line` in process, then the layer calls handle_line
//      makes (decode, evaluate, encode), each recorded as a span;
//   3. probes outside the request path: `dc_operating_point` for every
//      netlist and `optimize_topology` per topology for every explore.
// Spans are kept in memory and written as Chrome trace_event JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "requests.hpp"
#include "util.hpp"

namespace perfbench {

struct TracedResult {
  std::vector<Metric> metrics;  ///< every per-layer metric, 0 for unused layers
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  std::size_t spans = 0;
};

/// Runs the traced passes and writes the span file to `trace_path`.
TracedResult run_traced(const std::string& work_dir, Workload w, std::uint64_t seed,
                        const std::string& trace_path);

}  // namespace perfbench
