// NDJSON batch transport: requests on an input stream, responses on an
// output stream, strictly order-preserving.
//
// `repeat` replays the request stream N times through the same service (and
// therefore the same result cache): pass 2 of an identical stream is served
// almost entirely from the cache, which is how `ivory batch --repeat 2`
// demonstrates the warm-path speedup — the per-pass summaries report the
// hit/miss/eviction/evaluation deltas, and the response bytes of every pass
// are identical by the service's byte-identity contract.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/service.hpp"

namespace ivory::serve {

struct BatchOptions {
  int repeat = 1;                   ///< replay the request stream N times
  std::size_t wave = 0;             ///< scheduler wave size (0 = auto)
  std::size_t queue_capacity = 1024;
  std::size_t stream_slots = 2;   ///< dedicated stream-worker threads
  std::size_t stream_window = 8;  ///< max in-flight frames per stream slot
};

/// Counter deltas for one replay pass.
struct BatchPassStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t errors = 0;
  std::uint64_t store_hits = 0;  ///< in-memory misses answered by the durable tier
  double wall_s = 0.0;           ///< this pass, first dispatch to last byte written

  /// Memory + durable tiers combined: a durable-store hit counted as a miss
  /// by the in-memory LRU still avoided an evaluation.
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits + store_hits) / static_cast<double>(total);
  }
};

struct BatchSummary {
  std::vector<BatchPassStats> passes;
  std::uint64_t requests = 0;  ///< total across all passes
  double wall_s = 0.0;
};

/// Runs every non-empty line of `in` through `service` via a Scheduler,
/// writing one response line per request to `out` in submission order.
BatchSummary run_batch(std::istream& in, std::ostream& out, Service& service,
                       const BatchOptions& opt = {});

/// One-line JSON rendering of the summary (for stderr / BENCH files).
std::string summary_json(const BatchSummary& summary);

}  // namespace ivory::serve
