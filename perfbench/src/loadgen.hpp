// Closed-loop load against an in-process Ivory server, and the output
// checks every reply goes through.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "requests.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace perfbench {

/// One `serve::Server` on a Unix socket inside `work_dir`, stopped on
/// destruction. The pool must already be pinned (par::set_global_threads).
class BenchServer {
 public:
  explicit BenchServer(const std::string& work_dir);
  ~BenchServer();
  BenchServer(const BenchServer&) = delete;
  BenchServer& operator=(const BenchServer&) = delete;

  const std::string& path() const { return server_->socket_path(); }
  ivory::serve::ServiceStats stats() const { return server_->stats(); }

 private:
  std::unique_ptr<ivory::serve::Server> server_;
};

struct Reply {
  std::string text;  ///< response line, or the reassembled stream
  double ms = 0.0;   ///< first request byte sent to last reply byte received
};

/// Sends one request and reads its whole reply: a line, or for wave1 a
/// frame stream reassembled into the buffered response line. Throws on
/// socket or stream-protocol errors.
Reply roundtrip(ivory::serve::BlockingClient& cli, const RequestSpec& q);

/// Sends the workload's warm-up requests; false if any reply is not ok.
bool warm_up(const std::string& socket_path, Workload w);

/// Deterministic work done by a fixed request list, read from the replies
/// and the server's own counters. Two runs of the same code repeat these.
struct WorkCounters {
  std::uint64_t requests = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t evaluations = 0;   ///< model evaluations the server ran
  std::uint64_t cache_hits = 0;    ///< result-cache hits
  std::uint64_t cache_misses = 0;  ///< result-cache misses
  std::uint64_t candidates = 0;    ///< funnel candidates screened
  std::uint64_t feasible = 0;      ///< screened candidates meeting constraints
  std::uint64_t frontier = 0;      ///< frontier points returned
  std::uint64_t explored = 0;      ///< explore/scenario sweep points evaluated
  std::uint64_t steps = 0;         ///< MNA transient steps
  std::uint64_t lu_factorizations = 0;
  std::uint64_t lu_cache_hits = 0;
  std::uint64_t factor_nnz = 0;
  std::uint64_t samples = 0;       ///< behavioural waveform samples
  double front_screen_err = 0.0;   ///< max |screen - exact| / exact efficiency
  std::uint64_t digest = 14695981039346656037ull;  ///< FNV-1a over all reply bytes

  void add(const WorkCounters& o);  ///< sums; max for the error; chains digests
  void print(const char* title) const;
};

/// Per-connection check state. Every reply must be ok:true; a repeated
/// body must reproduce its first reply byte for byte; every stream of one
/// body must decode to the same bytes (and, after the run, to the buffered
/// response); pareto fronts must be non-empty with `screen` and `design`
/// on every point; spice transients must report steps > 0.
class Checker {
 public:
  /// Checks one reply; adds its work to `counters` when non-null.
  bool check(const RequestSpec& q, const std::string& reply, WorkCounters* counters);

  /// Recomputes each distinct streamed body's buffered response in a fresh
  /// in-process service and compares; returns the number of mismatches.
  std::uint64_t check_streams_against_buffered() const;

  std::string last_error;

 private:
  struct StreamRef {
    std::string buffered;  ///< first buffered-equivalent line seen
    std::uint64_t hash = 0;
  };
  std::unordered_map<std::size_t, std::uint64_t> cold_;  ///< index -> reply hash
  std::deque<std::size_t> cold_order_;
  std::map<std::string, StreamRef> streams_;  ///< body -> first decoded reply
};

/// One completed request of the timed phase.
struct Sample {
  float ms = 0.0f;
  float end_s = 0.0f;     ///< completion, seconds after the timed phase began
  std::uint16_t cls = 0;  ///< index into TimedRun::classes
};

/// Result of the timed closed-loop phase.
struct TimedRun {
  /// Every completed request. Storage is sized and touched before timing
  /// starts, so a faster program does not show as a larger peak RSS.
  std::vector<Sample> samples;
  std::vector<std::string> classes;
  /// Peak RSS when the clients finished, less the sample buffers.
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::string error;
  /// Reply hashes of the first `prefix` requests per connection, for the
  /// count pass to compare against.
  std::vector<std::vector<std::uint64_t>> prefix_hash;
};

/// Each of the workload's connections runs its own closed loop (next
/// request only after the previous reply) in its own client thread, whole
/// blocks at a time, until `seconds` have passed.
TimedRun run_timed(const std::string& socket_path, Workload w, std::uint64_t seed,
                   double seconds);

/// One request of a fixed pass.
struct FixedRecord {
  bool stream = false;
  double ms = 0.0;
};

/// Result of replaying every connection's first `count_blocks` blocks.
struct FixedPass {
  WorkCounters counters;
  std::vector<FixedRecord> records;
  double wall_s = 0.0;
  std::uint64_t failed = 0;
  std::string error;
};

/// Replays the first blocks of every connection, each connection in its own
/// closed-loop client thread as in the timed run, against `srv` (which
/// should be fresh, so its counters cover only this pass). When `timed` is
/// given, every reply must equal the timed run's reply to the same request.
/// When `logs` is given (one per connection), each round trip is recorded
/// as a span.
FixedPass run_fixed(const BenchServer& srv, Workload w, std::uint64_t seed,
                    const TimedRun* timed, std::vector<SpanLog>* logs = nullptr);

}  // namespace perfbench
