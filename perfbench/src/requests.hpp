// Seeded request generators for the three benchmark workloads.
//
// Each workload is a deterministic, unbounded sequence of NDJSON request
// lines per client connection, built only from the seed: the same
// (workload, seed, connection) always yields byte-identical lines. The
// program under test never sees the seed, only the lines.
//
// Requests come in fixed-size blocks. Every block holds the same multiset
// of op classes, shuffled by the seed, so each class keeps its exact share
// in any whole number of blocks and the latency percentiles stay inside the
// class they were placed in (see kWorkloads in requests.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <vector>

namespace perfbench {

enum class Workload { DseSweep, TransientMix, ServeMix };

/// "dse_sweep" | "transient_mix" | "serve_mix"; throws std::invalid_argument.
Workload workload_from_string(const std::string& name);
const char* workload_name(Workload w);

/// Fixed shape of a workload's load.
struct WorkloadShape {
  int connections = 1;          ///< concurrent closed-loop clients
  std::size_t block = 1;        ///< requests per shuffled class block
  std::size_t count_blocks = 1; ///< blocks per connection in the work-counter prefix
};
WorkloadShape workload_shape(Workload w);

struct RequestSpec {
  std::size_t index = 0;  ///< position in this connection's sequence
  std::string cls;        ///< op class label ("pareto", "grid64", "hit", ...)
  std::string line;       ///< the request line sent (no trailing newline)
  /// wave1 streamed request; `buffered` is the same body as a plain request,
  /// whose response the decoded stream must equal.
  bool stream = false;
  std::string buffered;
  /// serve_mix repeats: index of the earlier request in this connection's
  /// sequence that carried the same body (-1 for first occurrences).
  std::int64_t repeat_of = -1;
};

/// splitmix64: the benchmark's own generator, so its inputs do not depend
/// on the program under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);  ///< [lo, hi)
  int pick(int n);                       ///< [0, n)

 private:
  std::uint64_t s_;
};

/// Seeded draws for request fields, stratified per call site: each run of
/// 8 consecutive uniform draws from one site covers all 8 equal slices of
/// its range once (in a shuffled order, at a random point in each slice),
/// and each run of n picks from a site with n <= 16 choices takes every
/// choice once. Any stretch of requests then spans the parameter space
/// evenly, so runs with different seeds see nearly the same spread of
/// request costs. A site is the k-th draw with a given range in a body.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  void begin_body() { uses_.clear(); }  ///< call sites restart per body
  double uniform(double lo, double hi);
  int pick(int n);
  Rng& rng() { return rng_; }

 private:
  struct Strata {
    std::vector<int> order;
    std::size_t next = 0;
  };
  int stratum(double a, double b, int n);

  Rng rng_;
  std::map<std::tuple<double, double, int>, Strata> strata_;
  std::map<std::pair<double, double>, int> uses_;
};

class Generator {
 public:
  Generator(Workload w, std::uint64_t seed, int connection);
  RequestSpec next();

 private:
  std::string body(const std::string& cls);
  std::string fresh_body(const std::string& cls);

  Workload w_;
  Draw draw_;
  std::size_t index_ = 0;
  std::vector<std::string> block_;            ///< remaining classes of the block
  std::unordered_set<std::uint64_t> seen_;    ///< body hashes issued (distinctness)
  std::vector<std::pair<std::string, std::size_t>> recent_;  ///< serve_mix repeat pool
  std::vector<std::string> wave_pool_;        ///< serve_mix wave1 bodies
};

/// The first `n` requests of one connection.
std::vector<RequestSpec> generate(Workload w, std::uint64_t seed, int connection,
                                  std::size_t n);

/// Fixed requests that touch every op class of the workload once, sent
/// before timing starts (server start plus warm-up of the memo tables).
/// Their bodies never occur in the generated sequence.
std::vector<std::string> warmup_requests(Workload w);

/// 64-bit FNV-1a, for response digests.
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 14695981039346656037ull);

}  // namespace perfbench
