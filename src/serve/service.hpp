// The batch-evaluation service: one NDJSON request line in, one NDJSON
// response line out.
//
// Response envelope (fixed member order, compact):
//   {"id":<echoed>,"ok":true,"result":{...}}
//   {"id":<echoed>,"ok":false,"error":{"code":...,"site":...,"candidate":...,
//                                      "detail":...}}
//
// Determinism contract: for a given request body, the success response bytes
// are identical whether the result was computed cold or served from the
// cache, at any thread count — the cache stores the serialized payload, the
// envelope is rebuilt deterministically around it, and the evaluators
// themselves are byte-identical across thread counts (the parallel-DSE
// contract). Cache/throughput counters are deliberately *not* embedded in
// per-request success responses (that would break the byte-identity
// guarantee); they are served by the "stats" op and by the batch/serve
// transports' out-of-band summaries.
//
// Failures are never cached: a candidate that dies (organically or under
// fault injection) is reported as a structured error and re-evaluated on the
// next request, so a transient fault cannot poison the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "serve/cache.hpp"
#include "serve/frame.hpp"
#include "serve/request.hpp"
#include "serve/store.hpp"
#include "spice/analysis.hpp"

namespace ivory::serve {

/// Engine setup of a "spice" transient: the parsed circuit, the TranSpec and
/// the names of the recorded nodes. The buffered and streamed service paths
/// and `ivory transient` all start here, so they run the same simulation.
struct SpicePrep {
  spice::Circuit ckt;
  spice::TranSpec spec;
  std::vector<std::string> names;  ///< names of the effective recorded nodes
};

/// Parses the netlist and resolves the recorded nodes. Throws when
/// tstop/dt, or the step bound its clock edges add to it (spice::step_bound),
/// exceeds `max_samples`, or on a bad netlist or node name.
SpicePrep prepare_spice(const TransientParams& p, std::size_t max_samples);

/// Runs a prepared transient with its samples streamed as one wave1 stream
/// through `em` (`id_json`: the request id, serialized). The reassembled
/// line equals `{"id":<id>,"ok":true,"result":` +
/// core::to_json(result, sp.names, true).write() + `}` of the buffered run.
/// `Service::handle_stream` and `ivory transient --encoding wave1` both
/// stream through this. Returns the rows streamed.
std::size_t stream_spice(SpicePrep& sp, const std::string& id_json, StreamEmitter& em);

struct ServiceOptions {
  std::size_t cache_capacity = 4096;  ///< entries across all shards
  std::size_t cache_shards = 8;
  /// Upper bound on 'transient' trace/waveform sample counts (guards a
  /// single request against absurd memory demands).
  std::size_t max_samples = 1u << 22;
  /// Non-empty: back the in-memory cache with a DurableStore in this
  /// directory — verified entries survive restarts and are shared across
  /// fleet workers. Successful results are published write-through;
  /// failures are never stored.
  std::string cache_dir;
  std::uint64_t store_max_bytes = 256ull << 20;
  /// Replay the durable store into the in-memory LRU at construction so a
  /// restarted service is warm from its first request.
  bool warm_load = true;
};

struct ServiceStats {
  CacheStats cache;
  StoreStats store;                 ///< zeros when no cache_dir is configured
  bool durable = false;             ///< a DurableStore is attached
  std::uint64_t warm_loaded = 0;    ///< entries replayed at construction
  std::uint64_t n_requests = 0;     ///< lines handled (including bad ones)
  std::uint64_t n_evaluations = 0;  ///< model evaluations actually run
  std::uint64_t n_errors = 0;       ///< error responses produced
};

class Service {
 public:
  explicit Service(ServiceOptions opt = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Full pipeline for one request line: decode(), then handle(). Never
  /// throws; malformed input becomes an {"ok":false,...} response.
  /// Thread-safe — pool workers call this concurrently.
  std::string handle_line(const std::string& line);

  /// decode_line, timed in the serve.decode_ms histogram for a valid plain
  /// (not streamed) request. The scheduler calls it once per line, on the
  /// connection's reader thread.
  static DecodedLine decode(std::string_view line);

  /// The pipeline after decoding: cache lookup, durable tier, evaluation
  /// under quarantine, serialization. A line without a request gets its
  /// bad_request reply. Never throws; thread-safe.
  std::string handle(const DecodedLine& line);

  /// The reply to a decoded plain request that the in-memory cache holds,
  /// counted as a request and a cache hit; nullopt, counting nothing, for
  /// anything else (a miss, a bad line, stats, metrics), which handle()
  /// answers. Never touches the durable tier. Thread-safe.
  std::optional<std::string> cached_reply(const DecodedLine& line);

  /// Streamed pipeline for one request line: emits wave1 HEADER/CHUNK/
  /// terminal frames through `em` instead of returning a line. Never throws.
  ///
  /// Requires a transient with return_waveform. It bypasses the result
  /// cache and streams samples straight out of the engine, so the resident
  /// response footprint is bounded by the chunk budget, not the waveform
  /// length. Cancel/deadline mid-stream terminate with CANCEL_ACK /
  /// END{deadline_exceeded}.
  void handle_stream(const std::string& line, StreamEmitter& em);
  void handle_stream(const DecodedLine& line, StreamEmitter& em);

  ServiceStats stats() const;

  /// Builds an error response envelope (also used by the scheduler for
  /// cancelled / expired jobs so all failures share one shape).
  static std::string error_response(const json::Value& id, const std::string& code,
                                    const std::string& detail);

  /// The durable tier, or nullptr when cache_dir is empty.
  DurableStore* store() { return store_.get(); }

 private:
  std::string evaluate(const Request& req);  ///< result payload JSON; throws
  void stream_wave1(const Request& req, StreamEmitter& em);  ///< throws

  ServiceOptions opt_;
  ResultCache cache_;
  std::unique_ptr<DurableStore> store_;
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_evaluations_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::uint64_t warm_loaded_ = 0;
};

}  // namespace ivory::serve
