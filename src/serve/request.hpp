// Request schema of the batch-evaluation service.
//
// One NDJSON line = one request object:
//
//   {"id": 7, "op": "sc_static", "n": 3, "m": 1, "cfly": "4u", ...}
//
// Envelope fields (not part of the cached content):
//   id          optional string | number | null — echoed in the response
//   deadline_ms optional number > 0 — drop the job if it has waited longer
//   stream      optional bool — true: respond with a wave1 frame stream (see
//               serve/frame.hpp); requires a transient with return_waveform
//   encoding    optional, "wave1" only — the streamed payload encoding
//   chunk_bytes optional integer in [1, 16 MiB] — streamed chunk budget
//
// Everything else, including "op", is the request *body*. The cache key is
// fnv1a64 over the canonical form of the body: object keys sorted bytewise
// at every level, shortest-round-trip number formatting, no whitespace. Two
// requests that differ only in member order, number spelling ("0.10" vs
// "1e-1") or envelope fields therefore share one cache entry. Normalization
// is structural, not semantic: a request spelling out a default value hashes
// differently from one omitting it (both evaluate to the same result).
//
// Numeric parameter fields accept either JSON numbers or SPICE-suffixed
// strings ("4u", "80meg"), and boolean fields true/false or "0"/"1". The
// `ivory` CLI reads its flags through the same schema: `--a-b value` becomes
// the string member "a_b":"value".
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/optimizer.hpp"
#include "core/pareto.hpp"
#include "core/sc_topology.hpp"
#include "scenario/scenario.hpp"
#include "workload/workload.hpp"

namespace ivory::serve {

/// A body that breaks its op's schema: an unknown field, a wrong type or an
/// out-of-domain value. Failed evaluations throw other errors, so a caller
/// can tell a bad request from a design the models reject.
class SchemaError : public InvalidParameter {
 public:
  using InvalidParameter::InvalidParameter;
};

/// Strict reader over a request body: every field access marks the member
/// consumed, and finish() rejects any member the schema never asked for —
/// catching typos ("cflyy") instead of silently applying a default. Every
/// failure is a SchemaError naming the field.
class FieldReader {
 public:
  FieldReader(const json::Value& body, std::string context);

  [[noreturn]] void fail(std::string_view field, const std::string& what) const;

  const json::Value* get(std::string_view key);
  bool has(std::string_view key) const;

  /// Numbers are JSON numbers or SPICE-suffixed strings ("4u", "80meg").
  double num(std::string_view key, double fallback);
  int integer(std::string_view key, int fallback);
  std::string str(std::string_view key, std::string fallback);
  /// true/false, or the strings "0"/"1".
  bool boolean(std::string_view key, bool fallback);
  /// Index of the string field's value in `names` (absent: `fallback`'s).
  std::size_t choice(std::string_view key, std::string_view fallback,
                     std::initializer_list<std::string_view> names);

  /// Rejects members no schema field consumed.
  void finish() const;

 private:
  const json::Value::Object* obj_;
  std::string ctx_;
  std::vector<bool> used_;
};

// Field groups and enum fields shared by the op schemas below (and by the
// CLI subcommands that have no op). Each reads its field(s) from `r`.
tech::Node node_from(FieldReader& r);                                   ///< "node"
tech::CapKind cap_kind_from(FieldReader& r, std::string_view fallback);  ///< "cap"
tech::InductorKind inductor_kind_from(FieldReader& r, std::string_view fallback);
core::ScFamily sc_family_from(FieldReader& r);                           ///< "family"
workload::Benchmark benchmark_from(FieldReader& r, std::string_view fallback);
/// "topology": sc | buck | ldo | dldo, or the op's own `extra` value
/// ("two_stage", "spice"), which reads as nullopt.
std::optional<core::IvrTopology> topology_from(FieldReader& r, std::string_view extra = {});
/// vin, vout, power, area (mm^2), node, cap, inductor, max_dist, ripple.
core::SystemParams system_from(FieldReader& r);
core::ScDesign sc_design_from(FieldReader& r);
core::BuckDesign buck_design_from(FieldReader& r);
core::LdoDesign ldo_design_from(FieldReader& r);
core::DldoDesign dldo_design_from(FieldReader& r);

enum class Op {
  ScStatic,      ///< analyze one SC design (optionally regulated)
  BuckStatic,    ///< analyze one buck design
  LdoStatic,     ///< analyze one LDO design
  DldoStatic,    ///< analyze one discrete-time digital LDO design
  Explore,       ///< full topology x distribution sweep
  Pareto,        ///< multi-fidelity funnel: screen, extract front, simulate
  Optimize,      ///< optimize one topology family (or a two-stage cascade)
  ScenarioEval,  ///< residency-weighted power-state scenario evaluation
  Pds,           ///< end-to-end PDS composition, off-chip VRM vs IVR
  Transient,     ///< dynamic waveform summary for a workload trace
  Stats,         ///< service counters (never cached)
  Metrics,       ///< process metrics-registry snapshot (never cached)
};

const char* op_name(Op op);
Op op_from_string(const std::string& name);  ///< throws InvalidParameter

/// A validated request envelope plus its content-addressed identity.
struct Request {
  json::Value id;          ///< null when the request carried no id
  Op op = Op::Stats;
  json::Value body;        ///< the request object minus envelope fields
  std::string canonical;   ///< canonical JSON of `body`
  std::uint64_t key = 0;   ///< fnv1a64(canonical)
  std::size_t chunk_bytes = 65536;  ///< streamed chunk budget
};

/// Validates the envelope of a parsed request object and computes its
/// canonical form + cache key. Parameter validation happens at evaluation
/// time (see the builders below). Throws InvalidParameter. `decode_line`
/// reads the routing fields `deadline_ms` and `stream`; here they are only
/// validated. Takes `root` by value: the body's members are moved out of
/// it, so a caller that moves its root in copies no member (a grid
/// request's netlist is ~0.5 MB).
Request parse_request(json::Value root);

/// One request line, JSON-parsed once: the envelope fields a transport
/// routes on (plain reply, frame stream or cancel; deadline) and, for a
/// valid request, the Request the service answers from, so no later stage
/// parses the line again.
struct DecodedLine {
  bool is_stream = false;   ///< envelope asked for a frame-stream response
  bool is_cancel = false;   ///< {"cancel": <id>} control line (no "op")
  json::Value id;           ///< request id (null when absent/invalid)
  json::Value cancel_id;    ///< id named by a cancel line
  double deadline_ms = 0;   ///< <= 0 means no deadline
  std::optional<Request> request;  ///< absent for a cancel or a bad line
  std::string error;        ///< why `request` is absent (a bad_request detail)
};

/// Never throws: a malformed line decodes as a plain line whose `error` the
/// service reports as a bad_request in the line's own reply slot. A cancel
/// line is not validated as a request; its `error` names the missing op, the
/// reply an in-process Service::handle_line gives it.
DecodedLine decode_line(std::string_view line);

// ---------------------------------------------------------------------------
// Typed parameters per op. Builders perform strict field-level validation:
// unknown fields, wrong types and out-of-domain values throw SchemaError
// naming the offending field.
// ---------------------------------------------------------------------------

struct ScStaticParams {
  core::ScDesign design;
  double vin_v = 3.3;
  double i_load_a = 10.0;
  double regulate_v = 0.0;  ///< > 0: also report the regulated operating point
};
ScStaticParams sc_static_params(const json::Value& body);

struct BuckStaticParams {
  core::BuckDesign design;
  double vin_v = 3.3;
  double vout_v = 1.0;
  double i_load_a = 10.0;
};
BuckStaticParams buck_static_params(const json::Value& body);

struct LdoStaticParams {
  core::LdoDesign design;
  double vin_v = 1.2;
  double vout_v = 1.0;
  double i_load_a = 10.0;
};
LdoStaticParams ldo_static_params(const json::Value& body);

struct DldoStaticParams {
  core::DldoDesign design;
  double vin_v = 1.2;
  double vout_v = 1.0;
  double i_load_a = 10.0;
};
DldoStaticParams dldo_static_params(const json::Value& body);

struct ExploreParams {
  core::SystemParams sys;
  core::OptTarget target = core::OptTarget::Efficiency;
  int top_k = 0;  ///< > 0: truncate the sorted result list (0 = all)
};
ExploreParams explore_params(const json::Value& body);

/// Funnel body: system fields (like explore) + optional "density" (every
/// FunnelSpec grid axis scaled by it), "front_cap", "simulate" and "top_k"
/// (truncates the reported points, 0 = all; stats keep the full counts).
struct ParetoParams {
  core::SystemParams sys;
  double density = 1.0;  ///< the grid scale `spec` was built with
  core::FunnelSpec spec;
  int top_k = 0;
};
ParetoParams pareto_params(const json::Value& body);

struct OptimizeParams {
  core::SystemParams sys;
  core::IvrTopology topology = core::IvrTopology::SwitchedCapacitor;
  bool two_stage = false;
  int n_distributed = 4;
};
OptimizeParams optimize_params(const json::Value& body);

struct PdsParams {
  core::SystemParams sys;
  double v_nom_v = 0.85;
  double guard_off_v = 0.110;
  double guard_ivr_v = 0.025;
  int n_distributed = 4;
};
PdsParams pds_params(const json::Value& body);

/// Scenario body: system fields (like optimize) + exactly one of "preset"
/// (a workload::residency_preset name) or "states" (inline array of state
/// objects), optional "domains" for hybrid delivery, "topology" and "dist"
/// for the IVR design.
struct ScenarioEvalParams {
  core::SystemParams sys;
  core::IvrTopology topology = core::IvrTopology::SwitchedCapacitor;
  int n_distributed = 4;
  scenario::ScenarioSpec spec;
};
ScenarioEvalParams scenario_eval_params(const json::Value& body);

struct TransientParams {
  enum class Kind { Sc, Buck, Ldo, Dldo, Spice };
  Kind kind = Kind::Sc;
  core::ScDesign sc;
  core::BuckDesign buck;
  core::LdoDesign ldo;
  core::DldoDesign dldo;
  double vin_v = 3.3;
  double vref_v = 1.0;
  double dt_s = 2e-9;
  /// Load: either an inline current trace ("iload": [amps...]) or a
  /// synthesized workload ("load": {"benchmark": "CFD", ...}).
  std::vector<double> i_load_a;
  bool has_workload = false;
  workload::Benchmark benchmark = workload::Benchmark::CFD;
  int n_sm = 4;
  double sm_avg_w = 5.0;
  double duration_s = 20e-6;
  std::uint64_t seed = 1;
  bool return_waveform = false;

  // Switch-level engine (topology "spice"): full MNA transient of an inline
  // netlist instead of the behavioural cycle models. The response carries
  // the simulator-cost counters (steps, LU factorizations, keyed-cache
  // hits/evictions) alongside per-node statistics.
  std::string netlist;                    ///< SPICE netlist text.
  double tstop_s = 0.0;                   ///< Required for Kind::Spice.
  bool trapezoidal = true;                ///< "method": "trap" (default) | "be".
  bool use_ic = false;                    ///< SPICE UIC semantics.
  int record_every = 1;
  std::vector<std::string> record_nodes;  ///< Empty = all non-ground nodes.
  bool adaptive = false;
  double dv_max_v = 1e-3;
  double dt_max_s = 0.0;
  int lu_cache_capacity = 8;              ///< See spice::TranSpec.
  /// Factorization kernel: "auto" (default) | "dense" | "banded" | "sparse".
  std::string kernel = "auto";
};
TransientParams transient_params(const json::Value& body);

}  // namespace ivory::serve
