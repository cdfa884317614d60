#include "serve/service.hpp"

#include <chrono>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/statistics.hpp"
#include "common/trace.hpp"
#include "core/dynamic.hpp"
#include "core/pds.hpp"
#include "core/report_json.hpp"
#include "scenario/scenario.hpp"
#include "serve/wave_codec.hpp"
#include "spice/parser.hpp"

namespace ivory::serve {

namespace {

/// Registry handles for the request pipeline, resolved once. The three
/// histograms split a request's wall time into its phases: decode (JSON
/// parse + envelope/body validation), eval (the model evaluation inside the
/// quarantine), encode (response serialization + cache publication).
struct ServeMetrics {
  metrics::Counter& requests = metrics::registry().counter("serve.requests");
  metrics::Counter& errors = metrics::registry().counter("serve.errors");
  metrics::Counter& evaluations = metrics::registry().counter("serve.evaluations");
  metrics::Histogram& decode_ms = metrics::registry().histogram("serve.decode_ms");
  metrics::Histogram& eval_ms = metrics::registry().histogram("serve.eval_ms");
  metrics::Histogram& encode_ms = metrics::registry().histogram("serve.encode_ms");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string ok_response(const json::Value& id, const std::string& payload) {
  std::string out = "{\"id\":";
  out += id.write();
  out += ",\"ok\":true,\"result\":";
  out += payload;
  out += "}";
  return out;
}

std::string error_envelope(const json::Value& id, const json::Value& error) {
  std::string out = "{\"id\":";
  out += id.write();
  out += ",\"ok\":false,\"error\":";
  out += error.write();
  out += "}";
  return out;
}

/// Parses and validates one request line; on failure `id` holds the id to
/// echo in the error response (null when the line carried none).
Request decode_line(const std::string& line, json::Value& id) {
  const json::Value root = json::Value::parse(line);
  if (const json::Value* i = root.find("id"))
    if (i->is_null() || i->is_string() || i->is_number()) id = *i;
  return parse_request(root);
}

/// Candidate label for quarantine diagnostics: the canonical body, truncated
/// so one pathological request cannot bloat a report.
std::string candidate_label(const Request& req) {
  constexpr std::size_t kMax = 160;
  if (req.canonical.size() <= kMax) return req.canonical;
  return req.canonical.substr(0, kMax) + "...";
}

json::Value box_to_json(const BoxStats& b) {
  json::Value::Object o;
  o.emplace_back("minimum", b.minimum);
  o.emplace_back("whisker_low", b.whisker_low);
  o.emplace_back("q1", b.q1);
  o.emplace_back("median", b.median);
  o.emplace_back("q3", b.q3);
  o.emplace_back("whisker_high", b.whisker_high);
  o.emplace_back("maximum", b.maximum);
  o.emplace_back("n", static_cast<std::uint64_t>(b.n));
  return json::Value(std::move(o));
}

/// Behavioural (cycle-model) waveform shared by both paths.
core::DynWaveform behavioural_waveform(const TransientParams& p,
                                       std::size_t max_samples) {
  std::vector<double> i_load;
  if (p.has_workload) {
    const std::size_t n_samples = static_cast<std::size_t>(p.duration_s / p.dt_s);
    require(n_samples <= max_samples,
            "transient: duration/dt exceeds the per-request sample budget");
    const auto traces = workload::generate_gpu_traces(p.benchmark, p.n_sm, p.sm_avg_w,
                                                      p.duration_s, p.dt_s, p.seed);
    const workload::DigitalLoadModel load =
        workload::DigitalLoadModel::from_average_power(p.sm_avg_w, p.vref_v, 1e9, 0.2);
    i_load.assign(traces[0].watts.size(), 0.0);
    for (const workload::PowerTrace& t : traces) {
      const std::vector<double> i = workload::power_to_current(t, load, p.vref_v);
      for (std::size_t k = 0; k < i_load.size(); ++k) i_load[k] += i[k];
    }
  } else {
    require(p.i_load_a.size() <= max_samples,
            "transient: inline trace exceeds the per-request sample budget");
    i_load = p.i_load_a;
  }
  core::DynWaveform w;
  switch (p.kind) {
    case TransientParams::Kind::Sc:
      w = core::sc_combined_response(p.sc, p.vin_v, p.vref_v, i_load, p.dt_s);
      break;
    case TransientParams::Kind::Buck:
      w = core::buck_combined_response(p.buck, p.vin_v, p.vref_v, i_load, p.dt_s);
      break;
    case TransientParams::Kind::Ldo:
      w = core::ldo_combined_response(p.ldo, p.vin_v, p.vref_v, i_load, p.dt_s);
      break;
    case TransientParams::Kind::Dldo:
      w = core::dldo_combined_response(p.dldo, p.vin_v, p.vref_v, i_load, p.dt_s);
      break;
    case TransientParams::Kind::Spice:
      throw InvalidParameter("transient: spice kind has no behavioural waveform");
  }
  return w;
}

/// The behavioural summary object *without* the trailing waveform member —
/// the streamed path splices the column in after these exact bytes.
json::Value behavioural_summary(const core::DynWaveform& w) {
  // Settled statistics skip the first fifth (startup transient), the same
  // warmup convention the CLI's `dynamic` subcommand uses.
  const std::vector<double> tail(w.v.begin() + static_cast<long>(w.v.size() / 5),
                                 w.v.end());
  json::Value::Object o;
  o.emplace_back("n_samples", static_cast<std::uint64_t>(w.v.size()));
  o.emplace_back("dt_s", w.dt_s);
  o.emplace_back("mean_v", mean(tail));
  o.emplace_back("p2p_v", peak_to_peak(tail));
  o.emplace_back("box", box_to_json(box_stats(tail)));
  return json::Value(std::move(o));
}

/// Registry handles for the streamed pipeline.
struct StreamMetrics {
  metrics::Counter& requests = metrics::registry().counter("serve.stream.requests");
  metrics::Counter& chunks = metrics::registry().counter("serve.stream.chunks");
  metrics::Counter& cancelled = metrics::registry().counter("serve.stream.cancelled");
  metrics::Counter& expired = metrics::registry().counter("serve.stream.expired");
  metrics::Counter& errors = metrics::registry().counter("serve.stream.errors");
};

StreamMetrics& stream_metrics() {
  static StreamMetrics m;
  return m;
}

}  // namespace

SpicePrep prepare_spice(const TransientParams& p, std::size_t max_samples) {
  // Switch-level MNA transient. The same sample budget that bounds inline
  // traces bounds the step count here.
  require(p.tstop_s / p.dt_s <= static_cast<double>(max_samples),
          "transient: tstop/dt exceeds the per-request sample budget");
  SpicePrep sp;
  sp.ckt = spice::parse_netlist(p.netlist);
  sp.spec.tstop = p.tstop_s;
  sp.spec.dt = p.dt_s;
  sp.spec.method = p.trapezoidal ? spice::Integrator::Trapezoidal
                                 : spice::Integrator::BackwardEuler;
  sp.spec.use_ic = p.use_ic;
  sp.spec.record_every = p.record_every;
  sp.spec.adaptive = p.adaptive;
  sp.spec.dv_max_v = p.dv_max_v;
  sp.spec.dt_max = p.dt_max_s;
  sp.spec.lu_cache_capacity = p.lu_cache_capacity;
  sp.spec.kernel = sparse::kernel_from_string(p.kernel);
  for (const std::string& name : p.record_nodes)
    sp.spec.record_nodes.push_back(sp.ckt.find_node(name));
  // Effective recorded nodes, mirroring the engine's default (empty = all
  // non-ground nodes) so the names are known before the run starts.
  std::vector<spice::NodeId> nodes = sp.spec.record_nodes;
  if (nodes.empty())
    for (int n = 1; n < sp.ckt.node_count(); ++n) nodes.push_back(n);
  sp.names.reserve(nodes.size());
  for (const spice::NodeId n : nodes) sp.names.push_back(sp.ckt.node_name(n));
  return sp;
}

Service::Service(ServiceOptions opt)
    : opt_(opt), cache_(opt.cache_capacity, opt.cache_shards) {
  if (!opt_.cache_dir.empty()) {
    StoreOptions sopt;
    sopt.dir = opt_.cache_dir;
    sopt.max_bytes = opt_.store_max_bytes;
    store_ = std::make_unique<DurableStore>(sopt);
    if (opt_.warm_load) {
      // Replay survivors into the in-memory LRU, oldest-first, so recency
      // carries across the restart. Corrupt entries are quarantined by the
      // store's verified iteration and simply don't come back.
      warm_loaded_ = store_->for_each(
          [this](std::uint64_t hash, const std::string& key, const std::string& payload) {
            cache_.insert(hash, key, payload);
          });
    }
  }
}

std::string Service::error_response(const json::Value& id, const std::string& code,
                                    const std::string& detail) {
  json::Value::Object err;
  err.emplace_back("code", code);
  err.emplace_back("site", "serve");
  err.emplace_back("candidate", "");
  err.emplace_back("detail", detail);
  return error_envelope(id, json::Value(std::move(err)));
}

std::string Service::handle_line(const std::string& line) {
  IVORY_TRACE("serve.request");
  ServeMetrics& m = serve_metrics();
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  m.requests.add();
  json::Value id;  // null until the request proves it has one

  const auto t_decode = std::chrono::steady_clock::now();
  Request req;
  try {
    req = decode_line(line, id);
  } catch (const std::exception& e) {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    m.errors.add();
    return error_response(id, "bad_request", e.what());
  }
  m.decode_ms.observe(ms_since(t_decode));

  if (req.op == Op::Stats) {
    const ServiceStats s = stats();
    json::Value::Object cache;
    cache.emplace_back("hits", s.cache.hits);
    cache.emplace_back("misses", s.cache.misses);
    cache.emplace_back("evictions", s.cache.evictions);
    cache.emplace_back("entries", s.cache.entries);
    cache.emplace_back("capacity", s.cache.capacity);
    json::Value::Object o;
    o.emplace_back("cache", json::Value(std::move(cache)));
    if (s.durable) {
      // Only present when a cache_dir is configured, so the stats response
      // of a store-less service keeps its exact historical bytes.
      json::Value::Object store;
      store.emplace_back("hits", s.store.hits);
      store.emplace_back("misses", s.store.misses);
      store.emplace_back("puts", s.store.puts);
      store.emplace_back("put_failures", s.store.put_failures);
      store.emplace_back("quarantined", s.store.quarantined);
      store.emplace_back("gc_evictions", s.store.gc_evictions);
      store.emplace_back("entries", s.store.entries);
      store.emplace_back("bytes", s.store.bytes);
      store.emplace_back("warm_loaded", s.warm_loaded);
      o.emplace_back("store", json::Value(std::move(store)));
    }
    o.emplace_back("n_requests", s.n_requests);
    o.emplace_back("n_evaluations", s.n_evaluations);
    o.emplace_back("n_errors", s.n_errors);
    o.emplace_back("metrics_enabled", metrics::enabled());
    o.emplace_back("pool_threads", static_cast<std::uint64_t>(par::global_threads()));
    return ok_response(req.id, json::Value(std::move(o)).write());
  }

  if (req.op == Op::Metrics) {
    // Live registry snapshot; like "stats", never cached and never an
    // evaluation. The payload is canonical JSON so clients can hash or
    // diff snapshots bytewise.
    return ok_response(req.id, metrics::registry().to_json().write_canonical());
  }

  if (std::optional<std::string> hit = cache_.lookup(req.key, req.canonical))
    return ok_response(req.id, *hit);
  if (store_ != nullptr) {
    // Durable tier: a verified disk hit short-circuits the evaluation and
    // refills the in-memory LRU. Corrupt entries were quarantined inside
    // get() and fall through to a fresh evaluation.
    if (std::optional<std::string> hit = store_->get(req.key, req.canonical)) {
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      cache_.insert(req.key, req.canonical, *hit);
      return ok_response(req.id, *hit);
    }
  }

  const auto t_eval = std::chrono::steady_clock::now();
  const EvalOutcome<std::string> out =
      quarantine(std::string("serve.") + op_name(req.op), candidate_label(req), [&] {
        n_evaluations_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().evaluations.add();
        return evaluate(req);
      });
  m.eval_ms.observe(ms_since(t_eval));
  if (!out.ok()) {
    // Failures are never cached: the next identical request re-evaluates.
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    m.errors.add();
    return error_envelope(req.id, to_json(out.diagnostics()));
  }
  const auto t_encode = std::chrono::steady_clock::now();
  cache_.insert(req.key, req.canonical, out.value());
  // Write-through to the durable tier. A publish failure (disk full, torn
  // write) downgrades durability, never correctness: the response below is
  // built from the in-memory value either way.
  if (store_ != nullptr) store_->put(req.key, req.canonical, out.value());
  std::string resp = ok_response(req.id, out.value());
  m.encode_ms.observe(ms_since(t_encode));
  return resp;
}

std::string Service::evaluate(const Request& req) {
  using json::Value;
  switch (req.op) {
    case Op::ScStatic: {
      const ScStaticParams p = sc_static_params(req.body);
      Value::Object o;
      o.emplace_back("analysis",
                     core::to_json(core::analyze_sc(p.design, p.vin_v, p.i_load_a)));
      if (p.regulate_v > 0.0)
        o.emplace_back("regulated", core::to_json(core::analyze_sc_regulated(
                                        p.design, p.vin_v, p.regulate_v, p.i_load_a)));
      return Value(std::move(o)).write();
    }
    case Op::BuckStatic: {
      const BuckStaticParams p = buck_static_params(req.body);
      Value::Object o;
      o.emplace_back("analysis", core::to_json(core::analyze_buck(p.design, p.vin_v,
                                                                  p.vout_v, p.i_load_a)));
      return Value(std::move(o)).write();
    }
    case Op::LdoStatic: {
      const LdoStaticParams p = ldo_static_params(req.body);
      Value::Object o;
      o.emplace_back("analysis", core::to_json(core::analyze_ldo(p.design, p.vin_v,
                                                                 p.vout_v, p.i_load_a)));
      return Value(std::move(o)).write();
    }
    case Op::DldoStatic: {
      const DldoStaticParams p = dldo_static_params(req.body);
      Value::Object o;
      o.emplace_back("analysis", core::to_json(core::analyze_dldo(p.design, p.vin_v,
                                                                  p.vout_v, p.i_load_a)));
      return Value(std::move(o)).write();
    }
    case Op::Explore: {
      const ExploreParams p = explore_params(req.body);
      SweepReport report;
      std::vector<core::DseResult> results = core::explore(p.sys, p.target, &report);
      // top_k bounds the response, not the sweep: the report still covers
      // every candidate evaluated.
      if (p.top_k > 0 && results.size() > static_cast<std::size_t>(p.top_k))
        results.resize(static_cast<std::size_t>(p.top_k));
      Value::Array arr;
      arr.reserve(results.size());
      for (const core::DseResult& r : results) arr.push_back(core::to_json(r));
      Value::Object o;
      o.emplace_back("results", Value(std::move(arr)));
      o.emplace_back("report", to_json(report));
      return Value(std::move(o)).write();
    }
    case Op::Pareto: {
      const ParetoParams p = pareto_params(req.body);
      SweepReport report;
      core::ParetoFront front = core::funnel_explore(p.sys, p.spec, &report);
      if (p.top_k > 0 && front.points.size() > static_cast<std::size_t>(p.top_k))
        front.points.resize(static_cast<std::size_t>(p.top_k));
      Value::Object o;
      o.emplace_back("front", core::to_json(front));
      o.emplace_back("report", to_json(report));
      return Value(std::move(o)).write();
    }
    case Op::Optimize: {
      const OptimizeParams p = optimize_params(req.body);
      SweepReport report;
      Value::Object o;
      if (p.two_stage)
        o.emplace_back("result", core::to_json(core::optimize_two_stage(
                                     p.sys, p.n_distributed, &report)));
      else
        o.emplace_back("result", core::to_json(core::optimize_topology(
                                     p.sys, p.topology, p.n_distributed, &report)));
      o.emplace_back("report", to_json(report));
      return Value(std::move(o)).write();
    }
    case Op::ScenarioEval: {
      const ScenarioEvalParams p = scenario_eval_params(req.body);
      // Bound the per-cell trace synthesis by the same budget as transients.
      require(p.spec.duration_s / p.spec.dt_s <= static_cast<double>(opt_.max_samples),
              "scenario_eval: duration/dt exceeds the per-request sample budget");
      SweepReport report;
      const scenario::ScenarioReport res =
          scenario::evaluate_scenario(p.sys, p.topology, p.n_distributed, p.spec, &report);
      Value::Object o;
      o.emplace_back("scenario", scenario::to_json(res));
      o.emplace_back("report", to_json(report));
      return Value(std::move(o)).write();
    }
    case Op::Pds: {
      const PdsParams p = pds_params(req.body);
      const core::DseResult ivr = core::optimize_topology(
          p.sys, core::IvrTopology::SwitchedCapacitor, p.n_distributed);
      require(ivr.feasible, "pds: no feasible IVR design for these constraints");
      const pdn::PdnParams pdn_params = pdn::PdnParams::gpuvolt_default();
      const core::PdsBreakdown off =
          core::evaluate_pds_offchip(p.sys, pdn_params, p.v_nom_v, p.guard_off_v);
      const core::PdsBreakdown on =
          core::evaluate_pds_ivr(p.sys, pdn_params, ivr, p.v_nom_v, p.guard_ivr_v);
      Value::Object o;
      o.emplace_back("ivr_design", core::to_json(ivr));
      o.emplace_back("offchip", core::to_json(off));
      o.emplace_back("ivr", core::to_json(on));
      o.emplace_back("improvement_points", (on.efficiency - off.efficiency) * 100.0);
      return Value(std::move(o)).write();
    }
    case Op::Transient: {
      const TransientParams p = transient_params(req.body);
      if (p.kind == TransientParams::Kind::Spice) {
        SpicePrep sp = prepare_spice(p, opt_.max_samples);
        const spice::TranResult res = spice::transient(sp.ckt, sp.spec);
        return core::to_json(res, sp.names, p.return_waveform).write();
      }
      const core::DynWaveform w = behavioural_waveform(p, opt_.max_samples);
      Value summary = behavioural_summary(w);
      if (p.return_waveform) {
        Value::Array wave;
        wave.reserve(w.v.size());
        for (const double v : w.v) wave.push_back(v);
        summary.set("waveform", Value(std::move(wave)));
      }
      return summary.write();
    }
    case Op::Stats: break;    // handled before evaluate()
    case Op::Metrics: break;  // handled before evaluate()
  }
  throw NumericalError("serve: unreachable op dispatch");
}

void Service::handle_stream(const std::string& line, StreamEmitter& em) {
  IVORY_TRACE("serve.stream.request");
  StreamMetrics& sm = stream_metrics();
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().requests.add();
  sm.requests.add();
  json::Value id;  // null until the request proves it has one

  Request req;
  try {
    req = decode_line(line, id);
  } catch (const std::exception& e) {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().errors.add();
    sm.errors.add();
    em.error(error_response(id, "bad_request", e.what()));
    return;
  }
  em.set_chunk_bytes(req.chunk_bytes);
  const std::string id_json = req.id.write();

  // Samples stream straight out of the engine; the cache is bypassed (the
  // response never exists as one contiguous buffer).
  try {
    if (req.op != Op::Transient)
      throw InvalidParameter("stream: streamed responses require op 'transient'");
    stream_wave1(req, em);
    sm.chunks.add(em.chunks_emitted());
  } catch (const StreamEmitter::Abort& a) {
    switch (a.reason) {
      case StreamEmitter::Abort::Reason::Cancelled:
        sm.cancelled.add();
        em.cancel_ack(stream_status_payload(id_json, "cancelled"));
        break;
      case StreamEmitter::Abort::Reason::Expired:
        sm.expired.add();
        em.end(stream_status_payload(id_json, "deadline_exceeded"));
        break;
      case StreamEmitter::Abort::Reason::ConsumerGone:
        break;  // client hung up; frames have nowhere to go
    }
  } catch (const std::exception&) {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().errors.add();
    sm.errors.add();
    em.error(error_envelope(req.id, to_json(diagnose_current_exception(
                                        std::string("serve.stream.") + op_name(req.op),
                                        candidate_label(req)))));
  }
}

void Service::stream_wave1(const Request& req, StreamEmitter& em) {
  const TransientParams p = transient_params(req.body);
  if (!p.return_waveform)
    throw InvalidParameter("stream: streamed responses require return_waveform=true");
  const std::string id_json = req.id.write();
  n_evaluations_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().evaluations.add();

  if (p.kind == TransientParams::Kind::Spice) {
    SpicePrep sp = prepare_spice(p, opt_.max_samples);
    Wave1TransientStream ws(em, id_json, sp.names);
    sp.spec.sample_sink = ws.sink();
    const spice::TranResult res = spice::transient(sp.ckt, sp.spec);
    ws.finish(res);
    return;
  }
  const core::DynWaveform w = behavioural_waveform(p, opt_.max_samples);
  Wave1ColumnStream cs(em, id_json, "waveform");
  for (const double v : w.v) {
    em.check_abort();
    cs.push(v);
  }
  cs.finish(behavioural_summary(w).write());
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.cache = cache_.stats();
  if (store_ != nullptr) {
    s.durable = true;
    s.store = store_->stats();
    s.warm_loaded = warm_loaded_;
  }
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.n_requests = n_requests_.load(std::memory_order_relaxed);
  s.n_evaluations = n_evaluations_.load(std::memory_order_relaxed);
  s.n_errors = n_errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ivory::serve
