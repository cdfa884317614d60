#include "traced.hpp"

#include <cstdio>
#include <map>
#include <optional>
#include <thread>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/statistics.hpp"
#include "core/ivory.hpp"
#include "core/report_json.hpp"
#include "loadgen.hpp"
#include "scenario/scenario.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace core = ivory::core;
namespace serve = ivory::serve;
namespace spice = ivory::spice;
using ivory::json::Value;

/// Per-layer call times (ms, one entry per call) and running totals.
struct Tallies {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, double> total;

  void add(const Tallies& o) {
    for (const auto& [k, v] : o.ms) ms[k].insert(ms[k].end(), v.begin(), v.end());
    for (const auto& [k, v] : o.total) total[k] += v;
  }
  double med(const std::string& k) const {
    const auto it = ms.find(k);
    return it == ms.end() ? 0.0 : median(it->second);
  }
  /// Mean per call: dominated by the heaviest calls, as busy time is.
  double mean(const std::string& k) const {
    const auto it = ms.find(k);
    if (it == ms.end() || it->second.empty()) return 0.0;
    double s = 0.0;
    for (const double x : it->second) s += x;
    return s / static_cast<double>(it->second.size());
  }
  double tot(const std::string& k) const {
    const auto it = total.find(k);
    return it == total.end() ? 0.0 : it->second;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The engine settings the service derives from a spice transient request.
spice::TranSpec tran_spec(const serve::TransientParams& p, const spice::Circuit& ckt) {
  spice::TranSpec spec;
  spec.tstop = p.tstop_s;
  spec.dt = p.dt_s;
  spec.method =
      p.trapezoidal ? spice::Integrator::Trapezoidal : spice::Integrator::BackwardEuler;
  spec.use_ic = p.use_ic;
  spec.record_every = p.record_every;
  spec.adaptive = p.adaptive;
  spec.dv_max_v = p.dv_max_v;
  spec.dt_max = p.dt_max_s;
  spec.lu_cache_capacity = p.lu_cache_capacity;
  spec.kernel = p.kernel == "dense"    ? ivory::sparse::Kernel::Dense
                : p.kernel == "banded" ? ivory::sparse::Kernel::Banded
                : p.kernel == "sparse" ? ivory::sparse::Kernel::Sparse
                                       : ivory::sparse::Kernel::Auto;
  for (const std::string& name : p.record_nodes) spec.record_nodes.push_back(ckt.find_node(name));
  return spec;
}

Value box_json(const ivory::BoxStats& b) {
  Value::Object o;
  o.emplace_back("minimum", b.minimum);
  o.emplace_back("whisker_low", b.whisker_low);
  o.emplace_back("q1", b.q1);
  o.emplace_back("median", b.median);
  o.emplace_back("q3", b.q3);
  o.emplace_back("whisker_high", b.whisker_high);
  o.emplace_back("maximum", b.maximum);
  o.emplace_back("n", static_cast<std::uint64_t>(b.n));
  return Value(std::move(o));
}

const char* const kOptimizeSpans[] = {"core.optimize.sc", "core.optimize.buck",
                                      "core.optimize.ldo", "core.optimize.dldo"};
const core::IvrTopology kTopologies[] = {
    core::IvrTopology::SwitchedCapacitor, core::IvrTopology::Buck,
    core::IvrTopology::LinearRegulator, core::IvrTopology::DigitalLdo};

/// Replays what `Service::handle_line` does for one request, calling each
/// layer's public function under its own span: decode (JSON parse, envelope,
/// op parameters), the evaluation layers, encode (result JSON and envelope).
/// Returns the response line it builds (empty for a cache hit, which only
/// decodes), so the caller can compare it with handle_line's.
std::string replay(const RequestSpec& q, SpanLog& log, std::uint64_t parent,
                   std::uint64_t rid, Tallies& t) {
  const std::string& line = q.stream ? q.buffered : q.line;
  Value root;
  serve::Request req;
  double decode = timed_span(log, "json.parse", parent, rid, [&] { root = Value::parse(line); });
  decode += timed_span(log, "serve.parse_request", parent, rid,
                       [&] { req = serve::parse_request(root); });
  double attributed = 0.0;
  std::string resp;
  const auto params = [&](auto&& f) { decode += timed_span(log, "serve.params", parent, rid, f); };
  const auto layer = [&](const char* name, auto&& f) {
    const double ms = timed_span(log, name, parent, rid, f);
    t.ms[name].push_back(ms);
    attributed += ms;
    return ms;
  };
  const auto probe = [&](const char* name, auto&& f) {
    t.ms[name].push_back(timed_span(log, name, parent, rid, f));
  };
  const auto encode = [&](auto&& payload) {
    layer("serve.encode", [&] {
      resp = "{\"id\":" + req.id.write() + ",\"ok\":true,\"result\":" + payload() + "}";
    });
  };

  if (q.repeat_of < 0) switch (req.op) {
      case serve::Op::ScStatic: {
        serve::ScStaticParams p;
        params([&] { p = serve::sc_static_params(req.body); });
        std::optional<core::ScAnalysis> a;
        std::optional<core::ScRegulated> reg;
        layer("core.analyze", [&] {
          a = core::analyze_sc(p.design, p.vin_v, p.i_load_a);
          if (p.regulate_v > 0.0)
            reg = core::analyze_sc_regulated(p.design, p.vin_v, p.regulate_v, p.i_load_a);
        });
        encode([&] {
          Value::Object o;
          o.emplace_back("analysis", core::to_json(*a));
          if (reg) o.emplace_back("regulated", core::to_json(*reg));
          return Value(std::move(o)).write();
        });
        break;
      }
      case serve::Op::BuckStatic: {
        serve::BuckStaticParams p;
        params([&] { p = serve::buck_static_params(req.body); });
        std::optional<core::BuckAnalysis> a;
        layer("core.analyze",
              [&] { a = core::analyze_buck(p.design, p.vin_v, p.vout_v, p.i_load_a); });
        encode([&] {
          Value::Object o;
          o.emplace_back("analysis", core::to_json(*a));
          return Value(std::move(o)).write();
        });
        break;
      }
      case serve::Op::LdoStatic: {
        serve::LdoStaticParams p;
        params([&] { p = serve::ldo_static_params(req.body); });
        std::optional<core::LdoAnalysis> a;
        layer("core.analyze",
              [&] { a = core::analyze_ldo(p.design, p.vin_v, p.vout_v, p.i_load_a); });
        encode([&] {
          Value::Object o;
          o.emplace_back("analysis", core::to_json(*a));
          return Value(std::move(o)).write();
        });
        break;
      }
      case serve::Op::DldoStatic: {
        serve::DldoStaticParams p;
        params([&] { p = serve::dldo_static_params(req.body); });
        std::optional<core::DldoAnalysis> a;
        layer("core.analyze",
              [&] { a = core::analyze_dldo(p.design, p.vin_v, p.vout_v, p.i_load_a); });
        encode([&] {
          Value::Object o;
          o.emplace_back("analysis", core::to_json(*a));
          return Value(std::move(o)).write();
        });
        break;
      }
      case serve::Op::Pds: {
        serve::PdsParams p;
        params([&] { p = serve::pds_params(req.body); });
        core::DseResult ivr;
        layer("core.pds.optimize", [&] {
          ivr = core::optimize_topology(p.sys, core::IvrTopology::SwitchedCapacitor,
                                        p.n_distributed);
        });
        std::optional<core::PdsBreakdown> off, on;
        layer("core.pds", [&] {
          const ivory::pdn::PdnParams pp = ivory::pdn::PdnParams::gpuvolt_default();
          off = core::evaluate_pds_offchip(p.sys, pp, p.v_nom_v, p.guard_off_v);
          on = core::evaluate_pds_ivr(p.sys, pp, ivr, p.v_nom_v, p.guard_ivr_v);
        });
        encode([&] {
          Value::Object o;
          o.emplace_back("ivr_design", core::to_json(ivr));
          o.emplace_back("offchip", core::to_json(*off));
          o.emplace_back("ivr", core::to_json(*on));
          o.emplace_back("improvement_points", (on->efficiency - off->efficiency) * 100.0);
          return Value(std::move(o)).write();
        });
        break;
      }
      case serve::Op::Pareto: {
        serve::ParetoParams p;
        params([&] { p = serve::pareto_params(req.body); });
        std::optional<core::ParetoFront> front;
        ivory::SweepReport report;
        layer("core.funnel", [&] { front = core::funnel_explore(p.sys, p.spec, &report); });
        const core::FunnelStats& s = front->stats;
        t.ms["core.funnel.screen"].push_back(s.screen_s * 1e3);
        t.ms["core.funnel.sim"].push_back(s.sim_s * 1e3);
        t.total["funnel.screen_s"] += s.screen_s;
        t.total["funnel.screened"] += static_cast<double>(s.n_screened);
        t.total["funnel.feasible"] += static_cast<double>(s.n_feasible);
        t.total["funnel.sim_hits"] += static_cast<double>(s.sim_cache_hits);
        t.total["funnel.sim_lookups"] +=
            static_cast<double>(s.sim_cache_hits + s.sim_cache_misses);
        encode([&] {
          if (p.top_k > 0 && front->points.size() > static_cast<std::size_t>(p.top_k))
            front->points.resize(static_cast<std::size_t>(p.top_k));
          Value::Object o;
          o.emplace_back("front", core::to_json(*front));
          o.emplace_back("report", ivory::to_json(report));
          return Value(std::move(o)).write();
        });
        break;
      }
      case serve::Op::Explore: {
        serve::ExploreParams p;
        params([&] { p = serve::explore_params(req.body); });
        std::vector<core::DseResult> results;
        ivory::SweepReport report;
        layer("core.explore", [&] { results = core::explore(p.sys, p.target, &report); });
        t.total["explore.evaluated"] += static_cast<double>(report.n_evaluated);
        t.total["explore.skipped"] += static_cast<double>(report.n_skipped());
        encode([&] {
          if (p.top_k > 0 && results.size() > static_cast<std::size_t>(p.top_k))
            results.resize(static_cast<std::size_t>(p.top_k));
          Value::Array arr;
          for (const core::DseResult& r : results) arr.push_back(core::to_json(r));
          Value::Object o;
          o.emplace_back("results", Value(std::move(arr)));
          o.emplace_back("report", ivory::to_json(report));
          return Value(std::move(o)).write();
        });
        // Probe: the per-topology optimizer runs explore sweeps, one span
        // per topology over its distribution counts.
        for (int k = 0; k < 4; ++k) {
          probe(kOptimizeSpans[k], [&] {
            for (int n = 1; n <= p.sys.max_distributed; n *= 2) {
              try {
                (void)core::optimize_topology(p.sys, kTopologies[k], n);
              } catch (const std::exception&) {
                // explore records these as skips; the time still counts.
              }
            }
          });
        }
        break;
      }
      case serve::Op::ScenarioEval: {
        serve::ScenarioEvalParams p;
        params([&] { p = serve::scenario_eval_params(req.body); });
        std::optional<ivory::scenario::ScenarioReport> res;
        ivory::SweepReport report;
        layer("scenario.eval", [&] {
          res = ivory::scenario::evaluate_scenario(p.sys, p.topology, p.n_distributed, p.spec,
                                                   &report);
        });
        encode([&] {
          Value::Object o;
          o.emplace_back("scenario", ivory::scenario::to_json(*res));
          o.emplace_back("report", ivory::to_json(report));
          return Value(std::move(o)).write();
        });
        break;
      }
      case serve::Op::Transient: {
        serve::TransientParams p;
        params([&] { p = serve::transient_params(req.body); });
        if (p.kind == serve::TransientParams::Kind::Spice) {
          std::optional<spice::Circuit> ckt;
          layer("spice.parse", [&] { ckt = spice::parse_netlist(p.netlist); });
          const spice::TranSpec spec = tran_spec(p, *ckt);
          std::vector<std::string> names;
          std::vector<spice::NodeId> nodes = spec.record_nodes;
          if (nodes.empty())
            for (int n = 1; n < ckt->node_count(); ++n) nodes.push_back(n);
          for (const spice::NodeId n : nodes) names.push_back(ckt->node_name(n));
          probe("spice.dcop", [&] {
            try {
              (void)spice::dc_operating_point(*ckt, spec.kernel);
            } catch (const std::exception&) {
              // A circuit that only runs from initial conditions.
            }
          });
          std::optional<spice::TranResult> res;
          const double ms = layer("spice.transient", [&] { res = spice::transient(*ckt, spec); });
          const bool grid = q.cls.rfind("grid", 0) == 0;
          if (grid || q.cls.rfind("spice_", 0) == 0) {
            t.total[grid ? "spice.grid_ms" : "spice.switched_ms"] += ms;
            t.total[grid ? "spice.grid_steps" : "spice.switched_steps"] +=
                static_cast<double>(res->steps_taken);
          }
          encode([&] { return core::to_json(*res, names, p.return_waveform).write(); });
          break;
        }
        std::vector<double> i_load;
        layer("workload.trace", [&] {
          if (!p.has_workload) {
            i_load = p.i_load_a;
            return;
          }
          const auto traces = ivory::workload::generate_gpu_traces(
              p.benchmark, p.n_sm, p.sm_avg_w, p.duration_s, p.dt_s, p.seed);
          const auto load = ivory::workload::DigitalLoadModel::from_average_power(
              p.sm_avg_w, p.vref_v, 1e9, 0.2);
          i_load.assign(traces[0].watts.size(), 0.0);
          for (const auto& tr : traces) {
            const std::vector<double> i = ivory::workload::power_to_current(tr, load, p.vref_v);
            for (std::size_t k = 0; k < i_load.size(); ++k) i_load[k] += i[k];
          }
        });
        core::DynWaveform w;
        layer("core.dynamic", [&] {
          using Kind = serve::TransientParams::Kind;
          if (p.kind == Kind::Sc)
            w = core::sc_combined_response(p.sc, p.vin_v, p.vref_v, i_load, p.dt_s);
          else if (p.kind == Kind::Buck)
            w = core::buck_combined_response(p.buck, p.vin_v, p.vref_v, i_load, p.dt_s);
          else if (p.kind == Kind::Ldo)
            w = core::ldo_combined_response(p.ldo, p.vin_v, p.vref_v, i_load, p.dt_s);
          else
            w = core::dldo_combined_response(p.dldo, p.vin_v, p.vref_v, i_load, p.dt_s);
        });
        encode([&] {
          const std::vector<double> tail(w.v.begin() + static_cast<long>(w.v.size() / 5),
                                         w.v.end());
          Value::Object o;
          o.emplace_back("n_samples", static_cast<std::uint64_t>(w.v.size()));
          o.emplace_back("dt_s", w.dt_s);
          o.emplace_back("mean_v", ivory::mean(tail));
          o.emplace_back("p2p_v", ivory::peak_to_peak(tail));
          o.emplace_back("box", box_json(ivory::box_stats(tail)));
          Value summary(std::move(o));
          if (p.return_waveform) {
            Value::Array wave(w.v.begin(), w.v.end());
            summary.set("waveform", Value(std::move(wave)));
          }
          return summary.write();
        });
        break;
      }
      case serve::Op::Optimize:
      case serve::Op::Stats:
      case serve::Op::Metrics:
        break;  // not in any workload
    }
  t.ms["serve.decode"].push_back(decode);
  if (!q.stream) t.total["attributed_ms"] += decode + attributed;
  return resp;
}

/// Quantile `q` of the observations a histogram gained between two
/// snapshots, interpolated linearly inside the bucket.
double histogram_delta_quantile(const ivory::metrics::Histogram::Snapshot& a,
                                const ivory::metrics::Histogram::Snapshot& b, double q) {
  const std::uint64_t n = b.count - a.count;
  if (n == 0) return 0.0;
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < b.counts.size(); ++i) {
    const std::uint64_t c = b.counts[i] - (i < a.counts.size() ? a.counts[i] : 0);
    if (c > 0 && static_cast<double>(cum + c) >= target) {
      if (i >= b.bounds.size()) return b.bounds.empty() ? 0.0 : b.bounds.back();
      const double lo = i == 0 ? 0.0 : b.bounds[i - 1];
      return lo + (target - static_cast<double>(cum)) / static_cast<double>(c) *
                      (b.bounds[i] - lo);
    }
    cum += c;
  }
  return b.bounds.empty() ? 0.0 : b.bounds.back();
}

std::vector<double> roundtrips(const std::vector<FixedRecord>& records, bool stream) {
  std::vector<double> v;
  for (const FixedRecord& r : records)
    if (r.stream == stream) v.push_back(r.ms);
  return v;
}

}  // namespace

TracedResult run_traced(const std::string& work_dir, Workload w, std::uint64_t seed,
                        const std::string& trace_path) {
  const WorkloadShape shape = workload_shape(w);
  const std::size_t prefix = shape.block * shape.count_blocks;
  TracedResult out;
  const auto note = [&out](const std::string& why) {
    ++out.failed;
    if (out.error.empty()) out.error = why;
  };

  // 1. The prefix over the socket to a fresh, warmed server: untraced,
  // with a span around every round trip, and untraced again; the traced
  // pass against the mean of the two others is the tracing overhead.
  // Stage-3 simulations are memoized process-wide, so every pass starts
  // from an empty memo to do the same work.
  ivory::metrics::Histogram& queue_wait =
      ivory::metrics::registry().histogram("serve.scheduler.queue_wait_ms");
  const Clock::time_point origin = Clock::now();
  std::vector<SpanLog> logs;
  for (int ci = 0; ci < shape.connections; ++ci) logs.emplace_back(ci, origin);
  ivory::metrics::Histogram::Snapshot q0, q1;
  bool first_pass = true;
  const auto socket_pass = [&](std::vector<SpanLog>* span_logs) {
    BenchServer srv(work_dir);
    if (!warm_up(srv.path(), w)) note("warm-up failed");
    ivory::core::funnel_sim_cache_clear();
    const ivory::metrics::Histogram::Snapshot before = queue_wait.snapshot();
    FixedPass pass = run_fixed(srv, w, seed, nullptr, span_logs);
    if (first_pass) {
      q0 = before;
      q1 = queue_wait.snapshot();
      first_pass = false;
    }
    out.attempted += pass.records.size();
    out.failed += pass.failed;
    if (out.error.empty()) out.error = pass.error;
    return pass;
  };
  const FixedPass base = socket_pass(nullptr);
  const double traced_s = socket_pass(&logs).wall_s;
  const double untraced_s = (base.wall_s + socket_pass(nullptr).wall_s) / 2.0;

  // 2. In process, per request: Service::handle_line, then the replay of
  // the layer calls it makes. Connections run concurrently, as over the
  // socket, against one shared service.
  serve::Service service;
  struct Conn {
    Tallies tallies;
    std::uint64_t attempted = 0, failed = 0, mismatches = 0;
    std::string error;
  };
  std::vector<Conn> conns(static_cast<std::size_t>(shape.connections));
  std::vector<std::thread> clients;
  for (std::size_t ci = 0; ci < conns.size(); ++ci)
    clients.emplace_back([&, ci] {
      Conn& c = conns[ci];
      SpanLog& log = logs[ci];
      Tallies& t = c.tallies;
      for (const RequestSpec& q : generate(w, seed, static_cast<int>(ci), prefix)) {
        const std::uint64_t rid = ci * 1'000'000ull + q.index + 1;
        const bool pareto = q.cls == "pareto";
        const std::uint64_t root = log.open("request", 0, rid);
        ++c.attempted;
        try {
          std::string handled;
          if (!q.stream) {
            if (pareto) ivory::core::funnel_sim_cache_clear();
            const double hl = timed_span(log, "serve.handle_line", root, rid,
                                         [&] { handled = service.handle_line(q.line); });
            t.ms["serve.handle_line"].push_back(hl);
            t.total["handle_line_ms"] += hl;
          }
          if (pareto) ivory::core::funnel_sim_cache_clear();
          const std::uint64_t rep = log.open("replay", root, rid);
          const std::string rebuilt = replay(q, log, rep, rid, t);
          log.close(rep);
          if (!q.stream && !rebuilt.empty() && rebuilt != handled) ++c.mismatches;
        } catch (const std::exception& e) {
          ++c.failed;
          if (c.error.empty())
            c.error = "replay of request " + std::to_string(q.index) + ": " + e.what();
        }
        log.close(root);
      }
    });
  for (std::thread& th : clients) th.join();

  Tallies t;
  std::vector<Span> spans;
  std::uint64_t mismatches = 0;
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    const Conn& c = conns[ci];
    t.add(c.tallies);
    spans.insert(spans.end(), logs[ci].spans.begin(), logs[ci].spans.end());
    out.attempted += c.attempted;
    out.failed += c.failed;
    mismatches += c.mismatches;
    if (out.error.empty()) out.error = c.error;
  }
  out.spans = spans.size();
  if (!write_chrome_trace(trace_path, spans)) note("cannot write " + trace_path);
  if (mismatches > 0)
    std::printf("note: %llu replayed responses differ from handle_line's; the replay no "
                "longer mirrors the service for some op\n",
                static_cast<unsigned long long>(mismatches));

  const WorkCounters& k = base.counters;
  const double socket_p50 = median(roundtrips(base.records, false));
  const double handle_line_p50 = t.med("serve.handle_line");
  const double hl_total = t.tot("handle_line_ms");
  out.metrics = {
      {"serve.decode_us", t.med("serve.decode") * 1e3, "us"},
      {"serve.handle_line_us", handle_line_p50 * 1e3, "us"},
      {"serve.transport_us", (socket_p50 - handle_line_p50) * 1e3, "us"},
      {"serve.queue_wait_ms", histogram_delta_quantile(q0, q1, 0.99), "ms"},
      {"serve.encode_us", t.med("serve.encode") * 1e3, "us"},
      {"serve.stream_ms", median(roundtrips(base.records, true)), "ms"},
      {"serve.cache_hit_ratio",
       ratio(static_cast<double>(k.cache_hits), static_cast<double>(k.cache_hits + k.cache_misses)),
       "fraction"},
      {"serve.evaluations", static_cast<double>(k.evaluations), "count"},
      {"serve.response_bytes", static_cast<double>(k.response_bytes), "B"},
      {"core.funnel.screen_ms", t.med("core.funnel.screen"), "ms"},
      {"core.funnel.sim_ms", t.med("core.funnel.sim"), "ms"},
      {"core.funnel.cand_per_s", ratio(t.tot("funnel.screened"), t.tot("funnel.screen_s")),
       "1/s"},
      {"core.funnel.candidates", static_cast<double>(k.candidates), "count"},
      {"core.funnel.feasible_ratio",
       ratio(static_cast<double>(k.feasible), static_cast<double>(k.candidates)), "fraction"},
      {"core.funnel.frontier_size", static_cast<double>(k.frontier), "count"},
      {"core.funnel.sim_cache_hit_ratio",
       ratio(t.tot("funnel.sim_hits"), t.tot("funnel.sim_lookups")), "fraction"},
      {"front_screen_err", k.front_screen_err, "fraction"},
      {"core.explore_ms", t.med("core.explore"), "ms"},
      {"core.explore.evaluated", t.tot("explore.evaluated"), "count"},
      {"core.explore.skipped", t.tot("explore.skipped"), "count"},
      {"core.optimize.sc_ms", t.med("core.optimize.sc"), "ms"},
      {"core.optimize.buck_ms", t.med("core.optimize.buck"), "ms"},
      {"core.optimize.ldo_ms", t.med("core.optimize.ldo"), "ms"},
      {"core.optimize.dldo_ms", t.med("core.optimize.dldo"), "ms"},
      {"core.analyze_us", t.med("core.analyze") * 1e3, "us"},
      // Means: a few large grids, not the many small circuits, set p90.
      {"spice.parse_ms", t.mean("spice.parse"), "ms"},
      {"spice.dcop_ms", t.mean("spice.dcop"), "ms"},
      {"spice.transient_ms", t.mean("spice.transient"), "ms"},
      {"spice.step_ns.switched",
       ratio(t.tot("spice.switched_ms") * 1e6, t.tot("spice.switched_steps")), "ns"},
      {"spice.step_ns.grid", ratio(t.tot("spice.grid_ms") * 1e6, t.tot("spice.grid_steps")),
       "ns"},
      {"spice.steps", static_cast<double>(k.steps), "count"},
      {"spice.lu_factorizations", static_cast<double>(k.lu_factorizations), "count"},
      {"spice.lu_cache_hit_ratio",
       ratio(static_cast<double>(k.lu_cache_hits), static_cast<double>(k.steps)), "fraction"},
      {"spice.factor_nnz", static_cast<double>(k.factor_nnz), "count"},
      {"workload.trace_ms", t.med("workload.trace"), "ms"},
      {"core.dynamic_ms", t.med("core.dynamic"), "ms"},
      {"scenario.eval_ms", t.med("scenario.eval"), "ms"},
      {"unattributed_frac", ratio(hl_total - t.tot("attributed_ms"), hl_total), "fraction"},
      {"trace_overhead_frac", ratio(traced_s - untraced_s, untraced_s), "fraction"},
  };
  k.print("work counters (the requests above, untraced pass):");
  return out;
}

}  // namespace perfbench
