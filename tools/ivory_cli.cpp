// ivory — command-line front end to the Ivory IVR design-space exploration
// library.
//
//   ivory explore   --vin 3.3 --vout 1.0 --power 20 --area 20m  [--cap trench]
//   ivory pareto    --density 1.0 --front-cap 32 [--top-k 10 + explore flags]
//   ivory sc        --n 3 --m 1 --cfly 4u --gtot 15k --fsw 80meg --vin 3.3 --iload 20
//   ivory buck      --l 5n --fsw 100meg --phases 4 --whs 80m --wls 100m
//                   --cout 1u --vin 3.3 --vout 1.0 --iload 10
//   ivory topology  --n 3 --m 2 [--family ladder]
//   ivory dynamic   --benchmark CFD --dist 4
//   ivory pds       [--guard-off 110m --guard-ivr 25m]
//   ivory transient --netlist circuit.sp --tstop 10u --dt 1n [--record out]
//   ivory batch     [--repeat 2 --threads 4]  < requests.ndjson
//   ivory serve     --socket /tmp/ivory.sock [--threads 4]
//
// Flags go through the serve request schema: `--a-b value` becomes the body
// member "a_b":"value", so `ivory sc --n 3` and {"op":"sc_static","n":3}
// share one validation. Numeric flags accept SPICE suffixes (4u, 15k, 80meg,
// 20m, ...). Areas are in mm^2 (e.g. --area 20).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <csignal>
#include <sys/prctl.h>
#include <unistd.h>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/ivory.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/wave_codec.hpp"

using namespace ivory;

namespace {

using serve::FieldReader;
using serve::SchemaError;

/// The flags of one invocation as a request body: `--a-b value` becomes the
/// string member "a_b":"value" (a repeated flag keeps its last value).
json::Value flags_body(int argc, char** argv) {
  if ((argc - 2) % 2 != 0) throw SchemaError("every flag needs a value");
  json::Value body{json::Value::Object{}};
  for (int i = 2; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.size() <= 2 || key.rfind("--", 0) != 0)
      throw SchemaError("flags must start with --: " + key);
    key.erase(0, 2);
    std::replace(key.begin(), key.end(), '-', '_');
    body.set(std::move(key), std::string(argv[i + 1]));
  }
  return body;
}

/// Moves the CLI-only flags `keys` (files, output modes) out of `body` into
/// an object of their own, so an op schema reads the rest and a separate
/// FieldReader reads these.
json::Value split(json::Value& body, std::initializer_list<std::string_view> keys) {
  json::Value::Object& members = body.as_object();
  json::Value::Object out;
  for (auto it = members.begin(); it != members.end();) {
    if (std::find(keys.begin(), keys.end(), it->first) == keys.end()) {
      ++it;
    } else {
      out.push_back(std::move(*it));
      it = members.erase(it);
    }
  }
  return json::Value(std::move(out));
}

/// A flag without a default.
std::string required(FieldReader& r, const char* key) {
  if (!r.has(key)) throw SchemaError(std::string("missing required flag --") + key);
  return r.str(key, "");
}

/// A size or count flag.
std::size_t count(FieldReader& r, std::string_view key, int fallback) {
  const int v = r.integer(key, fallback);
  if (v < 0) r.fail(key, "must be >= 0");
  return static_cast<std::size_t>(v);
}

/// --cache, --cache-dir and --store-max-bytes, shared by batch and serve.
serve::ServiceOptions service_options(FieldReader& r) {
  serve::ServiceOptions o;
  o.cache_capacity = count(r, "cache", static_cast<int>(o.cache_capacity));
  o.cache_dir = r.str("cache_dir", "");
  const double store = r.num("store_max_bytes", static_cast<double>(o.store_max_bytes));
  if (!(store >= 0.0 && store < 0x1p64)) r.fail("store_max_bytes", "must be a byte count");
  o.store_max_bytes = static_cast<std::uint64_t>(store);
  return o;
}

/// `--metrics-out FILE`: dump the process metrics registry plus the trace
/// ring to FILE as one canonical JSON document once the command has run.
/// `{"metrics": <registry snapshot>, "trace": <chrome trace_event doc>}` —
/// the "trace" member can be pasted into chrome://tracing as-is.
void write_metrics_out(const std::string& path) {
  json::Value::Object o;
  o.emplace_back("metrics", metrics::registry().to_json());
  o.emplace_back("trace", json::Value::parse(trace::to_chrome_json()));
  std::ofstream out(path);
  if (!out) throw InvalidParameter("cannot open --metrics-out file '" + path + "'");
  out << json::Value(std::move(o)).write_canonical() << "\n";
}

void print_skips(const SweepReport& report, const char* what) {
  if (report.skips.empty()) return;
  std::printf("\n%zu of %zu %s quarantined:\n", report.skips.size(), report.n_evaluated, what);
  for (const Diagnostics& d : report.skips) std::printf("  - %s\n", d.to_string().c_str());
}

int cmd_explore(json::Value& body) {
  const serve::ExploreParams p = serve::explore_params(body);
  const core::SystemParams& sys = p.sys;
  std::printf("exploring: %.2f V -> %.2f V, %.1f W, %.1f mm^2, %s, %s caps\n\n", sys.vin_v,
              sys.vout_v, sys.p_load_w, sys.area_max_m2 * 1e6, tech::node_name(sys.node),
              tech::cap_kind_name(sys.cap_kind));
  TextTable t({"design", "dist", "eff (%)", "ripple (mV)", "f_sw (MHz)", "ilv", "area (mm^2)",
               "feasible"});
  SweepReport report;
  std::vector<core::DseResult> results = core::explore(sys, p.target, &report);
  if (p.top_k > 0 && results.size() > static_cast<std::size_t>(p.top_k))
    results.resize(static_cast<std::size_t>(p.top_k));
  for (const core::DseResult& r : results) {
    t.add_row({r.label.empty() ? core::topology_name(r.topology) : r.label,
               std::to_string(r.n_distributed), TextTable::num(r.efficiency * 100, 3),
               TextTable::num(r.ripple_pp_v * 1e3, 3), TextTable::num(r.f_sw_hz / 1e6, 3),
               std::to_string(r.n_interleave), TextTable::num(r.area_m2 * 1e6, 3),
               r.feasible ? "yes" : "no"});
  }
  std::printf("%s", t.render().c_str());
  print_skips(report, "candidates");
  return 0;
}

int cmd_pareto(json::Value& body) {
  const serve::ParetoParams p = serve::pareto_params(body);
  const core::SystemParams& sys = p.sys;
  std::printf("funnel: %.2f V -> %.2f V, %.1f W, %.1f mm^2, %s, %s caps (density %.2f)\n\n",
              sys.vin_v, sys.vout_v, sys.p_load_w, sys.area_max_m2 * 1e6,
              tech::node_name(sys.node), tech::cap_kind_name(sys.cap_kind), p.density);
  SweepReport report;
  const core::ParetoFront front = core::funnel_explore(sys, p.spec, &report);

  TextTable t({"#", "design", "dist", "ivr%", "eff (%)", "area (mm^2)", "ripple (mV)",
               "droop (mV)", "sim"});
  std::size_t shown = 0;
  for (const core::ParetoPoint& pt : front.points) {
    if (p.top_k > 0 && shown == static_cast<std::size_t>(p.top_k)) break;
    ++shown;
    t.add_row({std::to_string(shown),
               pt.design.label.empty() ? core::topology_name(pt.design.topology)
                                       : pt.design.label,
               std::to_string(pt.design.n_distributed),
               std::to_string(static_cast<int>(pt.ivr_load_frac * 100.0 + 0.5)),
               TextTable::num(pt.screen.efficiency * 100, 3),
               TextTable::num(pt.screen.area_m2 * 1e6, 3),
               TextTable::num(pt.screen.ripple_pp_v * 1e3, 3),
               pt.simulated ? TextTable::num(pt.droop_pp_v * 1e3, 3) : "-",
               pt.simulated ? (pt.sim_cached ? "cached" : "yes") : "no"});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("screened %llu candidates (%llu feasible) in %llu blocks -> frontier %llu "
              "(%.0f candidates/s; sim cache: %llu hit, %llu miss)\n",
              static_cast<unsigned long long>(front.stats.n_screened),
              static_cast<unsigned long long>(front.stats.n_feasible),
              static_cast<unsigned long long>(front.stats.n_blocks),
              static_cast<unsigned long long>(front.stats.frontier_size),
              front.stats.screen_s > 0.0
                  ? static_cast<double>(front.stats.n_screened) / front.stats.screen_s
                  : 0.0,
              static_cast<unsigned long long>(front.stats.sim_cache_hits),
              static_cast<unsigned long long>(front.stats.sim_cache_misses));
  print_skips(report, "candidates");
  return 0;
}

int cmd_sc(json::Value& body) {
  const serve::ScStaticParams p = serve::sc_static_params(body);
  const core::ScAnalysis r = core::analyze_sc(p.design, p.vin_v, p.i_load_a);
  TextTable t({"metric", "value"});
  t.add_row({"ideal output", TextTable::num(r.vout_ideal_v, 4) + " V"});
  t.add_row({"actual output", TextTable::num(r.vout_v, 4) + " V"});
  t.add_row({"R_out (SSL/FSL)", TextTable::si(r.rout_ohm, "ohm") + " (" +
                                    TextTable::si(r.rssl_ohm, "ohm") + " / " +
                                    TextTable::si(r.rfsl_ohm, "ohm") + ")"});
  t.add_row({"efficiency", TextTable::num(r.efficiency * 100, 4) + " %"});
  t.add_row({"ripple p-p", TextTable::si(r.ripple_pp_v, "V")});
  t.add_row({"loss: conduction", TextTable::si(r.p_conduction_w, "W")});
  t.add_row({"loss: gate", TextTable::si(r.p_gate_w, "W")});
  t.add_row({"loss: bottom plate", TextTable::si(r.p_bottom_plate_w, "W")});
  t.add_row({"loss: leakage", TextTable::si(r.p_leakage_w, "W")});
  t.add_row({"loss: peripherals", TextTable::si(r.p_peripheral_w, "W")});
  t.add_row({"area", TextTable::num(r.area_m2 * 1e6, 4) + " mm^2"});
  std::printf("%s", t.render().c_str());

  if (p.regulate_v > 0.0) {
    const core::ScRegulated reg =
        core::analyze_sc_regulated(p.design, p.vin_v, p.regulate_v, p.i_load_a);
    if (reg.feasible)
      std::printf("\nregulated to %.3f V: eff %.2f %% at f_sw %.2f MHz\n", p.regulate_v,
                  reg.analysis.efficiency * 100, reg.f_sw_used_hz / 1e6);
    else
      std::printf("\nregulation to %.3f V infeasible (past the cliff or FSL floor)\n",
                  p.regulate_v);
  }
  return 0;
}

int cmd_buck(json::Value& body) {
  const serve::BuckStaticParams p = serve::buck_static_params(body);
  const core::BuckAnalysis r = core::analyze_buck(p.design, p.vin_v, p.vout_v, p.i_load_a);
  TextTable t({"metric", "value"});
  t.add_row({"duty", TextTable::num(r.duty, 4)});
  t.add_row({"L_eff / L0", TextTable::num(r.l_eff_h / p.design.l_per_phase_h, 4)});
  t.add_row({"efficiency", TextTable::num(r.efficiency * 100, 4) + " %"});
  t.add_row({"inductor ripple/phase", TextTable::si(r.i_ripple_phase_a, "A")});
  t.add_row({"output ripple p-p", TextTable::si(r.ripple_pp_v, "V")});
  t.add_row({"loss: conduction", TextTable::si(r.p_conduction_w, "W")});
  t.add_row({"loss: gate", TextTable::si(r.p_gate_w, "W")});
  t.add_row({"loss: overlap+coss+deadtime",
             TextTable::si(r.p_overlap_w + r.p_coss_w + r.p_deadtime_w, "W")});
  t.add_row({"die area", TextTable::num(r.area_die_m2 * 1e6, 4) + " mm^2"});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_topology(json::Value& body) {
  FieldReader r(body, "topology");
  const int n = r.integer("n", 2);
  const int m = r.integer("m", 1);
  const core::ScFamily family = serve::sc_family_from(r);
  r.finish();
  const core::ScTopology topo = core::make_topology(n, m, family);
  const core::ChargeVectors cv = core::charge_vectors(topo);
  const std::vector<double> stress = core::switch_stress_ratios(topo);
  std::printf("%s: %zu caps, %zu switches, q_in = %.4f per unit output charge\n",
              topo.name.c_str(), topo.caps.size(), topo.switches.size(), cv.q_in);
  std::printf("R_SSL = %.4f / (C_tot f_sw)    R_FSL = %.4f / (G_tot D)\n",
              cv.sum_ac() * cv.sum_ac(), cv.sum_ar() * cv.sum_ar());
  TextTable t({"element", "a (charge mult.)", "stress (x Vin)"});
  for (std::size_t i = 0; i < topo.caps.size(); ++i)
    t.add_row({std::string(topo.caps[i].is_dc ? "C(dc) " : "C(fly) ") + std::to_string(i),
               TextTable::num(cv.a_cap[i], 4), TextTable::num(topo.caps[i].ideal_v_ratio, 4)});
  for (std::size_t i = 0; i < topo.switches.size(); ++i) {
    std::string sname = "S";
    sname += std::to_string(i);
    sname += topo.switches[i].phase == 0 ? " (A)" : " (B)";
    t.add_row({std::move(sname), TextTable::num(cv.a_switch[i], 4),
               TextTable::num(stress[i], 4)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_dynamic(json::Value& body) {
  FieldReader r(body, "dynamic");
  const core::SystemParams sys = serve::system_from(r);
  const workload::Benchmark bench = serve::benchmark_from(r, "CFD");
  const int dist = r.integer("dist", 4);
  if (dist < 1) r.fail("dist", "must be >= 1");
  const double dt = r.num("dt", 2e-9), dur = r.num("duration", 60e-6);
  r.finish();

  const core::DseResult ivr =
      core::optimize_topology(sys, core::IvrTopology::SwitchedCapacitor, dist);
  require(ivr.feasible, "no feasible IVR design for these constraints");
  std::printf("design: %s x%d distributed, %d-way interleaved, f_sw %.1f MHz\n",
              ivr.label.c_str(), dist, ivr.n_interleave, ivr.f_sw_hz / 1e6);

  const auto traces = workload::generate_gpu_traces(bench, 4, sys.p_load_w / 4.0, dur, dt);
  const workload::DigitalLoadModel load = workload::DigitalLoadModel::from_average_power(
      sys.p_load_w / 4.0, sys.vout_v, 1e9, 0.2);
  std::vector<double> i_dom(traces[0].watts.size(), 0.0);
  const int sm_per_dom = 4 / dist;
  for (int s = 0; s < sm_per_dom; ++s) {
    const auto i = workload::power_to_current(traces[static_cast<std::size_t>(s)], load,
                                              sys.vout_v);
    for (std::size_t k = 0; k < i_dom.size(); ++k) i_dom[k] += i[k];
  }
  const core::DynWaveform w =
      core::sc_combined_response(ivr.sc, sys.vin_v, sys.vout_v, i_dom, dt);
  const std::vector<double> tail(w.v.begin() + static_cast<long>(w.v.size() / 5), w.v.end());
  const BoxStats b = box_stats(tail);
  std::printf("%s supply voltage (one domain): mean %.4f V, p-p %.1f mV, "
              "[min %.4f | q1 %.4f | med %.4f | q3 %.4f | max %.4f]\n",
              workload::benchmark_name(bench), mean(tail), peak_to_peak(tail) * 1e3,
              b.minimum, b.q1, b.median, b.q3, b.maximum);
  return 0;
}

int cmd_scenario(json::Value& body) {
  // --delivery ivr|vrm|hybrid and --benchmark become the "domains" array.
  const json::Value cli = split(body, {"delivery", "benchmark"});
  FieldReader c(cli, "scenario");
  const std::string delivery = c.str("delivery", "ivr");
  const std::string benchmark = c.str("benchmark", "CFD");
  const auto domain = [&benchmark](const char* name, double power_frac, const char* via) {
    json::Value::Object d;
    d.emplace_back("name", name);
    d.emplace_back("power_frac", power_frac);
    d.emplace_back("delivery", via);
    d.emplace_back("benchmark", benchmark);
    return json::Value(std::move(d));
  };
  json::Value::Array domains;
  if (delivery == "hybrid") {
    // FlexWatts-style split: the latency-critical core domain rides the
    // on-chip IVR, the uncore stays on the board VRM rail.
    domains = {domain("core", 0.7, "ivr"), domain("uncore", 0.3, "vrm")};
  } else {
    domains = {domain("core", 1.0, delivery.c_str())};
  }
  // Appended, not set: a --domains flag would come first and fail the schema.
  body.as_object().emplace_back("domains", std::move(domains));
  if (!body.find("preset")) body.set("preset", "gpu-dvfs-step");
  const serve::ScenarioEvalParams p = serve::scenario_eval_params(body);

  std::printf("scenario '%s': %zu states x %zu domains, %s IVR x%d, delivery %s\n\n",
              p.spec.name.c_str(), p.spec.states.size(), p.spec.domains.size(),
              core::topology_name(p.topology), p.n_distributed, delivery.c_str());
  SweepReport report;
  const scenario::ScenarioReport res =
      scenario::evaluate_scenario(p.sys, p.topology, p.n_distributed, p.spec, &report);
  if (res.has_ivr)
    std::printf("IVR design: %s, f_sw %.1f MHz, area %.3f mm^2\n",
                res.design.label.empty() ? core::topology_name(res.design.topology)
                                         : res.design.label.c_str(),
                res.design.f_sw_hz / 1e6, res.design.area_m2 * 1e6);
  TextTable t({"domain", "state", "delivery", "res (%)", "V", "f (GHz)", "I (A)", "eff (%)",
               "droop (mV)"});
  for (const scenario::StateEval& cell : res.cells)
    t.add_row({cell.domain, cell.state,
               cell.gated ? "gated" : scenario::delivery_name(cell.delivery),
               TextTable::num(cell.residency * 100, 3), TextTable::num(cell.v_v, 3),
               TextTable::num(cell.f_hz / 1e9, 3), TextTable::num(cell.i_avg_a, 3),
               TextTable::num(cell.efficiency * 100, 3),
               TextTable::num(cell.droop_pp_v * 1e3, 3)});
  std::printf("%s", t.render().c_str());
  std::printf("\nresidency-weighted: eff %.2f %%, P_out %.2f W, P_in %.2f W, "
              "worst droop %.1f mV%s\n",
              res.weighted_efficiency * 100, res.p_out_avg_w, res.p_in_avg_w,
              res.worst_droop_pp_v * 1e3, res.complete ? "" : " (incomplete)");
  print_skips(report, "cells");
  return 0;
}

int cmd_pds(json::Value& body) {
  const serve::PdsParams p = serve::pds_params(body);
  const pdn::PdnParams pdn_params = pdn::PdnParams::gpuvolt_default();
  const core::DseResult ivr =
      core::optimize_topology(p.sys, core::IvrTopology::SwitchedCapacitor, p.n_distributed);
  require(ivr.feasible, "no feasible IVR design for these constraints");
  // Quarantined evaluations: a failing composition prints its diagnostics
  // (code, site, candidate) instead of aborting with a bare what() string.
  const EvalOutcome<core::PdsBreakdown> off_out =
      core::try_evaluate_pds_offchip(p.sys, pdn_params, p.v_nom_v, p.guard_off_v);
  const EvalOutcome<core::PdsBreakdown> on_out =
      core::try_evaluate_pds_ivr(p.sys, pdn_params, ivr, p.v_nom_v, p.guard_ivr_v);
  if (!off_out.ok() || !on_out.ok()) {
    if (!off_out.ok())
      std::fprintf(stderr, "pds: %s\n", off_out.diagnostics().to_string().c_str());
    if (!on_out.ok())
      std::fprintf(stderr, "pds: %s\n", on_out.diagnostics().to_string().c_str());
    return 1;
  }
  const core::PdsBreakdown& off = off_out.value();
  const core::PdsBreakdown& on = on_out.value();

  TextTable t({"PDS", "guardband", "grid IR", "PDN IR", "IVR loss", "VRM loss", "total (W)",
               "eff (%)"});
  auto row = [&](const char* name, double guard, const core::PdsBreakdown& b) {
    t.add_row({name, TextTable::si(guard, "V"), TextTable::num(b.p_grid_ir_w, 3),
               TextTable::num(b.p_pdn_ir_w, 3), TextTable::num(b.p_ivr_loss_w, 3),
               TextTable::num(b.p_vrm_loss_w, 3), TextTable::num(b.p_total_w, 4),
               TextTable::num(b.efficiency * 100, 3)});
  };
  row("off-chip VRM", p.guard_off_v, off);
  row(("IVR x" + std::to_string(p.n_distributed)).c_str(), p.guard_ivr_v, on);
  std::printf("%s", t.render().c_str());
  std::printf("improvement: %.1f points\n", (on.efficiency - off.efficiency) * 100.0);
  return 0;
}

int cmd_transient(json::Value& body) {
  // --netlist FILE becomes the netlist text, --record a,b a node array;
  // --encoding and --chunk-bytes choose the stdout format.
  const json::Value cli = split(body, {"netlist", "record", "encoding", "chunk_bytes"});
  FieldReader c(cli, "transient");
  const std::string path = required(c, "netlist");
  const std::string record = c.str("record", "");
  const bool wave1 = c.choice("encoding", "table", {"table", "wave1"}) == 1;
  const int chunk_bytes = c.integer("chunk_bytes", 0);

  std::ifstream in(path);
  if (!in) throw InvalidParameter("cannot open netlist file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  json::Value::Array nodes;
  for (std::size_t pos = 0; pos < record.size();) {
    const std::size_t comma = std::min(record.find(',', pos), record.size());
    if (comma > pos) nodes.emplace_back(record.substr(pos, comma - pos));
    pos = comma + 1;
  }
  json::Value::Object& members = body.as_object();
  members.emplace_back("netlist", text.str());
  if (!nodes.empty()) members.emplace_back("record", std::move(nodes));
  if (!body.find("topology")) body.set("topology", "spice");
  const serve::TransientParams p = serve::transient_params(body);
  // No sample budget: unlike a server, the CLI runs whatever it is asked to.
  serve::SpicePrep sp = serve::prepare_spice(p, std::numeric_limits<std::size_t>::max());

  if (wave1) {
    // Raw wave1 frame stream on stdout (magic + HEADER/CHUNK/END), exactly
    // the bytes `ivory serve` would stream for this transient — pipe it to a
    // decoder or a file. The cost summary stays on stderr as usual.
    serve::StreamEmitter em(
        [](std::string&& bytes) {
          return std::fwrite(bytes.data(), 1, bytes.size(), stdout) == bytes.size();
        },
        nullptr, 0.0, std::chrono::steady_clock::now());
    if (chunk_bytes > 0) em.set_chunk_bytes(static_cast<std::size_t>(chunk_bytes));
    serve::Wave1TransientStream ws(em, "null", sp.names);
    sp.spec.sample_sink = ws.sink();
    const spice::TranResult res = spice::transient(sp.ckt, sp.spec);
    ws.finish(res);
    std::fflush(stdout);
    std::fprintf(stderr, "ivory transient: streamed %llu rows in %llu chunks (wave1)\n",
                 static_cast<unsigned long long>(ws.rows()),
                 static_cast<unsigned long long>(em.chunks_emitted()));
    return 0;
  }

  const spice::TranResult res = spice::transient(sp.ckt, sp.spec);

  TextTable t({"node", "final (V)", "mean (V)", "min (V)", "max (V)"});
  for (std::size_t i = 0; i < res.nodes.size(); ++i) {
    const std::vector<double>& v = res.voltages[i];
    double lo = v.front(), hi = lo, sum = 0.0;
    for (double s : v) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
      sum += s;
    }
    t.add_row({sp.ckt.node_name(res.nodes[i]), TextTable::num(v.back(), 5),
               TextTable::num(sum / static_cast<double>(v.size()), 5), TextTable::num(lo, 5),
               TextTable::num(hi, 5)});
  }
  std::printf("%s", t.render().c_str());

  // Simulator cost on stderr (like the batch/serve summaries) so validation
  // runs expose the hot-path behaviour without a debugger.
  const double per_1k = res.steps_taken > 0
                            ? 1e3 * static_cast<double>(res.lu_factorizations) /
                                  static_cast<double>(res.steps_taken)
                            : 0.0;
  std::fprintf(stderr,
               "ivory transient: %llu steps, %llu LU factorizations (%.2f per 1k steps), "
               "%llu cache hits, %llu evictions, max resident %llu (capacity %d), "
               "kernel %s, %llu symbolic analyses, factor nnz %llu\n",
               static_cast<unsigned long long>(res.steps_taken),
               static_cast<unsigned long long>(res.lu_factorizations), per_1k,
               static_cast<unsigned long long>(res.lu_cache_hits),
               static_cast<unsigned long long>(res.lu_cache_evictions),
               static_cast<unsigned long long>(res.max_resident_factorizations),
               sp.spec.lu_cache_capacity, res.kernel.c_str(),
               static_cast<unsigned long long>(res.symbolic_analyses),
               static_cast<unsigned long long>(res.factor_nnz));
  return 0;
}

int cmd_batch(json::Value& body) {
  FieldReader r(body, "batch");
  const int threads = r.integer("threads", 0);
  const serve::ServiceOptions sopt = service_options(r);
  serve::BatchOptions bopt;
  bopt.repeat = r.integer("repeat", bopt.repeat);
  bopt.wave = count(r, "wave", 0);
  bopt.queue_capacity = count(r, "queue", static_cast<int>(bopt.queue_capacity));
  r.finish();
  if (threads > 0) par::set_global_threads(static_cast<unsigned>(threads));
  serve::Service service(sopt);
  const serve::BatchSummary summary = serve::run_batch(std::cin, std::cout, service, bopt);
  // Counters live on stderr so response bytes on stdout stay replayable.
  std::fprintf(stderr, "%s\n", serve::summary_json(summary).c_str());
  return 0;
}

int cmd_metrics(json::Value& body) {
  // With --socket, snapshot a running server's registry over the serve
  // protocol; without, render this process's own (freshly started, hence
  // empty) registry — still useful as a format self-check.
  FieldReader r(body, "metrics");
  const std::string socket = r.str("socket", "");
  const bool prometheus = r.choice("format", "json", {"json", "prometheus"}) == 1;
  r.finish();
  json::Value snapshot;
  if (!socket.empty()) {
    serve::BlockingClient client(socket);
    client.send_line("{\"id\":0,\"op\":\"metrics\"}");
    const json::Value root = json::Value::parse(client.recv_line());
    const json::Value* ok = root.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
      throw NumericalError("metrics: server returned an error envelope");
    const json::Value* result = root.find("result");
    require(result != nullptr, "metrics: response carries no result");
    snapshot = *result;
  } else {
    snapshot = metrics::registry().to_json();
  }
  if (prometheus)
    std::printf("%s", metrics::render_prometheus(snapshot).c_str());
  else
    std::printf("%s\n", snapshot.write_canonical().c_str());
  return 0;
}

/// Blocks SIGTERM/SIGINT in the calling thread. Threads started afterwards
/// inherit the mask, so the signal always lands in the caller's sigwait and
/// never kills a worker thread.
sigset_t block_termination_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  return set;
}

void print_serve_stats(const serve::ServiceStats& s) {
  std::fprintf(stderr,
               "ivory serve: handled %llu requests (%llu evaluated, %llu errors), "
               "cache %llu/%llu hit/miss, %llu evictions",
               static_cast<unsigned long long>(s.n_requests),
               static_cast<unsigned long long>(s.n_evaluations),
               static_cast<unsigned long long>(s.n_errors),
               static_cast<unsigned long long>(s.cache.hits),
               static_cast<unsigned long long>(s.cache.misses),
               static_cast<unsigned long long>(s.cache.evictions));
  if (s.durable)
    std::fprintf(stderr, ", store %llu hits / %llu puts (%llu warm-loaded, %llu quarantined)",
                 static_cast<unsigned long long>(s.store.hits),
                 static_cast<unsigned long long>(s.store.puts),
                 static_cast<unsigned long long>(s.warm_loaded),
                 static_cast<unsigned long long>(s.store.quarantined));
  std::fprintf(stderr, "\n");
}

int cmd_serve(json::Value& body) {
  FieldReader r(body, "serve");
  const std::string socket = required(r, "socket");
  const int threads = r.integer("threads", 0);
  serve::ServerOptions o;
  o.socket_path = socket;
  o.service = service_options(r);
  o.queue_capacity = count(r, "queue", static_cast<int>(o.queue_capacity));
  o.wave = count(r, "wave", 0);
  const int workers = r.integer("workers", 1);
  const bool worker_mode = r.boolean("worker", false);
  serve::SupervisorOptions fo;
  fo.backoff_initial_ms = r.integer("backoff_ms", fo.backoff_initial_ms);
  fo.flap_limit = r.integer("flap_limit", fo.flap_limit);
  fo.drain_deadline_ms = r.integer("drain_ms", fo.drain_deadline_ms);
  fo.health_interval_ms = r.integer("health_ms", fo.health_interval_ms);
  r.finish();
  if (threads > 0) par::set_global_threads(static_cast<unsigned>(threads));

  if (workers > 1 && !worker_mode) {
    // Supervised fleet: N worker processes behind one acceptor/mux. Each
    // worker reads the per-process flags again.
    fo.socket_path = socket;
    fo.workers = workers;
    for (const char* key : {"threads", "cache", "queue", "wave", "cache_dir", "store_max_bytes"})
      if (const json::Value* v = body.find(key)) {
        fo.worker_args.push_back(std::string("--") + key);
        fo.worker_args.push_back(v->as_string());
      }
    serve::Supervisor fleet(std::move(fo));
    const sigset_t set = block_termination_signals();
    fleet.start();
    std::fprintf(stderr, "ivory serve: fleet of %d workers on %s (SIGTERM drains)\n",
                 workers, fleet.socket_path().c_str());
    int sig = 0;
    sigwait(&set, &sig);
    std::fprintf(stderr, "ivory serve: signal %d, draining fleet\n", sig);
    fleet.stop();
    const serve::FleetStats fs = fleet.stats();
    std::uint64_t restarts = 0, crashes = 0;
    for (const serve::WorkerStatus& w : fs.workers) {
      restarts += w.restarts;
      crashes += w.crashes;
    }
    std::fprintf(stderr,
                 "ivory serve: fleet handled %llu connections (%llu retryable errors, "
                 "%llu worker crashes, %llu restarts)\n",
                 static_cast<unsigned long long>(fs.connections),
                 static_cast<unsigned long long>(fs.retry_errors),
                 static_cast<unsigned long long>(crashes),
                 static_cast<unsigned long long>(restarts));
    return 0;
  }

  serve::Server server(std::move(o));

  if (worker_mode) {
    // Fleet worker: die with the supervisor, drain gracefully on SIGTERM.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() == 1) return 0;  // supervisor already gone
    const sigset_t set = block_termination_signals();
    server.start();
    std::fprintf(stderr, "ivory serve: worker %d on %s\n", ::getpid(),
                 server.socket_path().c_str());
    int sig = 0;
    sigwait(&set, &sig);
    server.stop();  // finishes in-flight requests before returning
    print_serve_stats(server.stats());
    return 0;
  }

  server.start();
  std::fprintf(stderr, "ivory serve: listening on %s (EOF on stdin stops the server)\n",
               server.socket_path().c_str());
  char buf[256];
  while (std::fgets(buf, sizeof buf, stdin) != nullptr) {
  }
  server.stop();
  print_serve_stats(server.stats());
  return 0;
}

int cmd_client(json::Value& body) {
  // Minimal socket client for scripts and smoke tests: NDJSON requests on
  // stdin, one response line per request on stdout (strict ordering is the
  // transport contract). Exit 1 when the connection dies mid-stream.
  //
  // --stream wave1 adds the stream envelope fields to every request and
  // reassembles each frame stream back into the exact non-streaming response
  // line, so the output is byte-identical to --stream off against the same
  // server. --stream frames sends lines verbatim (the caller's JSON carries
  // its own stream fields) and prints a deterministic per-frame transcript —
  // the conformance surface the golden stream test diffs.
  FieldReader r(body, "client");
  const std::string socket = required(r, "socket");
  const std::size_t mode = r.choice("stream", "off", {"off", "wave1", "frames"});
  const int chunk_bytes = r.integer("chunk_bytes", 0);
  r.finish();
  const bool wave1 = mode == 1, frames = mode == 2;
  serve::BlockingClient client(socket);
  const auto raw_read = [&client](char* out, std::size_t cap) {
    return client.recv_raw(out, cap);
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    if (wave1) {
      json::Value root = json::Value::parse(line);
      root.set("stream", json::Value(true));
      root.set("encoding", json::Value("wave1"));
      if (chunk_bytes > 0)
        root.set("chunk_bytes", json::Value(static_cast<std::uint64_t>(chunk_bytes)));
      client.send_line(root.write());
      const serve::StreamAssembler asm_ = serve::read_stream(raw_read);
      std::printf("%s\n", asm_.decoded().c_str());
      std::fflush(stdout);
      continue;
    }

    client.send_line(line);
    if (frames && serve::classify_line(line).is_stream) {
      const serve::StreamAssembler asm_ =
          serve::read_stream(raw_read, [](const serve::Frame& f) {
            if (f.type == serve::FrameType::Chunk)
              std::printf("CHUNK bytes=%zu fnv=%016llx\n", f.payload.size(),
                          static_cast<unsigned long long>(
                              serve::frame_checksum(f.type, f.payload)));
            else
              std::printf("%s %s\n", serve::frame_type_name(f.type), f.payload.c_str());
          });
      std::printf("%s\n", asm_.decoded().c_str());
    } else {
      std::printf("%s\n", client.recv_line().c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "ivory — early-stage IVR design space exploration (DAC'17 reproduction)\n\n"
      "  ivory explore  [--vin V --vout V --power W --area mm2 --node N --cap K\n"
      "                  --inductor K --max-dist N --ripple V --target T --top-k N]\n"
      "  ivory pareto   [--density D --front-cap N --top-k N --simulate 0|1\n"
      "                  + explore flags]  multi-fidelity funnel: cheap-screen a\n"
      "                  dense grid, print the efficiency/area/ripple Pareto front\n"
      "  ivory sc       [--n N --m M --family F --cfly F --gtot S --fsw Hz --vin V\n"
      "                  --iload A --regulate V]\n"
      "  ivory buck     [--l H --fsw Hz --phases N --whs m --wls m --cout F\n"
      "                  --vin V --vout V --iload A --inductor smt|interposer|magnetic]\n"
      "  ivory topology [--n N --m M --family auto|ladder|series-parallel|dickson]\n"
      "  ivory dynamic  [--benchmark B --dist N --duration s --dt s + explore flags]\n"
      "  ivory pds      [--guard-off V --guard-ivr V --dist N + explore flags]\n"
      "  ivory scenario [--preset P --topology sc|buck|ldo|dldo --delivery ivr|vrm|hybrid\n"
      "                  --benchmark B --dist N --duration s --dt s --seed N\n"
      "                  + explore flags]  residency-weighted power-state evaluation\n"
      "                  (presets: gpu-dvfs-step, active-idle, race-to-halt,\n"
      "                  server-diurnal)\n"
      "  ivory transient --netlist FILE --tstop s --dt s [--method trap|be --uic 1\n"
      "                  --record n1,n2 --record-every N --adaptive 1 --dv-max V\n"
      "                  --dt-max s --lu-cache N --kernel auto|dense|banded|sparse\n"
      "                  --encoding wave1 --chunk-bytes N]\n"
      "                  (cost counters on stderr; --encoding wave1 streams raw\n"
      "                  binary waveform frames on stdout)\n"
      "  ivory batch    [--repeat N --threads N --cache N --queue N --wave N\n"
      "                  --cache-dir PATH --store-max-bytes B]\n"
      "                  NDJSON requests on stdin -> NDJSON responses on stdout\n"
      "  ivory serve    --socket PATH [--workers N --threads N --cache N --queue N\n"
      "                  --wave N --cache-dir PATH --store-max-bytes B]\n"
      "                  same protocol over a Unix-domain socket; EOF on stdin stops\n"
      "                  --workers N>1 runs a supervised multi-process fleet\n"
      "                  (SIGTERM drains; tuning: --backoff-ms --flap-limit\n"
      "                  --drain-ms --health-ms); --cache-dir adds a durable\n"
      "                  content-addressed result store shared by all workers\n"
      "  ivory client   --socket PATH [--stream off|wave1|frames --chunk-bytes N]\n"
      "                  NDJSON on stdin -> response lines on stdout (for scripts);\n"
      "                  --stream wave1 negotiates framed streaming and decodes\n"
      "                  back to the identical lines, frames prints a transcript\n"
      "  ivory metrics  [--socket PATH --format json|prometheus]\n"
      "                  metrics-registry snapshot (of a running server with --socket)\n\n"
      "Every subcommand also takes --metrics-out FILE to dump the process metrics\n"
      "registry + trace ring as canonical JSON after the run.\n\n"
      "Flags are the batch/serve request fields (--front-cap is \"front_cap\"), read\n"
      "by the same strict schema: an unknown flag or a bad value is an error.\n"
      "Values accept SPICE suffixes: 4u, 15k, 80meg, 110m, ...\n");
}

using Handler = int (*)(json::Value&);

constexpr std::pair<std::string_view, Handler> kCommands[] = {
    {"explore", cmd_explore},   {"pareto", cmd_pareto},       {"sc", cmd_sc},
    {"buck", cmd_buck},         {"topology", cmd_topology},   {"dynamic", cmd_dynamic},
    {"pds", cmd_pds},           {"scenario", cmd_scenario},   {"transient", cmd_transient},
    {"batch", cmd_batch},       {"serve", cmd_serve},         {"client", cmd_client},
    {"metrics", cmd_metrics},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  Handler handler = nullptr;
  for (const auto& [name, h] : kCommands)
    if (cmd == name) handler = h;
  if (handler == nullptr) {
    std::fprintf(stderr, "ivory: unknown subcommand '%s'\n\n", cmd.c_str());
    usage();
    return 2;
  }
  try {
    json::Value body = flags_body(argc, argv);
    const json::Value cli = split(body, {"metrics_out"});
    const int rc = handler(body);
    if (const json::Value* path = cli.find("metrics_out"); rc == 0 && path != nullptr)
      write_metrics_out(path->as_string());
    return rc;
  } catch (const SchemaError& e) {
    std::fprintf(stderr, "ivory %s: %s\n\n", cmd.c_str(), e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ivory %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
