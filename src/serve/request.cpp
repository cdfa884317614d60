#include "serve/request.hpp"

#include <cmath>
#include <iterator>
#include <limits>

#include "common/hash.hpp"
#include "common/sparse.hpp"
#include "spice/parser.hpp"
#include "tech/tech.hpp"

namespace ivory::serve {

FieldReader::FieldReader(const json::Value& body, std::string context)
    : obj_(&body.as_object()), ctx_(std::move(context)), used_(obj_->size(), false) {}

void FieldReader::fail(std::string_view field, const std::string& what) const {
  throw SchemaError(ctx_ + ": field '" + std::string(field) + "': " + what);
}

const json::Value* FieldReader::get(std::string_view key) {
  for (std::size_t i = 0; i < obj_->size(); ++i)
    if ((*obj_)[i].first == key) {
      used_[i] = true;
      return &(*obj_)[i].second;
    }
  return nullptr;
}

bool FieldReader::has(std::string_view key) const {
  for (const auto& m : *obj_)
    if (m.first == key) return true;
  return false;
}

double FieldReader::num(std::string_view key, double fallback) {
  const json::Value* v = get(key);
  if (!v) return fallback;
  if (v->is_number()) return v->as_number();
  if (v->is_string()) {
    try {
      return spice::parse_spice_value(v->as_string());
    } catch (const std::exception& e) {
      fail(key, std::string("bad SPICE-suffixed value: ") + e.what());
    }
  }
  fail(key, "expected a number or a SPICE-suffixed string");
}

int FieldReader::integer(std::string_view key, int fallback) {
  const double d = num(key, static_cast<double>(fallback));
  if (std::nearbyint(d) != d || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max())
    fail(key, "expected an integer");
  return static_cast<int>(d);
}

std::string FieldReader::str(std::string_view key, std::string fallback) {
  const json::Value* v = get(key);
  if (!v) return fallback;
  if (!v->is_string()) fail(key, "expected a string");
  return v->as_string();
}

bool FieldReader::boolean(std::string_view key, bool fallback) {
  const json::Value* v = get(key);
  if (!v) return fallback;
  if (v->is_bool()) return v->as_bool();
  if (v->is_string() && (v->as_string() == "0" || v->as_string() == "1"))
    return v->as_string() == "1";
  fail(key, "expected true or false (or \"0\"/\"1\")");
}

std::size_t FieldReader::choice(std::string_view key, std::string_view fallback,
                                std::initializer_list<std::string_view> names) {
  const std::string s = str(key, std::string(fallback));
  std::string known;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names.begin()[i] == s) return i;
    known += (i ? "|" : "") + std::string(names.begin()[i]);
  }
  fail(key, "unknown value '" + s + "' (" + known + ")");
}

void FieldReader::finish() const {
  for (std::size_t i = 0; i < obj_->size(); ++i)
    if (!used_[i]) throw SchemaError(ctx_ + ": unknown field '" + (*obj_)[i].first + "'");
}

tech::Node node_from(FieldReader& r) {
  const std::string s = r.str("node", "32");
  try {
    return tech::node_from_string(s);
  } catch (const std::exception& e) {
    r.fail("node", e.what());
  }
}

tech::CapKind cap_kind_from(FieldReader& r, std::string_view fallback) {
  constexpr tech::CapKind kinds[] = {tech::CapKind::MosCap, tech::CapKind::Mim,
                                     tech::CapKind::DeepTrench};
  return kinds[r.choice("cap", fallback, {"mos", "mim", "trench"})];
}

tech::InductorKind inductor_kind_from(FieldReader& r, std::string_view fallback) {
  constexpr tech::InductorKind kinds[] = {tech::InductorKind::SurfaceMount,
                                          tech::InductorKind::IntegratedInterposer,
                                          tech::InductorKind::MagneticFilm};
  return kinds[r.choice("inductor", fallback, {"smt", "interposer", "magnetic"})];
}

core::ScFamily sc_family_from(FieldReader& r) {
  constexpr core::ScFamily families[] = {core::ScFamily::Auto, core::ScFamily::Ladder,
                                         core::ScFamily::SeriesParallel,
                                         core::ScFamily::Dickson};
  return families[r.choice("family", "auto", {"auto", "ladder", "series-parallel", "dickson"})];
}

workload::Benchmark benchmark_from(FieldReader& r, std::string_view fallback) {
  const std::string s = r.str("benchmark", std::string(fallback));
  try {
    return workload::benchmark_from_string(s);
  } catch (const std::exception& e) {
    r.fail("benchmark", e.what());
  }
}

std::optional<core::IvrTopology> topology_from(FieldReader& r, std::string_view extra) {
  constexpr core::IvrTopology kinds[] = {
      core::IvrTopology::SwitchedCapacitor, core::IvrTopology::Buck,
      core::IvrTopology::LinearRegulator, core::IvrTopology::DigitalLdo};
  const std::size_t i = extra.empty()
                            ? r.choice("topology", "sc", {"sc", "buck", "ldo", "dldo"})
                            : r.choice("topology", "sc", {"sc", "buck", "ldo", "dldo", extra});
  if (i == std::size(kinds)) return std::nullopt;
  return kinds[i];
}

core::SystemParams system_from(FieldReader& r) {
  core::SystemParams sys;
  sys.vin_v = r.num("vin", sys.vin_v);
  sys.vout_v = r.num("vout", sys.vout_v);
  sys.p_load_w = r.num("power", sys.p_load_w);
  sys.area_max_m2 = r.num("area", sys.area_max_m2 * 1e6) * 1e-6;  // mm^2
  sys.node = node_from(r);
  sys.cap_kind = cap_kind_from(r, "trench");
  sys.inductor = inductor_kind_from(r, "magnetic");
  sys.max_distributed = r.integer("max_dist", sys.max_distributed);
  sys.ripple_max_v = r.num("ripple", sys.ripple_max_v);
  return sys;
}

core::ScDesign sc_design_from(FieldReader& r) {
  core::ScDesign d;
  d.node = node_from(r);
  d.cap_kind = cap_kind_from(r, "trench");
  d.n = r.integer("n", 2);
  d.m = r.integer("m", 1);
  d.family = sc_family_from(r);
  d.c_fly_f = r.num("cfly", 1e-6);
  d.c_out_f = r.num("cout", 0.2e-6);
  d.g_tot_s = r.num("gtot", 5000.0);
  d.f_sw_hz = r.num("fsw", 80e6);
  d.n_interleave = r.integer("interleave", 8);
  d.duty = r.num("duty", 0.5);
  return d;
}

core::BuckDesign buck_design_from(FieldReader& r) {
  core::BuckDesign d;
  d.node = node_from(r);
  d.cap_kind = cap_kind_from(r, "trench");
  d.inductor = inductor_kind_from(r, "interposer");
  d.l_per_phase_h = r.num("l", 5e-9);
  d.f_sw_hz = r.num("fsw", 100e6);
  d.n_phases = r.integer("phases", 4);
  d.w_high_m = r.num("whs", 0.08);
  d.w_low_m = r.num("wls", 0.10);
  d.c_out_f = r.num("cout", 1e-6);
  return d;
}

core::LdoDesign ldo_design_from(FieldReader& r) {
  core::LdoDesign d;
  d.node = node_from(r);
  d.cap_kind = cap_kind_from(r, "mos");
  d.w_pass_m = r.num("wpass", 0.05);
  d.n_bits = r.integer("bits", 7);
  d.f_clk_hz = r.num("fclk", 500e6);
  d.c_out_f = r.num("cout", 0.5e-6);
  d.i_quiescent_a = r.num("iq", 1e-3);
  return d;
}

core::DldoDesign dldo_design_from(FieldReader& r) {
  core::DldoDesign d;
  d.node = node_from(r);
  d.cap_kind = cap_kind_from(r, "mos");
  d.w_pass_m = r.num("wpass", 0.05);
  d.n_bits = r.integer("bits", 7);
  d.f_clk_hz = r.num("fclk", 500e6);
  d.n_comparators = r.integer("ncomp", 1);
  d.c_out_f = r.num("cout", 0.5e-6);
  d.i_quiescent_a = r.num("iq", 1e-3);
  return d;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::ScStatic: return "sc_static";
    case Op::BuckStatic: return "buck_static";
    case Op::LdoStatic: return "ldo_static";
    case Op::DldoStatic: return "dldo_static";
    case Op::Explore: return "explore";
    case Op::Pareto: return "pareto";
    case Op::Optimize: return "optimize";
    case Op::ScenarioEval: return "scenario_eval";
    case Op::Pds: return "pds";
    case Op::Transient: return "transient";
    case Op::Stats: return "stats";
    case Op::Metrics: return "metrics";
  }
  return "?";
}

Op op_from_string(const std::string& name) {
  for (const Op op : {Op::ScStatic, Op::BuckStatic, Op::LdoStatic, Op::DldoStatic, Op::Explore,
                      Op::Pareto, Op::Optimize, Op::ScenarioEval, Op::Pds, Op::Transient,
                      Op::Stats, Op::Metrics})
    if (name == op_name(op)) return op;
  throw InvalidParameter("unknown op '" + name +
                         "' (sc_static|buck_static|ldo_static|dldo_static|explore|pareto|"
                         "optimize|scenario_eval|pds|transient|stats|metrics)");
}

namespace {
constexpr const char* kMissingOp = "missing required field 'op'";
}  // namespace

Request parse_request(json::Value root) {
  if (!root.is_object()) throw InvalidParameter("request must be a JSON object");
  Request req;
  json::Value::Object body;
  bool saw_op = false;
  for (auto& m : root.as_object()) {
    if (m.first == "id") {
      if (!m.second.is_null() && !m.second.is_string() && !m.second.is_number())
        throw InvalidParameter("field 'id': expected string, number or null");
      req.id = m.second;
      continue;
    }
    if (m.first == "deadline_ms") {
      if (!m.second.is_number() || !(m.second.as_number() > 0.0))
        throw InvalidParameter("field 'deadline_ms': expected a positive number");
      continue;
    }
    if (m.first == "stream") {
      if (!m.second.is_bool()) throw InvalidParameter("field 'stream': expected a bool");
      continue;
    }
    if (m.first == "encoding") {
      if (!m.second.is_string() || m.second.as_string() != "wave1")
        throw InvalidParameter("field 'encoding': expected \"wave1\" (the only stream encoding)");
      continue;
    }
    if (m.first == "chunk_bytes") {
      if (!m.second.is_number() || m.second.as_number() < 1.0 ||
          m.second.as_number() > static_cast<double>(16u << 20) ||
          m.second.as_number() != static_cast<double>(
                                      static_cast<std::uint64_t>(m.second.as_number())))
        throw InvalidParameter(
            "field 'chunk_bytes': expected an integer in [1, 16777216]");
      req.chunk_bytes = static_cast<std::size_t>(m.second.as_number());
      continue;
    }
    if (m.first == "op") {
      if (!m.second.is_string()) throw InvalidParameter("field 'op': expected a string");
      req.op = op_from_string(m.second.as_string());
      saw_op = true;
    }
    body.push_back(std::move(m));
  }
  if (!saw_op) throw InvalidParameter(kMissingOp);
  req.body = json::Value(std::move(body));
  req.canonical = req.body.write_canonical();
  req.key = fnv1a64(req.canonical);
  return req;
}

DecodedLine decode_line(std::string_view line) {
  DecodedLine d;
  try {
    json::Value root = json::Value::parse(line);
    if (root.is_object()) {
      if (const json::Value* id = root.find("id"))
        if (id->is_null() || id->is_string() || id->is_number()) d.id = *id;
      if (const json::Value* c = root.find("cancel"); c != nullptr && !root.find("op")) {
        d.is_cancel = true;
        d.cancel_id = *c;
        d.error = kMissingOp;  // what Service::handle answers an in-process cancel
        return d;
      }
      if (const json::Value* s = root.find("stream"))
        d.is_stream = s->is_bool() && s->as_bool();
      if (const json::Value* dl = root.find("deadline_ms"))
        if (dl->is_number() && dl->as_number() > 0.0) d.deadline_ms = dl->as_number();
    }
    d.request = parse_request(std::move(root));
  } catch (const std::exception& e) {
    d.error = e.what();
  }
  return d;
}

ScStaticParams sc_static_params(const json::Value& body) {
  FieldReader r(body, "sc_static");
  r.get("op");
  ScStaticParams p;
  p.design = sc_design_from(r);
  p.vin_v = r.num("vin", p.vin_v);
  p.i_load_a = r.num("iload", p.i_load_a);
  p.regulate_v = r.num("regulate", p.regulate_v);
  r.finish();
  return p;
}

BuckStaticParams buck_static_params(const json::Value& body) {
  FieldReader r(body, "buck_static");
  r.get("op");
  BuckStaticParams p;
  p.design = buck_design_from(r);
  p.vin_v = r.num("vin", p.vin_v);
  p.vout_v = r.num("vout", p.vout_v);
  p.i_load_a = r.num("iload", p.i_load_a);
  r.finish();
  return p;
}

LdoStaticParams ldo_static_params(const json::Value& body) {
  FieldReader r(body, "ldo_static");
  r.get("op");
  LdoStaticParams p;
  p.design = ldo_design_from(r);
  p.vin_v = r.num("vin", p.vin_v);
  p.vout_v = r.num("vout", p.vout_v);
  p.i_load_a = r.num("iload", p.i_load_a);
  r.finish();
  return p;
}

DldoStaticParams dldo_static_params(const json::Value& body) {
  FieldReader r(body, "dldo_static");
  r.get("op");
  DldoStaticParams p;
  p.design = dldo_design_from(r);
  p.vin_v = r.num("vin", p.vin_v);
  p.vout_v = r.num("vout", p.vout_v);
  p.i_load_a = r.num("iload", p.i_load_a);
  r.finish();
  return p;
}

namespace {

/// Optional response-size bound shared by explore and pareto: absent = all.
int top_k_from(FieldReader& r) {
  if (!r.has("top_k")) return 0;
  const int k = r.integer("top_k", 0);
  if (k < 1) r.fail("top_k", "must be >= 1 (omit the field to return all)");
  return k;
}

int dist_from(FieldReader& r) {
  const int dist = r.integer("dist", 4);
  if (dist < 1) r.fail("dist", "must be >= 1");
  return dist;
}

}  // namespace

ExploreParams explore_params(const json::Value& body) {
  FieldReader r(body, "explore");
  r.get("op");
  ExploreParams p;
  p.sys = system_from(r);
  constexpr core::OptTarget targets[] = {core::OptTarget::Efficiency, core::OptTarget::Area,
                                         core::OptTarget::Noise};
  p.target = targets[r.choice("target", "efficiency", {"efficiency", "area", "noise"})];
  p.top_k = top_k_from(r);
  r.finish();
  return p;
}

ParetoParams pareto_params(const json::Value& body) {
  FieldReader r(body, "pareto");
  r.get("op");
  ParetoParams p;
  p.sys = system_from(r);
  p.density = r.num("density", p.density);
  if (!(p.density > 0.0) || p.density > 4.0)
    r.fail("density", "must be in (0, 4] (grid scale factor)");
  p.spec = p.spec.scaled(p.density);
  const int cap = r.integer("front_cap", static_cast<int>(p.spec.front_cap));
  if (cap < 1) r.fail("front_cap", "must be >= 1");
  p.spec.front_cap = static_cast<std::size_t>(cap);
  p.spec.simulate = r.boolean("simulate", p.spec.simulate);
  p.top_k = top_k_from(r);
  r.finish();
  return p;
}

OptimizeParams optimize_params(const json::Value& body) {
  FieldReader r(body, "optimize");
  r.get("op");
  OptimizeParams p;
  p.sys = system_from(r);
  p.n_distributed = dist_from(r);
  const std::optional<core::IvrTopology> topology = topology_from(r, "two_stage");
  p.two_stage = !topology;
  if (topology) p.topology = *topology;
  r.finish();
  return p;
}

ScenarioEvalParams scenario_eval_params(const json::Value& body) {
  FieldReader r(body, "scenario_eval");
  r.get("op");
  ScenarioEvalParams p;
  p.sys = system_from(r);
  p.n_distributed = dist_from(r);
  p.topology = *topology_from(r);

  const json::Value* preset = r.get("preset");
  const json::Value* states = r.get("states");
  if ((preset != nullptr) == (states != nullptr))
    throw SchemaError("scenario_eval: exactly one of 'preset' (residency preset name) or "
                      "'states' (inline state array) is required");
  if (preset) {
    if (!preset->is_string()) r.fail("preset", "expected a residency preset name");
    try {
      p.spec.states = workload::residency_preset(preset->as_string());
    } catch (const std::exception& e) {
      r.fail("preset", e.what());
    }
    p.spec.name = preset->as_string();
  } else {
    if (!states->is_array() || states->as_array().empty())
      r.fail("states", "expected a non-empty array of state objects");
    p.spec.states.clear();
    for (std::size_t i = 0; i < states->as_array().size(); ++i) {
      const json::Value& sv = states->as_array()[i];
      if (!sv.is_object()) r.fail("states", "expected state objects");
      FieldReader sr(sv, "scenario_eval.states[" + std::to_string(i) + "]");
      workload::PowerStateSpec st;
      st.name = sr.str("name", "state" + std::to_string(i));
      st.v_v = sr.num("v", 0.0);
      st.f_hz = sr.num("f", 0.0);
      st.activity = sr.num("activity", st.activity);
      st.residency = sr.num("residency", st.residency);
      st.gated = sr.boolean("gated", st.gated);
      sr.finish();
      p.spec.states.push_back(std::move(st));
    }
    p.spec.name = r.str("name", p.spec.name);
  }

  if (const json::Value* domains = r.get("domains")) {
    if (!domains->is_array() || domains->as_array().empty())
      r.fail("domains", "expected a non-empty array of domain objects");
    p.spec.domains.clear();
    for (std::size_t i = 0; i < domains->as_array().size(); ++i) {
      const json::Value& dv = domains->as_array()[i];
      if (!dv.is_object()) r.fail("domains", "expected domain objects");
      FieldReader dr(dv, "scenario_eval.domains[" + std::to_string(i) + "]");
      scenario::DomainSpec dom;
      dom.name = dr.str("name", "dom" + std::to_string(i));
      dom.power_frac = dr.num("power_frac", dom.power_frac);
      const std::string del = dr.str("delivery", scenario::delivery_name(dom.delivery));
      try {
        dom.delivery = scenario::delivery_from_string(del);
      } catch (const std::exception& e) {
        dr.fail("delivery", e.what());
      }
      dom.benchmark = benchmark_from(dr, workload::benchmark_name(dom.benchmark));
      dr.finish();
      p.spec.domains.push_back(std::move(dom));
    }
  }

  p.spec.f_nom_hz = r.num("f_nom", p.spec.f_nom_hz);
  if (!(p.spec.f_nom_hz > 0.0)) r.fail("f_nom", "must be > 0");
  p.spec.duration_s = r.num("duration", p.spec.duration_s);
  if (!(p.spec.duration_s > 0.0)) r.fail("duration", "must be > 0");
  p.spec.dt_s = r.num("dt", p.spec.dt_s);
  if (!(p.spec.dt_s > 0.0)) r.fail("dt", "must be > 0");
  const int seed = r.integer("seed", static_cast<int>(p.spec.seed));
  if (seed < 0) r.fail("seed", "must be >= 0");
  p.spec.seed = static_cast<std::uint64_t>(seed);
  r.finish();
  return p;
}

PdsParams pds_params(const json::Value& body) {
  FieldReader r(body, "pds");
  r.get("op");
  PdsParams p;
  p.sys = system_from(r);
  p.v_nom_v = r.num("vnom", p.v_nom_v);
  p.guard_off_v = r.num("guard_off", p.guard_off_v);
  p.guard_ivr_v = r.num("guard_ivr", p.guard_ivr_v);
  p.n_distributed = dist_from(r);
  r.finish();
  return p;
}

TransientParams transient_params(const json::Value& body) {
  FieldReader r(body, "transient");
  r.get("op");
  TransientParams p;
  if (const std::optional<core::IvrTopology> topology = topology_from(r, "spice")) {
    switch (*topology) {
      case core::IvrTopology::SwitchedCapacitor: p.kind = TransientParams::Kind::Sc; break;
      case core::IvrTopology::Buck: p.kind = TransientParams::Kind::Buck; break;
      case core::IvrTopology::LinearRegulator: p.kind = TransientParams::Kind::Ldo; break;
      case core::IvrTopology::DigitalLdo: p.kind = TransientParams::Kind::Dldo; break;
    }
  } else {
    p.kind = TransientParams::Kind::Spice;
  }

  if (p.kind == TransientParams::Kind::Spice) {
    // Switch-level engine: an inline netlist instead of a design object;
    // sources live in the netlist, so no load trace is accepted.
    const json::Value* netlist = r.get("netlist");
    if (!netlist) throw SchemaError("transient: topology 'spice' requires 'netlist'");
    if (!netlist->is_string() || netlist->as_string().empty())
      r.fail("netlist", "expected a non-empty SPICE netlist string");
    p.netlist = netlist->as_string();
    p.tstop_s = r.num("tstop", 0.0);
    if (!(p.tstop_s > 0.0)) r.fail("tstop", "must be > 0");
    p.dt_s = r.num("dt", 0.0);
    if (!(p.dt_s > 0.0)) r.fail("dt", "must be > 0");
    p.trapezoidal = r.choice("method", "trap", {"trap", "be"}) == 0;
    p.use_ic = r.boolean("uic", false);
    p.record_every = r.integer("record_every", 1);
    if (p.record_every < 1) r.fail("record_every", "must be >= 1");
    if (const json::Value* rec = r.get("record")) {
      if (!rec->is_array()) r.fail("record", "expected an array of node names");
      for (const json::Value& v : rec->as_array()) {
        if (!v.is_string()) r.fail("record", "expected node names (strings)");
        p.record_nodes.push_back(v.as_string());
      }
    }
    p.adaptive = r.boolean("adaptive", false);
    p.dv_max_v = r.num("dv_max", p.dv_max_v);
    p.dt_max_s = r.num("dt_max", p.dt_max_s);
    p.lu_cache_capacity = r.integer("lu_cache", p.lu_cache_capacity);
    if (p.lu_cache_capacity < 0) r.fail("lu_cache", "must be >= 0");
    p.kernel = r.str("kernel", p.kernel);
    try {
      sparse::kernel_from_string(p.kernel);
    } catch (const std::exception& e) {
      r.fail("kernel", e.what());
    }
    p.return_waveform = r.boolean("return_waveform", false);
    r.finish();
    return p;
  }

  const json::Value* design = r.get("design");
  if (!design) throw SchemaError("transient: missing required field 'design'");
  if (!design->is_object()) r.fail("design", "expected an object");
  {
    FieldReader dr(*design, "transient.design");
    switch (p.kind) {
      case TransientParams::Kind::Sc: p.sc = sc_design_from(dr); break;
      case TransientParams::Kind::Buck: p.buck = buck_design_from(dr); break;
      case TransientParams::Kind::Ldo: p.ldo = ldo_design_from(dr); break;
      case TransientParams::Kind::Dldo: p.dldo = dldo_design_from(dr); break;
      case TransientParams::Kind::Spice: break;  // handled above
    }
    dr.finish();
  }

  p.vin_v = r.num("vin", p.vin_v);
  p.vref_v = r.num("vref", p.vref_v);
  p.dt_s = r.num("dt", p.dt_s);
  if (!(p.dt_s > 0.0)) r.fail("dt", "must be > 0");
  p.return_waveform = r.boolean("return_waveform", false);

  const json::Value* iload = r.get("iload");
  const json::Value* load = r.get("load");
  if ((iload != nullptr) == (load != nullptr))
    throw SchemaError("transient: exactly one of 'iload' (inline trace) or 'load' "
                      "(workload spec) is required");
  if (iload) {
    if (!iload->is_array() || iload->as_array().empty())
      r.fail("iload", "expected a non-empty array of currents [A]");
    for (const json::Value& v : iload->as_array()) {
      if (!v.is_number()) r.fail("iload", "expected numbers only");
      p.i_load_a.push_back(v.as_number());
    }
  } else {
    if (!load->is_object()) r.fail("load", "expected an object");
    FieldReader lr(*load, "transient.load");
    p.has_workload = true;
    p.benchmark = benchmark_from(lr, "CFD");
    p.n_sm = lr.integer("n_sm", p.n_sm);
    if (p.n_sm < 1) lr.fail("n_sm", "must be >= 1");
    p.sm_avg_w = lr.num("sm_avg_w", p.sm_avg_w);
    p.duration_s = lr.num("duration", p.duration_s);
    if (!(p.duration_s > 0.0)) lr.fail("duration", "must be > 0");
    const int seed = lr.integer("seed", 1);
    if (seed < 0) lr.fail("seed", "must be >= 0");
    p.seed = static_cast<std::uint64_t>(seed);
    lr.finish();
  }
  r.finish();
  return p;
}

}  // namespace ivory::serve
