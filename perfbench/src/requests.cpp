#include "requests.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

// Op-class mix of one block per workload. Shares are chosen so that no
// reported percentile falls on a boundary between two latency modes:
//   dse_sweep      2:1 pareto:explore; p50 and p90 sit inside the (slower)
//                  pareto mode, whose share starts at 1/3.
//   transient_mix  the 64x64 grid is 4/20 = 20% and the slowest class, so
//                  p90 and p99 sit inside it; p50 sits inside the switched
//                  SC netlists, which span 40%..70% of the sorted requests.
//   serve_mix      24/40 = 60% repeat a recent body (cache hits), so p50
//                  sits inside the hits; pds (7.5%) holds p90 and the
//                  wave1 streams (5%, the slowest class) hold p99.
const std::vector<std::string>& block_classes(Workload w) {
  static const std::vector<std::string> dse = {"pareto", "pareto", "pareto", "pareto",
                                               "explore", "explore"};
  static const std::vector<std::string> tran = [] {
    std::vector<std::string> v;
    for (int i = 0; i < 6; ++i) v.push_back("spice_sc");
    for (int i = 0; i < 2; ++i) v.push_back("spice_pdn");
    for (int i = 0; i < 1; ++i) v.push_back("grid32");
    for (int i = 0; i < 4; ++i) v.push_back("grid64");
    for (const char* c : {"dyn_sc", "dyn_buck", "dyn_ldo", "dyn_dldo"}) v.push_back(c);
    for (int i = 0; i < 3; ++i) v.push_back("scenario");
    return v;
  }();
  static const std::vector<std::string> serve = [] {
    std::vector<std::string> v;
    for (int i = 0; i < 24; ++i) v.push_back("hit");
    for (int i = 0; i < 2; ++i) v.push_back("sc_static");
    for (int i = 0; i < 3; ++i) v.push_back("sc_regulated");
    for (int i = 0; i < 2; ++i) v.push_back("buck_static");
    for (int i = 0; i < 2; ++i) v.push_back("ldo_static");
    for (int i = 0; i < 2; ++i) v.push_back("dldo_static");
    for (int i = 0; i < 3; ++i) v.push_back("pds");
    for (int i = 0; i < 2; ++i) v.push_back("wave1");
    return v;
  }();
  switch (w) {
    case Workload::DseSweep: return dse;
    case Workload::TransientMix: return tran;
    case Workload::ServeMix: return serve;
  }
  throw std::logic_error("block_classes: bad workload");
}

/// Four significant digits: short, exact-repeatable request text.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

const char* const kNodes[] = {"45", "32", "22"};
const char* const kInductors[] = {"smt", "interposer", "magnetic"};
const char* const kBenchmarks[] = {"BACKP", "BFS2", "CFD", "HOTSP", "KMN", "LUD", "MGST"};
const char* const kPresets[] = {"gpu-dvfs-step", "active-idle", "race-to-halt",
                                "server-diurnal"};

/// JSON string body of a netlist: newlines escaped, no other specials used.
std::string json_text(const std::string& netlist) {
  std::string out;
  out.reserve(netlist.size() + netlist.size() / 16);
  for (const char c : netlist) {
    if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

std::string system_fields(Draw& r) {
  return "\"vin\":" + num(r.uniform(2.5, 3.6)) + ",\"vout\":" + num(r.uniform(0.8, 1.2)) +
         ",\"power\":" + num(r.uniform(10.0, 40.0)) + ",\"area\":" +
         num(r.uniform(10.0, 40.0)) + ",\"node\":" + quoted(kNodes[r.pick(3)]) +
         ",\"inductor\":" + quoted(kInductors[r.pick(3)]);
}

/// Fig. 9's 2:1 series-parallel SC stage fed from node `in`: four S-card
/// switches on a two-phase CLOCK, flying and output caps, resistive load.
std::string sc_stage(Draw& r, double vin, double f_sw) {
  const std::string ron = num(r.uniform(0.005, 0.02));
  const std::string clk0 = " 1e8 CLOCK(" + num(f_sw) + " 2 0.48 0)\n";
  const std::string clk1 = " 1e8 CLOCK(" + num(f_sw) + " 2 0.48 1)\n";
  const std::string half = num(vin / 2);
  return "s1 in top " + ron + clk0 + "s2 bot out " + ron + clk0 + "s3 top out " + ron +
         clk1 + "s4 bot 0 " + ron + clk1 + "cfly top bot " + num(r.uniform(50e-9, 200e-9)) +
         " IC=" + half + "\ncout out 0 " + num(r.uniform(50e-9, 200e-9)) + " IC=" + half +
         "\nrl out 0 " + num(r.uniform(2.0, 8.0)) + "\n";
}

/// Switched-circuit transient: `cycles` clock periods at 100 steps each.
std::string spice_request(const std::string& netlist, double f_sw, int cycles, bool uic) {
  return "\"op\":\"transient\",\"topology\":\"spice\",\"netlist\":\"" + json_text(netlist) +
         "\",\"tstop\":" + num(cycles / f_sw) + ",\"dt\":" + num(1.0 / (100.0 * f_sw)) +
         ",\"uic\":" + (uic ? "true" : "false") + ",\"record\":[\"out\"],\"record_every\":10";
}

/// N x N on-chip grid as netlist text, element for element what
/// pdn::build_grid_netlist stamps: mesh segments, per-tile decap and load,
/// a pulsed step load on the central quarter, and a bump every 4 tiles.
std::string grid_request(Draw& r, int n) {
  const std::string seg = num(r.uniform(0.03, 0.08));
  const std::string cap = num(r.uniform(30e-12, 80e-12));
  const std::string load = num(r.uniform(0.005, 0.02));
  const std::string step = num(r.uniform(0.05, 0.15));
  const std::string bump = num(r.uniform(0.01, 0.03));
  const double dt = r.uniform(0.08e-9, 0.12e-9);
  std::string net = "* grid\n";
  net.reserve(static_cast<std::size_t>(n) * n * 120);
  const int lo = n / 4, hi = n - n / 4;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      const std::string s = std::to_string(x) + "_" + std::to_string(y);
      const std::string node = " g" + s;
      if (x + 1 < n)
        net += "rh" + s + node + " g" + std::to_string(x + 1) + "_" + std::to_string(y) + " " +
               seg + "\n";
      if (y + 1 < n)
        net += "rv" + s + node + " g" + std::to_string(x) + "_" + std::to_string(y + 1) + " " +
               seg + "\n";
      net += "cd" + s + node + " 0 " + cap + "\n";
      net += "il" + s + node + " 0 DC " + load + "\n";
      if (x >= lo && x < hi && y >= lo && y < hi)
        net += "is" + s + node + " 0 PULSE(0 " + step + " 2n 0.2n 0.2n 1 2)\n";
    }
  for (int y = 0; y < n; y += 4)
    for (int x = 0; x < n; x += 4) {
      const std::string s = std::to_string(x) + "_" + std::to_string(y);
      net += "vb" + s + " bump" + s + " 0 DC 1\n";
      net += "rb" + s + " bump" + s + " g" + s + " " + bump + "\n";
    }
  const std::string center = "g" + std::to_string(n / 2) + "_" + std::to_string(n / 2);
  return "\"op\":\"transient\",\"topology\":\"spice\",\"netlist\":\"" + json_text(net) +
         "\",\"tstop\":" + num(100 * dt) + ",\"dt\":" + num(dt) + ",\"record\":[\"" + center +
         "\"]";
}

std::string load_spec(Draw& r) {
  return "\"load\":{\"benchmark\":" + quoted(kBenchmarks[r.pick(7)]) +
         ",\"n_sm\":" + std::to_string(2 + r.pick(5)) + ",\"sm_avg_w\":" +
         num(r.uniform(2.0, 6.0)) + ",\"duration\":2e-5,\"seed\":" +
         std::to_string(1 + r.pick(1000000)) + "}";
}

}  // namespace

Workload workload_from_string(const std::string& name) {
  if (name == "dse_sweep") return Workload::DseSweep;
  if (name == "transient_mix") return Workload::TransientMix;
  if (name == "serve_mix") return Workload::ServeMix;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (dse_sweep|transient_mix|serve_mix)");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::DseSweep: return "dse_sweep";
    case Workload::TransientMix: return "transient_mix";
    case Workload::ServeMix: return "serve_mix";
  }
  return "?";
}

WorkloadShape workload_shape(Workload w) {
  switch (w) {
    case Workload::DseSweep: return {1, 6, 2};
    case Workload::TransientMix: return {1, 20, 1};
    case Workload::ServeMix: return {2, 40, 25};
  }
  throw std::logic_error("workload_shape: bad workload");
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::pick(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

int Draw::stratum(double a, double b, int n) {
  const int use = uses_[{a, b}]++;
  Strata& s = strata_[{a, b, use}];
  if (s.next == s.order.size()) {
    s.order.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) s.order[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = s.order.size(); i > 1; --i)  // Fisher-Yates
      std::swap(s.order[i - 1], s.order[static_cast<std::size_t>(rng_.pick(static_cast<int>(i)))]);
    s.next = 0;
  }
  return s.order[s.next++];
}

double Draw::uniform(double lo, double hi) {
  constexpr int kSlices = 8;
  const int k = stratum(lo, hi, kSlices);
  return lo + (hi - lo) * (k + rng_.uniform(0.0, 1.0)) / kSlices;
}

int Draw::pick(int n) { return n <= 16 ? stratum(-1.0, n, n) : rng_.pick(n); }

Generator::Generator(Workload w, std::uint64_t seed, int connection)
    : w_(w),
      draw_(fnv1a(std::string(workload_name(w)) + "/" + std::to_string(seed) + "/" +
                 std::to_string(connection))) {}

std::string Generator::body(const std::string& cls) {
  Draw& r = draw_;
  r.begin_body();
  if (cls == "pareto" || cls == "explore")
    return "\"op\":" + quoted(cls) + "," + system_fields(r);
  if (cls == "spice_sc") {
    const double vin = r.uniform(2.8, 3.6), f = r.uniform(10e6, 40e6);
    const std::string net = "* 2:1 sc\nvin in 0 DC " + num(vin) + "\n" + sc_stage(r, vin, f);
    return spice_request(net, f, 800, true);
  }
  if (cls == "spice_pdn") {
    const double vin = r.uniform(2.8, 3.6), f = r.uniform(10e6, 40e6);
    const std::string net =
        "* 2:1 sc behind an rlc pdn ladder\nvs board 0 DC " + num(vin) + "\nrb board b1 " +
        num(r.uniform(0.2e-3, 1e-3)) + "\nlb b1 pkg " + num(r.uniform(0.5e-9, 2e-9)) +
        "\ncb pkg 0 " + num(r.uniform(5e-6, 20e-6)) + "\nrp pkg p1 " +
        num(r.uniform(0.5e-3, 2e-3)) + "\nlp p1 c4 " + num(r.uniform(20e-12, 100e-12)) +
        "\ncp c4 0 " + num(r.uniform(0.5e-6, 2e-6)) + "\nrc c4 c1 " +
        num(r.uniform(1e-3, 4e-3)) + "\nlc c1 in " + num(r.uniform(5e-12, 20e-12)) +
        "\ncd in 0 " + num(r.uniform(50e-9, 200e-9)) + "\n" + sc_stage(r, vin, f);
    return spice_request(net, f, 800, false);
  }
  if (cls == "grid32") return grid_request(r, 32);
  if (cls == "grid64") return grid_request(r, 64);
  if (cls == "dyn_sc")
    return "\"op\":\"transient\",\"topology\":\"sc\",\"design\":{\"n\":3,\"m\":1,\"cfly\":" +
           num(r.uniform(2e-6, 6e-6)) + ",\"gtot\":" + num(r.uniform(8e3, 20e3)) +
           ",\"fsw\":" + num(r.uniform(60e6, 150e6)) + "},\"vin\":3.3,\"vref\":1," +
           load_spec(r);
  if (cls == "dyn_buck")
    return "\"op\":\"transient\",\"topology\":\"buck\",\"design\":{\"l\":" +
           num(r.uniform(2e-9, 10e-9)) + ",\"fsw\":" + num(r.uniform(80e6, 200e6)) +
           ",\"phases\":4},\"vin\":1.8,\"vref\":1," + load_spec(r);
  if (cls == "dyn_ldo")
    return "\"op\":\"transient\",\"topology\":\"ldo\",\"design\":{\"wpass\":" +
           num(r.uniform(0.03, 0.08)) + ",\"cout\":" + num(r.uniform(0.3e-6, 1e-6)) +
           "},\"vin\":1.2,\"vref\":1," + load_spec(r);
  if (cls == "dyn_dldo")
    return "\"op\":\"transient\",\"topology\":\"dldo\",\"design\":{\"wpass\":" +
           num(r.uniform(0.03, 0.08)) + ",\"fclk\":" + num(r.uniform(300e6, 800e6)) +
           "},\"vin\":1.2,\"vref\":1," + load_spec(r);
  if (cls == "scenario")
    return "\"op\":\"scenario_eval\",\"preset\":" + quoted(kPresets[r.pick(4)]) +
           ",\"power\":" + num(r.uniform(10.0, 30.0)) + ",\"area\":" +
           num(r.uniform(15.0, 30.0)) + ",\"seed\":" + std::to_string(1 + r.pick(1000000));
  if (cls == "sc_static" || cls == "sc_regulated") {
    const int n = 2 + r.pick(3);  // 2:1, 3:1, 4:1 from 3.3 V
    const double vin = r.uniform(2.9, 3.3);
    std::string b = "\"op\":\"sc_static\",\"n\":" + std::to_string(n) +
                    ",\"m\":1,\"cfly\":" + num(r.uniform(1e-6, 8e-6)) + ",\"cout\":" +
                    num(r.uniform(0.1e-6, 1e-6)) + ",\"gtot\":" + num(r.uniform(2e3, 20e3)) +
                    ",\"fsw\":" + num(r.uniform(40e6, 150e6)) + ",\"vin\":" + num(vin) +
                    ",\"iload\":" + num(r.uniform(2.0, 20.0));
    if (cls == "sc_regulated") b += ",\"regulate\":" + num(vin / n * r.uniform(0.85, 0.95));
    return b;
  }
  if (cls == "buck_static")
    return "\"op\":\"buck_static\",\"l\":" + num(r.uniform(1e-9, 20e-9)) + ",\"fsw\":" +
           num(r.uniform(50e6, 300e6)) + ",\"phases\":" + std::to_string(2 << r.pick(3)) +
           ",\"vin\":" + num(r.uniform(1.8, 3.3)) + ",\"vout\":" + num(r.uniform(0.7, 1.2)) +
           ",\"iload\":" + num(r.uniform(1.0, 8.0));
  if (cls == "ldo_static" || cls == "dldo_static")
    return "\"op\":" + quoted(cls) + ",\"wpass\":" + num(r.uniform(0.1, 0.3)) +
           ",\"vin\":" + num(r.uniform(1.15, 1.4)) + ",\"vout\":" + num(r.uniform(0.8, 1.0)) +
           ",\"iload\":" + num(r.uniform(0.5, 3.0));
  if (cls == "pds")
    return "\"op\":\"pds\",\"power\":" + num(r.uniform(10.0, 30.0)) + ",\"area\":" +
           num(r.uniform(15.0, 30.0));
  if (cls == "wave1")
    return "\"op\":\"transient\",\"topology\":\"spice\",\"netlist\":\"* rc\\nv1 in 0 DC " +
           num(r.uniform(0.8, 1.2)) + "\\nr1 in out " + num(r.uniform(500.0, 2000.0)) +
           "\\nc1 out 0 " + num(r.uniform(0.5e-9, 2e-9)) +
           "\\n.end\",\"tstop\":1e-6,\"dt\":1e-9,\"return_waveform\":true";
  throw std::logic_error("Generator: unknown class '" + cls + "'");
}

std::string Generator::fresh_body(const std::string& cls) {
  // dse_sweep and transient_mix bodies are pairwise distinct: redraw on the
  // (rare) collision. serve_mix repeats on purpose and keeps no history
  // beyond its repeat pool, so its memory stays flat however long it runs.
  for (;;) {
    std::string b = body(cls);
    if (w_ == Workload::ServeMix || seen_.insert(fnv1a(b)).second) return b;
  }
}

RequestSpec Generator::next() {
  Rng& rng = draw_.rng();
  if (block_.empty()) {
    block_ = block_classes(w_);
    for (std::size_t i = block_.size(); i > 1; --i)  // Fisher-Yates
      std::swap(block_[i - 1], block_[static_cast<std::size_t>(rng.pick(static_cast<int>(i)))]);
  }
  RequestSpec spec;
  spec.index = index_++;
  spec.cls = block_.back();
  block_.pop_back();
  const std::string id = "{\"id\":" + std::to_string(spec.index) + ",";

  if (spec.cls == "hit" && !recent_.empty()) {
    // Repeat one of the last 64 cold bodies of this connection: recent
    // enough to be resident in the server's result cache.
    const auto& [b, first] =
        recent_[static_cast<std::size_t>(rng.pick(static_cast<int>(recent_.size())))];
    spec.repeat_of = static_cast<std::int64_t>(first);
    spec.line = id + b + "}";
    return spec;
  }
  if (spec.cls == "hit") spec.cls = "sc_static";  // nothing to repeat yet
  if (spec.cls == "wave1") {
    // A pool of eight RC netlists per connection: wave1 bypasses the result
    // cache, so repeats still run the engine, and each distinct body needs
    // only one buffered reference to check its streams against.
    if (wave_pool_.size() < 8) wave_pool_.push_back(body("wave1"));
    const std::string& b = wave_pool_[static_cast<std::size_t>(rng.pick(8)) % wave_pool_.size()];
    spec.stream = true;
    spec.buffered = id + b + "}";
    spec.line = id + b + ",\"stream\":true,\"encoding\":\"wave1\",\"chunk_bytes\":4096}";
    return spec;
  }
  const std::string b = fresh_body(spec.cls);
  spec.line = id + b + "}";
  if (w_ == Workload::ServeMix) {
    if (recent_.size() == 64) recent_.erase(recent_.begin());
    recent_.emplace_back(b, spec.index);
  }
  return spec;
}

std::vector<RequestSpec> generate(Workload w, std::uint64_t seed, int connection,
                                  std::size_t n) {
  Generator g(w, seed, connection);
  std::vector<RequestSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(g.next());
  return out;
}

std::vector<std::string> warmup_requests(Workload w) {
  // Table-1 defaults and round values: never produced by the generators,
  // whose numbers are random to four significant digits.
  const std::string sys = "\"vin\":3.3,\"vout\":1,\"power\":20,\"area\":20";
  switch (w) {
    case Workload::DseSweep:
      return {"{\"id\":\"warmup\",\"op\":\"pareto\"," + sys + "}",
              "{\"id\":\"warmup\",\"op\":\"explore\"," + sys + "}"};
    case Workload::TransientMix: {
      Draw r(0);
      return {"{\"id\":\"warmup\",\"op\":\"transient\",\"topology\":\"spice\",\"netlist\":"
              "\"vin in 0 DC 3.3\\ns1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\\n"
              "s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\\ncfly fly 0 100n IC=1.65\\n"
              "cout out 0 100n IC=1.65\\nrl out 0 3.3\\n.end\",\"tstop\":1e-6,\"dt\":5e-10,"
              "\"uic\":true}",
              "{\"id\":\"warmup\"," + grid_request(r, 8) + "}",
              "{\"id\":\"warmup\",\"op\":\"transient\",\"topology\":\"sc\",\"design\":{},"
              "\"load\":{\"duration\":2e-6}}",
              "{\"id\":\"warmup\",\"op\":\"scenario_eval\",\"preset\":\"active-idle\"}"};
    }
    case Workload::ServeMix:
      return {"{\"id\":\"warmup\",\"op\":\"sc_static\",\"regulate\":1}",
              "{\"id\":\"warmup\",\"op\":\"buck_static\"}",
              "{\"id\":\"warmup\",\"op\":\"ldo_static\",\"wpass\":0.2,\"iload\":1}",
              "{\"id\":\"warmup\",\"op\":\"dldo_static\",\"wpass\":0.2,\"iload\":1}",
              "{\"id\":\"warmup\",\"op\":\"pds\"}",
              "{\"id\":\"warmup\",\"op\":\"transient\",\"topology\":\"spice\",\"netlist\":"
              "\"* rc\\nv1 in 0 DC 1\\nr1 in out 1k\\nc1 out 0 1n\\n.end\",\"tstop\":2e-7,"
              "\"dt\":1e-9,\"return_waveform\":true}"};
  }
  return {};
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
