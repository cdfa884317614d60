// Transient hot-path tests: the keyed LU-factorization cache must bound
// factorization work by the number of distinct (step, integrator,
// switch-state) configurations — not by step count — while producing output
// that is byte-identical at every cache capacity, including disabled. The
// clock-frame time base that makes configurations recur is gated against
// the accumulated-time engine it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/buck_model.hpp"
#include "pdn/pdn.hpp"
#include "spice/parser.hpp"
#include "spice/spice.hpp"

namespace ivory::spice {
namespace {

// A 2:1 two-phase switched-capacitor converter: the canonical steady-state
// switched workload. Two non-overlapping phases plus dead time give a small,
// fixed set of switch configurations that recur every cycle.
Circuit two_phase_sc() {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId fly = c.node("fly");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(3.3));
  const PhaseClock clk(20e6, 2, 0.48);
  c.add_switch("s1", in, fly, 0.01, 1e8, clk.phase(0));
  c.add_switch("s2", fly, out, 0.01, 1e8, clk.phase(1));
  c.add_capacitor_ic("cfly", fly, kGround, 100e-9, 1.65);
  c.add_capacitor_ic("cout", out, kGround, 100e-9, 1.65);
  c.add_resistor("rl", out, kGround, 3.3);
  return c;
}

TranSpec sc_spec(int lu_cache_capacity, bool adaptive = false) {
  TranSpec spec;
  spec.tstop = 5e-6;  // 100 switching cycles.
  spec.dt = 1.0 / (400.0 * 20e6);
  spec.use_ic = true;
  spec.method = Integrator::BackwardEuler;
  spec.adaptive = adaptive;
  spec.lu_cache_capacity = lu_cache_capacity;
  return spec;
}

bool byte_identical(const TranResult& a, const TranResult& b) {
  if (a.time.size() != b.time.size() || a.voltages.size() != b.voltages.size()) return false;
  if (std::memcmp(a.time.data(), b.time.data(), a.time.size() * sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.voltages.size(); ++i) {
    if (a.voltages[i].size() != b.voltages[i].size() ||
        std::memcmp(a.voltages[i].data(), b.voltages[i].data(),
                    a.voltages[i].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

TEST(HotPath, FactorizationsBoundedByDistinctConfigsNotSteps) {
  // With a roomy cache, steady state factors once per distinct configuration
  // (phase states x {regular step, edge-shortened steps, first-step BE}).
  // Step sizes come from the clock's own period, so every period repeats the
  // first one's configurations: 200 cycles factor exactly as often as 100.
  const Circuit c = two_phase_sc();
  TranSpec spec = sc_spec(64);
  const TranResult res = transient(c, spec);
  EXPECT_GE(res.steps_taken, 40000u);
  EXPECT_LE(res.lu_factorizations, 8u);

  spec.tstop *= 2.0;
  const TranResult longer = transient(c, spec);
  EXPECT_EQ(longer.steps_taken, 2 * res.steps_taken);
  EXPECT_EQ(longer.lu_factorizations, res.lu_factorizations)
      << "factorization count grew with simulated time: the cache key set is "
         "not recurring";
}

TEST(HotPath, FixedStepCountersAreConsistent) {
  const Circuit c = two_phase_sc();
  const TranResult res = transient(c, sc_spec(8));
  // Fixed-step: every accepted step either hit the cache or factored.
  EXPECT_EQ(res.lu_cache_hits + res.lu_factorizations, res.steps_taken);
  EXPECT_LE(res.max_resident_factorizations, 8u);
  EXPECT_GT(res.lu_cache_hits, res.lu_factorizations);

  const TranResult uncached = transient(c, sc_spec(0));
  EXPECT_EQ(uncached.lu_cache_hits, 0u);
  EXPECT_EQ(uncached.lu_cache_evictions, 0u);
  EXPECT_EQ(uncached.lu_factorizations, uncached.steps_taken);
  EXPECT_EQ(uncached.max_resident_factorizations, 1u);
}

TEST(HotPath, ByteIdenticalAcrossCacheCapacities) {
  const Circuit c = two_phase_sc();
  for (const bool adaptive : {false, true}) {
    const TranResult reference = transient(c, sc_spec(1, adaptive));
    for (const int capacity : {0, 2, 8, 16, 64}) {
      const TranResult got = transient(c, sc_spec(capacity, adaptive));
      EXPECT_TRUE(byte_identical(reference, got))
          << "capacity " << capacity << (adaptive ? " adaptive" : " fixed-step")
          << " diverged from the single-slot baseline";
    }
  }
}

TEST(HotPath, ParsedSwitchNetlistMatchesProgrammaticCircuit) {
  // The S-card must build the same switched circuit the C++ API builds: same
  // steps, same factorization count, byte-identical waveform.
  const Circuit api = two_phase_sc();
  // Values are written so the parser's arithmetic reproduces the exact API
  // doubles ("1e-7" parses to the same bits as the 100e-9 literal; a "100n"
  // suffix would compute 100 * 1e-9, one ULP away).
  const Circuit parsed = parse_netlist(
      "* two-phase 2:1 SC converter\n"
      "vin in 0 DC 3.3\n"
      "s1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\n"
      "s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\n"
      "cfly fly 0 1e-7 IC=1.65\n"
      "cout out 0 1e-7 IC=1.65\n"
      "rl out 0 3.3\n"
      ".end\n");
  TranSpec spec = sc_spec(8);
  spec.record_nodes = {api.find_node("out")};
  TranSpec pspec = spec;
  pspec.record_nodes = {parsed.find_node("out")};
  const TranResult a = transient(api, spec);
  const TranResult b = transient(parsed, pspec);
  EXPECT_EQ(a.steps_taken, b.steps_taken);
  EXPECT_EQ(a.lu_factorizations, b.lu_factorizations);
  ASSERT_EQ(a.time.size(), b.time.size());
  EXPECT_EQ(0, std::memcmp(a.voltages[0].data(), b.voltages[0].data(),
                           a.voltages[0].size() * sizeof(double)));
}

TEST(HotPath, InvalidCapacityThrows) {
  const Circuit c = two_phase_sc();
  EXPECT_THROW(transient(c, sc_spec(-1)), InvalidParameter);
  EXPECT_THROW(transient(c, sc_spec(kMaxLuCacheCapacity + 1)), InvalidParameter);
}

TEST(HotPath, ClockTooFastForDtThrows) {
  // Every edge of a 10 PHz clock (period 0.1 fs) lies within the landing
  // floor (1e-6 dt = 1 fs at dt = 1 ns) of the one before: no step can
  // resolve it, and the run must say so instead of spinning on the landings.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(1.0));
  c.add_switch("s1", in, out, 1.0, 1e9, PhaseClock(1e16, 2, 0.5).phase(0));
  c.add_resistor("rl", out, kGround, 1e3);
  TranSpec spec;
  spec.tstop = 1e-7;
  spec.dt = 1e-9;
  EXPECT_THROW(transient(c, spec), InvalidParameter);
}

// ---------------------------------------------------------------------------
// The clock-frame time base against the accumulated one it replaced. The
// reference statistics of `out` (final, mean, min, max over every step) were
// computed by the engine that summed t += h and timed each edge from that
// sum; the frame time base must reproduce them within kTimeBaseTolV.
// ---------------------------------------------------------------------------

constexpr double kTimeBaseTolV = 1e-9;

struct OutStats {
  double final_v, mean_v, min_v, max_v;
};

OutStats out_stats(const TranResult& r) {
  const std::vector<double>& v = r.voltages.at(0);
  double sum = 0.0;
  for (const double x : v) sum += x;
  return {v.back(), sum / static_cast<double>(v.size()), *std::min_element(v.begin(), v.end()),
          *std::max_element(v.begin(), v.end())};
}

void expect_matches(const OutStats& got, const OutStats& ref, const std::string& what) {
  EXPECT_NEAR(got.final_v, ref.final_v, kTimeBaseTolV) << what << ": final_v";
  EXPECT_NEAR(got.mean_v, ref.mean_v, kTimeBaseTolV) << what << ": mean_v";
  EXPECT_NEAR(got.min_v, ref.min_v, kTimeBaseTolV) << what << ": min_v";
  EXPECT_NEAR(got.max_v, ref.max_v, kTimeBaseTolV) << what << ": max_v";
}

TranResult run_recording_out(const Circuit& c, TranSpec spec) {
  spec.record_nodes = {c.find_node("out")};
  return transient(c, spec);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Fig. 9's 2:1 stage: four switches on a two-phase clock at duty 0.48 (dead
// time between the phases), flying and output caps starting at vin/2.
std::string sc_stage(double f_sw) {
  const std::string clk0 = " 1e8 CLOCK(" + num(f_sw) + " 2 0.48 0)\n";
  const std::string clk1 = " 1e8 CLOCK(" + num(f_sw) + " 2 0.48 1)\n";
  return "s1 in top 0.01" + clk0 + "s2 bot out 0.01" + clk0 + "s3 top out 0.01" + clk1 +
         "s4 bot 0 0.01" + clk1 +
         "cfly top bot 1e-7 IC=1.65\ncout out 0 1e-7 IC=1.65\nrl out 0 4\n";
}

// The same stage behind a board/package/C4 RLC ladder, started from its DC
// operating point.
const char* const kPdnLadder =
    "vs board 0 DC 3.3\nrb board b1 5e-4\nlb b1 pkg 1e-9\ncb pkg 0 1e-5\nrp pkg p1 1e-3\n"
    "lp p1 c4 5e-11\ncp c4 0 1e-6\nrc c4 c1 2e-3\nlc c1 in 1e-11\ncd in 0 1e-7\n";

TEST(TimeBase, SwitchedStagesMatchAccumulatedTime) {
  // 200 cycles at dt = T/100, trapezoidal. At 20 MHz every edge lies on the
  // step grid in exact arithmetic, so rounding alone decides whether a step
  // ends a hair short of an edge: that edge must still count as reached.
  const double rates[7] = {10e6, 13.7e6, 20e6, 24.9e6, 31.3e6, 36.6e6, 40e6};
  const OutStats ref_sc[7] = {
      {1.5390511313733901, 1.5894422573355294, 1.5390262573112872, 1.6499999999999999},
      {1.5671533994530713, 1.603892612945385, 1.5671347671647471, 1.6499999999999999},
      {1.5915093553955986, 1.616332677765596, 1.5914955809978375, 1.6499999999999999},
      {1.6020552049936567, 1.6216926791245436, 1.6020433572127817, 1.6499999999999999},
      {1.6109137040947599, 1.6261816194818106, 1.6109033932906565, 1.6499999999999999},
      {1.6159274959902139, 1.6287165138887822, 1.6159180691150608, 1.6499999999999999},
      {1.6184504581826966, 1.6299904273921815, 1.6184415554930023, 1.6499999999999999}};
  const OutStats ref_pdn[7] = {
      {1.5363871939815836, 1.5835957950447206, 1.316710040890607e-07, 1.636887791559857},
      {1.5677287859197295, 1.5997752220249599, 1.3175966379059451e-07, 1.6372090840714117},
      {1.5938329827735893, 1.6129944184790743, 1.3183524403044491e-07, 1.6384415596411297},
      {1.6005349022522644, 1.6153197350620849, 1.3186762855630146e-07, 1.6375607558235077},
      {1.6092510180367245, 1.6202635675457415, 1.318946657891972e-07, 1.6384732162346634},
      {1.6150840447054973, 1.6234861548697026, 1.3190989777491748e-07, 1.6383037073999631},
      {1.6182037523135389, 1.6249796242903989, 1.3191754384794837e-07, 1.6382530657415104}};
  for (int i = 0; i < 7; ++i) {
    const double f = rates[i];
    TranSpec spec;
    spec.dt = 1.0 / (100.0 * f);
    spec.tstop = 200.0 / f;
    spec.use_ic = true;
    const TranResult sc = run_recording_out(parse_netlist("vin in 0 DC 3.3\n" + sc_stage(f)), spec);
    EXPECT_EQ(sc.steps_taken, 20000u) << f;
    expect_matches(out_stats(sc), ref_sc[i], "2:1 stage at " + num(f) + " Hz");
    spec.use_ic = false;
    const TranResult pdn =
        run_recording_out(parse_netlist(std::string(kPdnLadder) + sc_stage(f)), spec);
    expect_matches(out_stats(pdn), ref_pdn[i], "PDN-ladder stage at " + num(f) + " Hz");
  }
}

TEST(TimeBase, ServeFixtureGridMatchesAccumulatedTime) {
  // The serve tests' netlist: 40 cycles at dt = T/400, backward Euler.
  const Circuit c = parse_netlist(
      "vin in 0 DC 3.3\ns1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\n"
      "s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\ncfly fly 0 100n IC=1.65\n"
      "cout out 0 100n IC=1.65\nrl out 0 3.3\n.end\n");
  TranSpec spec;
  spec.dt = 1.25e-10;
  spec.tstop = 2e-6;
  spec.use_ic = true;
  spec.method = Integrator::BackwardEuler;
  expect_matches(out_stats(run_recording_out(c, spec)),
                 {2.858017773932342, 2.7922835807678457, 1.5296394578216852, 2.9580323601072149},
                 "T/400 fixture");
}

TEST(TimeBase, AdaptiveRunMatchesAccumulatedTime) {
  // Grown steps are rejected and retried here; a retry must see the frame
  // and the switch states of the rejected trial's start.
  const double f = 13.7e6;
  TranSpec spec;
  spec.dt = 1.0 / (100.0 * f);
  spec.tstop = 200.0 / f;
  spec.use_ic = true;
  spec.adaptive = true;
  spec.dv_max_v = 20e-3;
  const TranResult r = run_recording_out(parse_netlist("vin in 0 DC 3.3\n" + sc_stage(f)), spec);
  EXPECT_GT(r.lu_cache_hits + r.lu_factorizations, r.steps_taken) << "no trial was rejected";
  expect_matches(out_stats(r),
                 {1.5671533072033403, 1.603567264836941, 1.5671346757573126, 1.6499999999999999},
                 "adaptive 2:1 stage");
}

TEST(TimeBase, GatedRunMatchesAccumulatedTime) {
  // A clocked switch gated by an enable-below comparator on its own output.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(2.0));
  c.add_gated_switch("sg", in, out, 10.0, 1e9, PhaseClock(5e6, 1, 0.5).phase(0), out, kGround,
                     1.0, 0.01);
  c.add_capacitor("c1", out, kGround, 10e-9);
  c.add_resistor("rl", out, kGround, 10e3);
  TranSpec spec;
  spec.tstop = 30e-6;
  spec.dt = 5e-9;
  spec.use_ic = true;
  expect_matches(out_stats(run_recording_out(c, spec)),
                 {1.0359202418735425, 1.0168772630632239, 0.0, 1.0428005561969984},
                 "gated switch");
}

// ---------------------------------------------------------------------------
// The switched waveforms' bits, pinned. The capacity test above compares
// runs with each other and TimeBase.* allows 1e-9 V, so a solve that moved
// every run's bits the same way would pass both. These digests (FNV-1a over
// the raw bytes of `time` and of every recorded node) were taken with the
// run-time-n loop solve, before the fixed-size one took over n <= 16.
// ---------------------------------------------------------------------------

std::uint64_t waveform_digest(const TranResult& r) {
  auto bytes = [](const std::vector<double>& v) {
    return std::string_view(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
  };
  std::uint64_t h = fnv1a64(bytes(r.time));
  for (const std::vector<double>& v : r.voltages) h = fnv1a64(bytes(v), h);
  return h;
}

// Fig. 8's power stage, folded to the single-phase equivalent (the stage
// bench_transient_hotpath's buck scenarios run): complementary high/low
// switches into L + DCR + output cap, DC load. 6 unknowns.
Circuit buck_stage() {
  core::BuckStage stage;
  stage.vin_v = 1.8;
  stage.f_sw_hz = 100e6;
  stage.duty = 0.55;
  stage.r_high_ohm = stage.r_low_ohm = 5e-3;
  stage.l_h = 4e-9;
  stage.r_dcr_ohm = 1e-3;
  stage.c_out_f = 150e-9;
  stage.vout_ic_v = 1.0;
  stage.i_load_a = 1.0;
  Circuit c;
  core::build_buck_netlist(c, stage);
  return c;
}

// bench_transient_hotpath's sc2_pdn: a two-switch 2:1 stage fed from the
// GPUVolt board/package/C4/grid ladder. 20 unknowns, past the fixed-size
// bound, so it pins the loop solve.
Circuit sc2_pdn() {
  Circuit c;
  const pdn::PdnNodes pn = pdn::build_pdn_netlist(c, pdn::PdnParams::gpuvolt_default(), 3.3);
  const NodeId fly = c.node("fly");
  const NodeId out = c.node("out");
  const PhaseClock clk(20e6, 2, 0.48);
  c.add_switch("s1", pn.die, fly, 0.01, 1e8, clk.phase(0));
  c.add_switch("s2", fly, out, 0.01, 1e8, clk.phase(1));
  c.add_capacitor_ic("cfly", fly, kGround, 100e-9, 1.65);
  c.add_capacitor_ic("cout", out, kGround, 100e-9, 1.65);
  c.add_resistor("rl", out, kGround, 3.3);
  return c;
}

TEST(HotPath, SwitchedWaveformBitsPinned) {
  struct Case {
    std::string what;
    Circuit circuit;
    int unknowns;
    double f_sw, steps_per_period, periods;
    bool use_ic;
    std::uint64_t fixed, adaptive;  ///< Digests of the fixed-step and adaptive runs.
  };
  const Case cases[] = {
      {"Fig. 9 2:1 stage", parse_netlist("vin in 0 DC 3.3\n" + sc_stage(20e6)), 5, 20e6, 100, 60,
       true, 0xa44f3904d3d6cf85ull, 0x3825a8e38330fd82ull},
      {"2:1 stage behind the RLC ladder", parse_netlist(std::string(kPdnLadder) + sc_stage(20e6)),
       14, 20e6, 100, 60, false, 0x7bfe2c19f5981cd7ull, 0xd9d4c6621772b4d9ull},
      {"Fig. 8 buck stage", buck_stage(), 6, 100e6, 800, 12, true, 0x75734995084b9429ull,
       0xb78d33be3743e919ull},
      {"sc2_pdn", sc2_pdn(), 20, 20e6, 100, 60, true, 0x67d3e5470d71c073ull,
       0x7ff1df5395131c45ull},
  };
  for (const Case& k : cases) {
    ASSERT_EQ(k.circuit.mna_size(), k.unknowns) << k.what;
    for (const bool adaptive : {false, true})
      for (const int capacity : {0, 16}) {
        TranSpec spec;
        spec.dt = 1.0 / (k.steps_per_period * k.f_sw);
        spec.tstop = k.periods / k.f_sw;
        spec.use_ic = k.use_ic;
        spec.adaptive = adaptive;
        spec.dv_max_v = 20e-3;  // loose enough that the adaptive steps grow
        spec.lu_cache_capacity = capacity;
        const std::uint64_t got = waveform_digest(transient(k.circuit, spec));
        EXPECT_EQ(got, adaptive ? k.adaptive : k.fixed)
            << k.what << (adaptive ? " adaptive" : " fixed-step") << " at lu_cache " << capacity
            << ": digest 0x" << std::hex << got;
      }
  }
}

// ---------------------------------------------------------------------------
// step_bound, which serve checks against its per-request budget before a
// run: never below the steps a run takes, and within 2% of them on the
// finely stepped clocked fixtures serve's own tests send.
// ---------------------------------------------------------------------------

TEST(StepBound, CoversEveryRunAndIsTightOnClockedFixtures) {
  struct Case {
    std::string what;
    Circuit circuit;
    TranSpec spec;
    bool tight;  ///< clocked at T/400: the bound is within 2%
  };
  std::vector<Case> cases;
  for (const bool adaptive : {false, true})
    cases.push_back({adaptive ? "two-phase SC adaptive" : "two-phase SC", two_phase_sc(),
                     sc_spec(16, adaptive), !adaptive});
  for (const double f : {10e6, 13.7e6, 24.9e6, 40e6}) {
    TranSpec spec;
    spec.dt = 1.0 / (100.0 * f);
    spec.tstop = 200.0 / f;
    spec.use_ic = true;
    cases.push_back({"2:1 stage at " + num(f), parse_netlist("vin in 0 DC 3.3\n" + sc_stage(f)),
                     spec, false});
    spec.use_ic = false;
    spec.tstop = 37.3 / f;  // ends mid-period
    cases.push_back({"PDN-ladder stage at " + num(f),
                     parse_netlist(std::string(kPdnLadder) + sc_stage(f)), spec, false});
    spec.adaptive = true;
    spec.dv_max_v = 20e-3;
    cases.push_back({"adaptive stage at " + num(f),
                     parse_netlist("vin in 0 DC 3.3\n" + sc_stage(f)), spec, false});
  }
  // Serve's fixtures: the fleet/crash-recovery netlist and the stream one.
  TranSpec serve_spec;
  serve_spec.dt = 1.25e-10;
  serve_spec.tstop = 4e-6;
  serve_spec.use_ic = true;
  serve_spec.method = Integrator::BackwardEuler;
  const std::string stage =
      "s1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\ns2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\n"
      "cfly fly 0 100n IC=1.65\ncout out 0 100n IC=1.65\nrl out 0 3.3\n.end\n";
  cases.push_back({"stream fixture", parse_netlist("vin in 0 DC 3.3\n" + stage), serve_spec, true});
  cases.push_back({"fleet fixture",
                   parse_netlist("vs src 0 DC 3.3\nrs src a 0.01\nls a in 1n\ncin in 0 1u\n" +
                                 stage),
                   serve_spec, true});
  // Two clock periods, and no clock at all with a fractional tstop/dt.
  cases.push_back({"two clocks",
                   parse_netlist("vin in 0 DC 3.3\n" + sc_stage(20e6) +
                                 "s5 out x 0.01 1e8 CLOCK(13.7meg 1 0.3)\nrx x 0 10\n"),
                   sc_spec(16), false});
  // A clocked switch gated by a comparator on its own output.
  Circuit gated;
  const NodeId in = gated.node("in");
  const NodeId out = gated.node("out");
  gated.add_vsource("v1", in, kGround, Waveform::dc(2.0));
  gated.add_gated_switch("sg", in, out, 10.0, 1e9, PhaseClock(5e6, 1, 0.5).phase(0), out,
                         kGround, 1.0, 0.01);
  gated.add_capacitor("c1", out, kGround, 10e-9);
  gated.add_resistor("rl", out, kGround, 10e3);
  TranSpec gated_spec;
  gated_spec.tstop = 30e-6;
  gated_spec.dt = 5e-9;
  gated_spec.use_ic = true;
  cases.push_back({"gated switch", gated, gated_spec, false});
  TranSpec rc_spec;
  rc_spec.dt = 1e-9;
  rc_spec.tstop = 1.2345e-6;
  cases.push_back({"clock-less ladder", parse_netlist(std::string(kPdnLadder) + "rl in 0 4\n"),
                   rc_spec, false});

  for (const Case& k : cases) {
    const TranResult r = transient(k.circuit, k.spec);
    const StepBound b = step_bound(k.circuit, k.spec.tstop, k.spec.dt);
    const double steps = static_cast<double>(r.steps_taken);
    EXPECT_GE(b.steps, steps) << k.what;
    if (k.tight) {
      EXPECT_LE(b.steps, 1.02 * steps) << k.what;
    }
    EXPECT_EQ(b.busiest < 0, k.circuit.switches().empty()) << k.what;
  }
}

}  // namespace
}  // namespace ivory::spice
