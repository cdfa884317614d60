// Transient-analysis tests: analytic RC/RL/RLC responses, integrator
// accuracy, initial conditions, switches, and edge alignment.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "common/units.hpp"
#include "spice/spice.hpp"

namespace ivory::spice {
namespace {

// RC step response: v(t) = V * (1 - exp(-t/RC)).
TEST(Transient, RcChargeMatchesAnalyticSolution) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const double r = 1000.0, cap = 1e-9;
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", in, out, r);
  c.add_capacitor("c1", out, kGround, cap);

  TranSpec spec;
  spec.tstop = 5e-6;
  spec.dt = 1e-9;
  spec.use_ic = true;  // Start discharged.
  const TranResult res = transient(c, spec);
  const std::vector<double>& v = res.at(out);
  for (std::size_t i = 0; i < res.time.size(); i += 100) {
    const double expect = 1.0 - std::exp(-res.time[i] / (r * cap));
    EXPECT_NEAR(v[i], expect, 2e-3) << "t=" << res.time[i];
  }
  EXPECT_NEAR(v.back(), 1.0 - std::exp(-spec.tstop / (r * cap)), 1e-3);
}

// With the DC operating point as the start, the output begins settled.
TEST(Transient, DcStartIsAlreadySettled) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(2.0));
  c.add_resistor("r1", in, out, 1000.0);
  c.add_capacitor("c1", out, kGround, 1e-9);
  c.add_resistor("rload", out, kGround, 1e6);

  TranSpec spec;
  spec.tstop = 1e-6;
  spec.dt = 1e-9;
  const TranResult res = transient(c, spec);
  const std::vector<double>& v = res.at(out);
  const double v_expected = 2.0 * 1e6 / (1e6 + 1e3);
  EXPECT_NEAR(v.front(), v_expected, 1e-6);
  EXPECT_NEAR(peak_to_peak(v), 0.0, 1e-9);
}

// Capacitor IC: discharge through a resistor, v(t) = v0 * exp(-t/RC).
TEST(Transient, RcDischargeFromInitialCondition) {
  Circuit c;
  const NodeId out = c.node("out");
  const double r = 500.0, cap = 2e-9, v0 = 1.5;
  c.add_capacitor_ic("c1", out, kGround, cap, v0);
  c.add_resistor("r1", out, kGround, r);

  TranSpec spec;
  spec.tstop = 4e-6;
  spec.dt = 0.5e-9;
  spec.use_ic = true;
  const TranResult res = transient(c, spec);
  const std::vector<double>& v = res.at(out);
  EXPECT_NEAR(v.front(), v0, 1e-9);
  for (std::size_t i = 0; i < res.time.size(); i += 500) {
    EXPECT_NEAR(v[i], v0 * std::exp(-res.time[i] / (r * cap)), 3e-3);
  }
}

// RL current ramp: i(t) = (V/R) * (1 - exp(-R t / L)).
TEST(Transient, RlCurrentRise) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  const double r = 10.0, l = 1e-6;
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  c.add_inductor("l1", in, mid, l);
  c.add_resistor("r1", mid, kGround, r);

  TranSpec spec;
  spec.tstop = 1e-6;
  spec.dt = 0.2e-9;
  spec.use_ic = true;
  const TranResult res = transient(c, spec);
  // Current is v(mid)/R; compare at the end (several time constants).
  const double tau = l / r;
  const double i_end = (1.0 / r) * (1.0 - std::exp(-res.time.back() / tau));
  EXPECT_NEAR(res.at(mid).back() / r, i_end, 1e-3);
}

// Series RLC: underdamped ringing frequency ~= 1/(2*pi*sqrt(LC)).
TEST(Transient, RlcRingingFrequency) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  const NodeId out = c.node("out");
  const double l = 1e-6, cap = 1e-9, r = 5.0;  // Q ~ 6.3: clearly underdamped.
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", in, a, r);
  c.add_inductor("l1", a, out, l);
  c.add_capacitor("c1", out, kGround, cap);

  TranSpec spec;
  spec.tstop = 2e-6;
  spec.dt = 0.25e-9;
  spec.use_ic = true;
  const TranResult res = transient(c, spec);
  const std::vector<double>& v = res.at(out);

  // Measure the ringing period between the first two positive-going
  // crossings of the final value.
  std::vector<double> crossings;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i - 1] < 1.0 && v[i] >= 1.0) crossings.push_back(res.time[i]);
  ASSERT_GE(crossings.size(), 2u);
  const double period = crossings[1] - crossings[0];
  const double f_expected = 1.0 / (2.0 * pi * std::sqrt(l * cap));
  EXPECT_NEAR(1.0 / period, f_expected, 0.03 * f_expected);
}

// Trapezoidal integration is second order: halving dt cuts the sine-tracking
// error by ~4x. Backward Euler is first order and visibly lossier.
TEST(Transient, TrapezoidalBeatsBackwardEulerOnSine) {
  auto run = [](Integrator method, double dt) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    const double r = 100.0, cap = 1e-9;
    const double f0 = 1e6;
    c.add_vsource("v1", in, kGround, Waveform::sine(0.0, 1.0, f0));
    c.add_resistor("r1", in, out, r);
    c.add_capacitor("c1", out, kGround, cap);
    TranSpec spec;
    spec.tstop = 4e-6;
    spec.dt = dt;
    spec.method = method;
    spec.use_ic = true;
    const TranResult res = transient(c, spec);
    // Compare against the steady-state analytic response in the last period.
    const double w = 2.0 * pi * f0;
    const double mag = 1.0 / std::sqrt(1.0 + w * w * r * r * cap * cap);
    const double ph = -std::atan(w * r * cap);
    double err = 0.0;
    int count = 0;
    const std::vector<double>& v = res.at(out);
    for (std::size_t i = 0; i < res.time.size(); ++i) {
      if (res.time[i] < 3e-6) continue;
      const double expect = mag * std::sin(w * res.time[i] + ph);
      err = std::max(err, std::fabs(v[i] - expect));
      ++count;
    }
    EXPECT_GT(count, 0);
    return err;
  };
  const double err_trap = run(Integrator::Trapezoidal, 2e-9);
  const double err_be = run(Integrator::BackwardEuler, 2e-9);
  EXPECT_LT(err_trap, err_be * 0.5);
  const double err_trap_half = run(Integrator::Trapezoidal, 1e-9);
  EXPECT_LT(err_trap_half, err_trap * 0.35);
}

// A switched capacitor charge pump: switch edges must be honoured exactly,
// and the output must step toward the input in charge packets.
TEST(Transient, SwitchedCapChargeSharing) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId fly = c.node("fly");
  const NodeId out = c.node("out");
  const double cfly = 1e-9, cout = 10e-9;
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  const PhaseClock clk(1e6, 2, 0.45);
  c.add_switch("s1", in, fly, 1.0, 1e9, clk.phase(0));
  c.add_switch("s2", fly, out, 1.0, 1e9, clk.phase(1));
  c.add_capacitor("cfly", fly, kGround, cfly);
  c.add_capacitor("cout", out, kGround, cout);

  TranSpec spec;
  spec.tstop = 100e-6;
  spec.dt = 10e-9;
  spec.use_ic = true;
  // Backward Euler: L-stable, so the stiff charge-sharing transients decay
  // monotonically and the per-cycle staircase is clean.
  spec.method = Integrator::BackwardEuler;
  const TranResult res = transient(c, spec);
  const std::vector<double>& v = res.at(out);
  // After many cycles the output converges to the input (no load).
  EXPECT_NEAR(v.back(), 1.0, 0.01);
  // And it rises monotonically (within numerical noise).
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GE(v[i], v[i - 1] - 1e-6);
}

TEST(Transient, EdgeAlignmentReducesStepsToHitEdges) {
  // A 1 MHz clock with edges at multiples of 0.45/2 us; a 0.3 us step would
  // miss them badly without alignment.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  const PhaseClock clk(1e6, 1, 0.5);
  c.add_switch("s1", in, out, 1.0, 1e9, clk.phase(0));
  c.add_resistor("r1", out, kGround, 1000.0);
  TranSpec spec;
  spec.tstop = 5e-6;
  spec.dt = 0.3e-6;
  const TranResult res = transient(c, spec);
  // Edge times (0.5 us grid) must be present in the time vector.
  bool found = false;
  for (double t : res.time)
    if (std::fabs(t - 0.5e-6) < 1e-12) found = true;
  EXPECT_TRUE(found);
}

TEST(Transient, FactorizationsAreCachedAcrossUniformSteps) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::sine(0.0, 1.0, 1e6));
  c.add_resistor("r1", in, out, 100.0);
  c.add_capacitor("c1", out, kGround, 1e-9);
  TranSpec spec;
  spec.tstop = 10e-6;
  spec.dt = 1e-9;
  const TranResult res = transient(c, spec);
  EXPECT_GT(res.steps_taken, 9000u);
  // First step (BE) + steady trapezoidal = 2 factorizations.
  EXPECT_LE(res.lu_factorizations, 4u);
}

TEST(Transient, VoltageControlledSwitchActsAsComparator) {
  // A hysteretic switch shorts a charging cap to ground when it passes the
  // threshold: the waveform must stay bounded near vth.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(2.0));
  c.add_resistor("r1", in, out, 1000.0);
  c.add_capacitor("c1", out, kGround, 1e-9);
  c.add_vcswitch("s1", out, kGround, out, kGround, 1.0, 0.05, 10.0, 1e9);
  TranSpec spec;
  spec.tstop = 20e-6;
  spec.dt = 1e-9;
  spec.use_ic = true;
  const TranResult res = transient(c, spec);
  const std::vector<double>& v = res.at(out);
  EXPECT_LT(max_value(v), 1.2);
  EXPECT_GT(max_value(v), 0.9);
}



TEST(Transient, AdaptiveSteppingAccurateWithFarFewerSteps) {
  // PDN-style scenario: long quiet stretch, one fast load step. Adaptive
  // stepping must hit comparable accuracy with far fewer steps than a
  // uniformly fine grid.
  auto build = [](Circuit& c, NodeId* out) {
    const NodeId in = c.node("in");
    *out = c.node("out");
    c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
    c.add_resistor("r1", in, *out, 2.0);
    c.add_capacitor("c1", *out, kGround, 100e-9);
    c.add_isource("iload", *out, kGround,
                  Waveform::pwl({{0.0, 0.01}, {40e-6, 0.01}, {40.05e-6, 0.2}}));
  };

  TranSpec fine;
  fine.tstop = 80e-6;
  fine.dt = 10e-9;
  Circuit c1;
  NodeId out1;
  build(c1, &out1);
  const TranResult ref = transient(c1, fine);

  TranSpec ad = fine;
  ad.adaptive = true;
  ad.dv_max_v = 0.5e-3;
  Circuit c2;
  NodeId out2;
  build(c2, &out2);
  const TranResult res = transient(c2, ad);

  EXPECT_LT(res.steps_taken, ref.steps_taken / 5);

  // Compare waveforms at common probe instants.
  auto sample = [](const TranResult& r, NodeId n, double t) {
    const std::vector<double>& v = r.at(n);
    std::size_t lo = 0, hi = r.time.size() - 1;
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      (r.time[mid] <= t ? lo : hi) = mid;
    }
    return v[lo];
  };
  for (double t : {10e-6, 39e-6, 41e-6, 45e-6, 70e-6})
    EXPECT_NEAR(sample(res, out2, t), sample(ref, out1, t), 2e-3) << "t=" << t;
}

TEST(Transient, AdaptiveRespectsSwitchEdges) {
  // Even with a grown step, switching edges must still land exactly and the
  // converter staircase must match the fixed-step result.
  auto build = [](Circuit& c, NodeId* out) {
    const NodeId in = c.node("in");
    const NodeId fly = c.node("fly");
    *out = c.node("out");
    c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
    const PhaseClock clk(1e6, 2, 0.45);
    c.add_switch("s1", in, fly, 1.0, 1e9, clk.phase(0));
    c.add_switch("s2", fly, *out, 1.0, 1e9, clk.phase(1));
    c.add_capacitor("cfly", fly, kGround, 1e-9);
    c.add_capacitor("cout", *out, kGround, 10e-9);
  };
  TranSpec spec;
  spec.tstop = 60e-6;
  spec.dt = 10e-9;
  spec.use_ic = true;
  spec.method = Integrator::BackwardEuler;
  Circuit c1;
  NodeId out1;
  build(c1, &out1);
  const TranResult fixed = transient(c1, spec);
  spec.adaptive = true;
  spec.dv_max_v = 20e-3;
  Circuit c2;
  NodeId out2;
  build(c2, &out2);
  const TranResult ad = transient(c2, spec);
  EXPECT_LT(ad.steps_taken, fixed.steps_taken);
  EXPECT_NEAR(ad.at(out2).back(), fixed.at(out1).back(), 5e-3);
}

TEST(Transient, AdaptiveInvalidSpecThrows) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("v", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r", a, kGround, 1.0);
  TranSpec spec;
  spec.tstop = 1e-6;
  spec.dt = 1e-9;
  spec.adaptive = true;
  spec.dv_max_v = 0.0;
  EXPECT_THROW(transient(c, spec), InvalidParameter);
  spec.dv_max_v = 1e-3;
  spec.dt_max = 1e-10;  // Below dt.
  EXPECT_THROW(transient(c, spec), InvalidParameter);
}

TEST(Transient, GatedSwitchActsAsHystereticRegulator) {
  // A time+voltage gated switch: clocked charging of a cap, enabled only
  // while the output is under the reference — the output must settle at the
  // threshold and stop rising.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(2.0));
  const PhaseClock clk(5e6, 1, 0.5);
  c.add_gated_switch("sg", in, out, 10.0, 1e9, clk.phase(0), out, kGround,
                     /*vth=*/1.0, /*vhyst=*/0.01);
  c.add_capacitor("c1", out, kGround, 10e-9);
  c.add_resistor("rl", out, kGround, 10e3);
  TranSpec spec;
  spec.tstop = 30e-6;
  spec.dt = 5e-9;
  spec.use_ic = true;
  spec.method = Integrator::BackwardEuler;
  spec.record_nodes = {out};
  const TranResult res = transient(c, spec);
  const std::vector<double>& v = res.at(out);
  std::vector<double> tail(v.end() - 1000, v.end());
  EXPECT_NEAR(mean(tail), 1.0, 0.03);
  EXPECT_LT(max_value(v), 1.1);  // Never charges far past the gate.
}

TEST(Transient, GatedSwitchNeedsBothConditions) {
  // With the voltage gate permanently satisfied but the clock never active,
  // the switch must stay open.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(2.0));
  // An inverted duty-1 phase: open all period.
  c.add_gated_switch("sg", in, out, 10.0, 1e9, PhaseClock(1e6, 1, 1.0).phase(0, true), out,
                     kGround, 1.0, 0.01);
  c.add_capacitor("c1", out, kGround, 1e-9);
  c.add_resistor("rl", out, kGround, 1e4);
  TranSpec spec;
  spec.tstop = 5e-6;
  spec.dt = 5e-9;
  spec.use_ic = true;
  const TranResult res = transient(c, spec);
  EXPECT_LT(max_value(res.at(out)), 0.05);
}

TEST(Transient, InvalidSpecThrows) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("v", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r", a, kGround, 1.0);
  TranSpec spec;
  spec.tstop = 1e-6;
  spec.dt = 0.0;
  EXPECT_THROW(transient(c, spec), InvalidParameter);
  spec.dt = 2e-6;
  EXPECT_THROW(transient(c, spec), InvalidParameter);
}

TEST(Transient, RecordEveryDecimatesOutput) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("v", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r", a, kGround, 1.0);
  TranSpec spec;
  spec.tstop = 1e-6;
  spec.dt = 1e-9;
  spec.record_every = 10;
  const TranResult res = transient(c, spec);
  EXPECT_LT(res.time.size(), 150u);
  EXPECT_GT(res.time.size(), 50u);
}

TEST(Transient, UnrecordedNodeThrows) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("v", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r", a, b, 1.0);
  c.add_resistor("r2", b, kGround, 1.0);
  TranSpec spec;
  spec.tstop = 1e-6;
  spec.dt = 1e-8;
  spec.record_nodes = {a};
  const TranResult res = transient(c, spec);
  EXPECT_NO_THROW(res.at(a));
  EXPECT_THROW(res.at(b), InvalidParameter);
}

}  // namespace
}  // namespace ivory::spice
