// AC-analysis tests against closed-form transfer functions.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "spice/spice.hpp"

namespace ivory::spice {
namespace {

TEST(Ac, RcLowPassMagnitudeAndPhase) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const double r = 1000.0, cap = 1e-9;  // f_c = 159 kHz.
  Waveform src = Waveform::dc(0.0);
  src.set_ac_magnitude(1.0);
  c.add_vsource("v1", in, kGround, src);
  c.add_resistor("r1", in, out, r);
  c.add_capacitor("c1", out, kGround, cap);

  const std::vector<double> freqs = log_frequencies(1e3, 1e8, 26);
  const AcResult res = ac_analysis(c, freqs, {out});
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const double w = 2.0 * pi * freqs[k];
    const std::complex<double> expect = 1.0 / std::complex<double>(1.0, w * r * cap);
    EXPECT_NEAR(std::abs(res.at(out)[k] - expect), 0.0, 1e-9) << "f=" << freqs[k];
  }
}

TEST(Ac, CornerFrequencyAtMinus3dB) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const double r = 1591.549, cap = 1e-9;  // f_c = 100 kHz.
  Waveform src = Waveform::dc(0.0);
  src.set_ac_magnitude(1.0);
  c.add_vsource("v1", in, kGround, src);
  c.add_resistor("r1", in, out, r);
  c.add_capacitor("c1", out, kGround, cap);
  const AcResult res = ac_analysis(c, {1e5}, {out});
  EXPECT_NEAR(std::abs(res.at(out)[0]), 1.0 / std::sqrt(2.0), 1e-4);
}

TEST(Ac, SeriesRlcResonancePeaksAtF0) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  const NodeId out = c.node("out");
  const double l = 1e-6, cap = 1e-9, r = 1.0;
  Waveform src = Waveform::dc(0.0);
  src.set_ac_magnitude(1.0);
  c.add_vsource("v1", in, kGround, src);
  c.add_resistor("r1", in, a, r);
  c.add_inductor("l1", a, out, l);
  c.add_capacitor("c1", out, kGround, cap);

  const double f0 = 1.0 / (2.0 * pi * std::sqrt(l * cap));
  const AcResult res = ac_analysis(c, {f0 / 4.0, f0, f0 * 4.0}, {out});
  const double g_lo = std::abs(res.at(out)[0]);
  const double g_res = std::abs(res.at(out)[1]);
  const double g_hi = std::abs(res.at(out)[2]);
  // Cap voltage peaks near resonance with Q = sqrt(L/C)/R ~ 31.6.
  EXPECT_GT(g_res, 10.0 * g_lo);
  EXPECT_GT(g_res, 10.0 * g_hi);
  EXPECT_NEAR(g_res, std::sqrt(l / cap) / r, 0.05 * g_res);
}

TEST(Ac, CurrentSourceDrivesImpedance) {
  // Z(jw) of a parallel RC seen by a 1 A AC current source.
  Circuit c;
  const NodeId n = c.node("n");
  Waveform src = Waveform::dc(0.0);
  src.set_ac_magnitude(1.0);
  c.add_isource("i1", kGround, n, src);
  const double r = 50.0, cap = 1e-9;
  c.add_resistor("r1", n, kGround, r);
  c.add_capacitor("c1", n, kGround, cap);
  const std::vector<double> freqs = log_frequencies(1e4, 1e9, 21);
  const AcResult res = ac_analysis(c, freqs, {n});
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const std::complex<double> jw(0.0, 2.0 * pi * freqs[k]);
    const std::complex<double> z = 1.0 / (1.0 / r + jw * cap);
    EXPECT_NEAR(std::abs(res.at(n)[k] - z), 0.0, 1e-6 * std::abs(z));
  }
}

TEST(Ac, SwitchStateFrozenFromTimeZero) {
  // A switch closed at t = 0 conducts in AC; one open at t = 0 does not.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  Waveform src = Waveform::dc(0.0);
  src.set_ac_magnitude(1.0);
  c.add_vsource("v1", in, kGround, src);
  const PhaseClock always(1e6, 1, 1.0);  // A duty-1 phase: closed all period.
  c.add_switch("s1", in, out, 1.0, 1e12, always.phase(0));
  c.add_resistor("r1", out, kGround, 1000.0);
  const AcResult closed = ac_analysis(c, {1e6}, {out});
  EXPECT_NEAR(std::abs(closed.at(out)[0]), 1000.0 / 1001.0, 1e-6);

  Circuit c2;
  const NodeId in2 = c2.node("in");
  const NodeId out2 = c2.node("out");
  c2.add_vsource("v1", in2, kGround, src);
  c2.add_switch("s1", in2, out2, 1.0, 1e12, always.phase(0, /*inverted=*/true));
  c2.add_resistor("r1", out2, kGround, 1000.0);
  const AcResult open = ac_analysis(c2, {1e6}, {out2});
  EXPECT_LT(std::abs(open.at(out2)[0]), 1e-6);
}

TEST(Ac, EmptyFrequencyListThrows) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("v", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r", a, kGround, 1.0);
  EXPECT_THROW(ac_analysis(c, {}), InvalidParameter);
  EXPECT_THROW(ac_analysis(c, {0.0}), InvalidParameter);
}

TEST(Ac, LogFrequenciesEndpointsAndCount) {
  const std::vector<double> f = log_frequencies(1e3, 1e6, 4);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_NEAR(f.front(), 1e3, 1e-9);
  EXPECT_NEAR(f.back(), 1e6, 1e-3);
  EXPECT_NEAR(f[1], 1e4, 1e-6);
}

}  // namespace
}  // namespace ivory::spice
