// Unit tests for waveforms, the netlist parser, and DC operating point.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "spice/spice.hpp"

namespace ivory::spice {
namespace {

// --- Waveforms -------------------------------------------------------------

TEST(Waveform, DcIsConstant) {
  const Waveform w = Waveform::dc(3.3);
  EXPECT_NEAR(w(0.0), 3.3, 1e-15);
  EXPECT_NEAR(w(1e9), 3.3, 1e-15);
}

TEST(Waveform, PulseShape) {
  // 0->1 pulse: 1 ns rise, 3 ns width, 1 ns fall, 10 ns period, no delay.
  const Waveform w = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 3e-9, 10e-9);
  EXPECT_NEAR(w(0.0), 0.0, 1e-12);
  EXPECT_NEAR(w(0.5e-9), 0.5, 1e-12);   // Mid-rise.
  EXPECT_NEAR(w(2e-9), 1.0, 1e-12);     // Flat top.
  EXPECT_NEAR(w(4.5e-9), 0.5, 1e-12);   // Mid-fall.
  EXPECT_NEAR(w(7e-9), 0.0, 1e-12);     // Off.
  EXPECT_NEAR(w(12e-9), 1.0, 1e-12);    // Periodic repeat.
}

TEST(Waveform, PulseDelayHoldsInitialValue) {
  const Waveform w = Waveform::pulse(1.0, 2.0, 5e-9, 0.0, 0.0, 2e-9, 10e-9);
  EXPECT_NEAR(w(1e-9), 1.0, 1e-12);
  EXPECT_NEAR(w(5.5e-9), 2.0, 1e-12);
}

TEST(Waveform, SineOffsetAmplitude) {
  const Waveform w = Waveform::sine(1.0, 0.5, 1e6);
  EXPECT_NEAR(w(0.0), 1.0, 1e-12);
  EXPECT_NEAR(w(0.25e-6), 1.5, 1e-9);  // Quarter period: peak.
}

TEST(Waveform, PwlClampsAndInterpolates) {
  const Waveform w = Waveform::pwl({{0.0, 0.0}, {1e-6, 2.0}});
  EXPECT_NEAR(w(0.5e-6), 1.0, 1e-12);
  EXPECT_NEAR(w(2e-6), 2.0, 1e-12);
}

TEST(Waveform, InvalidPulseThrows) {
  EXPECT_THROW(Waveform::pulse(0, 1, 0, 5e-9, 5e-9, 5e-9, 10e-9), InvalidParameter);
}

// --- Value parsing ----------------------------------------------------------

TEST(Parser, SpiceValueSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("4.7k"), 4700.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("100meg"), 1e8);
  EXPECT_DOUBLE_EQ(parse_spice_value("1u"), 1e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2.2n"), 2.2e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("10p"), 1e-11);
  EXPECT_DOUBLE_EQ(parse_spice_value("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_spice_value("2G"), 2e9);
}

TEST(Parser, BadValueThrows) {
  EXPECT_THROW(parse_spice_value("abc"), InvalidParameter);
  EXPECT_THROW(parse_spice_value("1x"), InvalidParameter);
}

TEST(Parser, ParsesDividerNetlist) {
  const Circuit c = parse_netlist(R"(
* simple divider
V1 in 0 DC 10
R1 in out 1k
R2 out 0 1k
.end
)");
  EXPECT_EQ(c.resistors().size(), 2u);
  EXPECT_EQ(c.vsources().size(), 1u);
  const DcResult op = dc_operating_point(c);
  EXPECT_NEAR(op.voltage(c.find_node("out")), 5.0, 1e-9);
}

TEST(Parser, ParsesIcClause) {
  const Circuit c = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n IC=0.5\n");
  ASSERT_EQ(c.capacitors().size(), 1u);
  EXPECT_TRUE(c.capacitors()[0].use_ic);
  EXPECT_NEAR(c.capacitors()[0].v0, 0.5, 1e-15);
}

TEST(Parser, UnknownElementThrows) {
  EXPECT_THROW(parse_netlist("Q1 a b c 1k\n"), StructuralError);
}

TEST(Parser, ShortLineThrows) {
  EXPECT_THROW(parse_netlist("R1 a b\n"), StructuralError);
}

// --- Circuit construction ---------------------------------------------------

TEST(Circuit, NodeNamesAreStable) {
  Circuit c;
  const NodeId a = c.node("vin");
  EXPECT_EQ(c.node("vin"), a);
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node_name(a), "vin");
}

TEST(Circuit, SelfLoopElementThrows) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.add_resistor("r", a, a, 1.0), InvalidParameter);
}

TEST(Circuit, NegativeValuesThrow) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.add_resistor("r", a, kGround, -1.0), InvalidParameter);
  EXPECT_THROW(c.add_capacitor("c", a, kGround, 0.0), InvalidParameter);
  EXPECT_THROW(c.add_inductor("l", a, kGround, -1e-9), InvalidParameter);
}

// --- DC operating point ------------------------------------------------------

TEST(DcOp, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  // 1 mA pulled from ground into n through the source (pos=gnd convention):
  // I flows gnd -> source -> n, raising v(n) = I * R.
  c.add_isource("i1", kGround, n, Waveform::dc(1e-3));
  c.add_resistor("r1", n, kGround, 2000.0);
  const DcResult op = dc_operating_point(c);
  EXPECT_NEAR(op.voltage(n), 2.0, 1e-9);
}

TEST(DcOp, InductorActsAsShort) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(5.0));
  c.add_inductor("l1", in, out, 1e-6);
  c.add_resistor("r1", out, kGround, 100.0);
  const DcResult op = dc_operating_point(c);
  EXPECT_NEAR(op.voltage(out), 5.0, 1e-9);
  ASSERT_EQ(op.inductor_i.size(), 1u);
  EXPECT_NEAR(op.inductor_i[0], 0.05, 1e-9);
}

TEST(DcOp, CapacitorActsAsOpen) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(3.0));
  c.add_resistor("r1", in, out, 1000.0);
  c.add_capacitor("c1", out, kGround, 1e-9);
  // A weak bleeder keeps the node from floating.
  c.add_resistor("r2", out, kGround, 1e9);
  const DcResult op = dc_operating_point(c);
  EXPECT_NEAR(op.voltage(out), 3.0, 1e-4);
}

TEST(DcOp, VSourceCurrentSign) {
  Circuit c;
  const NodeId in = c.node("in");
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", in, kGround, 1.0);
  const DcResult op = dc_operating_point(c);
  // 1 A flows out of the + terminal through the resistor and back: SPICE
  // convention makes the source branch current (pos -> neg inside) negative.
  ASSERT_EQ(op.vsource_i.size(), 1u);
  EXPECT_NEAR(op.vsource_i[0], -1.0, 1e-9);
}

TEST(DcOp, TimeSwitchUsesStateAtZero) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(1.0));
  // Phase 1 of a 500 kHz two-phase clock: open until t = 1 us.
  c.add_switch("s1", in, out, 1.0, 1e9, PhaseClock(500e3, 2, 0.5).phase(1));
  c.add_resistor("r1", out, kGround, 1000.0);
  const DcResult op = dc_operating_point(c);
  EXPECT_LT(op.voltage(out), 1e-3);  // Open at t = 0.
}

TEST(DcOp, VoltageControlledSwitchSettles) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("v1", in, kGround, Waveform::dc(2.0));
  // Switch controlled by its own input: closes because v(in) > 1 V.
  c.add_vcswitch("s1", in, out, in, kGround, 1.0, 0.1, 1.0, 1e9);
  c.add_resistor("r1", out, kGround, 1000.0);
  const DcResult op = dc_operating_point(c);
  EXPECT_NEAR(op.voltage(out), 2.0, 5e-3);  // ron forms a divider with r1.
}

TEST(DcOp, EmptyCircuitThrows) {
  Circuit c;
  EXPECT_THROW(dc_operating_point(c), InvalidParameter);
}

}  // namespace
}  // namespace ivory::spice
