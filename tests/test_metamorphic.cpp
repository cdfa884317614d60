// Metamorphic tests: instead of asserting absolute numbers, each test
// applies a transformation to a design whose effect the paper's analytical
// models predict exactly (invariance, monotone direction, or a hard bound)
// and checks the model tracks it. These survive retuning of technology
// constants where golden-number tests would not.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/buck_model.hpp"
#include "core/dldo_model.hpp"
#include "core/ldo_model.hpp"
#include "core/sc_model.hpp"

namespace ivory::core {
namespace {

ScDesign base_sc() {
  ScDesign d;
  d.n = 3;
  d.m = 1;
  d.c_fly_f = 4e-6;
  d.c_out_f = 0.5e-6;
  d.g_tot_s = 15e3;
  d.f_sw_hz = 80e6;
  d.n_interleave = 4;
  return d;
}

BuckDesign base_buck() {
  BuckDesign d;
  d.l_per_phase_h = 5e-9;
  d.f_sw_hz = 100e6;
  d.n_phases = 4;
  d.w_high_m = 0.08;
  d.w_low_m = 0.10;
  d.c_out_f = 1e-6;
  return d;
}

/// Efficiency from the loss breakdown excluding the peripheral overhead,
/// which is a fixed per-module cost and intentionally does not scale with
/// the power stage.
double sc_core_efficiency(const ScAnalysis& r) {
  return r.p_out_w /
         (r.p_out_w + r.p_conduction_w + r.p_gate_w + r.p_bottom_plate_w + r.p_leakage_w);
}

TEST(MetamorphicSc, EfficiencyInvariantUnderProportionalScaling) {
  // Seeman's SSL/FSL output-impedance model: R_SSL = (sum a_c)^2 / (C_fly
  // f_sw) and R_FSL = (sum a_r)^2 / (G_tot D). Scaling {I_load, G_tot,
  // C_fly, C_out} by a common factor k scales every impedance by 1/k and
  // every power-stage loss term (I^2 R conduction, gate charge ~ width,
  // bottom-plate ~ C_fly, leakage ~ width) linearly with k, so the
  // power-stage efficiency is exactly scale-free.
  const double vin = 3.3, i_load = 10.0;
  const ScAnalysis ref = analyze_sc(base_sc(), vin, i_load);
  const double eff_ref = sc_core_efficiency(ref);
  for (const double k : {2.0, 5.0, 10.0, 0.5}) {
    ScDesign d = base_sc();
    d.c_fly_f *= k;
    d.c_out_f *= k;
    d.g_tot_s *= k;
    const ScAnalysis scaled = analyze_sc(d, vin, i_load * k);
    EXPECT_NEAR(sc_core_efficiency(scaled), eff_ref, 1e-9)
        << "power stage is not scale-free at k=" << k;
    // The operating point itself is invariant: same I*R drop.
    EXPECT_NEAR(scaled.vout_v, ref.vout_v, 1e-9) << "k=" << k;
    // Output ripple ~ I_load / (n_ilv C_out f_sw) is invariant too when
    // C_out scales with the load.
    EXPECT_NEAR(scaled.ripple_pp_v, ref.ripple_pp_v, ref.ripple_pp_v * 1e-9) << "k=" << k;
  }
}

TEST(MetamorphicSc, InterleavingNeverIncreasesRipple) {
  // N-way interleaving staggers the charge transfers across the period, so
  // each phase delivers 1/N of the charge into C_out: ripple falls ~1/N and
  // can never rise with more phases.
  const double vin = 3.3, i_load = 10.0;
  double prev = -1.0;
  for (const int ilv : {1, 2, 4, 8, 16}) {
    ScDesign d = base_sc();
    d.n_interleave = ilv;
    const ScAnalysis r = analyze_sc(d, vin, i_load);
    if (prev >= 0.0) {
      EXPECT_LE(r.ripple_pp_v, prev * (1.0 + 1e-12))
          << "ripple rose when interleaving " << ilv << " ways";
    }
    prev = r.ripple_pp_v;
  }
}

TEST(MetamorphicBuck, RippleMonotoneDecreasingInInductance) {
  // Inductor current ripple obeys the volt-second law di = (Vin - Vout) D /
  // (L f_sw) exactly, and the output ripple a single phase dumps into C_out
  // inherits the 1/L decrease. Single phase on purpose: with N staggered
  // phases the DCR (which grows with L) shifts the duty, which moves the
  // cancellation factor non-monotonically — a real effect, covered by the
  // interleaving test. `ignore_l_rolloff` isolates the law from the
  // self-resonance derating, which is asserted one-sided instead.
  const double vin = 3.3, vout = 1.0, i_load = 2.0;
  double prev = -1.0;
  for (const double l : {2e-9, 4e-9, 8e-9, 16e-9}) {
    BuckDesign d = base_buck();
    d.n_phases = 1;
    d.l_per_phase_h = l;
    d.ignore_l_rolloff = true;
    const BuckAnalysis r = analyze_buck(d, vin, vout, i_load);
    // The paper equation, to machine precision.
    EXPECT_NEAR(r.i_ripple_phase_a, (vin - vout) * r.duty / (r.l_eff_h * d.f_sw_hz),
                r.i_ripple_phase_a * 1e-12)
        << "volt-second law broken at L=" << l;
    if (prev >= 0.0) {
      EXPECT_LE(r.ripple_pp_v, prev * (1.0 + 1e-12)) << "ripple rose at L=" << l;
    }
    prev = r.ripple_pp_v;

    // The self-resonance rolloff can only ever *reduce* the effective
    // inductance (raising ripple), never add inductance out of nowhere.
    d.ignore_l_rolloff = false;
    const BuckAnalysis rolled = analyze_buck(d, vin, vout, i_load);
    EXPECT_LE(rolled.l_eff_h, l * (1.0 + 1e-12)) << "rolloff added inductance at L=" << l;
    EXPECT_GE(rolled.ripple_pp_v, r.ripple_pp_v * (1.0 - 1e-12)) << "L=" << l;
  }
}

TEST(MetamorphicBuck, RippleMonotoneDecreasingInSwitchingFrequency) {
  // di = Vout (1-D) / (L f_sw) and the C_out integration window both shrink
  // with f_sw: ripple is monotone decreasing in switching frequency (the
  // frequency-dependent losses are what keeps f_sw finite, not ripple).
  const double vin = 3.3, vout = 1.0, i_load = 10.0;
  double prev = -1.0;
  for (const double f : {50e6, 75e6, 100e6, 150e6, 200e6}) {
    BuckDesign d = base_buck();
    d.f_sw_hz = f;
    const BuckAnalysis r = analyze_buck(d, vin, vout, i_load);
    if (prev >= 0.0) {
      EXPECT_LE(r.ripple_pp_v, prev * (1.0 + 1e-12)) << "ripple rose at f_sw=" << f;
    }
    prev = r.ripple_pp_v;
  }
}

TEST(MetamorphicBuck, InterleavingNeverIncreasesOutputRipple) {
  // Multiphase ripple cancellation: the summed inductor-current ripple of N
  // staggered phases is frac(ND)(1-frac(ND)) / (N D (1-D)) of one phase's
  // ripple — never more than the single-phase ripple, exactly zero when ND
  // is an integer. It is *not* monotone in N at fixed D (N=2 at D=0.5
  // cancels perfectly, N=3 does not), so the invariant is the <= 1 bound
  // plus the integer-ND zeros, not monotonicity.
  for (const double duty : {0.15, 0.25, 0.3380731503307733, 0.5, 0.72}) {
    for (const int phases : {1, 2, 3, 4, 6, 8}) {
      const double factor = interleave_cancellation(phases, duty);
      EXPECT_GE(factor, 0.0) << "N=" << phases << " D=" << duty;
      EXPECT_LE(factor, 1.0 + 1e-12)
          << "interleaving amplified ripple at N=" << phases << " D=" << duty;
      const double nd = phases * duty;
      if (std::abs(nd - std::round(nd)) < 1e-12 && phases > 1) {
        EXPECT_NEAR(factor, 0.0, 1e-9) << "no perfect cancellation at N*D=" << nd;
      }
    }
  }

  // And end-to-end: the N-phase design's summed ripple never exceeds the
  // per-phase ripple that N independent (non-staggered) converters would
  // dump into the output capacitor together.
  const double vin = 3.3, vout = 1.0, i_load = 10.0;
  for (const int phases : {2, 4, 8}) {
    BuckDesign d = base_buck();
    d.n_phases = phases;
    const BuckAnalysis r = analyze_buck(d, vin, vout, i_load);
    EXPECT_LE(r.i_ripple_out_a, r.i_ripple_phase_a * (1.0 + 1e-12))
        << "n_phases=" << phases;
  }
}

TEST(MetamorphicLdo, EfficiencyBoundedByConversionRatio) {
  // A linear regulator passes the full load current from Vin: even with
  // zero quiescent current, eta = P_out / P_in = Vout / Vin. The model must
  // never beat that bound, at any operating point.
  LdoDesign d;
  d.w_pass_m = 0.5;
  d.f_clk_hz = 100e6;
  d.c_out_f = 1e-6;
  d.i_quiescent_a = 1e-3;
  for (const double vin : {1.0, 1.2, 1.8, 2.5}) {
    for (const double ratio : {0.5, 0.7, 0.85}) {
      const double vout = vin * ratio;
      for (const double i_load : {0.1, 1.0, 5.0}) {
        const LdoAnalysis r = analyze_ldo(d, vin, vout, i_load);
        EXPECT_LE(r.efficiency, vout / vin + 1e-12)
            << "LDO beat the Vout/Vin bound at vin=" << vin << " vout=" << vout
            << " iload=" << i_load;
        // And with quiescent overhead it must be strictly below.
        EXPECT_LT(r.efficiency, vout / vin)
            << "quiescent draw vanished at vin=" << vin << " iload=" << i_load;
      }
    }
  }
}

DldoDesign base_dldo() {
  DldoDesign d;
  d.w_pass_m = 0.3;
  d.n_bits = 7;
  d.f_clk_hz = 200e6;
  d.c_out_f = 0.5e-6;
  d.i_quiescent_a = 1e-3;
  return d;
}

TEST(MetamorphicDldo, RippleMonotoneDecreasingInComparatorInterleave) {
  // Time-interleaved comparator slices multiply the decision rate: the
  // one-LSB limit cycle dumps i_lsb into c_out for 1/(n_comp * f_clk), so
  // doubling the slices halves the ripple. Monotone strictly decreasing.
  const double vin = 1.2, vout = 0.9, i_load = 2.0;
  double prev = 0.0;
  for (const int n_comp : {1, 2, 4, 8, 16}) {
    DldoDesign d = base_dldo();
    d.n_comparators = n_comp;
    const DldoAnalysis r = analyze_dldo(d, vin, vout, i_load);
    if (n_comp > 1) {
      EXPECT_LT(r.ripple_pp_v, prev) << "ripple did not shrink at n_comp=" << n_comp;
    }
    prev = r.ripple_pp_v;
    // Exact scaling, not just direction: ripple * n_comp is invariant.
    const DldoAnalysis one = analyze_dldo(base_dldo(), vin, vout, i_load);
    EXPECT_NEAR(r.ripple_pp_v * n_comp, one.ripple_pp_v, 1e-15 * n_comp);
  }
}

TEST(MetamorphicDldo, ResponseTimeScalesWithCodeDepthOverDecisionRate) {
  // Full-scale recovery walks all 2^bits codes at the interleaved decision
  // rate. One more bit doubles it; one more comparator halves it.
  const double vin = 1.2, vout = 0.9, i_load = 2.0;
  const DldoAnalysis ref = analyze_dldo(base_dldo(), vin, vout, i_load);
  DldoDesign deeper = base_dldo();
  deeper.n_bits += 1;
  EXPECT_DOUBLE_EQ(analyze_dldo(deeper, vin, vout, i_load).t_response_s,
                   2.0 * ref.t_response_s);
  DldoDesign wider = base_dldo();
  wider.n_comparators = 2;
  EXPECT_DOUBLE_EQ(analyze_dldo(wider, vin, vout, i_load).t_response_s,
                   0.5 * ref.t_response_s);
}

TEST(MetamorphicDldo, EfficiencyBoundedByConversionRatio) {
  // The pass array is linear: like the analog LDO, eta can never beat
  // Vout/Vin, and with quiescent + comparator overhead it is strictly below.
  for (const double vin : {1.0, 1.2, 1.8}) {
    for (const double ratio : {0.6, 0.75, 0.9}) {
      const double vout = vin * ratio;
      for (const double i_load : {0.1, 1.0, 5.0}) {
        const DldoAnalysis r = analyze_dldo(base_dldo(), vin, vout, i_load);
        EXPECT_LE(r.efficiency, vout / vin + 1e-12)
            << "DLDO beat the Vout/Vin bound at vin=" << vin << " vout=" << vout
            << " iload=" << i_load;
        EXPECT_LT(r.efficiency, vout / vin)
            << "overhead vanished at vin=" << vin << " iload=" << i_load;
      }
    }
  }
}

}  // namespace
}  // namespace ivory::core
