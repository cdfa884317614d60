// Tests for the buck static model: duty, ripple, interleaving, losses,
// frequency-dependent inductance, and the kernel's split at f_sw against the
// unsplit kernel it replaced.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

#include "common/error.hpp"
#include "core/buck_model.hpp"

namespace ivory::core {
namespace {

// A FIVR-class 4-phase buck: 5 nH interposer inductors at 100 MHz.
BuckDesign reference_design() {
  BuckDesign d;
  d.node = tech::Node::n32;
  d.inductor = tech::InductorKind::IntegratedInterposer;
  d.cap_kind = tech::CapKind::DeepTrench;
  d.l_per_phase_h = 5e-9;
  d.f_sw_hz = 100e6;
  d.n_phases = 4;
  d.w_high_m = 0.08;
  d.w_low_m = 0.10;
  d.c_out_f = 1e-6;
  return d;
}

TEST(BuckModel, DutyNearIdealRatio) {
  const BuckAnalysis a = analyze_buck(reference_design(), 3.3, 1.0, 10.0);
  EXPECT_NEAR(a.duty, 1.0 / 3.3, 0.05);
  EXPECT_GT(a.duty, 1.0 / 3.3);  // Conduction drops push duty slightly up.
}

TEST(BuckModel, PowerBookkeepingCloses) {
  const BuckAnalysis a = analyze_buck(reference_design(), 3.3, 1.0, 10.0);
  const double losses = a.p_conduction_w + a.p_gate_w + a.p_overlap_w + a.p_coss_w +
                        a.p_deadtime_w + a.p_peripheral_w;
  EXPECT_NEAR(a.p_in_w, a.p_out_w + losses, 1e-9 * a.p_in_w);
  EXPECT_GT(a.efficiency, 0.5);
  EXPECT_LT(a.efficiency, 1.0);
}

TEST(BuckModel, EfficiencyVsFrequencyHasInteriorPeak) {
  BuckDesign d = reference_design();
  double eff_first = 0.0, eff_last = 0.0, best = 0.0;
  bool first = true;
  for (double f = 2e6; f <= 2e9; f *= 1.5) {
    d.f_sw_hz = f;
    const double eff = analyze_buck(d, 3.3, 1.0, 10.0).efficiency;
    if (first) {
      eff_first = eff;
      first = false;
    }
    eff_last = eff;
    best = std::max(best, eff);
  }
  EXPECT_GT(best, eff_first);
  EXPECT_GT(best, eff_last);
}

TEST(BuckModel, RippleCurrentScalesInverselyWithLandF) {
  BuckDesign d = reference_design();
  const BuckAnalysis a1 = analyze_buck(d, 3.3, 1.0, 10.0);
  d.f_sw_hz *= 2.0;
  const BuckAnalysis a2 = analyze_buck(d, 3.3, 1.0, 10.0);
  // Doubling f at least halves the current ripple (inductance rolloff can
  // only make the baseline ripple larger, not smaller).
  EXPECT_LT(a2.i_ripple_phase_a, a1.i_ripple_phase_a / 1.6);
}

TEST(BuckModel, InterleavingCancellation) {
  EXPECT_NEAR(interleave_cancellation(1, 0.3), 1.0, 1e-12);
  // N*D integer: perfect cancellation.
  EXPECT_NEAR(interleave_cancellation(2, 0.5), 0.0, 1e-12);
  EXPECT_NEAR(interleave_cancellation(4, 0.25), 0.0, 1e-12);
  // Always within [0, 1].
  for (int n : {2, 3, 4, 8, 16}) {
    for (double duty : {0.1, 0.3, 0.33, 0.47, 0.7, 0.9}) {
      const double k = interleave_cancellation(n, duty);
      EXPECT_GE(k, 0.0);
      EXPECT_LE(k, 1.0);
    }
  }
  EXPECT_THROW(interleave_cancellation(0, 0.3), InvalidParameter);
  EXPECT_THROW(interleave_cancellation(2, 0.0), InvalidParameter);
}

TEST(BuckModel, MorePhasesReduceOutputRipple) {
  BuckDesign d = reference_design();
  d.n_phases = 1;
  const BuckAnalysis a1 = analyze_buck(d, 3.3, 1.0, 10.0);
  d.n_phases = 4;
  const BuckAnalysis a4 = analyze_buck(d, 3.3, 1.0, 10.0);
  EXPECT_LT(a4.ripple_pp_v, a1.ripple_pp_v);
}

TEST(BuckModel, InductanceRollsOffAtHighFrequency) {
  BuckDesign d = reference_design();
  d.f_sw_hz = 20e6;  // Below the interposer-inductor knee (50 MHz).
  const BuckAnalysis lo = analyze_buck(d, 3.3, 1.0, 10.0);
  EXPECT_NEAR(lo.l_eff_h, d.l_per_phase_h, 1e-15);
  d.f_sw_hz = 1e9;  // Well above the knee.
  const BuckAnalysis hi = analyze_buck(d, 3.3, 1.0, 10.0);
  EXPECT_LT(hi.l_eff_h, d.l_per_phase_h);
}

TEST(BuckModel, ConductionLossGrowsQuadratically) {
  const BuckDesign d = reference_design();
  const BuckAnalysis a1 = analyze_buck(d, 3.3, 1.0, 5.0);
  const BuckAnalysis a2 = analyze_buck(d, 3.3, 1.0, 10.0);
  // DC term dominates at these currents: ~4x conduction loss for 2x current.
  EXPECT_GT(a2.p_conduction_w, 3.0 * a1.p_conduction_w);
}

TEST(BuckModel, ShallowerConversionIsMoreEfficient) {
  const BuckDesign d = reference_design();
  const double eff_deep = analyze_buck(d, 3.3, 1.0, 10.0).efficiency;
  const double eff_shallow = analyze_buck(d, 1.8, 1.0, 10.0).efficiency;
  EXPECT_GT(eff_shallow, eff_deep);
}

TEST(BuckModel, OnDieInductorCountsAsDieArea) {
  BuckDesign d = reference_design();
  d.inductor = tech::InductorKind::MagneticFilm;
  const BuckAnalysis on_die = analyze_buck(d, 3.3, 1.0, 10.0);
  EXPECT_NEAR(on_die.area_offdie_m2, 0.0, 1e-18);
  d.inductor = tech::InductorKind::IntegratedInterposer;
  const BuckAnalysis off_die = analyze_buck(d, 3.3, 1.0, 10.0);
  EXPECT_GT(off_die.area_offdie_m2, 0.0);
  EXPECT_LT(off_die.area_die_m2, on_die.area_die_m2);
}

TEST(BuckModel, InvalidInputsThrow) {
  const BuckDesign good = reference_design();
  EXPECT_THROW(analyze_buck(good, 1.0, 1.0, 10.0), InvalidParameter);  // vout == vin.
  EXPECT_THROW(analyze_buck(good, 3.3, 1.0, 0.0), InvalidParameter);
  BuckDesign d = good;
  d.w_high_m = 0.0;
  EXPECT_THROW(analyze_buck(d, 3.3, 1.0, 10.0), InvalidParameter);
  d = good;
  d.c_out_f = 0.0;
  EXPECT_THROW(analyze_buck(d, 3.3, 1.0, 10.0), InvalidParameter);
  d = good;
  d.n_phases = 0;
  EXPECT_THROW(analyze_buck(d, 3.3, 1.0, 10.0), InvalidParameter);
}


// --- buck_row + buck_at against the unsplit kernel -------------------------

// The buck kernel as it stood before its split at f_sw (two halves, the
// operating point and the losses, both per frequency), with the peripheral
// budget's formulas inline. buck_row + buck_at must reproduce it bit for bit.
bool reference_operating_point(const BuckPrepared& k, const BuckDesign& d, double l_eff_h,
                               double vout_v, double i_load_a, BuckAnalysis& a) {
  const double vin_v = k.vin_v;
  const double i_ph = i_load_a / static_cast<double>(d.n_phases);
  const double r_hs = k.dev.ron(d.w_high_m);
  const double r_ls = k.dev.ron(d.w_low_m);
  const double r_dcr = k.ind->dcr(d.l_per_phase_h);
  a.l_eff_h = l_eff_h;

  double duty = vout_v / vin_v;
  for (int pass = 0; pass < 2; ++pass) {
    const double drop_on = i_ph * (r_hs + r_dcr);
    const double drop_off = i_ph * (r_ls + r_dcr);
    duty = (vout_v + drop_off) / std::max(vin_v - drop_on + drop_off, 1e-9);
  }
  a.duty = duty;
  if (!(duty > 0.0 && duty < 1.0)) return false;

  a.i_ripple_phase_a = (vin_v - vout_v) * duty / (a.l_eff_h * d.f_sw_hz);
  a.i_ripple_out_a = a.i_ripple_phase_a * interleave_cancellation(d.n_phases, duty);
  return true;
}

void reference_evaluate(const BuckPrepared& k, const BuckDesign& d, double vout_v,
                        double i_load_a, BuckAnalysis& a) {
  const tech::SwitchTech& dev = k.dev;
  const double vin_v = k.vin_v;
  const double duty = a.duty;
  const double n = static_cast<double>(d.n_phases);
  const double i_ph = i_load_a / n;
  const double r_hs = dev.ron(d.w_high_m);
  const double r_ls = dev.ron(d.w_low_m);
  const double r_dcr = k.ind->dcr(d.l_per_phase_h);

  a.p_out_w = vout_v * i_load_a;
  const double i_sq = i_ph * i_ph + a.i_ripple_phase_a * a.i_ripple_phase_a / 12.0;
  const double r_eff = duty * r_hs + (1.0 - duty) * r_ls + r_dcr;
  a.p_conduction_w = n * i_sq * r_eff;
  const double v_drive = k.v_drive_v;
  const double cg_phase = dev.cgate(d.w_high_m) + dev.cgate(d.w_low_m);
  a.p_gate_w = n * d.f_sw_hz * cg_phase * v_drive * v_drive;
  const double t_tr = k.t_tr_s;
  a.p_overlap_w = n * vin_v * i_ph * t_tr * d.f_sw_hz;
  const double cd_phase = dev.cdrain(d.w_high_m) + dev.cdrain(d.w_low_m);
  a.p_coss_w = n * d.f_sw_hz * cd_phase * vin_v * vin_v;
  const double t_dead = 2.0 * t_tr;
  const double v_diode = 0.65;
  a.p_deadtime_w = n * 2.0 * d.f_sw_hz * t_dead * i_ph * v_diode;

  // peripheral_budget(k.per, f_sw, n_phases, n * cg_phase, v_drive, f_sw).
  const double vdd = k.per.vdd_v;
  const double cg = k.per.unit_cg_f;
  const double f_ctrl = d.f_sw_hz * static_cast<double>(d.n_phases);
  const double p_controller = kControllerGates * kActivity * cg * vdd * vdd * f_ctrl;
  const double p_clockgen = kClockGatesPerPhase * static_cast<double>(d.n_phases) * kActivity *
                            cg * vdd * vdd * d.f_sw_hz;
  const double p_comparator = kComparatorGateEquiv * cg * vdd * vdd * f_ctrl;
  const double p_driver = kDriverOverhead * (n * cg_phase) * v_drive * v_drive * d.f_sw_hz;
  const double gate_count = kControllerGates +
                            kClockGatesPerPhase * static_cast<double>(d.n_phases) +
                            kComparatorGateEquiv * static_cast<double>(d.n_phases);
  const double per_area = gate_count * 4.0 * k.per.unit_area_m2 * 2.0;
  a.p_peripheral_w = p_controller + p_clockgen + p_comparator + p_driver;

  a.p_in_w = a.p_out_w + a.p_conduction_w + a.p_gate_w + a.p_overlap_w + a.p_coss_w +
             a.p_deadtime_w + a.p_peripheral_w;
  a.efficiency = a.p_out_w / a.p_in_w;

  const double f_eff = n * d.f_sw_hz;
  a.ripple_pp_v = a.i_ripple_out_a / (8.0 * f_eff * d.c_out_f) +
                  a.i_ripple_out_a * k.cap.esr(d.c_out_f);

  const double area_sw = n * (dev.area(d.w_high_m) + dev.area(d.w_low_m));
  const double area_cap = k.cap.area(d.c_out_f);
  const double area_ind = n * k.ind->area(d.l_per_phase_h);
  a.area_die_m2 =
      kWiringOverhead * (area_sw + area_cap + per_area + (k.ind->on_die ? area_ind : 0.0));
  a.area_offdie_m2 = k.ind->on_die ? 0.0 : area_ind;
  a.area_m2 = a.area_die_m2 + a.area_offdie_m2;
}

// Every BuckAnalysis field, compared by bit pattern (so -0.0 != 0.0 and a
// NaN matches only the same NaN). Returns the first differing field, or "".
std::string first_difference(const BuckAnalysis& got, const BuckAnalysis& want) {
#define IVORY_BUCK_FIELD(f) \
  if (std::bit_cast<std::uint64_t>(got.f) != std::bit_cast<std::uint64_t>(want.f)) return #f;
  IVORY_BUCK_FIELD(vin_v) IVORY_BUCK_FIELD(vout_v) IVORY_BUCK_FIELD(i_load_a)
  IVORY_BUCK_FIELD(duty) IVORY_BUCK_FIELD(l_eff_h) IVORY_BUCK_FIELD(i_ripple_phase_a)
  IVORY_BUCK_FIELD(i_ripple_out_a) IVORY_BUCK_FIELD(p_out_w) IVORY_BUCK_FIELD(p_conduction_w)
  IVORY_BUCK_FIELD(p_gate_w) IVORY_BUCK_FIELD(p_overlap_w) IVORY_BUCK_FIELD(p_coss_w)
  IVORY_BUCK_FIELD(p_deadtime_w) IVORY_BUCK_FIELD(p_peripheral_w) IVORY_BUCK_FIELD(p_in_w)
  IVORY_BUCK_FIELD(efficiency) IVORY_BUCK_FIELD(ripple_pp_v) IVORY_BUCK_FIELD(area_die_m2)
  IVORY_BUCK_FIELD(area_offdie_m2) IVORY_BUCK_FIELD(area_m2)
#undef IVORY_BUCK_FIELD
  return "";
}

// Seeded sizings drawn the way the funnel screen and optimize_buck size
// them (inductor share, switch utilization and the conduction-optimal
// high/low split of an IVR's area budget), over every node x inductor and
// perfbench's system ranges, at log-uniform f_sw in [2 MHz, 1 GHz]. A tail
// of starved switches (utilization down to 1e-5) reaches the unreachable
// duties. buck_row + buck_at and analyze_buck must reproduce the unsplit
// kernel on reachability and on every field, bit for bit.
TEST(BuckModel, RowSplitIsTheUnsplitKernel) {
  const tech::InductorKind inductors[] = {tech::InductorKind::SurfaceMount,
                                          tech::InductorKind::IntegratedInterposer,
                                          tech::InductorKind::MagneticFilm};
  const int phases[] = {2, 4, 8, 16};
  const int dists[] = {1, 2, 4};
  constexpr int kDrawsPerPair = 480;
  int n_drawn = 0, n_unreachable = 0, n_out_of_ccm = 0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto draw = [&](double lo, double hi) { return lo + (hi - lo) * unit(rng); };
    const auto log_draw = [&](double lo, double hi) {
      return std::exp(draw(std::log(lo), std::log(hi)));
    };
    for (const tech::Node node : tech::kAllNodes) {
      for (const tech::InductorKind inductor : inductors) {
        for (int i = 0; i < kDrawsPerPair; ++i) {
          const double vin = draw(2.5, 3.6), vout = draw(0.8, 1.2);
          const int n_dist = dists[rng() % 3];
          const double i_ivr = draw(10.0, 40.0) / vout / n_dist;
          const double usable = draw(10.0, 40.0) * 1e-6 / n_dist / kWiringOverhead;
          const double l_frac = draw(0.02, 0.70);
          const double util = i % 8 == 7 ? log_draw(1e-5, 0.03) : draw(0.03, 1.0);
          const double f_sw = log_draw(2e6, 1e9);

          BuckDesign d;
          d.node = node;
          d.inductor = inductor;
          d.cap_kind = tech::CapKind::DeepTrench;
          d.n_phases = phases[rng() % 4];
          d.f_sw_hz = f_sw;
          const BuckPrepared k = prepare_buck(d, vin);
          const double nn = static_cast<double>(d.n_phases);
          const double duty0 = vout / vin;
          const double sd = std::sqrt(duty0), si = std::sqrt(1.0 - duty0);
          const double rest = (1.0 - l_frac) * usable;
          d.l_per_phase_h = l_frac * usable * k.ind->density_h_m2 / nn;
          d.c_out_f = 0.55 * rest * k.cap.density_f_m2;
          const double w_total = 0.4 * rest * util / k.dev.area_per_w_m;
          d.w_high_m = w_total / nn * sd / (sd + si);
          d.w_low_m = w_total / nn * si / (sd + si);
          const double l_eff = k.ind->inductance_at(d.l_per_phase_h, f_sw);
          const std::string where = "seed " + std::to_string(seed) + " node " +
                                    tech::node_name(node) + " inductor " +
                                    tech::inductor_kind_name(inductor) + " draw " +
                                    std::to_string(i);
          ++n_drawn;

          BuckAnalysis want;
          want.vin_v = vin;
          want.vout_v = vout;
          want.i_load_a = i_ivr;
          const bool reachable = reference_operating_point(k, d, l_eff, vout, i_ivr, want);
          const BuckRow row = buck_row(k, d, vout, i_ivr);
          ASSERT_EQ(row.reachable, reachable) << where;
          if (!reachable) {
            ++n_unreachable;
            EXPECT_THROW(analyze_buck(d, vin, vout, i_ivr), InvalidParameter) << where;
            continue;
          }
          reference_evaluate(k, d, vout, i_ivr, want);
          if (want.i_ripple_phase_a > 2.0 * (i_ivr / nn)) ++n_out_of_ccm;
          const std::string kernel = first_difference(buck_at(k, row, f_sw, l_eff), want);
          EXPECT_EQ(kernel, "") << where << ": buck_row + buck_at differ in " << kernel;
          const std::string analyzer = first_difference(analyze_buck(d, vin, vout, i_ivr), want);
          EXPECT_EQ(analyzer, "") << where << ": analyze_buck differs in " << analyzer;
        }
      }
    }
  }
  EXPECT_GE(n_drawn, 10000);
  EXPECT_GT(n_unreachable, 0) << "no draw reached an unreachable duty";
  EXPECT_GT(n_out_of_ccm, 0) << "no draw left CCM";
  std::printf("buck row split: %d draws, %d unreachable duties, %d out of CCM\n", n_drawn,
              n_unreachable, n_out_of_ccm);
}

}  // namespace
}  // namespace ivory::core
