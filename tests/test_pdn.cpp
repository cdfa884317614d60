// Tests for the PDN models: closed-form impedance vs. circuit simulation,
// transient die-voltage simulation, domain slicing, and the VRM model.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "pdn/pdn.hpp"
#include "spice/spice.hpp"

namespace ivory::pdn {
namespace {

TEST(PdnImpedance, DcLimitIsSeriesResistance) {
  const PdnParams p = PdnParams::gpuvolt_default();
  const double r_total = p.board.r_ohm + p.package.r_ohm + p.c4.r_ohm + p.grid_r_ohm;
  const std::complex<double> z = input_impedance(p, 1.0);  // 1 Hz ~ DC.
  EXPECT_NEAR(z.real(), r_total, 0.05 * r_total);
  EXPECT_NEAR(z.imag(), 0.0, 0.2 * r_total);
}

TEST(PdnImpedance, ResonancePeakInTensOfMHz) {
  const PdnParams p = PdnParams::gpuvolt_default();
  const ImpedancePeak peak = find_impedance_peak(p, 1e3, 1e10);
  // First-droop resonance for this class of system: ~10-200 MHz, a few mohm.
  EXPECT_GT(peak.f_hz, 1e7);
  EXPECT_LT(peak.f_hz, 2e8);
  EXPECT_GT(peak.z_ohm, 1e-3);
  EXPECT_LT(peak.z_ohm, 50e-3);
}

TEST(PdnImpedance, CoarseGridPeakMatchesDenseGridAfterPolish) {
  // The golden-section polish inside the best coarse cell must land on the
  // same resonance a 100x denser scan finds: a 20-point grid over 7 decades
  // (~0.37 decades/cell) would otherwise alias the peak frequency badly.
  const PdnParams p = PdnParams::gpuvolt_default();
  const ImpedancePeak coarse = find_impedance_peak(p, 1e3, 1e10, 20);
  const ImpedancePeak dense = find_impedance_peak(p, 1e3, 1e10, 2000);
  EXPECT_NEAR(coarse.f_hz, dense.f_hz, 0.01 * dense.f_hz);
  EXPECT_NEAR(coarse.z_ohm, dense.z_ohm, 1e-3 * dense.z_ohm);
  // The polished coarse answer can only beat a pure grid scan, never trail it.
  EXPECT_GE(coarse.z_ohm, dense.z_ohm * (1.0 - 1e-9));
}

TEST(PdnImpedance, ClosedFormMatchesSpiceAc) {
  const PdnParams p = PdnParams::gpuvolt_default();
  spice::Circuit c;
  const PdnNodes nodes = build_pdn_netlist(c, p, 1.0);
  spice::Waveform probe = spice::Waveform::dc(0.0);
  probe.set_ac_magnitude(1.0);
  c.add_isource("iprobe", nodes.die, spice::kGround, probe);

  const std::vector<double> freqs = spice::log_frequencies(1e4, 1e9, 26);
  const spice::AcResult ac = spice::ac_analysis(c, freqs, {nodes.die});
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const double z_form = std::abs(input_impedance(p, freqs[k]));
    const double z_sim = std::abs(ac.at(nodes.die)[k]);
    EXPECT_NEAR(z_sim, z_form, 0.02 * z_form + 1e-9) << "f=" << freqs[k];
  }
}

TEST(PdnTransient, ConstantLoadGivesIrDrop) {
  const PdnParams p = PdnParams::gpuvolt_default();
  const double i = 10.0, v_supply = 1.0;
  const std::vector<double> load(4000, i);
  const std::vector<double> v = simulate_die_voltage(p, v_supply, load, 5e-9);
  const double r_total = p.board.r_ohm + p.package.r_ohm + p.c4.r_ohm + p.grid_r_ohm;
  EXPECT_NEAR(v.back(), v_supply - i * r_total, 2e-3);
}

TEST(PdnTransient, LoadStepCausesDroopBeyondDc) {
  const PdnParams p = PdnParams::gpuvolt_default();
  std::vector<double> load(8000, 2.0);
  for (std::size_t k = 4000; k < load.size(); ++k) load[k] = 18.0;
  const std::vector<double> v = simulate_die_voltage(p, 1.0, load, 2e-9);
  const double r_total = p.board.r_ohm + p.package.r_ohm + p.c4.r_ohm + p.grid_r_ohm;
  const double v_dc_final = 1.0 - 18.0 * r_total;
  // The first droop undershoots the final DC value (inductive kick).
  std::vector<double> post(v.begin() + 4000, v.begin() + 7000);
  EXPECT_LT(min_value(post), v_dc_final - 1e-3);
}

TEST(PdnTransient, ZeroOrderHoldPlaysSampleKAtGridTimeK) {
  // The transient engine forms t as a running sum of dt, which often lands a
  // few ULP short of k*dt: floor(t / dt) played sample k-1 on 1,266 of 5,000
  // steps at dt = 2 ns and on 8,646 of 20,000 at 1 ns.
  for (const double dt : {1e-9, 2e-9, 4e-9}) {
    const std::size_t n = 20001;
    double t = 0.0;
    for (std::size_t k = 1; k < n; ++k) {
      t += dt;
      ASSERT_EQ(hold_index(t, dt, n), k) << "running sum, step " << k << ", dt " << dt;
      ASSERT_EQ(hold_index(static_cast<double>(k) * dt, dt, n), k) << "k*dt, step " << k;
      ASSERT_EQ(hold_index((static_cast<double>(k) - 0.5) * dt, dt, n), k - 1)
          << "between samples, step " << k;
    }
  }
  EXPECT_EQ(hold_index(-1e-9, 1e-9, 4), 0u);
  EXPECT_EQ(hold_index(1.0, 1e-9, 4), 3u);  // Held past the last sample.
}

TEST(PdnDomains, SymmetricSlicingPreservesSharedImpedanceScale) {
  const PdnParams p = PdnParams::gpuvolt_default();
  const PdnParams p4 = p.per_domain(4);
  EXPECT_NEAR(p4.board.r_ohm, 4.0 * p.board.r_ohm, 1e-12);
  EXPECT_NEAR(p4.board.decap_f, p.board.decap_f / 4.0, 1e-12);
  EXPECT_NEAR(p4.ondie_decap_f, p.ondie_decap_f / 4.0, 1e-15);
  // A quarter of the current through the 4x shared slice reproduces the
  // shared-network drop exactly; the grid term is intentionally NOT scaled
  // (a distributed domain's local path shortens as its slice narrows), so
  // the per-domain die sits (3/4) * i * R_grid higher.
  const double i = 12.0;
  const std::vector<double> load_full(2000, i);
  const std::vector<double> load_q(2000, i / 4.0);
  const std::vector<double> v_full = simulate_die_voltage(p, 1.0, load_full, 5e-9);
  const std::vector<double> v_q = simulate_die_voltage(p4, 1.0, load_q, 5e-9);
  EXPECT_NEAR(v_q.back() - v_full.back(), 0.75 * i * p.grid_r_ohm, 1e-4);
}

TEST(PdnDomains, InvalidCountThrows) {
  EXPECT_THROW(PdnParams::gpuvolt_default().per_domain(0), ivory::InvalidParameter);
}

TEST(Vrm, EfficiencyCurvePeaksNearRating) {
  const VrmModel vrm = VrmModel::board_vrm(3.3, 10.0);
  const double eta_light = vrm.efficiency(0.5);
  const double eta_rated = vrm.efficiency(10.0);
  const double eta_over = vrm.efficiency(40.0);
  EXPECT_GT(eta_rated, eta_light);
  EXPECT_GT(eta_rated, eta_over);
  EXPECT_GT(eta_rated, 0.85);
  EXPECT_LT(eta_rated, 0.95);
}

TEST(Vrm, HigherOutputVoltageIsMoreEfficient) {
  const double eta_33 = VrmModel::board_vrm(3.3, 10.0).efficiency(10.0);
  const double eta_10 = VrmModel::board_vrm(1.0, 33.0).efficiency(33.0);
  EXPECT_GT(eta_33, eta_10);
}

TEST(Vrm, InputPowerConsistentWithEfficiency) {
  const VrmModel vrm = VrmModel::board_vrm(3.3, 10.0);
  const double p_out = 16.5;  // 5 A.
  EXPECT_NEAR(vrm.input_power(p_out) * vrm.efficiency(5.0), p_out, 1e-9);
}

TEST(Vrm, InvalidInputsThrow) {
  const VrmModel vrm = VrmModel::board_vrm(3.3, 10.0);
  EXPECT_THROW(vrm.efficiency(0.0), ivory::InvalidParameter);
  EXPECT_THROW(vrm.input_power(-1.0), ivory::InvalidParameter);
  EXPECT_THROW(VrmModel::board_vrm(0.0, 1.0), ivory::InvalidParameter);
}

TEST(PdnTransient, InvalidInputsThrow) {
  const PdnParams p = PdnParams::gpuvolt_default();
  EXPECT_THROW(simulate_die_voltage(p, 1.0, {1.0}, 1e-9), ivory::InvalidParameter);
  EXPECT_THROW(simulate_die_voltage(p, 1.0, {1.0, 1.0}, 0.0), ivory::InvalidParameter);
  EXPECT_THROW(input_impedance(p, 0.0), ivory::InvalidParameter);
}

}  // namespace
}  // namespace ivory::pdn
