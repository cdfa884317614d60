// Scenario-engine tests: power-state residency sweeps over hybrid
// VRM/IVR delivery. The contracts locked down here are the subsystem's
// spine: byte-identical results at any thread count, residency-weighted
// aggregation, the FlexWatts gating asymmetry (a power-gated IVR domain
// draws nothing, a power-gated VRM domain still pays the converter's fixed
// losses), and the digital-LDO topology reaching end to end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/outcome.hpp"
#include "common/parallel.hpp"
#include "core/report_json.hpp"
#include "scenario/scenario.hpp"
#include "workload/workload.hpp"

namespace ivory::scenario {
namespace {

/// Small, fast spec: two states, short traces. Residencies are exact binary
/// fractions so weighting sums reproduce bitwise.
ScenarioSpec fast_spec() {
  ScenarioSpec spec;
  spec.name = "test";
  spec.states = {{"hi", 1.0, 1.0e9, 1.0, 0.75, false}, {"lo", 0.9, 0.8e9, 0.5, 0.25, false}};
  spec.duration_s = 4e-6;
  spec.dt_s = 4e-9;
  return spec;
}

core::SystemParams small_sys() {
  core::SystemParams sys;
  sys.p_load_w = 10.0;
  return sys;
}

TEST(Scenario, PresetsAreValidResidencyMixes) {
  for (const std::string& name : workload::residency_preset_names()) {
    const std::vector<workload::PowerStateSpec> states = workload::residency_preset(name);
    EXPECT_NO_THROW(workload::check_power_states(states)) << name;
    EXPECT_GE(states.size(), 2u) << name;
  }
  EXPECT_THROW(workload::residency_preset("no-such-preset"), InvalidParameter);
}

TEST(Scenario, BadResidencySumNamesTheProblem) {
  ScenarioSpec spec = fast_spec();
  spec.states[0].residency = 0.9;  // 0.9 + 0.25 != 1
  try {
    evaluate_scenario(small_sys(), core::IvrTopology::SwitchedCapacitor, 2, spec);
    FAIL() << "expected InvalidParameter";
  } catch (const InvalidParameter& e) {
    EXPECT_NE(std::string(e.what()).find("residenc"), std::string::npos) << e.what();
  }
}

TEST(Scenario, DomainFractionsMustSumToOne) {
  ScenarioSpec spec = fast_spec();
  DomainSpec a, b;
  a.name = "core";
  a.power_frac = 0.7;
  b.name = "uncore";
  b.power_frac = 0.7;  // 1.4 total
  spec.domains = {a, b};
  EXPECT_THROW(
      evaluate_scenario(small_sys(), core::IvrTopology::SwitchedCapacitor, 2, spec),
      InvalidParameter);
}

TEST(Scenario, WeightedAggregatesAreConsistentWithCells) {
  SweepReport report;
  const ScenarioReport r = evaluate_scenario(
      small_sys(), core::IvrTopology::SwitchedCapacitor, 2, fast_spec(), &report);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.cells.size(), 2u);
  double p_out = 0.0, p_in = 0.0, res_sum = 0.0;
  for (const StateEval& c : r.cells) {
    p_out += c.residency * c.p_out_w;
    p_in += c.residency * c.p_in_w;
    res_sum += c.residency;
    EXPECT_GE(c.droop_pp_v, 0.0);
  }
  EXPECT_DOUBLE_EQ(res_sum, 1.0);
  EXPECT_DOUBLE_EQ(r.p_out_avg_w, p_out);
  EXPECT_DOUBLE_EQ(r.p_in_avg_w, p_in);
  EXPECT_DOUBLE_EQ(r.weighted_efficiency, p_out / p_in);
  EXPECT_GT(r.weighted_efficiency, 0.0);
  EXPECT_LT(r.weighted_efficiency, 1.0);
}

TEST(Scenario, GatedAsymmetryIvrFreeVrmPaysFixedLoss) {
  ScenarioSpec spec = fast_spec();
  spec.states = {{"on", 1.0, 1.0e9, 1.0, 0.5, false}, {"off", 0.7, 0.2e9, 0.05, 0.5, true}};
  DomainSpec ivr_dom, vrm_dom;
  ivr_dom.name = "core";
  ivr_dom.power_frac = 0.5;
  ivr_dom.delivery = Delivery::OnChipIvr;
  vrm_dom.name = "uncore";
  vrm_dom.power_frac = 0.5;
  vrm_dom.delivery = Delivery::OffChipVrm;
  spec.domains = {ivr_dom, vrm_dom};

  const ScenarioReport r =
      evaluate_scenario(small_sys(), core::IvrTopology::SwitchedCapacitor, 2, spec);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.cells.size(), 4u);
  const StateEval* ivr_gated = nullptr;
  const StateEval* vrm_gated = nullptr;
  for (const StateEval& c : r.cells) {
    if (!c.gated) continue;
    if (c.delivery == Delivery::OnChipIvr) ivr_gated = &c;
    if (c.delivery == Delivery::OffChipVrm) vrm_gated = &c;
  }
  ASSERT_NE(ivr_gated, nullptr);
  ASSERT_NE(vrm_gated, nullptr);
  // A power-gated IVR domain is disconnected: no output, no input.
  EXPECT_EQ(ivr_gated->p_out_w, 0.0);
  EXPECT_EQ(ivr_gated->p_in_w, 0.0);
  // A power-gated VRM domain still pays the board converter's fixed loss.
  EXPECT_EQ(vrm_gated->p_out_w, 0.0);
  EXPECT_GT(vrm_gated->p_in_w, 0.0);
}

TEST(Scenario, VrmOnlyScenarioSkipsTheIvrDesign) {
  ScenarioSpec spec = fast_spec();
  DomainSpec dom;
  dom.name = "core";
  dom.power_frac = 1.0;
  dom.delivery = Delivery::OffChipVrm;
  spec.domains = {dom};
  const ScenarioReport r =
      evaluate_scenario(small_sys(), core::IvrTopology::SwitchedCapacitor, 2, spec);
  EXPECT_FALSE(r.has_ivr);
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.weighted_efficiency, 0.0);
}

TEST(Scenario, DigitalLdoTopologyReachesEndToEnd) {
  core::SystemParams sys = small_sys();
  sys.vin_v = 1.5;  // Low dropout: the regime linear regulators are for.
  SweepReport report;
  const ScenarioReport r = evaluate_scenario(sys, core::IvrTopology::DigitalLdo, 2,
                                             fast_spec(), &report);
  ASSERT_TRUE(r.has_ivr);
  EXPECT_EQ(r.design.topology, core::IvrTopology::DigitalLdo);
  EXPECT_TRUE(r.design.feasible);
  // A linear pass device cannot beat vout/vin.
  for (const StateEval& c : r.cells) {
    if (!c.gated) {
      EXPECT_LE(c.efficiency, c.v_v / sys.vin_v + 1e-12);
    }
  }
}

/// The race-to-halt preset over hybrid delivery: an IVR core domain next to
/// a board-VRM uncore domain, three states each, the halt state power-gated.
ScenarioSpec hybrid_race_to_halt_spec() {
  ScenarioSpec spec = fast_spec();
  spec.name = "race-to-halt";
  spec.states = workload::residency_preset("race-to-halt");
  DomainSpec core_dom, uncore_dom;
  core_dom.name = "core";
  core_dom.power_frac = 0.75;
  core_dom.delivery = Delivery::OnChipIvr;
  uncore_dom.name = "uncore";
  uncore_dom.power_frac = 0.25;
  uncore_dom.delivery = Delivery::OffChipVrm;
  spec.domains = {core_dom, uncore_dom};
  return spec;
}

TEST(Scenario, BytesIdenticalAcrossThreadCounts) {
  const core::SystemParams sys = small_sys();
  for (const ScenarioSpec& spec : {fast_spec(), hybrid_race_to_halt_spec()}) {
    std::string reference;
    for (const unsigned threads : {1u, 2u, 4u}) {
      par::set_global_threads(threads);
      const ScenarioReport r =
          evaluate_scenario(sys, core::IvrTopology::SwitchedCapacitor, 2, spec);
      const std::string bytes = to_json(r).write_canonical();
      if (reference.empty()) {
        reference = bytes;
        EXPECT_TRUE(r.complete) << spec.name;
        EXPECT_EQ(r.cells.size(), spec.states.size() * spec.domains.size()) << spec.name;
      } else {
        EXPECT_EQ(bytes, reference) << spec.name << ": thread count " << threads
                                    << " changed bytes";
      }
    }
  }
  par::set_global_threads(1);
}

TEST(Scenario, InfeasibleStateIsQuarantinedNotFatal) {
  // A step-down SC ratio picked for 1.0 V cannot regulate *up* to 3.2 V:
  // that cell dies inside its quarantine, the rest of the sweep survives,
  // and the report carries the diagnostics.
  ScenarioSpec spec = fast_spec();
  spec.states = {{"hi", 1.0, 1.0e9, 1.0, 0.5, false}, {"deep", 3.2, 1.5e9, 1.0, 0.5, false}};
  SweepReport report;
  const ScenarioReport r = evaluate_scenario(
      small_sys(), core::IvrTopology::SwitchedCapacitor, 2, spec, &report);
  EXPECT_FALSE(r.complete);
  ASSERT_EQ(report.skips.size(), 1u);
  EXPECT_EQ(report.skips[0].code, ErrorCode::InvalidParameter);
  EXPECT_NE(report.skips[0].detail.find("deep"), std::string::npos);
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_EQ(r.cells[0].state, "hi");
}

}  // namespace
}  // namespace ivory::scenario
