// Scenario engine: residency-weighted evaluation of a power-delivery design
// across a distribution of power states, FlexWatts-style (PAPERS.md).
//
// A scenario is a set of named power states (V/f point, activity, residency,
// optional power gating) shared by one or more load domains. Each domain
// chooses its delivery path: an on-chip IVR (the optimizer's design, shared
// pro rata by all IVR domains) or an off-chip board VRM whose current
// crosses the full PDN. A candidate design is then scored as the
// residency-weighted mix over every (domain, state) cell —
//
//   eta_weighted = sum(res * p_out) / sum(res * p_in)
//
// so power-gated idle states contribute their idle loss with zero useful
// output (the IVR power-gates to ~0; the shared board VRM cannot and keeps
// burning its fixed loss), and droop is the worst tail peak-to-peak of the
// per-cell dynamic response. Cells evaluate under per-candidate quarantine
// with a serial index-order merge, so results are byte-identical at any
// thread count and cacheable by content hash like every other sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/outcome.hpp"
#include "core/optimizer.hpp"
#include "workload/workload.hpp"

namespace ivory::scenario {

enum class Delivery { OnChipIvr, OffChipVrm };
const char* delivery_name(Delivery d);
Delivery delivery_from_string(const std::string& s);  ///< "ivr" | "vrm".

/// One load domain: its share of the system's nominal power, its delivery
/// path, and the benchmark shaping its synthesized activity trace.
struct DomainSpec {
  std::string name = "core";
  double power_frac = 1.0;  ///< Share of sys.p_load_w at the nominal state.
  Delivery delivery = Delivery::OnChipIvr;
  workload::Benchmark benchmark = workload::Benchmark::CFD;
};

struct ScenarioSpec {
  std::string name = "custom";
  std::vector<workload::PowerStateSpec> states;
  std::vector<DomainSpec> domains{DomainSpec{}};
  double f_nom_hz = 1e9;     ///< Nominal clock of the digital load model.
  double duration_s = 20e-6; ///< Synthesized trace length per (domain, state).
  double dt_s = 2e-9;
  std::uint64_t seed = 1;
};

/// One evaluated (domain, state) cell.
struct StateEval {
  std::string domain;
  std::string state;
  Delivery delivery = Delivery::OnChipIvr;
  bool gated = false;
  double residency = 0.0;
  double v_v = 0.0, f_hz = 0.0;
  double i_avg_a = 0.0;      ///< Mean domain load current at the state's V/f.
  double p_out_w = 0.0;      ///< Useful power delivered (0 while gated).
  double p_in_w = 0.0;       ///< Power drawn from the input source.
  double efficiency = 0.0;   ///< p_out / p_in (0 while gated).
  double droop_pp_v = 0.0;   ///< Settled peak-to-peak of the dynamic response.
};

struct ScenarioReport {
  std::string scenario;
  bool complete = true;      ///< False when any cell was quarantined away.
  bool has_ivr = false;
  core::DseResult design;    ///< IVR design shared by the IVR domains.
  std::vector<StateEval> cells;  ///< Domain-major, state-minor order.
  double weighted_efficiency = 0.0;
  double p_out_avg_w = 0.0;  ///< Residency-weighted useful power.
  double p_in_avg_w = 0.0;   ///< Residency-weighted input power.
  double worst_droop_pp_v = 0.0;
  double area_m2 = 0.0;      ///< On-chip area of the IVR design (0 if none).
};

/// Optimizes `topo` for the IVR domains' share of the load, then scores it
/// across every (domain, state) cell of the scenario. Cell evaluations are
/// quarantined: a cell the design cannot serve (e.g. regulation infeasible at
/// that V/f) is recorded as a structured skip in `report`, excluded from the
/// weighted aggregates, and clears `complete`. Throws only on invalid input
/// or when every cell dies.
ScenarioReport evaluate_scenario(const core::SystemParams& sys, core::IvrTopology topo,
                                 int n_distributed, const ScenarioSpec& spec,
                                 SweepReport* report = nullptr);

/// Deterministic member-order serializer (see core/report_json.hpp contract).
json::Value to_json(const ScenarioReport& r);

}  // namespace ivory::scenario
