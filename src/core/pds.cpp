#include "core/pds.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace ivory::core {

namespace {

// Extra core power burned to run at v_actual instead of v_nom: dynamic power
// scales with V^2 at fixed frequency (the paper's case study compares
// configurations "without any performance loss", i.e. same clocks).
double core_power_at(double p_nominal_w, double v_nom_v, double v_actual_v) {
  const double ratio = v_actual_v / v_nom_v;
  return p_nominal_w * ratio * ratio;
}

double series_pdn_resistance(const pdn::PdnParams& p) {
  return p.board.r_ohm + p.package.r_ohm + p.c4.r_ohm;
}

void check_inputs(const SystemParams& sys, double v_core_nom_v, double guardband_v) {
  IVORY_CHECK_FINITE(v_core_nom_v, "evaluate_pds");
  IVORY_CHECK_FINITE(guardband_v, "evaluate_pds");
  IVORY_CHECK_FINITE(sys.p_load_w, "evaluate_pds");
  require(v_core_nom_v > 0.0, "evaluate_pds: core voltage must be positive");
  require(guardband_v >= 0.0, "evaluate_pds: guardband must be non-negative");
  require(sys.p_load_w > 0.0, "evaluate_pds: load power must be positive");
}

}  // namespace

PdsBreakdown evaluate_pds_offchip(const SystemParams& sys, const pdn::PdnParams& pdn_params,
                                  double v_core_nom_v, double guardband_v) {
  check_inputs(sys, v_core_nom_v, guardband_v);

  PdsBreakdown b;
  b.v_core_actual_v = v_core_nom_v + guardband_v + fault::inject("pds");
  b.p_core_useful_w = sys.p_load_w;
  const double p_core = core_power_at(sys.p_load_w, v_core_nom_v, b.v_core_actual_v);
  b.p_guardband_w = p_core - sys.p_load_w;

  // The full core current crosses the whole network at core voltage.
  const double i_core = p_core / b.v_core_actual_v;
  b.p_pdn_ir_w = i_core * i_core * series_pdn_resistance(pdn_params);
  b.p_grid_ir_w = i_core * i_core * pdn_params.grid_r_ohm;

  const double p_vrm_out = p_core + b.p_pdn_ir_w + b.p_grid_ir_w;
  const pdn::VrmModel vrm = pdn::VrmModel::board_vrm(b.v_core_actual_v, i_core);
  b.p_total_w = vrm.input_power(p_vrm_out);
  b.p_vrm_loss_w = b.p_total_w - p_vrm_out;
  b.efficiency = b.p_core_useful_w / b.p_total_w;
  IVORY_CHECK_FINITE(b.p_total_w, "evaluate_pds_offchip");
  IVORY_CHECK_FINITE(b.efficiency, "evaluate_pds_offchip");
  return b;
}

PdsBreakdown evaluate_pds_ivr(const SystemParams& sys, const pdn::PdnParams& pdn_params,
                              const DseResult& ivr, double v_core_nom_v, double guardband_v) {
  check_inputs(sys, v_core_nom_v, guardband_v);
  require(ivr.feasible, "evaluate_pds_ivr: IVR design is infeasible");
  require(ivr.efficiency > 0.0 && ivr.efficiency < 1.0,
          "evaluate_pds_ivr: IVR efficiency out of range");

  PdsBreakdown b;
  b.v_core_actual_v = v_core_nom_v + guardband_v + fault::inject("pds");
  b.p_core_useful_w = sys.p_load_w;
  const double p_core = core_power_at(sys.p_load_w, v_core_nom_v, b.v_core_actual_v);
  b.p_guardband_w = p_core - sys.p_load_w;

  // Output-side grid: each of n domains carries 1/n of the current over its
  // local slice, so total grid loss scales as 1/n.
  const double i_core = p_core / b.v_core_actual_v;
  b.p_grid_ir_w =
      i_core * i_core * pdn_params.grid_r_ohm / static_cast<double>(ivr.n_distributed);

  const double p_ivr_out = p_core + b.p_grid_ir_w;
  const double p_ivr_in = p_ivr_out / ivr.efficiency;
  b.p_ivr_loss_w = p_ivr_in - p_ivr_out;

  // Input side crosses the PDN at the high rail: much lower current.
  const double i_in = p_ivr_in / sys.vin_v;
  b.p_pdn_ir_w = i_in * i_in * series_pdn_resistance(pdn_params);

  const double p_vrm_out = p_ivr_in + b.p_pdn_ir_w;
  const pdn::VrmModel vrm = pdn::VrmModel::board_vrm(sys.vin_v, i_in);
  b.p_total_w = vrm.input_power(p_vrm_out);
  b.p_vrm_loss_w = b.p_total_w - p_vrm_out;
  b.efficiency = b.p_core_useful_w / b.p_total_w;
  IVORY_CHECK_FINITE(b.p_total_w, "evaluate_pds_ivr");
  IVORY_CHECK_FINITE(b.efficiency, "evaluate_pds_ivr");
  return b;
}

PdsComparison compare_pds(const SystemParams& sys, int n_distributed, double v_core_nom_v,
                          double guard_off_v, double guard_ivr_v) {
  PdsComparison c;
  c.ivr = optimize_topology(sys, IvrTopology::SwitchedCapacitor, n_distributed);
  require(c.ivr.feasible, "pds: no feasible IVR design for these constraints");
  const pdn::PdnParams pdn_params = pdn::PdnParams::gpuvolt_default();
  c.offchip = evaluate_pds_offchip(sys, pdn_params, v_core_nom_v, guard_off_v);
  c.on_ivr = evaluate_pds_ivr(sys, pdn_params, c.ivr, v_core_nom_v, guard_ivr_v);
  c.improvement_points = (c.on_ivr.efficiency - c.offchip.efficiency) * 100.0;
  return c;
}

}  // namespace ivory::core
