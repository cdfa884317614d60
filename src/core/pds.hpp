// Power-delivery-subsystem composition (paper Sections 2.2, 5.4).
//
// Combines the off-chip VRM, the board/package/C4/grid PDN, optional on-chip
// IVRs, and the voltage guardband required by the measured supply noise into
// an end-to-end power-delivery efficiency with a per-component breakdown —
// the quantity Fig. 13 of the paper reports. "The power efficiency is the
// percentage of power consumed by cores that perform the actual computation
// over total power."
#pragma once

#include "core/optimizer.hpp"
#include "pdn/pdn.hpp"

namespace ivory::core {

/// End-to-end PDS power breakdown [W] and efficiency.
struct PdsBreakdown {
  double v_core_actual_v = 0.0;  ///< Nominal + guardband actually applied.
  double p_core_useful_w = 0.0;  ///< Work-equivalent power at nominal voltage.
  double p_guardband_w = 0.0;    ///< Extra core power burned by the margin.
  double p_grid_ir_w = 0.0;      ///< On-chip grid conduction loss.
  double p_pdn_ir_w = 0.0;       ///< Board + package + C4 conduction loss.
  double p_ivr_loss_w = 0.0;     ///< IVR conversion loss (0 for off-chip PDS).
  double p_vrm_loss_w = 0.0;     ///< Off-chip VRM conversion loss.
  double p_total_w = 0.0;        ///< Input power drawn from the VRM's source.
  double efficiency = 0.0;       ///< p_core_useful / p_total.
};

/// Conventional PDS: the off-chip VRM regulates the core voltage directly
/// and the full core current crosses the PDN. `guardband_v` is the margin
/// the measured noise requires on top of `v_core_nom`.
PdsBreakdown evaluate_pds_offchip(const SystemParams& sys, const pdn::PdnParams& pdn_params,
                                  double v_core_nom_v, double guardband_v);

/// IVR-based PDS: the VRM delivers sys.vin_v (e.g. 3.3 V) across the PDN at
/// proportionally lower current; `ivr` (from the optimizer) converts on-die.
/// `guardband_v` is the residual margin after the IVR's regulation (from the
/// dynamic analysis of the chosen distribution count).
PdsBreakdown evaluate_pds_ivr(const SystemParams& sys, const pdn::PdnParams& pdn_params,
                              const DseResult& ivr, double v_core_nom_v, double guardband_v);

/// The paper's PDS comparison (Fig. 13): the SC IVR the optimizer picks for
/// `sys` at `n_distributed` domains, and both compositions on the GPUVolt
/// PDN — the off-chip VRM at `guard_off_v`, the IVR at `guard_ivr_v`.
struct PdsComparison {
  DseResult ivr;
  PdsBreakdown offchip;
  PdsBreakdown on_ivr;
  double improvement_points = 0.0;  ///< IVR minus off-chip efficiency, in points.
};

/// Throws InvalidParameter "pds: no feasible IVR design for these
/// constraints" when the optimizer finds no feasible SC design.
PdsComparison compare_pds(const SystemParams& sys, int n_distributed, double v_core_nom_v,
                          double guard_off_v, double guard_ivr_v);

}  // namespace ivory::core
