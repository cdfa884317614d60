// JSON serializers for the analysis results, sweep reports and diagnostics —
// the machine-readable counterpart of the ASCII tables the CLI prints.
//
// These are the hooks the batch-evaluation service (src/serve) uses to build
// response payloads. Determinism contract: each serializer emits members in
// a fixed order with shortest-round-trip number formatting, so serializing
// the same result twice produces byte-identical JSON — a prerequisite for
// the content-addressed result cache's "cached == cold bytes" guarantee.
// Values that may legitimately be non-finite are not expected here: every
// model boundary is already IVORY_CHECK_FINITE-guarded, and json::write
// throws on NaN/Inf as a last line of defense.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/outcome.hpp"
#include "core/dynamic.hpp"
#include "core/optimizer.hpp"
#include "core/pareto.hpp"
#include "core/pds.hpp"
#include "spice/analysis.hpp"

namespace ivory {

/// {"code":..., "site":..., "candidate":..., "detail":...}
json::Value to_json(const Diagnostics& d);

/// {"n_evaluated":..., "n_survived":..., "n_skipped":..., "skips":[...]}
json::Value to_json(const SweepReport& r);

namespace core {

const char* sc_family_name(ScFamily f);

json::Value to_json(const ScDesign& d);
json::Value to_json(const BuckDesign& d);
json::Value to_json(const LdoDesign& d);
json::Value to_json(const DldoDesign& d);

json::Value to_json(const ScAnalysis& a);
json::Value to_json(const ScRegulated& r);
json::Value to_json(const BuckAnalysis& a);
json::Value to_json(const LdoAnalysis& a);
json::Value to_json(const DldoAnalysis& a);

/// Includes the concrete per-topology design ("design" member) so a client
/// can feed an optimizer result straight back into a static or transient
/// request.
json::Value to_json(const DseResult& r);
json::Value to_json(const TwoStageResult& r);
json::Value to_json(const PdsBreakdown& b);

/// Multi-fidelity funnel frontier. Deliberately excluded from the JSON:
/// wall times (screen_s/sim_s) and the cache provenance flags (sim_cached,
/// sim_cache_hits/misses), so a warm-cache re-run serializes byte-identical
/// to the cold run — the invariant the content-addressed serve cache and
/// the incremental re-exploration tests assert on. Cache counters remain
/// observable through funnel_sim_cache_stats().
json::Value to_json(const ParetoPoint& p);
json::Value to_json(const ParetoFront& f);

/// Transient simulation result: simulator-cost counters (steps taken, LU
/// factorizations, keyed-cache hits/evictions/high-water mark) plus per-node
/// settled statistics; the full time/voltage traces only when
/// `include_waveforms` (they dominate the payload). `node_names[i]` labels
/// `r.nodes[i]`.
json::Value to_json(const spice::TranResult& r, const std::vector<std::string>& node_names,
                    bool include_waveforms);

/// The summary of one recorded node, folded sample by sample: min/max over
/// every sample, the sum in arrival order. Every surface of the transient
/// reply (the buffered reply, the streamed END, `ivory transient`'s table)
/// folds with this, so they agree bit for bit.
struct NodeStats {
  double lo = 0.0, hi = 0.0, sum = 0.0, last = 0.0;
  std::size_t n = 0;

  void add(double s) {
    if (n == 0) lo = hi = s;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    sum += s;
    last = s;
    ++n;
  }
  double final_v() const { return n ? last : 0.0; }
  double mean_v() const { return n ? sum / static_cast<double>(n) : 0.0; }

  static NodeStats of(const std::vector<double>& v) {
    NodeStats s;
    for (const double x : v) s.add(x);
    return s;
  }
};

/// The transient reply's leading members: the simulator-cost counters of
/// `r`, then "n_points" (the recorded row count, which a streamed run
/// passes since its samples left the result).
json::Value::Object tran_counters(const spice::TranResult& r, std::size_t n_points);

/// One "nodes" entry of the transient reply without its waveform:
/// node, final_v, mean_v, min_v, max_v.
json::Value::Object node_summary(const std::string& name, const NodeStats& s);

}  // namespace core
}  // namespace ivory
