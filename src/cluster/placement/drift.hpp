// Cost-model drift auditor (DESIGN.md §15): compares the PlacementCostModel's
// predicted per-term round decomposition against the measured round
// attribution of the engine it claims to price, term by term.
//
// The cost model and the round engine deliberately share their pricing
// formulas, so on a fault-free run the drift is float-rounding noise; the
// auditor exists to keep it that way.  Any future change that edits one side
// without the other — a new network term, a different host-pass count —
// shows up as per-term relative error, and the placement_sweep CI gate
// refuses it.  Straggler wait and stale overhead are measured-only terms
// (the cost model prices a fault-free round), so the comparison covers
// compute/host/pcie/network plus their fault-free-comparable total.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/placement/cost_model.hpp"
#include "obs/attribution.hpp"

namespace tpa::cluster::placement {

struct DriftTerm {
  std::string name;
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;
  /// |predicted − measured| with a bounded denominator: max(measured term,
  /// 1% of the measured comparable total), so a near-zero term (pcie on a
  /// CPU fleet) cannot blow the ratio up over rounding noise.
  double rel_error = 0.0;
};

struct DriftReport {
  std::vector<DriftTerm> terms;  // compute, host, pcie, network, total
  double max_rel_error = 0.0;
  std::uint64_t rounds = 0;
};

/// Audits `predicted` (one round) against the engine's cumulative measured
/// attribution over `rounds` rounds (per-round means are compared).
/// Returns an empty report when rounds == 0.
DriftReport audit_placement_drift(const obs::RoundAttribution& predicted,
                                  const obs::RoundAttribution& measured_totals,
                                  std::uint64_t rounds);

/// Records the report as placement.drift.* gauges: per-term
/// predicted/measured seconds and relative error, plus the max.
void record_drift_obs(const DriftReport& report);

/// Human-readable per-term table, e.g. for placement_sweep / tpascd_train.
void print_drift_report(std::ostream& out, const DriftReport& report);

}  // namespace tpa::cluster::placement
