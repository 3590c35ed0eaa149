#include "cluster/placement/drift.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/metrics_registry.hpp"
#include "util/table.hpp"

namespace tpa::cluster::placement {

DriftReport audit_placement_drift(const obs::RoundAttribution& predicted,
                                  const obs::RoundAttribution& measured_totals,
                                  std::uint64_t rounds) {
  DriftReport report;
  report.rounds = rounds;
  if (rounds == 0) return report;
  const double inv = 1.0 / static_cast<double>(rounds);

  // Per-round measured means for the terms the cost model prices; straggler
  // wait and stale overhead are fault-time, outside the model's scope.
  const double measured[4] = {
      measured_totals.compute_seconds * inv,
      measured_totals.host_seconds * inv,
      measured_totals.pcie_seconds * inv,
      measured_totals.network_seconds * inv,
  };
  const double predicted_terms[4] = {
      predicted.compute_seconds,
      predicted.host_seconds,
      predicted.pcie_seconds,
      predicted.network_seconds,
  };
  const double measured_total =
      measured[0] + measured[1] + measured[2] + measured[3];
  const double floor = 0.01 * measured_total;

  const char* names[4] = {"compute", "host", "pcie", "network"};
  for (int i = 0; i < 4; ++i) {
    DriftTerm term;
    term.name = names[i];
    term.predicted_seconds = predicted_terms[i];
    term.measured_seconds = measured[i];
    const double denom = std::max(measured[i], floor);
    term.rel_error = denom > 0.0
                         ? std::abs(predicted_terms[i] - measured[i]) / denom
                         : 0.0;
    report.max_rel_error = std::max(report.max_rel_error, term.rel_error);
    report.terms.push_back(std::move(term));
  }

  DriftTerm total;
  total.name = "total";
  total.predicted_seconds = predicted.total();
  total.measured_seconds = measured_total;
  total.rel_error =
      measured_total > 0.0
          ? std::abs(total.predicted_seconds - measured_total) / measured_total
          : 0.0;
  report.max_rel_error = std::max(report.max_rel_error, total.rel_error);
  report.terms.push_back(std::move(total));
  return report;
}

void record_drift_obs(const DriftReport& report) {
  auto& registry = obs::metrics();
  for (const auto& term : report.terms) {
    registry.gauge("placement.drift.predicted." + term.name + "_seconds")
        .set(term.predicted_seconds);
    registry.gauge("placement.drift.measured." + term.name + "_seconds")
        .set(term.measured_seconds);
    registry.gauge("placement.drift." + term.name + "_rel_error")
        .set(term.rel_error);
  }
  registry.gauge("placement.drift.max_rel_error").set(report.max_rel_error);
  registry.gauge("placement.drift.rounds")
      .set(static_cast<double>(report.rounds));
}

void print_drift_report(std::ostream& out, const DriftReport& report) {
  out << "cost-model drift (" << report.rounds << " rounds measured)\n";
  util::Table table({"term", "predicted s/round", "measured s/round",
                     "rel error"});
  for (const auto& term : report.terms) {
    table.begin_row();
    table.add_cell(term.name);
    table.add_number(term.predicted_seconds);
    table.add_number(term.measured_seconds);
    table.add_number(term.rel_error);
  }
  table.print(out);
}

}  // namespace tpa::cluster::placement
