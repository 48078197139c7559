#pragma once
// Collectors: fold the already-aggregated CommStats / RunReport structures
// the dist and core layers produce anyway into the MetricsRegistry. The
// per-event metrics come from ReportBuilder::on_event, which hangs off the
// shared SimClock trace hook, so all six ports and PhantomKernels meter
// identically with zero per-port code.

#include "core/driver.hpp"
#include "dist/kernels.hpp"
#include "telemetry/metrics_registry.hpp"

namespace tl::telemetry {

/// Launch-factor histogram bucket bounds (scheduler efficiency: 1.0 = a
/// perfectly static schedule; the paper's dynamic-scheduling overheads land
/// in the 1.0-1.5 range).
inline constexpr double kLaunchFactorBounds[] = {1.0,  1.02, 1.05, 1.1,
                                                 1.25, 1.5,  2.0};

/// Per-rank comm/overlap tallies as rank-labelled counters
/// (tl_rank_halo_exchanges{rank="0"}, tl_rank_comm_bytes{...},
/// tl_rank_exposed_ns / tl_rank_hidden_ns, ...).
void collect_comm(MetricsRegistry& registry, int rank,
                  const dist::CommStats& stats);

/// Solve outcome: tl_steps, tl_solver_iterations / inner / fused / classic
/// counters plus tl_converged / tl_final_rr gauges from the last step.
void collect_solve(MetricsRegistry& registry, const core::RunReport& run);

}  // namespace tl::telemetry
