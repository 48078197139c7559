#pragma once
// Collectors: the glue between existing instrumentation seams and the
// MetricsRegistry. Nothing here touches any port: RegistrySink hangs off
// the shared SimClock trace hook (so all six ports and PhantomKernels meter
// identically with zero per-port code), and the collect_* helpers fold the
// already-aggregated CommStats / RunReport structures the dist and core
// layers produce anyway.

#include "core/driver.hpp"
#include "dist/kernels.hpp"
#include "sim/trace.hpp"
#include "telemetry/metrics_registry.hpp"

namespace tl::telemetry {

/// Launch-factor histogram bucket bounds (scheduler efficiency: 1.0 = a
/// perfectly static schedule; the paper's dynamic-scheduling overheads land
/// in the 1.0-1.5 range).
inline constexpr double kLaunchFactorBounds[] = {1.0,  1.02, 1.05, 1.1,
                                                 1.25, 1.5,  2.0};

/// TraceSink that folds each event into registry counters as it arrives:
///   tl_launches / tl_kernel_ns / tl_kernel_bytes   every metered launch
///   tl_comm_events / tl_comm_ns / tl_comm_bytes    the "comm"-phase subset
///   tl_transfers / tl_transfer_ns / tl_transfer_bytes   host<->device
///   tl_overlap_events / tl_overlap_hidden_ns       trace-only hidden comm
///   tl_launch_factor (histogram)                   compute launches only
/// Single-writer like the registry itself: attach one sink per rank/clock.
class RegistrySink final : public sim::TraceSink {
 public:
  explicit RegistrySink(MetricsRegistry& registry) : registry_(&registry) {}

  void on_event(const sim::TraceEvent& event) override;

 private:
  MetricsRegistry* registry_;
};

/// Per-rank comm/overlap tallies as rank-labelled counters
/// (tl_rank_halo_exchanges{rank="0"}, tl_rank_comm_bytes{...},
/// tl_rank_exposed_ns / tl_rank_hidden_ns, ...).
void collect_comm(MetricsRegistry& registry, int rank,
                  const dist::CommStats& stats);

/// Solve outcome: tl_steps, tl_solver_iterations / inner / fused / classic
/// counters plus tl_converged / tl_final_rr gauges from the last step.
void collect_solve(MetricsRegistry& registry, const core::RunReport& run);

}  // namespace tl::telemetry
