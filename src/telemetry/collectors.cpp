#include "telemetry/collectors.hpp"

#include "util/string_util.hpp"

namespace tl::telemetry {

void collect_comm(MetricsRegistry& registry, int rank,
                  const dist::CommStats& stats) {
  const MetricsRegistry::Labels labels = {
      {"rank", util::strf("%d", rank)}};
  registry.add_counter("tl_rank_halo_exchanges",
                       static_cast<double>(stats.halo_exchanges), labels);
  registry.add_counter("tl_rank_allreduces",
                       static_cast<double>(stats.allreduces), labels);
  registry.add_counter("tl_rank_comm_bytes",
                       static_cast<double>(stats.bytes), labels);
  registry.add_counter("tl_rank_exposed_ns", stats.comm_ns, labels);
  registry.add_counter("tl_rank_overlapped_exchanges",
                       static_cast<double>(stats.overlapped_exchanges),
                       labels);
  registry.add_counter("tl_rank_hidden_ns", stats.hidden_ns, labels);
}

void collect_solve(MetricsRegistry& registry, const core::RunReport& run) {
  registry.add_counter("tl_steps", static_cast<double>(run.steps.size()));
  for (const core::StepReport& step : run.steps) {
    registry.add_counter("tl_solver_iterations",
                         static_cast<double>(step.solve.iterations));
    registry.add_counter("tl_solver_inner_iterations",
                         static_cast<double>(step.solve.inner_iterations));
    registry.add_counter("tl_fused_iterations",
                         static_cast<double>(step.solve.fused_iterations));
    registry.add_counter("tl_classic_iterations",
                         static_cast<double>(step.solve.classic_iterations));
  }
  if (!run.steps.empty()) {
    const core::SolveStats& last = run.steps.back().solve;
    registry.set_gauge("tl_converged", last.converged ? 1.0 : 0.0);
    registry.set_gauge("tl_final_rr", last.final_rr);
  }
}

}  // namespace tl::telemetry
