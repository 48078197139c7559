#include "service/session.hpp"

#include <chrono>
#include <exception>

namespace tl::service {

namespace {

/// Dispatch-delay histogram bounds (pops). The fairness bound for default
/// configs lands in the hundreds, so the top finite bucket sits at 512.
constexpr double kWaitBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};

}  // namespace

JobResult Session::run(const Job& job) {
  JobResult result;
  result.id = job.id;
  result.tenant = job.tenant;
  result.priority = job.priority;
  result.scenario = job.scenario;

  result.resume_attempts = job.resume_attempts;

  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const dist::Snapshot> last_snap;
  try {
    ScenarioHooks hooks;
    hooks.host_threads = config_.host_threads;
    if (job.scenario.settings.nranks > 1) {
      dist::RunControl& ctl = hooks.control;
      ctl.faults = job.faults;
      // Each resume attempt advances the fault epoch: the schedule hash
      // changes, so a deterministic hard failure does not recur forever.
      ctl.faults.epoch = job.resume_attempts;
      if (job.resumable) {
        ctl.checkpoint_every = 1;
        ctl.on_checkpoint = [&last_snap](const dist::Snapshot& snap) {
          last_snap = std::make_shared<dist::Snapshot>(snap);
        };
        ctl.resume = job.resume_from.get();
      }
    }
    const ScenarioOutcome outcome = run_scenario(job.scenario, hooks);

    result.ok = true;
    result.sim_seconds = outcome.run.sim_total_seconds;
    result.kernel_launches = outcome.run.kernel_launches;
    result.u_checksum = outcome.u_checksum;
    result.energy_checksum = outcome.energy_checksum;
    for (const dist::RankReport& r : outcome.ranks) {
      result.comm_bytes += r.comm.bytes;
    }
    if (!outcome.run.steps.empty()) {
      const core::StepReport& last = outcome.run.steps.back();
      result.converged = last.solve.converged;
      result.final_rr = last.solve.final_rr;
    }
    for (const core::StepReport& step : outcome.run.steps) {
      result.iterations += step.solve.iterations;
      result.inner_iterations += step.solve.inner_iterations;
    }
  } catch (const comm::CommFaultError& e) {
    // Retryable: the world died on injected comm faults. Hand the last
    // snapshot back so the pool can re-enqueue the job from it.
    result.ok = false;
    result.retryable = true;
    result.error = e.what();
    result.checkpoint = std::move(last_snap);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.wall_ns = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ++jobs_run_;
  return result;
}

void Session::meter(const JobResult& result) {
  const telemetry::MetricsRegistry::Labels tenant = {
      {"tenant", result.tenant}};
  registry_.add_counter("tl_service_jobs", 1.0, tenant);
  if (!result.ok) {
    registry_.add_counter("tl_service_failures", 1.0, tenant);
    return;
  }
  registry_.add_counter("tl_service_iterations",
                        static_cast<double>(result.iterations), tenant);
  registry_.add_counter("tl_service_launches",
                        static_cast<double>(result.kernel_launches), tenant);
  registry_.add_counter("tl_service_sim_seconds", result.sim_seconds, tenant);
  registry_.add_counter("tl_service_comm_bytes",
                        static_cast<double>(result.comm_bytes), tenant);
  registry_.observe("tl_service_wait_pops",
                    static_cast<double>(result.wait_pops), kWaitBounds,
                    tenant);
}

}  // namespace tl::service
