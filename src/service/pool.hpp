#pragma once
// SolveService: the multi-tenant worker pool over the JobQueue.
//
// Two lanes partition the workers by job size, so a burst of cheap meshes
// can never head-of-line-block a big one and vice versa:
//
//   small lane   meshes below `large_cells_threshold`. Workers dispatch in
//                tenant-pure batches (up to batch_max jobs of one tenant per
//                scheduling decision) to amortise dispatch overhead across
//                the many tiny solves a busy tenant submits.
//   large lane   dedicated workers popping one job at a time — a large mesh
//                owns its worker for the duration.
//
// Every worker owns a Session (single-writer per-tenant MetricsRegistry
// slice). submit() assigns ids and blocks when
// the target lane is full (bounded admission); finish() closes both lanes,
// joins the workers — draining every in-flight and queued job — and folds
// results, tenant summaries (deterministically, sorted by job id), and the
// pairwise-combined registry slices into a ServiceReport.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/queue.hpp"
#include "service/session.hpp"
#include "tune/planner.hpp"

namespace tl::service {

/// Opt-in predicted-cost scheduling (DESIGN.md §15). When enabled, submit()
/// fills any planner-free scenario fields (Job::plan_*_free) with the
/// catalog argmin via tune::choose_config, and lane routing switches from
/// the static cell-count rule to the predicted solve seconds — a 2048^2
/// ten-iteration sweep no longer outranks a 128^2 full convergence run just
/// because it has more cells. Jobs the predictor has no basis for fall back
/// to the static rule, so an incomplete catalog degrades to today's
/// behaviour rather than misrouting. Decisions are metered as tl_planner_*
/// counters in the final report.
struct PlannerOptions {
  bool enabled = false;
  /// Fitted tl-models-1 catalog (tl_plan fit) the planner scores with.
  /// Required when enabled.
  std::shared_ptr<const tune::ModelCatalog> catalog;
  /// Predicted solve seconds at or above which a job takes the large lane.
  double large_seconds_threshold = 1e-3;
};

struct ServiceConfig {
  int small_workers = 3;
  int large_workers = 1;
  std::size_t queue_capacity = 256;   // per lane
  std::uint64_t aging_interval = 16;  // pops per priority-level boost
  std::size_t batch_max = 8;          // small-lane tenant-pure batch limit
  int large_cells_threshold = 96 * 96;  // nx*ny at or above => large lane
                                        // (planner-off and fallback routing)
  unsigned host_threads = 1;          // HostPool width per rank port
  PlannerOptions planner;             // off by default

  void validate() const;  // throws std::invalid_argument on nonsense
};

/// Per-tenant rollup, computed from the result list sorted by job id so the
/// numbers are byte-identical no matter how jobs landed on workers.
struct TenantSummary {
  std::string tenant;
  std::uint64_t jobs = 0;
  std::uint64_t failures = 0;
  std::uint64_t converged = 0;
  std::uint64_t iterations = 0;
  std::uint64_t inner_iterations = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t comm_bytes = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;         // schedule-dependent (informational)
  std::uint64_t max_wait_pops = 0;   // schedule-dependent (informational)
};

struct ServiceReport {
  std::vector<JobResult> results;      // sorted by job id
  std::vector<TenantSummary> tenants;  // sorted by tenant name
  QueueStats small_queue;
  QueueStats large_queue;
  std::uint64_t fairness_bound = 0;  // max over both lanes
  double wall_seconds = 0.0;         // service construction -> drain complete
  telemetry::MetricsRegistry metrics;  // worker slices, pairwise-combined

  bool all_ok() const noexcept;
  std::uint64_t max_wait_pops() const noexcept;
};

/// Builds the tenant rollups from `results` (any order; the fold sorts a
/// copy of the index by job id first).
std::vector<TenantSummary> summarize_tenants(
    const std::vector<JobResult>& results);

class SolveService {
 public:
  explicit SolveService(ServiceConfig config = {});
  /// Joins the workers if finish() was never called (results discarded).
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Assigns the job an id and enqueues it on its size lane. Blocks while
  /// the lane is full. Throws std::logic_error after finish().
  std::uint64_t submit(Job job);

  /// Closes admission, drains both lanes, joins every worker, and returns
  /// the folded report. Callable once; throws std::logic_error after that.
  ServiceReport finish();

  const ServiceConfig& config() const noexcept { return config_; }
  std::uint64_t fairness_bound() const noexcept;
  /// Lane pushes to date. Checkpoint re-enqueues of resumable jobs count
  /// too, so under fault injection this can exceed the submit() call count.
  std::uint64_t submitted() const noexcept;

 private:
  void worker_main(int worker_index, JobQueue& lane, std::size_t batch_max);
  /// Planner path of submit(): fills the job's free fields from the catalog
  /// argmin and returns whether the predicted cost routes it to the large
  /// lane. Called under submit_mutex_ — planner_metrics_ stays
  /// single-writer because submit is the only producer.
  bool plan_and_route(Job& job);

  ServiceConfig config_;
  JobQueue small_lane_;
  JobQueue large_lane_;
  std::vector<Session> sessions_;  // one per worker, owned before spawn
  std::vector<std::thread> workers_;

  std::mutex results_mutex_;
  std::vector<JobResult> results_;

  std::mutex submit_mutex_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_batch_ = 1;
  bool finished_ = false;
  /// tl_planner_* decision counters; written only under submit_mutex_ and
  /// folded into the report's registry when the planner is enabled.
  telemetry::MetricsRegistry planner_metrics_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tl::service
