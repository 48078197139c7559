#include "service/pool.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace tl::service {

void ServiceConfig::validate() const {
  if (small_workers < 1) {
    throw std::invalid_argument("ServiceConfig: need at least 1 small worker");
  }
  if (large_workers < 0) {
    throw std::invalid_argument("ServiceConfig: negative large workers");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ServiceConfig: zero queue capacity");
  }
  if (aging_interval == 0) {
    throw std::invalid_argument("ServiceConfig: zero aging interval");
  }
  if (batch_max == 0) {
    throw std::invalid_argument("ServiceConfig: zero batch limit");
  }
  if (large_cells_threshold < 1) {
    throw std::invalid_argument("ServiceConfig: bad large-mesh threshold");
  }
  if (host_threads == 0) {
    throw std::invalid_argument("ServiceConfig: zero host threads");
  }
  if (planner.enabled) {
    if (planner.catalog == nullptr) {
      throw std::invalid_argument(
          "ServiceConfig: planner enabled without a model catalog");
    }
    if (!(planner.large_seconds_threshold > 0.0)) {
      throw std::invalid_argument(
          "ServiceConfig: planner threshold must be positive seconds");
    }
  }
}

bool ServiceReport::all_ok() const noexcept {
  for (const JobResult& r : results) {
    if (!r.ok) return false;
  }
  return true;
}

std::uint64_t ServiceReport::max_wait_pops() const noexcept {
  std::uint64_t worst = 0;
  for (const JobResult& r : results) {
    worst = std::max(worst, r.wait_pops);
  }
  return worst;
}

std::vector<TenantSummary> summarize_tenants(
    const std::vector<JobResult>& results) {
  // Sort an index by job id so the floating-point sums accumulate in
  // submission order — byte-identical regardless of worker interleaving.
  std::vector<const JobResult*> ordered;
  ordered.reserve(results.size());
  for (const JobResult& r : results) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(),
            [](const JobResult* a, const JobResult* b) { return a->id < b->id; });

  std::map<std::string, TenantSummary> by_tenant;
  for (const JobResult* r : ordered) {
    TenantSummary& t = by_tenant[r->tenant];
    t.tenant = r->tenant;
    ++t.jobs;
    t.max_wait_pops = std::max(t.max_wait_pops, r->wait_pops);
    t.wall_seconds += r->wall_ns * 1e-9;
    if (!r->ok) {
      ++t.failures;
      continue;
    }
    if (r->converged) ++t.converged;
    t.iterations += static_cast<std::uint64_t>(r->iterations);
    t.inner_iterations += static_cast<std::uint64_t>(r->inner_iterations);
    t.kernel_launches += r->kernel_launches;
    t.comm_bytes += r->comm_bytes;
    t.sim_seconds += r->sim_seconds;
  }

  std::vector<TenantSummary> tenants;
  tenants.reserve(by_tenant.size());
  for (auto& [name, summary] : by_tenant) {
    (void)name;
    tenants.push_back(std::move(summary));
  }
  return tenants;
}

SolveService::SolveService(ServiceConfig config)
    : config_((config.validate(), config)),
      small_lane_(config.queue_capacity, config.aging_interval),
      large_lane_(config.queue_capacity, config.aging_interval),
      start_(std::chrono::steady_clock::now()) {
  const int total = config_.small_workers + config_.large_workers;
  sessions_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    sessions_.emplace_back(SessionConfig{config_.host_threads});
  }
  workers_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < config_.small_workers; ++i) {
    workers_.emplace_back([this, i] {
      worker_main(i, small_lane_, config_.batch_max);
    });
  }
  for (int i = 0; i < config_.large_workers; ++i) {
    const int wi = config_.small_workers + i;
    workers_.emplace_back([this, wi] { worker_main(wi, large_lane_, 1); });
  }
}

SolveService::~SolveService() {
  small_lane_.close();
  large_lane_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

std::uint64_t SolveService::submit(Job job) {
  bool route_large;
  {
    std::lock_guard lock(submit_mutex_);
    if (finished_) {
      throw std::logic_error("SolveService::submit: service already finished");
    }
    job.id = next_id_++;
    route_large = config_.planner.enabled
                      ? plan_and_route(job)
                      : job.scenario.cells() >= config_.large_cells_threshold;
  }
  const std::uint64_t id = job.id;
  JobQueue& lane = route_large && config_.large_workers > 0 ? large_lane_
                                                            : small_lane_;
  if (!lane.push(std::move(job))) {
    throw std::logic_error("SolveService::submit: queue closed");
  }
  return id;
}

bool SolveService::plan_and_route(Job& job) {
  const tune::ModelCatalog& catalog = *config_.planner.catalog;
  Scenario& s = job.scenario;
  planner_metrics_.add_counter("tl_planner_jobs", 1.0);

  // Per-job config selection: the tenant pins any subset, the planner fills
  // the rest with the catalog argmin. Never touches solver or numerics.
  if (job.plan_model_free || job.plan_device_free) {
    tune::PlanQuery query;
    query.nx = s.settings.nx;
    query.ny = s.settings.ny;
    query.solver = std::string(core::solver_name(s.settings.solver));
    if (!job.plan_model_free) query.model = std::string(sim::model_id(s.model));
    if (!job.plan_device_free) {
      query.device = std::string(sim::device_short_name(s.device));
    }
    query.rank_choices = {s.settings.nranks};
    query.overlap_comm = s.settings.overlap_comm;
    query.use_fused = s.settings.use_fused;
    const tune::PlanResult plan = tune::choose_config(catalog, query);
    bool applied = false;
    if (plan.ok) {
      const auto model = sim::parse_model(plan.best.model);
      const auto device = sim::parse_device(plan.best.device);
      if (model && device) {
        if (job.plan_model_free) s.model = *model;
        if (job.plan_device_free) s.device = *device;
        applied = true;
      }
    }
    planner_metrics_.add_counter(
        applied ? "tl_planner_planned" : "tl_planner_plan_fallback", 1.0);
  }

  // Lane routing by predicted cost; no basis => the static cell-count rule.
  tune::PredictQuery query;
  query.model = std::string(sim::model_id(s.model));
  query.device = std::string(sim::device_short_name(s.device));
  query.solver = std::string(core::solver_name(s.settings.solver));
  query.nx = s.settings.nx;
  query.ny = s.settings.ny;
  query.ranks = s.settings.nranks;
  query.use_fused = s.settings.use_fused;
  query.overlap_comm = s.settings.overlap_comm;
  const tune::Prediction pred = tune::predict(catalog, query);
  if (!pred.ok) {
    planner_metrics_.add_counter("tl_planner_route_fallback", 1.0);
    return s.cells() >= config_.large_cells_threshold;
  }
  const bool large = pred.seconds >= config_.planner.large_seconds_threshold;
  planner_metrics_.add_counter(
      large ? "tl_planner_routed_large" : "tl_planner_routed_small", 1.0);
  planner_metrics_.add_counter("tl_planner_predicted_seconds", pred.seconds);
  return large;
}

std::uint64_t SolveService::submitted() const noexcept {
  return small_lane_.stats().pushed + large_lane_.stats().pushed;
}

std::uint64_t SolveService::fairness_bound() const noexcept {
  return std::max(small_lane_.fairness_bound(config_.batch_max),
                  large_lane_.fairness_bound(1));
}

void SolveService::worker_main(int worker_index, JobQueue& lane,
                               std::size_t batch_max) {
  Session& session = sessions_[static_cast<std::size_t>(worker_index)];
  while (true) {
    std::vector<Dispatch> batch = lane.pop_batch(batch_max);
    if (batch.empty()) return;  // lane closed and drained
    std::uint64_t batch_id;
    {
      std::lock_guard lock(submit_mutex_);
      batch_id = next_batch_++;
    }
    for (Dispatch& d : batch) {
      JobResult result = session.run(d.job);
      result.worker = worker_index;
      result.batch = batch_id;
      result.wait_pops = d.wait_pops;

      // Elastic retry: a resumable job that died on a comm fault goes back
      // on its lane from its last checkpoint (next fault epoch) instead of
      // being recorded as failed. If the lane is closed (draining) or full
      // (a blocking push from the lane's own worker could deadlock), the
      // retries run inline on this worker so the job still completes —
      // either way attempts stay bounded by max_resume_attempts.
      if (!result.ok && result.retryable && d.job.resumable &&
          d.job.resume_attempts < d.job.max_resume_attempts) {
        Job retry = d.job;
        bool requeued = false;
        while (true) {
          ++retry.resume_attempts;
          retry.resume_from = std::move(result.checkpoint);
          if (lane.try_push(retry)) {
            requeued = true;
            break;
          }
          result = session.run(retry);
          result.worker = worker_index;
          result.batch = batch_id;
          result.wait_pops = d.wait_pops;
          if (result.ok || !result.retryable ||
              retry.resume_attempts >= retry.max_resume_attempts) {
            break;
          }
        }
        if (requeued) continue;  // the retry will record the final result
      }

      result.checkpoint.reset();
      session.meter(result);
      std::lock_guard lock(results_mutex_);
      results_.push_back(std::move(result));
    }
  }
}

ServiceReport SolveService::finish() {
  {
    std::lock_guard lock(submit_mutex_);
    if (finished_) {
      throw std::logic_error("SolveService::finish: already finished");
    }
    finished_ = true;
  }
  small_lane_.close();
  large_lane_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }

  ServiceReport report;
  {
    std::lock_guard lock(results_mutex_);
    report.results = std::move(results_);
  }
  std::sort(report.results.begin(), report.results.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
  report.tenants = summarize_tenants(report.results);
  report.small_queue = small_lane_.stats();
  report.large_queue = large_lane_.stats();
  report.fairness_bound = fairness_bound();
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();

  std::vector<telemetry::MetricsRegistry> slices;
  slices.reserve(sessions_.size() + 1);
  for (Session& s : sessions_) slices.push_back(std::move(s.registry()));
  // The planner slice rides along only when the planner is on, so a
  // planner-off report (the committed BENCH_service.json baseline) is
  // byte-identical to pre-planner builds.
  if (config_.planner.enabled) {
    slices.push_back(std::move(planner_metrics_));
  }
  if (!slices.empty()) {
    report.metrics = telemetry::MetricsRegistry::combine_all(slices);
  }
  return report;
}

}  // namespace tl::service
