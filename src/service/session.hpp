#pragma once
// Session: one worker's reusable execution context.
//
// A Session owns what repeated solves share: a MetricsRegistry slice
// metering every job per tenant. Each job runs exactly its standalone path
// (service/entry.hpp); nothing about one job is cached for the next.
// Registries are single-writer by construction (DESIGN.md §11), which is
// exactly why each worker owns its own Session: the slice is written only
// from that worker's thread, and the pool merges slices pairwise in worker
// order at drain time.
//
// run() never throws: a job that is rejected (unsupported model x device,
// invalid settings) or dies mid-solve comes back with ok == false and the
// reason in `error`, and the worker moves on — one tenant's bad deck must
// not take the service down.

#include <cstdint>

#include "service/entry.hpp"
#include "service/job.hpp"
#include "telemetry/metrics_registry.hpp"

namespace tl::service {

struct SessionConfig {
  unsigned host_threads = 1;  // HostPool width of every port this session runs
};

class Session {
 public:
  explicit Session(SessionConfig config = {}) : config_(config) {}

  /// Executes the job's scenario (standalone-equivalent path — see
  /// service/entry.hpp). Fills the solve fields of the result; scheduling
  /// provenance (worker, batch, wait_pops) is the pool's to stamp.
  JobResult run(const Job& job);

  /// Folds one finished job into the per-tenant registry slice. Call after
  /// provenance is stamped so the wait histogram sees the real delay.
  void meter(const JobResult& result);

  const telemetry::MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  telemetry::MetricsRegistry& registry() noexcept { return registry_; }

  std::uint64_t jobs_run() const noexcept { return jobs_run_; }

 private:
  SessionConfig config_;
  telemetry::MetricsRegistry registry_;
  std::uint64_t jobs_run_ = 0;
};

}  // namespace tl::service
