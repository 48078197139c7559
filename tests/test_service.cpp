// Solve-service battery: JobQueue scheduling semantics (FIFO, priority,
// aging, bounded blocking, close/drain), tenant-pure batching, worker-pool
// drain-on-shutdown, and the service's core promise — results bit-identical
// to standalone DistributedDriver runs for every solver, including
// multi-rank scenarios. The mini-soak at the end is sized to be meaningful
// under TSan (the CI TSan leg runs this binary).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ports/registry.hpp"
#include "service/entry.hpp"
#include "service/job.hpp"
#include "service/pool.hpp"
#include "service/queue.hpp"
#include "service/report.hpp"
#include "service/session.hpp"
#include "util/json.hpp"

namespace {

using namespace tl;
using service::Dispatch;
using service::Job;
using service::JobQueue;
using service::JobResult;
using service::Priority;
using service::Scenario;
using service::ServiceConfig;
using service::ServiceReport;
using service::SolveService;

Scenario tiny_scenario(core::SolverKind solver = core::SolverKind::kCg,
                       int nx = 16, int nranks = 1) {
  Scenario s;
  s.settings = core::Settings::default_problem();
  s.settings.nx = nx;
  s.settings.ny = nx;
  s.settings.nranks = nranks;
  s.settings.solver = solver;
  s.settings.eps = 1e-6;
  s.settings.max_iters = 200;
  s.settings.end_step = 1;
  return s;
}

Job make_job(std::string tenant, Priority p,
             Scenario scenario = tiny_scenario()) {
  Job job;
  job.tenant = std::move(tenant);
  job.priority = p;
  job.scenario = std::move(scenario);
  return job;
}

bool checksums_equal(const verify::FieldChecksum& a,
                     const verify::FieldChecksum& b) {
  return a.sum == b.sum && a.l2 == b.l2 && a.min == b.min && a.max == b.max;
}

// -- Job ---------------------------------------------------------------------

TEST(ServiceJob, PriorityNamesRoundTrip) {
  for (Priority p :
       {Priority::kHigh, Priority::kNormal, Priority::kLow}) {
    const auto parsed = service::parse_priority(service::priority_name(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(service::parse_priority("urgent").has_value());
}

TEST(ServiceJob, ScenarioKeyEncodesIdentity) {
  const Scenario a = tiny_scenario(core::SolverKind::kCg, 16, 1);
  Scenario b = a;
  EXPECT_EQ(a.key(), b.key());
  b.settings.nranks = 4;
  EXPECT_NE(a.key(), b.key());
  Scenario c = a;
  c.settings.solver = core::SolverKind::kPpcg;
  EXPECT_NE(a.key(), c.key());
}

// -- JobQueue ----------------------------------------------------------------

TEST(ServiceQueue, RejectsZeroCapacityOrAging) {
  EXPECT_THROW(JobQueue(0), std::invalid_argument);
  EXPECT_THROW(JobQueue(4, 0), std::invalid_argument);
}

TEST(ServiceQueue, FifoWithinOnePriorityClass) {
  JobQueue q(8);
  for (int i = 0; i < 4; ++i) {
    Job job = make_job("acme", Priority::kNormal);
    job.id = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(q.try_push(std::move(job)));
  }
  for (int i = 0; i < 4; ++i) {
    const auto d = q.pop();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->job.id, static_cast<std::uint64_t>(i + 1));
  }
}

TEST(ServiceQueue, HigherPriorityServedFirst) {
  JobQueue q(8);
  Job low = make_job("acme", Priority::kLow);
  low.id = 1;
  Job normal = make_job("acme", Priority::kNormal);
  normal.id = 2;
  Job high = make_job("acme", Priority::kHigh);
  high.id = 3;
  ASSERT_TRUE(q.try_push(std::move(low)));
  ASSERT_TRUE(q.try_push(std::move(normal)));
  ASSERT_TRUE(q.try_push(std::move(high)));
  EXPECT_EQ(q.pop()->job.id, 3u);  // high
  EXPECT_EQ(q.pop()->job.id, 2u);  // normal
  EXPECT_EQ(q.pop()->job.id, 1u);  // low
}

TEST(ServiceQueue, AgingPromotesStarvedLowJob) {
  // aging_interval = 2: the low job reaches effective priority 0 after 4
  // dispatches and must then beat high jobs submitted after it.
  JobQueue q(64, 2);
  Job low = make_job("tortoise", Priority::kLow);
  low.id = 999;
  ASSERT_TRUE(q.try_push(std::move(low)));
  bool low_seen = false;
  std::uint64_t pops = 0;
  for (std::uint64_t i = 0; i < 16 && !low_seen; ++i) {
    Job high = make_job("hare", Priority::kHigh);
    high.id = i + 1;
    ASSERT_TRUE(q.try_push(std::move(high)));
    const auto d = q.pop();
    ASSERT_TRUE(d.has_value());
    ++pops;
    if (d->job.id == 999u) {
      low_seen = true;
      EXPECT_LE(d->wait_pops, q.fairness_bound(1));
    }
  }
  EXPECT_TRUE(low_seen) << "low-priority job starved past the aging bound";
  EXPECT_LE(pops, q.fairness_bound(1));
}

TEST(ServiceQueue, FairnessBoundFormula) {
  JobQueue q(32, 4);
  // (kPriorityLevels - 1) * aging + capacity, scaled by the batch width.
  EXPECT_EQ(q.fairness_bound(1), (2u * 4u + 32u));
  EXPECT_EQ(q.fairness_bound(8), 8u * (2u * 4u + 32u));
}

TEST(ServiceQueue, TryPushFullAndBlockedPushUnblocks) {
  JobQueue q(2);
  ASSERT_TRUE(q.try_push(make_job("a", Priority::kNormal)));
  ASSERT_TRUE(q.try_push(make_job("a", Priority::kNormal)));
  EXPECT_FALSE(q.try_push(make_job("a", Priority::kNormal)));  // full

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(make_job("a", Priority::kNormal)));  // blocks
    pushed.store(true);
  });
  // push() counts itself blocked under the queue lock before it waits, so
  // once the count shows, the producer is parked until a slot frees.
  while (q.stats().blocked_pushes < 1) std::this_thread::yield();
  EXPECT_FALSE(pushed.load());  // still waiting for space
  ASSERT_TRUE(q.pop().has_value());
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GE(q.stats().blocked_pushes, 1u);
}

TEST(ServiceQueue, CloseDrainsThenSignalsExit) {
  JobQueue q(8);
  ASSERT_TRUE(q.try_push(make_job("a", Priority::kNormal)));
  ASSERT_TRUE(q.try_push(make_job("a", Priority::kLow)));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(make_job("a", Priority::kNormal)));
  EXPECT_FALSE(q.push(make_job("a", Priority::kNormal)));
  EXPECT_TRUE(q.pop().has_value());   // drains...
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());  // ...then exit signal
  EXPECT_TRUE(q.pop_batch(4).empty());
}

TEST(ServiceQueue, CloseWakesBlockedPop) {
  JobQueue q(4);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(ServiceQueue, BatchIsTenantPureAndFifo) {
  JobQueue q(16);
  const char* tenants[] = {"acme", "acme", "burl", "acme", "acme"};
  for (int i = 0; i < 5; ++i) {
    Job job = make_job(tenants[i], Priority::kNormal);
    job.id = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(q.try_push(std::move(job)));
  }
  // Head is acme#1; the extension takes acme jobs in their FIFO order,
  // skipping past burl#3 — which then heads the next scheduling decision.
  const auto batch = q.pop_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].job.id, 1u);
  EXPECT_EQ(batch[1].job.id, 2u);
  EXPECT_EQ(batch[2].job.id, 4u);
  EXPECT_EQ(batch[3].job.id, 5u);
  for (const Dispatch& d : batch) EXPECT_EQ(d.job.tenant, "acme");
  const auto next = q.pop_batch(4);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next.front().job.tenant, "burl");
}

TEST(ServiceQueue, BatchNeverCrossesPriorityClass) {
  JobQueue q(16);
  Job high = make_job("acme", Priority::kHigh);
  high.id = 1;
  Job normal = make_job("acme", Priority::kNormal);
  normal.id = 2;
  ASSERT_TRUE(q.try_push(std::move(high)));
  ASSERT_TRUE(q.try_push(std::move(normal)));
  // Same tenant, but the normal-class job must not ride the high batch.
  const auto batch = q.pop_batch(8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].job.id, 1u);
}

// -- Session -----------------------------------------------------------------

TEST(ServiceSession, RunsAJobAndMetersIt) {
  service::Session session;
  Job job = make_job("acme", Priority::kNormal);
  job.id = 7;
  const JobResult r = session.run(job);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 0);
  EXPECT_GT(r.sim_seconds, 0.0);
  EXPECT_GT(r.kernel_launches, 0u);
  session.meter(r);
  const auto& counters = session.registry().counters();
  const auto it = counters.find("tl_service_jobs{tenant=\"acme\"}");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second, 1.0);
}

TEST(ServiceSession, UnsupportedPairFailsSoft) {
  // Table 1: CUDA does not target the CPU. If that ever changes, find any
  // unsupported pair; the service must soft-fail it either way.
  Scenario scenario = tiny_scenario();
  scenario.model = sim::Model::kCuda;
  scenario.device = sim::DeviceId::kCpuSandyBridge;
  ASSERT_FALSE(ports::is_supported(scenario.model, scenario.device));
  service::Session session;
  const JobResult r = session.run(make_job("acme", Priority::kNormal,
                                           scenario));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.iterations, 0);
  session.meter(r);
  const auto& counters = session.registry().counters();
  const auto it = counters.find("tl_service_failures{tenant=\"acme\"}");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second, 1.0);
}

TEST(ServiceSession, MultiRankJobFailsExactlyLikeItsStandaloneTwin) {
  // A session job runs exactly run_scenario's path, refusals included: an
  // elastic 4-rank job must fail with the standalone reason, not with an
  // error only a session-side shortcut could raise.
  Scenario s = tiny_scenario(core::SolverKind::kCg, 16, 4);
  s.settings.elastic = true;
  std::string standalone;
  try {
    service::run_scenario(s);
  } catch (const std::exception& e) {
    standalone = e.what();
  }
  ASSERT_FALSE(standalone.empty());
  service::Session session;
  const JobResult r = session.run(make_job("a", Priority::kNormal, s));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, standalone);
  EXPECT_EQ(session.jobs_run(), 1u);
}

TEST(ServiceScenario, SingleChunkRunMeasuresTheDecksDomain) {
  // The default problem scaled to a 20x20 domain. The single-chunk port must
  // take its cell area from the deck's extents, as the decomposed run's tile
  // meshes do, so 1 and 2 ranks report the same physics.
  Scenario s = tiny_scenario(core::SolverKind::kCg, 32);
  s.settings.x_max = s.settings.y_max = 20.0;
  for (core::StateRegion& r : s.settings.states) {
    r.x_min *= 2.0;
    r.x_max *= 2.0;
    r.y_min *= 2.0;
    r.y_max *= 2.0;
  }
  const core::FieldSummary one = service::run_scenario(s).run.steps[0].summary;
  s.settings.nranks = 2;
  const core::FieldSummary two = service::run_scenario(s).run.steps[0].summary;
  EXPECT_EQ(one.volume, 400.0);
  EXPECT_EQ(two.volume, 400.0);
  EXPECT_NEAR(one.mass, two.mass, 1e-10 * two.mass);
  EXPECT_NEAR(one.internal_energy, two.internal_energy,
              1e-10 * two.internal_energy);
  EXPECT_NEAR(one.temperature, two.temperature, 1e-10 * two.temperature);
}

// -- ServiceConfig -----------------------------------------------------------

TEST(ServiceConfig, ValidateRejectsNonsense) {
  ServiceConfig bad;
  bad.small_workers = 0;
  bad.large_workers = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServiceConfig{};
  bad.queue_capacity = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServiceConfig{};
  bad.batch_max = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServiceConfig{};
  bad.aging_interval = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(ServiceConfig{}.validate());
}

// -- SolveService ------------------------------------------------------------

ServiceConfig test_config() {
  ServiceConfig config;
  config.small_workers = 2;
  config.large_workers = 1;
  config.queue_capacity = 64;
  config.batch_max = 4;
  config.large_cells_threshold = 96 * 96;
  return config;
}

TEST(SolveService, DrainsEverySubmittedJobOnFinish) {
  SolveService svc(test_config());
  const char* tenants[] = {"acme", "burl", "acme", "cato", "burl", "acme"};
  for (int i = 0; i < 6; ++i) {
    svc.submit(make_job(tenants[i],
                        i % 2 == 0 ? Priority::kNormal : Priority::kLow));
  }
  EXPECT_EQ(svc.submitted(), 6u);
  const ServiceReport report = svc.finish();
  ASSERT_EQ(report.results.size(), 6u);
  EXPECT_TRUE(report.all_ok());
  // Results come back sorted by id, ids are 1..N.
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].id, i + 1);
  }
  EXPECT_THROW(svc.submit(make_job("late", Priority::kHigh)),
               std::logic_error);
  EXPECT_THROW(svc.finish(), std::logic_error);
}

TEST(SolveService, BatchesNeverMixTenants) {
  ServiceConfig config = test_config();
  config.small_workers = 1;  // force everything through one batching worker
  SolveService svc(config);
  for (int i = 0; i < 24; ++i) {
    svc.submit(make_job(i % 3 == 0 ? "acme" : (i % 3 == 1 ? "burl" : "cato"),
                        Priority::kNormal));
  }
  const ServiceReport report = svc.finish();
  ASSERT_EQ(report.results.size(), 24u);
  std::map<std::uint64_t, std::set<std::string>> tenants_by_batch;
  for (const JobResult& r : report.results) {
    ASSERT_GT(r.batch, 0u);
    tenants_by_batch[r.batch].insert(r.tenant);
  }
  for (const auto& [batch, tenants] : tenants_by_batch) {
    EXPECT_EQ(tenants.size(), 1u)
        << "batch " << batch << " mixed " << tenants.size() << " tenants";
  }
}

TEST(SolveService, LargeJobsLandOnDedicatedWorkers) {
  ServiceConfig config = test_config();
  config.large_cells_threshold = 32 * 32;
  SolveService svc(config);
  svc.submit(make_job("small", Priority::kNormal,
                      tiny_scenario(core::SolverKind::kCg, 16)));
  svc.submit(make_job("large", Priority::kNormal,
                      tiny_scenario(core::SolverKind::kCg, 32)));
  const ServiceReport report = svc.finish();
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.all_ok());
  int small_worker = -1, large_worker = -1;
  for (const JobResult& r : report.results) {
    (r.tenant == "small" ? small_worker : large_worker) = r.worker;
  }
  // Worker indices are global: small lane first, then the large lane.
  EXPECT_LT(small_worker, config.small_workers);
  EXPECT_GE(large_worker, config.small_workers);
}

TEST(SolveService, TenantSummariesFoldDeterministically) {
  SolveService svc(test_config());
  for (int i = 0; i < 8; ++i) {
    svc.submit(make_job(i < 5 ? "acme" : "burl", Priority::kNormal));
  }
  const ServiceReport report = svc.finish();
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, "acme");  // sorted by name
  EXPECT_EQ(report.tenants[0].jobs, 5u);
  EXPECT_EQ(report.tenants[1].tenant, "burl");
  EXPECT_EQ(report.tenants[1].jobs, 3u);
  // The independent fold agrees with the report's.
  const auto again = service::summarize_tenants(report.results);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].iterations, report.tenants[0].iterations);
  EXPECT_EQ(again[1].kernel_launches, report.tenants[1].kernel_launches);
  // Per-tenant counters landed in the merged registry slice.
  const auto& counters = report.metrics.counters();
  const auto it = counters.find("tl_service_jobs{tenant=\"acme\"}");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second, 5.0);
}

TEST(SolveService, ResultsBitIdenticalToStandaloneAllSolvers) {
  // The core promise: a job through the queue/pool produces byte-identical
  // checksums to a standalone run of the same scenario — every solver, both
  // single-chunk and decomposed.
  std::vector<Scenario> scenarios;
  for (core::SolverKind solver :
       {core::SolverKind::kCg, core::SolverKind::kCheby,
        core::SolverKind::kPpcg, core::SolverKind::kJacobi}) {
    scenarios.push_back(tiny_scenario(solver, 16, 1));
    scenarios.push_back(tiny_scenario(solver, 24, 2));
  }
  SolveService svc(test_config());
  for (const Scenario& s : scenarios) {
    svc.submit(make_job("verify", Priority::kNormal, s));
  }
  const ServiceReport report = svc.finish();
  ASSERT_EQ(report.results.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const JobResult& r = report.results[i];
    ASSERT_TRUE(r.ok) << r.error;
    const service::ScenarioOutcome twin =
        service::run_scenario(scenarios[i]);
    EXPECT_TRUE(checksums_equal(r.u_checksum, twin.u_checksum))
        << "u checksum diverged: " << scenarios[i].key();
    EXPECT_TRUE(checksums_equal(r.energy_checksum, twin.energy_checksum))
        << "energy checksum diverged: " << scenarios[i].key();
    EXPECT_EQ(r.iterations, twin.run.total_iterations());
    EXPECT_EQ(r.sim_seconds, twin.run.sim_total_seconds);
  }
}

TEST(SolveService, MiniSoakRespectsFairnessBound) {
  // Concurrent submitters + mixed priorities under a small queue: meaningful
  // contention for the TSan leg, and every job's measured wait must respect
  // the advertised bound.
  ServiceConfig config = test_config();
  config.queue_capacity = 16;
  config.batch_max = 4;
  SolveService svc(config);
  constexpr int kPerTenant = 30;
  const char* tenants[] = {"t0", "t1", "t2"};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerTenant; ++i) {
        svc.submit(make_job(
            tenants[t], static_cast<Priority>((t + i) % 3),
            tiny_scenario(core::SolverKind::kCg, 16, 1)));
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  const ServiceReport report = svc.finish();
  ASSERT_EQ(report.results.size(), 3u * kPerTenant);
  EXPECT_TRUE(report.all_ok());
  EXPECT_LE(report.max_wait_pops(), report.fairness_bound);
  // Every tenant finished every job — nobody starved.
  ASSERT_EQ(report.tenants.size(), 3u);
  for (const auto& tenant : report.tenants) {
    EXPECT_EQ(tenant.jobs, static_cast<std::uint64_t>(kPerTenant));
    EXPECT_EQ(tenant.failures, 0u);
  }
}

TEST(SolveService, DestructorWithoutFinishJoinsCleanly) {
  SolveService svc(test_config());
  for (int i = 0; i < 4; ++i) svc.submit(make_job("acme", Priority::kLow));
  // Destructor must close lanes and join workers without finish().
}

// -- Artifact ----------------------------------------------------------------

TEST(ServiceArtifact, EmitsParseableServiceBenchJson) {
  SolveService svc(test_config());
  svc.submit(make_job("acme", Priority::kNormal));
  svc.submit(make_job("burl", Priority::kHigh));
  const ServiceReport report = svc.finish();
  service::ArtifactInfo info;
  info.scenarios = 1;
  info.verified = 2;
  info.bit_identical = 2;
  const std::string json =
      service::service_artifact_json(svc.config(), report, info);
  const util::JsonValue doc = util::parse_json(json);
  ASSERT_TRUE(doc.is_object()) << json;
  EXPECT_EQ(doc.get_string_or("bench", ""), "service");
  const util::JsonValue* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->get_number_or("jobs", 0.0), 2.0);
  const util::JsonValue* tenants = doc.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_TRUE(tenants->is_array());
  EXPECT_EQ(tenants->as_array().size(), 2u);
}

}  // namespace
