// Service soak bench: push O(10k) mixed-tenant solve jobs through the
// SolveService and gate on its three promises.
//
//   throughput   the pool keeps the (simulated-device) solves flowing; the
//                measured jobs/s must clear --min-throughput when set.
//   fairness     no job's measured queue delay exceeds the queue's stated
//                aging/capacity bound (ServiceReport::fairness_bound).
//   correctness  every job's final u/energy checksums are bitwise identical
//                to a standalone run_scenario twin of the same scenario —
//                the service adds scheduling, never numerics.
//
// The job mix is drawn from a fixed-seed util::Rng, and jobs are submitted
// from one thread, so job ids, the per-tenant rollups, and therefore the
// structural sections of the emitted BENCH_service.json artifact are fully
// deterministic — that file is committed and regression-checked by
// `tl_report --check` (see tests/CMakeLists.txt). Wall-clock fields are the
// only machine-dependent numbers in it.
//
//   --smoke            1 000 jobs (CI per-cell gate); default is the 10 000
//                      job nightly soak
//   --jobs N           override the job count
//   --min-throughput X fail below X jobs/s (0 disables; default 0 so
//                      sanitizer builds pass — the nightly sets a floor)
//   --report=FILE      artifact path (default BENCH_service.json)
//   --workers/--large-workers/--capacity/--batch/--aging  pool knobs
//   --planner          adds the predicted-cost scheduling leg: self-
//                      calibrates a small-mesh catalog from standalone runs,
//                      replays the same deck with the planner routing lanes
//                      (results must stay bit-identical and total simulated
//                      seconds must not grow), then replays it again with
//                      model+device freed so the planner picks the config
//                      per job (verified against twins of what actually ran)

#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "service/entry.hpp"
#include "service/job.hpp"
#include "service/pool.hpp"
#include "service/report.hpp"
#include "ports/registry.hpp"
#include "tune/ingest.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

constexpr std::uint64_t kMixSeed = 0x7ea1ea55ULL;  // fixed: artifact is golden

struct ModelDevice {
  sim::Model model;
  sim::DeviceId device;
};

/// The paper's device-tuned baseline, a portable CPU model, and the GPU
/// baseline — enough to mix host- and device-shaped ports in one queue.
constexpr ModelDevice kPairs[] = {
    {sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge},
    {sim::Model::kKokkos, sim::DeviceId::kCpuSandyBridge},
    {sim::Model::kCuda, sim::DeviceId::kGpuK20X},
};

constexpr const char* kTenants[] = {"acme", "burl", "cato",
                                    "dene", "etna", "frey"};

service::Job draw_job(util::Rng& rng) {
  service::Job job;
  // Tenant weights: two heavy hitters, four long-tail.
  const std::uint64_t t = rng.next_below(10);
  job.tenant = kTenants[t < 3 ? 0 : (t < 6 ? 1 : 2 + (t - 6) % 4)];
  // Priorities: 20% high, 50% normal, 30% low.
  const std::uint64_t p = rng.next_below(10);
  job.priority = p < 2 ? service::Priority::kHigh
                       : (p < 7 ? service::Priority::kNormal
                                : service::Priority::kLow);

  service::Scenario& s = job.scenario;
  s.settings = core::Settings::default_problem();
  const ModelDevice& pair = kPairs[rng.next_below(std::size(kPairs))];
  s.model = pair.model;
  s.device = pair.device;
  // Mostly tiny meshes; the occasional 96^2 exercises the large lane.
  static constexpr int kMeshes[] = {16, 16, 16, 24, 24, 32, 32, 48, 48, 96};
  s.settings.nx = s.settings.ny = kMeshes[rng.next_below(std::size(kMeshes))];
  static constexpr int kRanks[] = {1, 1, 1, 2, 2, 4};
  s.settings.nranks = kRanks[rng.next_below(std::size(kRanks))];
  static constexpr core::SolverKind kSolvers[] = {
      core::SolverKind::kCg, core::SolverKind::kCg, core::SolverKind::kCheby,
      core::SolverKind::kPpcg, core::SolverKind::kJacobi};
  s.settings.solver = kSolvers[rng.next_below(std::size(kSolvers))];
  s.settings.eps = 1e-6;
  s.settings.max_iters = 200;
  s.settings.end_step = 1;
  return job;
}

bool checksums_equal(const verify::FieldChecksum& a,
                     const verify::FieldChecksum& b) {
  return a.sum == b.sum && a.l2 == b.l2 && a.min == b.min && a.max == b.max;
}

/// Draws the full deck up front (the scenario set — and thus the standalone
/// twin set — is fixed before the first job runs), then pushes it through a
/// fresh service. `free_fields` marks every job's model and device as
/// planner-fillable; with the planner disabled the marks are inert.
service::ServiceReport run_deck(const service::ServiceConfig& config,
                                long jobs, bool free_fields) {
  util::Rng rng(kMixSeed);
  std::vector<service::Job> mix;
  mix.reserve(static_cast<std::size_t>(jobs));
  for (long i = 0; i < jobs; ++i) {
    mix.push_back(draw_job(rng));
    mix.back().plan_model_free = free_fields;
    mix.back().plan_device_free = free_fields;
  }
  service::SolveService svc(config);
  for (service::Job& job : mix) svc.submit(std::move(job));
  return svc.finish();
}

double total_sim_seconds(const service::ServiceReport& report) {
  // Job-id order (results are sorted), so the sum is schedule-independent.
  double total = 0.0;
  for (const service::JobResult& r : report.results) total += r.sim_seconds;
  return total;
}

/// The planner's cost model, measured rather than assumed: one standalone
/// run per (pair, solver, mesh) over the deck's own mesh ladder, fitted
/// into total_s and iters series. Everything the planner predicts with in
/// this bench was observed on this machine minutes earlier.
std::shared_ptr<const tune::ModelCatalog> calibrate_catalog() {
  static constexpr int kLadder[] = {16, 24, 32, 48, 96};
  static constexpr core::SolverKind kCalSolvers[] = {
      core::SolverKind::kCg, core::SolverKind::kCheby, core::SolverKind::kPpcg,
      core::SolverKind::kJacobi};
  tune::SampleSet samples;
  for (const ModelDevice& pair : kPairs) {
    for (const core::SolverKind solver : kCalSolvers) {
      for (const int nx : kLadder) {
        service::Scenario s;
        s.settings = core::Settings::default_problem();
        s.settings.nx = s.settings.ny = nx;
        s.settings.solver = solver;
        s.settings.eps = 1e-6;
        s.settings.max_iters = 200;
        s.settings.end_step = 1;
        s.model = pair.model;
        s.device = pair.device;
        const service::ScenarioOutcome out = service::run_scenario(s);
        tune::SeriesKey key;
        key.metric = "total_s";
        key.model = std::string(sim::model_id(pair.model));
        key.device = std::string(sim::device_short_name(pair.device));
        key.solver = std::string(core::solver_name(solver));
        key.x = "cells";
        const double cells = static_cast<double>(nx) * nx;
        samples.add(key, cells, out.run.sim_total_seconds);
        int iters = 0;
        for (const core::StepReport& step : out.run.steps) {
          iters += step.solve.iterations;
        }
        key.metric = "iters";
        samples.add(key, cells, static_cast<double>(iters));
      }
    }
  }
  return std::make_shared<const tune::ModelCatalog>(
      tune::fit_samples(samples));
}

/// Large-lane threshold mirroring the static rule's intent in cost terms:
/// the cheapest predicted solve at the static boundary mesh (96^2). Any job
/// predicted at least that expensive — including a smaller mesh on a slow
/// solver — owns a large-lane worker.
double planner_threshold(const tune::ModelCatalog& catalog) {
  double cheapest = 0.0;
  bool have = false;
  for (const ModelDevice& pair : kPairs) {
    for (const core::SolverKind solver : core::kAllSolvers) {
      tune::PredictQuery q;
      q.model = std::string(sim::model_id(pair.model));
      q.device = std::string(sim::device_short_name(pair.device));
      q.solver = std::string(core::solver_name(solver));
      q.nx = q.ny = 96;
      const tune::Prediction p = tune::predict(catalog, q);
      if (p.ok && (!have || p.seconds < cheapest)) {
        cheapest = p.seconds;
        have = true;
      }
    }
  }
  return have ? cheapest : 1e-3;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"smoke", "planner", "jobs", "min-throughput", "report",
                      "workers", "large-workers", "capacity", "batch",
                      "aging"});
  const bool smoke = cli.has("smoke");
  const bool with_planner = cli.has("planner");
  const long jobs_requested =
      cli.get_long_or("jobs", smoke ? 1'000 : 10'000);
  const double min_throughput = cli.get_double_or("min-throughput", 0.0);
  const std::string report_path = cli.get_or("report", "BENCH_service.json");

  service::ServiceConfig config;
  config.small_workers =
      static_cast<int>(cli.get_long_or("workers", 3));
  config.large_workers =
      static_cast<int>(cli.get_long_or("large-workers", 1));
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_long_or("capacity", 256));
  config.batch_max = static_cast<std::size_t>(cli.get_long_or("batch", 8));
  config.aging_interval =
      static_cast<std::uint64_t>(cli.get_long_or("aging", 16));
  config.validate();

  for (const ModelDevice& pair : kPairs) {
    if (!ports::is_supported(pair.model, pair.device)) {
      std::fprintf(stderr, "service soak: pair %s x %s unsupported\n",
                   std::string(sim::model_id(pair.model)).c_str(),
                   std::string(sim::device_short_name(pair.device)).c_str());
      return 1;
    }
  }

  std::printf("service soak: %ld job(s), %d+%d workers, batch %zu, "
              "capacity %zu, aging %llu\n",
              jobs_requested, config.small_workers, config.large_workers,
              config.batch_max, config.queue_capacity,
              static_cast<unsigned long long>(config.aging_interval));

  const service::ServiceReport report =
      run_deck(config, jobs_requested, /*free_fields=*/false);

  int gate_failures = 0;
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "service soak: GATE FAILED: %s\n", what);
    ++gate_failures;
  };

  if (report.results.size() != static_cast<std::size_t>(jobs_requested)) {
    fail("not every submitted job was drained");
  }
  if (!report.all_ok()) fail("a job failed (ok == false)");
  if (report.max_wait_pops() > report.fairness_bound) {
    std::fprintf(stderr, "  max_wait_pops %llu > bound %llu\n",
                 static_cast<unsigned long long>(report.max_wait_pops()),
                 static_cast<unsigned long long>(report.fairness_bound));
    fail("a job waited past the fairness bound");
  }

  // Bit-identity: one standalone twin per distinct scenario, every job
  // compared against its twin's checksums.
  std::map<std::string, service::ScenarioOutcome> twins;
  {
    util::Rng replay(kMixSeed);
    for (long i = 0; i < jobs_requested; ++i) {
      const service::Job job = draw_job(replay);
      const std::string key = job.scenario.key();
      if (twins.find(key) == twins.end()) {
        twins.emplace(key, service::run_scenario(job.scenario));
      }
    }
  }
  std::uint64_t verified = 0, identical = 0;
  {
    util::Rng replay(kMixSeed);
    for (const service::JobResult& r : report.results) {
      const service::Job job = draw_job(replay);  // results are id-sorted
      const auto it = twins.find(job.scenario.key());
      if (it == twins.end() || !r.ok) continue;
      ++verified;
      if (checksums_equal(r.u_checksum, it->second.u_checksum) &&
          checksums_equal(r.energy_checksum, it->second.energy_checksum)) {
        ++identical;
      } else {
        std::fprintf(stderr, "  checksum mismatch: job %llu (%s)\n",
                     static_cast<unsigned long long>(r.id),
                     job.scenario.key().c_str());
      }
    }
  }
  if (verified != static_cast<std::uint64_t>(jobs_requested)) {
    fail("not every job was verified against a standalone twin");
  }
  if (identical != verified) fail("service results not bit-identical");

  const double jobs_per_s =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.results.size()) / report.wall_seconds
          : 0.0;
  if (min_throughput > 0.0 && jobs_per_s < min_throughput) {
    std::fprintf(stderr, "  %.1f jobs/s < floor %.1f\n", jobs_per_s,
                 min_throughput);
    fail("throughput below floor");
  }

  util::Table table({"tenant", "jobs", "failures", "iterations", "sim s",
                     "max wait"});
  for (const service::TenantSummary& t : report.tenants) {
    table.row({t.tenant, util::strf("%llu", (unsigned long long)t.jobs),
               util::strf("%llu", (unsigned long long)t.failures),
               util::strf("%llu", (unsigned long long)t.iterations),
               util::strf("%.4f", t.sim_seconds),
               util::strf("%llu", (unsigned long long)t.max_wait_pops)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "service soak: %zu job(s) in %.2f s (%.1f jobs/s), %zu scenario(s), "
      "%llu/%llu bit-identical, max wait %llu (bound %llu)\n",
      report.results.size(), report.wall_seconds, jobs_per_s, twins.size(),
      static_cast<unsigned long long>(identical),
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(report.max_wait_pops()),
      static_cast<unsigned long long>(report.fairness_bound));

  service::ArtifactInfo info;
  info.scenarios = twins.size();
  info.verified = verified;
  info.bit_identical = identical;
  if (!service::write_service_artifact(report_path, config, report, info)) {
    ++gate_failures;
  }
  std::printf("service soak: wrote %s\n", report_path.c_str());

  if (with_planner) {
    const double static_sim = total_sim_seconds(report);
    std::printf("\nservice soak: planner leg (predicted-cost scheduling)\n");
    const std::shared_ptr<const tune::ModelCatalog> catalog =
        calibrate_catalog();
    service::ServiceConfig planned = config;
    planned.planner.enabled = true;
    planned.planner.catalog = catalog;
    planned.planner.large_seconds_threshold = planner_threshold(*catalog);
    planned.validate();
    std::printf("  calibrated %zu series; large lane at predicted >= %.3f s\n",
                catalog->size(), planned.planner.large_seconds_threshold);

    // Leg 1: same deck, every field pinned — the planner may only re-route.
    // Scenarios are unchanged, so every per-job result must be bit-identical
    // to the static pass and the simulated total must not move at all.
    const service::ServiceReport routed =
        run_deck(planned, jobs_requested, /*free_fields=*/false);
    if (routed.results.size() != report.results.size()) {
      fail("planner routing leg dropped jobs");
    }
    if (!routed.all_ok()) fail("planner routing leg: a job failed");
    std::uint64_t unchanged = 0;
    const std::size_t common =
        std::min(routed.results.size(), report.results.size());
    for (std::size_t i = 0; i < common; ++i) {
      const service::JobResult& a = report.results[i];
      const service::JobResult& b = routed.results[i];
      if (a.id == b.id && checksums_equal(a.u_checksum, b.u_checksum) &&
          checksums_equal(a.energy_checksum, b.energy_checksum)) {
        ++unchanged;
      }
    }
    if (unchanged != report.results.size()) {
      fail("planner re-routing changed a job's results");
    }
    const double routed_sim = total_sim_seconds(routed);
    if (routed_sim > static_sim * (1.0 + 1e-12)) {
      std::fprintf(stderr, "  routed %.6f s > static %.6f s\n", routed_sim,
                   static_sim);
      fail("planner routing slower in total simulated seconds");
    }

    // Leg 2: same deck with model+device freed — per-job config selection.
    // Results are verified against standalone twins of what actually ran
    // (JobResult::scenario), and the argmin picks must not cost more in
    // total than the deck's static draws.
    const service::ServiceReport chosen =
        run_deck(planned, jobs_requested, /*free_fields=*/true);
    if (chosen.results.size() != static_cast<std::size_t>(jobs_requested)) {
      fail("planner selection leg dropped jobs");
    }
    if (!chosen.all_ok()) fail("planner selection leg: a job failed");
    std::map<std::string, service::ScenarioOutcome> chosen_twins;
    std::uint64_t chosen_verified = 0, chosen_identical = 0;
    for (const service::JobResult& r : chosen.results) {
      if (!r.ok) continue;
      const std::string key = r.scenario.key();
      auto it = chosen_twins.find(key);
      if (it == chosen_twins.end()) {
        it = chosen_twins.emplace(key, service::run_scenario(r.scenario))
                 .first;
      }
      ++chosen_verified;
      if (checksums_equal(r.u_checksum, it->second.u_checksum) &&
          checksums_equal(r.energy_checksum, it->second.energy_checksum)) {
        ++chosen_identical;
      } else {
        std::fprintf(stderr, "  planner checksum mismatch: job %llu (%s)\n",
                     static_cast<unsigned long long>(r.id), key.c_str());
      }
    }
    if (chosen_verified != static_cast<std::uint64_t>(jobs_requested)) {
      fail("planner selection leg: not every job verified against a twin");
    }
    if (chosen_identical != chosen_verified) {
      fail("planner-chosen configs not bit-identical to standalone twins");
    }
    const double chosen_sim = total_sim_seconds(chosen);
    if (chosen_sim > static_sim * (1.0 + 1e-12)) {
      std::fprintf(stderr, "  chosen %.6f s > static %.6f s\n", chosen_sim,
                   static_sim);
      fail("planner config selection slower than the static mix");
    }

    const auto counter = [](const service::ServiceReport& rep,
                            const char* name) {
      return static_cast<unsigned long long>(rep.metrics.counter_or(name));
    };
    std::printf(
        "  routing leg:   %llu routed large, %llu small, %llu fallback, "
        "%llu/%zu results unchanged\n",
        counter(routed, "tl_planner_routed_large"),
        counter(routed, "tl_planner_routed_small"),
        counter(routed, "tl_planner_route_fallback"),
        static_cast<unsigned long long>(unchanged), report.results.size());
    std::printf(
        "  selection leg: %llu planned, %llu plan fallback, %zu distinct "
        "chosen scenario(s), %llu/%llu bit-identical\n",
        counter(chosen, "tl_planner_planned"),
        counter(chosen, "tl_planner_plan_fallback"), chosen_twins.size(),
        static_cast<unsigned long long>(chosen_identical),
        static_cast<unsigned long long>(chosen_verified));
    std::printf(
        "  simulated seconds: static %.4f, planner-routed %.4f, "
        "planner-chosen %.4f (%.1f%% of static)\n",
        static_sim, routed_sim, chosen_sim,
        static_sim > 0.0 ? 100.0 * chosen_sim / static_sim : 0.0);
  }

  if (gate_failures > 0) {
    std::fprintf(stderr, "service soak: %d gate(s) FAILED\n", gate_failures);
    return 1;
  }
  std::printf("service soak: all gates passed\n");
  return 0;
}
