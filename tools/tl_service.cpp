// tl_service: submit a batch of tenant solve jobs to the SolveService.
//
// Usage:
//   tl_service JOBS.csv [options]
//   tl_service --demo N [options]
//
//   JOBS.csv   one job per line:
//                tenant,priority,solver,model,device,nx,ranks,steps
//              priority in {high,normal,low}; solver in
//              {cg,cheby,ppcg,jacobi}; model/device use the usual short ids
//              (omp3, kokkos, cuda, ... / cpu, gpu, knc). A header line and
//              '#' comments are skipped.
//   --demo N   generate N jobs from the soak bench's deterministic mix
//              instead of reading a file.
//
// Options: --workers N (3), --large-workers N (1), --capacity N (256),
//          --batch N (8), --aging N (16), --threads N (1 host thread/rank),
//          --report=FILE (write a tl-report-1 document with the per-tenant
//          section alongside an OpenMetrics .om rendering).
//
// Prints the per-tenant summary table and exits nonzero if any job failed.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/job.hpp"
#include "service/pool.hpp"
#include "telemetry/report.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s JOBS.csv [options]\n"
               "       %s --demo N [options]\n"
               "options: --workers N --large-workers N --capacity N\n"
               "         --batch N --aging N --threads N --report=FILE\n",
               prog, prog);
  return 2;
}

/// Parses one CSV job line; returns false (with a message) on bad input.
bool parse_job_line(const std::string& line, int lineno, service::Job& job) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) {
    fields.push_back(util::trim(field));
  }
  if (fields.size() != 8) {
    std::fprintf(stderr, "tl_service: line %d: want 8 fields, got %zu\n",
                 lineno, fields.size());
    return false;
  }
  job.tenant = fields[0];
  const auto priority = service::parse_priority(fields[1]);
  if (!priority) {
    std::fprintf(stderr, "tl_service: line %d: bad priority '%s'\n", lineno,
                 fields[1].c_str());
    return false;
  }
  job.priority = *priority;

  service::Scenario& s = job.scenario;
  s.settings = core::Settings::default_problem();
  const auto solver = core::parse_solver(fields[2]);
  if (!solver) {
    std::fprintf(stderr, "tl_service: line %d: bad solver '%s'\n", lineno,
                 fields[2].c_str());
    return false;
  }
  s.settings.solver = *solver;
  const auto model = sim::parse_model(fields[3]);
  const auto device = sim::parse_device(fields[4]);
  if (!model || !device) {
    std::fprintf(stderr, "tl_service: line %d: bad model/device '%s'/'%s'\n",
                 lineno, fields[3].c_str(), fields[4].c_str());
    return false;
  }
  s.model = *model;
  s.device = *device;
  const int nx = std::atoi(fields[5].c_str());
  const int ranks = std::atoi(fields[6].c_str());
  const int steps = std::atoi(fields[7].c_str());
  if (nx <= 0 || ranks <= 0 || steps <= 0) {
    std::fprintf(stderr, "tl_service: line %d: bad nx/ranks/steps\n", lineno);
    return false;
  }
  s.settings.nx = s.settings.ny = nx;
  s.settings.nranks = ranks;
  s.settings.end_step = steps;
  s.settings.eps = 1e-6;
  s.settings.max_iters = 200;
  return true;
}

bool load_jobs_csv(const std::string& path, std::vector<service::Job>& jobs) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tl_service: cannot read '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed = util::trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (lineno == 1 && trimmed.rfind("tenant,", 0) == 0) continue;  // header
    service::Job job;
    if (!parse_job_line(trimmed, lineno, job)) return false;
    jobs.push_back(std::move(job));
  }
  return true;
}

/// The soak bench's mix, shrunk: three tenants, tiny meshes, all solvers.
std::vector<service::Job> demo_jobs(long n) {
  util::Rng rng(0x7ea1ea55ULL);
  static constexpr const char* kTenants[] = {"acme", "burl", "cato"};
  static constexpr int kMeshes[] = {16, 16, 24, 32};
  static constexpr core::SolverKind kSolvers[] = {
      core::SolverKind::kCg, core::SolverKind::kCheby,
      core::SolverKind::kPpcg, core::SolverKind::kJacobi};
  std::vector<service::Job> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    service::Job job;
    job.tenant = kTenants[rng.next_below(std::size(kTenants))];
    job.priority = static_cast<service::Priority>(rng.next_below(3));
    job.scenario.settings = core::Settings::default_problem();
    job.scenario.settings.nx = job.scenario.settings.ny =
        kMeshes[rng.next_below(std::size(kMeshes))];
    job.scenario.settings.nranks = rng.next_below(4) == 0 ? 2 : 1;
    job.scenario.settings.solver =
        kSolvers[rng.next_below(std::size(kSolvers))];
    job.scenario.settings.eps = 1e-6;
    job.scenario.settings.max_iters = 200;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"demo", "workers", "large-workers", "capacity", "batch",
                      "aging", "threads", "report"});

  std::vector<service::Job> jobs;
  if (cli.has("demo")) {
    const long n = cli.get_long_or("demo", 100);
    if (n <= 0) return usage(cli.program().c_str());
    jobs = demo_jobs(n);
  } else if (cli.positional().size() == 1) {
    if (!load_jobs_csv(cli.positional()[0], jobs)) return 1;
  } else {
    return usage(cli.program().c_str());
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "tl_service: no jobs to run\n");
    return 1;
  }

  service::ServiceConfig config;
  config.small_workers = static_cast<int>(cli.get_long_or("workers", 3));
  config.large_workers =
      static_cast<int>(cli.get_long_or("large-workers", 1));
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_long_or("capacity", 256));
  config.batch_max = static_cast<std::size_t>(cli.get_long_or("batch", 8));
  config.aging_interval =
      static_cast<std::uint64_t>(cli.get_long_or("aging", 16));
  config.host_threads =
      static_cast<unsigned>(cli.get_long_or("threads", 1));
  try {
    config.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tl_service: %s\n", e.what());
    return 2;
  }

  service::SolveService svc(config);
  for (service::Job& job : jobs) svc.submit(std::move(job));
  const service::ServiceReport report = svc.finish();

  util::Table table({"tenant", "jobs", "failures", "converged", "iterations",
                     "sim s", "max wait"});
  for (const service::TenantSummary& t : report.tenants) {
    table.row({t.tenant, util::strf("%llu", (unsigned long long)t.jobs),
               util::strf("%llu", (unsigned long long)t.failures),
               util::strf("%llu", (unsigned long long)t.converged),
               util::strf("%llu", (unsigned long long)t.iterations),
               util::strf("%.4f", t.sim_seconds),
               util::strf("%llu", (unsigned long long)t.max_wait_pops)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "tl_service: %zu job(s), %zu tenant(s) in %.2f s; max wait %llu "
      "pop(s), fairness bound %llu\n",
      report.results.size(), report.tenants.size(), report.wall_seconds,
      static_cast<unsigned long long>(report.max_wait_pops()),
      static_cast<unsigned long long>(report.fairness_bound));
  for (const service::JobResult& r : report.results) {
    if (!r.ok) {
      std::fprintf(stderr, "tl_service: job %llu (%s) failed: %s\n",
                   static_cast<unsigned long long>(r.id), r.tenant.c_str(),
                   r.error.c_str());
    }
  }

  const std::string report_path = cli.get_or("report", "");
  if (!report_path.empty()) {
    telemetry::ReportContext ctx;
    ctx.source = "tl_service";
    ctx.model = "mixed";
    ctx.device = "mixed";
    ctx.solver = "mixed";
    ctx.ranks = 0;
    telemetry::ReportBuilder builder(ctx);
    double total_sim = 0.0;
    std::uint64_t total_launches = 0;
    for (const service::TenantSummary& t : report.tenants) {
      builder.add_tenant(telemetry::TenantRow{
          t.tenant, t.jobs, t.failures, t.converged, t.iterations,
          t.kernel_launches, t.comm_bytes, t.sim_seconds, t.max_wait_pops});
      total_sim += t.sim_seconds;
      total_launches += t.kernel_launches;
    }
    builder.set_totals(total_sim, 0.0, total_launches);
    builder.registry().combine(report.metrics);
    if (!builder.write(report_path)) return 1;
    std::printf("tl_service: wrote %s (and %s)\n", report_path.c_str(),
                telemetry::ReportBuilder::openmetrics_path(report_path)
                    .c_str());
  }

  return report.all_ok() ? 0 : 1;
}
