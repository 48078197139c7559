#include "bench/harness.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/driver.hpp"
#include "core/phantom_kernels.hpp"
#include "ports/registry.hpp"
#include "telemetry/report.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace bench {

using namespace tl;
using core::SolverKind;

Harness::Harness(std::vector<int> ladder)
    : proto_(core::Settings::default_problem()) {
  if (ladder.empty()) ladder = core::default_calibration_ladder();
  for (const SolverKind solver : core::kAllSolvers) {
    models_.emplace(solver,
                    core::calibrate_iteration_model(solver, proto_, ladder));
  }
  // The paper's benchmark runs multiple implicit steps at the convergence
  // mesh; four steps lands the absolute runtimes in the paper's range
  // (hundreds to thousands of seconds) while preserving every ratio.
  proto_.end_step = 4;
}

const core::IterationModel& Harness::iteration_model(SolverKind solver) const {
  return models_.at(solver);
}

int Harness::predicted_outer(SolverKind solver, int nx) const {
  int outer = models_.at(solver).predict_outer(nx);
  // Chebyshev needs at least the bootstrap plus one main-loop check window.
  if (solver == SolverKind::kCheby) {
    outer = std::max(outer, proto_.cg_prep_iters + 1 + core::kCheckInterval);
  }
  return outer;
}

SolveResult Harness::modelled_solve(sim::Model model, sim::DeviceId device,
                                    SolverKind solver, int nx,
                                    std::uint64_t run_seed,
                                    sim::TraceSink* sink,
                                    bool use_fused) const {
  core::Settings s = proto_;
  s.nx = s.ny = nx;
  s.solver = solver;
  s.use_fused = use_fused;
  if (solver == SolverKind::kPpcg) {
    s.ppcg_inner_steps = core::recommended_ppcg_inner_steps(nx);
  }

  const int outer = solver == SolverKind::kJacobi ? kJacobiModelledIters
                                                  : predicted_outer(solver, nx);
  const core::PhantomScript script =
      core::replay_script(s, outer, solver == SolverKind::kCg);

  auto kernels = std::make_unique<core::PhantomKernels>(
      model, device, core::Mesh(nx, nx, s.halo_depth), script, run_seed);
  if (sink != nullptr) kernels->attach_trace_sink(sink);
  core::Driver driver(s, std::move(kernels),
                      core::DriverOptions{.materialize_host_state = false});
  const core::RunReport report = driver.run();

  SolveResult result;
  result.model = model;
  result.device = device;
  result.solver = solver;
  result.nx = nx;
  result.outer_iterations = report.steps[0].solve.iterations;
  result.seconds = report.sim_total_seconds;
  result.bandwidth_gbs = report.achieved_bandwidth_gbs;
  result.launches = report.kernel_launches;
  const core::SolveStats& stats = report.steps[0].solve;
  result.fused_iterations = stats.fused_iterations;
  result.classic_iterations = stats.classic_iterations;
  result.converged = stats.converged;
  result.final_rr = stats.final_rr;
  return result;
}

std::vector<int> Harness::fig11_meshes() {
  std::vector<int> meshes;
  for (int k = 1; k <= 10; ++k) {
    meshes.push_back(
        static_cast<int>(std::lround(std::sqrt(k * 1.5e5))));
  }
  return meshes;  // 387 .. 1225
}

void Harness::print_calibration() const {
  std::printf(
      "calibration: real solves on the reference kernels fit "
      "iters = c * nx^p per solver\n");
  for (const SolverKind solver : core::kAllSolvers) {
    const auto& m = models_.at(solver);
    std::printf("  %-9s c=%8.3f p=%5.3f r2=%6.4f  4096^2 -> %d outer iters\n",
                std::string(core::solver_name(solver)).c_str(),
                m.outer_fit.coefficient, m.outer_fit.exponent, m.outer_fit.r2,
                predicted_outer(solver, kConvergenceMesh));
  }
  std::printf(
      "timing: simulated (device performance models; see DESIGN.md §5 and "
      "src/sim/codegen.cpp for the calibrated constants)\n\n");
}

std::string fmt_seconds(double s) { return util::strf("%.1f", s); }

std::vector<int> smoke_ladder() { return {24, 32, 48}; }

BenchOptions parse_bench_options(const util::Cli& cli,
                                 std::vector<std::string_view> extra) {
  extra.insert(extra.end(),
               {"profile", "trace", "trace-model", "smoke", "report"});
  cli.reject_unknown(extra);
  BenchOptions opts;
  opts.profile = cli.has("profile");
  opts.trace_path = cli.get_or("trace", "");
  opts.trace_model = cli.get_or("trace-model", "");
  opts.smoke = cli.has("smoke");
  opts.report_path = cli.get_or("report", "");
  return opts;
}

void write_figure_report(const Harness& harness, sim::Model model,
                         sim::DeviceId device, int mesh,
                         const std::string& source, const std::string& path) {
  telemetry::ReportContext ctx;
  ctx.source = source;
  ctx.model = std::string(sim::model_id(model));
  ctx.device = std::string(sim::device_short_name(device));
  ctx.solver = "all";
  ctx.nx = ctx.ny = mesh;
  ctx.steps = static_cast<int>(core::kAllSolvers.size());
  telemetry::ReportBuilder builder(std::move(ctx));

  double total_seconds = 0.0;
  std::uint64_t total_launches = 0;
  for (const SolverKind solver : core::kAllSolvers) {
    const SolveResult r = harness.modelled_solve(model, device, solver, mesh,
                                                 1, &builder);
    builder.add_solve(telemetry::SolveRow{
        .label = std::string(core::solver_name(solver)),
        .solver = std::string(core::solver_name(solver)),
        .converged = r.converged,
        .iterations = r.outer_iterations,
        .inner_iterations = 0,
        .fused_iterations = r.fused_iterations,
        .classic_iterations = r.classic_iterations,
        .final_rr = r.final_rr,
        .sim_seconds = r.seconds,
    });
    total_seconds += r.seconds;
    total_launches += r.launches;
  }
  builder.set_totals(total_seconds, builder.profile().bandwidth_gbs(),
                     total_launches);
  if (builder.write(path)) {
    std::printf("\nreport: tl-report-1 written to %s (+ %s)\n", path.c_str(),
                telemetry::ReportBuilder::openmetrics_path(path).c_str());
  } else {
    std::printf("\nreport: FAILED to write %s\n", path.c_str());
  }
}

namespace {

/// Per-kernel breakdown of one model's three solves at the convergence mesh
/// (the paper-style table: PPCG time concentrated in ppcg_inner, etc.).
void print_model_profile(const Harness& harness, sim::Model model,
                         sim::DeviceId device, int mesh) {
  sim::ProfileSink prof;
  for (const SolverKind solver : core::kAllSolvers) {
    harness.modelled_solve(model, device, solver, mesh, 1, &prof);
  }
  std::printf("\n-- per-kernel profile: %s (CG + Chebyshev + PPCG, %llu "
              "events, %.1f s total) --\n",
              std::string(sim::model_name(model)).c_str(),
              static_cast<unsigned long long>(prof.total_events()),
              prof.total_ns() * 1e-9);
  std::fputs(sim::format_profile_table(prof.profiles()).c_str(), stdout);
}

/// Writes a Chrome trace of one model's three solves, one process row per
/// solver, so chrome://tracing shows the per-kernel timelines side by side.
void write_figure_trace(const Harness& harness, sim::Model model,
                        sim::DeviceId device, int mesh,
                        const std::string& path) {
  // Bound memory on pathological meshes; dropped counts are reported.
  constexpr std::size_t kMaxEventsPerSolve = 500'000;
  std::vector<sim::RecordingSink> sinks;
  std::vector<sim::TraceGroup> groups;
  sinks.reserve(core::kAllSolvers.size());
  for (const SolverKind solver : core::kAllSolvers) {
    sinks.emplace_back(kMaxEventsPerSolve);
    harness.modelled_solve(model, device, solver, mesh, 1, &sinks.back());
  }
  std::size_t total = 0, dropped = 0;
  std::size_t i = 0;
  for (const SolverKind solver : core::kAllSolvers) {
    groups.push_back(sim::TraceGroup{
        std::string(sim::model_id(model)) + "/" +
            std::string(core::solver_name(solver)),
        sinks[i].events(), sinks[i].dropped()});
    total += sinks[i].events().size();
    dropped += sinks[i].dropped();
    ++i;
  }
  if (!sim::write_chrome_trace_file(path, groups)) {
    std::printf("\ntrace: FAILED to write %s\n", path.c_str());
    return;
  }
  std::printf("\ntrace: %zu events (%s) written to %s — load in "
              "chrome://tracing or ui.perfetto.dev\n",
              total, std::string(sim::model_name(model)).c_str(), path.c_str());
  if (dropped != 0) {
    std::printf("trace: %zu events over the %zu-per-solve cap were dropped\n",
                dropped, kMaxEventsPerSolve);
  }
}

}  // namespace

void run_device_figure(const Harness& harness, sim::DeviceId device,
                       const std::string& title, const std::string& csv_path,
                       const BenchOptions& opts) {
  const int mesh = opts.smoke ? kSmokeMesh : Harness::kConvergenceMesh;
  std::printf("== %s ==\n(%dx%d mesh%s, runtimes in simulated seconds, "
              "lower is better)\n\n", title.c_str(), mesh, mesh,
              opts.smoke ? " — SMOKE MODE" : "");
  harness.print_calibration();

  util::CsvWriter csv(csv_path, {"model", "solver", "seconds",
                                 "bandwidth_gbs", "outer_iterations"});
  util::Table table({"Model", "CG", "Chebyshev", "PPCG"});
  for (const sim::Model m : ports::figure_models(device)) {
    std::vector<std::string> row{std::string(sim::model_name(m))};
    for (const SolverKind solver : core::kAllSolvers) {
      const SolveResult r = harness.modelled_solve(m, device, solver, mesh);
      row.push_back(fmt_seconds(r.seconds));
      csv.row({std::string(sim::model_id(m)),
               std::string(core::solver_name(solver)),
               util::strf("%.3f", r.seconds),
               util::strf("%.2f", r.bandwidth_gbs),
               util::strf("%d", r.outer_iterations)});
    }
    table.row(std::move(row));
  }
  table.print();
  std::printf("\nCSV written to %s\n", csv_path.c_str());

  const std::vector<sim::Model> figure = ports::figure_models(device);
  if (opts.profile) {
    for (const sim::Model m : figure) {
      print_model_profile(harness, m, device, mesh);
    }
  }
  // --trace and --report follow the same model selection: the figure's
  // first model unless --trace-model overrides it.
  sim::Model selected = figure.empty() ? sim::Model::kOmp3Cpp : figure.front();
  if (!figure.empty() && !opts.trace_model.empty()) {
    const auto parsed = sim::parse_model(opts.trace_model);
    if (parsed && ports::is_supported(*parsed, device)) {
      selected = *parsed;
    } else {
      std::printf("\ntrace: unknown/unsupported --trace-model '%s', "
                  "using %s instead\n",
                  opts.trace_model.c_str(),
                  std::string(sim::model_id(selected)).c_str());
    }
  }
  if (!opts.trace_path.empty() && !figure.empty()) {
    write_figure_trace(harness, selected, device, mesh, opts.trace_path);
  }
  if (!opts.report_path.empty() && !figure.empty()) {
    write_figure_report(harness, selected, device, mesh, csv_path,
                        opts.report_path);
  }
}

}  // namespace bench
