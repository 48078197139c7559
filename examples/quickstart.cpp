// Quickstart: solve one implicit heat-conduction step with the public API.
//
//   ./quickstart [--nx 128] [--solver cg|cheby|ppcg|jacobi] [--model kokkos]
//                [--device cpu|gpu|knc] [--steps 1] [--ranks 1]
//                [--profile] [--trace=FILE] [--report=FILE] [--verify]
//
// Builds the default TeaLeaf benchmark problem (dense cold background, hot
// light region), runs it through the chosen programming-model port on the
// chosen simulated device, and prints the solve statistics, the physics
// summary, and the simulated cost. --profile adds the per-kernel breakdown of
// the live port's solve and --trace writes it as Chrome-trace JSON — the same
// event stream the paper-scale benches record from the analytic replay.
// --verify re-runs this model x device x solver cell through the conformance
// checker (src/verify) against the serial reference kernels and exits
// nonzero if the port diverges beyond the documented tolerances.
// --ranks R (R > 1) block-decomposes the mesh over R MiniComm ranks and runs
// the same solve distributed (src/dist): per-rank comm statistics are
// summarised, --profile folds every rank's events (including the "comm"
// phase) into one table, and --trace writes one trace group per rank.
// --report=FILE writes the versioned tl-report-1 JSON run report (settings
// echo, per-kernel roofline profile, per-rank comm breakdown, registry
// counters/histograms) plus its sibling .om OpenMetrics export — the
// artifact `tl_report` analyses and regression-checks.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "dist/driver.hpp"
#include "ports/registry.hpp"
#include "service/entry.hpp"
#include "sim/trace.hpp"
#include "telemetry/report.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "verify/conformance.hpp"
#include "verify/report.hpp"

using namespace tl;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"nx", "steps", "ranks", "solver", "model", "device",
                      "profile", "trace", "report", "verify"});
  const int nx = static_cast<int>(cli.get_long_or("nx", 128));
  const int steps = static_cast<int>(cli.get_long_or("steps", 1));
  const int ranks = static_cast<int>(cli.get_long_or("ranks", 1));

  core::Settings settings = core::Settings::default_problem();
  settings.nx = settings.ny = nx;
  settings.end_step = steps;
  settings.nranks = ranks;

  const std::string solver_id = cli.get_or("solver", "cg");
  const auto solver = core::parse_solver(solver_id);
  if (!solver) {
    std::fprintf(stderr, "unknown --solver '%s'\n", solver_id.c_str());
    return 1;
  }
  settings.solver = *solver;

  const auto model = sim::parse_model(cli.get_or("model", "kokkos"));
  const auto device = sim::parse_device(cli.get_or("device", "cpu"));
  if (!model || !device) {
    std::fprintf(stderr, "unknown --model or --device\n");
    return 1;
  }
  if (!ports::is_supported(*model, *device)) {
    std::fprintf(stderr, "%s does not support device '%s' (paper Table 1)\n",
                 std::string(sim::model_name(*model)).c_str(),
                 std::string(sim::device_short_name(*device)).c_str());
    return 1;
  }

  std::printf("TeaLeaf %dx%d | %s solver | %s port | %s\n", nx, nx,
              std::string(core::solver_name(settings.solver)).c_str(),
              std::string(sim::model_name(*model)).c_str(),
              std::string(sim::device_spec(*device).name).c_str());

  const bool profile = cli.has("profile");
  const std::string trace_path = cli.get_or("trace", "");
  const std::string report_path = cli.get_or("report", "");
  const bool observe = profile || !trace_path.empty() || !report_path.empty();

  // One solve entry point for every front end (src/service/entry.hpp): the
  // same call the solve service's workers make. Observability hooks hang the
  // sinks off the shared metering spine — one RecordingSink per rank, rank 0
  // doubling as the single-chunk sink.
  service::Scenario scenario;
  scenario.settings = settings;
  scenario.model = *model;
  scenario.device = *device;

  std::vector<sim::RecordingSink> rank_sinks(
      observe ? static_cast<std::size_t>(ranks) : 0);
  service::ScenarioHooks hooks;
  if (observe) {
    hooks.sink_for_rank = [&rank_sinks](int rank) -> sim::TraceSink* {
      return &rank_sinks[static_cast<std::size_t>(rank)];
    };
  }
  service::ScenarioOutcome outcome = service::run_scenario(scenario, hooks);
  const core::RunReport report = std::move(outcome.run);
  const std::vector<dist::RankReport> rank_reports = std::move(outcome.ranks);

  for (const auto& step : report.steps) {
    std::printf(
        "step %d: %4d iters (%d inner), converged=%s, |r|^2=%.3e\n"
        "        volume=%.4f mass=%.4f internal_energy=%.6f temperature=%.6f\n",
        step.step, step.solve.iterations, step.solve.inner_iterations,
        step.solve.converged ? "yes" : "NO", step.solve.final_rr,
        step.summary.volume, step.summary.mass,
        step.summary.internal_energy, step.summary.temperature);
  }
  std::printf(
      "simulated: %s on the %s (%llu kernel launches, %.1f GB/s achieved)\n",
      util::human_seconds(report.sim_total_seconds).c_str(),
      std::string(sim::device_spec(*device).name).c_str(),
      static_cast<unsigned long long>(report.kernel_launches),
      report.achieved_bandwidth_gbs);

  if (!rank_reports.empty()) {
    const bool overlapped =
        std::any_of(rank_reports.begin(), rank_reports.end(),
                    [](const dist::RankReport& r) {
                      return r.comm.overlapped_exchanges > 0;
                    });
    std::printf("\ndecomposed over %d ranks (%s halo protocol, %s):\n", ranks,
                overlapped ? "overlapped" : "x-then-y",
                std::string(sim::node_interconnect().name).c_str());
    for (const dist::RankReport& r : rank_reports) {
      std::printf(
          "  rank %d: tile %dx%d at (%d,%d) | %llu halo exchanges, "
          "%llu allreduces, %.2f MB exchanged, comm %s",
          r.rank, r.tile.x_end - r.tile.x_begin, r.tile.y_end - r.tile.y_begin,
          r.tile.x_begin, r.tile.y_begin,
          static_cast<unsigned long long>(r.comm.halo_exchanges),
          static_cast<unsigned long long>(r.comm.allreduces),
          static_cast<double>(r.comm.bytes) / 1e6,
          util::human_seconds(r.comm.comm_ns * 1e-9).c_str());
      if (r.comm.overlapped_exchanges > 0) {
        std::printf(" (+%s hidden)",
                    util::human_seconds(r.comm.hidden_ns * 1e-9).c_str());
      }
      std::printf("\n");
    }
  }

  // Hands the recorded per-rank streams to `sink` in rank order, so every
  // fold sees the same deterministic sequence.
  const auto replay = [&rank_sinks](sim::TraceSink& sink) {
    for (const sim::RecordingSink& recording : rank_sinks) {
      for (const sim::TraceEvent& ev : recording.events()) sink.on_event(ev);
    }
  };

  if (profile) {
    sim::ProfileSink prof;
    replay(prof);
    std::printf("\nper-kernel profile (%llu events%s):\n%s",
                static_cast<unsigned long long>(prof.total_events()),
                ranks > 1 ? ", all ranks" : "",
                sim::format_profile_table(prof.profiles()).c_str());
  }
  if (!trace_path.empty()) {
    const std::string label = std::string(sim::model_id(*model)) + "/" +
                              std::string(core::solver_name(settings.solver));
    std::vector<sim::TraceGroup> groups;
    std::size_t total_events = 0;
    for (std::size_t r = 0; r < rank_sinks.size(); ++r) {
      std::string group_label = label;
      if (ranks > 1) group_label += util::strf("/rank%zu", r);
      groups.push_back(sim::TraceGroup{group_label, rank_sinks[r].events(),
                                       rank_sinks[r].dropped()});
      total_events += rank_sinks[r].events().size();
    }
    if (sim::write_chrome_trace_file(trace_path, groups)) {
      std::printf("trace: %zu events written to %s (load in chrome://tracing)\n",
                  total_events, trace_path.c_str());
    }
  }

  if (!report_path.empty()) {
    telemetry::ReportContext ctx;
    ctx.source = "quickstart";
    ctx.model = std::string(sim::model_id(*model));
    ctx.device = std::string(sim::device_short_name(*device));
    ctx.solver = std::string(core::solver_name(settings.solver));
    ctx.nx = ctx.ny = nx;
    ctx.steps = steps;
    ctx.ranks = ranks;
    ctx.use_fused = settings.use_fused;
    ctx.overlap_comm = settings.overlap_comm;
    telemetry::ReportBuilder builder(std::move(ctx));

    replay(builder);
    builder.add_run(report, report.achieved_bandwidth_gbs);
    for (const dist::RankReport& r : rank_reports) builder.add_rank(r);
    if (builder.write(report_path)) {
      std::printf(
          "report: tl-report-1 written to %s (+ %s)\n", report_path.c_str(),
          telemetry::ReportBuilder::openmetrics_path(report_path).c_str());
    } else {
      std::fprintf(stderr, "report: FAILED to write %s\n", report_path.c_str());
      return 1;
    }
  }

  if (cli.has("verify")) {
    verify::VerifyOptions vopt;
    vopt.nx = nx;
    vopt.steps = steps;
    vopt.ranks = ranks;
    vopt.solvers = {settings.solver};
    vopt.only_model = *model;
    vopt.only_device = *device;
    std::printf("\nverify: checking this cell against the reference kernels\n");
    const verify::ConformanceReport conformance = verify::run_conformance(vopt);
    std::fputs(verify::format_matrix(conformance).c_str(), stdout);
    if (!conformance.all_pass()) {
      std::fprintf(stderr, "verify: FAILED — port diverges from reference\n");
      return 1;
    }
    std::printf("verify: pass\n");
  }
  return 0;
}
