// compare_models: the paper's experiment in miniature — run every supported
// (model, device) pair on the same problem with full real numerics, verify
// they agree on the physics, and rank them by simulated runtime per device.
//
//   ./compare_models [--nx 64] [--solver cg|cheby|ppcg]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/driver.hpp"
#include "ports/registry.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace tl;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"nx", "solver"});
  const int nx = static_cast<int>(cli.get_long_or("nx", 64));

  core::Settings settings = core::Settings::default_problem();
  settings.nx = settings.ny = nx;
  // The paper's three solvers only (Jacobi appears in no paper figure).
  const std::string solver_id = cli.get_or("solver", "cg");
  const auto solver = core::parse_solver(solver_id);
  if (!solver || *solver == core::SolverKind::kJacobi) {
    std::fprintf(stderr, "unknown --solver '%s' (cg|cheby|ppcg)\n",
                 solver_id.c_str());
    return 2;
  }
  settings.solver = *solver;

  std::printf("comparing all supported ports, %dx%d, %s solver\n\n", nx, nx,
              std::string(core::solver_name(settings.solver)).c_str());

  struct Entry {
    sim::Model model;
    sim::DeviceId device;
    core::RunReport report;
  };

  std::vector<Entry> entries;
  for (const sim::DeviceId device : sim::kAllDevices) {
    for (const sim::Model model : sim::kAllModels) {
      if (!ports::is_supported(model, device)) continue;
      core::Driver driver(settings,
                          ports::make_port(model, device, settings.mesh()));
      entries.push_back({model, device, driver.run()});
    }
  }

  // All ports must agree on the answer — the paper's objectivity condition.
  const double reference_temp = entries.front().report.steps[0].summary.temperature;
  for (const auto& e : entries) {
    const double t = e.report.steps[0].summary.temperature;
    if (std::abs(t - reference_temp) > 1e-8 * std::abs(reference_temp)) {
      std::fprintf(stderr, "MISMATCH: %s reports temperature %.12f != %.12f\n",
                   std::string(sim::model_name(e.model)).c_str(), t,
                   reference_temp);
      return 1;
    }
  }
  std::printf("all %zu ports agree: temperature = %.9f (%d iterations each)\n\n",
              entries.size(), reference_temp,
              entries.front().report.steps[0].solve.iterations);

  for (const sim::DeviceId device : sim::kAllDevices) {
    std::vector<const Entry*> on_device;
    for (const auto& e : entries) {
      if (e.device == device) on_device.push_back(&e);
    }
    std::sort(on_device.begin(), on_device.end(), [](const auto* a, const auto* b) {
      return a->report.sim_total_seconds < b->report.sim_total_seconds;
    });
    std::printf("-- %s --\n", std::string(sim::device_spec(device).name).c_str());
    util::Table table({"Rank", "Model", "sim time", "achieved BW"});
    int rank = 0;
    for (const auto* e : on_device) {
      table.row({util::strf("%d", ++rank),
                 std::string(sim::model_name(e->model)),
                 util::human_seconds(e->report.sim_total_seconds),
                 util::strf("%.1f GB/s", e->report.achieved_bandwidth_gbs)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "note: at this small size per-launch overheads dominate (the paper's\n"
      "Fig 11 small-mesh regime); run the bench/ binaries for the 4096^2\n"
      "figures where bandwidth efficiency decides the ranking.\n");
  return 0;
}
