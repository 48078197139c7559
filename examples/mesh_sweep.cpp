// mesh_sweep: a miniature, fully numeric version of the paper's Figure 11 —
// real solves (no iteration extrapolation) over a ladder of small meshes,
// showing the per-launch-overhead and cache effects at true small scale.
//
//   ./mesh_sweep [--device cpu|gpu|knc] [--max-nx 192]

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
  cli.reject_unknown({"device", "max-nx"});
  const auto device = sim::parse_device(cli.get_or("device", "cpu"));
  if (!device) {
    std::fprintf(stderr, "unknown --device\n");
    return 1;
  }
  const int max_nx = static_cast<int>(cli.get_long_or("max-nx", 192));

  std::vector<int> meshes;
  for (int nx = 48; nx <= max_nx; nx += 48) meshes.push_back(nx);

  std::printf("real CG solves on %s, simulated milliseconds per solve\n\n",
              std::string(sim::device_spec(*device).name).c_str());

  std::vector<std::string> header{"Model \\ mesh"};
  for (const int nx : meshes) header.push_back(util::strf("%dx%d", nx, nx));
  util::Table table(header);

  for (const sim::Model model : ports::figure_models(*device)) {
    std::vector<std::string> row{std::string(sim::model_name(model))};
    for (const int nx : meshes) {
      core::Settings s = core::Settings::default_problem();
      s.nx = s.ny = nx;
      core::Driver driver(s, ports::make_port(model, *device, s.mesh()));
      const auto report = driver.run();
      row.push_back(util::strf("%.2f", report.sim_total_seconds * 1e3));
    }
    table.row(std::move(row));
  }
  table.print();
  std::printf(
      "\nthe offload ports' rows start high and flatten as launch overheads\n"
      "amortise — the small-mesh end of the paper's Fig 11.\n");
  return 0;
}
