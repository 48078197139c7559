// deck_run: drive the solver from a tea.in-style input deck, like the
// original TeaLeaf binary.
//
//   ./deck_run path/to/tea.in [--model fortran] [--device cpu]
//
// See examples/tea.in for the deck format (x_cells, tl_use_cg, state lines,
// ...). Unrecognised keys are ignored; missing keys keep TeaLeaf defaults.

#include <cstdio>

#include "core/driver.hpp"
#include "ports/registry.hpp"
#include "util/cli.hpp"
#include "util/ini.hpp"
#include "util/string_util.hpp"

using namespace tl;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"model", "device"});
  if (cli.positional().empty()) {
    std::fprintf(stderr, "usage: %s <deck.in> [--model m] [--device d]\n",
                 cli.program().c_str());
    return 1;
  }

  core::Settings settings;
  try {
    settings = core::Settings::from_config(
        util::IniConfig::parse_file(cli.positional().front()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deck error: %s\n", e.what());
    return 1;
  }

  const auto model = sim::parse_model(cli.get_or("model", "fortran"));
  const auto device = sim::parse_device(cli.get_or("device", "cpu"));
  if (!model || !device || !ports::is_supported(*model, *device)) {
    std::fprintf(stderr, "bad or unsupported --model/--device combination\n");
    return 1;
  }

  std::printf("deck: %s | %dx%d cells | %s | eps=%g | %d step(s)\n",
              cli.positional().front().c_str(), settings.nx, settings.ny,
              std::string(core::solver_name(settings.solver)).c_str(),
              settings.eps, settings.end_step);

  core::Driver driver(settings,
                      ports::make_port(*model, *device, settings.mesh()));
  for (int s = 0; s < settings.end_step; ++s) {
    const core::StepReport step = driver.run_step();
    std::printf(
        "step %2d: dt=%.4g  iters=%4d  |r|^2=%.3e  temperature=%.9f\n",
        step.step, step.dt, step.solve.iterations, step.solve.final_rr,
        step.summary.temperature);
    if (!step.solve.converged) {
      std::fprintf(stderr, "step %d failed to converge\n", step.step);
      return 1;
    }
  }
  std::printf("simulated total: %s\n",
              util::human_seconds(
                  driver.kernels().clock().elapsed_seconds()).c_str());
  return 0;
}
