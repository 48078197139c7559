#include "service/entry.hpp"

#include <utility>

#include "core/driver.hpp"
#include "ports/registry.hpp"
#include "util/buffer.hpp"
#include "util/string_util.hpp"

namespace tl::service {

std::string Scenario::key() const {
  return util::strf("%s/%s/%s/%dx%d/r%d/s%d",
                    std::string(sim::model_id(model)).c_str(),
                    std::string(sim::device_short_name(device)).c_str(),
                    std::string(core::solver_name(settings.solver)).c_str(),
                    settings.nx, settings.ny, settings.nranks,
                    settings.end_step);
}

std::optional<Priority> parse_priority(std::string_view name) {
  if (name == "high") return Priority::kHigh;
  if (name == "normal") return Priority::kNormal;
  if (name == "low") return Priority::kLow;
  return std::nullopt;
}

namespace {

/// Single-chunk run, exactly quickstart's classic path: core::Driver over
/// the port, u read back from the port, energy from the host chunk.
ScenarioOutcome run_single(const Scenario& sc, const ScenarioHooks& hooks) {
  core::Driver driver(sc.settings,
                      ports::make_port(sc.model, sc.device, sc.settings.mesh(),
                                       1, hooks.host_threads));
  if (hooks.sink_for_rank) {
    if (sim::TraceSink* sink = hooks.sink_for_rank(0)) {
      driver.kernels().attach_trace_sink(sink);
    }
  }

  ScenarioOutcome outcome;
  outcome.run = driver.run();

  const core::Mesh& m = driver.mesh();
  util::Buffer<double> u(m.padded_cells());
  auto uv = u.view2d(m.padded_nx(), m.padded_ny());
  driver.kernels().read_u(uv);
  outcome.u_checksum = verify::checksum_field(m, u.view2d(m.padded_nx(),
                                                          m.padded_ny()));
  outcome.energy_checksum =
      verify::checksum_field(m, driver.chunk().field(core::FieldId::kEnergy));
  return outcome;
}

ScenarioOutcome run_distributed(const Scenario& sc,
                                const ScenarioHooks& hooks) {
  dist::PortFactory factory = [&](const core::Mesh& tile, int rank) {
    return ports::make_port(sc.model, sc.device, tile,
                            1 + static_cast<std::uint64_t>(rank),
                            hooks.host_threads);
  };
  dist::DistributedDriver driver(sc.settings, std::move(factory));
  if (hooks.sink_for_rank) {
    std::vector<sim::TraceSink*> sinks;
    sinks.reserve(static_cast<std::size_t>(sc.settings.nranks));
    for (int r = 0; r < sc.settings.nranks; ++r) {
      sinks.push_back(hooks.sink_for_rank(r));
    }
    driver.set_rank_sinks(std::move(sinks));
  }

  dist::DistReport dreport = driver.run(hooks.control);

  ScenarioOutcome outcome;
  outcome.run = std::move(dreport.run);
  outcome.ranks = std::move(dreport.ranks);
  const core::Mesh& gm = dreport.global_mesh;
  outcome.u_checksum = verify::checksum_field(
      gm, dreport.u.view2d(gm.padded_nx(), gm.padded_ny()));
  outcome.energy_checksum = verify::checksum_field(
      gm, dreport.energy.view2d(gm.padded_nx(), gm.padded_ny()));
  return outcome;
}

}  // namespace

ScenarioOutcome run_scenario(const Scenario& scenario,
                             const ScenarioHooks& hooks) {
  if (!ports::is_supported(scenario.model, scenario.device)) {
    throw std::invalid_argument(util::strf(
        "run_scenario: %s does not support device '%s' (paper Table 1)",
        std::string(sim::model_name(scenario.model)).c_str(),
        std::string(sim::device_short_name(scenario.device)).c_str()));
  }
  if (scenario.settings.nranks > 1) return run_distributed(scenario, hooks);
  return run_single(scenario, hooks);
}

}  // namespace tl::service
