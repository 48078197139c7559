#include "core/driver.hpp"

#include <stdexcept>

#include "core/state_init.hpp"

namespace tl::core {

Driver::Driver(const Settings& settings, std::unique_ptr<SolverKernels> kernels,
               DriverOptions options)
    : settings_(settings),
      mesh_(settings.mesh()),
      kernels_(std::move(kernels)) {
  settings_.validate();
  if (!kernels_) throw std::invalid_argument("Driver: null kernels");
  if (options.materialize_host_state) {
    chunk_.emplace(mesh_);
    apply_initial_states(*chunk_, settings_);
  } else {
    placeholder_.emplace(Mesh(1, 1, 1));
  }
}

const Chunk& Driver::chunk() const {
  if (!chunk_) {
    throw std::logic_error("Driver::chunk: lightweight mode has no host state");
  }
  return *chunk_;
}

StepReport run_timestep(SolverKernels& kernels, Chunk& chunk,
                        const Settings& settings, const Mesh& global,
                        int step) {
  StepReport report;
  report.step = step;
  report.dt = settings.dt_init;

  const double start_ns = kernels.clock().elapsed_ns();

  // TeaLeaf's per-step sequence: map state onto the device, form u/u0 and
  // the face coefficients, make halos consistent, solve, finalise.
  kernels.upload_state(chunk);
  kernels.halo_update(kMaskDensity | kMaskEnergy0, global.halo_depth);
  kernels.init_u();

  const double rx = report.dt / (global.dx() * global.dx());
  const double ry = report.dt / (global.dy() * global.dy());
  kernels.init_coefficients(settings.coefficient, rx, ry);
  kernels.halo_update(kMaskU, 1);

  report.solve = solve(settings.solver, kernels, settings);

  kernels.finalise();
  report.summary = kernels.field_summary();
  kernels.download_energy(chunk);

  // Advance the state for the next step: energy0 <- energy (host side; the
  // next upload_state ships it back).
  const Mesh& mesh = chunk.mesh();
  const auto energy = chunk.field(FieldId::kEnergy);
  auto energy0 = chunk.field(FieldId::kEnergy0);
  for (int y = 0; y < mesh.padded_ny(); ++y) {
    for (int x = 0; x < mesh.padded_nx(); ++x) energy0(x, y) = energy(x, y);
  }

  report.sim_step_ns = kernels.clock().elapsed_ns() - start_ns;
  return report;
}

StepReport Driver::run_step() {
  return run_timestep(*kernels_, chunk_ ? *chunk_ : *placeholder_, settings_,
                      mesh_, ++step_);
}

RunReport Driver::run() {
  RunReport report;
  for (int s = 0; s < settings_.end_step; ++s) {
    report.steps.push_back(run_step());
  }
  const auto& clock = kernels_->clock();
  report.sim_total_seconds = clock.elapsed_seconds();
  report.achieved_bandwidth_gbs = clock.achieved_bandwidth_gbs();
  report.kernel_launches = clock.launches();
  return report;
}

}  // namespace tl::core
