#pragma once
// Driver: TeaLeaf's timestep loop. Owns the host chunk (initial state) and a
// port's SolverKernels; each step performs the implicit heat-conduction
// solve and the diagnostics, exactly the sequence the paper times.

#include <memory>
#include <optional>
#include <vector>

#include "core/fields.hpp"
#include "core/kernels_api.hpp"
#include "core/settings.hpp"
#include "core/solvers.hpp"

namespace tl::core {

struct StepReport {
  int step = 0;
  double dt = 0.0;
  SolveStats solve;
  FieldSummary summary;
  /// Simulated wall clock consumed by this step (ns).
  double sim_step_ns = 0.0;
};

struct RunReport {
  std::vector<StepReport> steps;
  double sim_total_seconds = 0.0;
  double achieved_bandwidth_gbs = 0.0;
  std::uint64_t kernel_launches = 0;

  int total_iterations() const {
    int n = 0;
    for (const auto& s : steps) n += s.solve.iterations;
    return n;
  }
};

/// One implicit step of TeaLeaf's loop on `kernels` (upload, halos, init,
/// solve, finalise, summary), then energy0 <- energy on `chunk` for the next
/// step's upload. rx/ry come from `global`'s spacing, so every rank of a
/// decomposed run applies the bit-identical operator (re-deriving dx from a
/// tile's extents can drift by an ulp between tiles of different width).
/// core::Driver and the distributed rank loop both run their steps here.
StepReport run_timestep(SolverKernels& kernels, Chunk& chunk,
                        const Settings& settings, const Mesh& global,
                        int step);

struct DriverOptions {
  /// When false, no full-size host chunk is allocated or painted: the step
  /// sequence runs against a placeholder the kernels must ignore. Only valid
  /// for metering-only kernels (PhantomKernels) — real ports read the chunk.
  bool materialize_host_state = true;
};

class Driver {
 public:
  /// Takes ownership of the port. The chunk is painted from settings.states.
  Driver(const Settings& settings, std::unique_ptr<SolverKernels> kernels,
         DriverOptions options = {});

  /// Runs one implicit step (upload, init, solve, finalise, summary).
  StepReport run_step();

  /// Runs settings.end_step steps and aggregates.
  RunReport run();

  const Settings& settings() const noexcept { return settings_; }
  const Mesh& mesh() const noexcept { return mesh_; }
  /// Throws std::logic_error in lightweight (metering-only) mode.
  const Chunk& chunk() const;
  SolverKernels& kernels() noexcept { return *kernels_; }

 private:
  Settings settings_;
  Mesh mesh_;
  std::optional<Chunk> chunk_;       // absent in lightweight mode
  std::optional<Chunk> placeholder_; // 1x1 stand-in passed to the kernels
  std::unique_ptr<SolverKernels> kernels_;
  int step_ = 0;
};

}  // namespace tl::core
