#include "core/iteration_model.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/driver.hpp"
#include "core/reference_kernels.hpp"

namespace tl::core {

int IterationModel::predict_outer(int nx) const {
  const double v = outer_fit.eval(static_cast<double>(nx));
  return std::max(1, offset + static_cast<int>(std::lround(v)));
}

IterationModel calibrate_iteration_model(SolverKind solver,
                                         const Settings& proto,
                                         std::span<const int> mesh_sizes) {
  if (mesh_sizes.size() < 2) {
    throw std::invalid_argument("calibrate_iteration_model: need >= 2 sizes");
  }
  IterationModel model;
  model.solver = solver;
  switch (solver) {
    case SolverKind::kCg: model.offset = 0; break;
    case SolverKind::kCheby: model.offset = proto.cg_prep_iters + 1; break;
    case SolverKind::kPpcg: model.offset = proto.cg_prep_iters; break;
    case SolverKind::kJacobi: model.offset = 0; break;
  }

  std::vector<double> xs, ys;
  double inner_ratio_sum = 0.0;
  int inner_ratio_count = 0;
  for (const int nx : mesh_sizes) {
    Settings s = proto;
    s.nx = nx;
    s.ny = nx;
    s.solver = solver;
    s.end_step = 1;
    if (solver == SolverKind::kPpcg) {
      s.ppcg_inner_steps = recommended_ppcg_inner_steps(nx);
    }
    Driver driver(s, std::make_unique<ReferenceKernels>(s.mesh()));
    const StepReport report = driver.run_step();

    CalibrationPoint point;
    point.nx = nx;
    point.outer_iterations = report.solve.iterations;
    point.inner_iterations = report.solve.inner_iterations;
    point.converged = report.solve.converged;
    model.points.push_back(point);

    xs.push_back(static_cast<double>(nx));
    ys.push_back(static_cast<double>(
        std::max(1, point.outer_iterations - model.offset)));
    if (point.outer_iterations > 0 && point.inner_iterations > 0) {
      inner_ratio_sum += static_cast<double>(point.inner_iterations) /
                         static_cast<double>(point.outer_iterations);
      ++inner_ratio_count;
    }
  }
  model.outer_fit = tl::util::fit_power(xs, ys);
  if (inner_ratio_count > 0) {
    model.inner_per_outer = inner_ratio_sum / inner_ratio_count;
  }
  return model;
}

std::vector<int> default_calibration_ladder() { return {128, 192, 256, 384}; }

}  // namespace tl::core
