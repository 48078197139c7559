#pragma once
// Solver drivers: the algorithmic logic of CG, Chebyshev, and PPCG, written
// once against the SolverKernels interface so every port runs *identical*
// solver logic and parameters (the paper's comparison methodology).
//
// Preconditions for each solve_*: the port's u/u0/kx/ky are initialised and
// u's halo is current (Driver::run_step arranges this).

#include <vector>

#include "core/eigen.hpp"
#include "core/kernels_api.hpp"
#include "core/settings.hpp"

namespace tl::core {

/// Chebyshev and Jacobi true-residual check cadence, in iterations.
inline constexpr int kCheckInterval = 20;
/// Widening of the Lanczos spectrum estimate: [min (1 - s), max (1 + s)].
inline constexpr double kEigenSafety = 0.10;

struct SolveStats {
  SolverKind solver = SolverKind::kCg;
  bool converged = false;
  int iterations = 0;        // outer iterations (CG prep included)
  int inner_iterations = 0;  // PPCG smoothing steps
  double initial_rr = 0.0;
  double final_rr = 0.0;
  /// Every squared residual norm the solver observed, in control-flow order:
  /// initial_rr first, then one entry per outer iteration (CG's rrn) or per
  /// norm check (Chebyshev/PPCG/Jacobi). Two kernel implementations running
  /// the identical algorithm must produce element-wise matching histories —
  /// the conformance checker (src/verify) asserts exactly that.
  std::vector<double> rr_history;
  /// True when convergence fired on the cg_calc_ur return value (PPCG can
  /// alternatively converge on the post-smoothing norm check). The analytic
  /// replay needs this to reproduce the control flow exactly.
  bool converged_on_ur = false;
  /// Dispatch accounting for telemetry: iterations (outer, plus PPCG inner
  /// smoothing steps) that ran a fused kernel path vs. the
  /// classic kernel sequence. Purely observational — the conformance checker
  /// compares rr_history/control flow, never these.
  int fused_iterations = 0;
  int classic_iterations = 0;
  EigenEstimate spectrum;    // Chebyshev/PPCG only
};

SolveStats solve_cg(SolverKernels& k, const Settings& s);
SolveStats solve_cheby(SolverKernels& k, const Settings& s);
SolveStats solve_ppcg(SolverKernels& k, const Settings& s);
SolveStats solve_jacobi(SolverKernels& k, const Settings& s);

/// Dispatch by kind.
SolveStats solve(SolverKind kind, SolverKernels& k, const Settings& s);

}  // namespace tl::core
