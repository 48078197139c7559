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

struct SolveOptions {
  double eps = 1e-15;     // convergence: rr (squared 2-norm of r) < eps
  int max_iters = 10'000;
  int cg_prep_iters = 20;   // CG bootstrap length for eigen-estimation
  int ppcg_inner_steps = 10;
  int check_interval = 20;  // Chebyshev residual-check cadence
  double eigen_safety = 0.10;
  /// Dispatch the fused kernel paths (every kernel set implements them).
  /// Off forces the classic kernel sequence (the fused-vs-unfused bench and
  /// tests use this).
  bool use_fused = true;

  static SolveOptions from_settings(const Settings& s) {
    return SolveOptions{s.eps,
                        s.max_iters,
                        s.cg_prep_iters,
                        s.ppcg_inner_steps,
                        s.check_interval,
                        s.eigen_safety,
                        s.use_fused};
  }
};

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

SolveStats solve_cg(SolverKernels& k, const SolveOptions& opt);
SolveStats solve_cheby(SolverKernels& k, const SolveOptions& opt);
SolveStats solve_ppcg(SolverKernels& k, const SolveOptions& opt);
SolveStats solve_jacobi(SolverKernels& k, const SolveOptions& opt);

/// Dispatch by kind.
SolveStats solve(SolverKind kind, SolverKernels& k, const SolveOptions& opt);

}  // namespace tl::core
