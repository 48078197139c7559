#include "core/solvers.hpp"
#include <algorithm>


#include <stdexcept>

namespace tl::core {

namespace {

/// TeaLeaf's matrix is A = I + dt * div(K grad) with a symmetric positive
/// semi-definite diffusion part under reflective (Neumann) boundaries, so
/// its smallest eigenvalue is exactly 1 (the constant mode). The Lanczos
/// bootstrap approaches lambda_min from above and overestimates it badly on
/// large meshes, which would wreck the Chebyshev interval; clamping to the
/// provable bound keeps the assumed interval containing the true spectrum.
EigenEstimate clamp_spectrum(EigenEstimate e) {
  e.min = std::min(e.min, 1.0);
  return e;
}

struct FusedCgIter {
  double alpha = 0.0;
  double beta = 0.0;
  double rrn = 0.0;
};

/// One fused CG iteration after w = A p has produced its two dot products.
/// The next search direction needs beta *before* the single u/r/p sweep, so
/// it is predicted from the exact expansion of the new residual norm,
///   rr_new = rro - 2 alpha (r.w) + alpha^2 (w.w),
/// where conjugacy turns r.w into p.w (p = r + beta p_old, p_old.w = 0) and
/// alpha = rro / p.w collapses the whole expression to
///   rr_new = alpha^2 (w.w) - rro,
/// clamped at zero against cancellation near convergence (Cauchy-Schwarz
/// guarantees the exact value is nonnegative). The sweep's directly summed
/// r.r is the authoritative rrn used for convergence and the residual
/// history (so the history stays a genuinely measured quantity).
FusedCgIter fused_cg_iter(SolverKernels& k, double rro, const CgFusedW& wf) {
  FusedCgIter s;
  s.alpha = rro / wf.pw;
  const double predicted = std::max(0.0, s.alpha * s.alpha * wf.ww - rro);
  s.beta = predicted / rro;
  s.rrn = k.cg_fused_ur_p(s.alpha, s.beta);
  return s;
}

/// CG bootstrap shared by Chebyshev and PPCG: runs cg_prep_iters CG
/// iterations, recording alpha/beta for the Lanczos spectrum estimate. Returns
/// the current rr. May converge outright (tiny meshes) — stats reflect that.
double cg_bootstrap(SolverKernels& k, const Settings& s, SolveStats& stats,
                    std::vector<double>& alphas, std::vector<double>& betas) {
  const bool fused = s.use_fused;
  double rro = k.cg_init();
  stats.initial_rr = rro;
  stats.rr_history.push_back(rro);
  k.halo_update(kMaskP, 1);
  double rrn = rro;
  for (int it = 0; it < s.cg_prep_iters; ++it) {
    double alpha = 0.0;
    double beta = 0.0;
    if (fused) {
      const FusedCgIter step = fused_cg_iter(k, rro, k.cg_calc_w_fused());
      alpha = step.alpha;
      beta = step.beta;
      rrn = step.rrn;
    } else {
      const double pw = k.cg_calc_w();
      alpha = rro / pw;
      rrn = k.cg_calc_ur(alpha);
      beta = rrn / rro;
    }
    alphas.push_back(alpha);
    betas.push_back(beta);
    ++stats.iterations;
    ++(fused ? stats.fused_iterations : stats.classic_iterations);
    stats.rr_history.push_back(rrn);
    if (rrn < s.eps) {
      stats.converged = true;
      stats.converged_on_ur = true;
      stats.final_rr = rrn;
      return rrn;
    }
    if (!fused) k.cg_calc_p(beta);  // the fused sweep already built p
    k.halo_update(kMaskP, 1);
    rro = rrn;
  }
  return rrn;
}

/// r = u0 - A u and its squared norm: one pass on ports that fuse it.
double residual_norm(SolverKernels& k, const Settings& s) {
  if (s.use_fused) return k.fused_residual_norm();
  k.calc_residual();
  return k.calc_2norm(NormTarget::kResidual);
}

}  // namespace

SolveStats solve_cg(SolverKernels& k, const Settings& s) {
  SolveStats stats;
  stats.solver = SolverKind::kCg;

  double rro = k.cg_init();
  stats.initial_rr = rro;
  stats.rr_history.push_back(rro);
  if (rro < s.eps) {  // already solved (cold uniform problem)
    stats.converged = true;
    stats.final_rr = rro;
    return stats;
  }
  k.halo_update(kMaskP, 1);

  const bool fused = s.use_fused;
  for (int it = 0; it < s.max_iters; ++it) {
    double rrn = 0.0;
    if (fused) {
      const CgFusedW wf = k.cg_calc_w_fused();
      if (wf.pw == 0.0) throw std::runtime_error("CG breakdown: p.Ap == 0");
      rrn = fused_cg_iter(k, rro, wf).rrn;
    } else {
      const double pw = k.cg_calc_w();
      if (pw == 0.0) throw std::runtime_error("CG breakdown: p.Ap == 0");
      const double alpha = rro / pw;
      rrn = k.cg_calc_ur(alpha);
    }
    ++stats.iterations;
    ++(fused ? stats.fused_iterations : stats.classic_iterations);
    stats.rr_history.push_back(rrn);
    if (rrn < s.eps) {
      stats.converged = true;
      stats.converged_on_ur = true;
      stats.final_rr = rrn;
      return stats;
    }
    if (!fused) k.cg_calc_p(rrn / rro);
    k.halo_update(kMaskP, 1);
    rro = rrn;
  }
  stats.final_rr = rro;
  return stats;
}

SolveStats solve_cheby(SolverKernels& k, const Settings& s) {
  SolveStats stats;
  stats.solver = SolverKind::kCheby;

  std::vector<double> alphas, betas;
  double rr = cg_bootstrap(k, s, stats, alphas, betas);
  if (stats.converged) return stats;

  stats.spectrum =
      clamp_spectrum(estimate_spectrum(alphas, betas, kEigenSafety));
  if (!stats.spectrum.valid) {
    throw std::runtime_error("Chebyshev: eigenvalue estimation failed");
  }
  const ChebyCoefficients coef =
      cheby_coefficients(stats.spectrum.min, stats.spectrum.max, s.max_iters);

  // r is current after the bootstrap (cg_calc_ur left it there).
  k.cheby_init(coef.theta);
  k.halo_update(kMaskU, 1);
  ++stats.iterations;

  const bool fused = s.use_fused;
  for (int it = 0; it < s.max_iters && stats.iterations < s.max_iters;
       ++it) {
    const double a = coef.alphas[static_cast<std::size_t>(it)];
    const double b = coef.betas[static_cast<std::size_t>(it)];
    if (fused) {
      k.cheby_fused_iterate(a, b);
    } else {
      k.cheby_iterate(a, b);
    }
    k.halo_update(kMaskU, 1);
    ++stats.iterations;
    ++(fused ? stats.fused_iterations : stats.classic_iterations);
    if ((it + 1) % kCheckInterval == 0) {
      // The iterate keeps r current, so the periodic check is a bare norm.
      rr = k.calc_2norm(NormTarget::kResidual);
      stats.rr_history.push_back(rr);
      if (rr < s.eps) {
        stats.converged = true;
        break;
      }
    }
  }
  // Authoritative final residual.
  stats.final_rr = residual_norm(k, s);
  stats.rr_history.push_back(stats.final_rr);
  stats.converged = stats.final_rr < s.eps;
  return stats;
}

SolveStats solve_ppcg(SolverKernels& k, const Settings& s) {
  SolveStats stats;
  stats.solver = SolverKind::kPpcg;

  std::vector<double> alphas, betas;
  double rro = cg_bootstrap(k, s, stats, alphas, betas);
  if (stats.converged) return stats;

  stats.spectrum =
      clamp_spectrum(estimate_spectrum(alphas, betas, kEigenSafety));
  if (!stats.spectrum.valid) {
    throw std::runtime_error("PPCG: eigenvalue estimation failed");
  }
  const ChebyCoefficients coef = cheby_coefficients(
      stats.spectrum.min, stats.spectrum.max, s.ppcg_inner_steps);

  // The bootstrap ends after cg_calc_p/halo(p) with rro current; continue
  // the outer CG with polynomially smoothed residuals (TeaLeaf's scheme:
  // the smoothing updates u and r directly, no extra vector).
  //
  // The outer iteration deliberately stays on the classic kernels: beta must
  // be recomputed from the *post-smoothing* norm before p is rebuilt, so the
  // fused u/r/p sweep does not apply, and the extra dot products of the
  // fused w sweep would be wasted streams. The fused win for PPCG is the
  // bootstrap (above) and the inner smoothing (below).
  const bool fused_inner = s.use_fused;
  for (int it = 0; it < s.max_iters; ++it) {
    const double pw = k.cg_calc_w();
    if (pw == 0.0) throw std::runtime_error("PPCG breakdown: p.Ap == 0");
    const double alpha = rro / pw;
    double rrn = k.cg_calc_ur(alpha);
    ++stats.iterations;
    ++stats.classic_iterations;  // outer PPCG stays on the classic kernels
    stats.rr_history.push_back(rrn);
    if (rrn < s.eps) {
      stats.converged = true;
      stats.converged_on_ur = true;
      stats.final_rr = rrn;
      return stats;
    }

    // Inner Chebyshev smoothing of the residual.
    k.ppcg_init_sd(coef.theta);
    k.halo_update(kMaskSd, 1);
    for (int j = 0; j < s.ppcg_inner_steps; ++j) {
      const double a = coef.alphas[static_cast<std::size_t>(j)];
      const double b = coef.betas[static_cast<std::size_t>(j)];
      if (fused_inner) {
        k.ppcg_fused_inner(a, b);
      } else {
        k.ppcg_inner(a, b);
      }
      k.halo_update(kMaskSd, 1);
      ++stats.inner_iterations;
      ++(fused_inner ? stats.fused_iterations : stats.classic_iterations);
    }
    rrn = k.calc_2norm(NormTarget::kResidual);
    stats.rr_history.push_back(rrn);
    if (rrn < s.eps) {
      stats.converged = true;
      stats.final_rr = rrn;
      return stats;
    }

    const double beta = rrn / rro;
    k.cg_calc_p(beta);
    k.halo_update(kMaskP, 1);
    rro = rrn;
  }
  stats.final_rr = rro;
  return stats;
}

SolveStats solve_jacobi(SolverKernels& k, const Settings& s) {
  // TeaLeaf's explicit baseline: slow (iterations scale with the condition
  // number, not its square root) but the simplest possible kernel pair.
  SolveStats stats;
  stats.solver = SolverKind::kJacobi;

  double rr = residual_norm(k, s);
  stats.initial_rr = rr;
  stats.rr_history.push_back(rr);
  if (rr < s.eps) {
    stats.converged = true;
    stats.final_rr = rr;
    return stats;
  }

  const bool fused = s.use_fused;
  for (int it = 0; it < s.max_iters; ++it) {
    if (fused) {
      k.jacobi_fused_copy_iterate();
    } else {
      k.jacobi_copy_u();
      k.jacobi_iterate();
    }
    k.halo_update(kMaskU, 1);
    ++stats.iterations;
    ++(fused ? stats.fused_iterations : stats.classic_iterations);
    if ((it + 1) % kCheckInterval == 0) {
      rr = residual_norm(k, s);
      stats.rr_history.push_back(rr);
      if (rr < s.eps) break;
    }
  }
  stats.final_rr = residual_norm(k, s);
  stats.rr_history.push_back(stats.final_rr);
  stats.converged = stats.final_rr < s.eps;
  return stats;
}

SolveStats solve(SolverKind kind, SolverKernels& k, const Settings& s) {
  switch (kind) {
    case SolverKind::kCg: return solve_cg(k, s);
    case SolverKind::kCheby: return solve_cheby(k, s);
    case SolverKind::kPpcg: return solve_ppcg(k, s);
    case SolverKind::kJacobi: return solve_jacobi(k, s);
  }
  throw std::invalid_argument("solve: unsupported solver kind");
}

}  // namespace tl::core
