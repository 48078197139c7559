#pragma once
// PhantomKernels: metering-only SolverKernels.
//
// Charges the exact launch/transfer sequence a real port produces — same
// catalogue costs, same per-model trait decoration — without allocating
// fields or doing arithmetic. Scalar returns are scripted so the solver
// drivers execute a prescribed number of iterations.
//
// Two uses:
//   - the paper-scale benches (4096^2 meshes: 10^7 cells x thousands of
//     iterations is not computable for real on this machine; iteration
//     counts come from IterationModel power-law fits of real small-mesh
//     solves), and
//   - the port<->replay consistency tests: a real port's clock must equal a
//     PhantomKernels replay configured with the port's recorded stats.

#include <cstdint>

#include "core/kernels_api.hpp"
#include "core/mesh.hpp"
#include "core/model_traits.hpp"
#include "models/launcher.hpp"

namespace tl::core {

/// Scripted convergence plan.
struct PhantomScript {
  /// Converge after this many cg_calc_ur calls (CG, bootstrap, PPCG outer).
  int converge_after_ur = 100;
  /// Converge after this many cheby_iterate calls (Chebyshev main loop).
  int converge_after_cheby = 0;
  /// Converge after this many jacobi_iterate calls (Jacobi main loop).
  int converge_after_jacobi = 0;
  /// When true the cg_calc_ur return value itself signals convergence at
  /// the threshold; when false only the norm checks do (PPCG's usual path).
  bool converge_on_ur = true;
  double eps = 1e-15;
};

/// The script that replays a solve of `settings.solver` ending after
/// `iterations` outer iterations (SolveStats::iterations): Chebyshev past
/// its CG bootstrap converges on the norm check after the remaining iterate
/// calls, Jacobi after `iterations` sweeps, and CG, PPCG or a bootstrap
/// that converged outright after `iterations` cg_calc_ur calls — signalled
/// by that call's return itself when `converges_on_ur` (CG's usual exit).
PhantomScript replay_script(const Settings& settings, int iterations,
                            bool converges_on_ur);

class PhantomKernels final : public SolverKernels {
 public:
  PhantomKernels(tl::sim::Model model, tl::sim::DeviceId device,
                 const Mesh& mesh, const PhantomScript& script,
                 std::uint64_t run_seed = 1);

  void upload_state(const Chunk&) override { upload_state(); }
  /// Chunk-free variant (benches never build a host chunk).
  void upload_state();

  void init_u() override { charge(KernelId::kInitU); }
  void init_coefficients(Coefficient, double, double) override {
    charge(KernelId::kInitCoef);
  }
  void halo_update(unsigned fields, int depth) override;
  void calc_residual() override { charge(KernelId::kCalcResidual); }
  double calc_2norm(NormTarget) override;
  void finalise() override { charge(KernelId::kFinalise); }
  FieldSummary field_summary() override;
  double cg_init() override;
  double cg_calc_w() override;
  double cg_calc_ur(double) override;
  void cg_calc_p(double) override { charge(KernelId::kCgCalcP); }
  void cheby_init(double) override { charge(KernelId::kChebyInit); }
  void cheby_iterate(double, double) override;
  void ppcg_init_sd(double) override { charge(KernelId::kPpcgInitSd); }
  void ppcg_inner(double, double) override { charge(KernelId::kPpcgInner); }
  void jacobi_copy_u() override { charge(KernelId::kJacobiCopyU); }
  void jacobi_iterate() override;

  // The replay follows the same control flow as a live fused run: the fused
  // returns are scripted to reproduce the classic scripted values (pw=1,
  // rw=0.5, ww=1 keeps the solver's predicted beta at 1, matching the
  // classic alpha/beta=1 replay).
  CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double, double) override;
  double fused_residual_norm() override;
  void cheby_fused_iterate(double, double) override;
  void ppcg_fused_inner(double, double) override {
    charge(KernelId::kPpcgFusedInner);
  }
  void jacobi_fused_copy_iterate() override;

  void read_u(tl::util::Span2D<double>) override;
  void download_energy(Chunk&) override { download_energy(); }
  void download_energy();

  const tl::sim::SimClock& clock() const override {
    return launcher_.clock();
  }
  void begin_run(std::uint64_t run_seed) override;

 private:
  void charge(KernelId id);
  bool converged() const {
    return ur_calls_ >= script_.converge_after_ur &&
           cheby_calls_ >= script_.converge_after_cheby &&
           jacobi_calls_ >= script_.converge_after_jacobi;
  }
  double norm_value() const { return converged() ? script_.eps * 0.25 : 1.0; }

  tl::sim::Model model_;
  Mesh mesh_;
  PhantomScript script_;
  models::Launcher launcher_;
  int ur_calls_ = 0;
  int cheby_calls_ = 0;
  int jacobi_calls_ = 0;
};

}  // namespace tl::core
