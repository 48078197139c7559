#pragma once
// PerturbingKernels: a SolverKernels decorator that corrupts the result of
// exactly one named kernel by a small multiplicative factor.
//
// This is the conformance subsystem's fault injector: wrapping the reference
// kernels with a perturbation on e.g. "cg_calc_ur" must make `tl_verify`
// (and the golden check) report divergence — the acceptance test that the
// checker actually has teeth. The perturbable kernels are the
// scalar-returning ones plus the field summary, because corrupting a scalar
// feeds back into the solver control flow exactly the way a genuinely broken
// kernel would.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernels_api.hpp"

namespace tl::verify {

class PerturbingKernels final : public core::SolverKernels {
 public:
  /// Wraps `inner`; results of the kernel named `target` are scaled by
  /// `factor`. Throws std::invalid_argument for unknown targets.
  PerturbingKernels(std::unique_ptr<core::SolverKernels> inner,
                    std::string target, double factor = 1.0 + 1e-6);

  /// Kernel names accepted as perturbation targets.
  static const std::vector<std::string>& targets();

  void upload_state(const core::Chunk& chunk) override {
    inner_->upload_state(chunk);
  }
  void init_u() override { inner_->init_u(); }
  void init_coefficients(core::Coefficient coefficient, double rx,
                         double ry) override {
    inner_->init_coefficients(coefficient, rx, ry);
  }
  void halo_update(unsigned fields, int depth) override {
    inner_->halo_update(fields, depth);
  }
  void calc_residual() override { inner_->calc_residual(); }
  double calc_2norm(core::NormTarget target) override {
    return scale("calc_2norm", inner_->calc_2norm(target));
  }
  void finalise() override { inner_->finalise(); }
  core::FieldSummary field_summary() override;
  double cg_init() override { return scale("cg_init", inner_->cg_init()); }
  double cg_calc_w() override {
    return scale("cg_calc_w", inner_->cg_calc_w());
  }
  double cg_calc_ur(double alpha) override {
    return scale("cg_calc_ur", inner_->cg_calc_ur(alpha));
  }
  void cg_calc_p(double beta) override { inner_->cg_calc_p(beta); }
  void cheby_init(double theta) override { inner_->cheby_init(theta); }
  void cheby_iterate(double alpha, double beta) override {
    inner_->cheby_iterate(alpha, beta);
  }
  void ppcg_init_sd(double theta) override { inner_->ppcg_init_sd(theta); }
  void ppcg_inner(double alpha, double beta) override {
    inner_->ppcg_inner(alpha, beta);
  }
  void jacobi_copy_u() override { inner_->jacobi_copy_u(); }
  void jacobi_iterate() override { inner_->jacobi_iterate(); }

  // Fused kernels perturb under their classic target names: a fused sweep is
  // the same logical kernel, so "cg_calc_w" faults must fire whichever code
  // path the solver dispatches.
  core::CgFusedW cg_calc_w_fused() override {
    core::CgFusedW v = inner_->cg_calc_w_fused();
    v.pw = scale("cg_calc_w", v.pw);
    return v;
  }
  double cg_fused_ur_p(double alpha, double beta_prev) override {
    return scale("cg_calc_ur", inner_->cg_fused_ur_p(alpha, beta_prev));
  }
  double fused_residual_norm() override {
    return scale("calc_2norm", inner_->fused_residual_norm());
  }
  void cheby_fused_iterate(double alpha, double beta) override {
    inner_->cheby_fused_iterate(alpha, beta);
  }
  void ppcg_fused_inner(double alpha, double beta) override {
    inner_->ppcg_fused_inner(alpha, beta);
  }
  void jacobi_fused_copy_iterate() override {
    inner_->jacobi_fused_copy_iterate();
  }
  tl::util::Span2D<double> field_view(core::FieldId id) override {
    return inner_->field_view(id);
  }
  void read_u(tl::util::Span2D<double> out) override { inner_->read_u(out); }
  void download_energy(core::Chunk& chunk) override {
    inner_->download_energy(chunk);
  }
  const tl::sim::SimClock& clock() const override { return inner_->clock(); }
  void begin_run(std::uint64_t run_seed) override {
    inner_->begin_run(run_seed);
  }

 private:
  double scale(std::string_view kernel, double value) const {
    return kernel == target_ ? value * factor_ : value;
  }

  std::unique_ptr<core::SolverKernels> inner_;
  std::string target_;
  double factor_;
};

}  // namespace tl::verify
