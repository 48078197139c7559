#include "core/phantom_kernels.hpp"

namespace tl::core {

PhantomScript replay_script(const Settings& settings, int iterations,
                            bool converges_on_ur) {
  PhantomScript script;
  script.eps = settings.eps;
  if (settings.solver == SolverKind::kCheby &&
      iterations > settings.cg_prep_iters) {
    script.converge_after_ur = settings.cg_prep_iters;
    script.converge_after_cheby = iterations - settings.cg_prep_iters - 1;
    script.converge_on_ur = false;
  } else if (settings.solver == SolverKind::kJacobi) {
    // Jacobi never calls cg_calc_ur; it converges on the norm check, always
    // at a check-interval boundary.
    script.converge_after_ur = 0;
    script.converge_after_jacobi = iterations;
    script.converge_on_ur = false;
  } else {
    script.converge_after_ur = iterations;
    script.converge_on_ur = converges_on_ur;
  }
  return script;
}

PhantomKernels::PhantomKernels(tl::sim::Model model, tl::sim::DeviceId device,
                               const Mesh& mesh, const PhantomScript& script,
                               std::uint64_t run_seed)
    : model_(model), mesh_(mesh), script_(script),
      launcher_(model, device, run_seed) {}

void PhantomKernels::charge(KernelId id) {
  launcher_.charge(make_launch_info(model_, id, mesh_.interior_cells()));
}

void PhantomKernels::upload_state() {
  // A new step begins: the scripted convergence plan restarts (each step of
  // a multi-step run replays the same iteration budget).
  ur_calls_ = 0;
  cheby_calls_ = 0;
  jacobi_calls_ = 0;
  // Two arrays (density, energy0) map to the device as separate transfers,
  // matching every offload port's per-array map/copy calls.
  for (int i = 0; i < 2; ++i) {
    launcher_.charge_transfer(tl::sim::TransferInfo{
        .name = "upload_state",
        .bytes = mesh_.padded_cells() * sizeof(double),
        .to_device = true});
  }
}

void PhantomKernels::download_energy() {
  launcher_.charge_transfer(tl::sim::TransferInfo{
      .name = "download_energy",
      .bytes = mesh_.padded_cells() * sizeof(double),
      .to_device = false});
}

void PhantomKernels::read_u(tl::util::Span2D<double>) {
  launcher_.charge_transfer(tl::sim::TransferInfo{
      .name = "read_u",
      .bytes = mesh_.padded_cells() * sizeof(double),
      .to_device = false});
}

void PhantomKernels::halo_update(unsigned fields, int depth) {
  launcher_.charge(make_halo_info(model_, mesh_.nx, mesh_.ny,
                                  mask_field_count(fields), depth));
}

double PhantomKernels::calc_2norm(NormTarget) {
  charge(KernelId::kCalc2Norm);
  return norm_value();
}

FieldSummary PhantomKernels::field_summary() {
  charge(KernelId::kFieldSummary);
  return FieldSummary{};
}

double PhantomKernels::cg_init() {
  charge(KernelId::kCgInit);
  return 1.0;  // rro
}

double PhantomKernels::cg_calc_w() {
  charge(KernelId::kCgCalcW);
  return 1.0;  // pw
}

double PhantomKernels::cg_calc_ur(double) {
  charge(KernelId::kCgCalcUr);
  ++ur_calls_;
  if (script_.converge_on_ur && converged()) return script_.eps * 0.25;
  return 1.0;  // rrn: keeps alpha/beta == 1 (valid Lanczos input)
}

void PhantomKernels::cheby_iterate(double, double) {
  charge(KernelId::kChebyIterate);
  ++cheby_calls_;
}

CgFusedW PhantomKernels::cg_calc_w_fused() {
  charge(KernelId::kCgCalcWFused);
  // With rro = 1 these give alpha = 1 and predicted rrn = 1^2 * 2 - 1 = 1,
  // so beta = 1: the same Lanczos inputs as the classic scripted replay.
  return CgFusedW{1.0, 2.0};
}

double PhantomKernels::cg_fused_ur_p(double, double) {
  charge(KernelId::kCgFusedUrP);
  ++ur_calls_;
  if (script_.converge_on_ur && converged()) return script_.eps * 0.25;
  return 1.0;
}

double PhantomKernels::fused_residual_norm() {
  charge(KernelId::kFusedResidualNorm);
  return norm_value();
}

void PhantomKernels::cheby_fused_iterate(double, double) {
  charge(KernelId::kChebyFusedIterate);
  ++cheby_calls_;
}

void PhantomKernels::jacobi_fused_copy_iterate() {
  charge(KernelId::kJacobiFusedCopyIterate);
  ++jacobi_calls_;
}

void PhantomKernels::jacobi_iterate() {
  charge(KernelId::kJacobiIterate);
  ++jacobi_calls_;
}

void PhantomKernels::begin_run(std::uint64_t run_seed) {
  launcher_.begin_run(run_seed);
  ur_calls_ = 0;
  cheby_calls_ = 0;
  jacobi_calls_ = 0;
}

}  // namespace tl::core
