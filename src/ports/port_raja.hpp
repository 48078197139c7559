#pragma once
// RAJA-style TeaLeaf port.
//
// The interior iteration space is pre-computed once into an IndexSet of
// per-row ListSegments (the indirection arrays the paper identifies as the
// vectorisation blocker); every kernel is a lambda dispatched by
// forall<Policy>. Reductions go through ReduceSum objects. Model::kRajaSimd
// selects the paper's proof-of-concept variant whose loops carry an `omp
// simd` annotation (a codegen-profile property; the traversal is identical).

#include "core/fields.hpp"
#include "models/rajalike/raja.hpp"
#include "ports/port_base.hpp"

namespace tl::ports {

class RajaPort final : public PortBase {
 public:
  RajaPort(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
           std::uint64_t run_seed);

  void upload_state(const core::Chunk& chunk) override;
  void init_u() override;
  void init_coefficients(core::Coefficient coefficient, double rx,
                         double ry) override;
  void halo_update(unsigned fields, int depth) override;
  void calc_residual() override;
  double calc_2norm(core::NormTarget target) override;
  void finalise() override;
  core::FieldSummary field_summary() override;
  double cg_init() override;
  double cg_calc_w() override;
  double cg_calc_ur(double alpha) override;
  void cg_calc_p(double beta) override;
  void cheby_init(double theta) override;
  void ppcg_init_sd(double theta) override;
  void jacobi_iterate() override;

  // Fused variants: one forall carrying several ReduceSum objects (the
  // multi-reduction traversal the paper flags for field_summary).
  core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;

  void read_u(util::Span2D<double> out) override;
  void download_energy(core::Chunk& chunk) override;
  const sim::SimClock& clock() const override {
    return ctx_.launcher().clock();
  }
  void begin_run(std::uint64_t run_seed) override {
    ctx_.launcher().begin_run(run_seed);
  }
  util::Span2D<double> field_view(core::FieldId id) override {
    return storage_.field(id);
  }

 protected:
  void cheby_iterate_as(core::KernelId charge, double alpha,
                        double beta) override;
  void ppcg_inner_as(core::KernelId charge, double alpha,
                     double beta) override;
  void jacobi_copy_u_as(core::KernelId charge) override;

 private:
  using Policy = rajalike::omp_parallel_for_exec;

  double* fp(core::FieldId id) { return storage_.field(id).data(); }
  util::Span2D<double> f(core::FieldId id) { return storage_.field(id); }

  mutable rajalike::Context ctx_;
  core::Chunk storage_;
  // Pre-computed traversals (the paper: "the pre-computation of those
  // indirection lists still had to occur earlier in the application").
  rajalike::IndexSet interior_;       // interior cells
  rajalike::IndexSet interior_wide_;  // interior + one ring (coefficients)
};

}  // namespace tl::ports
