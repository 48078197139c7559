#pragma once
// Kokkos-style TeaLeaf ports.
//
// KokkosPort (flat): every kernel is a functor over the flattened padded
// iteration space with a halo-exclusion conditional in the body — the
// paper's original Kokkos port, whose loop-body condition is pathological
// when natively compiled for KNC.
//
// KokkosHpPort (hierarchical parallelism): the Sandia fix — TeamPolicy with
// one team per interior row and a nested TeamThreadRange over interior
// columns, re-encoding the halo exclusion into the iteration space (paper
// Fig 7) at the cost of a second dispatch level.

#include "core/fields.hpp"
#include "models/kokkoslike/kokkos.hpp"
#include "ports/port_base.hpp"

namespace tl::ports {

class KokkosPort : public PortBase {
 public:
  KokkosPort(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
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

  // Fused variants (flat form, shared by the HP subclass): the triple dot
  // rides a custom init/join functor, the same machinery as field_summary.
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
    // Views share one host allocation per field; the span stays valid for
    // the life of views_ (the shared state outlives every copy).
    return view(id).span();
  }

 protected:
  void cheby_iterate_as(core::KernelId charge, double alpha,
                        double beta) override;
  void ppcg_inner_as(core::KernelId charge, double alpha,
                     double beta) override;
  void jacobi_copy_u_as(core::KernelId charge) override;

  kokkoslike::View view(core::FieldId id) {
    return views_[static_cast<std::size_t>(id)];
  }
  kokkoslike::RangePolicy flat_policy() const {
    return {0, static_cast<std::int64_t>(width_) * height_};
  }

  mutable kokkoslike::Context ctx_;
  std::array<kokkoslike::View, core::kAllFields.size()> views_;
};

class KokkosHpPort final : public KokkosPort {
 public:
  KokkosHpPort(sim::DeviceId device, const core::Mesh& mesh,
               std::uint64_t run_seed);

  // The performance-critical functors get hierarchical re-encodings; the
  // setup/diagnostic kernels and the single-pass fused sweeps keep the flat
  // form (as the paper did). The Chebyshev and PPCG bodies below serve both
  // pipelines: PortBase charges them as classic or fused.
  void calc_residual() override;
  double calc_2norm(core::NormTarget target) override;
  double cg_init() override;
  double cg_calc_w() override;
  double cg_calc_ur(double alpha) override;
  void cg_calc_p(double beta) override;
  void cheby_init(double theta) override;
  void ppcg_init_sd(double theta) override;

 protected:
  void cheby_iterate_as(core::KernelId charge, double alpha,
                        double beta) override;
  void ppcg_inner_as(core::KernelId charge, double alpha,
                     double beta) override;

 private:
  kokkoslike::TeamPolicy row_policy() const { return {ny_, 1}; }
};

}  // namespace tl::ports
