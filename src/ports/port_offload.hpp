#pragma once
// Directive-offload TeaLeaf ports: OpenMP 4.0 `target` and OpenACC
// `kernels`. The paper found the two ports near-identical in structure (the
// OpenACC port was literally derived from the OpenMP 4.0 one, swapping
// directives while keeping the same data transitions); this class implements
// the shared structure and routes each kernel through the front-end matching
// its Model, so call sites read as `omp target` or `acc kernels` code.
//
// Data management mirrors the ports: a data region at the highest possible
// scope (one per step: upload_state maps density/energy0 `to`, work arrays
// `alloc`), `update from` for the energy readback, one synchronous target
// region per kernel (the per-invocation overhead the paper measured).

#include <optional>

#include "core/fields.hpp"
#include "models/offload/offload.hpp"
#include "ports/port_base.hpp"

namespace tl::ports {

class OffloadPort final : public PortBase {
 public:
  OffloadPort(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
              std::uint64_t run_seed);

  void upload_state(const core::Chunk& chunk) override;
  void init_u() override;
  void init_coefficients(core::Coefficient coefficient, double rx,
                         double ry) override;
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

  // Fused variants: the multi-sum sweeps follow field_summary's shape — one
  // region, reduction clause on the primary sum, extra scalars riding along.
  // The fused Chebyshev, PPCG and Jacobi steps charge the first sweeps below
  // at the fused rate; PortBase runs their second sweeps.
  core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;

  void read_u(util::Span2D<double> out) override;
  void download_energy(core::Chunk& chunk) override;
  util::Span2D<double> field_view(core::FieldId id) override {
    return storage_.field(id);
  }

 protected:
  models::Launcher& launcher() const override { return rt_.launcher(); }
  void cheby_calc_p_as(core::KernelId charge, double alpha,
                       double beta) override;
  void ppcg_inner_ru_as(core::KernelId charge) override;
  void jacobi_copy_u_as(core::KernelId charge) override;

 private:
  double* fp(core::FieldId id) { return storage_.field(id).data(); }
  util::Span2D<double> f(core::FieldId id) { return storage_.field(id); }
  std::span<double> fspan(core::FieldId id) { return padded_span(f(id)); }

  /// Directive front-end dispatch: `#pragma omp target teams distribute
  /// parallel for collapse(2)` vs `#pragma acc kernels loop independent
  /// collapse(2)`. The body receives the flat *interior* cell index.
  template <typename Body>
  void pfor(const sim::LaunchInfo& info, Body&& body);
  template <typename Body>
  double preduce(const sim::LaunchInfo& info, Body&& body);

  /// Flat interior index -> padded flat index.
  std::int64_t pad_index(std::int64_t i) const {
    const std::int64_t x = h_ + (i % nx_);
    const std::int64_t y = h_ + (i / nx_);
    return y * width_ + x;
  }

  mutable offload::Runtime rt_;
  core::Chunk storage_;
  std::optional<offload::DataScope> step_scope_;
};

}  // namespace tl::ports
