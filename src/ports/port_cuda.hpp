#pragma once
// CUDA-style TeaLeaf port.
//
// The paper's device-tuned GPU lower bound: every loop is a kernel launched
// over a 1-D grid of 1-D blocks with hand-computed block counts and
// overspill guards, data lives in explicit device buffers moved by
// cudaMemcpy-style calls, and reductions are manual — per-thread values into
// shared memory, per-block partials to global memory, finished on the host
// (the extra complexity the paper attributes to CUDA over Kokkos).

#include "core/fields.hpp"
#include "models/culike/cuda.hpp"
#include "ports/port_base.hpp"

namespace tl::ports {

class CudaPort final : public PortBase {
 public:
  CudaPort(sim::DeviceId device, const core::Mesh& mesh,
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

  // Fused variants: the triple dot runs like field_summary (block reduction
  // plus companion partial sections). The fused Chebyshev, PPCG and Jacobi
  // steps launch the first-sweep kernels below under the fused charge;
  // PortBase runs their second sweeps.
  core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;

  void read_u(util::Span2D<double> out) override;
  void download_energy(core::Chunk& chunk) override;
  util::Span2D<double> field_view(core::FieldId id) override {
    // Emulation shortcut: "device" buffers are host-visible (port_base notes).
    return device_span(id);
  }

 protected:
  models::Launcher& launcher() const override { return rt_.launcher(); }
  void cheby_calc_p_as(core::KernelId charge, double alpha,
                       double beta) override;
  void ppcg_inner_ru_as(core::KernelId charge) override;
  void jacobi_copy_u_as(core::KernelId charge) override;

 private:
  static constexpr unsigned kBlockSize = 256;

  culike::DeviceBuffer& buf(core::FieldId id) {
    return *buffers_[static_cast<std::size_t>(id)];
  }
  util::Span2D<double> device_span(core::FieldId id) {
    return {buf(id).data(), width_, height_};
  }
  unsigned interior_blocks() const {
    return culike::Runtime::blocks_for(mesh_.interior_cells(), kBlockSize);
  }
  /// Host finish of the per-block partials (in-launch tail, priced by the
  /// model's reduction overhead).
  double sum_partials(unsigned blocks) const;

  mutable culike::Runtime rt_;
  std::array<std::unique_ptr<culike::DeviceBuffer>, core::kAllFields.size()>
      buffers_;
  std::unique_ptr<culike::DeviceBuffer> partials_;
};

}  // namespace tl::ports
