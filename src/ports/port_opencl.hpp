#pragma once
// OpenCL-style TeaLeaf port.
//
// Carries the full OpenCL ceremony the paper's complexity finding rests on:
// platform/device discovery, context + command queue setup, a program of
// named kernels, explicit buffer objects, per-launch setArg binding, NDRange
// sizing with overspill guards, and hand-written work-group reductions
// through local memory with per-group partials finished by the host.

#include <map>

#include "core/fields.hpp"
#include "models/ocllike/opencl.hpp"
#include "ports/port_base.hpp"

namespace tl::ports {

class OpenClPort final : public PortBase {
 public:
  OpenClPort(sim::DeviceId device, const core::Mesh& mesh,
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

  // Fused variants: the triple-dot sweep runs like field_summary (one
  // work-group reduction plus companion partial sections). The fused
  // Chebyshev, PPCG and Jacobi steps enqueue the first-sweep kernels below
  // under the fused charge; PortBase runs their second sweeps.
  core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;

  void read_u(util::Span2D<double> out) override;
  void download_energy(core::Chunk& chunk) override;
  util::Span2D<double> field_view(core::FieldId id) override {
    return device_span(id);
  }

 protected:
  models::Launcher& launcher() const override { return ctx_.launcher(); }
  void cheby_calc_p_as(core::KernelId charge, double alpha,
                       double beta) override;
  void ppcg_inner_ru_as(core::KernelId charge) override;
  void jacobi_copy_u_as(core::KernelId charge) override;

 private:
  static constexpr std::size_t kWorkGroupSize = 256;

  ocllike::Buffer& buf(core::FieldId id) {
    return *buffers_[static_cast<std::size_t>(id)];
  }
  util::Span2D<double> device_span(core::FieldId id) {
    // Emulation shortcut for device-side halo kernels (see port_base notes).
    return {buf(id).data(), width_, height_};
  }

  std::size_t interior_global() const {
    const std::size_t n = mesh_.interior_cells();
    return (n + kWorkGroupSize - 1) / kWorkGroupSize * kWorkGroupSize;
  }
  std::size_t group_count() const { return interior_global() / kWorkGroupSize; }

  /// Enqueues a prepared kernel and, for reductions, finishes the per-group
  /// partials on the host (the in-launch tree finish priced by the model).
  void run_kernel(const std::string& name, const sim::LaunchInfo& info);
  double run_reduction(const std::string& name, const sim::LaunchInfo& info);

  mutable ocllike::Context ctx_;
  ocllike::CommandQueue queue_;
  ocllike::Program program_;
  std::map<std::string, ocllike::Kernel> kernels_;
  std::array<std::unique_ptr<ocllike::Buffer>, core::kAllFields.size()> buffers_;
  std::unique_ptr<ocllike::Buffer> partials_;
};

}  // namespace tl::ports
