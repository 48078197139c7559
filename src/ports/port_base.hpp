#pragma once
// Shared scaffolding for the TeaLeaf ports.
//
// Every port implements SolverKernels with its programming model's API and
// meters launches built from the shared catalogue + per-model decoration
// (core/model_traits), which keeps live ports and the analytic replay in
// lock step. PortBase holds what no model API shapes, once for all ports:
// the unmetered second sweeps, the halo launch, the clock seam and the host
// staging of padded fields.
//
// Metering convention (matched by PhantomKernels):
//   - each SolverKernels method that runs a kernel charges exactly one
//     launch with make_launch_info(model, kernel, interior_cells), also when
//     it consumes an overlapped halo exchange: the clock, not the port,
//     splits that record (SimClock::split_next_launch, DESIGN.md §10);
//   - the Chebyshev iterate, the PPCG inner step and the Jacobi copy each
//     charge one sweep written once per port in its model's API
//     (cheby_calc_p_as, ppcg_inner_ru_as, jacobi_copy_u_as, named after the
//     OpenCL program's kernels), which takes the KernelId to charge; PortBase
//     runs it under the classic or the fused catalogue entry, so the two
//     pipelines differ in their charge only. The step's second sweep
//     (core::ref::cheby_calc_u, ppcg_inner_sd, and jacobi_iterate for the
//     fused Jacobi step) then runs unmetered in PortBase: the one charge
//     covers both sweeps;
//   - halo_update charges one make_halo_info launch on the port's launcher,
//     with the physical-boundary reflection as its body;
//   - upload_state / download_energy / read_u charge one transfer each
//     through the model's own transfer call (free on host devices);
//   - reduction finishes (partial sums, scalar readback) are priced inside
//     the performance model's reduction_overhead, never as extra launches.

#include <span>
#include <stdexcept>

#include "core/kernels_api.hpp"
#include "core/model_traits.hpp"
#include "models/launcher.hpp"

namespace tl::ports {

class PortBase : public core::SolverKernels {
 public:
  void halo_update(unsigned fields, int depth) final;
  void cheby_iterate(double alpha, double beta) final {
    cheby_step(core::KernelId::kChebyIterate, alpha, beta);
  }
  void cheby_fused_iterate(double alpha, double beta) final {
    cheby_step(core::KernelId::kChebyFusedIterate, alpha, beta);
  }
  void ppcg_inner(double alpha, double beta) final {
    ppcg_step(core::KernelId::kPpcgInner, alpha, beta);
  }
  void ppcg_fused_inner(double alpha, double beta) final {
    ppcg_step(core::KernelId::kPpcgFusedInner, alpha, beta);
  }
  void jacobi_copy_u() final {
    jacobi_copy_u_as(core::KernelId::kJacobiCopyU);
  }
  /// The copy charged at the fused rate, then the iterate sweep unmetered
  /// (the one charge covers both).
  void jacobi_fused_copy_iterate() final;

  const sim::SimClock& clock() const final { return launcher().clock(); }
  void begin_run(std::uint64_t run_seed) final {
    launcher().begin_run(run_seed);
  }

 protected:
  PortBase(sim::Model model, const core::Mesh& mesh)
      : model_(model),
        mesh_(mesh),
        h_(mesh.halo_depth),
        nx_(mesh.nx),
        ny_(mesh.ny),
        width_(mesh.padded_nx()),
        height_(mesh.padded_ny()) {}

  /// The model runtime's launcher, which meters every launch and transfer
  /// of this port. The ports hold their runtimes `mutable` so the const
  /// clock() can reach it.
  virtual models::Launcher& launcher() const = 0;

  /// r = u0 - A u; p = alpha p + beta r, charged as `charge`.
  virtual void cheby_calc_p_as(core::KernelId charge, double alpha,
                               double beta) = 0;
  /// r -= A sd; u += sd, charged as `charge`.
  virtual void ppcg_inner_ru_as(core::KernelId charge) = 0;
  /// w = u over the padded extent, charged as `charge`.
  virtual void jacobi_copy_u_as(core::KernelId charge) = 0;

  /// The whole padded allocation behind `field` as one contiguous span.
  /// Throws std::invalid_argument unless `field` has this port's padded
  /// shape.
  template <typename T>
  std::span<T> padded_span(util::Span2D<T> field) const {
    if (field.nx() != width_ || field.ny() != height_) {
      throw std::invalid_argument(
          "PortBase: field does not have the port's padded shape");
    }
    return {field.data(), field.size()};
  }
  /// Copies one padded field between host spans (shape-checked).
  void copy_field(util::Span2D<const double> src,
                  util::Span2D<double> dst) const;

  sim::LaunchInfo info(core::KernelId id) const {
    return core::make_launch_info(model_, id, mesh_.interior_cells());
  }

  std::size_t padded_bytes() const {
    return mesh_.padded_cells() * sizeof(double);
  }

  sim::Model model_;
  core::Mesh mesh_;
  int h_, nx_, ny_;       // halo depth and interior extents
  int width_, height_;    // padded extents

 private:
  void cheby_step(core::KernelId charge, double alpha, double beta);
  void ppcg_step(core::KernelId charge, double alpha, double beta);
};

}  // namespace tl::ports
