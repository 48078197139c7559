#pragma once
// Shared scaffolding for the TeaLeaf ports.
//
// Every port implements SolverKernels with its programming model's API and
// meters launches built from the shared catalogue + per-model decoration
// (core/model_traits), which keeps live ports and the analytic replay in
// lock step.
//
// Metering convention (matched by PhantomKernels):
//   - each SolverKernels method that runs a kernel charges exactly one
//     launch with make_launch_info(model, kernel, interior_cells), also when
//     it consumes an overlapped halo exchange: the clock, not the port,
//     splits that record (SimClock::split_next_launch, DESIGN.md §10);
//   - the Chebyshev iterate, the PPCG inner step and the Jacobi copy are
//     written once per port as a body that takes the KernelId to charge;
//     PortBase runs that body under the classic or the fused catalogue
//     entry, so the two pipelines differ in their charge only;
//   - halo_update charges one make_halo_info launch;
//   - upload_state / download_energy / read_u charge one transfer each
//     (free on host devices);
//   - reduction finishes (partial sums, scalar readback) are priced inside
//     the performance model's reduction_overhead, never as extra launches.

#include "core/kernels_api.hpp"
#include "core/model_traits.hpp"

namespace tl::ports {

class PortBase : public core::SolverKernels {
 public:
  void cheby_iterate(double alpha, double beta) final {
    cheby_iterate_as(core::KernelId::kChebyIterate, alpha, beta);
  }
  void cheby_fused_iterate(double alpha, double beta) final {
    cheby_iterate_as(core::KernelId::kChebyFusedIterate, alpha, beta);
  }
  void ppcg_inner(double alpha, double beta) final {
    ppcg_inner_as(core::KernelId::kPpcgInner, alpha, beta);
  }
  void ppcg_fused_inner(double alpha, double beta) final {
    ppcg_inner_as(core::KernelId::kPpcgFusedInner, alpha, beta);
  }
  void jacobi_copy_u() final {
    jacobi_copy_u_as(core::KernelId::kJacobiCopyU);
  }
  /// The copy charged at the fused rate, then the iterate sweep unmetered
  /// (the one charge covers both).
  void jacobi_fused_copy_iterate() final;

 protected:
  PortBase(sim::Model model, const core::Mesh& mesh)
      : model_(model),
        mesh_(mesh),
        h_(mesh.halo_depth),
        nx_(mesh.nx),
        ny_(mesh.ny),
        width_(mesh.padded_nx()),
        height_(mesh.padded_ny()) {}

  /// r = u0 - A u; p = alpha p + beta r; u += p, charged as `charge`.
  virtual void cheby_iterate_as(core::KernelId charge, double alpha,
                                double beta) = 0;
  /// u += sd; r -= A sd; sd = alpha sd + beta r, charged as `charge`.
  virtual void ppcg_inner_as(core::KernelId charge, double alpha,
                             double beta) = 0;
  /// w = u over the padded extent, charged as `charge`.
  virtual void jacobi_copy_u_as(core::KernelId charge) = 0;

  /// Reflects the physical boundary of every field in the mask `fields`;
  /// each port runs it inside its own halo launch.
  void reflect_fields(unsigned fields);

  sim::LaunchInfo info(core::KernelId id) const {
    return core::make_launch_info(model_, id, mesh_.interior_cells());
  }
  sim::LaunchInfo hinfo(unsigned fields, int depth) const {
    return core::make_halo_info(model_, nx_, ny_,
                                core::mask_field_count(fields), depth);
  }

  std::size_t padded_bytes() const {
    return mesh_.padded_cells() * sizeof(double);
  }

  sim::Model model_;
  core::Mesh mesh_;
  int h_, nx_, ny_;       // halo depth and interior extents
  int width_, height_;    // padded extents
};

}  // namespace tl::ports
