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
//   - halo_update charges one make_halo_info launch;
//   - upload_state / download_energy / read_u charge one transfer each
//     (free on host devices);
//   - reduction finishes (partial sums, scalar readback) are priced inside
//     the performance model's reduction_overhead, never as extra launches.

#include "core/kernels_api.hpp"
#include "core/model_traits.hpp"

namespace tl::ports {

class PortBase : public core::SolverKernels {
 protected:
  PortBase(sim::Model model, const core::Mesh& mesh)
      : model_(model),
        mesh_(mesh),
        h_(mesh.halo_depth),
        nx_(mesh.nx),
        ny_(mesh.ny),
        width_(mesh.padded_nx()),
        height_(mesh.padded_ny()) {}

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
