#include "core/kernels_api.hpp"

#include <stdexcept>
#include <string>

namespace tl::core {

namespace {

[[noreturn]] void fused_not_advertised(const char* which) {
  throw std::logic_error(std::string("SolverKernels::") + which +
                         ": fused kernel called on a port whose caps() does "
                         "not advertise it");
}

}  // namespace

CgFusedW SolverKernels::cg_calc_w_fused() {
  fused_not_advertised("cg_calc_w_fused");
}

double SolverKernels::cg_fused_ur_p(double, double) {
  fused_not_advertised("cg_fused_ur_p");
}

double SolverKernels::fused_residual_norm() {
  fused_not_advertised("fused_residual_norm");
}

void SolverKernels::cheby_fused_iterate(double, double) {
  fused_not_advertised("cheby_fused_iterate");
}

void SolverKernels::ppcg_fused_inner(double, double) {
  fused_not_advertised("ppcg_fused_inner");
}

void SolverKernels::jacobi_fused_copy_iterate() {
  fused_not_advertised("jacobi_fused_copy_iterate");
}

namespace {

[[noreturn]] void regions_not_advertised(const char* which) {
  throw std::logic_error(std::string("SolverKernels::") + which +
                         ": region sweep called on a port whose caps() does "
                         "not advertise kCapRegions");
}

}  // namespace

void SolverKernels::cg_calc_w_region(Region) {
  regions_not_advertised("cg_calc_w_region");
}

double SolverKernels::cg_calc_w_region_finish() {
  regions_not_advertised("cg_calc_w_region_finish");
}

void SolverKernels::cg_calc_w_fused_region(Region) {
  regions_not_advertised("cg_calc_w_fused_region");
}

CgFusedW SolverKernels::cg_calc_w_fused_region_finish() {
  regions_not_advertised("cg_calc_w_fused_region_finish");
}

void SolverKernels::cheby_fused_region(double, double, Region) {
  regions_not_advertised("cheby_fused_region");
}

void SolverKernels::cheby_fused_region_finish() {
  regions_not_advertised("cheby_fused_region_finish");
}

void SolverKernels::ppcg_fused_region(double, double, Region) {
  regions_not_advertised("ppcg_fused_region");
}

void SolverKernels::ppcg_fused_region_finish(double, double) {
  regions_not_advertised("ppcg_fused_region_finish");
}

void SolverKernels::jacobi_fused_region(Region) {
  regions_not_advertised("jacobi_fused_region");
}

void SolverKernels::jacobi_fused_region_finish() {
  regions_not_advertised("jacobi_fused_region_finish");
}

RegionBounds region_bounds(Region region, int halo_depth, int nx, int ny) {
  const int h = halo_depth;
  switch (region) {
    case Region::kInterior:
      return {h + 1, h + nx - 1, h + 1, h + ny - 1};
    case Region::kSouth:
      return {h, h + nx, h, h + 1};
    case Region::kNorth:
      // A 1-cell-tall tile is all south row; the north row would alias it.
      if (ny < 2) return {};
      return {h, h + nx, h + ny - 1, h + ny};
    case Region::kWest:
      return {h, h + 1, h + 1, h + ny - 1};
    case Region::kEast:
      // A 1-cell-wide tile is all west column.
      if (nx < 2) return {};
      return {h + nx - 1, h + nx, h + 1, h + ny - 1};
  }
  return {};
}

tl::util::Span2D<double> SolverKernels::field_view(FieldId) {
  throw std::logic_error(
      "SolverKernels::field_view: this kernel set exposes no field storage");
}

void SolverKernels::attach_trace_sink(tl::sim::TraceSink* sink) {
  // clock() is const-qualified because metering reads dominate its use, but
  // the SimClock object itself is mutable state owned by the port's launcher;
  // attaching an observer does not alter any metered quantity.
  const_cast<tl::sim::SimClock&>(clock()).set_trace_sink(sink);
}

int mask_field_count(unsigned mask) {
  int n = 0;
  while (mask != 0) {
    n += static_cast<int>(mask & 1u);
    mask >>= 1;
  }
  return n;
}

}  // namespace tl::core
