#include "core/kernel_catalog.hpp"

namespace tl::core {

namespace {
constexpr double kCgSensitivity = 0.2;
constexpr double kFusedSensitivity = 0.4;  // Chebyshev/PPCG fused iterate

constexpr std::array kCatalog = {
    KernelCost{"init_u", 2, 2, 2, false, kCgSensitivity},
    KernelCost{"init_coef", 1, 2, 8, false, kCgSensitivity},
    KernelCost{"calc_residual", 4, 1, 13, false, kCgSensitivity},
    KernelCost{"calc_2norm", 1, 0, 2, true, kCgSensitivity},
    KernelCost{"finalise", 2, 1, 1, false, kCgSensitivity},
    KernelCost{"field_summary", 3, 0, 9, true, kCgSensitivity},
    KernelCost{"cg_init", 4, 3, 15, true, kCgSensitivity},
    KernelCost{"cg_calc_w", 3, 1, 13, true, kCgSensitivity},
    KernelCost{"cg_calc_ur", 4, 2, 6, true, kCgSensitivity},
    KernelCost{"cg_calc_p", 2, 1, 2, false, kCgSensitivity},
    KernelCost{"cheby_init", 2, 2, 3, false, kCgSensitivity},
    KernelCost{"cheby_iterate", 7, 3, 18, false, kFusedSensitivity},
    KernelCost{"ppcg_init_sd", 1, 1, 1, false, kCgSensitivity},
    // The PPCG inner step is fused but less vector-bound than the Chebyshev
    // iterate (paper section 4.1: RAJA penalties were ~20% for CG *and*
    // PPCG vs ~40% for Chebyshev).
    KernelCost{"ppcg_inner", 7, 3, 18, false, 0.25},
    KernelCost{"jacobi_copy_u", 1, 1, 0, false, kCgSensitivity},
    KernelCost{"jacobi_iterate", 4, 1, 12, false, 0.3},
    KernelCost{"halo_update", 1, 1, 0, false, 0.0},
    // Fused entries. Stream accounting (classic -> fused per call):
    //   cg_calc_w_fused      w(3r,1w) + one extra dot (conjugacy supplies
    //                        r.w = p.w, so r is never streamed)  -> 3r,1w
    //   cg_fused_ur_p        ur(4r,2w) + p(2r,1w) = 9 streams -> 4r,3w = 7
    //   fused_residual_norm  residual(4r,1w) + 2norm(1r)      -> 4r,1w
    //   cheby_fused_iterate  7r,3w                            -> 5r,3w
    //   ppcg_fused_inner     7r,3w                            -> 5r,3w
    //   jacobi_fused         copy(1r,1w) + iterate(4r,1w)     -> 4r,1w
    KernelCost{"cg_calc_w_fused", 3, 1, 15, true, kCgSensitivity},
    KernelCost{"cg_fused_ur_p", 4, 3, 8, true, kCgSensitivity},
    KernelCost{"fused_residual_norm", 4, 1, 15, true, kCgSensitivity},
    KernelCost{"cheby_fused_iterate", 5, 3, 18, false, kFusedSensitivity},
    KernelCost{"ppcg_fused_inner", 5, 3, 18, false, 0.25},
    KernelCost{"jacobi_fused_copy_iterate", 4, 1, 12, false, 0.3},
};
}  // namespace

const KernelCost& kernel_cost(KernelId id) {
  return kCatalog[static_cast<std::size_t>(id)];
}

std::string_view kernel_phase(KernelId id) {
  switch (id) {
    case KernelId::kInitU:
    case KernelId::kInitCoef: return "setup";
    case KernelId::kCalcResidual:
    case KernelId::kCalc2Norm: return "shared";
    case KernelId::kFinalise:
    case KernelId::kFieldSummary: return "diagnostics";
    case KernelId::kCgInit:
    case KernelId::kCgCalcW:
    case KernelId::kCgCalcUr:
    case KernelId::kCgCalcP: return "cg";
    case KernelId::kChebyInit:
    case KernelId::kChebyIterate: return "cheby";
    case KernelId::kPpcgInitSd:
    case KernelId::kPpcgInner: return "ppcg";
    case KernelId::kJacobiCopyU:
    case KernelId::kJacobiIterate: return "jacobi";
    case KernelId::kHaloUpdate: return "halo";
    case KernelId::kCgCalcWFused:
    case KernelId::kCgFusedUrP: return "cg";
    case KernelId::kFusedResidualNorm: return "shared";
    case KernelId::kChebyFusedIterate: return "cheby";
    case KernelId::kPpcgFusedInner: return "ppcg";
    case KernelId::kJacobiFusedCopyIterate: return "jacobi";
  }
  return "kernel";
}

tl::sim::LaunchInfo base_launch_info(KernelId id, std::size_t interior_cells) {
  const KernelCost& cost = kernel_cost(id);
  tl::sim::LaunchInfo info;
  info.name = cost.name;
  info.kernel_id = static_cast<int>(id);
  info.phase = kernel_phase(id);
  info.items = interior_cells;
  info.bytes_read =
      static_cast<std::size_t>(cost.reads) * interior_cells * sizeof(double);
  info.bytes_written =
      static_cast<std::size_t>(cost.writes) * interior_cells * sizeof(double);
  info.flops = static_cast<std::size_t>(cost.flops_per_cell) * interior_cells;
  info.working_set_bytes = info.bytes_read + info.bytes_written;
  info.traits.reduction = cost.reduction;
  info.traits.vector_sensitivity = cost.vector_sensitivity;
  return info;
}

tl::sim::LaunchInfo halo_launch_info(int nx, int ny, int nfields, int depth) {
  const KernelCost& cost = kernel_cost(KernelId::kHaloUpdate);
  const std::size_t perimeter_cells =
      2 * static_cast<std::size_t>(depth) *
      (static_cast<std::size_t>(nx) + static_cast<std::size_t>(ny));
  const std::size_t bytes =
      perimeter_cells * static_cast<std::size_t>(nfields) * sizeof(double);
  tl::sim::LaunchInfo info;
  info.name = cost.name;
  info.kernel_id = static_cast<int>(KernelId::kHaloUpdate);
  info.phase = kernel_phase(KernelId::kHaloUpdate);
  info.items = perimeter_cells * static_cast<std::size_t>(nfields);
  info.bytes_read = bytes;
  info.bytes_written = bytes;
  info.working_set_bytes = 2 * bytes;
  info.traits.vector_sensitivity = 0.0;
  return info;
}

}  // namespace tl::core
