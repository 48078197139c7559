#pragma once
// The TeaLeaf kernel catalogue: one entry per solver kernel, recording the
// number of field streams it reads/writes, whether it reduces, and how
// vector-critical it is.
//
// Both execution paths pull costs from here:
//   - the ports build each launch's LaunchInfo from the catalogue (plus the
//     per-model trait decoration in ports/model_traits), and
//   - the analytic big-mesh metering replays the same entries;
// so the two can never drift apart (a test asserts their clocks agree).

#include <array>
#include <cstddef>
#include <string_view>

#include "sim/model_id.hpp"
#include "sim/traits.hpp"

namespace tl::core {

enum class KernelId {
  kInitU,         // u = u0 = energy0 * density
  kInitCoef,      // kx, ky from density (harmonic face means, pre-scaled)
  kCalcResidual,  // r = u0 - A u
  kCalc2Norm,     // sum r*r (or u0*u0)                       [reduction]
  kFinalise,      // energy = u / density
  kFieldSummary,  // vol/mass/ie/temp                          [reduction]
  kCgInit,        // w = A u; r = u0 - w; p = r; rro = r.r     [reduction]
  kCgCalcW,       // w = A p; pw = p.w                         [reduction]
  kCgCalcUr,      // u += a p; r -= a w; rrn = r.r             [reduction]
  kCgCalcP,       // p = r + b p
  kChebyInit,     // p = r / theta; u += p
  kChebyIterate,  // r = u0 - A u; p = a p + b r; u += p   [vector-critical]
  kPpcgInitSd,    // sd = r / theta
  kPpcgInner,     // u += sd; r -= A sd; sd = a sd + b r   [vector-critical]
  kJacobiCopyU,   // w = u (previous iterate)
  kJacobiIterate, // u = (u0 + sum k * w_neighbours) / diag
  kHaloUpdate,    // boundary reflection / exchange of one field
  // Fused variants (dispatched under use_fused). Appended after kHaloUpdate
  // so the classic ids keep their values; each entry prices the *fused*
  // stream counts, which is where the simulated bandwidth win comes from.
  kCgCalcWFused,           // w = A p; pw, r.w, w.w                [reduction]
  kCgFusedUrP,             // u += a p; r -= a w; p = r + b p; rrn [reduction]
  kFusedResidualNorm,      // r = u0 - A u; rr = r.r               [reduction]
  kChebyFusedIterate,      // cheby_iterate, single sweep      [vector-critical]
  kPpcgFusedInner,         // ppcg_inner, single sweep         [vector-critical]
  kJacobiFusedCopyIterate, // jacobi copy+iterate without the copy stream
};

struct KernelCost {
  std::string_view name;
  int reads = 0;        // field streams read (stencil reads count once)
  int writes = 0;       // field streams written
  int flops_per_cell = 0;
  bool reduction = false;
  /// Fraction of performance riding on the vector units (paper section 4.1:
  /// the fused Chebyshev/PPCG iteration kernels are the vector-critical
  /// extreme; the CG kernels are much less sensitive).
  double vector_sensitivity = 0.2;
};

const KernelCost& kernel_cost(KernelId id);

/// Solver phase the kernel belongs to ("setup", "shared", "cg", "cheby",
/// "ppcg", "jacobi", "halo", "diagnostics") — the trace category used by the
/// Chrome exporter and per-phase rollups.
std::string_view kernel_phase(KernelId id);

/// LaunchInfo for `id` over `interior_cells` cells with the *base* traits
/// (no model decoration): bytes from the catalogue's stream counts, the
/// working set sized for the CPU cache model.
tl::sim::LaunchInfo base_launch_info(KernelId id, std::size_t interior_cells);

/// LaunchInfo for a halo update of `nfields` fields of depth `depth` on an
/// nx x ny chunk (perimeter traffic, never a reduction).
tl::sim::LaunchInfo halo_launch_info(int nx, int ny, int nfields, int depth);

}  // namespace tl::core
