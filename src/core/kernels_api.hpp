#pragma once
// SolverKernels: the contract every programming-model port implements.
//
// The solver drivers (cg.cpp, cheby.cpp, ppcg.cpp) contain the algorithmic
// logic exactly once; a port supplies the kernel bodies in its model's API.
// This mirrors the paper's methodology: "TeaLeaf's core solver logic and
// parameters were kept consistent between ports to ensure that each of the
// programming models were objectively compared."
//
// All methods operate on the port's own (possibly device-resident) field
// storage. Scalars returned by reductions are host values.

#include <memory>
#include <span>

#include "core/fields.hpp"
#include "core/settings.hpp"
#include "sim/clock.hpp"

namespace tl::core {

/// Fields involved in a halo update (bitmask).
enum FieldMask : unsigned {
  kMaskU = 1u << 0,
  kMaskP = 1u << 1,
  kMaskSd = 1u << 2,
  kMaskR = 1u << 3,
  kMaskDensity = 1u << 4,
  kMaskEnergy0 = 1u << 5,
};
int mask_field_count(unsigned mask);

struct FieldSummary {
  double volume = 0.0;
  double mass = 0.0;
  double internal_energy = 0.0;
  double temperature = 0.0;  // volume-weighted sum of u
};

/// What calc_2norm measures.
enum class NormTarget { kResidual, kRhs };

/// Optional fused-kernel capabilities a port can advertise (bitmask returned
/// by SolverKernels::caps()). The solver drivers dispatch a fused path only
/// when the corresponding bit is set and fall back to the classic kernel
/// sequence otherwise, so a port that advertises nothing keeps working
/// unchanged.
enum KernelCaps : unsigned {
  kCapCgFused = 1u << 0,        // cg_calc_w_fused + cg_fused_ur_p
  kCapResidualNorm = 1u << 1,   // fused_residual_norm
  kCapChebyFused = 1u << 2,     // cheby_fused_iterate
  kCapPpcgFused = 1u << 3,      // ppcg_fused_inner
  kCapJacobiFused = 1u << 4,    // jacobi_fused_copy_iterate
  kCapRegions = 1u << 5,        // region-parameterised sweeps (*_region)
};
/// Note: kCapRegions is deliberately NOT part of kAllKernelCaps. The fused
/// bits describe what the solver drivers may call on a single chunk; the
/// regions bit is a distributed-overlap capability that individual ports opt
/// into (reference + omp3 today). Ports without it automatically fall back
/// to full-sweep kernels behind a blocking halo exchange.
inline constexpr unsigned kAllKernelCaps = kCapCgFused | kCapResidualNorm |
                                           kCapChebyFused | kCapPpcgFused |
                                           kCapJacobiFused;

/// Sub-domain of a tile's interior for the region-parameterised sweeps
/// (kCapRegions). The interior region is inset one cell from every interior
/// edge, so it reads no halo data and can run while a depth-1 halo exchange
/// is still in flight; the four edge regions form the one-deep boundary ring
/// that runs after the exchange completes. In padded coordinates with halo
/// depth h and interior nx x ny:
///   kInterior: x in [h+1, h+nx-1), y in [h+1, h+ny-1)
///   kSouth:    y = h,        x in [h, h+nx)
///   kNorth:    y = h+ny-1,   x in [h, h+nx)      (empty when ny < 2)
///   kWest:     x = h,        y in [h+1, h+ny-1)
///   kEast:     x = h+nx-1,   y in [h+1, h+ny-1)  (empty when nx < 2)
/// The five regions partition the interior exactly (each cell visited once)
/// for any nx, ny >= 1 — including 1-cell-tall tiles and rings wider than
/// the interior.
enum class Region { kInterior, kSouth, kNorth, kWest, kEast };

/// The edge regions, in the fixed sweep order the distributed pipeline uses.
inline constexpr Region kEdgeRegions[4] = {Region::kSouth, Region::kNorth,
                                           Region::kWest, Region::kEast};

/// Half-open cell range of `region` (see the geometry table above). Empty
/// ranges (x0 >= x1 or y0 >= y1) are valid and mean "no cells".
struct RegionBounds {
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  bool empty() const noexcept { return x0 >= x1 || y0 >= y1; }
};
RegionBounds region_bounds(Region region, int halo_depth, int nx, int ny);

/// The two dot products a fused w = A p sweep produces in one pass. The
/// solver also needs r.w to predict the next residual norm, but CG's
/// conjugacy gives it for free: p = r + beta p_old with p_old.w = 0, so
/// r.w = p.w exactly — the sweep never has to stream r.
struct CgFusedW {
  double pw = 0.0;  // p . A p  (equals r . A p by conjugacy)
  double ww = 0.0;  // A p . A p
};

class SolverKernels {
 public:
  virtual ~SolverKernels() = default;

  // -- Step setup ----------------------------------------------------------
  /// Uploads density/energy0 from the host chunk into port storage (for
  /// offload models this is the big map-to-device).
  virtual void upload_state(const Chunk& chunk) = 0;

  /// u = u0 = energy0 * density over the interior.
  virtual void init_u() = 0;

  /// Face diffusion coefficients from density, pre-scaled by rx = dt/dx^2,
  /// ry = dt/dy^2 (TeaLeaf's harmonic mean form).
  virtual void init_coefficients(Coefficient coefficient, double rx,
                                 double ry) = 0;

  /// Halo update (reflective physical boundaries on the single chunk).
  virtual void halo_update(unsigned fields, int depth) = 0;

  // -- Shared kernels ------------------------------------------------------
  virtual void calc_residual() = 0;                 // r = u0 - A u
  virtual double calc_2norm(NormTarget target) = 0; // sum of squares
  virtual void finalise() = 0;                      // energy = u / density
  virtual FieldSummary field_summary() = 0;

  // -- CG ------------------------------------------------------------------
  /// w = A u; r = u0 - w; p = r. Returns rro = r.r.
  virtual double cg_init() = 0;
  /// w = A p. Returns pw = p.w.
  virtual double cg_calc_w() = 0;
  /// u += alpha p; r -= alpha w. Returns rrn = r.r.
  virtual double cg_calc_ur(double alpha) = 0;
  /// p = r + beta p.
  virtual void cg_calc_p(double beta) = 0;

  // -- Chebyshev -----------------------------------------------------------
  /// p = r / theta; u += p.
  virtual void cheby_init(double theta) = 0;
  /// r = u0 - A u; p = alpha p + beta r; u += p.
  virtual void cheby_iterate(double alpha, double beta) = 0;

  // -- PPCG inner smoothing --------------------------------------------------
  /// sd = r / theta.
  virtual void ppcg_init_sd(double theta) = 0;
  /// u += sd; r -= A sd; sd = alpha sd + beta r.
  virtual void ppcg_inner(double alpha, double beta) = 0;

  // -- Jacobi (TeaLeaf's baseline solver) ------------------------------------
  /// w = u (save the previous iterate).
  virtual void jacobi_copy_u() = 0;
  /// u = (u0 + kx(x+1) w(x+1) + kx w(x-1) + ky(y+1) w(y+1) + ky w(y-1)) / diag.
  virtual void jacobi_iterate() = 0;

  // -- Fused kernels (optional; gated by caps()) -----------------------------
  // Each fused method is algebraically identical to a fixed sequence of the
  // classic kernels above but streams the fields fewer times. The defaults
  // throw: the solver must never call one unless the matching caps() bit is
  // advertised (tests/test_fusion.cpp asserts exactly that).

  /// Bitmask of KernelCaps this port supports. Default: none.
  virtual unsigned caps() const { return 0; }

  /// w = A p, returning p.w plus the extra dot w.w that lets the solver
  /// predict rrn before updating r (one sweep instead of sweep + two extra
  /// reduction passes).
  virtual CgFusedW cg_calc_w_fused();

  /// u += alpha p; r -= alpha w; p = r + beta_prev p, in one sweep.
  /// Returns rrn = r.r (the directly summed norm of the new residual).
  virtual double cg_fused_ur_p(double alpha, double beta_prev);

  /// r = u0 - A u and rr = r.r in one pass (calc_residual + calc_2norm).
  virtual double fused_residual_norm();

  /// cheby_iterate's three logical sweeps (residual, p-recurrence, u-update)
  /// collapsed so each field is streamed once.
  virtual void cheby_fused_iterate(double alpha, double beta);

  /// ppcg_inner's sweeps (u/r update + sd recurrence) fused likewise.
  virtual void ppcg_fused_inner(double alpha, double beta);

  /// jacobi_copy_u + jacobi_iterate without materialising the copy sweep.
  virtual void jacobi_fused_copy_iterate();

  // -- Region sweeps (optional; gated by caps() & kCapRegions) ---------------
  // Split forms of the matrix-powers sweeps for comm/compute overlap: the
  // distributed decorator calls the kInterior region while a depth-1 halo
  // exchange is in flight, completes the exchange, sweeps the four edge
  // regions (in kEdgeRegions order), then calls the matching *_finish to
  // produce the kernel's reductions / deferred updates. A port MUST make the
  // split bit-identical to the corresponding full-sweep kernel: identical
  // per-cell arithmetic, and reductions recomputed in the full sweep's exact
  // accumulation order once all cells are written (never combined by region
  // completion order). Defaults throw, mirroring the fused kernels.

  /// w = A p over `region` (field update only; no reduction).
  virtual void cg_calc_w_region(Region region);
  /// pw = p.w recomputed over the full interior (classic cg_calc_w's order).
  virtual double cg_calc_w_region_finish();
  /// Same sweep as cg_calc_w_region; paired with the fused finish.
  virtual void cg_calc_w_fused_region(Region region);
  /// {pw, ww} recomputed in cg_calc_w_fused's exact accumulation order.
  virtual CgFusedW cg_calc_w_fused_region_finish();
  /// cheby_fused_iterate's sweep over `region` (deferred u-swap in finish).
  virtual void cheby_fused_region(double alpha, double beta, Region region);
  virtual void cheby_fused_region_finish();
  /// ppcg_fused_inner's sweep over `region` (deferred sd-swap in finish).
  virtual void ppcg_fused_region(double alpha, double beta, Region region);
  virtual void ppcg_fused_region_finish(double alpha, double beta);
  /// jacobi_fused_copy_iterate split: the kInterior call performs the
  /// ping-pong swap (old u becomes w) before sweeping, so the in-flight
  /// exchange must target the pre-swap u storage (the distributed decorator
  /// captures the field view at post time).
  virtual void jacobi_fused_region(Region region);
  virtual void jacobi_fused_region_finish();

  // -- Elastic per-row reductions (optional) ---------------------------------
  // The elastic distributed mode (Settings::elastic) needs reductions whose
  // result is independent of how rows are split across ranks. A port that
  // supports it computes every reduction as one partial per interior ROW
  // (k consecutive blocks of ny slots for k-value reductions, exposed via
  // row_partials() after the kernel runs); the distributed layer gathers all
  // global rows and folds one fixed pairwise tree over them, so any
  // row-strip decomposition — equal or weighted — produces bit-identical
  // scalars. Defaults: unsupported (set_row_reductions(true) returns false).

  /// Switches per-row reduction mode. Returns true iff the request is
  /// honoured (enabling on an unsupporting port returns false).
  virtual bool set_row_reductions(bool on) { return !on; }

  /// The per-row partials of the last reduction kernel, valid until the
  /// next kernel call. Empty when row mode is off or unsupported.
  virtual std::span<const double> row_partials() const { return {}; }

  // -- Results / instrumentation -------------------------------------------
  /// Copies the current solution u into `out` (padded layout). For offload
  /// models this is a device->host read.
  virtual void read_u(tl::util::Span2D<double> out) = 0;

  /// Mutable view of one padded field in this port's storage. The distributed
  /// decorator (src/dist) packs/unpacks halo strips through this seam; every
  /// storage in the simulation is host-visible, so the view is a plain span
  /// even for the "device-resident" ports. Throws std::logic_error for
  /// kernel sets with no real storage (PhantomKernels).
  virtual tl::util::Span2D<double> field_view(FieldId id);

  /// Writes energy back into the host chunk (finalise must have run).
  virtual void download_energy(Chunk& chunk) = 0;

  /// Simulated clock for everything this port has launched.
  virtual const tl::sim::SimClock& clock() const = 0;

  /// Starts a fresh simulated run (new scheduler luck, zeroed clock).
  virtual void begin_run(std::uint64_t run_seed) = 0;

  /// Attaches `sink` (nullptr detaches) to this port's metering clock: every
  /// subsequent metered launch/transfer emits one sim::TraceEvent. Works for
  /// every port and the analytic replay with no per-port code, because all of
  /// them meter through the one SimClock that clock() exposes.
  void attach_trace_sink(tl::sim::TraceSink* sink);
};

}  // namespace tl::core
