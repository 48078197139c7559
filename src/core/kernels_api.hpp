#pragma once
// SolverKernels: the contract every programming-model port implements.
//
// The solver drivers (core/solvers.cpp) contain the algorithmic logic
// exactly once; a port supplies the kernel bodies in its model's API.
// This mirrors the paper's methodology: "TeaLeaf's core solver logic and
// parameters were kept consistent between ports to ensure that each of the
// programming models were objectively compared."
//
// All methods operate on the port's own (possibly device-resident) field
// storage. Scalars returned by reductions are host values.

#include <array>
#include <memory>
#include <span>
#include <utility>

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

/// The field each mask bit names, in bit order. The distributed exchange
/// walks this order, so every rank issues its tagged exchanges in the same
/// sequence.
inline constexpr std::array<std::pair<unsigned, FieldId>, 6> kMaskFields = {{
    {kMaskU, FieldId::kU},
    {kMaskP, FieldId::kP},
    {kMaskSd, FieldId::kSd},
    {kMaskR, FieldId::kR},
    {kMaskDensity, FieldId::kDensity},
    {kMaskEnergy0, FieldId::kEnergy0},
}};

struct FieldSummary {
  double volume = 0.0;
  double mass = 0.0;
  double internal_energy = 0.0;
  double temperature = 0.0;  // volume-weighted sum of u
};

/// What calc_2norm measures.
enum class NormTarget { kResidual, kRhs };

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

  // -- Fused kernels ---------------------------------------------------------
  // Each fused method is algebraically identical to a fixed sequence of the
  // classic kernels above but streams the fields fewer times. Every kernel
  // set implements them; Settings::use_fused picks the path.

  /// w = A p, returning p.w plus the extra dot w.w that lets the solver
  /// predict rrn before updating r (one sweep instead of sweep + two extra
  /// reduction passes).
  virtual CgFusedW cg_calc_w_fused() = 0;

  /// u += alpha p; r -= alpha w; p = r + beta_prev p, in one sweep.
  /// Returns rrn = r.r (the directly summed norm of the new residual).
  virtual double cg_fused_ur_p(double alpha, double beta_prev) = 0;

  /// r = u0 - A u and rr = r.r in one pass (calc_residual + calc_2norm).
  virtual double fused_residual_norm() = 0;

  /// cheby_iterate's three logical sweeps (residual, p-recurrence, u-update)
  /// collapsed so each field is streamed once.
  virtual void cheby_fused_iterate(double alpha, double beta) = 0;

  /// ppcg_inner's sweeps (u/r update + sd recurrence) fused likewise.
  virtual void ppcg_fused_inner(double alpha, double beta) = 0;

  /// jacobi_copy_u + jacobi_iterate without materialising the copy sweep.
  virtual void jacobi_fused_copy_iterate() = 0;

  // -- Overlapped halo exchange (optional) -----------------------------------
  /// True when this kernel set's simulated timeline hides an in-flight
  /// depth-1 halo exchange behind the consuming kernel. The distributed
  /// decorator then splits that kernel's one launch record around the
  /// exchange's charge (SimClock::split_next_launch), so only the wire time
  /// not covered by the interior share is exposed. A metering rule only:
  /// numerics are identical either way. Default: false (the exchange is
  /// charged in full before the kernel).
  virtual bool overlaps_comm() const { return false; }

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
