#pragma once
// Tolerance framework for cross-model conformance checking.
//
// A Tolerance is a disjunction of three criteria — absolute difference,
// relative difference, and ULP distance — so one spec covers quantities of
// very different magnitude (converged residuals near 1e-16 pass on the
// absolute bound; O(1) energies pass on the relative bound; values that are
// bit-neighbours pass on the ULP bound regardless). A comparison passes when
// ANY enabled criterion holds; a zero/absent criterion is disabled, and an
// all-disabled Tolerance demands exact equality.

#include <cstdint>
#include <string>
#include <string_view>

#include "core/settings.hpp"

namespace tl::verify {

struct Tolerance {
  double abs = 0.0;        // |a - b| <= abs
  double rel = 0.0;        // |a - b| <= rel * max(|a|, |b|)
  std::uint64_t ulp = 0;   // ulp_distance(a, b) <= ulp

  /// Exact-match tolerance (all criteria disabled).
  static constexpr Tolerance exact() { return {}; }
};

/// Units-in-the-last-place distance between two doubles: the number of
/// representable values strictly between them (0 for equal values, including
/// +0/-0). Returns UINT64_MAX if either argument is NaN or the signs differ
/// on non-zero values of different sign.
std::uint64_t ulp_distance(double a, double b);

/// Outcome of one scalar comparison, with every criterion's error recorded
/// so reports can show *how close* a failing value was.
struct Comparison {
  double a = 0.0;
  double b = 0.0;
  double abs_err = 0.0;
  double rel_err = 0.0;
  std::uint64_t ulp_err = 0;
  bool pass = false;
};

/// Compares two doubles under `tol`. NaN never passes (even NaN vs NaN:
/// a conformance quantity that is NaN is a bug, not an agreement).
Comparison compare(double a, double b, const Tolerance& tol);

// ---------------------------------------------------------------------------
// Per-metric, per-solver tolerance tables
// ---------------------------------------------------------------------------

/// The conformance metrics the checker asserts for every
/// model x device x solver cell.
enum class Metric {
  kConverged,        // both solves converged (exact)
  kIterations,       // outer iteration count (exact)
  kInnerIterations,  // PPCG smoothing steps (exact)
  kFinalResidual,    // final squared residual norm
  kResidualHistory,  // element-wise residual history
  kVolume,           // field-summary volume
  kMass,             // field-summary mass
  kInternalEnergy,   // field-summary internal energy (the TeaLeaf validator)
  kTemperature,      // field-summary volume-weighted temperature
  kSolutionChecksum, // checksum of the solution field u
  kEnergyChecksum,   // checksum of the finalised energy field
  kReplaySeconds,    // live port simulated seconds vs analytic replay
  kReplayLaunches,   // live port launch count vs analytic replay (exact)
};

std::string_view metric_name(Metric m);

/// Tolerance table for one solver: metric -> Tolerance. The defaults encode
/// the documented bounds (DESIGN.md §7): exact integer control flow,
/// reduction-reassociation slack on energies and checksums, an absolute
/// floor of the convergence eps on residual comparisons, and the 1e-9
/// relative bound the port<->replay metering equivalence is pinned to.
class ToleranceSpec {
 public:
  /// Documented defaults for `solver` with convergence threshold `eps`.
  static ToleranceSpec defaults(core::SolverKind solver, double eps = 1e-15);

  /// R-rank vs 1-rank bounds (DESIGN.md §8): the decomposed solve reduces
  /// per-tile partials before a deterministic rank-ordered allreduce, so
  /// every dot product reassociates relative to the single-chunk run and the
  /// histories drift apart by accumulated rounding. Control flow may slip by
  /// an iteration near convergence (the residual crosses eps on a different
  /// side of the rounding), hence small absolute slack on the counts.
  static ToleranceSpec distributed(core::SolverKind solver, double eps = 1e-15);

  const Tolerance& operator[](Metric m) const;
  Tolerance& operator[](Metric m);

  core::SolverKind solver() const { return solver_; }

 private:
  core::SolverKind solver_ = core::SolverKind::kCg;
  Tolerance table_[13] = {};
};

}  // namespace tl::verify
