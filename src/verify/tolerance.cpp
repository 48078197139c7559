#include "verify/tolerance.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace tl::verify {

namespace {

/// Maps a double onto a monotonically ordered signed integer line so ULP
/// distance is a subtraction (the classic Bruce Dawson trick).
std::int64_t ordered_bits(double v) {
  const std::int64_t bits = std::bit_cast<std::int64_t>(v);
  return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
}

}  // namespace

std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  if (a == b) return 0;  // covers +0 vs -0
  const std::int64_t oa = ordered_bits(a);
  const std::int64_t ob = ordered_bits(b);
  // Opposite-sign comparands: the walk crosses zero; report saturated
  // distance rather than counting through the entire subnormal range twice.
  if ((a < 0.0) != (b < 0.0)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::int64_t d = oa > ob ? oa - ob : ob - oa;
  return static_cast<std::uint64_t>(d);
}

Comparison compare(double a, double b, const Tolerance& tol) {
  Comparison c;
  c.a = a;
  c.b = b;
  if (std::isnan(a) || std::isnan(b)) {
    c.abs_err = c.rel_err = std::numeric_limits<double>::infinity();
    c.ulp_err = std::numeric_limits<std::uint64_t>::max();
    c.pass = false;
    return c;
  }
  c.abs_err = std::abs(a - b);
  const double scale = std::max(std::abs(a), std::abs(b));
  c.rel_err = scale > 0.0 ? c.abs_err / scale : 0.0;
  c.ulp_err = ulp_distance(a, b);
  c.pass = (a == b) || (tol.abs > 0.0 && c.abs_err <= tol.abs) ||
           (tol.rel > 0.0 && c.rel_err <= tol.rel) ||
           (tol.ulp > 0 && c.ulp_err <= tol.ulp);
  return c;
}

std::string_view metric_name(Metric m) {
  switch (m) {
    case Metric::kConverged: return "converged";
    case Metric::kIterations: return "iterations";
    case Metric::kInnerIterations: return "inner_iterations";
    case Metric::kFinalResidual: return "final_residual";
    case Metric::kResidualHistory: return "residual_history";
    case Metric::kVolume: return "volume";
    case Metric::kMass: return "mass";
    case Metric::kInternalEnergy: return "internal_energy";
    case Metric::kTemperature: return "temperature";
    case Metric::kSolutionChecksum: return "solution_checksum";
    case Metric::kEnergyChecksum: return "energy_checksum";
    case Metric::kReplaySeconds: return "replay_seconds";
    case Metric::kReplayLaunches: return "replay_launches";
  }
  return "?";
}

ToleranceSpec ToleranceSpec::defaults(core::SolverKind solver, double eps) {
  ToleranceSpec spec;
  spec.solver_ = solver;

  // Control flow must be identical: the ports run the same solver drivers.
  spec[Metric::kConverged] = Tolerance::exact();
  spec[Metric::kIterations] = Tolerance::exact();
  spec[Metric::kInnerIterations] = Tolerance::exact();

  // Residuals converge to < eps, so near convergence only the absolute
  // criterion is meaningful; early history entries are O(1) and covered by
  // the relative bound. Chebyshev's main loop accumulates the three-term
  // recurrence for kCheckInterval iterations between norm checks, so its
  // histories drift a little further apart than CG's.
  const bool cheby = solver == core::SolverKind::kCheby;
  spec[Metric::kFinalResidual] = Tolerance{.abs = eps, .rel = 1e-6};
  spec[Metric::kResidualHistory] =
      Tolerance{.abs = eps, .rel = cheby ? 1e-7 : 1e-8};

  // Physics summaries: mass/volume are pure data sums (reassociation only);
  // energy and temperature fold the solve's rounding differences.
  spec[Metric::kVolume] = Tolerance{.rel = 1e-12};
  spec[Metric::kMass] = Tolerance{.rel = 1e-12};
  spec[Metric::kInternalEnergy] = Tolerance{.rel = 1e-10};
  spec[Metric::kTemperature] = Tolerance{.rel = 1e-10};

  // Field checksums aggregate per-cell differences bounded at 1e-9 relative
  // (the existing cell-wise port test bound).
  spec[Metric::kSolutionChecksum] = Tolerance{.rel = 1e-9};
  spec[Metric::kEnergyChecksum] = Tolerance{.rel = 1e-9};

  // Metering: the analytic replay is pinned to the live ports at 1e-9
  // relative (tests/test_ports.cpp), launch counts exactly.
  spec[Metric::kReplaySeconds] = Tolerance{.rel = 1e-9};
  spec[Metric::kReplayLaunches] = Tolerance::exact();
  return spec;
}

ToleranceSpec ToleranceSpec::distributed(core::SolverKind solver, double eps) {
  // Start from the single-rank bounds and relax where the decomposition
  // genuinely changes the arithmetic. Measured drift at 4 ranks on the
  // conformance mesh is ~1e-14 relative (the global rx/ry are computed once
  // and MiniComm's allreduce is rank-order deterministic), so these bounds
  // keep an order-of-magnitude headroom without losing discrimination.
  ToleranceSpec spec = defaults(solver, eps);

  // Reassociated dot products can flip a convergence check that lands within
  // rounding of eps, shifting the outer count by an iteration (and the PPCG
  // inner tally by one batch of inner steps).
  spec[Metric::kIterations] = Tolerance{.abs = 2.0};
  spec[Metric::kInnerIterations] = Tolerance{.abs = 2.0 * 64.0};

  const bool cheby = solver == core::SolverKind::kCheby;
  spec[Metric::kResidualHistory] =
      Tolerance{.abs = eps, .rel = cheby ? 1e-6 : 1e-7};

  // Summaries and checksums fold per-tile partial sums; the Kahan checksum
  // absorbs reassociation but not the solve's own drift.
  spec[Metric::kInternalEnergy] = Tolerance{.rel = 1e-9};
  spec[Metric::kTemperature] = Tolerance{.rel = 1e-9};
  spec[Metric::kSolutionChecksum] = Tolerance{.rel = 1e-8};
  spec[Metric::kEnergyChecksum] = Tolerance{.rel = 1e-8};
  return spec;
}

const Tolerance& ToleranceSpec::operator[](Metric m) const {
  return table_[static_cast<std::size_t>(m)];
}

Tolerance& ToleranceSpec::operator[](Metric m) {
  return table_[static_cast<std::size_t>(m)];
}

}  // namespace tl::verify
