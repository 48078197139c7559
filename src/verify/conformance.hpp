#pragma once
// Cross-model conformance checker.
//
// Runs every supported (model, device) pair from the paper's Table 1 through
// the chosen solvers on the default TeaLeaf problem and asserts that control
// flow (convergence, iteration counts), the residual history, the physics
// summary, and field checksums agree with the serial reference kernels
// within the documented tolerances (verify/tolerance.hpp), and that the
// port's simulated clock agrees with the PhantomKernels analytic replay —
// the full correctness contract the paper's methodology rests on, checkable
// with one call / one CLI invocation (`tl_verify`).

#include <optional>
#include <string>
#include <vector>

#include "core/solvers.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "verify/golden.hpp"
#include "verify/tolerance.hpp"

namespace tl::verify {

struct VerifyOptions {
  /// Mesh edge for the conformance solves. Small enough to be instant,
  /// large enough that CG does not converge inside the Chebyshev/PPCG
  /// bootstrap (which would hide the post-bootstrap control flow).
  int nx = 40;
  int steps = 1;
  std::uint64_t seed = 7;

  /// MiniComm ranks for the port solves. 1 checks the classic single-chunk
  /// path; R > 1 runs every cell through dist::DistributedDriver on an
  /// R-rank block decomposition and compares against the same single-rank
  /// reference under ToleranceSpec::distributed — the R-rank vs 1-rank
  /// agreement contract of DESIGN.md §8. Replay checks are skipped (the
  /// phantom replay models a single chunk).
  int ranks = 1;

  /// Overlapped halo exchange (tl_overlap_comm) for the distributed cells.
  /// When on (the default) and ranks > 1, every cell additionally runs a
  /// blocking twin of the decomposed solve and asserts the two condensed
  /// records are bit-identical — the overlap pipeline's exactness contract
  /// (DESIGN.md §10). Ignored for ranks == 1.
  bool overlap = true;

  /// Assert the live port's simulated clock against the analytic replay
  /// (only meaningful for steps == 1; skipped otherwise).
  bool check_replay = true;

  /// Path of the golden baseline CSV; empty skips the golden check.
  std::string golden_path;

  /// Fault injection: name of a reference kernel to corrupt (see
  /// PerturbingKernels::targets()); empty means none.
  std::string perturb_kernel;
  double perturb_factor = 1.0 + 1e-6;

  /// Comm-phase fault injection for the distributed cells (ranks > 1 only):
  /// "halo_payload" corrupts one received halo cell in flight, "allreduce"
  /// one rank's reduction contribution (dist::RunControl::comm_perturb).
  /// The perturbed cells must FAIL against the clean single-rank reference —
  /// the checker's proof that in-flight corruption is detected.
  std::string comm_perturb;

  /// Solvers to check (defaults to the paper's three).
  std::vector<core::SolverKind> solvers{core::kAllSolvers.begin(),
                                        core::kAllSolvers.end()};

  /// Optional restriction to one model and/or device.
  std::optional<sim::Model> only_model;
  std::optional<sim::DeviceId> only_device;
};

/// One checked quantity within a cell.
struct MetricResult {
  Metric metric = Metric::kConverged;
  Comparison cmp;       // a = port (or live reference), b = reference (or golden)
  Tolerance tol;
  bool pass = false;
  std::string detail;   // e.g. "entry 17/43" for the residual history
};

/// One model x device x solver cell of the conformance matrix.
struct CellResult {
  sim::Model model{};
  sim::DeviceId device{};
  core::SolverKind solver{};
  bool pass = false;
  double max_rel_err = 0.0;  // worst relative error over all metrics
  std::vector<MetricResult> metrics;
};

/// The reference solve for one solver, plus its golden comparison.
struct ReferenceResult {
  core::SolverKind solver{};
  GoldenRecord record;                 // condensed reference result
  std::vector<double> rr_history;
  bool golden_checked = false;         // golden store consulted?
  bool golden_pass = true;
  std::vector<MetricResult> golden_metrics;
  std::string golden_note;             // e.g. "no golden record for PPCG/40"
};

struct ConformanceReport {
  VerifyOptions options;
  std::vector<ReferenceResult> references;  // one per checked solver
  std::vector<CellResult> cells;            // model x device x solver

  int failed_cells() const;
  bool golden_pass() const;
  bool all_pass() const;  // every cell passes and the golden check holds
};

/// Runs the full conformance sweep. Throws std::invalid_argument for
/// malformed options (unknown perturbation target, empty solver list).
ConformanceReport run_conformance(const VerifyOptions& options = {});

}  // namespace tl::verify
