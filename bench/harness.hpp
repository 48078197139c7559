#pragma once
// Shared bench harness for the paper-reproduction binaries (one per table /
// figure, see DESIGN.md's per-experiment index).
//
// Pipeline: real small-mesh solves calibrate the per-solver iteration power
// law; paper-scale meshes are then metered through PhantomKernels with the
// same kernel catalogue and per-model trait decoration the live ports use
// (pinned by the port<->replay consistency tests).

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/iteration_model.hpp"
#include "core/settings.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"

namespace bench {

struct SolveResult {
  tl::sim::Model model;
  tl::sim::DeviceId device;
  tl::core::SolverKind solver;
  int nx = 0;
  int outer_iterations = 0;
  double seconds = 0.0;            // simulated runtime
  double bandwidth_gbs = 0.0;      // achieved main-memory bandwidth
  std::uint64_t launches = 0;
  // Dispatch accounting carried through for run reports.
  int fused_iterations = 0;
  int classic_iterations = 0;
  bool converged = false;
  double final_rr = 0.0;
};

class Harness {
 public:
  /// Calibrates iteration power laws for all three solvers by running real
  /// solves on the reference kernels over `ladder` (defaults to
  /// core::default_calibration_ladder()).
  explicit Harness(std::vector<int> ladder = {});

  const tl::core::IterationModel& iteration_model(
      tl::core::SolverKind solver) const;

  /// Predicted outer iterations at mesh size nx (square meshes).
  int predicted_outer(tl::core::SolverKind solver, int nx) const;

  /// Paper-scale modelled solve: one timestep at nx^2 under (model, device),
  /// iterations from the calibrated fit, metered via PhantomKernels. When
  /// `sink` is non-null it receives one TraceEvent per metered
  /// launch/transfer of the solve (the result is unchanged either way).
  /// `use_fused = false` forces the classic kernel sequence (bench_fusion
  /// compares the two pipelines cell by cell).
  SolveResult modelled_solve(tl::sim::Model model, tl::sim::DeviceId device,
                             tl::core::SolverKind solver, int nx,
                             std::uint64_t run_seed = 1,
                             tl::sim::TraceSink* sink = nullptr,
                             bool use_fused = true) const;

  /// Jacobi has no calibrated power law (it appears in no paper figure), so
  /// modelled Jacobi solves run a fixed iteration budget instead.
  static constexpr int kJacobiModelledIters = 200;

  /// The paper's headline mesh (the mesh-convergence point).
  static constexpr int kConvergenceMesh = 4096;

  /// Fig 11 mesh ladder: ~k * 1.5e5 cells, k = 1..10 (up to 1225^2).
  static std::vector<int> fig11_meshes();

  /// Prints the calibration block every figure bench leads with.
  void print_calibration() const;

 private:
  tl::core::Settings proto_;
  std::map<tl::core::SolverKind, tl::core::IterationModel> models_;
};

/// Formats seconds for table cells ("1234.5").
std::string fmt_seconds(double s);

/// Flags shared by every bench binary, parsed in exactly one place
/// (parse_bench_options). The observability flags are strictly additive:
/// with none set, bench output and CSVs are byte-identical to the untraced
/// harness (no sink is ever attached).
struct BenchOptions {
  /// --profile: after the runtime table, print a per-kernel breakdown
  /// (count, total, % of run, GB/s, scheduler factor spread) per model.
  bool profile = false;
  /// --trace=FILE: write a Chrome trace (chrome://tracing JSON) of one
  /// model's three solves, one timeline row per solver.
  std::string trace_path;
  /// --trace-model=ID: which model to trace (default: the figure's first).
  std::string trace_model;
  /// --smoke: CI fast path — calibrate on a short ladder and run the figure
  /// at kSmokeMesh instead of the paper's 4096^2. Exercises the identical
  /// pipeline (calibration, phantom metering, CSV) in a fraction of the
  /// time; the CSV is NOT comparable to the committed full-size goldens.
  bool smoke = false;
  /// --report=FILE: write the tl-report-1 JSON run report (and its sibling
  /// .om OpenMetrics export) of the bench's metered solves.
  std::string report_path;
};

/// Mesh edge for --smoke figure runs.
inline constexpr int kSmokeMesh = 512;

/// Calibration ladder for --smoke runs (the full default ladder is used
/// otherwise).
std::vector<int> smoke_ladder();

/// Parses --profile / --trace=FILE / --trace-model=ID / --smoke /
/// --report=FILE. Any other flag not named in `extra` (the bench's own
/// flags, read from the same `cli`) exits 2.
BenchOptions parse_bench_options(const tl::util::Cli& cli,
                                 std::vector<std::string_view> extra = {});

/// Meters `model`'s three solves (CG, Chebyshev, PPCG) at `mesh` on
/// `device` and writes the tl-report-1 run report to `path` (sibling `.om`
/// alongside): per-kernel profile with roofline ratios, solve outcomes,
/// registry counters/histograms. `source` labels the emitting bench.
void write_figure_report(const Harness& harness, tl::sim::Model model,
                         tl::sim::DeviceId device, int mesh,
                         const std::string& source, const std::string& path);

/// Shared driver for the per-device runtime figures (paper Figs 8/9/10):
/// each figure model x {CG, Chebyshev, PPCG} at the 4096^2 convergence mesh,
/// printed as a table and written to `csv_path`. `opts` adds the opt-in
/// per-kernel profile, Chrome-trace, and run-report outputs.
void run_device_figure(const Harness& harness, tl::sim::DeviceId device,
                       const std::string& title, const std::string& csv_path,
                       const BenchOptions& opts = {});

}  // namespace bench
