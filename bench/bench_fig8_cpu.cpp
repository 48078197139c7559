// Figure 8 reproduction: dual-socket Intel Xeon E5-2670 CPUs solving across
// a 4096x4096 mesh (lower is better), plus the paper's 15-run OpenCL CPU
// variance experiment (1631 s .. 2813 s in the paper).
//
// Observability flags (strictly additive; default output is unchanged):
//   --profile       per-kernel breakdown per model, plus a launch-factor
//                   histogram of the OpenCL CPU work-stealing scheduler
//   --trace=FILE    Chrome trace (chrome://tracing) of one model's solves
//   --trace-model=ID  which model to trace (default: first figure model)
//   --smoke         CI fast path: short calibration ladder, 512^2 mesh,
//                   5-run variance experiment (CSV not golden-comparable)
//   --report=FILE   tl-report-1 run report + sibling .om OpenMetrics export

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace {

/// The paper explains the OpenCL CPU spread with TBB's non-deterministic
/// work stealing; with tracing attached the per-launch scheduler factors are
/// directly observable, so print their distribution across one solve.
void print_launch_factor_histogram(const bench::Harness& harness, int mesh) {
  using namespace tl;
  sim::RecordingSink sink;
  harness.modelled_solve(sim::Model::kOpenCl, sim::DeviceId::kCpuSandyBridge,
                         core::SolverKind::kCg, mesh, 1, &sink);
  std::vector<double> factors;
  factors.reserve(sink.events().size());
  for (const sim::TraceEvent& ev : sink.events()) {
    if (ev.kind == sim::TraceEvent::Kind::kLaunch) {
      factors.push_back(ev.launch_factor);
    }
  }
  if (factors.empty()) return;
  const auto s = util::summarize(factors);
  std::printf("\n-- OpenCL CPU per-launch scheduler factors (CG solve, %zu "
              "launches) --\n", factors.size());
  constexpr int kBins = 10;
  const double width = (s.max - s.min) / kBins;
  if (width <= 0.0) {
    std::printf("  all launches at factor %.3f\n", s.min);
    return;
  }
  std::vector<int> bins(kBins, 0);
  for (const double f : factors) {
    int b = static_cast<int>((f - s.min) / width);
    if (b >= kBins) b = kBins - 1;
    ++bins[static_cast<std::size_t>(b)];
  }
  int peak = 1;
  for (const int b : bins) peak = std::max(peak, b);
  for (int b = 0; b < kBins; ++b) {
    const int stars = (bins[static_cast<std::size_t>(b)] * 50) / peak;
    std::printf("  [%.3f, %.3f) %6d %s\n", s.min + b * width,
                s.min + (b + 1) * width, bins[static_cast<std::size_t>(b)],
                std::string(static_cast<std::size_t>(stars), '#').c_str());
  }
  std::printf("  factor min %.3f / mean %.3f / max %.3f (static schedulers "
              "sit at 1.000)\n", s.min, s.mean, s.max);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tl;
  const bench::BenchOptions opts =
      bench::parse_bench_options(tl::util::Cli(argc, argv));
  bench::Harness harness(opts.smoke ? bench::smoke_ladder()
                                     : std::vector<int>{});
  bench::run_device_figure(harness, sim::DeviceId::kCpuSandyBridge,
                           "Figure 8: CPU (2x Xeon E5-2670) runtimes",
                           "fig8_cpu.csv", opts);

  // The 15-run OpenCL variance experiment (total across the three solvers).
  // Smoke mode keeps the experiment but shrinks it (5 runs, smoke mesh).
  const int runs = opts.smoke ? 5 : 15;
  const int mesh =
      opts.smoke ? bench::kSmokeMesh : bench::Harness::kConvergenceMesh;
  std::vector<double> totals;
  for (std::uint64_t run = 1; run <= static_cast<std::uint64_t>(runs); ++run) {
    double total = 0.0;
    for (const core::SolverKind solver : core::kAllSolvers) {
      total += harness
                   .modelled_solve(sim::Model::kOpenCl,
                                   sim::DeviceId::kCpuSandyBridge, solver,
                                   mesh, run)
                   .seconds;
    }
    totals.push_back(total);
  }
  const auto s = util::summarize(totals);
  std::printf(
      "\nOpenCL CPU variance over %d runs (TBB-style work stealing): "
      "min %.0f s, max %.0f s, mean %.0f s, stddev %.0f s\n"
      "paper reported min 1631 s / max 2813 s over 15 tests\n",
      runs, s.min, s.max, s.mean, s.stddev);

  if (opts.profile) print_launch_factor_histogram(harness, mesh);
  return 0;
}
