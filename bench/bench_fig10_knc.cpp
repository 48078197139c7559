// Figure 10 reproduction: Intel Xeon Phi (Knights Corner) runtimes across a
// 4096x4096 mesh (lower is better). Paper shape: native OpenMP F90 leads;
// OpenMP 4.0 +45% CG / ~10% otherwise; OpenCL CG ~3x the best; RAJA native
// substantially slower everywhere (no vectorisation through indirection);
// Kokkos HP roughly halves flat Kokkos' CG/PPCG times.
//
// Supports --profile / --trace=FILE / --trace-model=ID / --smoke /
// --report=FILE (see
// bench/harness.hpp); flagless output is unchanged.

#include "bench/harness.hpp"
#include "sim/device.hpp"

int main(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::parse_bench_options(tl::util::Cli(argc, argv));
  bench::Harness harness(opts.smoke ? bench::smoke_ladder()
                                     : std::vector<int>{});
  bench::run_device_figure(harness, tl::sim::DeviceId::kMicKnc,
                           "Figure 10: KNC (Xeon Phi 5110P/SE10P) runtimes",
                           "fig10_knc.csv", opts);
  return 0;
}
