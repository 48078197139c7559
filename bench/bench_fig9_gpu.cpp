// Figure 9 reproduction: NVIDIA K20X GPU runtimes across a 4096x4096 mesh
// (lower is better). Paper shape: CUDA ~= OpenCL best; OpenACC +30% on CG,
// +10% otherwise; Kokkos <5% on Chebyshev/PPCG with a +50% CG anomaly;
// Kokkos HP trades ~10% better CG for >20% worse Chebyshev/PPCG.
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
  bench::run_device_figure(harness, tl::sim::DeviceId::kGpuK20X,
                           "Figure 9: GPU (NVIDIA K20X) runtimes",
                           "fig9_gpu.csv", opts);
  return 0;
}
