#pragma once
// OpenMP 3.0-style host model: `#pragma omp parallel for` over shared
// memory, with static scheduling and reduction clauses. This is the model
// behind both the Fortran 90 baseline and the C/C++ port that seeded every
// other port in the paper.
//
// Bodies execute through the HostPool (fork-join, static chunking,
// deterministic chunk-ordered reductions); the Launcher meters simulated
// time for the target device (CPU, or KNC when natively compiled).

#include <cstdint>
#include <memory>

#include "models/host_pool.hpp"
#include "models/launcher.hpp"

namespace omp3 {

class Runtime {
 public:
  Runtime(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1, unsigned threads = 1)
      : launcher_(model, device, run_seed),
        pool_(std::make_unique<models::HostPool>(threads)) {}

  models::Launcher& launcher() noexcept { return launcher_; }

  /// `#pragma omp parallel for schedule(static)` — body(i) per index.
  template <typename Body>
  void parallel_for(const tl::sim::LaunchInfo& info, std::int64_t begin,
                    std::int64_t end, Body&& body) {
    launcher_.run(info, [&] {
      pool_->parallel_for(begin, end, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) body(i);
      });
    });
  }

  /// `#pragma omp parallel for reduction(+: acc)` — body(i, acc).
  template <typename Body>
  double parallel_reduce(const tl::sim::LaunchInfo& info, std::int64_t begin,
                         std::int64_t end, Body&& body) {
    double result = 0.0;
    launcher_.run(info, [&] {
      result = pool_->parallel_reduce_sum(
          begin, end, [&](std::int64_t b, std::int64_t e) {
            double acc = 0.0;
            for (std::int64_t i = b; i < e; ++i) body(i, acc);
            return acc;
          });
    });
    return result;
  }

 private:
  models::Launcher launcher_;
  std::unique_ptr<models::HostPool> pool_;
};

}  // namespace omp3
