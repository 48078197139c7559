#pragma once
// Launcher: the seam between the programming-model API layers and the
// simulated hardware.
//
// Every model (Kokkos-like, RAJA-like, offload directives, OpenCL-like,
// CUDA-like) executes kernel bodies for real on the host, then charges the
// launch to a PerfModel/SimClock pair. The LaunchInfo cost descriptor (bytes
// streamed, traits) is declared by the caller — the port knows how many
// fields a kernel touches; tests pin the declared costs against analytic
// formulas so they cannot drift.

#include <cstdint>
#include <utility>

#include "sim/clock.hpp"
#include "sim/perf_model.hpp"
#include "sim/traits.hpp"

namespace models {

class Launcher {
 public:
  Launcher(tl::sim::Model model, tl::sim::DeviceId device,
           std::uint64_t run_seed = 1)
      : perf_(model, device, run_seed) {
    clock_.set_trace_context(model, device);
  }

  /// Executes `body()` on the host, then advances simulated time by the
  /// modelled cost of the launch.
  template <typename Body>
  void run(const tl::sim::LaunchInfo& info, Body&& body) {
    std::forward<Body>(body)();
    charge(info);
  }

  /// Meters a launch without executing anything (analytic big-mesh mode).
  /// Every launch is priced once, here: one PerfModel draw. The overlapped
  /// halo exchange splits the resulting record in the clock
  /// (SimClock::split_next_launch), never by pricing a launch twice.
  void charge(const tl::sim::LaunchInfo& info) {
    const double ns = perf_.launch_ns(info);
    clock_.record_launch(info, ns, perf_.last_launch_factor());
  }

  /// Meters a host<->device transfer (data maps, buffer reads/writes).
  void charge_transfer(const tl::sim::TransferInfo& info) {
    clock_.record_transfer(info, perf_.transfer_ns(info));
  }

  /// Attaches a trace sink (nullptr detaches): one TraceEvent per metered
  /// launch/transfer from here on. Zero cost while detached.
  void set_trace_sink(tl::sim::TraceSink* sink) noexcept {
    clock_.set_trace_sink(sink);
  }

  /// Starts a fresh simulated run (re-seeds scheduler luck, zeroes the clock).
  void begin_run(std::uint64_t run_seed) {
    perf_.begin_run(run_seed);
    clock_.reset();
  }

  tl::sim::PerfModel& perf() noexcept { return perf_; }
  const tl::sim::PerfModel& perf() const noexcept { return perf_; }
  tl::sim::SimClock& clock() noexcept { return clock_; }
  const tl::sim::SimClock& clock() const noexcept { return clock_; }

 private:
  tl::sim::PerfModel perf_;
  tl::sim::SimClock clock_;
};

}  // namespace models
