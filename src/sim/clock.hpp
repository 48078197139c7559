#pragma once
// SimClock: the simulated timeline of one device run.
//
// Kernels execute for real on the host (numerics), while simulated time is
// accounted here (performance). The clock also keeps launch/transfer/byte
// counters so benches can report achieved bandwidth (paper Fig 12), and
// carries the optional trace hook: when a TraceSink is attached, every
// metered launch/transfer emits one TraceEvent tagged with the kernel's
// catalogue id, phase, and the scheduler's launch factor. With no sink
// attached the accounting arithmetic is exactly what it always was.
//
// It is also where overlapped halo exchange is metered: the distributed
// decorator arms a one-shot split of the consuming kernel's launch, and the
// deferred comm charge runs between the interior share and the remainder
// (split_next_launch).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/trace.hpp"
#include "sim/traits.hpp"

namespace tl::sim {

class SimClock {
 public:
  /// Zeroes the counters. The trace sink and (model, device) context survive
  /// a reset: begin_run re-seeds runs without detaching observers.
  void reset() {
    elapsed_ns_ = 0.0;
    launches_ = 0;
    transfers_ = 0;
    kernel_bytes_ = 0;
    transfer_bytes_ = 0;
  }

  /// Overwrites the counters with checkpointed values so a same-rank-count
  /// resume continues the simulated timeline where the saved run left off.
  /// Sink and context are untouched, exactly as for reset().
  void restore(double elapsed_ns, std::uint64_t launches,
               std::uint64_t transfers, std::size_t kernel_bytes,
               std::size_t transfer_bytes) {
    elapsed_ns_ = elapsed_ns;
    launches_ = launches;
    transfers_ = transfers;
    kernel_bytes_ = kernel_bytes;
    transfer_bytes_ = transfer_bytes;
  }

  void add_launch_time(double ns, std::size_t bytes) {
    elapsed_ns_ += ns;
    ++launches_;
    kernel_bytes_ += bytes;
  }

  void add_transfer_time(double ns, std::size_t bytes) {
    elapsed_ns_ += ns;
    ++transfers_;
    transfer_bytes_ += bytes;
  }

  // -- Trace hook -----------------------------------------------------------

  /// Attaches `sink` (nullptr detaches). Not owned; must outlive the clock
  /// or be detached first.
  void set_trace_sink(TraceSink* sink) noexcept { sink_ = sink; }
  TraceSink* trace_sink() const noexcept { return sink_; }

  /// Identity stamped onto emitted events; set once by the owning Launcher.
  void set_trace_context(Model model, DeviceId device) noexcept {
    model_ = model;
    device_ = device;
  }

  /// Meters one launch and, if a sink is attached, emits its TraceEvent
  /// (start = timeline position before the launch was charged). An armed
  /// split (split_next_launch) turns this one launch into two records.
  void record_launch(const LaunchInfo& info, double ns, double launch_factor) {
    if (!split_between_) {
      record_one(info, ns, launch_factor);
      return;
    }
    const auto between = std::exchange(split_between_, nullptr);
    LaunchInfo part = info;
    part.bytes_read = static_cast<std::size_t>(
        static_cast<double>(info.bytes_read) * split_fraction_);
    part.bytes_written = static_cast<std::size_t>(
        static_cast<double>(info.bytes_written) * split_fraction_);
    const double part_ns = ns * split_fraction_;
    record_one(part, part_ns, launch_factor);
    between();
    LaunchInfo rest = info;
    rest.bytes_read = info.bytes_read - part.bytes_read;
    rest.bytes_written = info.bytes_written - part.bytes_written;
    record_one(rest, ns - part_ns, launch_factor);
  }

  /// Arms a one-shot split of the next record_launch: it records `fraction`
  /// of the launch's ns and of each byte count (truncated), runs `between`
  /// with the clock advanced by that part, then records the remainder. Both
  /// records keep the launch's identity and launch factor; the bytes sum
  /// exactly to the unsplit charge and the ns up to one rounding. The
  /// overlapped halo exchange passes the tile's interior-cell fraction and
  /// its deferred comm charge. The split is disarmed before `between` runs,
  /// so `between` may meter launches of its own.
  void split_next_launch(double fraction, std::function<void()> between) {
    split_fraction_ = fraction;
    split_between_ = std::move(between);
  }

  /// Disarms a split that has not fired (no-op otherwise).
  void cancel_split() noexcept { split_between_ = nullptr; }

  /// Emits a trace-only event for comm time hidden behind compute by the
  /// overlapped halo exchange: the window [elapsed - ns, elapsed] already
  /// contains the metered compute that covered the transfer, so NOTHING is
  /// accounted here — no elapsed time, no launch count, no bytes. The event
  /// (phase "overlap") just makes the hidden window visible in Chrome
  /// traces. With no sink attached this is a no-op.
  void record_overlap(const LaunchInfo& info, double ns) {
    if (!sink_ || ns <= 0.0) return;
    sink_->on_event(TraceEvent{.kind = TraceEvent::Kind::kLaunch,
                               .name = info.name,
                               .kernel_id = info.kernel_id,
                               .phase = info.phase,
                               .model = model_,
                               .device = device_,
                               .start_ns = elapsed_ns_ - ns,
                               .duration_ns = ns,
                               .bytes = info.bytes_read + info.bytes_written,
                               .launch_factor = 1.0});
  }

  /// Meters one host<->device transfer and emits its TraceEvent.
  void record_transfer(const TransferInfo& info, double ns) {
    const double start = elapsed_ns_;
    add_transfer_time(ns, info.bytes);
    if (sink_) {
      sink_->on_event(TraceEvent{.kind = TraceEvent::Kind::kTransfer,
                                 .name = info.name,
                                 .kernel_id = -1,
                                 .phase = "transfer",
                                 .model = model_,
                                 .device = device_,
                                 .start_ns = start,
                                 .duration_ns = ns,
                                 .bytes = info.bytes,
                                 .launch_factor = 1.0});
    }
  }

  double elapsed_ns() const noexcept { return elapsed_ns_; }
  double elapsed_seconds() const noexcept { return elapsed_ns_ * 1e-9; }

  std::uint64_t launches() const noexcept { return launches_; }
  std::uint64_t transfers() const noexcept { return transfers_; }
  std::size_t kernel_bytes() const noexcept { return kernel_bytes_; }
  std::size_t transfer_bytes() const noexcept { return transfer_bytes_; }

  /// Achieved main-memory bandwidth over the whole run, GB/s.
  double achieved_bandwidth_gbs() const noexcept {
    if (elapsed_ns_ <= 0.0) return 0.0;
    return static_cast<double>(kernel_bytes_) / elapsed_ns_;  // B/ns == GB/s
  }

 private:
  void record_one(const LaunchInfo& info, double ns, double launch_factor) {
    const double start = elapsed_ns_;
    const std::size_t bytes = info.bytes_read + info.bytes_written;
    add_launch_time(ns, bytes);
    if (sink_) {
      sink_->on_event(TraceEvent{.kind = TraceEvent::Kind::kLaunch,
                                 .name = info.name,
                                 .kernel_id = info.kernel_id,
                                 .phase = info.phase,
                                 .model = model_,
                                 .device = device_,
                                 .start_ns = start,
                                 .duration_ns = ns,
                                 .bytes = bytes,
                                 .launch_factor = launch_factor});
    }
  }

  double elapsed_ns_ = 0.0;
  std::uint64_t launches_ = 0;
  std::uint64_t transfers_ = 0;
  std::size_t kernel_bytes_ = 0;
  std::size_t transfer_bytes_ = 0;

  TraceSink* sink_ = nullptr;  // not owned
  double split_fraction_ = 0.0;
  std::function<void()> split_between_;  // armed split; empty when none
  Model model_ = Model::kOmp3Cpp;
  DeviceId device_ = DeviceId::kCpuSandyBridge;
};

}  // namespace tl::sim
