#pragma once
// Kernel-level tracing for the simulated timeline.
//
// Every metered launch/transfer — from every live port (omp3, kokkos, raja,
// opencl, cuda, offload) and the analytic PhantomKernels replay alike — can
// emit one TraceEvent through an optional TraceSink hooked into the SimClock.
// Because the hook sits on the shared metering spine (models::Launcher ->
// SimClock), the ports need zero per-port tracing code and all emit identical
// event streams; when no sink is attached, metering is byte-for-byte
// unchanged.
//
// Two consumers ship with the repo:
//   - RecordingSink keeps the ordered event stream (Chrome trace export,
//     launch-factor histograms, tests);
//   - ProfileSink folds events straight into per-kernel profiles
//     (O(#kernels) memory, for full paper-scale solves).
// telemetry::ReportBuilder is a sink too: it folds the stream into its own
// ProfileSink and its metrics registry.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/device.hpp"
#include "sim/model_id.hpp"

namespace tl::sim {

/// One metered launch or transfer on the simulated timeline.
struct TraceEvent {
  enum class Kind { kLaunch, kTransfer };

  Kind kind = Kind::kLaunch;
  std::string_view name = "kernel";  // catalogue kernel / transfer name
  int kernel_id = -1;                // core::KernelId cast; -1 for transfers
  std::string_view phase = "";       // solver phase ("cg", "cheby", "halo", ...)
  Model model = Model::kOmp3Cpp;
  DeviceId device = DeviceId::kCpuSandyBridge;
  double start_ns = 0.0;     // simulated timeline position at launch
  double duration_ns = 0.0;  // simulated cost charged for it
  std::size_t bytes = 0;     // main-memory (launch) or link (transfer) traffic
  double launch_factor = 1.0;  // scheduler efficiency factor (1.0 = static)

  /// Achieved bandwidth of this one event, GB/s (B/ns == GB/s).
  double gbs() const {
    return duration_ns > 0.0 ? static_cast<double>(bytes) / duration_ns : 0.0;
  }
};

/// Receives one call per metered launch/transfer, in metering order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Stores the ordered event stream. An optional capacity bounds memory for
/// very long runs: events past it are counted in dropped(), never silently
/// discarded.
class RecordingSink final : public TraceSink {
 public:
  /// capacity == 0 means unbounded.
  explicit RecordingSink(std::size_t capacity = 0) : capacity_(capacity) {}

  void on_event(const TraceEvent& event) override;

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }
  void clear();

 private:
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 0;
  std::size_t dropped_ = 0;
};

/// Folded profile of one kernel (or transfer) across a run.
struct KernelProfile {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  std::size_t bytes = 0;
  /// Share of the profile's total time, in percent (filled by profiles()).
  double percent = 0.0;
  /// Scheduler launch-factor spread across this kernel's launches.
  double factor_min = 1.0;
  double factor_max = 1.0;
  double factor_sum = 0.0;

  double mean_ns() const {
    return count ? total_ns / static_cast<double>(count) : 0.0;
  }
  double factor_mean() const {
    return count ? factor_sum / static_cast<double>(count) : 0.0;
  }
  /// Achieved bandwidth over this kernel's launches, GB/s (B/ns == GB/s).
  double bandwidth_gbs() const {
    return total_ns > 0.0 ? static_cast<double>(bytes) / total_ns : 0.0;
  }
};

/// Folds events into per-kernel profiles — count, total/min/max duration,
/// bytes moved, achieved bandwidth, scheduler launch-factor spread — the
/// granularity the paper argues at (its section 4.1 attributes model gaps to
/// individual kernels). Stores no events, so a full 4096^2 solve can be
/// profiled in O(#kernels) memory.
class ProfileSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override;

  std::uint64_t total_events() const noexcept { return total_events_; }
  double total_ns() const noexcept { return total_ns_; }
  std::size_t total_bytes() const noexcept { return total_bytes_; }
  /// Achieved bandwidth over every folded event, GB/s (0 with no time).
  double bandwidth_gbs() const noexcept {
    return total_ns_ > 0.0 ? static_cast<double>(total_bytes_) / total_ns_
                           : 0.0;
  }

  /// Profiles sorted by total time descending, percentages filled against
  /// this sink's total (they sum to 100 when total_ns() > 0).
  std::vector<KernelProfile> profiles() const;

 private:
  std::map<std::string, KernelProfile, std::less<>> by_kernel_;
  std::uint64_t total_events_ = 0;
  double total_ns_ = 0.0;
  std::size_t total_bytes_ = 0;
};

/// Renders profiles as the paper-style per-kernel breakdown table
/// (kernel, launches, total s, % of run, GB/s, scheduler factor spread).
std::string format_profile_table(const std::vector<KernelProfile>& profiles);

/// One named timeline row of a Chrome trace (rendered as its own process).
/// `dropped` carries RecordingSink::dropped() through to the export: a
/// truncated trace gets a "trace_truncated" metadata event and a warning so
/// it is never silently read as complete.
struct TraceGroup {
  std::string label;
  std::span<const TraceEvent> events;
  std::size_t dropped = 0;
};

/// Writes groups in the Chrome trace-event JSON format (load via
/// chrome://tracing or https://ui.perfetto.dev). Timestamps are simulated
/// microseconds; each group becomes one named process row.
void write_chrome_trace(std::ostream& os, std::span<const TraceGroup> groups);

/// Single-timeline convenience overload.
void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events,
                        std::string_view label = "solve");

/// Writes a Chrome trace to `path`. Returns false (and logs) on I/O failure.
bool write_chrome_trace_file(const std::string& path,
                             std::span<const TraceGroup> groups);

}  // namespace tl::sim
