#pragma once
// The versioned machine-readable run report (`schema: tl-report-1`).
//
// One JSON document per run, assembled from the registry (counters/gauges/
// histograms), the per-kernel profile (each kernel's achieved bandwidth
// priced against the device's STREAM roofline), the per-rank CommStats
// breakdown, and the solve outcomes. The builder is itself the run's
// TraceSink: every metered event it receives lands in both the profile and
// the registry. Emission is strictly
// deterministic — sorted maps, fixed float formatting, no timestamps — so a
// repeated run produces a byte-identical file and CI can diff or
// regression-check it. An OpenMetrics text rendering of the registry is
// written alongside (sibling `.om` file) for future service scraping.

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "dist/driver.hpp"
#include "sim/trace.hpp"
#include "telemetry/metrics_registry.hpp"

namespace tl::telemetry {

inline constexpr const char* kReportSchema = "tl-report-1";

/// Settings echo stamped into every report.
struct ReportContext {
  std::string source;  // emitting program ("quickstart", "bench_fusion", ...)
  std::string model;
  std::string device;
  std::string solver;
  int nx = 0;
  int ny = 0;
  int steps = 1;
  int ranks = 1;
  bool use_fused = true;
  bool overlap_comm = true;
};

/// One solve outcome row (a Driver step, or one bench solve).
struct SolveRow {
  std::string label;
  std::string solver;
  bool converged = false;
  int iterations = 0;
  int inner_iterations = 0;
  int fused_iterations = 0;
  int classic_iterations = 0;
  double final_rr = 0.0;
  double sim_seconds = 0.0;
};

/// One tenant's rollup in a service-emitted report (tl_service). Rendered
/// as the "tenants" section only when at least one row was added, so
/// classic single-run reports stay byte-identical.
struct TenantRow {
  std::string tenant;
  std::uint64_t jobs = 0;
  std::uint64_t failures = 0;
  std::uint64_t converged = 0;
  std::uint64_t iterations = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t comm_bytes = 0;
  double sim_seconds = 0.0;
  std::uint64_t max_wait_pops = 0;
};

class ReportBuilder final : public sim::TraceSink {
 public:
  explicit ReportBuilder(ReportContext context);

  /// Folds one metered event into the kernel profile and, classified
  /// exactly as SimClock accounts it, into the registry:
  ///   tl_launches / tl_kernel_ns / tl_kernel_bytes   every metered launch
  ///   tl_comm_events / tl_comm_ns / tl_comm_bytes    the "comm"-phase subset
  ///   tl_transfers / tl_transfer_ns / tl_transfer_bytes   host<->device
  ///   tl_overlap_events / tl_overlap_hidden_ns       trace-only hidden comm
  ///   tl_launch_factor (histogram)                   compute launches only
  /// Single-writer like the registry: a multi-rank run replays its per-rank
  /// recordings in rank order.
  void on_event(const sim::TraceEvent& event) override;

  /// The per-kernel profile of every event received so far.
  const sim::ProfileSink& profile() const noexcept { return profile_; }

  /// The registry backing the report's "metrics" section; collectors fold
  /// into it directly.
  MetricsRegistry& registry() noexcept { return registry_; }
  const MetricsRegistry& registry() const noexcept { return registry_; }

  void add_solve(SolveRow row);
  /// Driver step -> solve row (labelled "step N").
  void add_step(const core::StepReport& step);
  /// All steps + totals + solve counters of a single-rank Driver run.
  void add_run(const core::RunReport& run, double achieved_gbs);

  void set_totals(double sim_seconds, double achieved_gbs,
                  std::uint64_t kernel_launches);

  /// Per-rank row plus the rank-labelled comm counters (collect_comm).
  void add_rank(const dist::RankReport& rank);

  /// Per-tenant rollup row (service runs). The "tenants" section is only
  /// emitted when at least one row was added.
  void add_tenant(TenantRow row);

  /// The full document; each profiled kernel is priced against the context
  /// device's STREAM bandwidth (peak_ratio = achieved / priced peak).
  /// Deterministic: byte-identical for identical inputs.
  std::string to_json() const;

  /// Writes the JSON to `path` and the OpenMetrics rendering to the sibling
  /// path with the extension replaced by `.om`. Logs and returns false on
  /// I/O failure.
  bool write(const std::string& path) const;

  /// `path` with its extension swapped for ".om" (appended when none).
  static std::string openmetrics_path(const std::string& path);

 private:
  ReportContext context_;
  double peak_gbs_ = 0.0;  // STREAM bandwidth of context_.device (0 unknown)
  MetricsRegistry registry_;
  sim::ProfileSink profile_;
  std::vector<SolveRow> solves_;
  std::vector<dist::RankReport> ranks_;
  std::vector<TenantRow> tenants_;
  double total_sim_seconds_ = 0.0;
  double achieved_gbs_ = 0.0;
  std::uint64_t kernel_launches_ = 0;
};

}  // namespace tl::telemetry
