#pragma once
// Report analysis and regression checking — the logic behind tl_report.
//
// Works over parsed JSON documents so one code path handles every committed
// artifact: tl-report-1 run reports, BENCH_fusion.json, BENCH_overlap.json,
// BENCH_service.json, BENCH_elastic.json.
// The regression policy is deliberately asymmetric: time-like metrics fail
// only when the fresh value is *slower* than baseline by more than the
// relative tolerance (improvements never fail, they are reported as such);
// structural quantities — launch counts, iteration counts, kernel and cell
// sets — are exact, because the simulated timeline is deterministic and any
// drift there is a behaviour change, not noise.

#include <string>
#include <vector>

#include "util/json.hpp"

namespace tl::telemetry {

enum class ArtifactKind {
  kRunReport,      // "schema": "tl-report-1"
  kBenchFusion,    // "bench": "fusion"
  kBenchOverlap,   // "bench": "fig13_overlap"
  kBenchService,   // "bench": "service"
  kBenchElastic,   // "bench": "elastic"
  kBenchPlan,      // "bench": "plan" (planner pick/regret grid)
  kUnknown,
};

ArtifactKind classify(const util::JsonValue& doc);
std::string_view artifact_kind_name(ArtifactKind kind);

// -- Analysis ---------------------------------------------------------------

struct AnalyzeOptions {
  int top_n = 8;  // kernels shown in the hot-kernel table
};

/// Human-readable analysis of one artifact: top-N kernels with roofline
/// ratios, per-rank comm exposure, fusion/overlap effectiveness.
std::string analyze(const util::JsonValue& doc, const AnalyzeOptions& opt = {});

// -- Regression checking ----------------------------------------------------

struct CheckOptions {
  /// Relative tolerance for time-like metrics (seconds, ns, fractions).
  double rel_tol = 0.10;
};

struct Finding {
  std::string metric;  // e.g. "kernels[cg_calc_w].total_ns"
  double baseline = 0.0;
  double current = 0.0;
  bool regression = false;
  std::string note;  // "slower by 12.3% (tol 10%)", "improved", ...
};

struct CheckResult {
  std::vector<Finding> findings;  // regressions and notable improvements
  int checked = 0;                // individual comparisons performed
  int regressions = 0;

  bool pass() const noexcept { return regressions == 0; }
};

/// Compares `current` against `baseline` (same artifact kind required; a
/// kind mismatch or an unknown kind is itself a regression finding).
CheckResult check(const util::JsonValue& baseline,
                  const util::JsonValue& current,
                  const CheckOptions& opt = {});

/// Renders findings plus the pass/fail summary line.
std::string format_check(const CheckResult& result);

}  // namespace tl::telemetry
