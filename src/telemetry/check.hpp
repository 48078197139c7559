#pragma once
// Artifact analysis and regression checking — the logic behind tl_report.
//
// Every checked artifact declares its own checks. The tl-report-1 run
// reports (ReportBuilder) and the tl-bench-1 bench artifacts
// (BENCH_fusion/overlap/service/elastic/plan.json) carry a "checks" member
// that names, per section, the row key fields and the class of each checked
// field. A section is the document root ("."), an object member ("totals")
// or an array of rows ("cells", "heterogeneous.cells"). The classes:
//
//   exact   numbers or strings must be equal. The simulated timeline is
//           deterministic, so any drift is a behaviour change, not noise;
//   slower  a regression when larger than baseline by more than the
//           relative tolerance (time-like metrics; improvements never fail,
//           they are reported as such);
//   higher  a regression when smaller than baseline by more than the
//           relative tolerance (speedups, hidden fractions, rates).
//
// Fields not declared are informational. check() walks the baseline's
// declaration: rows are matched by their key, and a row present on one side
// only, a declared field missing on either side, and a current declaration
// that differs from the baseline's are all regressions.

#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace tl::telemetry {

/// Schema tag of the bench artifacts (run reports carry kReportSchema).
inline constexpr const char* kBenchSchema = "tl-bench-1";

enum class ArtifactKind {
  kRunReport,  // "schema": "tl-report-1"
  kBench,      // "schema": "tl-bench-1"
  kUnknown,
};

ArtifactKind classify(const util::JsonValue& doc);

/// "tl-report-1", "bench/<bench tag>" or "unknown".
std::string artifact_name(const util::JsonValue& doc);

// -- Check declarations -----------------------------------------------------

/// One section of an artifact's "checks" member. The writers list-initialise
/// it in member order: section, row key, exact, slower, higher.
struct SectionChecks {
  std::string section;            // "." for the root, else a dotted path
  std::vector<std::string> key;   // row key fields (array sections only)
  std::vector<std::string> exact;
  std::vector<std::string> slower;
  std::vector<std::string> higher;

  bool operator==(const SectionChecks&) const = default;
};
using CheckDecl = std::vector<SectionChecks>;

/// The "checks" member as a writer emits it: two-space indent, one section
/// per line and a trailing comma, so it sits on lines of its own.
std::string checks_member(const CheckDecl& decl);

/// Reads a document's "checks" member; throws std::runtime_error when it is
/// absent or malformed.
CheckDecl parse_checks(const util::JsonValue& doc);

/// The value a section path names in `doc`; nullptr when absent.
const util::JsonValue* find_section(const util::JsonValue& doc,
                                    std::string_view section);

// -- Analysis ---------------------------------------------------------------

struct AnalyzeOptions {
  int top_n = 8;  // kernels shown in the hot-kernel table
};

/// Human-readable analysis of one artifact. Run reports get the top-N
/// kernels with roofline ratios, per-rank comm exposure and fusion/overlap
/// effectiveness; every other declared section is printed as a table.
std::string analyze(const util::JsonValue& doc, const AnalyzeOptions& opt = {});

// -- Regression checking ----------------------------------------------------

struct CheckOptions {
  /// Relative tolerance of the slower and higher classes.
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

/// Compares `current` against `baseline` by walking the baseline's check
/// declaration (see the header comment for the rules).
CheckResult check(const util::JsonValue& baseline,
                  const util::JsonValue& current,
                  const CheckOptions& opt = {});

/// Renders findings plus the pass/fail summary line.
std::string format_check(const CheckResult& result);

}  // namespace tl::telemetry
