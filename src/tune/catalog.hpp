#pragma once
// Fitted performance-model catalog (`tl-models-1`).
//
// One FittedSeries per measured scaling curve: a metric (total seconds,
// outer iterations, per-kernel nanoseconds, fusion ratio, hidden comm
// fraction) keyed by model x device x solver x variant, fitted over one
// independent variable (cells or ranks) with a single compositional term
//
//     y(x) = c0 + c1 * x^a * log2(x)^b
//
// — the Extra-P single-term performance-model normal form. The catalog
// round-trips through a versioned JSON document so `tl_plan fit` output can
// be committed (verify/golden/models.json), regression-checked, and loaded
// by the SolveService planner at run time. Parsing is strict: a malformed
// document throws std::runtime_error rather than yielding a silently wrong
// cost model.

#include <cstddef>
#include <map>
#include <string>

#include "util/json.hpp"

namespace tl::tune {

/// The catalog schema tag; bumped on any incompatible layout change.
inline constexpr std::string_view kModelsSchema = "tl-models-1";

/// One compositional scaling term. `b` is an integer power of log2(x), kept
/// integral so the lattice stays small and the JSON round-trip is exact.
struct ScalingFit {
  double c0 = 0.0;
  double c1 = 0.0;
  double a = 0.0;
  int b = 0;

  /// Evaluates the term at x > 0. Predictions are clamped at zero: a fitted
  /// negative intercept must never turn into a negative runtime.
  double eval(double x) const;

  bool is_constant() const noexcept { return c1 == 0.0; }
};

/// Fit diagnostics recorded next to every series (ISSUE: "fit quality
/// (R^2, relative RSS) per cell").
struct FitQuality {
  double r2 = 1.0;            // 1 - RSS/TSS over the fit points
  double rel_rss = 0.0;       // sum of squared relative residuals
  double cv_rel_err = 0.0;    // mean leave-one-out relative error
  double cv_max_rel_err = 0.0;  // worst leave-one-out relative error
  int points = 0;             // samples the fit consumed
  bool fallback = false;      // degenerate input: constant/linear fallback
};

/// Catalog key. Empty fields mean "not applicable" (e.g. a fusion-ratio
/// series has no variant; a kernel series fitted from an all-solver report
/// uses solver "all"). `x` names the independent variable: "cells" for mesh
/// sweeps, "ranks" for scaling sweeps.
struct SeriesKey {
  std::string metric;   // "total_s" | "iters" | "kernel_ns/<name>" |
                        // "fusion_ratio" | "hidden_fraction" | "comm_s"
  std::string model;    // sim model id ("omp3", "cuda", ...)
  std::string device;   // sim device short name ("cpu", "gpu", "knc")
  std::string solver;   // "CG", "Chebyshev", "PPCG", "all"
  std::string variant;  // "" | "strong-blocking-4096" | "weak-overlap-4096"
  std::string x = "cells";

  /// Canonical joined form, also the JSON-independent map key.
  std::string str() const;
};

bool operator<(const SeriesKey& lhs, const SeriesKey& rhs);
bool operator==(const SeriesKey& lhs, const SeriesKey& rhs);

struct FittedSeries {
  SeriesKey key;
  ScalingFit fit;
  FitQuality quality;
  double x_min = 0.0;  // fitted domain; predictions outside it are flagged
  double x_max = 0.0;  // as extrapolated by the predictor
};

class ModelCatalog {
 public:
  /// Inserts or replaces the series with the same key.
  void put(FittedSeries series);

  /// Exact-key lookup; nullptr when absent.
  const FittedSeries* find(const SeriesKey& key) const;

  const std::map<std::string, FittedSeries>& series() const noexcept {
    return series_;
  }
  std::size_t size() const noexcept { return series_.size(); }
  bool empty() const noexcept { return series_.empty(); }

  /// Serializes the catalog as a deterministic `tl-models-1` document
  /// (series sorted by key, doubles printed round-trippably).
  std::string to_json() const;

  /// Strict deserialization; throws std::runtime_error on a missing/wrong
  /// schema tag, missing fields, wrong kinds, or non-finite parameters.
  static ModelCatalog from_json(const util::JsonValue& doc);

  /// File conveniences. `load` throws on I/O or parse failure; `save`
  /// throws on I/O failure.
  static ModelCatalog load(const std::string& path);
  void save(const std::string& path) const;

 private:
  std::map<std::string, FittedSeries> series_;
};

}  // namespace tl::tune
