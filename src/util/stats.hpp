#pragma once
// Small statistics helpers used by the benchmark harnesses (run-to-run
// variance of the OpenCL CPU port, iteration-count power-law fits, ...).

#include <cstdint>
#include <span>
#include <vector>

namespace tl::util {

/// In-place pairwise tree fold of `n` partials: (p0+p1) + (p2+p3), ... The
/// pairing depends only on `n`, so every deterministic reduction that folds
/// its per-chunk or per-row partials here gets the same bits at any thread
/// count or row split.
inline double pairwise_sum(double* p, std::int64_t n) noexcept {
  for (std::int64_t width = 1; width < n; width *= 2) {
    for (std::int64_t i = 0; i + width < n; i += 2 * width) {
      p[i] += p[i + width];
    }
  }
  return n > 0 ? p[0] : 0.0;
}

struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;  // sample standard deviation (n-1)
};

/// Summarises a sample; empty input yields a zeroed Summary.
Summary summarize(std::span<const double> values);

/// Ordinary least squares fit y = a + b*x. Returns {a, b}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(std::span<const double> x, std::span<const double> y);

/// Power-law fit y = c * x^p via OLS in log-log space. Requires positive
/// inputs. Returns {c, p}.
struct PowerFit {
  double coefficient = 1.0;
  double exponent = 0.0;
  double r2 = 0.0;

  double eval(double x) const;
};
PowerFit fit_power(std::span<const double> x, std::span<const double> y);

/// Relative difference |a-b| / max(|a|,|b|, eps).
double rel_diff(double a, double b, double eps = 1e-300);

}  // namespace tl::util
