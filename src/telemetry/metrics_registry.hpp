#pragma once
// MetricsRegistry: deterministic run-level counters, gauges, and
// fixed-bucket histograms.
//
// This is the run-level complement to the event-level trace layer: where
// sim/trace answers "what happened when", the registry answers "how much,
// in total" — launches, bytes, exposed vs. hidden comm time, launch-factor
// spread — in a form a report or a scrape endpoint can carry.
//
// Determinism is the design constraint (reports must be byte-identical at
// any thread count): every metric lives in a sorted map, each producer
// fills its own registry single-threaded in event order, and parallel
// producers are merged with the same pairwise (tree) combine discipline as
// HostPool reductions — the merge shape depends only on the producer count,
// never on scheduling. There are no atomics and no locks: a registry is
// single-writer by construction.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tl::telemetry {

/// Fixed-bucket histogram (Prometheus/OpenMetrics semantics): counts[i]
/// tallies observations v <= upper_bounds[i] (first matching bucket, i.e.
/// non-cumulative storage); counts.back() is the +Inf overflow bucket.
struct Histogram {
  std::vector<double> upper_bounds;   // strictly increasing
  std::vector<std::uint64_t> counts;  // size upper_bounds.size() + 1
  double sum = 0.0;
  std::uint64_t count = 0;

  void observe(double value);
  /// Cumulative count through bucket `i` (OpenMetrics `le` semantics).
  std::uint64_t cumulative(std::size_t i) const;
};

class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// Serialized metric key: `name` or `name{k="v",...}` (labels in given
  /// order; callers pass them pre-sorted for cross-producer stability).
  static std::string key_for(std::string_view name, const Labels& labels);
  /// Family name of a key (everything before the label block).
  static std::string_view family(std::string_view key);

  void add_counter(std::string_view name, double delta,
                   const Labels& labels = {});
  void set_gauge(std::string_view name, double value,
                 const Labels& labels = {});
  /// Observes into the named histogram, creating it with `upper_bounds` on
  /// first use. Throws std::invalid_argument if it exists with different
  /// bounds (mixed-bounds histograms cannot be combined).
  void observe(std::string_view name, double value,
               std::span<const double> upper_bounds,
               const Labels& labels = {});

  using CounterMap = std::map<std::string, double, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  const CounterMap& counters() const noexcept { return counters_; }
  const CounterMap& gauges() const noexcept { return gauges_; }
  const HistogramMap& histograms() const noexcept { return histograms_; }

  /// Counter lookup by serialized key; `fallback` when absent.
  double counter_or(std::string_view key, double fallback = 0.0) const;

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear();

  /// Merges `other` into this registry: counters and histogram cells add,
  /// gauges take `other`'s value (last-writer-wins, like a scrape).
  /// Building block of combine_all; on its own it is a left-fold step.
  void combine(const MetricsRegistry& other);

  /// Folds `parts` with HostPool's pairwise tree discipline — pairing
  /// depends only on parts.size(), so the result is bit-identical for any
  /// scheduling of the producers. parts[0] accumulates the result.
  static MetricsRegistry combine_all(std::span<MetricsRegistry> parts);

 private:
  CounterMap counters_;
  CounterMap gauges_;
  HistogramMap histograms_;
};

/// Renders the registry in the OpenMetrics text format (one `# TYPE` block
/// per metric family, counters suffixed `_total`, histograms expanded to
/// cumulative `_bucket{le=...}` + `_sum` + `_count`, terminated by `# EOF`).
std::string to_openmetrics(const MetricsRegistry& registry);

}  // namespace tl::telemetry
