#include <algorithm>
#include <cmath>

#include "sim/model_id.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"
#include "wall.hpp"

namespace wall {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Spread spread_of(std::vector<double> values) {
  Spread s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = median_of(values);
  if (values.size() < 2) {
    s.q1 = s.q3 = values.front();
    return s;
  }
  // statistics.quantiles(n=4, method="exclusive"): m = len + 1, cut i at
  // position i*m/4 (1-based), linearly interpolated, clamped to the ends.
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  const auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile_of(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[idx - 1];
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += tl::util::strf("%.9g", values[i]);
  }
  return out + "]";
}

std::string json_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + tl::util::json_escape(values[i]) + '"';
  }
  return out + "]";
}

std::string pair_name(const Pair& pair) {
  return std::string(tl::sim::model_id(pair.model)) + "-" +
         std::string(tl::sim::device_short_name(pair.device));
}

void Tally::add(const std::string& what, const std::string& reason) {
  ++attempted;
  if (reason.empty()) return;
  ++failed;
  if (reasons.size() < 20) reasons.push_back(what + ": " + reason);
}

void Tally::fail_check(const std::string& reason) {
  check_failed = true;
  if (reasons.size() < 20) reasons.push_back(reason);
}

}  // namespace wall
