#include "telemetry/metrics_registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/string_util.hpp"

namespace tl::telemetry {

void Histogram::observe(double value) {
  std::size_t i = 0;
  while (i < upper_bounds.size() && value > upper_bounds[i]) ++i;
  ++counts[i];
  sum += value;
  ++count;
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  std::uint64_t c = 0;
  for (std::size_t j = 0; j <= i && j < counts.size(); ++j) c += counts[j];
  return c;
}

std::string MetricsRegistry::key_for(std::string_view name,
                                     const Labels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  key += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += "=\"";
    key += util::json_escape(v);
    key += '"';
  }
  key += '}';
  return key;
}

std::string_view MetricsRegistry::family(std::string_view key) {
  const std::size_t brace = key.find('{');
  return brace == std::string_view::npos ? key : key.substr(0, brace);
}

void MetricsRegistry::add_counter(std::string_view name, double delta,
                                  const Labels& labels) {
  counters_[key_for(name, labels)] += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, double value,
                                const Labels& labels) {
  gauges_[key_for(name, labels)] = value;
}

void MetricsRegistry::observe(std::string_view name, double value,
                              std::span<const double> upper_bounds,
                              const Labels& labels) {
  auto [it, inserted] = histograms_.try_emplace(key_for(name, labels));
  Histogram& h = it->second;
  if (inserted) {
    h.upper_bounds.assign(upper_bounds.begin(), upper_bounds.end());
    h.counts.assign(upper_bounds.size() + 1, 0);
  } else if (!std::equal(h.upper_bounds.begin(), h.upper_bounds.end(),
                         upper_bounds.begin(), upper_bounds.end())) {
    throw std::invalid_argument(
        util::strf("MetricsRegistry: histogram '%s' redeclared with "
                   "different bucket bounds",
                   std::string(name).c_str()));
  }
  h.observe(value);
}

double MetricsRegistry::counter_or(std::string_view key,
                                   double fallback) const {
  const auto it = counters_.find(key);
  return it != counters_.end() ? it->second : fallback;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::combine(const MetricsRegistry& other) {
  for (const auto& [key, value] : other.counters_) counters_[key] += value;
  for (const auto& [key, value] : other.gauges_) gauges_[key] = value;
  for (const auto& [key, h] : other.histograms_) {
    auto [it, inserted] = histograms_.try_emplace(key);
    Histogram& mine = it->second;
    if (inserted) {
      mine = h;
      continue;
    }
    if (mine.upper_bounds != h.upper_bounds) {
      throw std::invalid_argument(
          util::strf("MetricsRegistry: cannot combine histogram '%s': "
                     "bucket bounds differ",
                     key.c_str()));
    }
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += h.counts[i];
    }
    mine.sum += h.sum;
    mine.count += h.count;
  }
}

MetricsRegistry MetricsRegistry::combine_all(
    std::span<MetricsRegistry> parts) {
  if (parts.empty()) return {};
  // Same tree as util::pairwise_sum: (p0+p1) + (p2+p3), ... — pairing is a
  // function of parts.size() only.
  const std::size_t n = parts.size();
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t i = 0; i + width < n; i += 2 * width) {
      parts[i].combine(parts[i + width]);
    }
  }
  return std::move(parts[0]);
}

namespace {

/// Deterministic sample-value formatting: full double precision, stable
/// shortest-form for the integral values most metrics hold.
std::string om_num(double v) { return util::strf("%.17g", v); }

/// Emits one family block: `# TYPE` line, then every sample of that family.
template <typename EmitSamples>
void om_family(std::ostringstream& os, std::string_view family,
               const char* type, EmitSamples&& emit) {
  os << "# TYPE " << family << ' ' << type << '\n';
  emit();
}

/// Splits a serialized key into (family, label block with braces or "").
std::pair<std::string_view, std::string_view> split_key(
    std::string_view key) {
  const std::size_t brace = key.find('{');
  if (brace == std::string_view::npos) return {key, ""};
  return {key.substr(0, brace), key.substr(brace)};
}

/// Group a sorted metric map's keys by family, preserving order.
template <typename Map>
std::vector<std::pair<std::string_view, std::vector<const typename Map::value_type*>>>
by_family(const Map& map) {
  std::vector<std::pair<std::string_view,
                        std::vector<const typename Map::value_type*>>>
      out;
  for (const auto& entry : map) {
    const std::string_view fam = MetricsRegistry::family(entry.first);
    if (out.empty() || out.back().first != fam) out.push_back({fam, {}});
    out.back().second.push_back(&entry);
  }
  return out;
}

}  // namespace

std::string to_openmetrics(const MetricsRegistry& registry) {
  std::ostringstream os;
  for (const auto& [fam, entries] : by_family(registry.counters())) {
    om_family(os, fam, "counter", [&] {
      for (const auto* entry : entries) {
        const auto [family, labels] = split_key(entry->first);
        os << family << "_total" << labels << ' ' << om_num(entry->second)
           << '\n';
      }
    });
  }
  for (const auto& [fam, entries] : by_family(registry.gauges())) {
    om_family(os, fam, "gauge", [&] {
      for (const auto* entry : entries) {
        os << entry->first << ' ' << om_num(entry->second) << '\n';
      }
    });
  }
  for (const auto& [fam, entries] : by_family(registry.histograms())) {
    om_family(os, fam, "histogram", [&] {
      for (const auto* entry : entries) {
        const auto [family, labels] = split_key(entry->first);
        const Histogram& h = entry->second;
        // `le` joins any existing labels inside one brace block.
        const std::string label_prefix =
            labels.empty()
                ? "{"
                : std::string(labels.substr(0, labels.size() - 1)) + ",";
        for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
          os << family << "_bucket" << label_prefix << "le=\""
             << util::strf("%g", h.upper_bounds[i]) << "\"} "
             << h.cumulative(i) << '\n';
        }
        os << family << "_bucket" << label_prefix << "le=\"+Inf\"} " << h.count
           << '\n';
        os << family << "_sum" << labels << ' ' << om_num(h.sum) << '\n';
        os << family << "_count" << labels << ' ' << h.count << '\n';
      }
    });
  }
  os << "# EOF\n";
  return os.str();
}

}  // namespace tl::telemetry
