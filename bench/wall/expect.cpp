#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/string_util.hpp"
#include "wall.hpp"

namespace wall {

namespace {

constexpr const char* kSchema = "tl-wall-expected-1";

void add_checksum(Record& r, const char* field,
                  const tl::verify::FieldChecksum& c) {
  const std::string f = field;
  r.emplace_back(f + ".sum", c.sum);
  r.emplace_back(f + ".l2", c.l2);
  r.emplace_back(f + ".min", c.min);
  r.emplace_back(f + ".max", c.max);
}

}  // namespace

Record record_of(const tl::service::ScenarioOutcome& outcome) {
  bool converged = !outcome.run.steps.empty();
  double inner = 0.0;
  for (const tl::core::StepReport& step : outcome.run.steps) {
    converged = converged && step.solve.converged;
    inner += step.solve.inner_iterations;
  }
  Record r;
  r.emplace_back("converged", converged ? 1.0 : 0.0);
  r.emplace_back("iterations", outcome.run.total_iterations());
  r.emplace_back("inner_iterations", inner);
  r.emplace_back("launches", static_cast<double>(outcome.run.kernel_launches));
  r.emplace_back("sim_total_seconds", outcome.run.sim_total_seconds);
  add_checksum(r, "u", outcome.u_checksum);
  add_checksum(r, "energy", outcome.energy_checksum);
  for (const tl::dist::RankReport& rank : outcome.ranks) {
    const std::string p = tl::util::strf("rank%d.", rank.rank);
    r.emplace_back(p + "halo_exchanges",
                   static_cast<double>(rank.comm.halo_exchanges));
    r.emplace_back(p + "allreduces", static_cast<double>(rank.comm.allreduces));
    r.emplace_back(p + "bytes", static_cast<double>(rank.comm.bytes));
  }
  return r;
}

Record record_of(const tl::service::JobResult& job) {
  Record r;
  r.emplace_back("converged", job.converged ? 1.0 : 0.0);
  r.emplace_back("iterations", job.iterations);
  r.emplace_back("inner_iterations", job.inner_iterations);
  r.emplace_back("launches", static_cast<double>(job.kernel_launches));
  r.emplace_back("sim_total_seconds", job.sim_seconds);
  add_checksum(r, "u", job.u_checksum);
  add_checksum(r, "energy", job.energy_checksum);
  return r;
}

double field_of(const Record& record, std::string_view name) {
  for (const auto& [k, v] : record) {
    if (k == name) return v;
  }
  return 0.0;
}

void Expectations::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  const tl::util::JsonValue doc = tl::util::parse_json(text.str());
  if (doc.get_string_or("schema", "") != kSchema) {
    throw std::runtime_error(path + ": schema is not " + kSchema);
  }
  const tl::util::JsonValue* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_object()) {
    throw std::runtime_error(path + ": no entries object");
  }
  for (const auto& [key, fields] : entries->as_object()) {
    Record r;
    for (const auto& [name, value] : fields.as_object()) {
      r.emplace_back(name, value.as_number());
    }
    entries_[key] = std::move(r);
  }
}

std::string Expectations::check(const std::string& key, const Record& got) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (recording_) {
      entries_.emplace(key, got);
      return "";
    }
    return "no expectation recorded for " + key;
  }
  const Record& want = it->second;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    if (i >= want.size() || i >= got.size() ||
        want[i].first != got[i].first) {
      return "field list differs from the expectation at position " +
             std::to_string(i);
    }
    if (want[i].second != got[i].second) {
      return tl::util::strf("%s = %.17g, expected %.17g",
                            got[i].first.c_str(), got[i].second,
                            want[i].second);
    }
  }
  return "";
}

bool Expectations::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"entries\": {";
  bool first = true;
  for (const auto& [key, fields] : entries_) {
    out << (first ? "\n" : ",\n") << "    \"" << tl::util::json_escape(key)
        << "\": {";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << fields[i].first
          << "\": " << tl::util::strf("%.17g", fields[i].second);
    }
    out << '}';
    first = false;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

}  // namespace wall
