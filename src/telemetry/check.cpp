#include "telemetry/check.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "telemetry/report.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace tl::telemetry {

ArtifactKind classify(const util::JsonValue& doc) {
  const std::string schema = doc.get_string_or("schema", "");
  if (schema == kReportSchema) return ArtifactKind::kRunReport;
  if (schema == kBenchSchema) return ArtifactKind::kBench;
  return ArtifactKind::kUnknown;
}

std::string artifact_name(const util::JsonValue& doc) {
  switch (classify(doc)) {
    case ArtifactKind::kRunReport: return kReportSchema;
    case ArtifactKind::kBench:
      return "bench/" + doc.get_string_or("bench", "?");
    case ArtifactKind::kUnknown: break;
  }
  return "unknown";
}

namespace {

using FieldList = std::vector<std::string> SectionChecks::*;

/// The declaration's lists by JSON name, in emission order.
constexpr std::array<std::pair<std::string_view, FieldList>, 4> kLists{{
    {"key", &SectionChecks::key},
    {"exact", &SectionChecks::exact},
    {"slower", &SectionChecks::slower},
    {"higher", &SectionChecks::higher},
}};

}  // namespace

std::string checks_member(const CheckDecl& decl) {
  std::string out = "  \"checks\": {";
  for (std::size_t s = 0; s < decl.size(); ++s) {
    out += s ? ",\n    " : "\n    ";
    out += util::json_quote(decl[s].section);
    out += ": {";
    bool first = true;
    for (const auto& [name, list] : kLists) {
      const std::vector<std::string>& fields = decl[s].*list;
      if (fields.empty()) continue;
      if (!first) out += ", ";
      first = false;
      out += util::json_quote(name);
      out += ": [";
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i) out += ", ";
        out += util::json_quote(fields[i]);
      }
      out += ']';
    }
    out += '}';
  }
  out += "\n  },\n";
  return out;
}

CheckDecl parse_checks(const util::JsonValue& doc) {
  const util::JsonValue* checks = doc.find("checks");
  if (checks == nullptr || !checks->is_object()) {
    throw std::runtime_error("no \"checks\" declaration");
  }
  CheckDecl decl;
  for (const auto& [section, spec] : checks->as_object()) {
    if (!spec.is_object()) {
      throw std::runtime_error("checks." + section + " is not an object");
    }
    SectionChecks sc;
    sc.section = section;
    for (const auto& [name, fields] : spec.as_object()) {
      const auto list =
          std::find_if(kLists.begin(), kLists.end(),
                       [&name](const auto& l) { return l.first == name; });
      if (list == kLists.end() || !fields.is_array()) {
        throw std::runtime_error("checks." + section + "." + name +
                                 " is not a key or class list");
      }
      for (const util::JsonValue& field : fields.as_array()) {
        (sc.*(list->second)).push_back(field.as_string());
      }
    }
    decl.push_back(std::move(sc));
  }
  return decl;
}

const util::JsonValue* find_section(const util::JsonValue& doc,
                                    std::string_view section) {
  if (section == ".") return &doc;
  const util::JsonValue* v = &doc;
  for (const std::string& part : util::split(section, '.')) {
    v = v->find(part);
    if (v == nullptr) return nullptr;
  }
  return v;
}

namespace {

std::string pct(double fraction) {
  return util::strf("%.1f%%", fraction * 100.0);
}

/// A scalar as it reads in a finding note or an analysis table cell.
std::string render(const util::JsonValue* v) {
  if (v == nullptr) return "-";
  if (v->is_string()) return v->as_string();
  if (v->is_bool()) return v->as_bool() ? "true" : "false";
  if (!v->is_number()) return "?";
  const double x = v->as_number();
  return (x == std::floor(x) && std::fabs(x) < 1e15) ? util::strf("%.0f", x)
                                                     : util::strf("%.6g", x);
}

/// Accumulates comparisons under the asymmetric regression policy.
struct Checker {
  const CheckOptions& opt;
  CheckResult result;

  void regression(std::string metric, double base, double cur,
                  std::string note) {
    result.findings.push_back(Finding{std::move(metric), base, cur, true,
                                      std::move(note)});
    ++result.regressions;
  }

  void improvement(std::string metric, double base, double cur,
                   std::string note) {
    result.findings.push_back(Finding{std::move(metric), base, cur, false,
                                      std::move(note)});
  }

  /// Counts one comparison; a declared field absent on either side is a
  /// regression (it must never read as zero and pass).
  bool present(const std::string& metric, const util::JsonValue* base,
               const util::JsonValue* cur) {
    ++result.checked;
    if (base != nullptr && cur != nullptr) return true;
    regression(metric, base != nullptr ? 1.0 : 0.0,
               cur != nullptr ? 1.0 : 0.0,
               base == nullptr ? "declared field missing in baseline"
                               : "declared field missing in current");
    return false;
  }

  void exact(const std::string& metric, const util::JsonValue* base,
             const util::JsonValue* cur) {
    if (!present(metric, base, cur)) return;
    if (base->is_number() && cur->is_number()) {
      if (base->as_number() != cur->as_number()) {
        regression(metric, base->as_number(), cur->as_number(),
                   "changed (exact metric)");
      }
      return;
    }
    const bool same = base->kind() == cur->kind() &&
                      (base->is_string() || base->is_bool()) &&
                      render(base) == render(cur);
    if (!same) {
      regression(metric, 0.0, 1.0,
                 "changed: " + render(base) + " -> " + render(cur) +
                     " (exact metric)");
    }
  }

  /// slower: a regression when `cur` exceeds `base` by more than rel_tol;
  /// higher: a regression when it falls below `base` by more than that.
  void tolerance(const std::string& metric, const util::JsonValue* b,
                 const util::JsonValue* c, bool higher) {
    if (!present(metric, b, c)) return;
    if (!b->is_number() || !c->is_number()) {
      regression(metric, 0.0, 0.0,
                 "not a number: " + render(b) + " -> " + render(c));
      return;
    }
    const double base = b->as_number(), cur = c->as_number();
    if (base <= 0.0) {  // nothing was spent (slower) or gained (higher)
      if (!higher && cur > 0.0) {
        regression(metric, base, cur, "baseline was zero, now nonzero");
      }
      return;
    }
    const double rel = (higher ? base - cur : cur - base) / base;
    if (rel > opt.rel_tol) {
      regression(metric, base, cur,
                 util::strf("%s by %s (tol %s)", higher ? "dropped" : "slower",
                            pct(rel).c_str(), pct(opt.rel_tol).c_str()));
    } else if (rel < -opt.rel_tol) {
      improvement(metric, base, cur,
                  util::strf("improved by %s", pct(-rel).c_str()));
    }
  }

  void row(const SectionChecks& s, const std::string& prefix,
           const util::JsonValue& base, const util::JsonValue& cur) {
    for (const std::string& f : s.exact) {
      exact(prefix + f, base.find(f), cur.find(f));
    }
    for (const std::string& f : s.slower) {
      tolerance(prefix + f, base.find(f), cur.find(f), false);
    }
    for (const std::string& f : s.higher) {
      tolerance(prefix + f, base.find(f), cur.find(f), true);
    }
  }

  /// Rows of an array section by their composite key ("cpu/omp3/CG").
  std::map<std::string, const util::JsonValue*> index(
      const SectionChecks& s, const util::JsonValue& rows, const char* side) {
    std::map<std::string, const util::JsonValue*> out;
    for (const util::JsonValue& entry : rows.as_array()) {
      std::string key;
      for (const std::string& field : s.key) {
        if (!key.empty()) key += '/';
        const util::JsonValue* v = entry.find(field);
        key += (v != nullptr && v->is_number())
                   ? util::strf("%g", v->as_number())
                   : entry.get_string_or(field, "?");
      }
      if (!out.emplace(key, &entry).second) {
        regression(s.section + "[" + key + "]", 0.0, 0.0,
                   util::strf("duplicate row key in %s", side));
      }
    }
    return out;
  }

  void section(const SectionChecks& s, const util::JsonValue& baseline,
               const util::JsonValue& current) {
    const util::JsonValue* base = find_section(baseline, s.section);
    const util::JsonValue* cur = find_section(current, s.section);
    if (base == nullptr || cur == nullptr) {
      regression(s.section, base != nullptr ? 1.0 : 0.0,
                 cur != nullptr ? 1.0 : 0.0,
                 base == nullptr ? "declared section missing in baseline"
                                 : "declared section missing in current");
      return;
    }
    if (base->is_object() && cur->is_object()) {
      row(s, s.section == "." ? "" : s.section + ".", *base, *cur);
      return;
    }
    if (!base->is_array() || !cur->is_array() || s.key.empty()) {
      regression(s.section, 0.0, 0.0,
                 "not an object on both sides, nor an array of rows with a "
                 "declared key");
      return;
    }
    const auto base_rows = index(s, *base, "baseline");
    const auto cur_rows = index(s, *cur, "current");
    for (const auto& [key, entry] : base_rows) {
      const std::string name = s.section + "[" + key + "]";
      const auto it = cur_rows.find(key);
      if (it == cur_rows.end()) {
        regression(name, 1.0, 0.0, "present in baseline, missing in current");
      } else {
        row(s, name + ".", *entry, *it->second);
      }
    }
    for (const auto& [key, entry] : cur_rows) {
      if (!base_rows.contains(key)) {
        regression(s.section + "[" + key + "]", 0.0, 1.0,
                   "absent from baseline, present in current");
      }
    }
  }
};

}  // namespace

CheckResult check(const util::JsonValue& baseline,
                  const util::JsonValue& current, const CheckOptions& opt) {
  Checker c{opt, {}};
  const std::string base_name = artifact_name(baseline);
  const std::string cur_name = artifact_name(current);
  if (base_name != cur_name) {
    c.regression("artifact", 0.0, 0.0,
                 "kind mismatch: baseline " + base_name + " vs current " +
                     cur_name);
    return std::move(c.result);
  }
  CheckDecl decl;
  try {
    decl = parse_checks(baseline);
  } catch (const std::exception& e) {
    c.regression("checks", 0.0, 0.0, std::string("baseline: ") + e.what());
    return std::move(c.result);
  }
  try {
    if (parse_checks(current) != decl) {
      c.regression("checks", 0.0, 0.0,
                   "current declaration differs from the baseline's");
    }
  } catch (const std::exception& e) {
    c.regression("checks", 0.0, 0.0, std::string("current: ") + e.what());
  }
  for (const SectionChecks& s : decl) c.section(s, baseline, current);
  return std::move(c.result);
}

std::string format_check(const CheckResult& result) {
  std::ostringstream os;
  for (const Finding& f : result.findings) {
    os << (f.regression ? "REGRESSION " : "note       ") << f.metric << ": "
       << util::strf("%.17g -> %.17g", f.baseline, f.current) << " — "
       << f.note << "\n";
  }
  os << util::strf("%d comparison(s), %d regression(s): %s\n", result.checked,
                   result.regressions, result.pass() ? "pass" : "FAIL");
  return os.str();
}

// -- Analysis ---------------------------------------------------------------

namespace {

/// Sections the run-report printer renders in its own layout.
constexpr std::array<std::string_view, 3> kRunReportSections{
    "totals", "kernels", "ranks"};

void analyze_run_report(std::ostringstream& os, const util::JsonValue& doc,
                        const AnalyzeOptions& opt) {
  if (const util::JsonValue* ctx = doc.find("context")) {
    os << util::strf(
        "context: model=%s device=%s solver=%s %dx%d, %d step(s), "
        "%d rank(s), fused=%s overlap=%s\n",
        ctx->get_string_or("model", "?").c_str(),
        ctx->get_string_or("device", "?").c_str(),
        ctx->get_string_or("solver", "?").c_str(),
        static_cast<int>(ctx->get_number_or("nx", 0)),
        static_cast<int>(ctx->get_number_or("ny", 0)),
        static_cast<int>(ctx->get_number_or("steps", 0)),
        static_cast<int>(ctx->get_number_or("ranks", 1)),
        ctx->get_bool_or("use_fused", true) ? "on" : "off",
        ctx->get_bool_or("overlap_comm", true) ? "on" : "off");
  }
  if (const util::JsonValue* totals = doc.find("totals")) {
    os << util::strf(
        "totals:  %.6f sim s, %.1f GB/s achieved (priced peak %.1f), "
        "%.0f launches, %.0f iterations\n",
        totals->get_number_or("sim_seconds", 0.0),
        totals->get_number_or("achieved_gbs", 0.0),
        totals->get_number_or("peak_gbs", 0.0),
        totals->get_number_or("kernel_launches", 0.0),
        totals->get_number_or("total_iterations", 0.0));
  }

  // Top-N kernels by total time, with the roofline ratio.
  const util::JsonValue* kernels = doc.find("kernels");
  if (kernels != nullptr && kernels->is_array() &&
      !kernels->as_array().empty()) {
    std::vector<const util::JsonValue*> sorted;
    for (const util::JsonValue& k : kernels->as_array()) sorted.push_back(&k);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const util::JsonValue* a, const util::JsonValue* b) {
                       return a->get_number_or("total_ns", 0.0) >
                              b->get_number_or("total_ns", 0.0);
                     });
    os << "\ntop kernels:\n";
    util::Table table({"kernel", "launches", "total s", "% run", "GB/s",
                       "peak ratio"});
    const std::size_t n =
        std::min(sorted.size(), static_cast<std::size_t>(
                                    opt.top_n > 0 ? opt.top_n : 8));
    for (std::size_t i = 0; i < n; ++i) {
      const util::JsonValue& k = *sorted[i];
      table.row({k.get_string_or("name", "?"),
                 util::strf("%.0f", k.get_number_or("count", 0.0)),
                 util::strf("%.6f", k.get_number_or("total_ns", 0.0) * 1e-9),
                 util::strf("%.1f", k.get_number_or("percent", 0.0)),
                 util::strf("%.1f", k.get_number_or("gbs", 0.0)),
                 util::strf("%.2f", k.get_number_or("peak_ratio", 0.0))});
    }
    os << table.render();
    if (sorted.size() > n) {
      os << util::strf("(%zu more kernel(s) below the top %zu)\n",
                       sorted.size() - n, n);
    }
  }

  // Per-rank comm exposure.
  const util::JsonValue* ranks = doc.find("ranks");
  if (ranks != nullptr && ranks->is_array() && !ranks->as_array().empty()) {
    os << "\ncomm exposure (ranks):\n";
    util::Table table({"rank", "exchanges", "allreduces", "wire MB",
                       "exposed ms", "hidden ms", "hidden %"});
    for (const util::JsonValue& r : ranks->as_array()) {
      table.row(
          {util::strf("%.0f", r.get_number_or("rank", 0.0)),
           util::strf("%.0f", r.get_number_or("halo_exchanges", 0.0)),
           util::strf("%.0f", r.get_number_or("allreduces", 0.0)),
           util::strf("%.2f", r.get_number_or("comm_bytes", 0.0) / 1e6),
           util::strf("%.3f", r.get_number_or("exposed_ns", 0.0) * 1e-6),
           util::strf("%.3f", r.get_number_or("hidden_ns", 0.0) * 1e-6),
           util::strf("%.1f",
                      r.get_number_or("hidden_fraction", 0.0) * 100.0)});
    }
    os << table.render();
  }

  // Fusion / overlap effectiveness from the registry counters.
  if (const util::JsonValue* metrics = doc.find("metrics")) {
    if (const util::JsonValue* counters = metrics->find("counters")) {
      const double fused = counters->get_number_or("tl_fused_iterations", 0.0);
      const double classic =
          counters->get_number_or("tl_classic_iterations", 0.0);
      const double hidden =
          counters->get_number_or("tl_overlap_hidden_ns", 0.0);
      const double exposed = counters->get_number_or("tl_comm_ns", 0.0);
      os << "\neffectiveness:\n";
      if (fused + classic > 0.0) {
        os << util::strf("  fused path: %.0f of %.0f iterations (%s)\n",
                         fused, fused + classic,
                         pct(fused / (fused + classic)).c_str());
      }
      if (hidden + exposed > 0.0) {
        os << util::strf(
            "  overlap: %.3f ms comm hidden, %.3f ms exposed (%s hidden)\n",
            hidden * 1e-6, exposed * 1e-6,
            pct(hidden / (hidden + exposed)).c_str());
      }
    }
  }
}

/// One declared section: an object as a `name: field=value, ...` line, an
/// array of rows as a table of its key and checked fields.
void print_section(std::ostringstream& os, const util::JsonValue& doc,
                   const SectionChecks& s) {
  std::vector<std::string> fields = s.exact;
  fields.insert(fields.end(), s.slower.begin(), s.slower.end());
  fields.insert(fields.end(), s.higher.begin(), s.higher.end());
  const std::string name = s.section == "." ? artifact_name(doc) : s.section;
  const util::JsonValue* v = find_section(doc, s.section);
  if (v != nullptr && v->is_object()) {
    os << "\n" << name << ":";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      os << (i ? ", " : " ") << fields[i] << "=" << render(v->find(fields[i]));
    }
    os << "\n";
    return;
  }
  if (v == nullptr || !v->is_array()) {
    os << "\n" << name << ": missing\n";
    return;
  }
  os << util::strf("\n%s: %zu row(s)\n", name.c_str(), v->as_array().size());
  if (v->as_array().empty()) return;
  std::vector<std::string> columns = s.key;
  columns.insert(columns.end(), fields.begin(), fields.end());
  util::Table table(columns);
  for (const util::JsonValue& r : v->as_array()) {
    std::vector<std::string> cells;
    for (const std::string& c : columns) cells.push_back(render(r.find(c)));
    table.row(std::move(cells));
  }
  os << table.render();
}

}  // namespace

std::string analyze(const util::JsonValue& doc, const AnalyzeOptions& opt) {
  std::ostringstream os;
  const ArtifactKind kind = classify(doc);
  if (kind == ArtifactKind::kUnknown) {
    return "unknown artifact (no tl-report-1 or tl-bench-1 schema)\n";
  }
  CheckDecl decl;
  try {
    decl = parse_checks(doc);
  } catch (const std::exception& e) {
    os << "(" << e.what() << ")\n";
  }
  if (kind == ArtifactKind::kRunReport) {
    analyze_run_report(os, doc, opt);
    std::erase_if(decl, [](const SectionChecks& s) {
      return std::find(kRunReportSections.begin(), kRunReportSections.end(),
                       s.section) != kRunReportSections.end();
    });
  } else {
    os << util::strf("bench artifact '%s' (%s)\n",
                     doc.get_string_or("bench", "?").c_str(), kBenchSchema);
  }
  for (const SectionChecks& s : decl) print_section(os, doc, s);
  return os.str();
}

}  // namespace tl::telemetry
