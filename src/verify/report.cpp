#include "verify/report.hpp"

#include <cmath>
#include <sstream>

#include "ports/registry.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace tl::verify {

namespace {

std::string fmt_err(double rel_err) {
  return rel_err == 0.0 ? "exact" : util::strf("%.1e", rel_err);
}

std::string cell_text(const CellResult& c) {
  return std::string(c.pass ? "pass " : "FAIL ") + fmt_err(c.max_rel_err);
}

/// JSON number formatting: full double precision, with non-finite values
/// (not representable in JSON) emitted as strings.
std::string jnum(double v) {
  if (!std::isfinite(v)) {
    return v > 0 ? "\"inf\"" : (v < 0 ? "\"-inf\"" : "\"nan\"");
  }
  return util::strf("%.17g", v);
}

void append_metric_json(std::ostringstream& os, const MetricResult& m) {
  os << "{\"metric\":\"" << metric_name(m.metric) << "\""
     << ",\"pass\":" << (m.pass ? "true" : "false")
     << ",\"value\":" << jnum(m.cmp.a) << ",\"reference\":" << jnum(m.cmp.b)
     << ",\"abs_err\":" << jnum(m.cmp.abs_err)
     << ",\"rel_err\":" << jnum(m.cmp.rel_err)
     << ",\"tol_abs\":" << jnum(m.tol.abs) << ",\"tol_rel\":" << jnum(m.tol.rel);
  if (!m.detail.empty()) os << ",\"detail\":\"" << json_escape(m.detail) << "\"";
  os << "}";
}

}  // namespace

std::string json_escape(std::string_view s) { return util::json_escape(s); }

std::string format_matrix(const ConformanceReport& report) {
  std::ostringstream os;
  if (report.options.ranks > 1) {
    os << "distributed: " << report.options.ranks
       << "-rank decomposed solves vs the 1-rank reference "
          "(ToleranceSpec::distributed)\n\n";
  }
  for (const sim::DeviceId device : sim::kAllDevices) {
    if (report.options.only_device && *report.options.only_device != device) {
      continue;
    }
    // Collect this device's rows from the flat cell list.
    std::vector<std::string> header{"Model"};
    for (const core::SolverKind s : report.options.solvers) {
      header.emplace_back(core::solver_name(s));
    }
    util::Table table(header);
    bool any = false;
    for (const sim::Model model : sim::kAllModels) {
      std::vector<std::string> row{std::string(sim::model_name(model))};
      bool have_row = false;
      for (const CellResult& c : report.cells) {
        if (c.model == model && c.device == device) {
          row.push_back(cell_text(c));
          have_row = true;
        }
      }
      if (have_row) {
        table.row(std::move(row));
        any = true;
      }
    }
    if (!any) continue;
    os << "== " << sim::device_spec(device).name
       << " ==  (cell: pass/FAIL + worst relative error)\n"
       << table.render() << "\n";
  }

  for (const ReferenceResult& r : report.references) {
    if (!r.golden_checked) continue;
    os << "golden [" << core::solver_name(r.solver) << "] "
       << (r.golden_pass ? "pass" : "FAIL");
    if (!r.golden_note.empty()) os << " — " << r.golden_note;
    if (r.golden_pass && !r.golden_metrics.empty()) {
      double worst = 0.0;
      for (const MetricResult& m : r.golden_metrics) {
        if (std::isfinite(m.cmp.rel_err)) worst = std::max(worst, m.cmp.rel_err);
      }
      os << " (worst rel err " << fmt_err(worst) << ")";
    }
    os << "\n";
  }
  return os.str();
}

std::string to_json(const ConformanceReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"tl-verify-1\"";
  os << ",\"options\":{\"nx\":" << report.options.nx
     << ",\"steps\":" << report.options.steps
     << ",\"ranks\":" << report.options.ranks
     << ",\"seed\":" << report.options.seed << ",\"check_replay\":"
     << (report.options.check_replay ? "true" : "false")
     << ",\"golden_path\":\"" << json_escape(report.options.golden_path)
     << "\",\"perturb_kernel\":\""
     << json_escape(report.options.perturb_kernel) << "\"}";

  os << ",\"golden\":[";
  bool first = true;
  for (const ReferenceResult& r : report.references) {
    if (!r.golden_checked) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"solver\":\"" << core::solver_name(r.solver) << "\""
       << ",\"pass\":" << (r.golden_pass ? "true" : "false");
    if (!r.golden_note.empty()) {
      os << ",\"note\":\"" << json_escape(r.golden_note) << "\"";
    }
    os << ",\"metrics\":[";
    for (std::size_t i = 0; i < r.golden_metrics.size(); ++i) {
      if (i != 0) os << ",";
      append_metric_json(os, r.golden_metrics[i]);
    }
    os << "]}";
  }
  os << "]";

  os << ",\"cells\":[";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellResult& c = report.cells[i];
    if (i != 0) os << ",";
    os << "{\"model\":\"" << sim::model_id(c.model) << "\""
       << ",\"device\":\"" << sim::device_short_name(c.device) << "\""
       << ",\"solver\":\"" << core::solver_name(c.solver) << "\""
       << ",\"pass\":" << (c.pass ? "true" : "false")
       << ",\"max_rel_err\":" << jnum(c.max_rel_err) << ",\"metrics\":[";
    for (std::size_t j = 0; j < c.metrics.size(); ++j) {
      if (j != 0) os << ",";
      append_metric_json(os, c.metrics[j]);
    }
    os << "]}";
  }
  os << "]";

  os << ",\"summary\":{\"cells\":" << report.cells.size()
     << ",\"failed_cells\":" << report.failed_cells()
     << ",\"golden_pass\":" << (report.golden_pass() ? "true" : "false")
     << ",\"pass\":" << (report.all_pass() ? "true" : "false") << "}}";
  return os.str();
}

}  // namespace tl::verify
