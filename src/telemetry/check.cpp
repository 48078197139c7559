#include "telemetry/check.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "telemetry/report.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace tl::telemetry {

ArtifactKind classify(const util::JsonValue& doc) {
  if (!doc.is_object()) return ArtifactKind::kUnknown;
  if (doc.get_string_or("schema", "") == kReportSchema) {
    return ArtifactKind::kRunReport;
  }
  const std::string bench = doc.get_string_or("bench", "");
  if (bench == "fusion") return ArtifactKind::kBenchFusion;
  if (bench == "fig13_overlap") return ArtifactKind::kBenchOverlap;
  if (bench == "service") return ArtifactKind::kBenchService;
  if (bench == "elastic") return ArtifactKind::kBenchElastic;
  if (bench == "plan") return ArtifactKind::kBenchPlan;
  return ArtifactKind::kUnknown;
}

std::string_view artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kRunReport: return "tl-report-1";
    case ArtifactKind::kBenchFusion: return "bench/fusion";
    case ArtifactKind::kBenchOverlap: return "bench/fig13_overlap";
    case ArtifactKind::kBenchService: return "bench/service";
    case ArtifactKind::kBenchElastic: return "bench/elastic";
    case ArtifactKind::kBenchPlan: return "bench/plan";
    case ArtifactKind::kUnknown: return "unknown";
  }
  return "?";
}

namespace {

std::string pct(double fraction) {
  return util::strf("%.1f%%", fraction * 100.0);
}

/// Accumulates comparisons under the asymmetric regression policy.
struct Checker {
  const CheckOptions& opt;
  CheckResult result;

  void note_regression(std::string metric, double base, double cur,
                       std::string note) {
    result.findings.push_back(Finding{std::move(metric), base, cur, true,
                                      std::move(note)});
    ++result.regressions;
  }

  void note_improvement(std::string metric, double base, double cur,
                        std::string note) {
    result.findings.push_back(Finding{std::move(metric), base, cur, false,
                                      std::move(note)});
  }

  /// Time-like: regression only when `cur` exceeds `base` by > rel_tol.
  void slower_is_regression(const std::string& metric, double base,
                            double cur) {
    ++result.checked;
    if (base <= 0.0) {
      if (cur > 0.0) {
        note_regression(metric, base, cur, "baseline was zero, now nonzero");
      }
      return;
    }
    const double rel = (cur - base) / base;
    if (rel > opt.rel_tol) {
      note_regression(metric, base, cur,
                      util::strf("slower by %s (tol %s)", pct(rel).c_str(),
                                 pct(opt.rel_tol).c_str()));
    } else if (rel < -opt.rel_tol) {
      note_improvement(metric, base, cur,
                       util::strf("improved by %s", pct(-rel).c_str()));
    }
  }

  /// Higher-is-better (speedup, hidden_fraction): regression when `cur`
  /// falls below `base` by > rel_tol.
  void lower_is_regression(const std::string& metric, double base,
                           double cur) {
    ++result.checked;
    if (base <= 0.0) return;  // nothing was gained at baseline
    const double rel = (base - cur) / base;
    if (rel > opt.rel_tol) {
      note_regression(metric, base, cur,
                      util::strf("dropped by %s (tol %s)", pct(rel).c_str(),
                                 pct(opt.rel_tol).c_str()));
    } else if (rel < -opt.rel_tol) {
      note_improvement(metric, base, cur,
                       util::strf("improved by %s", pct(-rel).c_str()));
    }
  }

  /// Structural: the simulated timeline is deterministic, so any drift is a
  /// behaviour change, not noise.
  void exact(const std::string& metric, double base, double cur) {
    ++result.checked;
    if (base != cur) {
      note_regression(metric, base, cur, "changed (exact metric)");
    }
  }
};

/// Indexes an array of objects by a composite key; missing/extra entries
/// between baseline and current are regressions.
using Index = std::map<std::string, const util::JsonValue*>;

Index index_by(const util::JsonValue& doc, const char* array_key,
               const std::vector<const char*>& key_fields) {
  Index index;
  const util::JsonValue* array = doc.find(array_key);
  if (array == nullptr || !array->is_array()) return index;
  for (const util::JsonValue& entry : array->as_array()) {
    std::string key;
    for (const char* field : key_fields) {
      if (!key.empty()) key += '/';
      const util::JsonValue* v = entry.find(field);
      if (v != nullptr && v->is_number()) {
        key += util::strf("%g", v->as_number());
      } else {
        key += entry.get_string_or(field, "?");
      }
    }
    index.emplace(std::move(key), &entry);
  }
  return index;
}

/// Walks baseline/current indices together; `compare(key, base, cur)` runs
/// on matched entries, set drift is an exact regression.
template <typename Compare>
void check_indexed(Checker& c, const std::string& what, const Index& base,
                   const Index& cur, Compare&& compare) {
  for (const auto& [key, base_entry] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      c.note_regression(what + "[" + key + "]", 1.0, 0.0,
                        "present in baseline, missing in current");
      continue;
    }
    compare(key, *base_entry, *it->second);
  }
  for (const auto& [key, entry] : cur) {
    (void)entry;
    if (base.find(key) == base.end()) {
      c.note_regression(what + "[" + key + "]", 0.0, 1.0,
                        "absent from baseline, present in current");
    }
  }
}

void check_run_report(Checker& c, const util::JsonValue& base,
                      const util::JsonValue& cur) {
  if (const util::JsonValue* bt = base.find("totals")) {
    const util::JsonValue* ct = cur.find("totals");
    const util::JsonValue empty;
    const util::JsonValue& t = (ct != nullptr) ? *ct : empty;
    c.slower_is_regression("totals.sim_seconds",
                           bt->get_number_or("sim_seconds", 0.0),
                           t.get_number_or("sim_seconds", 0.0));
    c.exact("totals.kernel_launches",
            bt->get_number_or("kernel_launches", 0.0),
            t.get_number_or("kernel_launches", 0.0));
    c.exact("totals.total_iterations",
            bt->get_number_or("total_iterations", 0.0),
            t.get_number_or("total_iterations", 0.0));
  }
  check_indexed(
      c, "kernels", index_by(base, "kernels", {"name"}),
      index_by(cur, "kernels", {"name"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        c.exact("kernels[" + key + "].count", b.get_number_or("count", 0.0),
                n.get_number_or("count", 0.0));
        c.slower_is_regression("kernels[" + key + "].total_ns",
                               b.get_number_or("total_ns", 0.0),
                               n.get_number_or("total_ns", 0.0));
      });
  check_indexed(
      c, "ranks", index_by(base, "ranks", {"rank"}),
      index_by(cur, "ranks", {"rank"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "ranks[" + key + "].";
        c.exact(prefix + "halo_exchanges",
                b.get_number_or("halo_exchanges", 0.0),
                n.get_number_or("halo_exchanges", 0.0));
        c.exact(prefix + "allreduces", b.get_number_or("allreduces", 0.0),
                n.get_number_or("allreduces", 0.0));
        c.exact(prefix + "comm_bytes", b.get_number_or("comm_bytes", 0.0),
                n.get_number_or("comm_bytes", 0.0));
        c.slower_is_regression(prefix + "exposed_ns",
                               b.get_number_or("exposed_ns", 0.0),
                               n.get_number_or("exposed_ns", 0.0));
        c.lower_is_regression(prefix + "hidden_fraction",
                              b.get_number_or("hidden_fraction", 0.0),
                              n.get_number_or("hidden_fraction", 0.0));
      });
  // Service runs only: per-tenant rollups. A no-op for classic reports
  // (both indices empty).
  check_indexed(
      c, "tenants", index_by(base, "tenants", {"tenant"}),
      index_by(cur, "tenants", {"tenant"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "tenants[" + key + "].";
        c.exact(prefix + "jobs", b.get_number_or("jobs", 0.0),
                n.get_number_or("jobs", 0.0));
        c.exact(prefix + "failures", b.get_number_or("failures", 0.0),
                n.get_number_or("failures", 0.0));
        c.exact(prefix + "iterations", b.get_number_or("iterations", 0.0),
                n.get_number_or("iterations", 0.0));
        c.exact(prefix + "kernel_launches",
                b.get_number_or("kernel_launches", 0.0),
                n.get_number_or("kernel_launches", 0.0));
        c.slower_is_regression(prefix + "sim_seconds",
                               b.get_number_or("sim_seconds", 0.0),
                               n.get_number_or("sim_seconds", 0.0));
      });
}

void check_bench_fusion(Checker& c, const util::JsonValue& base,
                        const util::JsonValue& cur) {
  check_indexed(
      c, "cells", index_by(base, "cells", {"device", "model", "solver"}),
      index_by(cur, "cells", {"device", "model", "solver"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "cells[" + key + "].";
        c.slower_is_regression(prefix + "unfused_seconds",
                               b.get_number_or("unfused_seconds", 0.0),
                               n.get_number_or("unfused_seconds", 0.0));
        c.slower_is_regression(prefix + "fused_seconds",
                               b.get_number_or("fused_seconds", 0.0),
                               n.get_number_or("fused_seconds", 0.0));
        c.lower_is_regression(prefix + "speedup",
                              b.get_number_or("speedup", 0.0),
                              n.get_number_or("speedup", 0.0));
        c.exact(prefix + "unfused_launches",
                b.get_number_or("unfused_launches", 0.0),
                n.get_number_or("unfused_launches", 0.0));
        c.exact(prefix + "fused_launches",
                b.get_number_or("fused_launches", 0.0),
                n.get_number_or("fused_launches", 0.0));
      });
}

void check_bench_overlap(Checker& c, const util::JsonValue& base,
                         const util::JsonValue& cur) {
  const std::string base_mode = base.get_string_or("mode", "");
  const std::string cur_mode = cur.get_string_or("mode", "");
  if (base_mode != cur_mode) {
    c.note_regression("mode", 0.0, 0.0,
                      "baseline mode '" + base_mode + "' vs current '" +
                          cur_mode + "' — not comparable");
    return;
  }
  check_indexed(
      c, "cells", index_by(base, "cells", {"scaling", "solver", "ranks"}),
      index_by(cur, "cells", {"scaling", "solver", "ranks"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "cells[" + key + "].";
        c.slower_is_regression(prefix + "blocking_s",
                               b.get_number_or("blocking_s", 0.0),
                               n.get_number_or("blocking_s", 0.0));
        c.slower_is_regression(prefix + "overlap_s",
                               b.get_number_or("overlap_s", 0.0),
                               n.get_number_or("overlap_s", 0.0));
        c.lower_is_regression(prefix + "hidden_fraction",
                              b.get_number_or("hidden_fraction", 0.0),
                              n.get_number_or("hidden_fraction", 0.0));
      });
}

// Service soak artifact. The job mix and the simulated timeline of every
// job are deterministic, so totals and per-tenant counts are exact; wall
// clock (wall_seconds, jobs_per_s) depends on the machine and is tolerance
// checked in the regression-only direction. Scheduling outcomes (batches,
// max_wait_pops) depend on thread interleaving and are not checked — the
// fairness *bound* is structural and is.
void check_bench_service(Checker& c, const util::JsonValue& base,
                         const util::JsonValue& cur) {
  if (const util::JsonValue* bt = base.find("totals")) {
    const util::JsonValue* ct = cur.find("totals");
    const util::JsonValue empty;
    const util::JsonValue& t = (ct != nullptr) ? *ct : empty;
    for (const char* field : {"jobs", "failures", "iterations",
                              "kernel_launches", "comm_bytes", "scenarios",
                              "verified", "bit_identical"}) {
      c.exact(std::string("totals.") + field, bt->get_number_or(field, 0.0),
              t.get_number_or(field, 0.0));
    }
    c.slower_is_regression("totals.sim_seconds",
                           bt->get_number_or("sim_seconds", 0.0),
                           t.get_number_or("sim_seconds", 0.0));
  }
  if (const util::JsonValue* bs = base.find("schedule")) {
    const util::JsonValue* cs = cur.find("schedule");
    const util::JsonValue empty;
    const util::JsonValue& s = (cs != nullptr) ? *cs : empty;
    c.exact("schedule.fairness_bound",
            bs->get_number_or("fairness_bound", 0.0),
            s.get_number_or("fairness_bound", 0.0));
    c.slower_is_regression("schedule.wall_seconds",
                           bs->get_number_or("wall_seconds", 0.0),
                           s.get_number_or("wall_seconds", 0.0));
    c.lower_is_regression("schedule.jobs_per_s",
                          bs->get_number_or("jobs_per_s", 0.0),
                          s.get_number_or("jobs_per_s", 0.0));
  }
  check_indexed(
      c, "tenants", index_by(base, "tenants", {"tenant"}),
      index_by(cur, "tenants", {"tenant"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "tenants[" + key + "].";
        for (const char* field : {"jobs", "failures", "converged",
                                  "iterations", "inner_iterations",
                                  "kernel_launches", "comm_bytes"}) {
          c.exact(prefix + field, b.get_number_or(field, 0.0),
                  n.get_number_or(field, 0.0));
        }
        c.slower_is_regression(prefix + "sim_seconds",
                               b.get_number_or("sim_seconds", 0.0),
                               n.get_number_or("sim_seconds", 0.0));
      });
}

// Elastic bench artifact. Everything in it runs on the simulated clock
// (there is no wall clock in this artifact), so the decomposition timings
// and the survive/bit-identical flags are deterministic. Retry/drop tallies
// depend only on the fault schedule (the injector retries in logical
// rounds) but are recorded, not compared.
void check_bench_elastic(Checker& c, const util::JsonValue& base,
                         const util::JsonValue& cur) {
  const std::string base_mode = base.get_string_or("mode", "");
  const std::string cur_mode = cur.get_string_or("mode", "");
  if (base_mode != cur_mode) {
    c.note_regression("mode", 0.0, 0.0,
                      "baseline mode '" + base_mode + "' vs current '" +
                          cur_mode + "' — not comparable");
    return;
  }
  const util::JsonValue empty;
  const util::JsonValue* bh = base.find("heterogeneous");
  const util::JsonValue* ch = cur.find("heterogeneous");
  check_indexed(
      c, "heterogeneous.cells",
      index_by(bh != nullptr ? *bh : empty, "cells", {"solver"}),
      index_by(ch != nullptr ? *ch : empty, "cells", {"solver"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "heterogeneous.cells[" + key + "].";
        c.slower_is_regression(prefix + "equal_seconds",
                               b.get_number_or("equal_seconds", 0.0),
                               n.get_number_or("equal_seconds", 0.0));
        c.slower_is_regression(prefix + "weighted_seconds",
                               b.get_number_or("weighted_seconds", 0.0),
                               n.get_number_or("weighted_seconds", 0.0));
        c.lower_is_regression(prefix + "speedup",
                              b.get_number_or("speedup", 0.0),
                              n.get_number_or("speedup", 0.0));
        c.exact(prefix + "equal_iterations",
                b.get_number_or("equal_iterations", 0.0),
                n.get_number_or("equal_iterations", 0.0));
        c.exact(prefix + "weighted_iterations",
                b.get_number_or("weighted_iterations", 0.0),
                n.get_number_or("weighted_iterations", 0.0));
      });
  const util::JsonValue* bf = base.find("faults");
  const util::JsonValue* cf = cur.find("faults");
  check_indexed(
      c, "faults.cells",
      index_by(bf != nullptr ? *bf : empty, "cells", {"seed"}),
      index_by(cf != nullptr ? *cf : empty, "cells", {"seed"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "faults.cells[" + key + "].";
        c.exact(prefix + "survived", b.get_number_or("survived", 0.0),
                n.get_number_or("survived", 0.0));
        c.exact(prefix + "identical", b.get_number_or("identical", 0.0),
                n.get_number_or("identical", 0.0));
      });
  const util::JsonValue* br = base.find("resume");
  const util::JsonValue* cr = cur.find("resume");
  check_indexed(
      c, "resume.cells",
      index_by(br != nullptr ? *br : empty, "cells",
               {"solver", "from_ranks", "to_ranks"}),
      index_by(cr != nullptr ? *cr : empty, "cells",
               {"solver", "from_ranks", "to_ranks"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        c.exact("resume.cells[" + key + "].identical",
                b.get_number_or("identical", 0.0),
                n.get_number_or("identical", 0.0));
      });
}

void check_bench_plan(Checker& c, const util::JsonValue& base,
                      const util::JsonValue& cur) {
  if (const util::JsonValue* bs = base.find("summary")) {
    const util::JsonValue* cs = cur.find("summary");
    const util::JsonValue empty;
    const util::JsonValue& s = (cs != nullptr) ? *cs : empty;
    // Pick counts are exact: the grids are committed and the planner is a
    // pure function of them, so a different pick is a behaviour change.
    c.exact("summary.cells", bs->get_number_or("cells", 0.0),
            s.get_number_or("cells", 0.0));
    c.exact("summary.exact", bs->get_number_or("exact", 0.0),
            s.get_number_or("exact", 0.0));
    c.exact("summary.picked_best", bs->get_number_or("picked_best", 0.0),
            s.get_number_or("picked_best", 0.0));
    c.lower_is_regression("summary.picked_best_pct",
                          bs->get_number_or("picked_best_pct", 0.0),
                          s.get_number_or("picked_best_pct", 0.0));
    c.slower_is_regression("summary.regret_pct",
                           bs->get_number_or("regret_pct", 0.0),
                           s.get_number_or("regret_pct", 0.0));
    c.slower_is_regression("summary.cv_mean_pct",
                           bs->get_number_or("cv_mean_pct", 0.0),
                           s.get_number_or("cv_mean_pct", 0.0));
    c.slower_is_regression("summary.cv_max_pct",
                           bs->get_number_or("cv_max_pct", 0.0),
                           s.get_number_or("cv_max_pct", 0.0));
  }
  check_indexed(
      c, "cells", index_by(base, "cells", {"grid", "device", "solver", "mesh"}),
      index_by(cur, "cells", {"grid", "device", "solver", "mesh"}),
      [&](const std::string& key, const util::JsonValue& b,
          const util::JsonValue& n) {
        const std::string prefix = "cells[" + key + "].";
        if (b.get_string_or("chosen", "") != n.get_string_or("chosen", "")) {
          c.note_regression(prefix + "chosen", 0.0, 1.0,
                            "pick changed: " + b.get_string_or("chosen", "?") +
                                " -> " + n.get_string_or("chosen", "?"));
        }
        c.exact(prefix + "picked_best", b.get_number_or("picked_best", 0.0),
                n.get_number_or("picked_best", 0.0));
      });
}

}  // namespace

CheckResult check(const util::JsonValue& baseline,
                  const util::JsonValue& current, const CheckOptions& opt) {
  Checker c{opt, {}};
  const ArtifactKind base_kind = classify(baseline);
  const ArtifactKind cur_kind = classify(current);
  if (base_kind != cur_kind || base_kind == ArtifactKind::kUnknown) {
    c.note_regression(
        "artifact", 0.0, 0.0,
        util::strf("kind mismatch: baseline %s vs current %s",
                   std::string(artifact_kind_name(base_kind)).c_str(),
                   std::string(artifact_kind_name(cur_kind)).c_str()));
    return std::move(c.result);
  }
  switch (base_kind) {
    case ArtifactKind::kRunReport:
      check_run_report(c, baseline, current);
      break;
    case ArtifactKind::kBenchFusion:
      check_bench_fusion(c, baseline, current);
      break;
    case ArtifactKind::kBenchOverlap:
      check_bench_overlap(c, baseline, current);
      break;
    case ArtifactKind::kBenchService:
      check_bench_service(c, baseline, current);
      break;
    case ArtifactKind::kBenchElastic:
      check_bench_elastic(c, baseline, current);
      break;
    case ArtifactKind::kBenchPlan:
      check_bench_plan(c, baseline, current);
      break;
    case ArtifactKind::kUnknown:
      break;
  }
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
    os << "\ncomm exposure:\n";
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

void analyze_bench(std::ostringstream& os, const util::JsonValue& doc) {
  const util::JsonValue* cells = doc.find("cells");
  const std::size_t n = (cells != nullptr && cells->is_array())
                            ? cells->as_array().size()
                            : 0;
  os << util::strf("bench artifact '%s' (%zu cell(s))\n",
                   doc.get_string_or("bench", "?").c_str(), n);
  if (classify(doc) == ArtifactKind::kBenchFusion && n > 0) {
    double worst = 0.0, best = 0.0, sum = 0.0;
    bool first = true;
    for (const util::JsonValue& cell : cells->as_array()) {
      const double s = cell.get_number_or("speedup", 0.0);
      if (first || s < worst) worst = s;
      if (first || s > best) best = s;
      sum += s;
      first = false;
    }
    os << util::strf("fusion speedup: min %.3fx, mean %.3fx, max %.3fx\n",
                     worst, sum / static_cast<double>(n), best);
  }
  if (classify(doc) == ArtifactKind::kBenchOverlap && n > 0) {
    double best_hidden = 0.0;
    for (const util::JsonValue& cell : cells->as_array()) {
      best_hidden = std::max(best_hidden,
                             cell.get_number_or("hidden_fraction", 0.0));
    }
    os << util::strf("overlap: best hidden fraction %.1f%% (mode %s)\n",
                     best_hidden * 100.0,
                     doc.get_string_or("mode", "?").c_str());
  }
}

void analyze_bench_service(std::ostringstream& os,
                           const util::JsonValue& doc) {
  if (const util::JsonValue* totals = doc.find("totals")) {
    os << util::strf(
        "service soak: %.0f job(s), %.0f failure(s), %.0f scenario(s), "
        "%.0f/%.0f verified bit-identical\n",
        totals->get_number_or("jobs", 0.0),
        totals->get_number_or("failures", 0.0),
        totals->get_number_or("scenarios", 0.0),
        totals->get_number_or("bit_identical", 0.0),
        totals->get_number_or("verified", 0.0));
  }
  if (const util::JsonValue* sched = doc.find("schedule")) {
    os << util::strf(
        "schedule: %.0f batch(es), max wait %.0f pop(s) "
        "(fairness bound %.0f), %.2f s wall, %.1f job/s\n",
        sched->get_number_or("batches", 0.0),
        sched->get_number_or("max_wait_pops", 0.0),
        sched->get_number_or("fairness_bound", 0.0),
        sched->get_number_or("wall_seconds", 0.0),
        sched->get_number_or("jobs_per_s", 0.0));
  }
  const util::JsonValue* tenants = doc.find("tenants");
  if (tenants != nullptr && tenants->is_array() &&
      !tenants->as_array().empty()) {
    os << "\ntenants:\n";
    util::Table table({"tenant", "jobs", "failures", "iterations",
                       "sim s", "max wait"});
    for (const util::JsonValue& t : tenants->as_array()) {
      table.row({t.get_string_or("tenant", "?"),
                 util::strf("%.0f", t.get_number_or("jobs", 0.0)),
                 util::strf("%.0f", t.get_number_or("failures", 0.0)),
                 util::strf("%.0f", t.get_number_or("iterations", 0.0)),
                 util::strf("%.4f", t.get_number_or("sim_seconds", 0.0)),
                 util::strf("%.0f", t.get_number_or("max_wait_pops", 0.0))});
    }
    os << table.render();
  }
}

void analyze_bench_elastic(std::ostringstream& os,
                           const util::JsonValue& doc) {
  os << util::strf("elastic bench (mode %s)\n",
                   doc.get_string_or("mode", "?").c_str());
  if (const util::JsonValue* hetero = doc.find("heterogeneous")) {
    const util::JsonValue* cells = hetero->find("cells");
    if (cells != nullptr && cells->is_array() && !cells->as_array().empty()) {
      os << util::strf("heterogeneous world: %.0f rank(s), %.0f^2 mesh\n",
                       hetero->get_number_or("ranks", 0.0),
                       hetero->get_number_or("mesh", 0.0));
      util::Table table({"solver", "equal s", "weighted s", "speedup"});
      for (const util::JsonValue& c : cells->as_array()) {
        table.row({c.get_string_or("solver", "?"),
                   util::strf("%.6f", c.get_number_or("equal_seconds", 0.0)),
                   util::strf("%.6f",
                              c.get_number_or("weighted_seconds", 0.0)),
                   util::strf("%.3fx", c.get_number_or("speedup", 0.0))});
      }
      os << table.render();
    }
  }
  const auto tally = [&os](const util::JsonValue* section, const char* what) {
    if (section == nullptr) return;
    const util::JsonValue* cells = section->find("cells");
    if (cells == nullptr || !cells->is_array()) return;
    std::size_t n = cells->as_array().size(), good = 0;
    for (const util::JsonValue& c : cells->as_array()) {
      if (c.get_number_or("identical", 0.0) != 0.0) ++good;
    }
    os << util::strf("%s: %zu/%zu cell(s) bit-identical\n", what, good, n);
  };
  tally(doc.find("faults"), "fault survival");
  tally(doc.find("resume"), "kill-and-resume");
}

void analyze_bench_plan(std::ostringstream& os, const util::JsonValue& doc) {
  if (const util::JsonValue* s = doc.find("summary")) {
    os << util::strf(
        "planner regret grid: %.0f cell(s), %.0f exact argmin, "
        "%.0f picked-best (%.1f%%), aggregate regret %.2f%%\n",
        s->get_number_or("cells", 0.0), s->get_number_or("exact", 0.0),
        s->get_number_or("picked_best", 0.0),
        s->get_number_or("picked_best_pct", 0.0),
        s->get_number_or("regret_pct", 0.0));
    os << util::strf(
        "held-out (leave-one-out) error: mean %.2f%%, worst %.2f%% over "
        "%.0f multi-point series\n",
        s->get_number_or("cv_mean_pct", 0.0),
        s->get_number_or("cv_max_pct", 0.0),
        s->get_number_or("cv_series", 0.0));
  }
  const util::JsonValue* cells = doc.find("cells");
  if (cells != nullptr && cells->is_array()) {
    std::size_t misses = 0;
    for (const util::JsonValue& cell : cells->as_array()) {
      if (cell.get_number_or("picked_best", 0.0) == 0.0) ++misses;
    }
    if (misses > 0) {
      os << util::strf("%zu cell(s) missed the known-fastest config:\n",
                       misses);
      for (const util::JsonValue& cell : cells->as_array()) {
        if (cell.get_number_or("picked_best", 0.0) != 0.0) continue;
        os << util::strf("  %s %s/%s mesh %.0f: chose %s over %s "
                         "(+%.2f%%)\n",
                         cell.get_string_or("grid", "?").c_str(),
                         cell.get_string_or("device", "?").c_str(),
                         cell.get_string_or("solver", "?").c_str(),
                         cell.get_number_or("mesh", 0.0),
                         cell.get_string_or("chosen", "?").c_str(),
                         cell.get_string_or("oracle", "?").c_str(),
                         cell.get_number_or("regret_pct", 0.0));
      }
    }
  }
}

}  // namespace

std::string analyze(const util::JsonValue& doc, const AnalyzeOptions& opt) {
  std::ostringstream os;
  switch (classify(doc)) {
    case ArtifactKind::kRunReport:
      analyze_run_report(os, doc, opt);
      break;
    case ArtifactKind::kBenchFusion:
    case ArtifactKind::kBenchOverlap:
      analyze_bench(os, doc);
      break;
    case ArtifactKind::kBenchService:
      analyze_bench_service(os, doc);
      break;
    case ArtifactKind::kBenchElastic:
      analyze_bench_elastic(os, doc);
      break;
    case ArtifactKind::kBenchPlan:
      analyze_bench_plan(os, doc);
      break;
    case ArtifactKind::kUnknown:
      os << "unknown artifact (no tl-report-1 schema or bench tag)\n";
      break;
  }
  return os.str();
}

}  // namespace tl::telemetry
