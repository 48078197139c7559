// bench_plan: does the fitted cost model pick the config you should run?
//
// Fits a tl-models-1 catalog per committed measurement grid, then replays
// the planner over every grid point where a real choice exists and compares
// the pick against the measured oracle (the row with the smallest measured
// seconds):
//
//   fig11  per (device, mesh):     pick the programming model  (CG sweep)
//   fig8/9 per (device, solver):   pick the programming model  (4096^2)
//   fig13  per solver (strong):    pick (ranks, blocking|overlap)
//
// Each grid gets its own catalog so an argmin never compares predictions
// fitted from different measurement protocols (the fig13 strong-scaling
// baseline runs a different iteration budget than the fig8 convergence
// runs, so their absolute seconds are not commensurable).
//
// A pick counts as "best" when the measured seconds of the chosen config is
// within --tie-tol (default 0.5%) of the oracle — the GPU grids contain
// near-ties (cuda vs opencl within ~0.2%) that no honest single-term model
// can split. Exact argmin hits are tracked separately. Aggregate regret is
// sum(chosen measured) / sum(oracle measured) - 1.
//
// Gates (exit 1 on failure):
//   picked-best rate >= 95%      aggregate regret <= 5%
//   mean LOO held-out error <= 15%   worst LOO error <= 40%
//
// Writes BENCH_plan.json (`"bench": "plan"`), regression-checked by
// tl_report --check against the committed baseline.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "telemetry/check.hpp"
#include "tune/ingest.hpp"
#include "tune/planner.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace tl;

namespace {

struct EvalCell {
  std::string grid;    // "fig11" | "fig8" | "fig9" | "fig13"
  std::string device;
  std::string solver;
  int mesh = 0;        // nx
  std::string chosen;  // human-readable picked config
  std::string oracle;  // measured-fastest config
  double chosen_s = 0.0;
  double oracle_s = 0.0;
  bool exact = false;
  bool picked_best = false;

  double regret() const {
    return oracle_s > 0.0 ? chosen_s / oracle_s - 1.0 : 0.0;
  }
};

/// Measured y for a series at x (exact sample match within 1e-9 relative).
bool measured_at(const tune::SampleSet& set, const tune::SeriesKey& key,
                 double x, double* y) {
  const auto it = set.series.find(key.str());
  if (it == set.series.end()) return false;
  for (const tune::SamplePoint& p : it->second.second) {
    if (std::abs(p.x - x) <= 1e-9 * std::max(std::abs(x), 1.0)) {
      *y = p.y;
      return true;
    }
  }
  return false;
}

tune::SampleSet ingest_or_die(const std::vector<std::string>& paths) {
  tune::SampleSet set;
  for (const std::string& path : paths) tune::ingest_file(set, path);
  return set;
}

/// fig11 + fig8/9 shape: per evaluation group, the planner picks the
/// programming model with everything else pinned.
void eval_model_choice(const tune::SampleSet& samples,
                       const tune::ModelCatalog& catalog,
                       const std::string& grid_name, double tie_tol,
                       std::vector<EvalCell>& cells) {
  // group key: (device, solver, cells) -> [(model, measured seconds)]
  std::map<std::tuple<std::string, std::string, double>,
           std::vector<std::pair<std::string, double>>>
      groups;
  for (const auto& [str_key, entry] : samples.series) {
    (void)str_key;
    const tune::SeriesKey& key = entry.first;
    if (key.metric != "total_s" || key.x != "cells" || !key.variant.empty()) {
      continue;
    }
    for (const tune::SamplePoint& p : entry.second) {
      groups[{key.device, key.solver, p.x}].push_back({key.model, p.y});
    }
  }
  for (const auto& [group, options] : groups) {
    const auto& [device, solver, mesh_cells] = group;
    if (options.size() < 2) continue;  // no choice to make
    const auto oracle = *std::min_element(
        options.begin(), options.end(),
        [](const auto& l, const auto& r) { return l.second < r.second; });

    tune::PlanQuery q;
    q.nx = static_cast<int>(std::lround(std::sqrt(mesh_cells)));
    q.solver = solver;
    q.device = device;
    const tune::PlanResult plan = tune::choose_config(catalog, q);
    EvalCell cell;
    cell.grid = grid_name;
    cell.device = device;
    cell.solver = solver;
    cell.mesh = q.nx;
    cell.oracle = oracle.first;
    cell.oracle_s = oracle.second;
    if (!plan.ok) {
      cell.chosen = "(no plan: " + plan.error + ")";
      cell.chosen_s = 0.0;
    } else {
      cell.chosen = plan.best.model;
      double chosen_s = 0.0;
      tune::SeriesKey mk{"total_s", plan.best.model, device, solver, "",
                         "cells"};
      if (measured_at(samples, mk, mesh_cells, &chosen_s)) {
        cell.chosen_s = chosen_s;
        cell.exact = chosen_s == oracle.second;
        cell.picked_best = chosen_s <= oracle.second * (1.0 + tie_tol);
      } else {
        cell.chosen = plan.best.model + " (unmeasured)";
      }
    }
    cells.push_back(std::move(cell));
  }
}

/// fig13 shape: solver pinned (omp3/cpu strong scaling at 4096), the
/// planner picks (ranks, blocking|overlap).
void eval_rank_choice(const tune::SampleSet& samples,
                      const tune::ModelCatalog& catalog, double tie_tol,
                      std::vector<EvalCell>& cells) {
  // measured[(solver)][(mode, ranks)] = total seconds
  std::map<std::string, std::map<std::pair<std::string, int>, double>>
      measured;
  std::set<int> rank_values;
  for (const auto& [str_key, entry] : samples.series) {
    (void)str_key;
    const tune::SeriesKey& key = entry.first;
    if (key.metric != "total_s" || key.x != "ranks" ||
        key.variant.rfind("strong-", 0) != 0) {
      continue;
    }
    // variant = "strong-<mode>-<nx>"
    const std::vector<std::string> parts = util::split(key.variant, '-');
    if (parts.size() != 3 || parts[2] != "4096") continue;
    for (const tune::SamplePoint& p : entry.second) {
      const int ranks = static_cast<int>(std::lround(p.x));
      measured[key.solver][{parts[1], ranks}] = p.y;
      rank_values.insert(ranks);
    }
  }
  for (const auto& [solver, grid] : measured) {
    if (grid.size() < 2) continue;
    const auto oracle = *std::min_element(
        grid.begin(), grid.end(),
        [](const auto& l, const auto& r) { return l.second < r.second; });

    tune::PlanQuery q;
    q.nx = 4096;
    q.solver = solver;
    q.model = "omp3";
    q.device = "cpu";
    q.rank_choices.assign(rank_values.begin(), rank_values.end());
    const tune::PlanResult plan = tune::choose_config(catalog, q);
    EvalCell cell;
    cell.grid = "fig13";
    cell.device = "cpu";
    cell.solver = solver;
    cell.mesh = 4096;
    cell.oracle = util::strf("ranks=%d %s", oracle.first.second,
                             oracle.first.first.c_str());
    cell.oracle_s = oracle.second;
    if (!plan.ok) {
      cell.chosen = "(no plan: " + plan.error + ")";
    } else {
      const char* mode = plan.best.overlap_comm ? "overlap" : "blocking";
      cell.chosen = util::strf("ranks=%d %s", plan.best.ranks, mode);
      const auto it = grid.find({mode, plan.best.ranks});
      if (it != grid.end()) {
        cell.chosen_s = it->second;
        cell.exact = it->second == oracle.second;
        cell.picked_best = it->second <= oracle.second * (1.0 + tie_tol);
      } else {
        cell.chosen += " (unmeasured)";
      }
    }
    cells.push_back(std::move(cell));
  }
}

struct CvStats {
  double sum = 0.0;
  double worst = 0.0;
  int series = 0;
};

/// Leave-one-out diagnostics over the multi-point total_s series — the
/// honest held-out prediction-error number for the fitted grids.
void accumulate_cv(const tune::ModelCatalog& catalog, CvStats& stats) {
  for (const auto& [key, s] : catalog.series()) {
    (void)key;
    if (s.key.metric != "total_s" || s.quality.points < 3) continue;
    stats.sum += s.quality.cv_rel_err;
    stats.worst = std::max(stats.worst, s.quality.cv_max_rel_err);
    ++stats.series;
  }
}

void write_artifact(const std::vector<EvalCell>& cells, double tie_tol,
                    const CvStats& cv, int exact, int picked_best,
                    double regret_pct, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAILED to write %s\n", path.c_str());
    return;
  }
  const double n = static_cast<double>(cells.size());
  const double cv_mean =
      cv.series > 0 ? cv.sum / static_cast<double>(cv.series) : 0.0;
  // Picks are exact: the grids are committed and the planner is a pure
  // function of them, so a different pick is a behaviour change.
  const std::string checks = telemetry::checks_member(
      {{"summary", {}, {"cells", "exact", "picked_best"},
        {"regret_pct", "cv_mean_pct", "cv_max_pct"}, {"picked_best_pct"}},
       {"cells", {"grid", "device", "solver", "mesh"},
        {"chosen", "picked_best"}, {}, {}}});
  std::fprintf(f, "{\n  \"schema\": \"%s\",\n%s", telemetry::kBenchSchema,
               checks.c_str());
  std::fprintf(f, "  \"bench\": \"plan\",\n");
  std::fprintf(f, "  \"source\": \"bench_plan\",\n");
  std::fprintf(f, "  \"tie_tol\": %.17g,\n", tie_tol);
  std::fprintf(f,
               "  \"gates\": {\"min_picked_best_pct\": 95.0, "
               "\"max_regret_pct\": 5.0, \"max_cv_mean_pct\": 15.0, "
               "\"max_cv_max_pct\": 40.0},\n");
  std::fprintf(f,
               "  \"summary\": {\"cells\": %zu, \"exact\": %d, "
               "\"picked_best\": %d, \"picked_best_pct\": %.17g, "
               "\"regret_pct\": %.17g, \"cv_mean_pct\": %.17g, "
               "\"cv_max_pct\": %.17g, \"cv_series\": %d},\n",
               cells.size(), exact, picked_best,
               n > 0.0 ? 100.0 * picked_best / n : 0.0, regret_pct,
               100.0 * cv_mean, 100.0 * cv.worst, cv.series);
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const EvalCell& c = cells[i];
    std::fprintf(f,
                 "    {\"grid\": \"%s\", \"device\": \"%s\", \"solver\": "
                 "\"%s\", \"mesh\": %d, \"chosen\": \"%s\", \"oracle\": "
                 "\"%s\", \"chosen_s\": %.17g, \"oracle_s\": %.17g, "
                 "\"regret_pct\": %.17g, \"exact\": %d, \"picked_best\": "
                 "%d}%s\n",
                 c.grid.c_str(), c.device.c_str(), c.solver.c_str(), c.mesh,
                 c.chosen.c_str(), c.oracle.c_str(), c.chosen_s, c.oracle_s,
                 100.0 * c.regret(), c.exact ? 1 : 0, c.picked_best ? 1 : 0,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"data-dir", "tie-tol", "report"});
  const std::string dir = cli.get_or("data-dir", ".");
  const double tie_tol = cli.get_double_or("tie-tol", 0.005);
  const std::string report_path = cli.get_or("report", "BENCH_plan.json");
  const auto at = [&dir](const char* name) { return dir + "/" + name; };

  std::vector<EvalCell> cells;
  CvStats cv;
  try {
    // Per-grid fit: each argmin compares predictions from one protocol.
    tune::SampleSet mesh_samples = ingest_or_die({at("fig11_meshsweep.csv")});
    tune::ModelCatalog mesh_catalog = tune::fit_samples(mesh_samples);
    eval_model_choice(mesh_samples, mesh_catalog, "fig11", tie_tol, cells);
    accumulate_cv(mesh_catalog, cv);

    tune::SampleSet conv_samples =
        ingest_or_die({at("fig8_cpu.csv"), at("fig9_gpu.csv")});
    tune::ModelCatalog conv_catalog = tune::fit_samples(conv_samples);
    eval_model_choice(conv_samples, conv_catalog, "fig8/9", tie_tol, cells);

    tune::SampleSet scaling_samples =
        ingest_or_die({at("fig13_scaling.csv")});
    tune::ModelCatalog scaling_catalog = tune::fit_samples(scaling_samples);
    eval_rank_choice(scaling_samples, scaling_catalog, tie_tol, cells);
    accumulate_cv(scaling_catalog, cv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_plan: %s\n", e.what());
    return 2;
  }

  int exact = 0, picked_best = 0;
  double chosen_sum = 0.0, oracle_sum = 0.0;
  util::Table table(
      {"grid", "device", "solver", "mesh", "chosen", "oracle", "regret"});
  for (const EvalCell& c : cells) {
    if (c.exact) ++exact;
    if (c.picked_best) ++picked_best;
    chosen_sum += c.chosen_s;
    oracle_sum += c.oracle_s;
    table.row({c.grid, c.device, c.solver, util::strf("%d", c.mesh),
               c.chosen, c.oracle,
               util::strf("%s%.2f%%", c.picked_best ? "" : "MISS ",
                          100.0 * c.regret())});
  }
  table.print();

  const double n = static_cast<double>(cells.size());
  const double picked_pct = n > 0.0 ? 100.0 * picked_best / n : 0.0;
  const double regret_pct =
      oracle_sum > 0.0 ? 100.0 * (chosen_sum / oracle_sum - 1.0) : 0.0;
  const double cv_mean_pct =
      cv.series > 0 ? 100.0 * cv.sum / static_cast<double>(cv.series) : 0.0;
  const double cv_max_pct = 100.0 * cv.worst;
  std::printf(
      "\n%zu cell(s): %d exact argmin, %d picked-best (%.1f%%, tie tol "
      "%.2f%%), aggregate regret %.3f%%\n",
      cells.size(), exact, picked_best, picked_pct, 100.0 * tie_tol,
      regret_pct);
  std::printf(
      "held-out (leave-one-out) error over %d multi-point series: mean "
      "%.2f%%, worst %.2f%%\n",
      cv.series, cv_mean_pct, cv_max_pct);

  write_artifact(cells, tie_tol, cv, exact, picked_best, regret_pct,
                 report_path);

  bool ok = true;
  const auto gate = [&ok](bool pass, const char* what) {
    std::printf("gate %-28s %s\n", what, pass ? "pass" : "FAIL");
    ok = ok && pass;
  };
  gate(cells.size() >= 10, "eval cells >= 10");
  gate(picked_pct >= 95.0, "picked-best >= 95%");
  gate(regret_pct <= 5.0, "aggregate regret <= 5%");
  gate(cv_mean_pct <= 15.0, "mean LOO error <= 15%");
  gate(cv_max_pct <= 40.0, "worst LOO error <= 40%");
  return ok ? 0 : 1;
}
