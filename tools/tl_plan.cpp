// tl_plan: performance-model fitting, prediction, and config planning.
//
//   tl_plan fit INPUT... --out=FILE [--min-points=N] [--check=GOLDEN]
//       Ingest measurement files (figure CSVs, tl-report-1 profiles,
//       BENCH_*.json artifacts — auto-detected), fit the hypothesis lattice
//       per series, and write the tl-models-1 catalog. With --check, compare
//       the freshly fitted catalog against the committed golden catalog
//       (series sets and selected hypotheses exact, coefficients within
//       --rel-tol) and exit 1 on drift.
//
//   tl_plan predict --models=FILE --model=M --device=D --nx=N
//           [--solver=S] [--ny=N] [--ranks=R] [--fused=0|1] [--overlap=0|1]
//       Print the composed runtime estimate for one configuration point.
//
//   tl_plan plan --models=FILE --nx=N [--ny=N] [--solver=S] [--model=M]
//           [--device=D] [--ranks=R1,R2,...] [--fused=0|1] [--overlap=0|1]
//           [--top=N]
//       Enumerate the feasible config space (unpinned fields free), score
//       with the predictor, and print the ranked table.
//
// Exits 0 on success, 1 on check drift, 2 on usage/parse errors.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "tune/ingest.hpp"
#include "tune/planner.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace tl;

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s fit INPUT... --out=FILE [--min-points=N] "
               "[--check=GOLDEN] [--rel-tol=T]\n"
               "       %s predict --models=FILE --model=M --device=D --nx=N "
               "[--solver=S] [--ranks=R] [--fused=0|1] [--overlap=0|1]\n"
               "       %s plan --models=FILE --nx=N [--solver=S] [--model=M] "
               "[--device=D] [--ranks=R1,R2,...] [--top=N]\n",
               program, program, program);
  return 2;
}

std::string formula(const tune::ScalingFit& fit) {
  if (fit.is_constant()) return util::strf("%.4g", fit.c0);
  std::string term = util::strf("%.4g * x^%g", fit.c1, fit.a);
  if (fit.b != 0) term += util::strf(" * log2(x)^%d", fit.b);
  return util::strf("%.4g + ", fit.c0) + term;
}

void print_catalog(const tune::ModelCatalog& catalog) {
  util::Table table({"series", "fit", "R^2", "cv err", "cv max", "points"});
  for (const auto& [key, s] : catalog.series()) {
    table.row({key, formula(s.fit), util::strf("%.4f", s.quality.r2),
               util::strf("%.2f%%", s.quality.cv_rel_err * 100.0),
               util::strf("%.2f%%", s.quality.cv_max_rel_err * 100.0),
               util::strf("%d", s.quality.points)});
  }
  table.print();
}

/// Structural catalog comparison: series sets and selected hypotheses must
/// match exactly (a hypothesis flip is a behaviour change); coefficients and
/// quality numbers within `rel_tol`.
int compare_catalogs(const tune::ModelCatalog& current,
                     const tune::ModelCatalog& golden, double rel_tol) {
  int drift = 0;
  const auto complain = [&drift](const std::string& what) {
    std::fprintf(stderr, "tl_plan: DRIFT: %s\n", what.c_str());
    ++drift;
  };
  const auto close = [rel_tol](double a, double b) {
    const double scale = std::max(std::abs(a), std::abs(b));
    return scale == 0.0 || std::abs(a - b) <= rel_tol * scale;
  };
  for (const auto& [key, gold] : golden.series()) {
    const tune::FittedSeries* cur = current.find(gold.key);
    if (cur == nullptr) {
      complain("series missing from fitted catalog: " + key);
      continue;
    }
    if (cur->fit.a != gold.fit.a || cur->fit.b != gold.fit.b ||
        cur->fit.is_constant() != gold.fit.is_constant()) {
      complain(util::strf("%s: hypothesis flipped (x^%g log^%d -> x^%g "
                          "log^%d)",
                          key.c_str(), gold.fit.a, gold.fit.b, cur->fit.a,
                          cur->fit.b));
      continue;
    }
    if (!close(cur->fit.c0, gold.fit.c0) || !close(cur->fit.c1, gold.fit.c1)) {
      complain(util::strf("%s: coefficients moved beyond rel tol %g",
                          key.c_str(), rel_tol));
    }
    if (cur->quality.points != gold.quality.points) {
      complain(util::strf("%s: point count %d -> %d", key.c_str(),
                          gold.quality.points, cur->quality.points));
    }
  }
  for (const auto& [key, cur] : current.series()) {
    (void)cur;
    if (golden.find(cur.key) == nullptr) {
      complain("series absent from golden catalog: " + key);
    }
  }
  return drift;
}

int run_fit(const util::Cli& cli, const std::vector<std::string>& inputs) {
  if (inputs.empty()) return usage(cli.program().c_str());
  const std::string out_path = cli.get_or("out", "models.json");
  const int min_points =
      static_cast<int>(cli.get_long_or("min-points", 1));

  tune::SampleSet samples;
  std::size_t total_points = 0;
  for (const std::string& input : inputs) {
    const std::size_t n = tune::ingest_file(samples, input);
    std::printf("tl_plan: %s: %zu sample(s)\n", input.c_str(), n);
    total_points += n;
  }
  tune::ModelCatalog catalog = tune::fit_samples(samples, min_points);
  for (const std::string& note : samples.notes) {
    std::printf("tl_plan: note: %s\n", note.c_str());
  }
  std::printf("tl_plan: fitted %zu series from %zu sample(s)\n",
              catalog.size(), total_points);
  print_catalog(catalog);
  catalog.save(out_path);
  std::printf("tl_plan: wrote %s\n", out_path.c_str());

  const std::string golden_path = cli.get_or("check", "");
  if (!golden_path.empty() && golden_path != "true") {
    const tune::ModelCatalog golden = tune::ModelCatalog::load(golden_path);
    const double rel_tol = cli.get_double_or("rel-tol", 1e-6);
    const int drift = compare_catalogs(catalog, golden, rel_tol);
    if (drift > 0) {
      std::fprintf(stderr, "tl_plan: %d drift(s) vs %s: FAIL\n", drift,
                   golden_path.c_str());
      return 1;
    }
    std::printf("tl_plan: catalog matches %s (rel tol %g)\n",
                golden_path.c_str(), rel_tol);
  }
  return 0;
}

tune::PredictQuery predict_query_from(const util::Cli& cli) {
  tune::PredictQuery q;
  q.model = cli.get_or("model", "");
  q.device = cli.get_or("device", "");
  q.solver = cli.get_or("solver", "CG");
  q.nx = static_cast<int>(cli.get_long_or("nx", 0));
  q.ny = static_cast<int>(cli.get_long_or("ny", 0));
  q.ranks = static_cast<int>(cli.get_long_or("ranks", 1));
  q.use_fused = cli.get_long_or("fused", 1) != 0;
  q.overlap_comm = cli.get_long_or("overlap", 1) != 0;
  return q;
}

int run_predict(const util::Cli& cli) {
  const std::string models_path = cli.get_or("models", "");
  const tune::PredictQuery q = predict_query_from(cli);
  if (models_path.empty() || q.model.empty() || q.device.empty() ||
      q.nx <= 0) {
    return usage(cli.program().c_str());
  }
  const tune::ModelCatalog catalog = tune::ModelCatalog::load(models_path);
  const tune::Prediction p = tune::predict(catalog, q);
  if (!p.ok) {
    std::fprintf(stderr, "tl_plan: no estimate: %s\n", p.error.c_str());
    return 2;
  }
  std::printf("%s/%s/%s %dx%d ranks=%d fused=%d overlap=%d\n",
              q.model.c_str(), q.device.c_str(), q.solver.c_str(), q.nx,
              q.ny > 0 ? q.ny : q.nx, q.ranks, q.use_fused ? 1 : 0,
              q.overlap_comm ? 1 : 0);
  std::printf("predicted: %.6f s (compute %.6f s + comm %.6f s)%s\n",
              p.seconds, p.compute_s, p.comm_s,
              p.extrapolated ? "  [extrapolated]" : "");
  std::printf("basis: %s\n", p.basis.c_str());
  return 0;
}

int run_plan(const util::Cli& cli) {
  const std::string models_path = cli.get_or("models", "");
  tune::PlanQuery q;
  q.nx = static_cast<int>(cli.get_long_or("nx", 0));
  q.ny = static_cast<int>(cli.get_long_or("ny", 0));
  q.solver = cli.get_or("solver", "CG");
  q.model = cli.get_or("model", "");
  q.device = cli.get_or("device", "");
  q.use_fused = cli.get_long_or("fused", 1) != 0;
  if (cli.has("overlap")) q.overlap_comm = cli.get_long_or("overlap", 1) != 0;
  if (const auto ranks = cli.get("ranks")) {
    q.rank_choices.clear();
    for (const std::string& token : util::split(*ranks, ',')) {
      q.rank_choices.push_back(std::atoi(token.c_str()));
    }
  }
  if (models_path.empty() || q.nx <= 0) return usage(cli.program().c_str());

  const tune::ModelCatalog catalog = tune::ModelCatalog::load(models_path);
  const tune::PlanResult plan = tune::choose_config(catalog, q);
  if (!plan.ok) {
    std::fprintf(stderr, "tl_plan: no plan: %s\n", plan.error.c_str());
    return 2;
  }
  const long top = cli.get_long_or("top", 10);
  util::Table table({"#", "model", "device", "ranks", "overlap",
                     "predicted s", "notes"});
  long shown = 0;
  for (const tune::PlanChoice& choice : plan.ranked) {
    if (shown++ >= top) break;
    table.row({util::strf("%ld", shown), choice.model, choice.device,
               util::strf("%d", choice.ranks),
               choice.overlap_comm ? "on" : "off",
               util::strf("%.6f", choice.predicted.seconds),
               choice.predicted.extrapolated ? "extrapolated" : ""});
  }
  table.print();
  std::printf("best: %s/%s ranks=%d overlap=%s — %.6f s predicted "
              "(%d candidate(s) considered, %zu scorable)\n",
              plan.best.model.c_str(), plan.best.device.c_str(),
              plan.best.ranks, plan.best.overlap_comm ? "on" : "off",
              plan.best.predicted.seconds, plan.considered,
              plan.ranked.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"out", "min-points", "check", "rel-tol", "models",
                      "model", "device", "solver", "nx", "ny", "ranks", "fused",
                      "overlap", "top"});
  std::vector<std::string> positional = cli.positional();
  if (positional.empty()) return usage(cli.program().c_str());
  const std::string command = positional.front();
  positional.erase(positional.begin());

  try {
    if (command == "fit") return run_fit(cli, positional);
    if (command == "predict") return run_predict(cli);
    if (command == "plan") return run_plan(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tl_plan: %s\n", e.what());
    return 2;
  }
  return usage(cli.program().c_str());
}
