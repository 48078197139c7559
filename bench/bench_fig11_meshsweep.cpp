// Figure 11 reproduction: runtime as problem size increases in even steps of
// ~1.5e5 cells up to 1225^2, for every model/device series in the paper's
// plot (lower is better). Paper shape: OpenMP 4.0, OpenACC, Kokkos-KNC and
// OpenCL-KNC start with high intercepts (per-launch overheads) that amortise
// with size; CPU models lead until ~9e5 cells then bend (LLC saturation);
// GPU series stay near-linear.
//
// Observability flags (strictly additive; default output is unchanged):
//   --smoke         CI fast path: short calibration ladder, first three
//                   meshes only (CSV not golden-comparable)
//   --report=FILE   tl-report-1 run report + sibling .om OpenMetrics export
//                   (first CPU figure model at the sweep's largest mesh)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "ports/registry.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tl;
  const bench::BenchOptions opts =
      bench::parse_bench_options(tl::util::Cli(argc, argv));
  bench::Harness harness(opts.smoke ? bench::smoke_ladder()
                                    : std::vector<int>{});

  std::printf("== Figure 11: runtime vs mesh size (even cell-count steps) ==%s\n"
              "(CG solver, simulated seconds, lower is better)\n\n",
              opts.smoke ? " — SMOKE MODE" : "");
  harness.print_calibration();

  struct Series {
    sim::Model model;
    sim::DeviceId device;
  };
  std::vector<Series> series;
  for (const sim::DeviceId d : sim::kAllDevices) {
    for (const sim::Model m : ports::figure_models(d)) {
      series.push_back({m, d});
    }
  }

  std::vector<int> meshes = bench::Harness::fig11_meshes();
  if (opts.smoke && meshes.size() > 3) meshes.resize(3);
  util::CsvWriter csv("fig11_meshsweep.csv",
                      {"model", "device", "nx", "cells", "seconds"});

  std::vector<std::string> header{"Series \\ cells"};
  for (const int nx : meshes) {
    header.push_back(util::human_count(static_cast<double>(nx) * nx));
  }
  util::Table table(header);

  for (const auto& sr : series) {
    std::vector<std::string> row{std::string(sim::model_name(sr.model)) + " " +
                                 std::string(sim::device_short_name(sr.device))};
    for (const int nx : meshes) {
      const auto r = harness.modelled_solve(sr.model, sr.device,
                                            core::SolverKind::kCg, nx);
      row.push_back(util::strf("%.2f", r.seconds));
      csv.row({std::string(sim::model_id(sr.model)),
               std::string(sim::device_short_name(sr.device)),
               util::strf("%d", nx),
               util::strf("%lld", static_cast<long long>(nx) * nx),
               util::strf("%.4f", r.seconds)});
    }
    table.row(std::move(row));
  }
  table.print();
  std::printf("\nCSV written to fig11_meshsweep.csv\n");

  if (!opts.report_path.empty() && !series.empty()) {
    bench::write_figure_report(harness, series.front().model,
                               series.front().device, meshes.back(),
                               "bench_fig11_meshsweep", opts.report_path);
  }
  return 0;
}
