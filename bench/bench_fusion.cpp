// bench_fusion: fused vs unfused kernel pipelines, simulated and measured.
//
// Two legs:
//   1. Simulated: every figure model on the paper's CPU (fig8) and GPU
//      (fig9) devices runs each solver twice through the phantom metering
//      pipeline — once with the classic kernel sequence (use_fused off) and
//      once with the fused pipeline (use_fused on) — and the per-cell
//      runtime/bandwidth pairs land in fig_fusion.csv plus the
//      machine-readable BENCH_fusion.json (both golden-diffed in CI; only
//      deterministic simulated numbers are written). Exits nonzero if ANY
//      cell's fused simulated runtime is slower than its unfused runtime.
//   2. Measured: real wall-clock CG solves on the reference host kernels at
//      512^2 with a fixed iteration budget, best of three runs per pipeline.
//      Exits nonzero if the fused path is below the 1.2x speedup gate, or if
//      the AVX2 CG row kernels fail the 1.1x gate over the SSE2 ones on a
//      cache-resident strip (skipped, not failed, on hosts without both
//      tables). Wall-clock numbers are machine-dependent: they land on
//      stdout and in the artifact's "measured" section, which --sim-only
//      (the golden regeneration path) omits — the golden-diffed cells
//      record only deterministic simulated numbers and "isa": "phantom".
//
// Flags:
//   --smoke      CI fast path: short calibration ladder, 512^2 simulated
//                mesh (CSV/JSON not comparable to the committed goldens).
//   --sim-only   Skip the measured leg (the golden regeneration fixture uses
//                this: golden tests must stay load-independent).
//   --report=FILE  tl-report-1 run report of the first fused cell's metered
//                solves (+ sibling .om OpenMetrics export).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/driver.hpp"
#include "core/isa.hpp"
#include "core/reference_kernels.hpp"
#include "ports/registry.hpp"
#include "sim/device.hpp"
#include "telemetry/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;
using core::SolverKind;

constexpr std::array<SolverKind, 4> kFusionSolvers = {
    SolverKind::kCg, SolverKind::kCheby, SolverKind::kPpcg,
    SolverKind::kJacobi};

constexpr std::array<sim::DeviceId, 2> kFusionDevices = {
    sim::DeviceId::kCpuSandyBridge, sim::DeviceId::kGpuK20X};

struct FusionCell {
  sim::DeviceId device;
  sim::Model model;
  SolverKind solver;
  bench::SolveResult unfused;
  bench::SolveResult fused;

  double speedup() const { return unfused.seconds / fused.seconds; }
};

std::vector<FusionCell> simulate(const bench::Harness& harness, int mesh) {
  std::vector<FusionCell> cells;
  for (const sim::DeviceId device : kFusionDevices) {
    for (const sim::Model model : ports::figure_models(device)) {
      for (const SolverKind solver : kFusionSolvers) {
        FusionCell cell{device, model, solver, {}, {}};
        cell.unfused = harness.modelled_solve(model, device, solver, mesh, 1,
                                              nullptr, /*use_fused=*/false);
        cell.fused = harness.modelled_solve(model, device, solver, mesh, 1,
                                            nullptr, /*use_fused=*/true);
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

void print_tables(const std::vector<FusionCell>& cells) {
  for (const sim::DeviceId device : kFusionDevices) {
    std::printf("\n-- %s: simulated seconds, unfused -> fused (speedup) --\n",
                std::string(sim::device_spec(device).name).c_str());
    util::Table table({"Model", "CG", "Chebyshev", "PPCG", "Jacobi"});
    for (const sim::Model model : ports::figure_models(device)) {
      std::vector<std::string> row{std::string(sim::model_name(model))};
      for (const SolverKind solver : kFusionSolvers) {
        for (const FusionCell& c : cells) {
          if (c.device == device && c.model == model && c.solver == solver) {
            row.push_back(util::strf("%.1f -> %.1f (%.2fx)", c.unfused.seconds,
                                     c.fused.seconds, c.speedup()));
          }
        }
      }
      table.row(std::move(row));
    }
    table.print();
  }
}

/// Wall-clock results of the measured legs (stdout + the "measured" JSON
/// section; never golden-diffed — the golden fixture passes --sim-only).
struct MeasuredLeg {
  double unfused_s = 0.0;
  double fused_s = 0.0;
  double speedup() const { return unfused_s / fused_s; }
};

/// One fused-CG iteration's row kernels (w = A p dots + the u/r/p update)
/// at 512^2 row width on a cache-resident strip, where vector width is
/// observable rather than hidden behind the bandwidth wall.
struct IsaLeg {
  double row_sse2_s = 0.0;
  double row_avx2_s = 0.0;
  double row_speedup() const { return row_sse2_s / row_avx2_s; }
};

void write_csv(const std::vector<FusionCell>& cells, const std::string& isa,
               const std::string& path) {
  util::CsvWriter csv(path, {"device", "model", "solver", "unfused_seconds",
                             "fused_seconds", "speedup", "unfused_gbs",
                             "fused_gbs", "unfused_launches", "fused_launches",
                             "isa"});
  for (const FusionCell& c : cells) {
    csv.row({std::string(sim::device_short_name(c.device)),
             std::string(sim::model_id(c.model)),
             std::string(core::solver_name(c.solver)),
             util::strf("%.3f", c.unfused.seconds),
             util::strf("%.3f", c.fused.seconds),
             util::strf("%.4f", c.speedup()),
             util::strf("%.2f", c.unfused.bandwidth_gbs),
             util::strf("%.2f", c.fused.bandwidth_gbs),
             util::strf("%llu",
                        static_cast<unsigned long long>(c.unfused.launches)),
             util::strf("%llu",
                        static_cast<unsigned long long>(c.fused.launches)),
             isa});
  }
  std::printf("\nCSV written to %s\n", path.c_str());
}

void write_json(const std::vector<FusionCell>& cells, int mesh,
                const std::string& isa,
                const std::optional<MeasuredLeg>& measured,
                const std::optional<IsaLeg>& isa_leg,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAILED to write %s\n", path.c_str());
    return;
  }
  const std::string checks = telemetry::checks_member(
      {{"cells", {"device", "model", "solver"},
        {"unfused_launches", "fused_launches"},
        {"unfused_seconds", "fused_seconds"}, {"speedup"}}});
  std::fprintf(f, "{\n  \"schema\": \"%s\",\n%s", telemetry::kBenchSchema,
               checks.c_str());
  std::fprintf(f, "  \"bench\": \"fusion\",\n  \"mesh\": %d,\n", mesh);
  std::fprintf(f, "  \"isa\": \"%s\",\n", isa.c_str());
  std::fprintf(f, "  \"gates\": {\"sim_fused_never_slower\": true, "
                  "\"measured_cg_min_speedup\": 1.2, "
                  "\"measured_avx2_min_speedup\": 1.1},\n");
  if (measured) {
    // Wall-clock (machine-dependent): present only when the measured legs
    // ran, so the --sim-only golden artifact never carries this section.
    std::fprintf(f,
                 "  \"measured\": {\"unfused_seconds\": %.6f, "
                 "\"fused_seconds\": %.6f, \"fused_speedup\": %.4f",
                 measured->unfused_s, measured->fused_s, measured->speedup());
    if (isa_leg) {
      std::fprintf(f,
                   ", \"row_sse2_seconds\": %.6f, \"row_avx2_seconds\": %.6f, "
                   "\"row_avx2_speedup\": %.4f",
                   isa_leg->row_sse2_s, isa_leg->row_avx2_s,
                   isa_leg->row_speedup());
    }
    std::fprintf(f, "},\n");
  }
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FusionCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"device\": \"%s\", \"model\": \"%s\", \"solver\": \"%s\", "
        "\"unfused_seconds\": %.3f, \"fused_seconds\": %.3f, "
        "\"speedup\": %.4f, \"unfused_gbs\": %.2f, \"fused_gbs\": %.2f, "
        "\"unfused_launches\": %llu, \"fused_launches\": %llu}%s\n",
        std::string(sim::device_short_name(c.device)).c_str(),
        std::string(sim::model_id(c.model)).c_str(),
        std::string(core::solver_name(c.solver)).c_str(), c.unfused.seconds,
        c.fused.seconds, c.speedup(), c.unfused.bandwidth_gbs,
        c.fused.bandwidth_gbs,
        static_cast<unsigned long long>(c.unfused.launches),
        static_cast<unsigned long long>(c.fused.launches),
        i + 1 == cells.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("JSON written to %s\n", path.c_str());
}

/// Nonzero cell count whose fused simulated runtime regressed.
int check_sim_gate(const std::vector<FusionCell>& cells) {
  int regressions = 0;
  for (const FusionCell& c : cells) {
    if (c.fused.seconds > c.unfused.seconds) {
      std::printf("GATE FAIL: %s/%s/%s fused %.3f s > unfused %.3f s\n",
                  std::string(sim::device_short_name(c.device)).c_str(),
                  std::string(sim::model_id(c.model)).c_str(),
                  std::string(core::solver_name(c.solver)).c_str(),
                  c.fused.seconds, c.unfused.seconds);
      ++regressions;
    }
  }
  return regressions;
}

/// Wall-clock seconds for a real CG solve on the reference host kernels:
/// fixed iteration budget (eps is unreachable), timed around Driver::run.
double measured_cg_seconds(bool use_fused, int mesh, int iters) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = mesh;
  s.solver = SolverKind::kCg;
  s.end_step = 1;
  s.max_iters = iters;
  s.eps = 1e-300;  // never reached: both pipelines run the full budget
  s.use_fused = use_fused;
  core::Driver driver(s, std::make_unique<core::ReferenceKernels>(s.mesh()));
  const auto t0 = std::chrono::steady_clock::now();
  driver.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-3 measured CG wall clock, fused vs unfused. Returns the number of
/// failed gates (0 or 1) and fills `out` with the best timings.
int run_measured_leg(std::optional<MeasuredLeg>& out) {
  constexpr int kMesh = 512;
  constexpr int kIters = 50;
  constexpr double kMinSpeedup = 1.2;
  MeasuredLeg leg;
  leg.unfused_s = leg.fused_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    leg.unfused_s = std::min(leg.unfused_s,
                             measured_cg_seconds(false, kMesh, kIters));
    leg.fused_s = std::min(leg.fused_s,
                           measured_cg_seconds(true, kMesh, kIters));
  }
  out = leg;
  std::printf("\n-- measured: reference host kernels, CG, %dx%d, %d "
              "iterations, best of 3 --\n", kMesh, kMesh, kIters);
  std::printf("  unfused %.3f s   fused %.3f s   speedup %.2fx "
              "(gate: >= %.1fx)\n", leg.unfused_s, leg.fused_s, leg.speedup(),
              kMinSpeedup);
  if (leg.speedup() < kMinSpeedup) {
    std::printf("GATE FAIL: measured fused CG speedup %.2fx < %.1fx\n",
                leg.speedup(), kMinSpeedup);
    return 1;
  }
  return 0;
}

/// Best-of-3 wall clock of one fused-CG iteration's row kernels (w_row +
/// urp_row) under the given ISA table, 512-point rows on a strip small
/// enough to stay cache-resident so the measurement sees the vector units
/// rather than the memory wall.
double measured_cg_rows_seconds(const core::isa::RowKernelTable* table) {
  constexpr std::size_t kWidth = 512 + 4;   // 512^2 interior + halo columns
  constexpr std::size_t kRows = 64;  // ~1.9 MB hot set: cache-resident
  constexpr int kSweeps = 300;
  const std::size_t n = kWidth * (kRows + 2);
  static std::vector<double> p(n), kx(n), ky(n), w(n), u(n), r(n);
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  auto fill = [&seed](std::vector<double>& v) {
    for (double& x : v) {
      seed ^= seed << 13; seed ^= seed >> 7; seed ^= seed << 17;
      x = 0.5 + static_cast<double>(seed % 1000) * 1e-3;
    }
  };
  fill(p); fill(kx); fill(ky); fill(w); fill(u); fill(r);
  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int it = 0; it < kSweeps; ++it) {
    double pw = 0.0;
    for (std::size_t j = 1; j + 1 < kRows + 2; ++j) {
      const std::size_t b = j * kWidth + 2, e = j * kWidth + kWidth - 2;
      pw += table->w_row(p.data(), kx.data(), ky.data(), w.data(), b, e,
                         kWidth).pw;
    }
    const double alpha = 0.25 + 1e-6 * pw;
    for (std::size_t j = 1; j + 1 < kRows + 2; ++j) {
      const std::size_t b = j * kWidth + 2, e = j * kWidth + kWidth - 2;
      sink += table->urp_row(u.data(), r.data(), p.data(), w.data(), b, e,
                             alpha, 0.5);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the computation observable (the value itself is irrelevant).
  if (sink == 42.0) std::printf("%f\n", sink);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// SSE2-vs-AVX2 measured leg: the CG row kernels on a cache-resident
/// 512-wide strip, where AVX2 must clear the 1.1x gate over SSE2. Each table
/// is called directly through row_table(). Skipped (not failed) when this
/// host lacks either table.
int run_isa_leg(std::optional<IsaLeg>& out) {
  constexpr double kMinSpeedup = 1.1;
  using core::isa::Isa;
  const core::isa::RowKernelTable* sse2 = core::isa::row_table(Isa::kSse2);
  const core::isa::RowKernelTable* avx2 = core::isa::row_table(Isa::kAvx2);
  if (sse2 == nullptr || avx2 == nullptr) {
    std::printf("\n-- measured ISA leg: SKIPPED (sse2/avx2 row kernels "
                "unavailable on this host) --\n");
    return 0;
  }
  IsaLeg leg;
  leg.row_sse2_s = leg.row_avx2_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    leg.row_sse2_s = std::min(leg.row_sse2_s, measured_cg_rows_seconds(sse2));
    leg.row_avx2_s = std::min(leg.row_avx2_s, measured_cg_rows_seconds(avx2));
  }
  out = leg;
  std::printf("\n-- measured: fused CG, sse2 vs avx2 row kernels, best of 3 "
              "--\n");
  std::printf("  cache-resident row kernels: sse2 %.3f s   avx2 %.3f s   "
              "%.2fx (gate: >= %.1fx)\n", leg.row_sse2_s, leg.row_avx2_s,
              leg.row_speedup(), kMinSpeedup);
  if (leg.row_speedup() < kMinSpeedup) {
    std::printf("GATE FAIL: measured avx2-over-sse2 row-kernel speedup "
                "%.2fx < %.1fx\n", leg.row_speedup(), kMinSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bench::BenchOptions opts =
      bench::parse_bench_options(cli, {"sim-only"});
  const bool smoke = opts.smoke;
  const bool sim_only = cli.has("sim-only");

  const int mesh = smoke ? bench::kSmokeMesh : bench::Harness::kConvergenceMesh;
  std::printf("== Fusion: fused vs unfused kernel pipelines ==\n"
              "(%dx%d simulated mesh%s; fused pipelines dispatched via "
              "use_fused, identical solver logic)\n\n",
              mesh, mesh, smoke ? " — SMOKE MODE" : "");

  bench::Harness harness(smoke ? bench::smoke_ladder() : std::vector<int>{});
  harness.print_calibration();

  const std::vector<FusionCell> cells = simulate(harness, mesh);
  print_tables(cells);

  // Measured legs run before the artifact writes so their wall-clock numbers
  // (and the ISA they dispatched) can be recorded. Under --sim-only no row
  // kernel ever executes — the cells are phantom-metered — so the artifact
  // records "phantom" and stays machine-independent for the golden diff.
  int failures = check_sim_gate(cells);
  std::optional<MeasuredLeg> measured;
  std::optional<IsaLeg> isa_leg;
  if (!sim_only) {
    failures += run_measured_leg(measured);
    failures += run_isa_leg(isa_leg);
  }
  const std::string isa =
      sim_only ? "phantom"
               : std::string(core::isa::isa_name(core::isa::active_isa()));

  write_csv(cells, isa, "fig_fusion.csv");
  write_json(cells, mesh, isa, measured, isa_leg, "BENCH_fusion.json");

  if (!opts.report_path.empty()) {
    // Meter the first fusion device's first figure model through the shared
    // report path (fused pipeline — the production configuration).
    const sim::DeviceId device = kFusionDevices.front();
    bench::write_figure_report(harness, ports::figure_models(device).front(),
                               device, mesh, "bench_fusion",
                               opts.report_path);
  }

  if (failures != 0) {
    std::printf("\nbench_fusion: %d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("\nbench_fusion: all gates passed (sim cells never slower; "
              "measured CG >= 1.2x; avx2 >= 1.1x over sse2 where available)\n");
  return 0;
}
