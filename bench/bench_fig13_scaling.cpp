// Figure 13 (beyond-paper extension): strong and weak scaling of the
// distributed TeaLeaf solve over MiniComm ranks, with the simulated node
// interconnect (sim/network.hpp) supplying the communication cost.
//
//   ./bench_fig13_scaling [--model omp3] [--device cpu]
//                         [--smoke] [--trace=FILE] [--report=FILE]
//
// Full mode follows the standard bench pipeline: real small-mesh solves
// calibrate the iteration power laws, a real multi-rank probe solve counts
// the per-iteration halo exchanges and allreduces on the actual distributed
// code path (src/dist), and the paper's 4096^2 mesh is then projected per
// rank count — per-rank compute metered through PhantomKernels on the
// critical (largest) tile, comm from the probe counts priced by the network
// model. Strong scaling holds the 4096^2 mesh fixed over 1/2/4/8 ranks;
// weak scaling holds ~4096^2 cells per rank (iterations grow with the
// global mesh, so weak efficiency folds the algorithmic cost of the larger
// system, not just communication).
//
// --smoke runs real DistributedDriver solves end to end at CI-sized meshes
// instead (the identical src/dist code path the conformance checker
// exercises), --trace=FILE writes a Chrome trace with one timeline row
// per rank, comm events included, and --report=FILE writes the tl-report-1
// run report of the largest overlapped CG smoke run (per-rank comm
// breakdown included). Both modes print the per-rank comm-bytes table.
//
// Every (solver, scaling, ranks) point runs twice — blocking halo exchange
// and the overlapped pipeline (tl_overlap_comm) — and both rows land in the
// CSV (`mode` column) plus the machine-readable BENCH_overlap.json. Gates,
// enforced by nonzero exit:
//   * blocking strong scaling stays monotone (total non-increasing in ranks);
//   * overlap is never slower than blocking at any point, in either mode;
//   * on the simulated (full-mode) leg, the overlapped pipeline hides at
//     least 50% of the blocking comm time at 8 ranks, strong scaling.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "comm/decomposition.hpp"
#include "comm/halo.hpp"
#include "core/driver.hpp"
#include "core/phantom_kernels.hpp"
#include "core/reference_kernels.hpp"
#include "dist/driver.hpp"
#include "ports/registry.hpp"
#include "sim/network.hpp"
#include "telemetry/check.hpp"
#include "telemetry/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace tl;
using core::SolverKind;

namespace {

constexpr std::array<int, 4> kRankLadder = {1, 2, 4, 8};
constexpr int kProbeMesh = 64;        // comm-count probe (full mode)
constexpr int kSmokeStrongMesh = 256; // strong-scaling mesh under --smoke
constexpr int kSmokeWeakBase = 160;   // per-rank mesh edge under --smoke

/// One (solver, ranks) point of a scaling curve. With the overlapped
/// pipeline, comm_s is the exposed share only and hidden_s the share that
/// sat behind interior compute; blocking points have hidden_s == 0.
struct ScalePoint {
  int ranks = 1;
  std::string grid = "1x1";
  int global_nx = 0;
  int tile_nx = 0, tile_ny = 0;   // critical (largest) tile
  int iterations = 0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double hidden_s = 0.0;
  double allred_s = 0.0;  // allreduce share of the wire time (always exposed)
  std::size_t comm_bytes_per_rank = 0;  // wire bytes (sent + received)

  double total() const { return compute_s + comm_s; }
};

/// One blocking-vs-overlap comparison, fed to the gates and the JSON.
struct OverlapCell {
  const char* scaling = "strong";
  SolverKind solver{};
  int ranks = 1;
  double blocking_s = 0.0;
  double blocking_comm_s = 0.0;
  double overlap_s = 0.0;
  double hidden_s = 0.0;

  double hidden_fraction() const {
    return blocking_comm_s > 0.0 ? hidden_s / blocking_comm_s : 0.0;
  }
};

int neighbour_count(const comm::Tile& t) {
  int n = 0;
  for (const comm::Face f : comm::kAllFaces) {
    if (t.has_neighbour(f)) ++n;
  }
  return n;
}

/// The rank on the critical path: most cells, ties broken by comm surface.
const comm::Tile& critical_tile(const comm::BlockDecomposition& d) {
  const comm::Tile* best = &d.tiles().front();
  for (const comm::Tile& t : d.tiles()) {
    const long cells = static_cast<long>(t.nx()) * t.ny();
    const long best_cells = static_cast<long>(best->nx()) * best->ny();
    if (cells > best_cells ||
        (cells == best_cells && neighbour_count(t) > neighbour_count(*best))) {
      best = &t;
    }
  }
  return *best;
}

// ---------------------------------------------------------------------------
// Full mode: probe + projection
// ---------------------------------------------------------------------------

/// Per-iteration comm event rates measured on a real distributed solve. The
/// rates are rank-count independent (every rank runs the same control flow
/// and exchange_field fires whether or not a neighbour is present), so one
/// probe per solver serves the whole rank ladder. Per-step constants
/// (initial density/energy0/u exchanges, the summary allreduce) are folded
/// into the rate — a sub-percent overestimate at paper-scale iteration
/// counts.
struct ProbeCounts {
  double halo_per_iter = 0.0;
  double allred_per_iter = 0.0;
  /// Share of halo exchanges whose charge the overlap metering defers
  /// (the depth-1 single-field exchanges feeding the solver kernels),
  /// measured on the real dist code path with tl_overlap_comm on.
  double overlapped_per_iter = 0.0;
};

ProbeCounts probe_comm_counts(SolverKind solver) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = kProbeMesh;
  s.solver = solver;
  s.nranks = 4;
  dist::DistributedDriver driver(s, [](const core::Mesh& mesh, int) {
    return std::make_unique<core::ReferenceKernels>(mesh);
  });
  const dist::DistReport rep = driver.run();
  const dist::CommStats& stats = rep.ranks.front().comm;
  const int iters = std::max(1, rep.run.steps.back().solve.iterations);
  return ProbeCounts{
      static_cast<double>(stats.halo_exchanges) / iters,
      static_cast<double>(stats.allreduces) / iters,
      static_cast<double>(stats.overlapped_exchanges) / iters,
  };
}

/// Per-rank simulated compute seconds: the critical tile metered through
/// PhantomKernels with the iteration count of the *global* system (the
/// distributed solve's control flow is global — see src/dist).
double tile_compute_seconds(const bench::Harness& harness, sim::Model model,
                            sim::DeviceId device, SolverKind solver,
                            int global_nx, int tile_nx, int tile_ny) {
  core::Settings s = core::Settings::default_problem();
  s.nx = tile_nx;
  s.ny = tile_ny;
  s.solver = solver;
  if (solver == SolverKind::kPpcg) {
    s.ppcg_inner_steps = core::recommended_ppcg_inner_steps(global_nx);
  }
  const int outer = harness.predicted_outer(solver, global_nx);
  // Weak scaling predicts > 10k iterations at the largest meshes; keep the
  // driver's iteration cap above the scripted convergence point so the
  // phantom solve is never silently truncated.
  s.max_iters = std::max(s.max_iters, outer + core::kCheckInterval + 1);
  const core::PhantomScript script =
      core::replay_script(s, outer, solver == SolverKind::kCg);
  core::Driver driver(
      s,
      std::make_unique<core::PhantomKernels>(
          model, device, core::Mesh(tile_nx, tile_ny, s.halo_depth), script, 1),
      core::DriverOptions{.materialize_host_state = false});
  return driver.run().sim_total_seconds;
}

/// Share of one outer iteration's compute available as the hiding window of
/// one overlapped exchange: the consuming stencil kernel's interior sweep.
/// Conservative floor — the consumer is one of at most a handful of kernels
/// per iteration in every solver (CG splits the iteration over two fused
/// kernels; Chebyshev/PPCG/Jacobi iterate in one).
constexpr double kConsumerComputeShare = 0.25;

ScalePoint modelled_point(const bench::Harness& harness, sim::Model model,
                          sim::DeviceId device, SolverKind solver,
                          int global_nx, int ranks, const ProbeCounts& probe,
                          const sim::NetworkSpec& net, bool overlap) {
  const comm::BlockDecomposition decomp(global_nx, global_nx, ranks);
  const comm::Tile& crit = critical_tile(decomp);
  const int halo_depth = core::Settings{}.halo_depth;

  ScalePoint p;
  p.ranks = ranks;
  p.grid = util::strf("%dx%d", decomp.grid_x(), decomp.grid_y());
  p.global_nx = global_nx;
  p.tile_nx = crit.nx();
  p.tile_ny = crit.ny();
  p.iterations = harness.predicted_outer(solver, global_nx);
  p.compute_s = tile_compute_seconds(harness, model, device, solver, global_nx,
                                     crit.nx(), crit.ny());
  if (ranks > 1) {
    const double halo_count = probe.halo_per_iter * p.iterations;
    const double allred_count = probe.allred_per_iter * p.iterations;
    const comm::HaloWire wire = comm::halo_wire(crit, 1, halo_depth);
    const std::size_t onedir = wire.doubles * sizeof(double);
    const double halo_ns = sim::halo_exchange_ns(net, onedir, wire.messages);
    const double allred_ns = sim::allreduce_ns(net, sizeof(double), ranks);
    p.allred_s = allred_count * allred_ns * 1e-9;
    p.comm_s = halo_count * halo_ns * 1e-9 + p.allred_s;
    p.comm_bytes_per_rank =
        static_cast<std::size_t>(halo_count * 2.0 * static_cast<double>(onedir));
    if (overlap) {
      // Mirror of DistributedKernels' accounting: each overlapped exchange
      // hides min(wire time, the consuming kernel's interior compute charge)
      // and exposes the remainder. Only the probe-measured share of the halo
      // exchanges is eligible; allreduces stay fully exposed.
      const double interior_frac =
          (static_cast<double>(crit.nx() - 2) * (crit.ny() - 2)) /
          (static_cast<double>(crit.nx()) * crit.ny());
      const double compute_per_iter_ns = p.compute_s * 1e9 / p.iterations;
      const double window_ns =
          interior_frac * compute_per_iter_ns * kConsumerComputeShare;
      const double eligible = probe.overlapped_per_iter * p.iterations;
      p.hidden_s = eligible * std::min(halo_ns, window_ns) * 1e-9;
      p.comm_s -= p.hidden_s;
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Smoke mode: real distributed solves
// ---------------------------------------------------------------------------

ScalePoint measured_point(sim::Model model, sim::DeviceId device,
                          SolverKind solver, int global_nx, int ranks,
                          bool overlap, std::vector<sim::RecordingSink>* sinks,
                          std::vector<dist::RankReport>* rank_reports,
                          core::RunReport* run_out = nullptr) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = global_nx;
  s.solver = solver;
  s.nranks = ranks;
  s.overlap_comm = overlap;
  if (solver == SolverKind::kPpcg) {
    s.ppcg_inner_steps = core::recommended_ppcg_inner_steps(global_nx);
  }
  dist::DistributedDriver driver(s, [&](const core::Mesh& mesh, int rank) {
    return ports::make_port(model, device, mesh,
                            1 + static_cast<std::uint64_t>(rank));
  });
  if (sinks != nullptr) {
    *sinks = std::vector<sim::RecordingSink>(static_cast<std::size_t>(ranks));
    std::vector<sim::TraceSink*> ptrs;
    for (sim::RecordingSink& sink : *sinks) ptrs.push_back(&sink);
    driver.set_rank_sinks(std::move(ptrs));
  }
  const dist::DistReport rep = driver.run();

  const dist::RankReport* slowest = &rep.ranks.front();
  for (const dist::RankReport& r : rep.ranks) {
    if (r.sim_seconds > slowest->sim_seconds) slowest = &r;
  }
  ScalePoint p;
  p.ranks = ranks;
  p.grid = util::strf("%dx%d", driver.decomposition().grid_x(),
                      driver.decomposition().grid_y());
  p.global_nx = global_nx;
  p.tile_nx = slowest->tile.nx();
  p.tile_ny = slowest->tile.ny();
  p.iterations = rep.run.steps.back().solve.iterations;
  p.comm_s = slowest->comm.comm_ns * 1e-9;  // exposed share under overlap
  p.hidden_s = slowest->comm.hidden_ns * 1e-9;
  p.allred_s = slowest->comm.allreduce_ns * 1e-9;
  p.compute_s = rep.run.sim_total_seconds - p.comm_s;
  p.comm_bytes_per_rank = slowest->comm.bytes;
  if (rank_reports != nullptr) *rank_reports = rep.ranks;
  if (run_out != nullptr) *run_out = rep.run;
  return p;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void print_section(const char* scaling, const char* mode, SolverKind solver,
                   const std::vector<ScalePoint>& points,
                   util::CsvWriter& csv, sim::Model model,
                   sim::DeviceId device) {
  const std::string solver_label(core::solver_name(solver));
  std::printf("-- %s scaling (%s): %s --\n", scaling, mode,
              solver_label.c_str());
  util::Table table({"Ranks", "Grid", "Mesh", "Tile", "Iters", "Compute s",
                     "Comm s", "Hidden s", "Total s", "Speedup", "Eff"});
  const double t1 = points.front().total();
  for (const ScalePoint& p : points) {
    const double speedup = t1 / p.total();
    table.row({util::strf("%d", p.ranks), p.grid,
               util::strf("%d^2", p.global_nx),
               util::strf("%dx%d", p.tile_nx, p.tile_ny),
               util::strf("%d", p.iterations), util::strf("%.3f", p.compute_s),
               util::strf("%.3f", p.comm_s), util::strf("%.3f", p.hidden_s),
               util::strf("%.3f", p.total()), util::strf("%.2f", speedup),
               util::strf("%.2f", speedup / p.ranks)});
    csv.row({scaling, mode, std::string(sim::model_id(model)),
             std::string(sim::device_short_name(device)), solver_label,
             util::strf("%d", p.ranks), p.grid, util::strf("%d", p.global_nx),
             util::strf("%d", p.tile_nx), util::strf("%d", p.tile_ny),
             util::strf("%d", p.iterations), util::strf("%.6f", p.compute_s),
             util::strf("%.6f", p.comm_s), util::strf("%.6f", p.hidden_s),
             util::strf("%.6f", p.allred_s),
             util::strf("%.6f", p.total()),
             util::strf("%.4f", speedup), util::strf("%.4f", speedup / p.ranks),
             util::strf("%zu", p.comm_bytes_per_rank)});
  }
  table.print();
  std::printf("\n");
}

void collect_cells(std::vector<OverlapCell>& out, const char* scaling,
                   SolverKind solver, const std::vector<ScalePoint>& blocking,
                   const std::vector<ScalePoint>& overlap) {
  for (std::size_t i = 0; i < blocking.size(); ++i) {
    out.push_back(OverlapCell{scaling, solver, blocking[i].ranks,
                              blocking[i].total(), blocking[i].comm_s,
                              overlap[i].total(), overlap[i].hidden_s});
  }
}

/// One point of a solver's scaling curve: strong (else weak) scaling,
/// global mesh edge, rank count, overlapped (else blocking) halo exchange.
using PointFn =
    std::function<ScalePoint(bool strong, int nx, int ranks, bool overlap)>;

/// The strong and weak rank ladders, each blocking and overlapped, for every
/// solver: printed, written to the CSV and collected for the overlap gates.
/// `points_for(solver)` supplies the mode's point function (measured under
/// --smoke, modelled otherwise). Returns whether blocking strong scaling
/// stayed monotone.
bool run_ladders(const std::function<PointFn(SolverKind)>& points_for,
                 int strong_mesh, int weak_base, util::CsvWriter& csv,
                 sim::Model model, sim::DeviceId device,
                 std::vector<OverlapCell>& cells) {
  bool monotone = true;
  for (const SolverKind solver : core::kAllSolvers) {
    const PointFn point = points_for(solver);
    for (const bool strong : {true, false}) {
      const char* scaling = strong ? "strong" : "weak";
      std::vector<ScalePoint> blocking, overlap;
      for (const int ranks : kRankLadder) {
        const int nx = strong ? strong_mesh
                              : static_cast<int>(std::lround(
                                    weak_base *
                                    std::sqrt(static_cast<double>(ranks))));
        blocking.push_back(point(strong, nx, ranks, /*overlap=*/false));
        overlap.push_back(point(strong, nx, ranks, /*overlap=*/true));
      }
      print_section(scaling, "blocking", solver, blocking, csv, model, device);
      print_section(scaling, "overlap", solver, overlap, csv, model, device);
      collect_cells(cells, scaling, solver, blocking, overlap);
      for (std::size_t i = 1; strong && i < blocking.size(); ++i) {
        if (blocking[i].total() > blocking[i - 1].total()) monotone = false;
      }
    }
  }
  return monotone;
}

void write_overlap_json(const std::vector<OverlapCell>& cells, bool smoke,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAILED to write %s\n", path.c_str());
    return;
  }
  const std::string checks = telemetry::checks_member(
      {{".", {}, {"mode"}, {}, {}},
       {"cells", {"scaling", "solver", "ranks"}, {},
        {"blocking_s", "overlap_s"}, {"hidden_fraction"}}});
  std::fprintf(f, "{\n  \"schema\": \"%s\",\n%s", telemetry::kBenchSchema,
               checks.c_str());
  std::fprintf(f, "  \"bench\": \"fig13_overlap\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"gates\": {\"overlap_never_slower\": true, "
                  "\"min_hidden_fraction_strong_8\": %s},\n",
               smoke ? "null" : "0.5");
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const OverlapCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"scaling\": \"%s\", \"solver\": \"%s\", \"ranks\": %d, "
        "\"blocking_s\": %.6f, \"blocking_comm_s\": %.6f, "
        "\"overlap_s\": %.6f, \"hidden_s\": %.6f, "
        "\"hidden_fraction\": %.4f}%s\n",
        c.scaling, std::string(core::solver_name(c.solver)).c_str(), c.ranks,
        c.blocking_s, c.blocking_comm_s, c.overlap_s, c.hidden_s,
        c.hidden_fraction(), i + 1 == cells.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("JSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bench::BenchOptions opts =
      bench::parse_bench_options(cli, {"model", "device"});
  const bool smoke = opts.smoke;
  const std::string& trace_path = opts.trace_path;

  const auto model = sim::parse_model(cli.get_or("model", "omp3"));
  const auto device = sim::parse_device(cli.get_or("device", "cpu"));
  if (!model || !device || !ports::is_supported(*model, *device)) {
    std::fprintf(stderr, "unknown or unsupported --model/--device pair\n");
    return 2;
  }

  const sim::NetworkSpec& net = sim::node_interconnect();
  const int strong_mesh =
      smoke ? kSmokeStrongMesh : bench::Harness::kConvergenceMesh;
  const int weak_base = smoke ? kSmokeWeakBase : bench::Harness::kConvergenceMesh;

  std::printf("== Figure 13: distributed scaling over MiniComm ranks ==\n"
              "(%s on %s; strong: %dx%d fixed; weak: ~%dx%d cells per rank; "
              "%s, %.1f GB/s link, %.1f us latency%s)\n\n",
              std::string(sim::model_name(*model)).c_str(),
              std::string(sim::device_spec(*device).name).c_str(), strong_mesh,
              strong_mesh, weak_base, weak_base,
              std::string(net.name).c_str(), net.link_bw_gbs,
              net.latency_ns * 1e-3, smoke ? " — SMOKE MODE" : "");

  util::CsvWriter csv(
      "fig13_scaling.csv",
      {"scaling", "mode", "model", "device", "solver", "ranks", "grid",
       "global_nx", "tile_nx", "tile_ny", "iterations", "compute_s", "comm_s",
       "hidden_s", "allred_s", "total_s", "speedup",
       "efficiency", "comm_bytes_per_rank"});

  bool monotone = true;
  std::vector<OverlapCell> overlap_cells;
  std::vector<dist::RankReport> comm_table;  // per-rank bytes (largest R, CG)
  std::vector<sim::RecordingSink> trace_sinks;
  core::RunReport report_run;  // largest overlapped CG run (smoke mode)
  const bool want_stream = !trace_path.empty() || !opts.report_path.empty();

  if (smoke) {
    // Real distributed solves: the same src/dist code path tl_verify --ranks
    // checks, here timed and tallied, once blocking and once overlapped.
    // Trace sinks ride the largest overlapped CG run (overlap events shown).
    monotone = run_ladders(
        [&](SolverKind solver) -> PointFn {
          return [&, solver](bool strong, int nx, int ranks, bool overlap) {
            const bool traced = strong && overlap &&
                                solver == SolverKind::kCg &&
                                ranks == kRankLadder.back();
            return measured_point(
                *model, *device, solver, nx, ranks, overlap,
                traced && want_stream ? &trace_sinks : nullptr,
                traced ? &comm_table : nullptr,
                traced ? &report_run : nullptr);
          };
        },
        strong_mesh, weak_base, csv, *model, *device, overlap_cells);
  } else {
    bench::Harness harness;
    harness.print_calibration();
    monotone = run_ladders(
        [&](SolverKind solver) -> PointFn {
          const ProbeCounts probe = probe_comm_counts(solver);
          std::printf("probe [%s]: %.2f halo exchanges (%.2f overlapped) + "
                      "%.2f allreduces per outer iteration (measured at %d^2 "
                      "x 4 ranks)\n\n",
                      std::string(core::solver_name(solver)).c_str(),
                      probe.halo_per_iter, probe.overlapped_per_iter,
                      probe.allred_per_iter, kProbeMesh);
          return [&, solver, probe](bool, int nx, int ranks, bool overlap) {
            return modelled_point(harness, *model, *device, solver, nx, ranks,
                                  probe, net, overlap);
          };
        },
        strong_mesh, weak_base, csv, *model, *device, overlap_cells);
    // Per-rank comm bytes at the largest strong-scaling point (CG): the
    // analytic mirror of the smoke mode's measured table.
    const ProbeCounts probe = probe_comm_counts(SolverKind::kCg);
    const int iters =
        harness.predicted_outer(SolverKind::kCg, strong_mesh);
    const comm::BlockDecomposition decomp(strong_mesh, strong_mesh,
                                          kRankLadder.back());
    std::printf("-- per-rank comm, strong CG at %d ranks --\n",
                kRankLadder.back());
    util::Table table({"Rank", "Tile", "Neighbours", "Halo MB", "Allreduces"});
    for (const comm::Tile& t : decomp.tiles()) {
      const double onedir_bytes = static_cast<double>(
          comm::halo_wire(t, 1, core::Settings{}.halo_depth).doubles *
          sizeof(double));
      const double mb = probe.halo_per_iter * iters * 2.0 * onedir_bytes / 1e6;
      table.row({util::strf("%d", t.rank),
                 util::strf("%dx%d", t.nx(), t.ny()),
                 util::strf("%d", neighbour_count(t)), util::strf("%.2f", mb),
                 util::strf("%.0f", probe.allred_per_iter * iters)});
    }
    table.print();
    std::printf("\n");
  }

  if (!comm_table.empty()) {
    std::printf("-- per-rank comm, strong CG at %d ranks (measured) --\n",
                kRankLadder.back());
    util::Table table({"Rank", "Tile", "Halo exchanges", "Allreduces", "Bytes",
                       "Comm s", "Hidden s"});
    for (const dist::RankReport& r : comm_table) {
      table.row({util::strf("%d", r.rank),
                 util::strf("%dx%d", r.tile.nx(), r.tile.ny()),
                 util::strf("%llu", static_cast<unsigned long long>(
                                        r.comm.halo_exchanges)),
                 util::strf("%llu",
                            static_cast<unsigned long long>(r.comm.allreduces)),
                 util::strf("%zu", r.comm.bytes),
                 util::strf("%.6f", r.comm.comm_ns * 1e-9),
                 util::strf("%.6f", r.comm.hidden_ns * 1e-9)});
    }
    table.print();
    std::printf("\n");
  }

  if (!trace_path.empty()) {
    if (trace_sinks.empty()) {
      std::printf("trace: --trace is only recorded in --smoke mode (full "
                  "mode prices comm analytically; no event stream exists)\n");
    } else {
      std::vector<sim::TraceGroup> groups;
      std::size_t total = 0;
      for (std::size_t r = 0; r < trace_sinks.size(); ++r) {
        groups.push_back(sim::TraceGroup{util::strf("CG/rank%zu", r),
                                         trace_sinks[r].events(),
                                         trace_sinks[r].dropped()});
        total += trace_sinks[r].events().size();
      }
      if (sim::write_chrome_trace_file(trace_path, groups)) {
        std::printf("trace: %zu events (one row per rank, comm phase "
                    "included) written to %s\n",
                    total, trace_path.c_str());
      }
    }
  }

  if (!opts.report_path.empty()) {
    if (trace_sinks.empty()) {
      std::printf("report: --report is only recorded in --smoke mode (full "
                  "mode prices comm analytically; no event stream exists)\n");
    } else {
      // The largest overlapped CG smoke run, its per-rank recordings handed
      // to the report in rank order.
      telemetry::ReportContext ctx;
      ctx.source = "bench_fig13_scaling";
      ctx.model = std::string(sim::model_id(*model));
      ctx.device = std::string(sim::device_short_name(*device));
      ctx.solver = std::string(core::solver_name(SolverKind::kCg));
      ctx.nx = ctx.ny = strong_mesh;
      ctx.steps = static_cast<int>(report_run.steps.size());
      ctx.ranks = kRankLadder.back();
      ctx.use_fused = core::Settings::default_problem().use_fused;
      ctx.overlap_comm = true;
      telemetry::ReportBuilder builder(std::move(ctx));
      for (const sim::RecordingSink& sink : trace_sinks) {
        for (const sim::TraceEvent& ev : sink.events()) builder.on_event(ev);
      }
      builder.add_run(report_run, builder.profile().bandwidth_gbs());
      for (const dist::RankReport& r : comm_table) builder.add_rank(r);
      if (builder.write(opts.report_path)) {
        std::printf("report: tl-report-1 written to %s (+ %s)\n",
                    opts.report_path.c_str(),
                    telemetry::ReportBuilder::openmetrics_path(opts.report_path)
                        .c_str());
      } else {
        std::printf("report: FAILED to write %s\n", opts.report_path.c_str());
      }
    }
  }

  write_overlap_json(overlap_cells, smoke, "BENCH_overlap.json");
  bool overlap_ok = true;
  bool hidden_ok = true;
  for (const OverlapCell& c : overlap_cells) {
    if (c.overlap_s > c.blocking_s) {
      overlap_ok = false;
      std::printf("GATE: overlap slower than blocking at %s/%s/%d ranks "
                  "(%.6f s vs %.6f s)\n",
                  c.scaling, std::string(core::solver_name(c.solver)).c_str(),
                  c.ranks, c.overlap_s, c.blocking_s);
    }
    if (!smoke && std::string(c.scaling) == "strong" &&
        c.ranks == kRankLadder.back() && c.hidden_fraction() < 0.5) {
      hidden_ok = false;
      std::printf("GATE: only %.1f%% of blocking comm hidden at strong/%s/%d "
                  "ranks (need >= 50%%)\n",
                  100.0 * c.hidden_fraction(),
                  std::string(core::solver_name(c.solver)).c_str(), c.ranks);
    }
  }

  std::printf("CSV written to fig13_scaling.csv\n");
  std::printf("strong scaling monotone 1->%d ranks: %s\n", kRankLadder.back(),
              monotone ? "yes" : "NO — REGRESSION");
  std::printf("overlap never slower than blocking: %s\n",
              overlap_ok ? "yes" : "NO — REGRESSION");
  if (!smoke) {
    std::printf(">=50%% of comm hidden at strong %d ranks: %s\n",
                kRankLadder.back(), hidden_ok ? "yes" : "NO — REGRESSION");
  }
  return (monotone && overlap_ok && hidden_ok) ? 0 : 1;
}
