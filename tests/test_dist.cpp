// Unit tests for src/dist: the multi-rank timestep driver, its agreement
// with the single-rank core::Driver, the comm accounting, and the
// distributed conformance path (VerifyOptions::ranks).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "core/kernel_catalog.hpp"
#include "core/mesh.hpp"
#include "core/model_traits.hpp"
#include "core/reference_kernels.hpp"
#include "core/settings.hpp"
#include "dist/driver.hpp"
#include "ports/registry.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "verify/conformance.hpp"

namespace d = tl::dist;
using tl::core::Mesh;
using tl::core::Settings;

namespace {

Settings small_problem(int ranks, tl::core::SolverKind solver) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  s.solver = solver;
  s.end_step = 1;
  s.nranks = ranks;
  return s;
}

d::PortFactory reference_factory() {
  return [](const Mesh& mesh, int /*rank*/) {
    return std::make_unique<tl::core::ReferenceKernels>(mesh);
  };
}

d::PortFactory omp3_factory() {
  return [](const Mesh& mesh, int rank) {
    return tl::ports::make_port(*tl::sim::parse_model("omp3"),
                                *tl::sim::parse_device("cpu"), mesh,
                                1 + static_cast<std::uint64_t>(rank));
  };
}

/// Interior-only sum of a padded global field (halo cells are zero in a
/// DistReport, so a plain sum is fine, but be explicit anyway).
double interior_sum(const Mesh& mesh, const tl::util::Buffer<double>& buf) {
  const auto s = buf.view2d(mesh.padded_nx(), mesh.padded_ny());
  double sum = 0.0;
  const int h = mesh.halo_depth;
  for (int y = h; y < h + mesh.ny; ++y) {
    for (int x = h; x < h + mesh.nx; ++x) sum += s(x, y);
  }
  return sum;
}

}  // namespace

TEST(DistDriver, SingleRankReproducesCoreDriver) {
  // nranks == 1 is the degenerate decomposition: no neighbours, every halo
  // exchange is a pure boundary reflection, every allreduce a copy. The run
  // must be bit-identical to core::Driver on the same kernels.
  const Settings s = small_problem(1, tl::core::SolverKind::kCg);

  const Mesh mesh(s.nx, s.ny, s.halo_depth);
  tl::core::Driver serial(s, std::make_unique<tl::core::ReferenceKernels>(mesh));
  const tl::core::RunReport ref = serial.run();

  d::DistributedDriver driver(s, reference_factory());
  const d::DistReport rep = driver.run();

  ASSERT_EQ(rep.run.steps.size(), ref.steps.size());
  const auto& a = rep.run.steps.back().solve;
  const auto& b = ref.steps.back().solve;
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.final_rr, b.final_rr);
  EXPECT_EQ(rep.run.steps.back().summary.internal_energy,
            ref.steps.back().summary.internal_energy);

  ASSERT_EQ(rep.ranks.size(), 1u);
  EXPECT_EQ(rep.ranks[0].comm.bytes, 0u) << "1 rank must move no wire bytes";
}

TEST(DistDriver, FourRanksAgreeWithOneRank) {
  // The R-rank vs 1-rank contract (DESIGN.md §8): identical control flow,
  // residuals equal up to allreduce reassociation, fields equal to ~1e-12.
  for (const auto solver :
       {tl::core::SolverKind::kCg, tl::core::SolverKind::kCheby}) {
    d::DistributedDriver one(small_problem(1, solver), reference_factory());
    d::DistributedDriver four(small_problem(4, solver), reference_factory());
    const d::DistReport r1 = one.run();
    const d::DistReport r4 = four.run();

    const auto& s1 = r1.run.steps.back().solve;
    const auto& s4 = r4.run.steps.back().solve;
    EXPECT_EQ(s4.iterations, s1.iterations);
    EXPECT_EQ(s4.converged, s1.converged);
    if (s1.final_rr != 0.0) {
      EXPECT_NEAR(s4.final_rr / s1.final_rr, 1.0, 1e-6);
    }
    const double u1 = interior_sum(r1.global_mesh, r1.u);
    const double u4 = interior_sum(r4.global_mesh, r4.u);
    EXPECT_NEAR(u4 / u1, 1.0, 1e-10);
    EXPECT_NEAR(interior_sum(r4.global_mesh, r4.energy) /
                    interior_sum(r1.global_mesh, r1.energy),
                1.0, 1e-10);
  }
}

TEST(DistDriver, CommStatsPopulatedAndConsistent) {
  d::DistributedDriver driver(small_problem(4, tl::core::SolverKind::kCg),
                              reference_factory());
  const d::DistReport rep = driver.run();
  ASSERT_EQ(rep.ranks.size(), 4u);
  std::size_t total = 0;
  for (const auto& r : rep.ranks) {
    // Every tile of a 2x2 grid has two neighbours: all ranks exchange.
    EXPECT_GT(r.comm.halo_exchanges, 0u) << "rank " << r.rank;
    EXPECT_GT(r.comm.allreduces, 0u) << "rank " << r.rank;
    EXPECT_GT(r.comm.bytes, 0u) << "rank " << r.rank;
    EXPECT_GT(r.comm.comm_ns, 0.0) << "rank " << r.rank;
    EXPECT_GT(r.kernel_launches, 0u);
    total += r.comm.bytes;
  }
  EXPECT_EQ(rep.total_comm_bytes(), total);
  // Deterministic allreduce keeps every rank on the same control flow, so
  // the allreduce count must match exactly across ranks.
  for (const auto& r : rep.ranks) {
    EXPECT_EQ(r.comm.allreduces, rep.ranks[0].comm.allreduces);
  }
}

TEST(DistDriver, RankSinksSeeCommPhaseEvents) {
  d::DistributedDriver driver(small_problem(2, tl::core::SolverKind::kCg),
                              reference_factory());
  std::vector<tl::sim::RecordingSink> sinks(2);
  driver.set_rank_sinks({&sinks[0], &sinks[1]});
  const d::DistReport rep = driver.run();
  (void)rep;
  for (int rank = 0; rank < 2; ++rank) {
    std::size_t halo_events = 0, allreduce_events = 0, comm_bytes = 0;
    for (const auto& e : sinks[rank].events()) {
      if (e.phase != "comm") continue;
      if (e.name == "halo_exchange") {
        ++halo_events;
        comm_bytes += e.bytes;
      } else if (e.name == "allreduce") {
        ++allreduce_events;
      }
    }
    EXPECT_GT(halo_events, 0u) << "rank " << rank;
    EXPECT_GT(allreduce_events, 0u) << "rank " << rank;
    EXPECT_GT(comm_bytes, 0u) << "rank " << rank;
  }
}

TEST(DistDriver, TileMeshCarriesPhysicalSubExtents) {
  const Mesh global(40, 20, 2);
  const tl::comm::BlockDecomposition decomp(40, 20, 4);
  for (const auto& tile : decomp.tiles()) {
    const Mesh tm = d::tile_mesh(global, tile);
    EXPECT_EQ(tm.nx, tile.nx());
    EXPECT_EQ(tm.ny, tile.ny());
    EXPECT_EQ(tm.halo_depth, global.halo_depth);
    // Cell size is preserved and each tile spans exactly its cell range of
    // the global domain: state painting by cell centre then reproduces the
    // global initial condition on every tile.
    EXPECT_DOUBLE_EQ(tm.dx(), global.dx());
    EXPECT_DOUBLE_EQ(tm.dy(), global.dy());
    EXPECT_DOUBLE_EQ(tm.x_min, global.x_min + tile.x_begin * global.dx());
    EXPECT_DOUBLE_EQ(tm.x_max, global.x_min + tile.x_end * global.dx());
    EXPECT_DOUBLE_EQ(tm.y_min, global.y_min + tile.y_begin * global.dy());
    EXPECT_DOUBLE_EQ(tm.y_max, global.y_min + tile.y_end * global.dy());
  }
}

TEST(DistDriver, MoreRanksThanCellsThrows) {
  Settings s = small_problem(1, tl::core::SolverKind::kCg);
  s.nx = s.ny = 2;
  s.nranks = 64;
  EXPECT_THROW(d::DistributedDriver(s, reference_factory()),
               std::invalid_argument);
}

TEST(DistOverlap, OverlapMatchesBlockingBitIdentically) {
  // The overlap pipeline's exactness contract (DESIGN.md §10): with
  // tl_overlap_comm on, every solver must produce results bit-identical to
  // the blocking exchange — same iterations, same final residual, same
  // global fields to the last ulp.
  for (const auto solver :
       {tl::core::SolverKind::kCg, tl::core::SolverKind::kCheby,
        tl::core::SolverKind::kPpcg, tl::core::SolverKind::kJacobi}) {
    Settings on = small_problem(4, solver);
    on.overlap_comm = true;
    Settings off = on;
    off.overlap_comm = false;

    d::DistributedDriver overlapped(on, reference_factory());
    d::DistributedDriver blocking(off, reference_factory());
    const d::DistReport ro = overlapped.run();
    const d::DistReport rb = blocking.run();

    const auto& so = ro.run.steps.back().solve;
    const auto& sb = rb.run.steps.back().solve;
    EXPECT_EQ(so.iterations, sb.iterations);
    EXPECT_EQ(so.converged, sb.converged);
    EXPECT_EQ(so.final_rr, sb.final_rr);  // bitwise
    ASSERT_EQ(ro.u.size(), rb.u.size());
    for (std::size_t i = 0; i < ro.u.size(); ++i) {
      ASSERT_EQ(ro.u[i], rb.u[i]) << "u cell " << i;
      ASSERT_EQ(ro.energy[i], rb.energy[i]) << "energy cell " << i;
    }
  }
}

TEST(DistOverlap, StatsSplitExposedAndHidden) {
  // The overlapped run must actually defer the solver exchanges' charge
  // (they are eligible) and account hidden comm; the blocking run must
  // report none. Total exchange counts agree — overlap changes when comm
  // is charged, never how much. Needs a metered port (the reference oracle's
  // clock stays at zero, leaving no compute window to hide comm behind).
  Settings on = small_problem(4, tl::core::SolverKind::kCg);
  on.overlap_comm = true;
  Settings off = on;
  off.overlap_comm = false;

  const d::DistReport ro = d::DistributedDriver(on, omp3_factory()).run();
  const d::DistReport rb = d::DistributedDriver(off, omp3_factory()).run();
  for (std::size_t r = 0; r < ro.ranks.size(); ++r) {
    const d::CommStats& co = ro.ranks[r].comm;
    const d::CommStats& cb = rb.ranks[r].comm;
    EXPECT_GT(co.overlapped_exchanges, 0u) << "rank " << r;
    EXPECT_GT(co.hidden_ns, 0.0) << "rank " << r;
    EXPECT_EQ(cb.overlapped_exchanges, 0u) << "rank " << r;
    EXPECT_EQ(cb.hidden_ns, 0.0) << "rank " << r;
    EXPECT_EQ(co.halo_exchanges, cb.halo_exchanges) << "rank " << r;
    EXPECT_EQ(co.bytes, cb.bytes) << "rank " << r;
    // Exposed + hidden can never exceed the blocking wire time, and hiding
    // comm must not slow the rank down.
    EXPECT_LE(co.comm_ns, cb.comm_ns) << "rank " << r;
    EXPECT_LE(ro.ranks[r].sim_seconds, rb.ranks[r].sim_seconds)
        << "rank " << r;
  }
}

TEST(DistOverlap, TraceCarriesOverlapPhaseEvents) {
  // Hidden comm emits a trace-only "overlap" event; requires a metered port
  // for the same reason as StatsSplitExposedAndHidden.
  Settings s = small_problem(2, tl::core::SolverKind::kCg);
  s.overlap_comm = true;
  d::DistributedDriver driver(s, omp3_factory());
  std::vector<tl::sim::RecordingSink> sinks(2);
  driver.set_rank_sinks({&sinks[0], &sinks[1]});
  driver.run();
  for (int rank = 0; rank < 2; ++rank) {
    std::size_t overlap_events = 0;
    for (const auto& e : sinks[rank].events()) {
      if (e.phase == "overlap") {
        ++overlap_events;
        EXPECT_EQ(e.name, "halo_overlap");
      }
    }
    EXPECT_GT(overlap_events, 0u) << "rank " << rank;
  }
}

TEST(DistOverlap, ConsumerLaunchSplitsAroundTheExposedCharge) {
  // The metering rule, exactly: an overlapped exchange's charge settles
  // inside the consuming kernel's one launch, split at the tile's interior
  // fraction f = (nx-2)(ny-2)/(nx ny). The trace then reads: interior share
  // of the launch, exposed halo_exchange, hidden halo_overlap, remainder.
  Settings s = small_problem(2, tl::core::SolverKind::kCg);
  s.overlap_comm = true;
  d::DistributedDriver driver(s, omp3_factory());
  std::vector<tl::sim::RecordingSink> sinks(2);
  driver.set_rank_sinks({&sinks[0], &sinks[1]});
  driver.run();

  for (int rank = 0; rank < 2; ++rank) {
    const tl::comm::Tile& tile = driver.decomposition().tile(rank);
    const double f =
        (static_cast<double>(tile.nx() - 2) * (tile.ny() - 2)) /
        (static_cast<double>(tile.nx()) * tile.ny());
    std::size_t doubles = 0;
    int messages = 0;
    for (const auto face : {tl::comm::Face::kLeft, tl::comm::Face::kRight}) {
      if (tile.has_neighbour(face)) {
        doubles += static_cast<std::size_t>(tile.ny());
        ++messages;
      }
    }
    for (const auto face : {tl::comm::Face::kBottom, tl::comm::Face::kTop}) {
      if (tile.has_neighbour(face)) {
        doubles += static_cast<std::size_t>(tile.nx() + 2 * s.halo_depth);
        ++messages;
      }
    }
    const std::size_t wire_bytes = doubles * sizeof(double);
    const double wire_ns = tl::sim::halo_exchange_ns(
        tl::sim::node_interconnect(), wire_bytes, messages);

    const auto& ev = sinks[rank].events();
    std::size_t overlaps = 0;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      if (ev[i].name != "halo_overlap") continue;
      ++overlaps;
      ASSERT_GE(i, 2u);
      ASSERT_LT(i + 1, ev.size());
      const auto& head = ev[i - 2];
      const auto& exposed = ev[i - 1];
      const auto& hidden = ev[i];
      const auto& tail = ev[i + 1];
      EXPECT_EQ(exposed.name, "halo_exchange") << "rank " << rank;
      EXPECT_EQ(exposed.phase, "comm");
      EXPECT_EQ(hidden.phase, "overlap");
      EXPECT_TRUE(head.name == "cg_calc_w" || head.name == "cg_calc_w_fused")
          << head.name;
      EXPECT_EQ(tail.name, head.name) << "rank " << rank << " event " << i;
      EXPECT_EQ(tail.kernel_id, head.kernel_id);
      ASSERT_GE(head.kernel_id, 0);

      const tl::sim::LaunchInfo whole = tl::core::make_launch_info(
          head.model, static_cast<tl::core::KernelId>(head.kernel_id),
          static_cast<std::size_t>(tile.nx()) *
              static_cast<std::size_t>(tile.ny()));
      EXPECT_EQ(head.bytes + tail.bytes,
                whole.bytes_read + whole.bytes_written);
      EXPECT_NEAR(head.duration_ns / (head.duration_ns + tail.duration_ns), f,
                  1e-12);
      EXPECT_EQ(exposed.bytes, 2 * wire_bytes);
      EXPECT_NEAR(exposed.duration_ns + hidden.duration_ns, wire_ns,
                  1e-12 * wire_ns);
    }
    EXPECT_GT(overlaps, 0u) << "rank " << rank;
  }
}

TEST(DistConformance, TwoRankCellPassesAgainstSingleRankReference) {
  // The full --ranks matrix is a ctest (label "dist"); here one cheap cell
  // exercises the run_conformance ranks>1 code path end to end.
  tl::verify::VerifyOptions opt;
  opt.ranks = 2;
  opt.solvers = {tl::core::SolverKind::kCg};
  opt.only_model = tl::sim::parse_model("omp3");
  opt.only_device = tl::sim::parse_device("cpu");
  ASSERT_TRUE(opt.only_model.has_value());
  ASSERT_TRUE(opt.only_device.has_value());
  const auto report = tl::verify::run_conformance(opt);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(report.all_pass());
  EXPECT_EQ(report.options.ranks, 2);
}

TEST(DistConformance, OverlapOffCellSkipsBlockingTwin) {
  // --overlap off runs the decomposed cells with the blocking exchange only
  // (no twin, no overlap==blocking metrics) and must still pass.
  tl::verify::VerifyOptions opt;
  opt.ranks = 2;
  opt.overlap = false;
  opt.solvers = {tl::core::SolverKind::kCg};
  opt.only_model = tl::sim::parse_model("omp3");
  opt.only_device = tl::sim::parse_device("cpu");
  const auto report = tl::verify::run_conformance(opt);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(report.all_pass());
  for (const auto& m : report.cells[0].metrics) {
    EXPECT_EQ(m.detail.find("overlap==blocking"), std::string::npos);
  }
}
