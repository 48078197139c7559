// Integration tests: the bench pipeline end-to-end (iteration-model
// calibration feeding PhantomKernels at paper scale), the distributed
// (MiniComm) TeaLeaf step, and cross-cutting behaviours from the paper's
// evaluation narrative (Fig 11 shapes).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "comm/halo.hpp"
#include "comm/minimpi.hpp"
#include "core/driver.hpp"
#include "core/iteration_model.hpp"
#include "core/phantom_kernels.hpp"
#include "core/reference_kernels.hpp"
#include "core/state_init.hpp"
#include "ports/registry.hpp"
#include "sim/stream.hpp"

using namespace tl;
using core::Settings;
using core::SolverKind;

namespace {
double modelled_solve_seconds(sim::Model model, sim::DeviceId device, int nx,
                              int outer, SolverKind solver = SolverKind::kCg,
                              std::uint64_t seed = 1) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = nx;
  s.solver = solver;
  core::PhantomScript script;
  script.eps = s.eps;
  if (solver == SolverKind::kCheby) {
    script.converge_after_ur = s.cg_prep_iters;
    script.converge_after_cheby = std::max(1, outer - s.cg_prep_iters - 1);
    script.converge_on_ur = false;
  } else {
    script.converge_after_ur = outer;
    script.converge_on_ur = solver == SolverKind::kCg;
  }
  core::Driver driver(s,
                      std::make_unique<core::PhantomKernels>(
                          model, device, core::Mesh(nx, nx, s.halo_depth),
                          script, seed),
                      core::DriverOptions{.materialize_host_state = false});
  return driver.run().sim_total_seconds;
}
}  // namespace

// ---------------------------------------------------------------------------
// Paper-scale metering through the phantom pipeline
// ---------------------------------------------------------------------------

TEST(PaperScale, Phantom4096RunsInstantly) {
  // The headline mesh: 4096^2 x thousands of iterations, metered without
  // touching memory. Sanity: simulated time lands in the paper's order of
  // magnitude (hundreds to thousands of seconds).
  const double t =
      modelled_solve_seconds(sim::Model::kFortran,
                             sim::DeviceId::kCpuSandyBridge, 4096, 3000);
  EXPECT_GT(t, 10.0);
  EXPECT_LT(t, 100'000.0);
}

TEST(PaperScale, GpuBeatsCpuAtConvergenceMesh) {
  const double cpu = modelled_solve_seconds(
      sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, 4096, 3000);
  const double gpu = modelled_solve_seconds(sim::Model::kCuda,
                                            sim::DeviceId::kGpuK20X, 4096, 3000);
  EXPECT_LT(gpu, cpu);
}

TEST(Fig11Shape, OffloadModelsHaveHighSmallMeshOverheads) {
  // Paper: OpenMP 4.0 / OpenCL-KNC have high intercepts that amortise as the
  // mesh grows. Compare per-cell cost at small vs large meshes.
  auto per_cell = [](sim::Model m, sim::DeviceId d, int nx, int outer) {
    return modelled_solve_seconds(m, d, nx, outer) /
           (static_cast<double>(nx) * nx);
  };
  // Same iteration count isolates the overhead effect.
  const double omp4_small = per_cell(sim::Model::kOmp4, sim::DeviceId::kMicKnc,
                                     128, 200);
  const double omp4_large = per_cell(sim::Model::kOmp4, sim::DeviceId::kMicKnc,
                                     2048, 200);
  EXPECT_GT(omp4_small, 3.0 * omp4_large);
  // The natively-compiled F90 port has far smaller overheads.
  const double f90_small = per_cell(sim::Model::kFortran,
                                    sim::DeviceId::kMicKnc, 128, 200);
  const double f90_large = per_cell(sim::Model::kFortran,
                                    sim::DeviceId::kMicKnc, 2048, 200);
  EXPECT_LT(f90_small / f90_large, omp4_small / omp4_large);
}

TEST(Fig11Shape, CpuCacheBendAroundNineHundredThousandCells) {
  // Paper: CPU models lead until ~9x10^5 cells, then LLC saturation bends
  // the curve. Per-cell cost should rise noticeably across the bend.
  auto per_cell = [](int nx, int outer) {
    return modelled_solve_seconds(sim::Model::kFortran,
                                  sim::DeviceId::kCpuSandyBridge, nx, outer) /
           (static_cast<double>(nx) * nx);
  };
  const double in_cache = per_cell(387, 300);    // 1.5e5 cells
  const double past_bend = per_cell(1949, 300);  // 3.8e6 cells
  EXPECT_GT(past_bend, 1.5 * in_cache);
}

TEST(Fig11Shape, GpuGrowthStaysNearLinear) {
  auto per_cell = [](int nx, int outer) {
    return modelled_solve_seconds(sim::Model::kCuda, sim::DeviceId::kGpuK20X,
                                  nx, outer) /
           (static_cast<double>(nx) * nx);
  };
  const double small = per_cell(612, 300);
  const double large = per_cell(2448, 300);
  // Per-cell cost shrinks or stays flat as overheads amortise: linear growth.
  EXPECT_LT(large, small * 1.05);
}

// ---------------------------------------------------------------------------
// Calibrated pipeline: real small-mesh solves -> power law -> big mesh
// ---------------------------------------------------------------------------

TEST(Calibration, FitFeedsPhantomConsistently) {
  Settings proto = Settings::default_problem();
  const std::vector<int> ladder = {32, 48, 64};
  const auto model = core::calibrate_iteration_model(SolverKind::kCg, proto,
                                                     ladder);
  const int predicted = model.predict_outer(96);
  // Check the prediction against a real 96^2 solve.
  Settings s = proto;
  s.nx = s.ny = 96;
  s.solver = SolverKind::kCg;
  core::Driver driver(s, std::make_unique<core::ReferenceKernels>(
                             core::Mesh(96, 96, s.halo_depth)));
  const int actual = driver.run_step().solve.iterations;
  EXPECT_NEAR(predicted, actual, 0.4 * actual);
}

TEST(DriverModes, LightweightModeHasNoHostChunk) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  core::PhantomScript script;
  script.converge_after_ur = 10;
  core::Driver driver(s,
                      std::make_unique<core::PhantomKernels>(
                          sim::Model::kCuda, sim::DeviceId::kGpuK20X,
                          core::Mesh(32, 32, 2), script, 1),
                      core::DriverOptions{.materialize_host_state = false});
  EXPECT_THROW(driver.chunk(), std::logic_error);
  const auto report = driver.run();
  EXPECT_EQ(report.steps[0].solve.iterations, 10);
  EXPECT_GT(report.sim_total_seconds, 0.0);
}

TEST(DriverModes, MaterializedModeExposesChunk) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 16;
  core::Driver driver(s, std::make_unique<core::ReferenceKernels>(
                             core::Mesh(16, 16, 2)));
  EXPECT_NO_THROW(driver.chunk());
  EXPECT_EQ(driver.mesh().nx, 16);
}

// ---------------------------------------------------------------------------
// Distributed TeaLeaf step over MiniComm
// ---------------------------------------------------------------------------

namespace {

/// Runs one distributed CG solve: the mesh is block-decomposed, each rank
/// owns a ReferenceKernels on its tile, halos move through HaloExchanger and
/// scalars through allreduce. Returns the global temperature sum.
double distributed_cg_temperature(int gnx, int gny, int ranks) {
  Settings proto = Settings::default_problem();
  proto.nx = gnx;
  proto.ny = gny;

  const comm::BlockDecomposition decomp(gnx, gny, ranks);
  double result = 0.0;
  comm::run_ranks(ranks, [&](comm::Communicator& cm) {
    const comm::Tile& tile = decomp.tile(cm.rank());
    core::Mesh mesh(tile.nx(), tile.ny(), proto.halo_depth);
    // Physical extents of this tile within the global domain.
    const double gdx = (proto.x_max - proto.x_min) / gnx;
    const double gdy = (proto.y_max - proto.y_min) / gny;
    mesh.x_min = proto.x_min + tile.x_begin * gdx;
    mesh.x_max = proto.x_min + tile.x_end * gdx;
    mesh.y_min = proto.y_min + tile.y_begin * gdy;
    mesh.y_max = proto.y_min + tile.y_end * gdy;

    core::Chunk chunk(mesh);
    core::apply_initial_states(chunk, proto);
    core::ReferenceKernels k(mesh);
    k.upload_state(chunk);

    comm::HaloExchanger ex(decomp, cm.rank(), proto.halo_depth);
    auto exchange = [&](core::FieldId f, int depth, int tag) {
      ex.exchange(cm, k.field(f), depth, tag);
    };

    exchange(core::FieldId::kDensity, 2, 0);
    exchange(core::FieldId::kEnergy0, 2, 1);
    k.init_u();
    const double rx = proto.dt_init / (gdx * gdx);
    const double ry = proto.dt_init / (gdy * gdy);
    k.init_coefficients(proto.coefficient, rx, ry);
    exchange(core::FieldId::kU, 1, 2);

    // Distributed CG: local kernels + allreduce on every dot product.
    double rro = cm.allreduce(k.cg_init());
    exchange(core::FieldId::kP, 1, 3);
    bool converged = false;
    for (int it = 0; it < proto.max_iters && !converged; ++it) {
      const double pw = cm.allreduce(k.cg_calc_w());
      const double alpha = rro / pw;
      const double rrn = cm.allreduce(k.cg_calc_ur(alpha));
      if (rrn < proto.eps) {
        converged = true;
        break;
      }
      k.cg_calc_p(rrn / rro);
      exchange(core::FieldId::kP, 1, 4);
      rro = rrn;
    }
    EXPECT_TRUE(converged);

    k.finalise();
    const core::FieldSummary local = k.field_summary();
    const double global_temp = cm.allreduce(local.temperature);
    if (cm.rank() == 0) result = global_temp;
  });
  return result;
}

}  // namespace

TEST(Distributed, FourRankCgMatchesSingleRank) {
  const double single = distributed_cg_temperature(32, 32, 1);
  const double quad = distributed_cg_temperature(32, 32, 4);
  EXPECT_NEAR(quad, single, std::abs(single) * 1e-9);

  // And both match the plain (non-distributed) driver.
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  s.solver = SolverKind::kCg;
  core::Driver driver(s, std::make_unique<core::ReferenceKernels>(
                             core::Mesh(32, 32, s.halo_depth)));
  const double expected = driver.run_step().summary.temperature;
  EXPECT_NEAR(single, expected, std::abs(expected) * 1e-9);
}

TEST(Distributed, UnevenTilesStillAgree) {
  const double single = distributed_cg_temperature(30, 18, 1);
  const double six = distributed_cg_temperature(30, 18, 6);
  EXPECT_NEAR(six, single, std::abs(single) * 1e-9);
}

// ---------------------------------------------------------------------------
// STREAM + achieved-bandwidth glue (Fig 12 inputs)
// ---------------------------------------------------------------------------

TEST(Fig12Inputs, AchievedBandwidthBelowStream) {
  const Settings s = [] {
    Settings t = Settings::default_problem();
    t.nx = t.ny = 64;
    return t;
  }();
  for (const auto m : ports::figure_models(sim::DeviceId::kCpuSandyBridge)) {
    core::Driver driver(s, ports::make_port(m, sim::DeviceId::kCpuSandyBridge,
                                            core::Mesh(64, 64, 2), 2));
    driver.run();
    const double achieved = driver.kernels().clock().achieved_bandwidth_gbs();
    EXPECT_GT(achieved, 0.0) << sim::model_name(m);
    // At 64^2 the working set fits the LLC: achieved bandwidth may exceed
    // STREAM (cache boost) but never the boosted ceiling.
    const auto& dev = sim::device_spec(sim::DeviceId::kCpuSandyBridge);
    EXPECT_LT(achieved, dev.stream_bw_gbs * dev.cache_bw_boost)
        << sim::model_name(m);
  }
}
