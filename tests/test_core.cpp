// Unit tests for src/core: geometry, settings, state painting, kernel
// catalogue, eigenvalue machinery, reference kernels, solvers, driver.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/driver.hpp"
#include "core/eigen.hpp"
#include "core/iteration_model.hpp"
#include "core/kernel_catalog.hpp"
#include "core/model_traits.hpp"
#include "core/reference_kernels.hpp"
#include "core/settings.hpp"
#include "core/state_init.hpp"

using namespace tl::core;
namespace s = tl::sim;

// ---------------------------------------------------------------------------
// Mesh
// ---------------------------------------------------------------------------

TEST(Mesh, GeometryDerivedQuantities) {
  Mesh m(10, 20, 2);
  m.x_min = 0.0;
  m.x_max = 10.0;
  m.y_min = 0.0;
  m.y_max = 10.0;
  EXPECT_EQ(m.padded_nx(), 14);
  EXPECT_EQ(m.padded_ny(), 24);
  EXPECT_EQ(m.interior_cells(), 200u);
  EXPECT_DOUBLE_EQ(m.dx(), 1.0);
  EXPECT_DOUBLE_EQ(m.dy(), 0.5);
  EXPECT_DOUBLE_EQ(m.cell_centre_x(2), 0.5);  // first interior cell
  EXPECT_TRUE(m.is_interior(2, 2));
  EXPECT_FALSE(m.is_interior(1, 2));
  EXPECT_FALSE(m.is_interior(12, 2));
}

TEST(Mesh, InvalidGeometryThrows) {
  EXPECT_THROW(Mesh(0, 4), std::invalid_argument);
  EXPECT_THROW(Mesh(4, 4, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Settings
// ---------------------------------------------------------------------------

TEST(Settings, DefaultProblemIsValid) {
  const Settings s = Settings::default_problem();
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.states.size(), 3u);
  EXPECT_DOUBLE_EQ(s.states[0].density, 100.0);
}

TEST(Settings, FromConfigParsesDeck) {
  const auto cfg = tl::util::IniConfig::parse(
      "x_cells=256\n"
      "y_cells=128\n"
      "tl_use_ppcg\n"
      "tl_eps=1e-12\n"
      "tl_coefficient=recip_conductivity\n"
      "state 1 density=10 energy=1\n"
      "state 2 density=0.5 energy=3 xmin=1 xmax=2 ymin=1 ymax=2\n");
  const Settings s = Settings::from_config(cfg);
  EXPECT_EQ(s.nx, 256);
  EXPECT_EQ(s.ny, 128);
  EXPECT_EQ(s.solver, SolverKind::kPpcg);
  EXPECT_EQ(s.coefficient, Coefficient::kRecipConductivity);
  ASSERT_EQ(s.states.size(), 2u);
  EXPECT_DOUBLE_EQ(s.states[1].energy, 3.0);
}

TEST(Settings, ValidationCatchesNonsense) {
  Settings s = Settings::default_problem();
  s.eps = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = Settings::default_problem();
  s.states.clear();
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = Settings::default_problem();
  s.cg_prep_iters = 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// State painting
// ---------------------------------------------------------------------------

TEST(StateInit, PaintsBackgroundAndRegions) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 20;
  Mesh mesh(20, 20, 2);
  Chunk chunk(mesh);
  apply_initial_states(chunk, s);
  const auto density = chunk.field(FieldId::kDensity);
  const auto energy = chunk.field(FieldId::kEnergy0);
  // Cell (2,2) is (0.25, 0.25): inside state 2's rectangle [0,5]x[0,2].
  EXPECT_DOUBLE_EQ(density(2, 2), 0.1);
  EXPECT_DOUBLE_EQ(energy(2, 2), 25.0);
  // Top-right corner is background.
  EXPECT_DOUBLE_EQ(density(21, 21), 100.0);
  EXPECT_DOUBLE_EQ(energy(21, 21), 0.0001);
}

TEST(StateInit, LaterStatesOverwriteEarlier) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 16;
  s.states.push_back(StateRegion{.density = 7.0, .energy = 9.0,
                                 .x_min = 0.0, .x_max = 10.0,
                                 .y_min = 0.0, .y_max = 10.0});
  Mesh mesh(16, 16, 2);
  Chunk chunk(mesh);
  apply_initial_states(chunk, s);
  EXPECT_DOUBLE_EQ(chunk.field(FieldId::kDensity)(8, 8), 7.0);
}

// ---------------------------------------------------------------------------
// Kernel catalogue + model traits
// ---------------------------------------------------------------------------

TEST(KernelCatalog, BytesScaleWithStreams) {
  const std::size_t n = 1000;
  const auto info = base_launch_info(KernelId::kCgCalcW, n);
  EXPECT_EQ(info.bytes_read, 3 * n * 8);
  EXPECT_EQ(info.bytes_written, 1 * n * 8);
  EXPECT_TRUE(info.traits.reduction);
  EXPECT_EQ(info.items, n);
}

TEST(KernelCatalog, ChebyIterateIsVectorCritical) {
  const auto cheby = base_launch_info(KernelId::kChebyIterate, 100);
  const auto cg = base_launch_info(KernelId::kCgCalcW, 100);
  EXPECT_GT(cheby.traits.vector_sensitivity, cg.traits.vector_sensitivity);
  EXPECT_FALSE(cheby.traits.reduction);
}

TEST(KernelCatalog, HaloBytesArePerimeter) {
  const auto info = halo_launch_info(100, 50, 2, 1);
  const std::size_t perimeter = 2 * (100 + 50);
  EXPECT_EQ(info.bytes_read, perimeter * 2 * 8);
  EXPECT_FALSE(info.traits.reduction);
}

TEST(ModelTraits, DecorationPerModel) {
  const std::size_t n = 64;
  EXPECT_TRUE(make_launch_info(s::Model::kKokkos, KernelId::kCgCalcW, n)
                  .traits.interior_branch);
  EXPECT_FALSE(make_launch_info(s::Model::kKokkosHp, KernelId::kCgCalcW, n)
                   .traits.interior_branch);
  EXPECT_TRUE(make_launch_info(s::Model::kKokkosHp, KernelId::kCgCalcW, n)
                  .traits.hierarchical);
  EXPECT_TRUE(make_launch_info(s::Model::kRaja, KernelId::kCgCalcW, n)
                  .traits.indirection);
  EXPECT_TRUE(make_launch_info(s::Model::kRajaSimd, KernelId::kChebyIterate, n)
                  .traits.indirection);
  EXPECT_FALSE(make_launch_info(s::Model::kCuda, KernelId::kCgCalcW, n)
                   .traits.indirection);
  EXPECT_FALSE(make_launch_info(s::Model::kKokkos, KernelId::kHaloUpdate, n)
                   .traits.interior_branch);
}

// ---------------------------------------------------------------------------
// Eigen machinery
// ---------------------------------------------------------------------------

TEST(Eigen, LanczosTridiagonalFromCgScalars) {
  const double alphas[] = {0.5, 0.25};
  const double betas[] = {0.1};
  const auto t = lanczos_tridiagonal(alphas, betas);
  ASSERT_EQ(t.diag.size(), 2u);
  EXPECT_DOUBLE_EQ(t.diag[0], 2.0);
  EXPECT_DOUBLE_EQ(t.diag[1], 4.0 + 0.1 / 0.5);
  EXPECT_DOUBLE_EQ(t.off[1], std::sqrt(0.1) / 0.5);
}

TEST(Eigen, LanczosRejectsBadInput) {
  const double one_alpha[] = {0.5};
  const double no_beta[] = {0.0};
  EXPECT_THROW(lanczos_tridiagonal(one_alpha, {}), std::invalid_argument);
  const double bad_alphas[] = {0.5, -0.1};
  EXPECT_THROW(lanczos_tridiagonal(bad_alphas, no_beta), std::invalid_argument);
}

TEST(Eigen, SturmCountsAndExtremalEigenvalues) {
  // T = tridiag(diag=2, off=1), n=4: eigenvalues 2 - 2 cos(k pi / 5).
  Tridiagonal t;
  t.diag = {2, 2, 2, 2};
  t.off = {0, 1, 1, 1};
  EXPECT_EQ(sturm_count(t, 0.0), 0);
  EXPECT_EQ(sturm_count(t, 2.0), 2);
  EXPECT_EQ(sturm_count(t, 4.1), 4);
  const auto e = extremal_eigenvalues(t);
  ASSERT_TRUE(e.valid);
  const double expected_min = 2.0 - 2.0 * std::cos(M_PI / 5.0);
  const double expected_max = 2.0 - 2.0 * std::cos(4.0 * M_PI / 5.0);
  EXPECT_NEAR(e.min, expected_min, 1e-9);
  EXPECT_NEAR(e.max, expected_max, 1e-9);
}

TEST(Eigen, SafetyWidensTheSpectrum) {
  const double alphas[] = {1.0, 1.0, 1.0};
  const double betas[] = {0.5, 0.5};
  const auto tight = estimate_spectrum(alphas, betas, 0.0);
  const auto wide = estimate_spectrum(alphas, betas, 0.2);
  ASSERT_TRUE(tight.valid);
  ASSERT_TRUE(wide.valid);
  EXPECT_LT(wide.min, tight.min);
  EXPECT_GT(wide.max, tight.max);
}

TEST(Eigen, ChebyCoefficientsRecurrence) {
  const auto c = cheby_coefficients(1.0, 9.0, 5);
  EXPECT_DOUBLE_EQ(c.theta, 5.0);
  EXPECT_DOUBLE_EQ(c.delta, 4.0);
  EXPECT_DOUBLE_EQ(c.sigma, 1.25);
  ASSERT_EQ(c.alphas.size(), 5u);
  // First step: rho_new = 1/(2 sigma - 1/sigma).
  const double rho1 = 1.0 / (2.5 - 0.8);
  EXPECT_NEAR(c.alphas[0], rho1 * 0.8, 1e-12);
  EXPECT_NEAR(c.betas[0], 2.0 * rho1 / 4.0, 1e-12);
  EXPECT_THROW(cheby_coefficients(2.0, 1.0, 3), std::invalid_argument);
}

TEST(Eigen, IterationEstimateGrowsWithConditionNumber) {
  const int well = cheby_iteration_estimate(1.0, 4.0, 1e-10);
  const int ill = cheby_iteration_estimate(1.0, 400.0, 1e-10);
  EXPECT_GT(ill, well);
  EXPECT_GT(well, 1);
  EXPECT_THROW(cheby_iteration_estimate(0.0, 1.0, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reference kernels: local properties
// ---------------------------------------------------------------------------

namespace {
std::unique_ptr<ReferenceKernels> prepared_reference(const Settings& s) {
  Mesh mesh(s.nx, s.ny, s.halo_depth);
  Chunk chunk(mesh);
  apply_initial_states(chunk, s);
  auto k = std::make_unique<ReferenceKernels>(mesh);
  k->upload_state(chunk);
  k->halo_update(kMaskDensity | kMaskEnergy0, mesh.halo_depth);
  k->init_u();
  const double rx = s.dt_init / (mesh.dx() * mesh.dx());
  k->init_coefficients(s.coefficient, rx, rx);
  k->halo_update(kMaskU, 1);
  return k;
}
}  // namespace

TEST(ReferenceKernels, MatrixRowSumsAreOne) {
  // A has row sum 1 (Neumann boundaries): A applied to a constant vector
  // returns the constant.
  Settings s = Settings::default_problem();
  s.nx = s.ny = 12;
  auto k = prepared_reference(s);
  auto u = k->field(FieldId::kU);
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = 3.25;
  k->calc_residual();  // r = u0 - A u
  auto r = k->field(FieldId::kR);
  auto u0 = k->field(FieldId::kU0);
  const int h = 2;
  for (int y = h; y < h + s.ny; ++y) {
    for (int x = h; x < h + s.nx; ++x) {
      EXPECT_NEAR(r(x, y), u0(x, y) - 3.25, 1e-10);
    }
  }
}

TEST(ReferenceKernels, CgInitResidualEqualsCalcResidual) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 16;
  auto k = prepared_reference(s);
  const double rro = k->cg_init();
  EXPECT_GT(rro, 0.0);
  // r from cg_init must equal u0 - A u computed independently.
  std::vector<double> r_cg(k->field(FieldId::kR).size());
  for (std::size_t i = 0; i < r_cg.size(); ++i) {
    r_cg[i] = k->field(FieldId::kR)[i];
  }
  k->calc_residual();
  for (std::size_t i = 0; i < r_cg.size(); ++i) {
    EXPECT_DOUBLE_EQ(r_cg[i], k->field(FieldId::kR)[i]);
  }
  EXPECT_NEAR(k->calc_2norm(NormTarget::kResidual), rro, rro * 1e-12);
}

TEST(ReferenceKernels, FieldSummaryMatchesAnalyticInitialState) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 40;  // divides the state rectangles exactly
  auto k = prepared_reference(s);
  const FieldSummary sum = k->field_summary();
  EXPECT_NEAR(sum.volume, 100.0, 1e-9);
  // mass = 100*(100 - 10 - 12) + 0.1*(10 + 12) per unit cell area:
  // state2 covers [0,5]x[0,2] (area 10), state3 [3,7]x[5,8] (area 12).
  const double expected_mass = 100.0 * (100.0 - 22.0) + 0.1 * 22.0;
  EXPECT_NEAR(sum.mass, expected_mass, 1e-9);
  const double expected_ie =
      100.0 * 0.0001 * (100.0 - 22.0) + 0.1 * (25.0 * 10.0 + 0.1 * 12.0);
  EXPECT_NEAR(sum.internal_energy, expected_ie, 1e-9);
}

// ---------------------------------------------------------------------------
// Solvers on the reference kernels
// ---------------------------------------------------------------------------

namespace {
RunReport run_reference(SolverKind solver, int n, int steps = 1,
                        double eps = 1e-15) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = n;
  s.solver = solver;
  s.end_step = steps;
  s.eps = eps;
  Driver driver(s, std::make_unique<ReferenceKernels>(Mesh(n, n, s.halo_depth)));
  return driver.run();
}
}  // namespace

TEST(Solvers, AllConvergeOnDefaultProblem) {
  for (const SolverKind solver : kAllSolvers) {
    const RunReport r = run_reference(solver, 64);
    ASSERT_EQ(r.steps.size(), 1u);
    EXPECT_TRUE(r.steps[0].solve.converged) << solver_name(solver);
    EXPECT_LT(r.steps[0].solve.final_rr, 1e-15);
    EXPECT_GT(r.steps[0].solve.iterations, 5);
  }
}

TEST(Solvers, JacobiConvergesAndAgreesWithCg) {
  // TeaLeaf's explicit baseline: far more iterations than CG, same answer.
  const RunReport jacobi = run_reference(SolverKind::kJacobi, 48, 1, 1e-12);
  const RunReport cg = run_reference(SolverKind::kCg, 48, 1, 1e-12);
  ASSERT_TRUE(jacobi.steps[0].solve.converged);
  EXPECT_GT(jacobi.steps[0].solve.iterations,
            2 * cg.steps[0].solve.iterations);
  const double t = cg.steps[0].summary.temperature;
  EXPECT_NEAR(jacobi.steps[0].summary.temperature, t, std::abs(t) * 1e-5);
}

TEST(Solvers, SolversAgreeOnTheAnswer) {
  const RunReport cg = run_reference(SolverKind::kCg, 48);
  const RunReport cheby = run_reference(SolverKind::kCheby, 48);
  const RunReport ppcg = run_reference(SolverKind::kPpcg, 48);
  const double t = cg.steps[0].summary.temperature;
  EXPECT_NEAR(cheby.steps[0].summary.temperature, t, std::abs(t) * 1e-9);
  EXPECT_NEAR(ppcg.steps[0].summary.temperature, t, std::abs(t) * 1e-9);
}

TEST(Solvers, EnergyIsConservedByTheSolve) {
  // Heat conduction with reflective boundaries conserves density*energy
  // integral: temperature (volume-weighted u) equals the initial internal
  // energy integral.
  const RunReport r = run_reference(SolverKind::kCg, 40);
  const auto& sum = r.steps[0].summary;
  const double expected_ie =
      100.0 * 0.0001 * (100.0 - 22.0) + 0.1 * (25.0 * 10.0 + 0.1 * 12.0);
  EXPECT_NEAR(sum.temperature, expected_ie, std::abs(expected_ie) * 1e-8);
}

TEST(Solvers, PpcgUsesFewerOuterIterationsThanCg) {
  const RunReport cg = run_reference(SolverKind::kCg, 96);
  const RunReport ppcg = run_reference(SolverKind::kPpcg, 96);
  EXPECT_LT(ppcg.steps[0].solve.iterations, cg.steps[0].solve.iterations);
  EXPECT_GT(ppcg.steps[0].solve.inner_iterations, 0);
}

TEST(Solvers, ChebyRecordsSpectrum) {
  const RunReport r = run_reference(SolverKind::kCheby, 64);
  const auto& spec = r.steps[0].solve.spectrum;
  EXPECT_TRUE(spec.valid);
  EXPECT_GT(spec.min, 0.0);
  EXPECT_GT(spec.max, spec.min);
  // The operator's spectrum sits in (0, 1 + 8 rx]-ish; min close to 1.
  EXPECT_LT(spec.max / spec.min, 1e4);
}

TEST(Solvers, TighterToleranceNeedsMoreIterations) {
  const RunReport loose = run_reference(SolverKind::kCg, 64, 1, 1e-8);
  const RunReport tight = run_reference(SolverKind::kCg, 64, 1, 1e-18);
  EXPECT_LT(loose.steps[0].solve.iterations, tight.steps[0].solve.iterations);
}

TEST(Driver, MultiStepDiffusionFlattensTemperatureField) {
  const RunReport r = run_reference(SolverKind::kCg, 32, 4);
  ASSERT_EQ(r.steps.size(), 4u);
  // Total heat is conserved across steps...
  EXPECT_NEAR(r.steps[3].summary.temperature, r.steps[0].summary.temperature,
              std::abs(r.steps[0].summary.temperature) * 1e-7);
  // ...while successive solves start closer to equilibrium (fewer iters).
  EXPECT_LE(r.steps[3].solve.iterations, r.steps[0].solve.iterations);
}

TEST(Driver, ReportsAggregates) {
  const RunReport r = run_reference(SolverKind::kCg, 32, 2);
  EXPECT_EQ(r.total_iterations(),
            r.steps[0].solve.iterations + r.steps[1].solve.iterations);
  // Reference kernels do not meter simulated time.
  EXPECT_DOUBLE_EQ(r.sim_total_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Iteration model
// ---------------------------------------------------------------------------

TEST(IterationModel, FitsGrowingIterationCounts) {
  Settings proto = Settings::default_problem();
  const std::vector<int> ladder = {32, 48, 64, 96};
  const IterationModel m =
      calibrate_iteration_model(SolverKind::kCg, proto, ladder);
  ASSERT_EQ(m.points.size(), 4u);
  for (const auto& p : m.points) EXPECT_TRUE(p.converged);
  EXPECT_GT(m.outer_fit.exponent, 0.2);  // grows with mesh size
  EXPECT_LT(m.outer_fit.exponent, 2.0);
  EXPECT_GT(m.outer_fit.r2, 0.9);
  // Prediction is monotone and plausible at the calibration points.
  EXPECT_GT(m.predict_outer(512), m.predict_outer(128));
  EXPECT_NEAR(m.predict_outer(96), m.points[3].outer_iterations,
              0.35 * m.points[3].outer_iterations);
}

TEST(IterationModel, PpcgTracksInnerIterations) {
  Settings proto = Settings::default_problem();
  const std::vector<int> ladder = {32, 64};
  const IterationModel m =
      calibrate_iteration_model(SolverKind::kPpcg, proto, ladder);
  EXPECT_GT(m.inner_per_outer, 0.0);
}

TEST(IterationModel, RejectsTinyLadder) {
  Settings proto = Settings::default_problem();
  const std::vector<int> ladder = {32};
  EXPECT_THROW(calibrate_iteration_model(SolverKind::kCg, proto, ladder),
               std::invalid_argument);
}
