// Fused-kernel correctness: the contract that fusion is a pure performance
// transform. Per-kernel and solver-level equivalence between the fused and
// classic paths (reference kernels and every supported model x device pair,
// compared under verify::Tolerance), and bit-identity of the SIMD and scalar
// row primitives.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/fused_rows.hpp"
#include "core/reference_kernels.hpp"
#include "core/solvers.hpp"
#include "core/state_init.hpp"
#include "ports/registry.hpp"
#include "verify/tolerance.hpp"

using namespace tl;
using core::FieldId;
using core::Settings;
using core::SolverKind;

namespace {

// Reductions reassociate between the fused and classic paths; per-element
// field arithmetic follows the identical association in both.
constexpr verify::Tolerance kFieldTol{1e-15, 1e-13, 4};
constexpr verify::Tolerance kSumTol{1e-13, 1e-12, 0};

void expect_close(double a, double b, const verify::Tolerance& tol,
                  const std::string& what) {
  const verify::Comparison cmp = verify::compare(a, b, tol);
  EXPECT_TRUE(cmp.pass) << what << ": fused=" << a << " classic=" << b
                        << " rel_err=" << cmp.rel_err;
}

// ---------------------------------------------------------------------------
// Row primitives: the SIMD path must be bit-identical to the portable
// fallback for any range length (including every tail residue).
// ---------------------------------------------------------------------------

struct RowArrays {
  std::vector<double> a, b, c, d, e;
  explicit RowArrays(std::size_t n) : a(n), b(n), c(n), d(n), e(n) {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return 0.5 + static_cast<double>(s % 1000) * 1e-3;
    };
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = next();
      b[i] = next();
      c[i] = next();
      d[i] = next();
      e[i] = next();
    }
  }
};

#if TL_FUSED_SIMD

TEST(FusedRows, SimdWRowMatchesScalarBitwise) {
  constexpr std::size_t kWidth = 37;
  RowArrays m(kWidth * 8);
  for (std::size_t len = 0; len <= 9; ++len) {
    const std::size_t base = kWidth * 3 + 2;
    std::vector<double> w_simd = m.e, w_scalar = m.e;
    const auto simd = core::fused::fused_w_row_simd(
        m.a.data(), m.b.data(), m.c.data(), w_simd.data(), base, base + len,
        kWidth);
    const auto scalar = core::fused::fused_w_row_scalar(
        m.a.data(), m.b.data(), m.c.data(), w_scalar.data(), base, base + len,
        kWidth);
    EXPECT_EQ(simd.pw, scalar.pw) << "len=" << len;
    EXPECT_EQ(simd.ww, scalar.ww) << "len=" << len;
    EXPECT_EQ(w_simd, w_scalar) << "len=" << len;
  }
}

TEST(FusedRows, SimdUrpRowMatchesScalarBitwise) {
  for (std::size_t len = 0; len <= 9; ++len) {
    RowArrays m(64);
    std::vector<double> u1 = m.a, r1 = m.b, p1 = m.c;
    std::vector<double> u2 = m.a, r2 = m.b, p2 = m.c;
    const double rr_simd = core::fused::fused_urp_row_simd(
        u1.data(), r1.data(), p1.data(), m.d.data(), 5, 5 + len, 0.37, 0.61);
    const double rr_scalar = core::fused::fused_urp_row_scalar(
        u2.data(), r2.data(), p2.data(), m.d.data(), 5, 5 + len, 0.37, 0.61);
    EXPECT_EQ(rr_simd, rr_scalar) << "len=" << len;
    EXPECT_EQ(u1, u2) << "len=" << len;
    EXPECT_EQ(r1, r2) << "len=" << len;
    EXPECT_EQ(p1, p2) << "len=" << len;
  }
}

TEST(FusedRows, SimdResidualRowMatchesScalarBitwise) {
  constexpr std::size_t kWidth = 41;
  RowArrays m(kWidth * 8);
  for (std::size_t len = 0; len <= 9; ++len) {
    const std::size_t base = kWidth * 3 + 1;
    std::vector<double> r_simd = m.e, r_scalar = m.e;
    const double rr_simd = core::fused::fused_residual_row_simd(
        m.a.data(), m.b.data(), m.c.data(), m.d.data(), r_simd.data(), base,
        base + len, kWidth);
    const double rr_scalar = core::fused::fused_residual_row_scalar(
        m.a.data(), m.b.data(), m.c.data(), m.d.data(), r_scalar.data(), base,
        base + len, kWidth);
    EXPECT_EQ(rr_simd, rr_scalar) << "len=" << len;
    EXPECT_EQ(r_simd, r_scalar) << "len=" << len;
  }
}

#endif  // TL_FUSED_SIMD

// ---------------------------------------------------------------------------
// Per-kernel equivalence on the reference kernels: each fused kernel against
// the classic sequence it replaces, from an identical mid-solve state.
// ---------------------------------------------------------------------------

constexpr int kN = 28;

/// Two identically initialised reference-kernel instances, stepped through
/// CG init so all solver fields (u, u0, r, p, w, kx, ky) are populated.
class ReferencePairTest : public testing::Test {
 protected:
  ReferencePairTest()
      : mesh_(kN, kN, 2),
        fused_(std::make_unique<core::ReferenceKernels>(mesh_)),
        classic_(std::make_unique<core::ReferenceKernels>(mesh_)) {
    Settings s = Settings::default_problem();
    s.nx = s.ny = kN;
    core::Mesh painted = mesh_;
    painted.x_min = s.x_min;
    painted.x_max = s.x_max;
    painted.y_min = s.y_min;
    painted.y_max = s.y_max;
    core::Chunk chunk(painted);
    core::apply_initial_states(chunk, s);
    for (core::SolverKernels* k : {fused_.get(), classic_.get()}) {
      k->upload_state(chunk);
      k->halo_update(core::kMaskDensity | core::kMaskEnergy0, 2);
      k->init_u();
      k->init_coefficients(core::Coefficient::kConductivity, 0.35, 0.35);
      k->halo_update(core::kMaskU, 1);
      k->cg_init();
      k->halo_update(core::kMaskP, 1);
    }
  }

  // Interior only: fused sweeps that ping-pong buffers (cheby, jacobi) leave
  // stale halo values behind, which the solver refreshes via halo_update
  // before any kernel reads them — halos are not part of the contract.
  void expect_field_close(FieldId f) {
    const auto a = fused_->field_view(f);
    const auto b = classic_->field_view(f);
    const int h = mesh_.halo_depth;
    for (int y = h; y < h + mesh_.ny; ++y) {
      for (int x = h; x < h + mesh_.nx; ++x) {
        const verify::Comparison cmp = verify::compare(a(x, y), b(x, y),
                                                       kFieldTol);
        ASSERT_TRUE(cmp.pass)
            << core::field_name(f) << "(" << x << "," << y
            << "): fused=" << a(x, y) << " classic=" << b(x, y);
      }
    }
  }

  core::Mesh mesh_;
  std::unique_ptr<core::ReferenceKernels> fused_;
  std::unique_ptr<core::ReferenceKernels> classic_;
};

TEST_F(ReferencePairTest, CgCalcWFused) {
  const core::CgFusedW out = fused_->cg_calc_w_fused();
  const double pw = classic_->cg_calc_w();
  expect_close(out.pw, pw, kSumTol, "pw");
  expect_field_close(FieldId::kW);

  // ww must be the norm of the w the sweep just wrote.
  const auto w = fused_->field_view(FieldId::kW);
  std::vector<double> sq;
  const int h = mesh_.halo_depth;
  for (int y = h; y < h + mesh_.ny; ++y) {
    for (int x = h; x < h + mesh_.nx; ++x) sq.push_back(w(x, y) * w(x, y));
  }
  double ww = 0.0;
  for (const double v : sq) ww += v;
  expect_close(out.ww, ww, kSumTol, "ww");
}

TEST_F(ReferencePairTest, CgFusedUrP) {
  const double alpha = 0.123, beta_prev = 0.456;
  const double rrn = fused_->cg_fused_ur_p(alpha, beta_prev);
  const double rrn_classic = classic_->cg_calc_ur(alpha);
  classic_->cg_calc_p(beta_prev);
  expect_close(rrn, rrn_classic, kSumTol, "rrn");
  expect_field_close(FieldId::kU);
  expect_field_close(FieldId::kR);
  expect_field_close(FieldId::kP);
}

TEST_F(ReferencePairTest, FusedResidualNorm) {
  const double rr = fused_->fused_residual_norm();
  classic_->calc_residual();
  const double rr_classic = classic_->calc_2norm(core::NormTarget::kResidual);
  expect_close(rr, rr_classic, kSumTol, "rr");
  expect_field_close(FieldId::kR);
}

TEST_F(ReferencePairTest, ChebyFusedIterate) {
  for (core::SolverKernels* k : {static_cast<core::SolverKernels*>(fused_.get()),
                                 static_cast<core::SolverKernels*>(classic_.get())}) {
    k->cheby_init(2.5);
    k->halo_update(core::kMaskU, 1);
  }
  fused_->cheby_fused_iterate(0.8, 0.3);
  classic_->cheby_iterate(0.8, 0.3);
  expect_field_close(FieldId::kU);
  expect_field_close(FieldId::kP);
  expect_field_close(FieldId::kR);
}

TEST_F(ReferencePairTest, PpcgFusedInner) {
  for (core::SolverKernels* k : {static_cast<core::SolverKernels*>(fused_.get()),
                                 static_cast<core::SolverKernels*>(classic_.get())}) {
    k->ppcg_init_sd(2.5);
    k->halo_update(core::kMaskSd, 1);
  }
  fused_->ppcg_fused_inner(0.8, 0.3);
  classic_->ppcg_inner(0.8, 0.3);
  expect_field_close(FieldId::kU);
  expect_field_close(FieldId::kR);
  expect_field_close(FieldId::kSd);
}

TEST_F(ReferencePairTest, JacobiFusedCopyIterate) {
  fused_->jacobi_fused_copy_iterate();
  classic_->jacobi_copy_u();
  classic_->jacobi_iterate();
  expect_field_close(FieldId::kU);
}

// ---------------------------------------------------------------------------
// Solver-level equivalence: every supported model x device pair must produce
// the same solve (control flow and physics) with fusion on and off.
// ---------------------------------------------------------------------------

struct Pair {
  sim::Model model;
  sim::DeviceId device;
};

std::vector<Pair> supported_pairs() {
  std::vector<Pair> out;
  for (const auto m : sim::kAllModels) {
    for (const auto d : sim::kAllDevices) {
      if (ports::is_supported(m, d)) out.push_back({m, d});
    }
  }
  return out;
}

std::string pair_name(const testing::TestParamInfo<Pair>& info) {
  std::string name = std::string(sim::model_id(info.param.model)) + "_" +
                     std::string(sim::device_short_name(info.param.device));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class FusedPortPair : public testing::TestWithParam<Pair> {};

INSTANTIATE_TEST_SUITE_P(AllSupported, FusedPortPair,
                         testing::ValuesIn(supported_pairs()), pair_name);

TEST_P(FusedPortPair, FusedMatchesUnfusedForEverySolver) {
  const Pair pair = GetParam();
  for (const SolverKind solver :
       {SolverKind::kCg, SolverKind::kCheby, SolverKind::kPpcg,
        SolverKind::kJacobi}) {
    Settings s = Settings::default_problem();
    s.nx = s.ny = 40;
    s.solver = solver;

    core::StepReport reports[2];
    for (const bool fused : {true, false}) {
      s.use_fused = fused;
      core::Driver driver(
          s, ports::make_port(pair.model, pair.device,
                              core::Mesh(s.nx, s.ny, s.halo_depth), 7));
      reports[fused ? 0 : 1] = driver.run_step();
    }
    const core::SolveStats& f = reports[0].solve;
    const core::SolveStats& c = reports[1].solve;
    const std::string tag = std::string(core::solver_name(solver));

    EXPECT_EQ(f.converged, c.converged) << tag;
    // Rounding near the eps threshold may slip a check interval.
    EXPECT_NEAR(f.iterations, c.iterations, 1) << tag;
    expect_close(f.final_rr, c.final_rr,
                 verify::Tolerance{1e-13, 1e-6, 0}, tag + " final_rr");
    const std::size_t n = std::min(f.rr_history.size(), c.rr_history.size());
    for (std::size_t i = 0; i + 1 < n; ++i) {
      expect_close(f.rr_history[i], c.rr_history[i],
                   verify::Tolerance{1e-13, 1e-6, 0},
                   tag + " rr_history[" + std::to_string(i) + "]");
    }
    expect_close(reports[0].summary.internal_energy,
                 reports[1].summary.internal_energy,
                 verify::Tolerance{0.0, 1e-9, 0}, tag + " internal_energy");
    expect_close(reports[0].summary.temperature,
                 reports[1].summary.temperature,
                 verify::Tolerance{0.0, 1e-9, 0}, tag + " temperature");
  }
}

}  // namespace
