// Region-parameterised sweeps (KernelCaps::kCapRegions): the overlap
// pipeline's correctness rests on interior + boundary-ring sweeps being
// BIT-IDENTICAL to the full-sweep kernel they split — same per-cell
// arithmetic, reductions recomputed in the full sweep's accumulation order.
// These tests drive two instances of the same implementation through
// identical prologues, run one full and one split, and assert exact (==)
// agreement on every reduction and every touched field, for every
// advertising implementation, including degenerate tile shapes.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/reference_kernels.hpp"
#include "core/state_init.hpp"
#include "ports/registry.hpp"

using namespace tl;
using core::FieldId;
using core::Region;

namespace {

/// An implementation that advertises kCapRegions, by name + factory.
struct RegionImpl {
  std::string name;
  std::function<std::unique_ptr<core::SolverKernels>(const core::Mesh&)> make;
};

/// gtest prints the parameter into each test's listed name; without this it
/// dumps the object's raw bytes, heap pointers included, so ctest entry names
/// would change from build to build.
void PrintTo(const RegionImpl& impl, std::ostream* os) { *os << impl.name; }

std::vector<RegionImpl> region_impls() {
  std::vector<RegionImpl> out;
  out.push_back({"reference", [](const core::Mesh& m) {
                   return std::make_unique<core::ReferenceKernels>(m);
                 }});
  const core::Mesh probe_mesh(8, 8, 2);
  for (const auto model : sim::kAllModels) {
    for (const auto device : sim::kAllDevices) {
      if (!ports::is_supported(model, device)) continue;
      const auto probe = ports::make_port(model, device, probe_mesh, 1);
      if (!(probe->caps() & core::kCapRegions)) continue;
      std::string name = std::string(sim::model_id(model)) + "_" +
                         std::string(sim::device_short_name(device));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      out.push_back({name, [model, device](const core::Mesh& m) {
                       return ports::make_port(model, device, m, 9);
                     }});
    }
  }
  return out;
}

std::string impl_name(const testing::TestParamInfo<RegionImpl>& info) {
  return info.param.name;
}

/// Standard solve prologue on a fresh instance (mirrors the solver driver).
std::unique_ptr<core::SolverKernels> make_ready(const RegionImpl& impl, int nx,
                                                int ny) {
  const core::Mesh mesh(nx, ny, 2);
  auto k = impl.make(mesh);

  core::Settings s = core::Settings::default_problem();
  s.nx = nx;
  s.ny = ny;
  core::Mesh painted = mesh;
  painted.x_min = s.x_min;
  painted.x_max = s.x_max;
  painted.y_min = s.y_min;
  painted.y_max = s.y_max;
  core::Chunk chunk(painted);
  core::apply_initial_states(chunk, s);

  k->upload_state(chunk);
  k->halo_update(core::kMaskDensity | core::kMaskEnergy0, 2);
  k->init_u();
  k->init_coefficients(core::Coefficient::kConductivity, 0.35, 0.35);
  k->halo_update(core::kMaskU, 1);
  return k;
}

/// Sweeps interior + the four edge regions in the pipeline's fixed order.
template <typename Fn>
void sweep_regions(Fn&& region_call) {
  region_call(Region::kInterior);
  for (const Region r : core::kEdgeRegions) region_call(r);
}

/// Bitwise comparison of one padded field between two instances.
void expect_field_identical(core::SolverKernels& full,
                            core::SolverKernels& split, FieldId id,
                            const char* what) {
  const auto a = full.field_view(id);
  const auto b = split.field_view(id);
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  for (int y = 0; y < a.ny(); ++y) {
    for (int x = 0; x < a.nx(); ++x) {
      ASSERT_EQ(a(x, y), b(x, y))
          << what << ": field " << static_cast<int>(id) << " differs at ("
          << x << "," << y << ")";
    }
  }
}

}  // namespace

class RegionSweeps : public testing::TestWithParam<RegionImpl> {};

INSTANTIATE_TEST_SUITE_P(AllAdvertising, RegionSweeps,
                         testing::ValuesIn(region_impls()), impl_name);

TEST_P(RegionSweeps, CgClassicSplitIsBitIdentical) {
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  for (auto* k : {full.get(), split.get()}) {
    k->cg_init();
    k->halo_update(core::kMaskP, 1);
  }
  const double pw = full->cg_calc_w();
  sweep_regions([&](Region r) { split->cg_calc_w_region(r); });
  const double pw_split = split->cg_calc_w_region_finish();
  EXPECT_EQ(pw, pw_split);  // bitwise
  expect_field_identical(*full, *split, FieldId::kW, "cg_calc_w");
}

TEST_P(RegionSweeps, CgFusedSplitIsBitIdentical) {
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  for (auto* k : {full.get(), split.get()}) {
    k->cg_init();
    k->halo_update(core::kMaskP, 1);
  }
  const core::CgFusedW f = full->cg_calc_w_fused();
  sweep_regions([&](Region r) { split->cg_calc_w_fused_region(r); });
  const core::CgFusedW g = split->cg_calc_w_fused_region_finish();
  EXPECT_EQ(f.pw, g.pw);
  EXPECT_EQ(f.ww, g.ww);
  expect_field_identical(*full, *split, FieldId::kW, "cg_calc_w_fused");
}

TEST_P(RegionSweeps, ChebySplitIsBitIdenticalOverIterations) {
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  const double theta = 4.0;
  for (auto* k : {full.get(), split.get()}) {
    k->cg_init();
    k->halo_update(core::kMaskP, 1);
    k->cheby_init(theta);
    k->halo_update(core::kMaskU, 1);
  }
  for (int it = 0; it < 3; ++it) {
    const double alpha = 0.3 + 0.1 * it;
    const double beta = 0.7 - 0.1 * it;
    full->cheby_fused_iterate(alpha, beta);
    full->halo_update(core::kMaskU, 1);
    sweep_regions([&](Region r) { split->cheby_fused_region(alpha, beta, r); });
    split->cheby_fused_region_finish();
    split->halo_update(core::kMaskU, 1);
    for (const FieldId id : {FieldId::kU, FieldId::kP, FieldId::kR}) {
      expect_field_identical(*full, *split, id, "cheby_fused_iterate");
    }
  }
}

TEST_P(RegionSweeps, PpcgSplitIsBitIdenticalOverIterations) {
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  const double theta = 5.0;
  for (auto* k : {full.get(), split.get()}) {
    k->cg_init();
    k->halo_update(core::kMaskP, 1);
    k->cg_calc_w();
    k->cg_calc_ur(0.7);
    k->ppcg_init_sd(theta);
    k->halo_update(core::kMaskSd, 1);
  }
  for (int it = 0; it < 3; ++it) {
    const double alpha = 0.4 + 0.05 * it;
    const double beta = 0.3 / theta;
    full->ppcg_fused_inner(alpha, beta);
    full->halo_update(core::kMaskSd, 1);
    sweep_regions([&](Region r) { split->ppcg_fused_region(alpha, beta, r); });
    split->ppcg_fused_region_finish(alpha, beta);
    split->halo_update(core::kMaskSd, 1);
    for (const FieldId id : {FieldId::kU, FieldId::kR, FieldId::kSd}) {
      expect_field_identical(*full, *split, id, "ppcg_fused_inner");
    }
  }
}

TEST_P(RegionSweeps, JacobiSplitIsBitIdenticalOverIterations) {
  // Three iterations with halo updates between, exercising the ping-pong
  // swap in the interior call and any per-iteration halo-frame bookkeeping.
  auto full = make_ready(GetParam(), 24, 20);
  auto split = make_ready(GetParam(), 24, 20);
  for (int it = 0; it < 3; ++it) {
    full->jacobi_fused_copy_iterate();
    full->halo_update(core::kMaskU, 1);
    sweep_regions([&](Region r) { split->jacobi_fused_region(r); });
    split->jacobi_fused_region_finish();
    split->halo_update(core::kMaskU, 1);
    for (const FieldId id : {FieldId::kU, FieldId::kW}) {
      expect_field_identical(*full, *split, id, "jacobi_fused_copy_iterate");
    }
  }
}

TEST_P(RegionSweeps, DegenerateTileShapesStayBitIdentical) {
  // Tiles where the boundary ring IS most (or all) of the interior: single
  // rows, single columns, and rings wider than the remaining interior.
  const int shapes[][2] = {{5, 1}, {1, 4}, {2, 2}, {7, 3}, {3, 7}};
  for (const auto& s : shapes) {
    auto full = make_ready(GetParam(), s[0], s[1]);
    auto split = make_ready(GetParam(), s[0], s[1]);
    for (auto* k : {full.get(), split.get()}) {
      k->cg_init();
      k->halo_update(core::kMaskP, 1);
    }
    const double pw = full->cg_calc_w();
    sweep_regions([&](Region r) { split->cg_calc_w_region(r); });
    EXPECT_EQ(pw, split->cg_calc_w_region_finish())
        << "tile " << s[0] << "x" << s[1];
    expect_field_identical(*full, *split, FieldId::kW, "degenerate cg w");
  }
}

// ---------------------------------------------------------------------------
// Region geometry
// ---------------------------------------------------------------------------

TEST(RegionBounds, FiveRegionsPartitionTheInteriorExactly) {
  // Every interior cell is visited exactly once by the union of the five
  // regions, for every small tile shape and both halo depths.
  for (int h = 1; h <= 2; ++h) {
    for (int nx = 1; nx <= 6; ++nx) {
      for (int ny = 1; ny <= 6; ++ny) {
        std::vector<int> cover(static_cast<std::size_t>(nx) * ny, 0);
        const Region all[5] = {Region::kInterior, Region::kSouth,
                               Region::kNorth, Region::kWest, Region::kEast};
        for (const Region r : all) {
          const core::RegionBounds b = core::region_bounds(r, h, nx, ny);
          for (int y = b.y0; y < b.y1; ++y) {
            for (int x = b.x0; x < b.x1; ++x) {
              ASSERT_GE(x, h);
              ASSERT_LT(x, h + nx);
              ASSERT_GE(y, h);
              ASSERT_LT(y, h + ny);
              ++cover[static_cast<std::size_t>(y - h) * nx + (x - h)];
            }
          }
        }
        for (const int c : cover) {
          ASSERT_EQ(c, 1) << "tile " << nx << "x" << ny << " h=" << h;
        }
      }
    }
  }
}

TEST(RegionBounds, InteriorIsInsetOneCell) {
  const core::RegionBounds b =
      core::region_bounds(Region::kInterior, 2, 10, 8);
  EXPECT_EQ(b.x0, 3);
  EXPECT_EQ(b.x1, 11);
  EXPECT_EQ(b.y0, 3);
  EXPECT_EQ(b.y1, 9);
}

TEST(RegionDefaults, NonAdvertisingPortThrows) {
  // The solver/dist layers must never call a region sweep on a port that
  // does not advertise kCapRegions; the defaults enforce it loudly.
  const core::Mesh mesh(8, 8, 2);
  for (const auto model : sim::kAllModels) {
    for (const auto device : sim::kAllDevices) {
      if (!ports::is_supported(model, device)) continue;
      auto k = ports::make_port(model, device, mesh, 1);
      if (k->caps() & core::kCapRegions) continue;
      EXPECT_THROW(k->cg_calc_w_region(Region::kInterior), std::logic_error);
      EXPECT_THROW(k->cg_calc_w_region_finish(), std::logic_error);
      EXPECT_THROW(k->cheby_fused_region(0.5, 0.5, Region::kSouth),
                   std::logic_error);
      EXPECT_THROW(k->ppcg_fused_region_finish(0.5, 0.5), std::logic_error);
      EXPECT_THROW(k->jacobi_fused_region(Region::kInterior),
                   std::logic_error);
    }
  }
}
