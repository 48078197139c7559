// Kernel-level equivalence: for every supported (model, device) pair, step
// through each solver's kernel chain one call at a time and compare every
// scalar the kernels produce (reductions, norms, summaries) against the
// serial reference after the *same* call. This localises a defect to the
// exact kernel, where the solver-level tests only say "something differs".

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/reference_kernels.hpp"
#include "core/state_init.hpp"
#include "ports/registry.hpp"
#include "util/stats.hpp"

using namespace tl;
using core::Coefficient;
using core::FieldId;
using core::NormTarget;

namespace {

constexpr int kN = 28;
constexpr double kTol = 1e-11;

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

/// Drives a port and the reference through identical call sequences,
/// checking each scalar as it is produced.
class LockstepChecker {
 public:
  explicit LockstepChecker(const Pair& pair)
      : mesh_(kN, kN, 2),
        chunk_(mesh_),
        reference_(std::make_unique<core::ReferenceKernels>(mesh_)),
        port_(ports::make_port(pair.model, pair.device, mesh_, 5)) {
    core::Settings s = core::Settings::default_problem();
    s.nx = s.ny = kN;
    core::Mesh painted = mesh_;
    painted.x_min = s.x_min;
    painted.x_max = s.x_max;
    painted.y_min = s.y_min;
    painted.y_max = s.y_max;
    chunk_ = core::Chunk(painted);
    core::apply_initial_states(chunk_, s);

    for (core::SolverKernels* k : both()) {
      k->upload_state(chunk_);
      k->halo_update(core::kMaskDensity | core::kMaskEnergy0, 2);
      k->init_u();
      k->init_coefficients(Coefficient::kConductivity, 0.35, 0.35);
      k->halo_update(core::kMaskU, 1);
    }
  }

  std::vector<core::SolverKernels*> both() {
    return {reference_.get(), port_.get()};
  }

  /// Runs `fn` on both implementations and checks the returned scalars.
  template <typename Fn>
  double check(const char* what, Fn&& fn) {
    const double expected = fn(*reference_);
    const double actual = fn(*port_);
    EXPECT_LT(util::rel_diff(actual, expected), kTol)
        << what << ": port=" << actual << " reference=" << expected;
    return expected;
  }

  /// Runs a void operation on both.
  template <typename Fn>
  void apply(Fn&& fn) {
    fn(*reference_);
    fn(*port_);
  }

  /// Compares the full u field.
  void check_u(const char* what) {
    util::Buffer<double> ru(mesh_.padded_cells()), pu(mesh_.padded_cells());
    reference_->read_u(ru.view2d(mesh_.padded_nx(), mesh_.padded_ny()));
    port_->read_u(pu.view2d(mesh_.padded_nx(), mesh_.padded_ny()));
    double max_diff = 0.0;
    for (std::size_t i = 0; i < ru.size(); ++i) {
      max_diff = std::max(max_diff, util::rel_diff(pu[i], ru[i]));
    }
    EXPECT_LT(max_diff, kTol) << what;
  }

 private:
  core::Mesh mesh_;
  core::Chunk chunk_;
  std::unique_ptr<core::ReferenceKernels> reference_;
  std::unique_ptr<core::SolverKernels> port_;
};

}  // namespace

class PortKernels : public testing::TestWithParam<Pair> {};

INSTANTIATE_TEST_SUITE_P(AllSupported, PortKernels,
                         testing::ValuesIn(supported_pairs()), pair_name);

TEST_P(PortKernels, SetupChain) {
  LockstepChecker lk(GetParam());
  lk.check("rhs 2norm", [](core::SolverKernels& k) {
    return k.calc_2norm(NormTarget::kRhs);
  });
  lk.apply([](core::SolverKernels& k) { k.calc_residual(); });
  lk.check("residual 2norm", [](core::SolverKernels& k) {
    return k.calc_2norm(NormTarget::kResidual);
  });
  const auto ref_summary = lk.check("summary volume", [](core::SolverKernels& k) {
    return k.field_summary().volume;
  });
  EXPECT_GT(ref_summary, 0.0);
  lk.check("summary mass", [](core::SolverKernels& k) {
    return k.field_summary().mass;
  });
  lk.check("summary internal energy", [](core::SolverKernels& k) {
    return k.field_summary().internal_energy;
  });
  lk.check("summary temperature", [](core::SolverKernels& k) {
    return k.field_summary().temperature;
  });
  lk.check_u("u after setup");
}

TEST_P(PortKernels, CgChain) {
  LockstepChecker lk(GetParam());
  const double rro = lk.check("cg_init rro", [](core::SolverKernels& k) {
    return k.cg_init();
  });
  ASSERT_GT(rro, 0.0);
  lk.apply([](core::SolverKernels& k) { k.halo_update(core::kMaskP, 1); });

  double rr = rro;
  for (int it = 0; it < 5; ++it) {
    const double pw = lk.check("cg_calc_w pw", [](core::SolverKernels& k) {
      return k.cg_calc_w();
    });
    const double alpha = rr / pw;
    const double rrn = lk.check("cg_calc_ur rrn", [&](core::SolverKernels& k) {
      return k.cg_calc_ur(alpha);
    });
    const double beta = rrn / rr;
    lk.apply([&](core::SolverKernels& k) {
      k.cg_calc_p(beta);
      k.halo_update(core::kMaskP, 1);
    });
    rr = rrn;
  }
  lk.check_u("u after 5 CG iterations");
}

// The Chebyshev, PPCG and Jacobi chains run once through the classic entry
// points and once through the fused ones (the default pipeline), so a port's
// fused step is checked against the reference one call at a time too.

namespace {

void cheby_chain(const Pair& pair, bool fused) {
  LockstepChecker lk(pair);
  lk.apply([](core::SolverKernels& k) {
    k.cg_init();
    k.halo_update(core::kMaskP, 1);
  });
  // A plausible fixed spectrum; kernel equivalence doesn't need a good one.
  const double theta = 4.0, delta = 3.0;
  lk.apply([&](core::SolverKernels& k) {
    k.cheby_init(theta);
    k.halo_update(core::kMaskU, 1);
  });
  double rho = delta / theta;
  for (int it = 0; it < 4; ++it) {
    const double rho_new = 1.0 / (2.0 * theta / delta - rho);
    const double alpha = rho_new * rho;
    const double beta = 2.0 * rho_new / delta;
    lk.apply([&](core::SolverKernels& k) {
      if (fused) {
        k.cheby_fused_iterate(alpha, beta);
      } else {
        k.cheby_iterate(alpha, beta);
      }
      k.halo_update(core::kMaskU, 1);
    });
    rho = rho_new;
    lk.check("cheby residual norm", [](core::SolverKernels& k) {
      k.calc_residual();
      return k.calc_2norm(NormTarget::kResidual);
    });
  }
  lk.check_u("u after 4 Chebyshev iterations");
}

void ppcg_chain(const Pair& pair, bool fused) {
  LockstepChecker lk(pair);
  lk.apply([](core::SolverKernels& k) {
    k.cg_init();
    k.halo_update(core::kMaskP, 1);
    k.cg_calc_w();
  });
  lk.apply([](core::SolverKernels& k) { k.cg_calc_ur(0.7); });
  const double theta = 5.0;
  lk.apply([&](core::SolverKernels& k) {
    k.ppcg_init_sd(theta);
    k.halo_update(core::kMaskSd, 1);
  });
  for (int j = 0; j < 4; ++j) {
    const double alpha = 0.4 + 0.05 * j;
    const double beta = 0.3 / theta;
    lk.apply([&](core::SolverKernels& k) {
      if (fused) {
        k.ppcg_fused_inner(alpha, beta);
      } else {
        k.ppcg_inner(alpha, beta);
      }
      k.halo_update(core::kMaskSd, 1);
    });
    lk.check("ppcg residual norm", [](core::SolverKernels& k) {
      return k.calc_2norm(NormTarget::kResidual);
    });
  }
  lk.check_u("u after 4 PPCG inner steps");
}

void jacobi_chain(const Pair& pair, bool fused) {
  LockstepChecker lk(pair);
  for (int it = 0; it < 4; ++it) {
    lk.apply([&](core::SolverKernels& k) {
      if (fused) {
        k.jacobi_fused_copy_iterate();
      } else {
        k.jacobi_copy_u();
        k.jacobi_iterate();
      }
      k.halo_update(core::kMaskU, 1);
    });
    lk.check("jacobi residual norm", [](core::SolverKernels& k) {
      k.calc_residual();
      return k.calc_2norm(NormTarget::kResidual);
    });
  }
  lk.check_u("u after 4 Jacobi iterations");
}

}  // namespace

TEST_P(PortKernels, ChebyChain) { cheby_chain(GetParam(), false); }
TEST_P(PortKernels, ChebyFusedChain) { cheby_chain(GetParam(), true); }
TEST_P(PortKernels, PpcgChain) { ppcg_chain(GetParam(), false); }
TEST_P(PortKernels, PpcgFusedChain) { ppcg_chain(GetParam(), true); }
TEST_P(PortKernels, JacobiChain) { jacobi_chain(GetParam(), false); }
TEST_P(PortKernels, JacobiFusedChain) { jacobi_chain(GetParam(), true); }

TEST_P(PortKernels, FinaliseWritesEnergyBack) {
  LockstepChecker lk(GetParam());
  lk.apply([](core::SolverKernels& k) { k.finalise(); });
  // energy = u / density; compare through the chunk download.
  const core::Mesh mesh(kN, kN, 2);
  core::Chunk ref_chunk(mesh), port_chunk(mesh);
  auto impls = lk.both();
  impls[0]->download_energy(ref_chunk);
  impls[1]->download_energy(port_chunk);
  const auto re = ref_chunk.field(FieldId::kEnergy);
  const auto pe = port_chunk.field(FieldId::kEnergy);
  for (int y = 2; y < 2 + kN; ++y) {
    for (int x = 2; x < 2 + kN; ++x) {
      ASSERT_LT(util::rel_diff(pe(x, y), re(x, y)), kTol)
          << "energy at (" << x << "," << y << ")";
    }
  }
}
