#include "ports/port_kokkos.hpp"

#include <string>

namespace tl::ports {

using core::FieldId;
using core::KernelId;
using kokkoslike::TeamMember;
using kokkoslike::View;

namespace {

/// Geometry every functor carries to reform the flat index into (x, y) and
/// test for halo cells (the paper's loop-body exclusion).
struct Geom {
  int width, h, nx, ny;

  bool interior(std::int64_t i, int& x, int& y) const {
    x = static_cast<int>(i % width);
    y = static_cast<int>(i / width);
    return x >= h && x < h + nx && y >= h && y < h + ny;
  }
};

/// 5-point stencil on a View (pre-scaled face coefficients).
inline double stencil(const View& v, const View& kx, const View& ky, int x,
                      int y) {
  const double diag = 1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
  return diag * v(x, y) - kx(x + 1, y) * v(x + 1, y) - kx(x, y) * v(x - 1, y) -
         ky(x, y + 1) * v(x, y + 1) - ky(x, y) * v(x, y - 1);
}

/// The one multi-variable reduction (paper: custom init/join on the functor).
struct SummaryValue {
  double vol = 0.0, mass = 0.0, ie = 0.0, temp = 0.0;
};

struct FieldSummaryFunctor {
  View density, energy0, u;
  Geom g;
  double cell_vol;

  void init(SummaryValue& v) const { v = SummaryValue{}; }
  void join(SummaryValue& dst, const SummaryValue& src) const {
    dst.vol += src.vol;
    dst.mass += src.mass;
    dst.ie += src.ie;
    dst.temp += src.temp;
  }
  void operator()(std::int64_t i, SummaryValue& v) const {
    int x, y;
    if (!g.interior(i, x, y)) return;
    v.vol += cell_vol;
    v.mass += density(x, y) * cell_vol;
    v.ie += density(x, y) * energy0(x, y) * cell_vol;
    v.temp += u(x, y) * cell_vol;
  }
};

/// Double dot product for the fused CG w sweep (custom init/join, like the
/// field summary).
struct DotsValue {
  double pw = 0.0, ww = 0.0;
};

struct CgWFusedFunctor {
  View p, kx, ky, w;
  Geom g;

  void init(DotsValue& v) const { v = DotsValue{}; }
  void join(DotsValue& dst, const DotsValue& src) const {
    dst.pw += src.pw;
    dst.ww += src.ww;
  }
  void operator()(std::int64_t i, DotsValue& v) const {
    int x, y;
    if (!g.interior(i, x, y)) return;
    const double ap = stencil(p, kx, ky, x, y);
    w(x, y) = ap;
    v.pw += ap * p(x, y);
    v.ww += ap * ap;
  }
};

}  // namespace

KokkosPort::KokkosPort(sim::Model model, sim::DeviceId device,
                       const core::Mesh& mesh, std::uint64_t run_seed)
    : PortBase(model, mesh), ctx_(model, device, run_seed) {
  for (const FieldId id : core::kAllFields) {
    views_[static_cast<std::size_t>(id)] =
        View(std::string(core::field_name(id)), width_, height_);
  }
}

void KokkosPort::upload_state(const core::Chunk& chunk) {
  for (const FieldId id : {FieldId::kDensity, FieldId::kEnergy0}) {
    const View dst = view(id);
    copy_field(chunk.field(id), dst.span());
    ctx_.deep_copy_to_device(dst);
  }
}

void KokkosPort::init_u() {
  View density = view(FieldId::kDensity), energy0 = view(FieldId::kEnergy0);
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  // Whole padded range on purpose (halo gets coherent values immediately).
  ctx_.parallel_for(info(KernelId::kInitU), flat_policy(), [=](std::int64_t i) {
    const double v = energy0[static_cast<std::size_t>(i)] *
                     density[static_cast<std::size_t>(i)];
    u[static_cast<std::size_t>(i)] = v;
    u0[static_cast<std::size_t>(i)] = v;
  });
}

void KokkosPort::init_coefficients(core::Coefficient coefficient, double rx,
                                   double ry) {
  View density = view(FieldId::kDensity);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  const bool recip = coefficient == core::Coefficient::kRecipConductivity;
  const Geom g{width_, h_ - 1, nx_ + 2, ny_ + 2};  // one ring beyond interior
  ctx_.parallel_for(
      info(KernelId::kInitCoef), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        const double wc = recip ? 1.0 / density(x, y) : density(x, y);
        const double wl = recip ? 1.0 / density(x - 1, y) : density(x - 1, y);
        const double wb = recip ? 1.0 / density(x, y - 1) : density(x, y - 1);
        kx(x, y) = rx * (wl + wc) / (2.0 * wl * wc);
        ky(x, y) = ry * (wb + wc) / (2.0 * wb * wc);
      });
}

void KokkosPort::calc_residual() {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy), r = view(FieldId::kR);
  const Geom g{width_, h_, nx_, ny_};
  ctx_.parallel_for(
      info(KernelId::kCalcResidual), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        r(x, y) = u0(x, y) - stencil(u, kx, ky, x, y);
      });
}

double KokkosPort::calc_2norm(core::NormTarget target) {
  View v = view(target == core::NormTarget::kResidual ? FieldId::kR
                                                      : FieldId::kU0);
  const Geom g{width_, h_, nx_, ny_};
  double norm = 0.0;
  ctx_.parallel_reduce(info(KernelId::kCalc2Norm), flat_policy(),
                       [=](std::int64_t i, double& acc) {
                         int x, y;
                         if (!g.interior(i, x, y)) return;
                         acc += v(x, y) * v(x, y);
                       },
                       norm);
  return norm;
}

void KokkosPort::finalise() {
  View u = view(FieldId::kU), density = view(FieldId::kDensity);
  View energy = view(FieldId::kEnergy);
  const Geom g{width_, h_, nx_, ny_};
  ctx_.parallel_for(
      info(KernelId::kFinalise), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        energy(x, y) = u(x, y) / density(x, y);
      });
}

core::FieldSummary KokkosPort::field_summary() {
  FieldSummaryFunctor functor{view(FieldId::kDensity), view(FieldId::kEnergy0),
                              view(FieldId::kU),
                              Geom{width_, h_, nx_, ny_},
                              mesh_.cell_area()};
  SummaryValue value;
  ctx_.parallel_reduce(info(KernelId::kFieldSummary), flat_policy(), functor,
                       value);
  return core::FieldSummary{value.vol, value.mass, value.ie, value.temp};
}

double KokkosPort::cg_init() {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  View w = view(FieldId::kW), r = view(FieldId::kR), p = view(FieldId::kP);
  const Geom g{width_, h_, nx_, ny_};
  double rro = 0.0;
  ctx_.parallel_reduce(info(KernelId::kCgInit), flat_policy(),
                       [=](std::int64_t i, double& acc) {
                         int x, y;
                         if (!g.interior(i, x, y)) return;
                         const double au = stencil(u, kx, ky, x, y);
                         w(x, y) = au;
                         const double res = u0(x, y) - au;
                         r(x, y) = res;
                         p(x, y) = res;
                         acc += res * res;
                       },
                       rro);
  return rro;
}

double KokkosPort::cg_calc_w() {
  View p = view(FieldId::kP), kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  View w = view(FieldId::kW);
  const Geom g{width_, h_, nx_, ny_};
  double pw = 0.0;
  ctx_.parallel_reduce(info(KernelId::kCgCalcW), flat_policy(),
                       [=](std::int64_t i, double& acc) {
                         int x, y;
                         if (!g.interior(i, x, y)) return;
                         const double ap = stencil(p, kx, ky, x, y);
                         w(x, y) = ap;
                         acc += ap * p(x, y);
                       },
                       pw);
  return pw;
}

double KokkosPort::cg_calc_ur(double alpha) {
  View u = view(FieldId::kU), p = view(FieldId::kP);
  View r = view(FieldId::kR), w = view(FieldId::kW);
  const Geom g{width_, h_, nx_, ny_};
  double rrn = 0.0;
  ctx_.parallel_reduce(info(KernelId::kCgCalcUr), flat_policy(),
                       [=](std::int64_t i, double& acc) {
                         int x, y;
                         if (!g.interior(i, x, y)) return;
                         u(x, y) += alpha * p(x, y);
                         const double res = r(x, y) - alpha * w(x, y);
                         r(x, y) = res;
                         acc += res * res;
                       },
                       rrn);
  return rrn;
}

void KokkosPort::cg_calc_p(double beta) {
  View r = view(FieldId::kR), p = view(FieldId::kP);
  const Geom g{width_, h_, nx_, ny_};
  ctx_.parallel_for(
      info(KernelId::kCgCalcP), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        p(x, y) = r(x, y) + beta * p(x, y);
      });
}

void KokkosPort::cheby_init(double theta) {
  View r = view(FieldId::kR), p = view(FieldId::kP), u = view(FieldId::kU);
  const Geom g{width_, h_, nx_, ny_};
  const double theta_inv = 1.0 / theta;
  ctx_.parallel_for(
      info(KernelId::kChebyInit), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        p(x, y) = r(x, y) * theta_inv;
        u(x, y) += p(x, y);
      });
}

void KokkosPort::cheby_calc_p_as(KernelId charge, double alpha, double beta) {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  View r = view(FieldId::kR), p = view(FieldId::kP);
  const Geom g{width_, h_, nx_, ny_};
  ctx_.parallel_for(
      info(charge), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        const double res = u0(x, y) - stencil(u, kx, ky, x, y);
        r(x, y) = res;
        p(x, y) = alpha * p(x, y) + beta * res;
      });
}

void KokkosPort::ppcg_init_sd(double theta) {
  View r = view(FieldId::kR), sd = view(FieldId::kSd);
  const Geom g{width_, h_, nx_, ny_};
  const double theta_inv = 1.0 / theta;
  ctx_.parallel_for(
      info(KernelId::kPpcgInitSd), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        sd(x, y) = r(x, y) * theta_inv;
      });
}

void KokkosPort::ppcg_inner_ru_as(KernelId charge) {
  View u = view(FieldId::kU), r = view(FieldId::kR), sd = view(FieldId::kSd);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  const Geom g{width_, h_, nx_, ny_};
  ctx_.parallel_for(
      info(charge), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        r(x, y) -= stencil(sd, kx, ky, x, y);
        u(x, y) += sd(x, y);
      });
}

void KokkosPort::jacobi_copy_u_as(KernelId charge) {
  View u = view(FieldId::kU), w = view(FieldId::kW);
  // Full padded range: the iterate's stencil reads w in the halo.
  ctx_.parallel_for(
      info(charge), flat_policy(), [=](std::int64_t i) {
        w[static_cast<std::size_t>(i)] = u[static_cast<std::size_t>(i)];
      });
}

void KokkosPort::jacobi_iterate() {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0), w = view(FieldId::kW);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  const Geom g{width_, h_, nx_, ny_};
  ctx_.parallel_for(
      info(KernelId::kJacobiIterate), flat_policy(), [=](std::int64_t i) {
        int x, y;
        if (!g.interior(i, x, y)) return;
        const double diag =
            1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
        u(x, y) = (u0(x, y) + kx(x + 1, y) * w(x + 1, y) +
                   kx(x, y) * w(x - 1, y) + ky(x, y + 1) * w(x, y + 1) +
                   ky(x, y) * w(x, y - 1)) /
                  diag;
      });
}

core::CgFusedW KokkosPort::cg_calc_w_fused() {
  CgWFusedFunctor functor{view(FieldId::kP), view(FieldId::kKx),
                          view(FieldId::kKy), view(FieldId::kW),
                          Geom{width_, h_, nx_, ny_}};
  DotsValue value;
  ctx_.parallel_reduce(info(KernelId::kCgCalcWFused), flat_policy(), functor,
                       value);
  return core::CgFusedW{value.pw, value.ww};
}

double KokkosPort::cg_fused_ur_p(double alpha, double beta_prev) {
  View u = view(FieldId::kU), p = view(FieldId::kP);
  View r = view(FieldId::kR), w = view(FieldId::kW);
  const Geom g{width_, h_, nx_, ny_};
  double rrn = 0.0;
  ctx_.parallel_reduce(info(KernelId::kCgFusedUrP), flat_policy(),
                       [=](std::int64_t i, double& acc) {
                         int x, y;
                         if (!g.interior(i, x, y)) return;
                         u(x, y) += alpha * p(x, y);
                         const double res = r(x, y) - alpha * w(x, y);
                         r(x, y) = res;
                         p(x, y) = res + beta_prev * p(x, y);
                         acc += res * res;
                       },
                       rrn);
  return rrn;
}

double KokkosPort::fused_residual_norm() {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy), r = view(FieldId::kR);
  const Geom g{width_, h_, nx_, ny_};
  double norm = 0.0;
  ctx_.parallel_reduce(info(KernelId::kFusedResidualNorm), flat_policy(),
                       [=](std::int64_t i, double& acc) {
                         int x, y;
                         if (!g.interior(i, x, y)) return;
                         const double res = u0(x, y) - stencil(u, kx, ky, x, y);
                         r(x, y) = res;
                         acc += res * res;
                       },
                       norm);
  return norm;
}

void KokkosPort::read_u(util::Span2D<double> out) {
  const View u = view(FieldId::kU);
  ctx_.deep_copy_to_host(u);
  copy_field(u.span(), out);
}

void KokkosPort::download_energy(core::Chunk& chunk) {
  const View energy = view(FieldId::kEnergy);
  ctx_.deep_copy_to_host(energy);
  copy_field(energy.span(), chunk.field(FieldId::kEnergy));
}

// ---------------------------------------------------------------------------
// Hierarchical parallelism variant (paper Fig 7)
// ---------------------------------------------------------------------------

KokkosHpPort::KokkosHpPort(sim::DeviceId device, const core::Mesh& mesh,
                           std::uint64_t run_seed)
    : KokkosPort(sim::Model::kKokkosHp, device, mesh, run_seed) {}

void KokkosHpPort::calc_residual() {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy), r = view(FieldId::kR);
  const int h = h_, nx = nx_;
  ctx_.parallel_for_team(
      info(KernelId::kCalcResidual), row_policy(), [=](const TeamMember& t) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          r(x, y) = u0(x, y) - stencil(u, kx, ky, x, y);
        });
      });
}

double KokkosHpPort::calc_2norm(core::NormTarget target) {
  View v = view(target == core::NormTarget::kResidual ? FieldId::kR
                                                      : FieldId::kU0);
  const int h = h_, nx = nx_;
  double norm = 0.0;
  ctx_.parallel_reduce_team(
      info(KernelId::kCalc2Norm), row_policy(),
      [=](const TeamMember& t, double& acc) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(
            t, nx, [&](int i) { acc += v(h + i, y) * v(h + i, y); });
      },
      norm);
  return norm;
}

double KokkosHpPort::cg_init() {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  View w = view(FieldId::kW), r = view(FieldId::kR), p = view(FieldId::kP);
  const int h = h_, nx = nx_;
  double rro = 0.0;
  ctx_.parallel_reduce_team(
      info(KernelId::kCgInit), row_policy(),
      [=](const TeamMember& t, double& acc) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          const double au = stencil(u, kx, ky, x, y);
          w(x, y) = au;
          const double res = u0(x, y) - au;
          r(x, y) = res;
          p(x, y) = res;
          acc += res * res;
        });
      },
      rro);
  return rro;
}

double KokkosHpPort::cg_calc_w() {
  View p = view(FieldId::kP), kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  View w = view(FieldId::kW);
  const int h = h_, nx = nx_;
  double pw = 0.0;
  ctx_.parallel_reduce_team(
      info(KernelId::kCgCalcW), row_policy(),
      [=](const TeamMember& t, double& acc) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          const double ap = stencil(p, kx, ky, x, y);
          w(x, y) = ap;
          acc += ap * p(x, y);
        });
      },
      pw);
  return pw;
}

double KokkosHpPort::cg_calc_ur(double alpha) {
  View u = view(FieldId::kU), p = view(FieldId::kP);
  View r = view(FieldId::kR), w = view(FieldId::kW);
  const int h = h_, nx = nx_;
  double rrn = 0.0;
  ctx_.parallel_reduce_team(
      info(KernelId::kCgCalcUr), row_policy(),
      [=](const TeamMember& t, double& acc) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          u(x, y) += alpha * p(x, y);
          const double res = r(x, y) - alpha * w(x, y);
          r(x, y) = res;
          acc += res * res;
        });
      },
      rrn);
  return rrn;
}

void KokkosHpPort::cg_calc_p(double beta) {
  View r = view(FieldId::kR), p = view(FieldId::kP);
  const int h = h_, nx = nx_;
  ctx_.parallel_for_team(
      info(KernelId::kCgCalcP), row_policy(), [=](const TeamMember& t) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          p(x, y) = r(x, y) + beta * p(x, y);
        });
      });
}

void KokkosHpPort::cheby_init(double theta) {
  View r = view(FieldId::kR), p = view(FieldId::kP), u = view(FieldId::kU);
  const int h = h_, nx = nx_;
  const double theta_inv = 1.0 / theta;
  ctx_.parallel_for_team(
      info(KernelId::kChebyInit), row_policy(), [=](const TeamMember& t) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          p(x, y) = r(x, y) * theta_inv;
          u(x, y) += p(x, y);
        });
      });
}

void KokkosHpPort::cheby_calc_p_as(KernelId charge, double alpha,
                                   double beta) {
  View u = view(FieldId::kU), u0 = view(FieldId::kU0);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  View r = view(FieldId::kR), p = view(FieldId::kP);
  const int h = h_, nx = nx_;
  ctx_.parallel_for_team(
      info(charge), row_policy(), [=](const TeamMember& t) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          const double res = u0(x, y) - stencil(u, kx, ky, x, y);
          r(x, y) = res;
          p(x, y) = alpha * p(x, y) + beta * res;
        });
      });
}

void KokkosHpPort::ppcg_init_sd(double theta) {
  View r = view(FieldId::kR), sd = view(FieldId::kSd);
  const int h = h_, nx = nx_;
  const double theta_inv = 1.0 / theta;
  ctx_.parallel_for_team(
      info(KernelId::kPpcgInitSd), row_policy(), [=](const TeamMember& t) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(
            t, nx, [&](int i) { sd(h + i, y) = r(h + i, y) * theta_inv; });
      });
}

void KokkosHpPort::ppcg_inner_ru_as(KernelId charge) {
  View u = view(FieldId::kU), r = view(FieldId::kR), sd = view(FieldId::kSd);
  View kx = view(FieldId::kKx), ky = view(FieldId::kKy);
  const int h = h_, nx = nx_;
  ctx_.parallel_for_team(
      info(charge), row_policy(), [=](const TeamMember& t) {
        const int y = h + t.league_rank();
        kokkoslike::team_thread_range(t, nx, [&](int i) {
          const int x = h + i;
          r(x, y) -= stencil(sd, kx, ky, x, y);
          u(x, y) += sd(x, y);
        });
      });
}

}  // namespace tl::ports
