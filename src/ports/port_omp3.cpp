#include "ports/port_omp3.hpp"

#include <vector>

namespace tl::ports {

using core::FieldId;
using core::KernelId;

Omp3Port::Omp3Port(sim::Model model, sim::DeviceId device,
                   const core::Mesh& mesh, std::uint64_t run_seed,
                   unsigned host_threads)
    : PortBase(model, mesh),
      rt_(model, device, run_seed, host_threads),
      storage_(mesh) {}

void Omp3Port::upload_state(const core::Chunk& chunk) {
  for (const FieldId id : {FieldId::kDensity, FieldId::kEnergy0}) {
    copy_field(chunk.field(id), f(id));
  }
  // Host model: data is already resident; the transfer is free but counted.
  rt_.launcher().charge_transfer(
      {.name = "upload_state", .bytes = 2 * padded_bytes(), .to_device = true});
}

void Omp3Port::init_u() {
  auto density = f(FieldId::kDensity);
  auto energy0 = f(FieldId::kEnergy0);
  auto u = f(FieldId::kU);
  auto u0 = f(FieldId::kU0);
  // #pragma omp parallel for
  rt_.parallel_for(info(KernelId::kInitU), 0, height_, [&](std::int64_t y) {
    for (int x = 0; x < width_; ++x) {
      const double v = energy0(x, y) * density(x, y);
      u(x, y) = v;
      u0(x, y) = v;
    }
  });
}

void Omp3Port::init_coefficients(core::Coefficient coefficient, double rx,
                                 double ry) {
  auto density = f(FieldId::kDensity);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  const bool recip = coefficient == core::Coefficient::kRecipConductivity;
  rt_.parallel_for(
      info(KernelId::kInitCoef), h_ - 1, h_ + ny_ + 1, [&](std::int64_t y) {
        for (int x = h_ - 1; x < h_ + nx_ + 1; ++x) {
          const double wc = recip ? 1.0 / density(x, y) : density(x, y);
          const double wl = recip ? 1.0 / density(x - 1, y) : density(x - 1, y);
          const double wb = recip ? 1.0 / density(x, y - 1) : density(x, y - 1);
          kx(x, y) = rx * (wl + wc) / (2.0 * wl * wc);
          ky(x, y) = ry * (wb + wc) / (2.0 * wb * wc);
        }
      });
}

void Omp3Port::calc_residual() {
  auto u = f(FieldId::kU);
  auto u0 = f(FieldId::kU0);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  auto r = f(FieldId::kR);
  rt_.parallel_for(
      info(KernelId::kCalcResidual), h_, h_ + ny_, [&](std::int64_t y) {
        for (int x = h_; x < h_ + nx_; ++x) {
          const double diag =
              1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
          const double au = diag * u(x, y) - kx(x + 1, y) * u(x + 1, y) -
                            kx(x, y) * u(x - 1, y) - ky(x, y + 1) * u(x, y + 1) -
                            ky(x, y) * u(x, y - 1);
          r(x, y) = u0(x, y) - au;
        }
      });
}

double Omp3Port::calc_2norm(core::NormTarget target) {
  auto v = f(target == core::NormTarget::kResidual ? FieldId::kR : FieldId::kU0);
  // #pragma omp parallel for reduction(+: norm)
  return rt_.parallel_reduce(
      info(KernelId::kCalc2Norm), h_, h_ + ny_, [&](std::int64_t y, double& acc) {
        for (int x = h_; x < h_ + nx_; ++x) acc += v(x, y) * v(x, y);
      });
}

void Omp3Port::finalise() {
  auto u = f(FieldId::kU);
  auto density = f(FieldId::kDensity);
  auto energy = f(FieldId::kEnergy);
  rt_.parallel_for(info(KernelId::kFinalise), h_, h_ + ny_, [&](std::int64_t y) {
    for (int x = h_; x < h_ + nx_; ++x) energy(x, y) = u(x, y) / density(x, y);
  });
}

core::FieldSummary Omp3Port::field_summary() {
  auto density = f(FieldId::kDensity);
  auto energy0 = f(FieldId::kEnergy0);
  auto u = f(FieldId::kU);
  const double vol = mesh_.cell_area();
  // Four reductions fused in one pass, as the F90 kernel does. The model's
  // reduce clause handles one scalar; pack the others alongside the same
  // sweep (the launch is metered once, per the catalogue).
  core::FieldSummary s;
  // Each worker owns its rows, so the per-row slots are disjoint; combining
  // them in row order afterwards is deterministic across thread counts
  // (a shared `mass += ...` here would be the classic missing-reduction
  // data race — ThreadSanitizer in CI holds this door shut).
  std::vector<double> row_mass(static_cast<std::size_t>(ny_), 0.0);
  std::vector<double> row_ie(static_cast<std::size_t>(ny_), 0.0);
  std::vector<double> row_temp(static_cast<std::size_t>(ny_), 0.0);
  s.volume = rt_.parallel_reduce(
      info(KernelId::kFieldSummary), h_, h_ + ny_,
      [&](std::int64_t y, double& acc) {
        double m = 0.0, e = 0.0, t = 0.0;
        for (int x = h_; x < h_ + nx_; ++x) {
          acc += vol;
          m += density(x, y) * vol;
          e += density(x, y) * energy0(x, y) * vol;
          t += u(x, y) * vol;
        }
        const auto row = static_cast<std::size_t>(y - h_);
        row_mass[row] = m;
        row_ie[row] = e;
        row_temp[row] = t;
      });
  for (std::size_t row = 0; row < static_cast<std::size_t>(ny_); ++row) {
    s.mass += row_mass[row];
    s.internal_energy += row_ie[row];
    s.temperature += row_temp[row];
  }
  return s;
}

double Omp3Port::cg_init() {
  auto u = f(FieldId::kU);
  auto u0 = f(FieldId::kU0);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  auto w = f(FieldId::kW);
  auto r = f(FieldId::kR);
  auto p = f(FieldId::kP);
  return rt_.parallel_reduce(
      info(KernelId::kCgInit), h_, h_ + ny_, [&](std::int64_t y, double& acc) {
        for (int x = h_; x < h_ + nx_; ++x) {
          const double diag =
              1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
          const double au = diag * u(x, y) - kx(x + 1, y) * u(x + 1, y) -
                            kx(x, y) * u(x - 1, y) - ky(x, y + 1) * u(x, y + 1) -
                            ky(x, y) * u(x, y - 1);
          w(x, y) = au;
          const double res = u0(x, y) - au;
          r(x, y) = res;
          p(x, y) = res;
          acc += res * res;
        }
      });
}

double Omp3Port::cg_calc_w() {
  auto p = f(FieldId::kP);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  auto w = f(FieldId::kW);
  return rt_.parallel_reduce(
      info(KernelId::kCgCalcW), h_, h_ + ny_, [&](std::int64_t y, double& acc) {
        for (int x = h_; x < h_ + nx_; ++x) {
          const double diag =
              1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
          const double ap = diag * p(x, y) - kx(x + 1, y) * p(x + 1, y) -
                            kx(x, y) * p(x - 1, y) - ky(x, y + 1) * p(x, y + 1) -
                            ky(x, y) * p(x, y - 1);
          w(x, y) = ap;
          acc += ap * p(x, y);
        }
      });
}

double Omp3Port::cg_calc_ur(double alpha) {
  auto u = f(FieldId::kU);
  auto p = f(FieldId::kP);
  auto r = f(FieldId::kR);
  auto w = f(FieldId::kW);
  return rt_.parallel_reduce(
      info(KernelId::kCgCalcUr), h_, h_ + ny_, [&](std::int64_t y, double& acc) {
        for (int x = h_; x < h_ + nx_; ++x) {
          u(x, y) += alpha * p(x, y);
          const double res = r(x, y) - alpha * w(x, y);
          r(x, y) = res;
          acc += res * res;
        }
      });
}

void Omp3Port::cg_calc_p(double beta) {
  auto r = f(FieldId::kR);
  auto p = f(FieldId::kP);
  rt_.parallel_for(info(KernelId::kCgCalcP), h_, h_ + ny_, [&](std::int64_t y) {
    for (int x = h_; x < h_ + nx_; ++x) p(x, y) = r(x, y) + beta * p(x, y);
  });
}

void Omp3Port::cheby_init(double theta) {
  auto r = f(FieldId::kR);
  auto p = f(FieldId::kP);
  auto u = f(FieldId::kU);
  const double theta_inv = 1.0 / theta;
  rt_.parallel_for(info(KernelId::kChebyInit), h_, h_ + ny_, [&](std::int64_t y) {
    for (int x = h_; x < h_ + nx_; ++x) {
      p(x, y) = r(x, y) * theta_inv;
      u(x, y) += p(x, y);
    }
  });
}

void Omp3Port::cheby_calc_p_as(KernelId charge, double alpha, double beta) {
  auto u = f(FieldId::kU);
  auto u0 = f(FieldId::kU0);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  auto r = f(FieldId::kR);
  auto p = f(FieldId::kP);
  rt_.parallel_for(
      info(charge), h_, h_ + ny_, [&](std::int64_t y) {
        for (int x = h_; x < h_ + nx_; ++x) {
          const double diag =
              1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
          const double au = diag * u(x, y) - kx(x + 1, y) * u(x + 1, y) -
                            kx(x, y) * u(x - 1, y) - ky(x, y + 1) * u(x, y + 1) -
                            ky(x, y) * u(x, y - 1);
          const double res = u0(x, y) - au;
          r(x, y) = res;
          p(x, y) = alpha * p(x, y) + beta * res;
        }
      });
}

void Omp3Port::ppcg_init_sd(double theta) {
  auto r = f(FieldId::kR);
  auto sd = f(FieldId::kSd);
  const double theta_inv = 1.0 / theta;
  rt_.parallel_for(info(KernelId::kPpcgInitSd), h_, h_ + ny_, [&](std::int64_t y) {
    for (int x = h_; x < h_ + nx_; ++x) sd(x, y) = r(x, y) * theta_inv;
  });
}

void Omp3Port::ppcg_inner_ru_as(KernelId charge) {
  auto u = f(FieldId::kU);
  auto r = f(FieldId::kR);
  auto sd = f(FieldId::kSd);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  rt_.parallel_for(info(charge), h_, h_ + ny_, [&](std::int64_t y) {
    for (int x = h_; x < h_ + nx_; ++x) {
      const double diag =
          1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
      const double asd = diag * sd(x, y) - kx(x + 1, y) * sd(x + 1, y) -
                         kx(x, y) * sd(x - 1, y) - ky(x, y + 1) * sd(x, y + 1) -
                         ky(x, y) * sd(x, y - 1);
      r(x, y) -= asd;
      u(x, y) += sd(x, y);
    }
  });
}

void Omp3Port::jacobi_copy_u_as(KernelId charge) {
  auto u = f(FieldId::kU);
  auto w = f(FieldId::kW);
  // Full padded extent: the iterate's stencil reads w in the halo.
  rt_.parallel_for(info(charge), 0, height_,
                   [&](std::int64_t y) {
                     for (int x = 0; x < width_; ++x) w(x, y) = u(x, y);
                   });
}

void Omp3Port::jacobi_iterate() {
  auto u = f(FieldId::kU);
  auto u0 = f(FieldId::kU0);
  auto w = f(FieldId::kW);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  rt_.parallel_for(
      info(KernelId::kJacobiIterate), h_, h_ + ny_, [&](std::int64_t y) {
        for (int x = h_; x < h_ + nx_; ++x) {
          const double diag =
              1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
          u(x, y) = (u0(x, y) + kx(x + 1, y) * w(x + 1, y) +
                     kx(x, y) * w(x - 1, y) + ky(x, y + 1) * w(x, y + 1) +
                     ky(x, y) * w(x, y - 1)) /
                    diag;
        }
      });
}

core::CgFusedW Omp3Port::cg_calc_w_fused() {
  auto p = f(FieldId::kP);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  auto w = f(FieldId::kW);
  core::CgFusedW out;
  // Both dot products share the sweep: the reduce clause carries p.w; w.w
  // rides in per-row slots combined in row order, exactly the field_summary
  // idiom (disjoint rows, no shared-accumulator race).
  std::vector<double> row_ww(static_cast<std::size_t>(ny_), 0.0);
  out.pw = rt_.parallel_reduce(
      info(KernelId::kCgCalcWFused), h_, h_ + ny_,
      [&](std::int64_t y, double& acc) {
        double sww = 0.0;
        for (int x = h_; x < h_ + nx_; ++x) {
          const double diag =
              1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
          const double ap = diag * p(x, y) - kx(x + 1, y) * p(x + 1, y) -
                            kx(x, y) * p(x - 1, y) - ky(x, y + 1) * p(x, y + 1) -
                            ky(x, y) * p(x, y - 1);
          w(x, y) = ap;
          acc += ap * p(x, y);
          sww += ap * ap;
        }
        row_ww[static_cast<std::size_t>(y - h_)] = sww;
      });
  for (std::size_t row = 0; row < static_cast<std::size_t>(ny_); ++row) {
    out.ww += row_ww[row];
  }
  return out;
}

double Omp3Port::cg_fused_ur_p(double alpha, double beta_prev) {
  auto u = f(FieldId::kU);
  auto p = f(FieldId::kP);
  auto r = f(FieldId::kR);
  auto w = f(FieldId::kW);
  return rt_.parallel_reduce(
      info(KernelId::kCgFusedUrP), h_, h_ + ny_,
      [&](std::int64_t y, double& acc) {
        for (int x = h_; x < h_ + nx_; ++x) {
          u(x, y) += alpha * p(x, y);
          const double res = r(x, y) - alpha * w(x, y);
          r(x, y) = res;
          p(x, y) = res + beta_prev * p(x, y);
          acc += res * res;
        }
      });
}

double Omp3Port::fused_residual_norm() {
  auto u = f(FieldId::kU);
  auto u0 = f(FieldId::kU0);
  auto kx = f(FieldId::kKx);
  auto ky = f(FieldId::kKy);
  auto r = f(FieldId::kR);
  return rt_.parallel_reduce(
      info(KernelId::kFusedResidualNorm), h_, h_ + ny_,
      [&](std::int64_t y, double& acc) {
        for (int x = h_; x < h_ + nx_; ++x) {
          const double diag =
              1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
          const double au = diag * u(x, y) - kx(x + 1, y) * u(x + 1, y) -
                            kx(x, y) * u(x - 1, y) - ky(x, y + 1) * u(x, y + 1) -
                            ky(x, y) * u(x, y - 1);
          const double res = u0(x, y) - au;
          r(x, y) = res;
          acc += res * res;
        }
      });
}

void Omp3Port::read_u(util::Span2D<double> out) {
  copy_field(f(FieldId::kU), out);
  rt_.launcher().charge_transfer(
      {.name = "read_u", .bytes = padded_bytes(), .to_device = false});
}

void Omp3Port::download_energy(core::Chunk& chunk) {
  copy_field(f(FieldId::kEnergy), chunk.field(FieldId::kEnergy));
  rt_.launcher().charge_transfer(
      {.name = "download_energy", .bytes = padded_bytes(), .to_device = false});
}

}  // namespace tl::ports
