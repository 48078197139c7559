#include "ports/port_offload.hpp"

namespace tl::ports {

using core::FieldId;
using core::KernelId;

namespace {
inline double stencil(const double* v, const double* kx, const double* ky,
                      std::int64_t i, int width) {
  const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
  return diag * v[i] - kx[i + 1] * v[i + 1] - kx[i] * v[i - 1] -
         ky[i + width] * v[i + width] - ky[i] * v[i - width];
}
}  // namespace

OffloadPort::OffloadPort(sim::Model model, sim::DeviceId device,
                         const core::Mesh& mesh, std::uint64_t run_seed)
    : PortBase(model, mesh), rt_(model, device, run_seed), storage_(mesh) {}

template <typename Body>
void OffloadPort::pfor(const sim::LaunchInfo& info, Body&& body) {
  const std::int64_t n = static_cast<std::int64_t>(mesh_.interior_cells());
  if (model_ == sim::Model::kOmp4) {
    omp4::target_parallel_for(rt_, info, 0, n, std::forward<Body>(body));
  } else {
    acc::kernels_loop(rt_, info, 0, n, std::forward<Body>(body));
  }
}

template <typename Body>
double OffloadPort::preduce(const sim::LaunchInfo& info, Body&& body) {
  const std::int64_t n = static_cast<std::int64_t>(mesh_.interior_cells());
  if (model_ == sim::Model::kOmp4) {
    return omp4::target_parallel_reduce(rt_, info, 0, n,
                                        std::forward<Body>(body));
  }
  return acc::kernels_loop_reduce(rt_, info, 0, n, std::forward<Body>(body));
}

void OffloadPort::upload_state(const core::Chunk& chunk) {
  for (const FieldId id : {FieldId::kDensity, FieldId::kEnergy0}) {
    copy_field(chunk.field(id), f(id));
  }
  // Open the step's data region: inputs map `to`, work arrays `alloc`;
  // energy comes back with an explicit `update from` in download_energy.
  step_scope_.reset();
  step_scope_.emplace(
      rt_, std::vector<offload::MapSpec>{
               offload::map(fspan(FieldId::kDensity), offload::MapDir::kTo),
               offload::map(fspan(FieldId::kEnergy0), offload::MapDir::kTo),
               offload::map(fspan(FieldId::kEnergy), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kU), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kU0), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kP), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kR), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kW), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kSd), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kKx), offload::MapDir::kAlloc),
               offload::map(fspan(FieldId::kKy), offload::MapDir::kAlloc)});
}

void OffloadPort::init_u() {
  const double* density = fp(FieldId::kDensity);
  const double* energy0 = fp(FieldId::kEnergy0);
  double* u = fp(FieldId::kU);
  double* u0 = fp(FieldId::kU0);
  // Full padded range: the directives collapse the plain rectangular loops.
  const std::int64_t total = static_cast<std::int64_t>(mesh_.padded_cells());
  rt_.target_region(info(KernelId::kInitU), [&] {
    for (std::int64_t i = 0; i < total; ++i) {
      const double v = energy0[i] * density[i];
      u[i] = v;
      u0[i] = v;
    }
  });
}

void OffloadPort::init_coefficients(core::Coefficient coefficient, double rx,
                                    double ry) {
  const double* density = fp(FieldId::kDensity);
  double* kx = fp(FieldId::kKx);
  double* ky = fp(FieldId::kKy);
  const bool recip = coefficient == core::Coefficient::kRecipConductivity;
  const int width = width_;
  const int h = h_, nx = nx_, ny = ny_;
  rt_.target_region(info(KernelId::kInitCoef), [&] {
    for (int y = h - 1; y < h + ny + 1; ++y) {
      for (int x = h - 1; x < h + nx + 1; ++x) {
        const std::int64_t i = static_cast<std::int64_t>(y) * width + x;
        const double wc = recip ? 1.0 / density[i] : density[i];
        const double wl = recip ? 1.0 / density[i - 1] : density[i - 1];
        const double wb = recip ? 1.0 / density[i - width] : density[i - width];
        kx[i] = rx * (wl + wc) / (2.0 * wl * wc);
        ky[i] = ry * (wb + wc) / (2.0 * wb * wc);
      }
    }
  });
}

void OffloadPort::calc_residual() {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* r = fp(FieldId::kR);
  const int width = width_;
  pfor(info(KernelId::kCalcResidual), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    r[i] = u0[i] - stencil(u, kx, ky, i, width);
  });
}

double OffloadPort::calc_2norm(core::NormTarget target) {
  const double* v = fp(target == core::NormTarget::kResidual ? FieldId::kR
                                                             : FieldId::kU0);
  return preduce(info(KernelId::kCalc2Norm),
                 [=, this](std::int64_t idx, double& acc) {
                   const std::int64_t i = pad_index(idx);
                   acc += v[i] * v[i];
                 });
}

void OffloadPort::finalise() {
  const double* u = fp(FieldId::kU);
  const double* density = fp(FieldId::kDensity);
  double* energy = fp(FieldId::kEnergy);
  pfor(info(KernelId::kFinalise), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    energy[i] = u[i] / density[i];
  });
}

core::FieldSummary OffloadPort::field_summary() {
  const double* density = fp(FieldId::kDensity);
  const double* energy0 = fp(FieldId::kEnergy0);
  const double* u = fp(FieldId::kU);
  const double cell_vol = mesh_.cell_area();
  core::FieldSummary s;
  double mass = 0.0, ie = 0.0, temp = 0.0;
  // One region, reduction clause on volume; the remaining sums ride along
  // (map(tofrom: scalars) in the real directive).
  s.volume = preduce(info(KernelId::kFieldSummary),
                     [&, density, energy0, u](std::int64_t idx, double& acc) {
                       const std::int64_t i = pad_index(idx);
                       acc += cell_vol;
                       mass += density[i] * cell_vol;
                       ie += density[i] * energy0[i] * cell_vol;
                       temp += u[i] * cell_vol;
                     });
  s.mass = mass;
  s.internal_energy = ie;
  s.temperature = temp;
  return s;
}

double OffloadPort::cg_init() {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* w = fp(FieldId::kW);
  double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  const int width = width_;
  return preduce(info(KernelId::kCgInit),
                 [=, this](std::int64_t idx, double& acc) {
                   const std::int64_t i = pad_index(idx);
                   const double au = stencil(u, kx, ky, i, width);
                   w[i] = au;
                   const double res = u0[i] - au;
                   r[i] = res;
                   p[i] = res;
                   acc += res * res;
                 });
}

double OffloadPort::cg_calc_w() {
  const double* p = fp(FieldId::kP);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* w = fp(FieldId::kW);
  const int width = width_;
  return preduce(info(KernelId::kCgCalcW),
                 [=, this](std::int64_t idx, double& acc) {
                   const std::int64_t i = pad_index(idx);
                   const double ap = stencil(p, kx, ky, i, width);
                   w[i] = ap;
                   acc += ap * p[i];
                 });
}

double OffloadPort::cg_calc_ur(double alpha) {
  double* u = fp(FieldId::kU);
  const double* p = fp(FieldId::kP);
  double* r = fp(FieldId::kR);
  const double* w = fp(FieldId::kW);
  return preduce(info(KernelId::kCgCalcUr),
                 [=, this](std::int64_t idx, double& acc) {
                   const std::int64_t i = pad_index(idx);
                   u[i] += alpha * p[i];
                   const double res = r[i] - alpha * w[i];
                   r[i] = res;
                   acc += res * res;
                 });
}

void OffloadPort::cg_calc_p(double beta) {
  const double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  pfor(info(KernelId::kCgCalcP), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    p[i] = r[i] + beta * p[i];
  });
}

void OffloadPort::cheby_init(double theta) {
  const double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  double* u = fp(FieldId::kU);
  const double theta_inv = 1.0 / theta;
  pfor(info(KernelId::kChebyInit), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    p[i] = r[i] * theta_inv;
    u[i] += p[i];
  });
}

void OffloadPort::cheby_calc_p_as(KernelId charge, double alpha, double beta) {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  const int width = width_;
  pfor(info(charge), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    const double res = u0[i] - stencil(u, kx, ky, i, width);
    r[i] = res;
    p[i] = alpha * p[i] + beta * res;
  });
}

void OffloadPort::ppcg_init_sd(double theta) {
  const double* r = fp(FieldId::kR);
  double* sd = fp(FieldId::kSd);
  const double theta_inv = 1.0 / theta;
  pfor(info(KernelId::kPpcgInitSd), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    sd[i] = r[i] * theta_inv;
  });
}

void OffloadPort::ppcg_inner_ru_as(KernelId charge) {
  double* u = fp(FieldId::kU);
  double* r = fp(FieldId::kR);
  const double* sd = fp(FieldId::kSd);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  const int width = width_;
  pfor(info(charge), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    r[i] -= stencil(sd, kx, ky, i, width);
    u[i] += sd[i];
  });
}

void OffloadPort::jacobi_copy_u_as(KernelId charge) {
  const double* u = fp(FieldId::kU);
  double* w = fp(FieldId::kW);
  // Full padded range: the iterate's stencil reads w in the halo.
  const std::int64_t total = static_cast<std::int64_t>(mesh_.padded_cells());
  rt_.target_region(info(charge), [&] {
    for (std::int64_t i = 0; i < total; ++i) w[i] = u[i];
  });
}

void OffloadPort::jacobi_iterate() {
  double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* w = fp(FieldId::kW);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  const int width = width_;
  pfor(info(KernelId::kJacobiIterate), [=, this](std::int64_t idx) {
    const std::int64_t i = pad_index(idx);
    const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
    u[i] = (u0[i] + kx[i + 1] * w[i + 1] + kx[i] * w[i - 1] +
            ky[i + width] * w[i + width] + ky[i] * w[i - width]) /
           diag;
  });
}

core::CgFusedW OffloadPort::cg_calc_w_fused() {
  const double* p = fp(FieldId::kP);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* w = fp(FieldId::kW);
  const int width = width_;
  core::CgFusedW out;
  double ww = 0.0;
  // field_summary's shape: reduction clause on p.w, the second dot rides
  // along (map(tofrom: scalar) in the real directive).
  out.pw = preduce(info(KernelId::kCgCalcWFused),
                   [&, p, kx, ky, w](std::int64_t idx, double& acc) {
                     const std::int64_t i = pad_index(idx);
                     const double ap = stencil(p, kx, ky, i, width);
                     w[i] = ap;
                     acc += ap * p[i];
                     ww += ap * ap;
                   });
  out.ww = ww;
  return out;
}

double OffloadPort::cg_fused_ur_p(double alpha, double beta_prev) {
  double* u = fp(FieldId::kU);
  double* p = fp(FieldId::kP);
  double* r = fp(FieldId::kR);
  const double* w = fp(FieldId::kW);
  return preduce(info(KernelId::kCgFusedUrP),
                 [=, this](std::int64_t idx, double& acc) {
                   const std::int64_t i = pad_index(idx);
                   u[i] += alpha * p[i];
                   const double res = r[i] - alpha * w[i];
                   r[i] = res;
                   p[i] = res + beta_prev * p[i];
                   acc += res * res;
                 });
}

double OffloadPort::fused_residual_norm() {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* r = fp(FieldId::kR);
  const int width = width_;
  return preduce(info(KernelId::kFusedResidualNorm),
                 [=, this](std::int64_t idx, double& acc) {
                   const std::int64_t i = pad_index(idx);
                   const double res = u0[i] - stencil(u, kx, ky, i, width);
                   r[i] = res;
                   acc += res * res;
                 });
}

void OffloadPort::read_u(util::Span2D<double> out) {
  rt_.update_from(fp(FieldId::kU), padded_bytes());
  copy_field(f(FieldId::kU), out);
}

void OffloadPort::download_energy(core::Chunk& chunk) {
  rt_.update_from(fp(FieldId::kEnergy), padded_bytes());
  copy_field(f(FieldId::kEnergy), chunk.field(FieldId::kEnergy));
}

}  // namespace tl::ports
