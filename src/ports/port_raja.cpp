#include "ports/port_raja.hpp"

namespace tl::ports {

using core::FieldId;
using core::KernelId;
using rajalike::RangeSegment;
using rajalike::ReduceSum;

namespace {
/// Flat-index 5-point stencil (idx arithmetic over the padded row stride).
inline double stencil(const double* v, const double* kx, const double* ky,
                      std::int64_t i, int width) {
  const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
  return diag * v[i] - kx[i + 1] * v[i + 1] - kx[i] * v[i - 1] -
         ky[i + width] * v[i + width] - ky[i] * v[i - width];
}
}  // namespace

RajaPort::RajaPort(sim::Model model, sim::DeviceId device,
                   const core::Mesh& mesh, std::uint64_t run_seed)
    : PortBase(model, mesh),
      ctx_(model, device, run_seed),
      storage_(mesh),
      interior_(rajalike::make_interior_index_set(nx_, ny_, h_)),
      interior_wide_(
          rajalike::make_interior_index_set(nx_ + 2, ny_ + 2, h_ - 1)) {}

void RajaPort::upload_state(const core::Chunk& chunk) {
  for (const FieldId id : {FieldId::kDensity, FieldId::kEnergy0}) {
    copy_field(chunk.field(id), f(id));
  }
  ctx_.launcher().charge_transfer(
      {.name = "upload_state", .bytes = 2 * padded_bytes(), .to_device = true});
}

void RajaPort::init_u() {
  const double* density = fp(FieldId::kDensity);
  const double* energy0 = fp(FieldId::kEnergy0);
  double* u = fp(FieldId::kU);
  double* u0 = fp(FieldId::kU0);
  // Plain range over the padded allocation (no exclusions needed).
  ctx_.forall<Policy>(
      info(KernelId::kInitU),
      RangeSegment{0, static_cast<std::int64_t>(mesh_.padded_cells())},
      [=](std::int64_t i) {
        const double v = energy0[i] * density[i];
        u[i] = v;
        u0[i] = v;
      });
}

void RajaPort::init_coefficients(core::Coefficient coefficient, double rx,
                                 double ry) {
  const double* density = fp(FieldId::kDensity);
  double* kx = fp(FieldId::kKx);
  double* ky = fp(FieldId::kKy);
  const bool recip = coefficient == core::Coefficient::kRecipConductivity;
  const int width = width_;
  ctx_.forall<Policy>(info(KernelId::kInitCoef), interior_wide_,
                      [=](std::int64_t i) {
                        auto w_of = [&](std::int64_t j) {
                          return recip ? 1.0 / density[j] : density[j];
                        };
                        const double wc = w_of(i);
                        const double wl = w_of(i - 1);
                        const double wb = w_of(i - width);
                        kx[i] = rx * (wl + wc) / (2.0 * wl * wc);
                        ky[i] = ry * (wb + wc) / (2.0 * wb * wc);
                      });
}

void RajaPort::calc_residual() {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* r = fp(FieldId::kR);
  const int width = width_;
  ctx_.forall<Policy>(info(KernelId::kCalcResidual), interior_,
                      [=](std::int64_t i) {
                        r[i] = u0[i] - stencil(u, kx, ky, i, width);
                      });
}

double RajaPort::calc_2norm(core::NormTarget target) {
  const double* v = fp(target == core::NormTarget::kResidual ? FieldId::kR
                                                             : FieldId::kU0);
  ReduceSum norm;
  ctx_.forall<Policy>(info(KernelId::kCalc2Norm), interior_,
                      [&, v](std::int64_t i) { norm += v[i] * v[i]; });
  return norm.get();
}

void RajaPort::finalise() {
  const double* u = fp(FieldId::kU);
  const double* density = fp(FieldId::kDensity);
  double* energy = fp(FieldId::kEnergy);
  ctx_.forall<Policy>(info(KernelId::kFinalise), interior_,
                      [=](std::int64_t i) { energy[i] = u[i] / density[i]; });
}

core::FieldSummary RajaPort::field_summary() {
  const double* density = fp(FieldId::kDensity);
  const double* energy0 = fp(FieldId::kEnergy0);
  const double* u = fp(FieldId::kU);
  const double cell_vol = mesh_.cell_area();
  // The multi-reduction case the paper flags: four ReduceSum objects in one
  // traversal (our custom dispatch equivalent).
  ReduceSum vol, mass, ie, temp;
  ctx_.forall<Policy>(info(KernelId::kFieldSummary), interior_,
                      [&, density, energy0, u](std::int64_t i) {
                        vol += cell_vol;
                        mass += density[i] * cell_vol;
                        ie += density[i] * energy0[i] * cell_vol;
                        temp += u[i] * cell_vol;
                      });
  return core::FieldSummary{vol.get(), mass.get(), ie.get(), temp.get()};
}

double RajaPort::cg_init() {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* w = fp(FieldId::kW);
  double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  const int width = width_;
  ReduceSum rro;
  ctx_.forall<Policy>(info(KernelId::kCgInit), interior_,
                      [&, u, u0, kx, ky, w, r, p](std::int64_t i) {
                        const double au = stencil(u, kx, ky, i, width);
                        w[i] = au;
                        const double res = u0[i] - au;
                        r[i] = res;
                        p[i] = res;
                        rro += res * res;
                      });
  return rro.get();
}

double RajaPort::cg_calc_w() {
  const double* p = fp(FieldId::kP);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* w = fp(FieldId::kW);
  const int width = width_;
  ReduceSum pw;
  ctx_.forall<Policy>(info(KernelId::kCgCalcW), interior_,
                      [&, p, kx, ky, w](std::int64_t i) {
                        const double ap = stencil(p, kx, ky, i, width);
                        w[i] = ap;
                        pw += ap * p[i];
                      });
  return pw.get();
}

double RajaPort::cg_calc_ur(double alpha) {
  double* u = fp(FieldId::kU);
  const double* p = fp(FieldId::kP);
  double* r = fp(FieldId::kR);
  const double* w = fp(FieldId::kW);
  ReduceSum rrn;
  ctx_.forall<Policy>(info(KernelId::kCgCalcUr), interior_,
                      [&, u, p, r, w](std::int64_t i) {
                        u[i] += alpha * p[i];
                        const double res = r[i] - alpha * w[i];
                        r[i] = res;
                        rrn += res * res;
                      });
  return rrn.get();
}

void RajaPort::cg_calc_p(double beta) {
  const double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  ctx_.forall<Policy>(info(KernelId::kCgCalcP), interior_,
                      [=](std::int64_t i) { p[i] = r[i] + beta * p[i]; });
}

void RajaPort::cheby_init(double theta) {
  const double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  double* u = fp(FieldId::kU);
  const double theta_inv = 1.0 / theta;
  ctx_.forall<Policy>(info(KernelId::kChebyInit), interior_,
                      [=](std::int64_t i) {
                        p[i] = r[i] * theta_inv;
                        u[i] += p[i];
                      });
}

void RajaPort::cheby_calc_p_as(KernelId charge, double alpha, double beta) {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* r = fp(FieldId::kR);
  double* p = fp(FieldId::kP);
  const int width = width_;
  ctx_.forall<Policy>(info(charge), interior_,
                      [=](std::int64_t i) {
                        const double res = u0[i] - stencil(u, kx, ky, i, width);
                        r[i] = res;
                        p[i] = alpha * p[i] + beta * res;
                      });
}

void RajaPort::ppcg_init_sd(double theta) {
  const double* r = fp(FieldId::kR);
  double* sd = fp(FieldId::kSd);
  const double theta_inv = 1.0 / theta;
  ctx_.forall<Policy>(info(KernelId::kPpcgInitSd), interior_,
                      [=](std::int64_t i) { sd[i] = r[i] * theta_inv; });
}

void RajaPort::ppcg_inner_ru_as(KernelId charge) {
  double* u = fp(FieldId::kU);
  double* r = fp(FieldId::kR);
  const double* sd = fp(FieldId::kSd);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  const int width = width_;
  ctx_.forall<Policy>(info(charge), interior_,
                      [=](std::int64_t i) {
                        r[i] -= stencil(sd, kx, ky, i, width);
                        u[i] += sd[i];
                      });
}

void RajaPort::jacobi_copy_u_as(KernelId charge) {
  const double* u = fp(FieldId::kU);
  double* w = fp(FieldId::kW);
  // Full padded range: the iterate's stencil reads w in the halo.
  ctx_.forall<Policy>(
      info(charge),
      RangeSegment{0, static_cast<std::int64_t>(mesh_.padded_cells())},
      [=](std::int64_t i) { w[i] = u[i]; });
}

void RajaPort::jacobi_iterate() {
  double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* w = fp(FieldId::kW);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  const int width = width_;
  ctx_.forall<Policy>(
      info(KernelId::kJacobiIterate), interior_, [=](std::int64_t i) {
        const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
        u[i] = (u0[i] + kx[i + 1] * w[i + 1] + kx[i] * w[i - 1] +
                ky[i + width] * w[i + width] + ky[i] * w[i - width]) /
               diag;
      });
}

core::CgFusedW RajaPort::cg_calc_w_fused() {
  const double* p = fp(FieldId::kP);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* w = fp(FieldId::kW);
  const int width = width_;
  // Two ReduceSum objects share the traversal, like field_summary's four.
  ReduceSum pw, ww;
  ctx_.forall<Policy>(info(KernelId::kCgCalcWFused), interior_,
                      [&, p, kx, ky, w](std::int64_t i) {
                        const double ap = stencil(p, kx, ky, i, width);
                        w[i] = ap;
                        pw += ap * p[i];
                        ww += ap * ap;
                      });
  return core::CgFusedW{pw.get(), ww.get()};
}

double RajaPort::cg_fused_ur_p(double alpha, double beta_prev) {
  double* u = fp(FieldId::kU);
  double* p = fp(FieldId::kP);
  double* r = fp(FieldId::kR);
  const double* w = fp(FieldId::kW);
  ReduceSum rrn;
  ctx_.forall<Policy>(info(KernelId::kCgFusedUrP), interior_,
                      [&, u, p, r, w](std::int64_t i) {
                        u[i] += alpha * p[i];
                        const double res = r[i] - alpha * w[i];
                        r[i] = res;
                        p[i] = res + beta_prev * p[i];
                        rrn += res * res;
                      });
  return rrn.get();
}

double RajaPort::fused_residual_norm() {
  const double* u = fp(FieldId::kU);
  const double* u0 = fp(FieldId::kU0);
  const double* kx = fp(FieldId::kKx);
  const double* ky = fp(FieldId::kKy);
  double* r = fp(FieldId::kR);
  const int width = width_;
  ReduceSum norm;
  ctx_.forall<Policy>(info(KernelId::kFusedResidualNorm), interior_,
                      [&, u, u0, kx, ky, r](std::int64_t i) {
                        const double res = u0[i] - stencil(u, kx, ky, i, width);
                        r[i] = res;
                        norm += res * res;
                      });
  return norm.get();
}

void RajaPort::read_u(util::Span2D<double> out) {
  copy_field(f(FieldId::kU), out);
  ctx_.launcher().charge_transfer(
      {.name = "read_u", .bytes = padded_bytes(), .to_device = false});
}

void RajaPort::download_energy(core::Chunk& chunk) {
  copy_field(f(FieldId::kEnergy), chunk.field(FieldId::kEnergy));
  ctx_.launcher().charge_transfer(
      {.name = "download_energy", .bytes = padded_bytes(), .to_device = false});
}

}  // namespace tl::ports
