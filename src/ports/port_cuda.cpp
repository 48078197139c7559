#include "ports/port_cuda.hpp"

namespace tl::ports {

using core::FieldId;
using core::KernelId;
using culike::Dim3;
using culike::ThreadCtx;

namespace {
inline double stencil(const double* v, const double* kx, const double* ky,
                      std::size_t i, std::size_t width) {
  const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
  return diag * v[i] - kx[i + 1] * v[i + 1] - kx[i] * v[i - 1] -
         ky[i + width] * v[i + width] - ky[i] * v[i - width];
}

/// Manual block reduction epilogue: thread value into shared memory; the
/// last thread of the block folds shared memory into the partials array
/// (in-order emulation stands in for __syncthreads + tree, see culike docs).
inline void block_reduce(const ThreadCtx& ctx, double value,
                         double* partials) {
  ctx.shared[ctx.thread_idx] = value;
  if (ctx.is_last_in_block()) {
    double sum = 0.0;
    for (unsigned t = 0; t < ctx.block_dim; ++t) sum += ctx.shared[t];
    partials[ctx.block_idx] = sum;
  }
}
}  // namespace

CudaPort::CudaPort(sim::DeviceId device, const core::Mesh& mesh,
                   std::uint64_t run_seed)
    : PortBase(sim::Model::kCuda, mesh), rt_(sim::Model::kCuda, device, run_seed) {
  for (const FieldId id : core::kAllFields) {
    buffers_[static_cast<std::size_t>(id)] =
        std::make_unique<culike::DeviceBuffer>(mesh.padded_cells());
  }
  partials_ = std::make_unique<culike::DeviceBuffer>(
      4 * culike::Runtime::blocks_for(mesh.padded_cells(), kBlockSize));
  host_scratch_.resize(mesh.padded_cells());
}

double CudaPort::sum_partials(unsigned blocks) const {
  double sum = 0.0;
  for (unsigned b = 0; b < blocks; ++b) sum += (*partials_)[b];
  return sum;
}

void CudaPort::upload_state(const core::Chunk& chunk) {
  for (const FieldId id : {FieldId::kDensity, FieldId::kEnergy0}) {
    const auto src = chunk.field(id);
    for (int y = 0; y < height_; ++y) {
      for (int x = 0; x < width_; ++x) {
        host_scratch_[static_cast<std::size_t>(y) * width_ + x] = src(x, y);
      }
    }
    rt_.memcpy_htod(buf(id), host_scratch_);
  }
}

void CudaPort::init_u() {
  const double* density = buf(FieldId::kDensity).data();
  const double* energy0 = buf(FieldId::kEnergy0).data();
  double* u = buf(FieldId::kU).data();
  double* u0 = buf(FieldId::kU0).data();
  const std::size_t n = mesh_.padded_cells();
  rt_.launch(info(KernelId::kInitU),
             Dim3(culike::Runtime::blocks_for(n, kBlockSize)), Dim3(kBlockSize),
             0, [=](const ThreadCtx& ctx) {
               const std::size_t i = ctx.global_thread();
               if (i >= n) return;  // overspill guard
               const double v = energy0[i] * density[i];
               u[i] = v;
               u0[i] = v;
             });
}

void CudaPort::init_coefficients(core::Coefficient coefficient, double rx,
                                 double ry) {
  const double* density = buf(FieldId::kDensity).data();
  double* kx = buf(FieldId::kKx).data();
  double* ky = buf(FieldId::kKy).data();
  const bool recip = coefficient == core::Coefficient::kRecipConductivity;
  const std::size_t ring = static_cast<std::size_t>(nx_ + 2) * (ny_ + 2);
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(KernelId::kInitCoef),
             Dim3(culike::Runtime::blocks_for(ring, kBlockSize)),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= ring) return;
               const std::size_t x =
                   (h - 1) + (t % static_cast<std::size_t>(nx + 2));
               const std::size_t y =
                   (h - 1) + (t / static_cast<std::size_t>(nx + 2));
               const std::size_t i = y * width + x;
               auto w_of = [&](std::size_t j) {
                 return recip ? 1.0 / density[j] : density[j];
               };
               const double wc = w_of(i);
               const double wl = w_of(i - 1);
               const double wb = w_of(i - width);
               kx[i] = rx * (wl + wc) / (2.0 * wl * wc);
               ky[i] = ry * (wb + wc) / (2.0 * wb * wc);
             });
}

void CudaPort::halo_update(unsigned fields, int depth) {
  rt_.launcher().run(hinfo(fields, depth), [&] {
    reflect_fields(fields);
  });
}

void CudaPort::calc_residual() {
  const double* u = buf(FieldId::kU).data();
  const double* u0 = buf(FieldId::kU0).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  double* r = buf(FieldId::kR).data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(KernelId::kCalcResidual), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               r[i] = u0[i] - stencil(u, kx, ky, i, width);
             });
}

double CudaPort::calc_2norm(core::NormTarget target) {
  const double* v = buf(target == core::NormTarget::kResidual ? FieldId::kR
                                                              : FieldId::kU0)
                        .data();
  double* partials = partials_->data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  rt_.launch(info(KernelId::kCalc2Norm), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double value = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 value = v[i] * v[i];
               }
               block_reduce(ctx, value, partials);
             });
  return sum_partials(blocks);
}

void CudaPort::finalise() {
  const double* u = buf(FieldId::kU).data();
  const double* density = buf(FieldId::kDensity).data();
  double* energy = buf(FieldId::kEnergy).data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(KernelId::kFinalise), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               energy[i] = u[i] / density[i];
             });
}

core::FieldSummary CudaPort::field_summary() {
  const double* density = buf(FieldId::kDensity).data();
  const double* energy0 = buf(FieldId::kEnergy0).data();
  const double* u = buf(FieldId::kU).data();
  double* partials = partials_->data();
  const double cell_vol = mesh_.cell_area();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  for (unsigned i = 0; i < 4 * blocks; ++i) partials[i] = 0.0;
  rt_.launch(info(KernelId::kFieldSummary), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double vol = 0.0, mass = 0.0, ie = 0.0, temp = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 vol = cell_vol;
                 mass = density[i] * cell_vol;
                 ie = density[i] * energy0[i] * cell_vol;
                 temp = u[i] * cell_vol;
               }
               block_reduce(ctx, vol, partials);
               partials[blocks + ctx.block_idx] += mass;
               partials[2 * blocks + ctx.block_idx] += ie;
               partials[3 * blocks + ctx.block_idx] += temp;
             });
  core::FieldSummary s;
  s.volume = sum_partials(blocks);
  for (unsigned b = 0; b < blocks; ++b) {
    s.mass += partials[blocks + b];
    s.internal_energy += partials[2 * blocks + b];
    s.temperature += partials[3 * blocks + b];
  }
  return s;
}

double CudaPort::cg_init() {
  const double* u = buf(FieldId::kU).data();
  const double* u0 = buf(FieldId::kU0).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  double* w = buf(FieldId::kW).data();
  double* r = buf(FieldId::kR).data();
  double* p = buf(FieldId::kP).data();
  double* partials = partials_->data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  rt_.launch(info(KernelId::kCgInit), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double value = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 const double au = stencil(u, kx, ky, i, width);
                 w[i] = au;
                 const double res = u0[i] - au;
                 r[i] = res;
                 p[i] = res;
                 value = res * res;
               }
               block_reduce(ctx, value, partials);
             });
  return sum_partials(blocks);
}

double CudaPort::cg_calc_w() {
  const double* p = buf(FieldId::kP).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  double* w = buf(FieldId::kW).data();
  double* partials = partials_->data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  rt_.launch(info(KernelId::kCgCalcW), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double value = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 const double ap = stencil(p, kx, ky, i, width);
                 w[i] = ap;
                 value = ap * p[i];
               }
               block_reduce(ctx, value, partials);
             });
  return sum_partials(blocks);
}

double CudaPort::cg_calc_ur(double alpha) {
  double* u = buf(FieldId::kU).data();
  const double* p = buf(FieldId::kP).data();
  double* r = buf(FieldId::kR).data();
  const double* w = buf(FieldId::kW).data();
  double* partials = partials_->data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  rt_.launch(info(KernelId::kCgCalcUr), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double value = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 u[i] += alpha * p[i];
                 const double res = r[i] - alpha * w[i];
                 r[i] = res;
                 value = res * res;
               }
               block_reduce(ctx, value, partials);
             });
  return sum_partials(blocks);
}

void CudaPort::cg_calc_p(double beta) {
  const double* r = buf(FieldId::kR).data();
  double* p = buf(FieldId::kP).data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(KernelId::kCgCalcP), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               p[i] = r[i] + beta * p[i];
             });
}

void CudaPort::cheby_init(double theta) {
  const double* r = buf(FieldId::kR).data();
  double* p = buf(FieldId::kP).data();
  double* u = buf(FieldId::kU).data();
  const double theta_inv = 1.0 / theta;
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(KernelId::kChebyInit), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               p[i] = r[i] * theta_inv;
               u[i] += p[i];
             });
}

void CudaPort::cheby_iterate_as(KernelId charge, double alpha, double beta) {
  double* u = buf(FieldId::kU).data();
  const double* u0 = buf(FieldId::kU0).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  double* r = buf(FieldId::kR).data();
  double* p = buf(FieldId::kP).data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(charge), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               const double res = u0[i] - stencil(u, kx, ky, i, width);
               r[i] = res;
               p[i] = alpha * p[i] + beta * res;
             });
  // Second sweep of the fused iterate (same metered charge).
  for (int y = h_; y < h_ + ny_; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * width_;
    for (int x = h_; x < h_ + nx_; ++x) u[row + x] += p[row + x];
  }
}

void CudaPort::ppcg_init_sd(double theta) {
  const double* r = buf(FieldId::kR).data();
  double* sd = buf(FieldId::kSd).data();
  const double theta_inv = 1.0 / theta;
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(KernelId::kPpcgInitSd), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               sd[i] = r[i] * theta_inv;
             });
}

void CudaPort::ppcg_inner_as(KernelId charge, double alpha, double beta) {
  double* u = buf(FieldId::kU).data();
  double* r = buf(FieldId::kR).data();
  double* sd = buf(FieldId::kSd).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(charge), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               r[i] -= stencil(sd, kx, ky, i, width);
               u[i] += sd[i];
             });
  for (int y = h_; y < h_ + ny_; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * width_;
    for (int x = h_; x < h_ + nx_; ++x) {
      sd[row + x] = alpha * sd[row + x] + beta * r[row + x];
    }
  }
}

void CudaPort::jacobi_copy_u_as(KernelId charge) {
  const double* u = buf(FieldId::kU).data();
  double* w = buf(FieldId::kW).data();
  // Full padded range: the iterate's stencil reads w in the halo.
  const std::size_t n = mesh_.padded_cells();
  rt_.launch(info(charge),
             Dim3(culike::Runtime::blocks_for(n, kBlockSize)),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t i = ctx.global_thread();
               if (i >= n) return;
               w[i] = u[i];
             });
}

void CudaPort::jacobi_iterate() {
  double* u = buf(FieldId::kU).data();
  const double* u0 = buf(FieldId::kU0).data();
  const double* w = buf(FieldId::kW).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  rt_.launch(info(KernelId::kJacobiIterate), Dim3(interior_blocks()),
             Dim3(kBlockSize), 0, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               if (t >= n) return;
               const std::size_t i =
                   (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
               const double diag =
                   1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
               u[i] = (u0[i] + kx[i + 1] * w[i + 1] + kx[i] * w[i - 1] +
                       ky[i + width] * w[i + width] + ky[i] * w[i - width]) /
                      diag;
             });
}

core::CgFusedW CudaPort::cg_calc_w_fused() {
  const double* p = buf(FieldId::kP).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  double* w = buf(FieldId::kW).data();
  double* partials = partials_->data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  // field_summary's layout: pw through the block reduction, ww into a
  // companion partial section accumulated in place.
  for (unsigned i = 0; i < 2 * blocks; ++i) partials[i] = 0.0;
  rt_.launch(info(KernelId::kCgCalcWFused), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double pwv = 0.0, wwv = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 const double ap = stencil(p, kx, ky, i, width);
                 w[i] = ap;
                 pwv = ap * p[i];
                 wwv = ap * ap;
               }
               block_reduce(ctx, pwv, partials);
               partials[blocks + ctx.block_idx] += wwv;
             });
  core::CgFusedW out;
  out.pw = sum_partials(blocks);
  for (unsigned b = 0; b < blocks; ++b) {
    out.ww += partials[blocks + b];
  }
  return out;
}

double CudaPort::cg_fused_ur_p(double alpha, double beta_prev) {
  double* u = buf(FieldId::kU).data();
  double* p = buf(FieldId::kP).data();
  double* r = buf(FieldId::kR).data();
  const double* w = buf(FieldId::kW).data();
  double* partials = partials_->data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  rt_.launch(info(KernelId::kCgFusedUrP), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double value = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 u[i] += alpha * p[i];
                 const double res = r[i] - alpha * w[i];
                 r[i] = res;
                 p[i] = res + beta_prev * p[i];
                 value = res * res;
               }
               block_reduce(ctx, value, partials);
             });
  return sum_partials(blocks);
}

double CudaPort::fused_residual_norm() {
  const double* u = buf(FieldId::kU).data();
  const double* u0 = buf(FieldId::kU0).data();
  const double* kx = buf(FieldId::kKx).data();
  const double* ky = buf(FieldId::kKy).data();
  double* r = buf(FieldId::kR).data();
  double* partials = partials_->data();
  const std::size_t n = mesh_.interior_cells();
  const int width = width_, h = h_, nx = nx_;
  const unsigned blocks = interior_blocks();
  rt_.launch(info(KernelId::kFusedResidualNorm), Dim3(blocks), Dim3(kBlockSize),
             kBlockSize, [=](const ThreadCtx& ctx) {
               const std::size_t t = ctx.global_thread();
               double value = 0.0;
               if (t < n) {
                 const std::size_t i =
                     (h + t / nx) * static_cast<std::size_t>(width) + h + t % nx;
                 const double res = u0[i] - stencil(u, kx, ky, i, width);
                 r[i] = res;
                 value = res * res;
               }
               block_reduce(ctx, value, partials);
             });
  return sum_partials(blocks);
}

void CudaPort::read_u(util::Span2D<double> out) {
  rt_.memcpy_dtoh(host_scratch_, buf(FieldId::kU));
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out(x, y) = host_scratch_[static_cast<std::size_t>(y) * width_ + x];
    }
  }
}

void CudaPort::download_energy(core::Chunk& chunk) {
  rt_.memcpy_dtoh(host_scratch_, buf(FieldId::kEnergy));
  auto dst = chunk.field(FieldId::kEnergy);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      dst(x, y) = host_scratch_[static_cast<std::size_t>(y) * width_ + x];
    }
  }
}

}  // namespace tl::ports
