#include "core/reference_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "comm/halo.hpp"
#include "core/fused_rows.hpp"
#include "core/isa.hpp"
#include "util/stats.hpp"

namespace tl::core {

using util::pairwise_sum;

namespace ref {

void init_u(const Mesh& m, CSpan density, CSpan energy0, Span u, Span u0) {
  // Full padded extent: the halo gets consistent values straight away
  // (TeaLeaf initialises u over the whole chunk then exchanges).
  for (int y = 0; y < m.padded_ny(); ++y) {
    for (int x = 0; x < m.padded_nx(); ++x) {
      const double v = energy0(x, y) * density(x, y);
      u(x, y) = v;
      u0(x, y) = v;
    }
  }
}

void init_coefficients(const Mesh& m, Coefficient coefficient, double rx,
                       double ry, CSpan density, Span kx, Span ky) {
  const int h = m.halo_depth;
  // Face conductivity from the two adjacent cell densities (TeaLeaf's
  // (wL + wC) / (2 wL wC) harmonic form), pre-scaled by rx/ry. Computed one
  // layer beyond the interior so A u is valid on every interior cell.
  auto w_of = [&](int x, int y) {
    return coefficient == Coefficient::kConductivity ? density(x, y)
                                                     : 1.0 / density(x, y);
  };
  for (int y = h - 1; y < h + m.ny + 1; ++y) {
    for (int x = h - 1; x < h + m.nx + 1; ++x) {
      const double wc = w_of(x, y);
      const double wl = w_of(x - 1, y);
      const double wb = w_of(x, y - 1);
      kx(x, y) = rx * (wl + wc) / (2.0 * wl * wc);
      ky(x, y) = ry * (wb + wc) / (2.0 * wb * wc);
    }
  }
}

double apply_stencil(CSpan v, CSpan kx, CSpan ky, int x, int y) {
  const double diag =
      1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
  return diag * v(x, y) - kx(x + 1, y) * v(x + 1, y) - kx(x, y) * v(x - 1, y) -
         ky(x, y + 1) * v(x, y + 1) - ky(x, y) * v(x, y - 1);
}

void calc_residual(const Mesh& m, CSpan u, CSpan u0, CSpan kx, CSpan ky,
                   Span r) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      r(x, y) = u0(x, y) - apply_stencil(u, kx, ky, x, y);
    }
  }
}

double calc_2norm(const Mesh& m, CSpan v) {
  const int h = m.halo_depth;
  double norm = 0.0;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) norm += v(x, y) * v(x, y);
  }
  return norm;
}

void finalise(const Mesh& m, CSpan u, CSpan density, Span energy) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) energy(x, y) = u(x, y) / density(x, y);
  }
}

FieldSummary field_summary(const Mesh& m, CSpan density, CSpan energy0,
                           CSpan u) {
  const int h = m.halo_depth;
  const double cell_vol = m.cell_area();
  FieldSummary s;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      s.volume += cell_vol;
      s.mass += density(x, y) * cell_vol;
      s.internal_energy += density(x, y) * energy0(x, y) * cell_vol;
      s.temperature += u(x, y) * cell_vol;
    }
  }
  return s;
}

double cg_init(const Mesh& m, CSpan u, CSpan u0, CSpan kx, CSpan ky, Span w,
               Span r, Span p) {
  const int h = m.halo_depth;
  double rro = 0.0;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      const double au = apply_stencil(u, kx, ky, x, y);
      w(x, y) = au;
      const double res = u0(x, y) - au;
      r(x, y) = res;
      p(x, y) = res;
      rro += res * res;
    }
  }
  return rro;
}

double cg_calc_w(const Mesh& m, CSpan p, CSpan kx, CSpan ky, Span w) {
  const int h = m.halo_depth;
  double pw = 0.0;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      const double ap = apply_stencil(p, kx, ky, x, y);
      w(x, y) = ap;
      pw += ap * p(x, y);
    }
  }
  return pw;
}

double cg_calc_ur(const Mesh& m, double alpha, CSpan p, CSpan w, Span u,
                  Span r) {
  const int h = m.halo_depth;
  double rrn = 0.0;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      u(x, y) += alpha * p(x, y);
      const double res = r(x, y) - alpha * w(x, y);
      r(x, y) = res;
      rrn += res * res;
    }
  }
  return rrn;
}

void cg_calc_p(const Mesh& m, double beta, CSpan r, Span p) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      p(x, y) = r(x, y) + beta * p(x, y);
    }
  }
}

void cheby_init(const Mesh& m, double theta, CSpan r, Span p, Span u) {
  const int h = m.halo_depth;
  const double theta_inv = 1.0 / theta;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      p(x, y) = r(x, y) * theta_inv;
      u(x, y) += p(x, y);
    }
  }
}

void cheby_calc_p(const Mesh& m, double alpha, double beta, CSpan u0,
                  CSpan kx, CSpan ky, CSpan u, Span r, Span p) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      const double res = u0(x, y) - apply_stencil(u, kx, ky, x, y);
      r(x, y) = res;
      p(x, y) = alpha * p(x, y) + beta * res;
    }
  }
}

void cheby_calc_u(const Mesh& m, CSpan p, Span u) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) u(x, y) += p(x, y);
  }
}

void ppcg_init_sd(const Mesh& m, double theta, CSpan r, Span sd) {
  const int h = m.halo_depth;
  const double theta_inv = 1.0 / theta;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) sd(x, y) = r(x, y) * theta_inv;
  }
}

void ppcg_inner_ru(const Mesh& m, CSpan kx, CSpan ky, CSpan sd, Span u,
                   Span r) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      r(x, y) -= apply_stencil(sd, kx, ky, x, y);
      u(x, y) += sd(x, y);
    }
  }
}

void ppcg_inner_sd(const Mesh& m, double alpha, double beta, CSpan r,
                   Span sd) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      sd(x, y) = alpha * sd(x, y) + beta * r(x, y);
    }
  }
}

void jacobi_copy_u(const Mesh& m, CSpan u, Span w) {
  // Full padded extent: the iterate's stencil reads w in the halo, and u's
  // halo is current here (updated after the previous iterate). The padded
  // allocation is one contiguous row-major block, so this is one memcpy.
  (void)m;
  std::memcpy(w.data(), u.data(), u.size() * sizeof(double));
}

void jacobi_iterate(const Mesh& m, CSpan u0, CSpan w, CSpan kx, CSpan ky,
                    Span u) {
  const int h = m.halo_depth;
  for (int y = h; y < h + m.ny; ++y) {
    for (int x = h; x < h + m.nx; ++x) {
      const double diag =
          1.0 + kx(x + 1, y) + kx(x, y) + ky(x, y + 1) + ky(x, y);
      u(x, y) = (u0(x, y) + kx(x + 1, y) * w(x + 1, y) +
                 kx(x, y) * w(x - 1, y) + ky(x, y + 1) * w(x, y + 1) +
                 ky(x, y) * w(x, y - 1)) /
                diag;
    }
  }
}

}  // namespace ref

// ---------------------------------------------------------------------------
// ReferenceKernels
// ---------------------------------------------------------------------------

ReferenceKernels::ReferenceKernels(const Mesh& mesh)
    : mesh_(mesh), chunk_(mesh) {}

void ReferenceKernels::upload_state(const Chunk& chunk) {
  const auto src_d = chunk.field(FieldId::kDensity);
  const auto src_e = chunk.field(FieldId::kEnergy0);
  std::memcpy(chunk_.field(FieldId::kDensity).data(), src_d.data(),
              src_d.size() * sizeof(double));
  std::memcpy(chunk_.field(FieldId::kEnergy0).data(), src_e.data(),
              src_e.size() * sizeof(double));
}

void ReferenceKernels::init_u() {
  ref::init_u(mesh_, chunk_.field(FieldId::kDensity),
              chunk_.field(FieldId::kEnergy0), chunk_.field(FieldId::kU),
              chunk_.field(FieldId::kU0));
}

void ReferenceKernels::init_coefficients(Coefficient coefficient, double rx,
                                         double ry) {
  ref::init_coefficients(mesh_, coefficient, rx, ry,
                         chunk_.field(FieldId::kDensity),
                         chunk_.field(FieldId::kKx), chunk_.field(FieldId::kKy));
}

void ReferenceKernels::halo_update(unsigned fields, int depth) {
  (void)depth;  // reflection always fills the full halo
  for (const auto& [mask, id] : kMaskFields) {
    if ((fields & mask) != 0) {
      tl::comm::reflect_boundary(chunk_.field(id), mesh_.halo_depth,
                                 tl::comm::kAllFaces);
    }
  }
}

void ReferenceKernels::calc_residual() {
  ref::calc_residual(mesh_, chunk_.field(FieldId::kU),
                     chunk_.field(FieldId::kU0), chunk_.field(FieldId::kKx),
                     chunk_.field(FieldId::kKy), chunk_.field(FieldId::kR));
}

double ReferenceKernels::calc_2norm(NormTarget target) {
  const auto v = chunk_.field(
      target == NormTarget::kResidual ? FieldId::kR : FieldId::kU0);
  if (!row_mode_) return ref::calc_2norm(mesh_, v);
  const int h = mesh_.halo_depth;
  row_partials_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  for (int y = h; y < h + mesh_.ny; ++y) {
    double s = 0.0;
    for (int x = h; x < h + mesh_.nx; ++x) s += v(x, y) * v(x, y);
    row_partials_[static_cast<std::size_t>(y - h)] = s;
  }
  return fold_rows(1);
}

void ReferenceKernels::finalise() {
  ref::finalise(mesh_, chunk_.field(FieldId::kU),
                chunk_.field(FieldId::kDensity),
                chunk_.field(FieldId::kEnergy));
}

FieldSummary ReferenceKernels::field_summary() {
  if (!row_mode_) {
    return ref::field_summary(mesh_, chunk_.field(FieldId::kDensity),
                              chunk_.field(FieldId::kEnergy0),
                              chunk_.field(FieldId::kU));
  }
  const auto density = chunk_.field(FieldId::kDensity);
  const auto energy0 = chunk_.field(FieldId::kEnergy0);
  const auto u = chunk_.field(FieldId::kU);
  const int h = mesh_.halo_depth;
  const int ny = mesh_.ny;
  const double cell_vol = mesh_.cell_area();
  row_partials_.assign(static_cast<std::size_t>(ny) * 4, 0.0);
  for (int y = h; y < h + ny; ++y) {
    double vol = 0.0, mass = 0.0, ie = 0.0, temp = 0.0;
    for (int x = h; x < h + mesh_.nx; ++x) {
      vol += cell_vol;
      mass += density(x, y) * cell_vol;
      ie += density(x, y) * energy0(x, y) * cell_vol;
      temp += u(x, y) * cell_vol;
    }
    const std::size_t slot = static_cast<std::size_t>(y - h);
    row_partials_[slot] = vol;
    row_partials_[static_cast<std::size_t>(ny) + slot] = mass;
    row_partials_[static_cast<std::size_t>(ny) * 2 + slot] = ie;
    row_partials_[static_cast<std::size_t>(ny) * 3 + slot] = temp;
  }
  FieldSummary s;
  s.volume = fold_rows(4, 0);
  s.mass = fold_rows(4, 1);
  s.internal_energy = fold_rows(4, 2);
  s.temperature = fold_rows(4, 3);
  return s;
}

double ReferenceKernels::cg_init() {
  if (!row_mode_) {
    return ref::cg_init(mesh_, chunk_.field(FieldId::kU),
                        chunk_.field(FieldId::kU0), chunk_.field(FieldId::kKx),
                        chunk_.field(FieldId::kKy), chunk_.field(FieldId::kW),
                        chunk_.field(FieldId::kR), chunk_.field(FieldId::kP));
  }
  const auto u = chunk_.field(FieldId::kU);
  const auto u0 = chunk_.field(FieldId::kU0);
  const auto kx = chunk_.field(FieldId::kKx);
  const auto ky = chunk_.field(FieldId::kKy);
  auto w = chunk_.field(FieldId::kW);
  auto r = chunk_.field(FieldId::kR);
  auto p = chunk_.field(FieldId::kP);
  const int h = mesh_.halo_depth;
  row_partials_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  for (int y = h; y < h + mesh_.ny; ++y) {
    double rro = 0.0;
    for (int x = h; x < h + mesh_.nx; ++x) {
      const double au = ref::apply_stencil(u, kx, ky, x, y);
      w(x, y) = au;
      const double res = u0(x, y) - au;
      r(x, y) = res;
      p(x, y) = res;
      rro += res * res;
    }
    row_partials_[static_cast<std::size_t>(y - h)] = rro;
  }
  return fold_rows(1);
}

double ReferenceKernels::cg_calc_w() {
  if (!row_mode_) {
    return ref::cg_calc_w(mesh_, chunk_.field(FieldId::kP),
                          chunk_.field(FieldId::kKx),
                          chunk_.field(FieldId::kKy),
                          chunk_.field(FieldId::kW));
  }
  const auto p = chunk_.field(FieldId::kP);
  const auto kx = chunk_.field(FieldId::kKx);
  const auto ky = chunk_.field(FieldId::kKy);
  auto w = chunk_.field(FieldId::kW);
  const int h = mesh_.halo_depth;
  row_partials_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  for (int y = h; y < h + mesh_.ny; ++y) {
    double pw = 0.0;
    for (int x = h; x < h + mesh_.nx; ++x) {
      const double ap = ref::apply_stencil(p, kx, ky, x, y);
      w(x, y) = ap;
      pw += ap * p(x, y);
    }
    row_partials_[static_cast<std::size_t>(y - h)] = pw;
  }
  return fold_rows(1);
}

double ReferenceKernels::cg_calc_ur(double alpha) {
  if (!row_mode_) {
    return ref::cg_calc_ur(mesh_, alpha, chunk_.field(FieldId::kP),
                           chunk_.field(FieldId::kW), chunk_.field(FieldId::kU),
                           chunk_.field(FieldId::kR));
  }
  const auto p = chunk_.field(FieldId::kP);
  const auto w = chunk_.field(FieldId::kW);
  auto u = chunk_.field(FieldId::kU);
  auto r = chunk_.field(FieldId::kR);
  const int h = mesh_.halo_depth;
  row_partials_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  for (int y = h; y < h + mesh_.ny; ++y) {
    double rrn = 0.0;
    for (int x = h; x < h + mesh_.nx; ++x) {
      u(x, y) += alpha * p(x, y);
      const double res = r(x, y) - alpha * w(x, y);
      r(x, y) = res;
      rrn += res * res;
    }
    row_partials_[static_cast<std::size_t>(y - h)] = rrn;
  }
  return fold_rows(1);
}

void ReferenceKernels::cg_calc_p(double beta) {
  ref::cg_calc_p(mesh_, beta, chunk_.field(FieldId::kR),
                 chunk_.field(FieldId::kP));
}

void ReferenceKernels::cheby_init(double theta) {
  ref::cheby_init(mesh_, theta, chunk_.field(FieldId::kR),
                  chunk_.field(FieldId::kP), chunk_.field(FieldId::kU));
}

void ReferenceKernels::cheby_iterate(double alpha, double beta) {
  ref::cheby_calc_p(mesh_, alpha, beta, chunk_.field(FieldId::kU0),
                    chunk_.field(FieldId::kKx), chunk_.field(FieldId::kKy),
                    chunk_.field(FieldId::kU), chunk_.field(FieldId::kR),
                    chunk_.field(FieldId::kP));
  ref::cheby_calc_u(mesh_, chunk_.field(FieldId::kP),
                    chunk_.field(FieldId::kU));
}

void ReferenceKernels::ppcg_init_sd(double theta) {
  ref::ppcg_init_sd(mesh_, theta, chunk_.field(FieldId::kR),
                    chunk_.field(FieldId::kSd));
}

void ReferenceKernels::ppcg_inner(double alpha, double beta) {
  ref::ppcg_inner_ru(mesh_, chunk_.field(FieldId::kKx),
                     chunk_.field(FieldId::kKy), chunk_.field(FieldId::kSd),
                     chunk_.field(FieldId::kU), chunk_.field(FieldId::kR));
  ref::ppcg_inner_sd(mesh_, alpha, beta, chunk_.field(FieldId::kR),
                     chunk_.field(FieldId::kSd));
}

void ReferenceKernels::jacobi_copy_u() {
  ref::jacobi_copy_u(mesh_, chunk_.field(FieldId::kU), chunk_.field(FieldId::kW));
}

void ReferenceKernels::jacobi_iterate() {
  ref::jacobi_iterate(mesh_, chunk_.field(FieldId::kU0),
                      chunk_.field(FieldId::kW), chunk_.field(FieldId::kKx),
                      chunk_.field(FieldId::kKy), chunk_.field(FieldId::kU));
}

bool ReferenceKernels::set_row_reductions(bool on) {
  row_mode_ = on;
  if (!on) row_partials_.clear();
  return true;
}

std::span<const double> ReferenceKernels::row_partials() const {
  return row_mode_ ? std::span<const double>(row_partials_)
                   : std::span<const double>{};
}

double ReferenceKernels::fold_rows(int k, int block) {
  fold_scratch_ = row_partials_;
  const std::int64_t ny =
      static_cast<std::int64_t>(row_partials_.size()) / std::max(k, 1);
  return pairwise_sum(
      fold_scratch_.data() + static_cast<std::size_t>(block) *
                                 static_cast<std::size_t>(ny),
      ny);
}

void ReferenceKernels::read_u(tl::util::Span2D<double> out) {
  const auto u = chunk_.field(FieldId::kU);
  std::memcpy(out.data(), u.data(), u.size() * sizeof(double));
}

void ReferenceKernels::download_energy(Chunk& chunk) {
  const auto src = chunk_.field(FieldId::kEnergy);
  std::memcpy(chunk.field(FieldId::kEnergy).data(), src.data(),
              src.size() * sizeof(double));
}

// ---------------------------------------------------------------------------
// Fused kernels: the measured hot path.
//
// Traversal: one pass over the interior rows in order. The row sweeps come
// from the ISA dispatch table in core/isa.hpp (the widest of scalar / SSE2 /
// AVX2 the CPU runs, picked once from CPUID); every table entry accumulates
// dots in four fixed chains c = (index in row) & 3 combined as
// (c0 + c2) + (c1 + c3), so all ISAs produce the same bits. Row sums land in
// per-row slots combined by a pairwise tree over the row index — the result
// depends only on the mesh, never on the dispatched ISA.
// ---------------------------------------------------------------------------

CgFusedW ReferenceKernels::cg_calc_w_fused() {
  const int h = mesh_.halo_depth;
  const int nx = mesh_.nx;
  const std::size_t width = static_cast<std::size_t>(mesh_.padded_nx());
  const double* p_ = data(FieldId::kP);
  const double* kx_ = data(FieldId::kKx);
  const double* ky_ = data(FieldId::kKy);
  double* w_ = data(FieldId::kW);
  row_a_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  row_b_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  const isa::RowKernelTable& t = *isa::active_row_table();

  for (int y = h; y < h + mesh_.ny; ++y) {
    const std::size_t b = static_cast<std::size_t>(y) * width +
                          static_cast<std::size_t>(h);
    const fused::RowDots dots = t.w_row(
        p_, kx_, ky_, w_, b, b + static_cast<std::size_t>(nx), width);
    const std::size_t slot = static_cast<std::size_t>(y - h);
    row_a_[slot] = dots.pw;
    row_b_[slot] = dots.ww;
  }

  CgFusedW out;
  out.pw = pairwise_sum(row_a_.data(), mesh_.ny);
  out.ww = pairwise_sum(row_b_.data(), mesh_.ny);
  return out;
}

double ReferenceKernels::cg_fused_ur_p(double alpha, double beta_prev) {
  const int h = mesh_.halo_depth;
  const int nx = mesh_.nx;
  const std::size_t width = static_cast<std::size_t>(mesh_.padded_nx());
  double* u_ = data(FieldId::kU);
  double* r_ = data(FieldId::kR);
  double* p_ = data(FieldId::kP);
  const double* w_ = data(FieldId::kW);
  row_a_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  const isa::RowKernelTable& t = *isa::active_row_table();

  for (int y = h; y < h + mesh_.ny; ++y) {
    const std::size_t b = static_cast<std::size_t>(y) * width +
                          static_cast<std::size_t>(h);
    row_a_[static_cast<std::size_t>(y - h)] = t.urp_row(
        u_, r_, p_, w_, b, b + static_cast<std::size_t>(nx), alpha,
        beta_prev);
  }

  return pairwise_sum(row_a_.data(), mesh_.ny);
}

double ReferenceKernels::fused_residual_norm() {
  const int h = mesh_.halo_depth;
  const int nx = mesh_.nx;
  const std::size_t width = static_cast<std::size_t>(mesh_.padded_nx());
  const double* u_ = data(FieldId::kU);
  const double* u0_ = data(FieldId::kU0);
  const double* kx_ = data(FieldId::kKx);
  const double* ky_ = data(FieldId::kKy);
  double* r_ = data(FieldId::kR);
  row_a_.assign(static_cast<std::size_t>(mesh_.ny), 0.0);
  const isa::RowKernelTable& t = *isa::active_row_table();

  for (int y = h; y < h + mesh_.ny; ++y) {
    const std::size_t b = static_cast<std::size_t>(y) * width +
                          static_cast<std::size_t>(h);
    row_a_[static_cast<std::size_t>(y - h)] = t.residual_row(
        u_, u0_, kx_, ky_, r_, b, b + static_cast<std::size_t>(nx),
        width);
  }

  return pairwise_sum(row_a_.data(), mesh_.ny);
}

void ReferenceKernels::cheby_fused_iterate(double alpha, double beta) {
  // Single sweep: the classic iterate needs two (the stencil must see the
  // pre-update u). Here the new u is written into the dead w scratch while
  // the stencil reads the old u, then the buffers are swapped — the solver
  // refreshes u's halo immediately afterwards, exactly as for the classic
  // path, so the stale halo in the swapped-in buffer is never observed.
  const int h = mesh_.halo_depth;
  const int nx = mesh_.nx;
  const std::size_t width = static_cast<std::size_t>(mesh_.padded_nx());
  const double* u_ = data(FieldId::kU);
  const double* u0_ = data(FieldId::kU0);
  const double* kx_ = data(FieldId::kKx);
  const double* ky_ = data(FieldId::kKy);
  double* r_ = data(FieldId::kR);
  double* p_ = data(FieldId::kP);
  double* un_ = data(FieldId::kW);
  const isa::RowKernelTable& t = *isa::active_row_table();

  for (int y = h; y < h + mesh_.ny; ++y) {
    const std::size_t b = static_cast<std::size_t>(y) * width +
                          static_cast<std::size_t>(h);
    t.cheby_row(u_, u0_, kx_, ky_, r_, p_, un_, b,
                b + static_cast<std::size_t>(nx), width, alpha, beta);
  }

  chunk_.swap_fields(FieldId::kU, FieldId::kW);
}

void ReferenceKernels::ppcg_fused_inner(double alpha, double beta) {
  // Same single-sweep trick as the Chebyshev iterate: the new sd goes into
  // the dead w scratch while the stencil reads the old sd; the solver
  // refreshes sd's halo right after. w is recomputed from scratch by the
  // next outer cg_calc_w, so clobbering it here is safe.
  const int h = mesh_.halo_depth;
  const int nx = mesh_.nx;
  const std::size_t width = static_cast<std::size_t>(mesh_.padded_nx());
  const double* sd_ = data(FieldId::kSd);
  const double* kx_ = data(FieldId::kKx);
  const double* ky_ = data(FieldId::kKy);
  double* u_ = data(FieldId::kU);
  double* r_ = data(FieldId::kR);
  double* sn_ = data(FieldId::kW);
  const isa::RowKernelTable& t = *isa::active_row_table();

  for (int y = h; y < h + mesh_.ny; ++y) {
    const std::size_t b = static_cast<std::size_t>(y) * width +
                          static_cast<std::size_t>(h);
    t.ppcg_row(sd_, kx_, ky_, u_, r_, sn_, b,
               b + static_cast<std::size_t>(nx), width, alpha, beta);
  }

  chunk_.swap_fields(FieldId::kSd, FieldId::kW);
}

void ReferenceKernels::jacobi_fused_copy_iterate() {
  // The copy sweep vanishes: swapping u into the w scratch makes w the
  // previous iterate (halo included — it was refreshed after the last
  // iterate), and the Jacobi sweep writes the new u over the swapped-in
  // buffer's interior. The solver refreshes u's halo right after.
  chunk_.swap_fields(FieldId::kU, FieldId::kW);
  const int h = mesh_.halo_depth;
  const int nx = mesh_.nx;
  const std::size_t width = static_cast<std::size_t>(mesh_.padded_nx());
  const double* u0_ = data(FieldId::kU0);
  const double* w_ = data(FieldId::kW);
  const double* kx_ = data(FieldId::kKx);
  const double* ky_ = data(FieldId::kKy);
  double* u_ = data(FieldId::kU);
  const isa::RowKernelTable& t = *isa::active_row_table();

  for (int y = h; y < h + mesh_.ny; ++y) {
    const std::size_t b = static_cast<std::size_t>(y) * width +
                          static_cast<std::size_t>(h);
    t.jacobi_row(u0_, w_, kx_, ky_, u_, b,
                 b + static_cast<std::size_t>(nx), width);
  }
}

}  // namespace tl::core
