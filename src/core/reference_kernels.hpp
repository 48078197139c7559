#pragma once
// ReferenceKernels: the plain serial implementation of every TeaLeaf kernel.
//
// This is the correctness oracle: it performs no simulated-time metering
// (its clock stays at zero) and uses no programming-model API. Every port is
// tested kernel-by-kernel against it, and the solver drivers converge with
// it in the unit tests.
//
// The classic kernels stay deliberately simple (readable double loops over
// spans). The fused kernels are the measured hot path: one in-order pass
// over the rows with raw-pointer, lane-split inner loops, and reductions
// sliced per row and combined by a pairwise tree in row order.

#include <vector>

#include "core/kernels_api.hpp"
#include "core/mesh.hpp"

namespace tl::core {

class ReferenceKernels final : public SolverKernels {
 public:
  explicit ReferenceKernels(const Mesh& mesh);

  void upload_state(const Chunk& chunk) override;
  void init_u() override;
  void init_coefficients(Coefficient coefficient, double rx, double ry) override;
  void halo_update(unsigned fields, int depth) override;
  void calc_residual() override;
  double calc_2norm(NormTarget target) override;
  void finalise() override;
  FieldSummary field_summary() override;
  double cg_init() override;
  double cg_calc_w() override;
  double cg_calc_ur(double alpha) override;
  void cg_calc_p(double beta) override;
  void cheby_init(double theta) override;
  void cheby_iterate(double alpha, double beta) override;
  void ppcg_init_sd(double theta) override;
  void ppcg_inner(double alpha, double beta) override;
  void jacobi_copy_u() override;
  void jacobi_iterate() override;

  CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;
  void cheby_fused_iterate(double alpha, double beta) override;
  void ppcg_fused_inner(double alpha, double beta) override;
  void jacobi_fused_copy_iterate() override;

  // Meters nothing, so an armed launch split never fires and an overlapped
  // exchange settles with nothing hidden; advertised so a decomposed
  // reference run takes the same path as the metered omp3 port.
  bool overlaps_comm() const override { return true; }

  void read_u(tl::util::Span2D<double> out) override;
  void download_energy(Chunk& chunk) override;
  const tl::sim::SimClock& clock() const override { return clock_; }
  void begin_run(std::uint64_t) override { clock_.reset(); }

  // Elastic per-row reductions: when enabled, the classic reduction kernels
  // (calc_2norm, cg_init, cg_calc_w, cg_calc_ur, field_summary) accumulate
  // one partial per interior row (sequential in x) and publish them via
  // row_partials(); the scalar they return is the pairwise tree fold over
  // the local rows. The distributed layer re-folds the *global* row vector,
  // making results bit-identical across any row-strip split.
  bool set_row_reductions(bool on) override;
  std::span<const double> row_partials() const override;

  /// Direct field access for tests.
  tl::util::Span2D<double> field(FieldId f) { return chunk_.field(f); }
  tl::util::Span2D<double> field_view(FieldId f) override {
    return chunk_.field(f);
  }

 private:
  double* data(FieldId f) { return chunk_.field(f).data(); }

  Mesh mesh_;
  Chunk chunk_;
  tl::sim::SimClock clock_;
  // Per-row reduction slots for the fused kernels (pw/rw/ww reuse all three;
  // single-sum kernels use the first).
  std::vector<double> row_a_, row_b_, row_c_;

  /// Pairwise-folds the `k` blocks of ny partials currently in
  /// `row_partials_` (via a scratch copy — the published partials stay
  /// pristine) and returns the fold of block `block`.
  double fold_rows(int k, int block = 0);

  bool row_mode_ = false;
  std::vector<double> row_partials_;  // k blocks of ny, row-major per block
  std::vector<double> fold_scratch_;
};

// ---------------------------------------------------------------------------
// The kernel maths as free functions over spans: ReferenceKernels calls
// these; tests use them to cross-check port kernels on arbitrary data.
// All functions iterate the interior [h, h+n) x [h, h+n).
// ---------------------------------------------------------------------------
namespace ref {

using Span = tl::util::Span2D<double>;
using CSpan = tl::util::Span2D<const double>;

void init_u(const Mesh& m, CSpan density, CSpan energy0, Span u, Span u0);
void init_coefficients(const Mesh& m, Coefficient coefficient, double rx,
                       double ry, CSpan density, Span kx, Span ky);

/// (A v)(x,y) with the pre-scaled face coefficients.
double apply_stencil(CSpan v, CSpan kx, CSpan ky, int x, int y);

void calc_residual(const Mesh& m, CSpan u, CSpan u0, CSpan kx, CSpan ky, Span r);
double calc_2norm(const Mesh& m, CSpan v);
void finalise(const Mesh& m, CSpan u, CSpan density, Span energy);
FieldSummary field_summary(const Mesh& m, CSpan density, CSpan energy0, CSpan u);

double cg_init(const Mesh& m, CSpan u, CSpan u0, CSpan kx, CSpan ky, Span w,
               Span r, Span p);
double cg_calc_w(const Mesh& m, CSpan p, CSpan kx, CSpan ky, Span w);
double cg_calc_ur(const Mesh& m, double alpha, CSpan p, CSpan w, Span u, Span r);
void cg_calc_p(const Mesh& m, double beta, CSpan r, Span p);

void cheby_init(const Mesh& m, double theta, CSpan r, Span p, Span u);
/// The Chebyshev iterate is these two sweeps in order: the u update must
/// follow the whole residual sweep, whose stencil reads neighbouring u.
/// r = u0 - A u; p = alpha p + beta r.
void cheby_calc_p(const Mesh& m, double alpha, double beta, CSpan u0,
                  CSpan kx, CSpan ky, CSpan u, Span r, Span p);
/// u += p.
void cheby_calc_u(const Mesh& m, CSpan p, Span u);

void ppcg_init_sd(const Mesh& m, double theta, CSpan r, Span sd);
/// The PPCG inner step is these two sweeps in order: the stencil must see
/// the pre-update sd, and the recurrence reads the fresh residual.
/// r -= A sd; u += sd.
void ppcg_inner_ru(const Mesh& m, CSpan kx, CSpan ky, CSpan sd, Span u,
                   Span r);
/// sd = alpha sd + beta r.
void ppcg_inner_sd(const Mesh& m, double alpha, double beta, CSpan r, Span sd);

void jacobi_copy_u(const Mesh& m, CSpan u, Span w);
void jacobi_iterate(const Mesh& m, CSpan u0, CSpan w, CSpan kx, CSpan ky,
                    Span u);

}  // namespace ref

}  // namespace tl::core
