// AVX2 row kernel table. This is the only translation unit compiled with
// AVX flags (-mavx2 -mno-fma -ffp-contract=off); everything here lives
// in an anonymous namespace — including private scalar-tail copies of the
// stencil helpers — so no AVX2-compiled symbol with external (weak) linkage
// can be selected by the linker into baseline code paths. The table is
// reached only through core/isa.hpp's runtime dispatch, which verifies CPUID
// support before handing it out.
//
// Bit-identity scheme: the four positional accumulation chains c = (i-b) & 3
// map one-to-one onto the four lanes of a single 256-bit accumulator, so one
// vector add per 4-element group performs exactly the per-chain add the
// scalar path performs — same addends, same order. Tails fall back to the
// positional scalar loop. Chains combine in the fixed (c0+c2)+(c1+c3) order.

#include "isa.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace tl::core::isa {
namespace {

using fused::RowDots;

double combine4(const double* c) { return (c[0] + c[2]) + (c[1] + c[3]); }

// Scalar tail helpers: private copies of fused_rows.hpp's stencil_at /
// stencil_at_fused (kept local so this TU never odr-uses a header inline).
double stencil_at_s(const double* __restrict v, const double* __restrict kx,
                    const double* __restrict ky, std::size_t i,
                    std::size_t width) {
  const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
  return diag * v[i] - kx[i + 1] * v[i + 1] - kx[i] * v[i - 1] -
         ky[i + width] * v[i + width] - ky[i] * v[i - width];
}

double stencil_at_fused_s(const double* __restrict v,
                          const double* __restrict kx,
                          const double* __restrict ky, std::size_t i,
                          std::size_t width) {
  const double kxl = kx[i], kxr = kx[i + 1];
  const double kyb = ky[i], kyt = ky[i + width];
  return (1.0 + kxl + kxr + kyb + kyt) * v[i] - kxr * v[i + 1] -
         kxl * v[i - 1] - kyt * v[i + width] - kyb * v[i - width];
}

/// 5-point stencil for four consecutive elements, apply_stencil association
/// (diag = ((((1 + kxr) + kxl) + kyt) + kyb)) replicated per lane.
__m256d stencil4(const double* __restrict v, const double* __restrict kx,
                 const double* __restrict ky, std::size_t i,
                 std::size_t width) {
  const __m256d kxr = _mm256_loadu_pd(kx + i + 1);
  const __m256d kxl = _mm256_loadu_pd(kx + i);
  const __m256d kyt = _mm256_loadu_pd(ky + i + width);
  const __m256d kyb = _mm256_loadu_pd(ky + i);
  const __m256d diag = _mm256_add_pd(
      _mm256_add_pd(
          _mm256_add_pd(_mm256_add_pd(_mm256_set1_pd(1.0), kxr), kxl), kyt),
      kyb);
  __m256d ap = _mm256_mul_pd(diag, _mm256_loadu_pd(v + i));
  ap = _mm256_sub_pd(ap, _mm256_mul_pd(kxr, _mm256_loadu_pd(v + i + 1)));
  ap = _mm256_sub_pd(ap, _mm256_mul_pd(kxl, _mm256_loadu_pd(v + i - 1)));
  ap = _mm256_sub_pd(ap, _mm256_mul_pd(kyt, _mm256_loadu_pd(v + i + width)));
  ap = _mm256_sub_pd(ap, _mm256_mul_pd(kyb, _mm256_loadu_pd(v + i - width)));
  return ap;
}

/// Same, with the fused iterates' association (diag = 1 + kxl + kxr + kyb +
/// kyt) for the cheby/ppcg rows.
__m256d stencil4_fused(const double* __restrict v, const double* __restrict kx,
                       const double* __restrict ky, std::size_t i,
                       std::size_t width) {
  const __m256d kxl = _mm256_loadu_pd(kx + i);
  const __m256d kxr = _mm256_loadu_pd(kx + i + 1);
  const __m256d kyb = _mm256_loadu_pd(ky + i);
  const __m256d kyt = _mm256_loadu_pd(ky + i + width);
  const __m256d diag = _mm256_add_pd(
      _mm256_add_pd(
          _mm256_add_pd(_mm256_add_pd(_mm256_set1_pd(1.0), kxl), kxr), kyb),
      kyt);
  __m256d av = _mm256_mul_pd(diag, _mm256_loadu_pd(v + i));
  av = _mm256_sub_pd(av, _mm256_mul_pd(kxr, _mm256_loadu_pd(v + i + 1)));
  av = _mm256_sub_pd(av, _mm256_mul_pd(kxl, _mm256_loadu_pd(v + i - 1)));
  av = _mm256_sub_pd(av, _mm256_mul_pd(kyt, _mm256_loadu_pd(v + i + width)));
  av = _mm256_sub_pd(av, _mm256_mul_pd(kyb, _mm256_loadu_pd(v + i - width)));
  return av;
}

RowDots w_row(const double* __restrict p, const double* __restrict kx,
              const double* __restrict ky, double* __restrict w,
              std::size_t b, std::size_t e, std::size_t width) {
  double cpw[4], cww[4];
  __m256d pw = _mm256_setzero_pd(), ww = _mm256_setzero_pd();
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m256d ap = stencil4(p, kx, ky, i, width);
    _mm256_storeu_pd(w + i, ap);
    pw = _mm256_add_pd(pw, _mm256_mul_pd(ap, _mm256_loadu_pd(p + i)));
    ww = _mm256_add_pd(ww, _mm256_mul_pd(ap, ap));
  }
  _mm256_storeu_pd(cpw, pw);
  _mm256_storeu_pd(cww, ww);
  for (; i < e; ++i) {
    const double ap = stencil_at_s(p, kx, ky, i, width);
    w[i] = ap;
    cpw[(i - b) & 3] += ap * p[i];
    cww[(i - b) & 3] += ap * ap;
  }
  return RowDots{combine4(cpw), combine4(cww)};
}

double urp_row(double* __restrict u, double* __restrict r,
               double* __restrict p, const double* __restrict w,
               std::size_t b, std::size_t e, double a, double bp) {
  double crr[4];
  const __m256d av = _mm256_set1_pd(a);
  const __m256d bpv = _mm256_set1_pd(bp);
  __m256d rr = _mm256_setzero_pd();
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m256d pv = _mm256_loadu_pd(p + i);
    _mm256_storeu_pd(
        u + i, _mm256_add_pd(_mm256_loadu_pd(u + i), _mm256_mul_pd(av, pv)));
    const __m256d res = _mm256_sub_pd(
        _mm256_loadu_pd(r + i), _mm256_mul_pd(av, _mm256_loadu_pd(w + i)));
    _mm256_storeu_pd(r + i, res);
    _mm256_storeu_pd(p + i, _mm256_add_pd(res, _mm256_mul_pd(bpv, pv)));
    rr = _mm256_add_pd(rr, _mm256_mul_pd(res, res));
  }
  _mm256_storeu_pd(crr, rr);
  for (; i < e; ++i) {
    u[i] += a * p[i];
    const double res = r[i] - a * w[i];
    r[i] = res;
    p[i] = res + bp * p[i];
    crr[(i - b) & 3] += res * res;
  }
  return combine4(crr);
}

double residual_row(const double* __restrict u, const double* __restrict u0,
                    const double* __restrict kx, const double* __restrict ky,
                    double* __restrict r, std::size_t b, std::size_t e,
                    std::size_t width) {
  double crr[4];
  __m256d rr = _mm256_setzero_pd();
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m256d res =
        _mm256_sub_pd(_mm256_loadu_pd(u0 + i), stencil4(u, kx, ky, i, width));
    _mm256_storeu_pd(r + i, res);
    rr = _mm256_add_pd(rr, _mm256_mul_pd(res, res));
  }
  _mm256_storeu_pd(crr, rr);
  for (; i < e; ++i) {
    const double res = u0[i] - stencil_at_s(u, kx, ky, i, width);
    r[i] = res;
    crr[(i - b) & 3] += res * res;
  }
  return combine4(crr);
}

void cheby_row(const double* __restrict u, const double* __restrict u0,
               const double* __restrict kx, const double* __restrict ky,
               double* __restrict r, double* __restrict p,
               double* __restrict un, std::size_t b, std::size_t e,
               std::size_t width, double a, double bt) {
  const __m256d av = _mm256_set1_pd(a);
  const __m256d btv = _mm256_set1_pd(bt);
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m256d res = _mm256_sub_pd(_mm256_loadu_pd(u0 + i),
                                      stencil4_fused(u, kx, ky, i, width));
    _mm256_storeu_pd(r + i, res);
    const __m256d pn = _mm256_add_pd(
        _mm256_mul_pd(av, _mm256_loadu_pd(p + i)), _mm256_mul_pd(btv, res));
    _mm256_storeu_pd(p + i, pn);
    _mm256_storeu_pd(un + i, _mm256_add_pd(_mm256_loadu_pd(u + i), pn));
  }
  for (; i < e; ++i) {
    const double res = u0[i] - stencil_at_fused_s(u, kx, ky, i, width);
    r[i] = res;
    const double pn = a * p[i] + bt * res;
    p[i] = pn;
    un[i] = u[i] + pn;
  }
}

void ppcg_row(const double* __restrict sd, const double* __restrict kx,
              const double* __restrict ky, double* __restrict u,
              double* __restrict r, double* __restrict sn, std::size_t b,
              std::size_t e, std::size_t width, double a, double bt) {
  const __m256d av = _mm256_set1_pd(a);
  const __m256d btv = _mm256_set1_pd(bt);
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m256d sdv = _mm256_loadu_pd(sd + i);
    const __m256d rn = _mm256_sub_pd(_mm256_loadu_pd(r + i),
                                     stencil4_fused(sd, kx, ky, i, width));
    _mm256_storeu_pd(r + i, rn);
    _mm256_storeu_pd(u + i, _mm256_add_pd(_mm256_loadu_pd(u + i), sdv));
    _mm256_storeu_pd(
        sn + i, _mm256_add_pd(_mm256_mul_pd(av, sdv), _mm256_mul_pd(btv, rn)));
  }
  for (; i < e; ++i) {
    const double rn = r[i] - stencil_at_fused_s(sd, kx, ky, i, width);
    r[i] = rn;
    u[i] += sd[i];
    sn[i] = a * sd[i] + bt * rn;
  }
}

void jacobi_row(const double* __restrict u0, const double* __restrict w,
                const double* __restrict kx, const double* __restrict ky,
                double* __restrict u, std::size_t b, std::size_t e,
                std::size_t width) {
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m256d kxl = _mm256_loadu_pd(kx + i);
    const __m256d kxr = _mm256_loadu_pd(kx + i + 1);
    const __m256d kyb = _mm256_loadu_pd(ky + i);
    const __m256d kyt = _mm256_loadu_pd(ky + i + width);
    const __m256d diag = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(_mm256_set1_pd(1.0), kxl), kxr), kyb),
        kyt);
    __m256d num = _mm256_add_pd(
        _mm256_loadu_pd(u0 + i),
        _mm256_mul_pd(kxr, _mm256_loadu_pd(w + i + 1)));
    num = _mm256_add_pd(num, _mm256_mul_pd(kxl, _mm256_loadu_pd(w + i - 1)));
    num = _mm256_add_pd(num,
                        _mm256_mul_pd(kyt, _mm256_loadu_pd(w + i + width)));
    num = _mm256_add_pd(num,
                        _mm256_mul_pd(kyb, _mm256_loadu_pd(w + i - width)));
    _mm256_storeu_pd(u + i, _mm256_div_pd(num, diag));
  }
  for (; i < e; ++i) {
    const double kxl = kx[i], kxr = kx[i + 1];
    const double kyb = ky[i], kyt = ky[i + width];
    const double diag = 1.0 + kxl + kxr + kyb + kyt;
    u[i] = (u0[i] + kxr * w[i + 1] + kxl * w[i - 1] + kyt * w[i + width] +
            kyb * w[i - width]) /
           diag;
  }
}

const RowKernelTable kAvx2Table = {
    &w_row, &urp_row, &residual_row, &cheby_row, &ppcg_row, &jacobi_row,
};

}  // namespace

const RowKernelTable* avx2_row_table() { return &kAvx2Table; }

}  // namespace tl::core::isa

#else  // !__AVX2__: toolchain can't target AVX2 — dispatch skips this table

namespace tl::core::isa {
const RowKernelTable* avx2_row_table() { return nullptr; }
}  // namespace tl::core::isa

#endif
