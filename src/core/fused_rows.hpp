#pragma once
// Row primitives for the fused reference kernels' hot sweeps.
//
// Each function processes one padded row [b, e) of a field with raw
// __restrict pointers. Every dot product accumulates into four fixed chains
// c = (element index in row) & 3, combined as (c0 + c2) + (c1 + c3) — the
// chain a value lands in depends only on its position, never on the code
// path, so the two implementations below are bit-identical:
//
//   * `*_simd`   — x86-64 SSE2 (baseline ISA, always present on x86-64):
//                  chains {0,1} and {2,3} live in the two lanes of a pair of
//                  128-bit accumulators; one vector add per two elements
//                  halves the instruction stream of these load-bound loops.
//   * `*_scalar` — portable fallback with the identical chain assignment
//                  and per-element association.
//
// The wider AVX2 implementation (the four chains in one 256-bit
// accumulator) lives in fused_rows_avx2.cpp, compiled with its own ISA
// flags, and is reached only through the dispatch table in core/isa.hpp —
// callers never include ISA-specific code. tests/test_isa.cpp asserts every
// table entry of every available ISA bit-identical to the scalar one.
// Per-element arithmetic follows each consuming kernel's exact association
// — apply_stencil's (diag = 1 + kxr + kxl + kyt + kyb) for the matvec rows,
// the fused iterates' (diag = 1 + kxl + kxr + kyb + kyt) for the
// cheby/ppcg/jacobi rows — so the fused results track the classic kernels
// bit-for-bit per path. No FMA contraction happens on any path: SSE2 has no
// FMA, and the AVX2 TU is compiled with -mno-fma -ffp-contract=off, keeping
// all builds reproducible across gcc and clang.

#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#define TL_FUSED_SIMD 1
#else
#define TL_FUSED_SIMD 0
#endif

namespace tl::core::fused {

struct RowDots {
  double pw = 0.0;
  double ww = 0.0;
};

/// Scalar 5-point stencil at flat index i (apply_stencil's association).
inline double stencil_at(const double* __restrict v,
                         const double* __restrict kx,
                         const double* __restrict ky, std::size_t i,
                         std::size_t width) {
  const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
  return diag * v[i] - kx[i + 1] * v[i + 1] - kx[i] * v[i - 1] -
         ky[i + width] * v[i + width] - ky[i] * v[i - width];
}

/// Combines the four dot-product chains in the fixed (c0+c2)+(c1+c3) order.
inline double combine_chains(const double* c) {
  return (c[0] + c[2]) + (c[1] + c[3]);
}

// -- Portable fallback ------------------------------------------------------

/// w = A p over one row [b, e): returns {p.w, w.w}.
inline RowDots fused_w_row_scalar(const double* __restrict p,
                                  const double* __restrict kx,
                                  const double* __restrict ky,
                                  double* __restrict w, std::size_t b,
                                  std::size_t e, std::size_t width) {
  double cpw[4] = {0.0, 0.0, 0.0, 0.0};
  double cww[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    for (std::size_t c = 0; c < 4; ++c) {
      const double ap = stencil_at(p, kx, ky, i + c, width);
      w[i + c] = ap;
      cpw[c] += ap * p[i + c];
      cww[c] += ap * ap;
    }
  }
  for (; i < e; ++i) {  // tail keeps the positional chain assignment
    const double ap = stencil_at(p, kx, ky, i, width);
    w[i] = ap;
    cpw[(i - b) & 3] += ap * p[i];
    cww[(i - b) & 3] += ap * ap;
  }
  return RowDots{combine_chains(cpw), combine_chains(cww)};
}

/// u += a p; r -= a w; p = r_new + bp p over one row [b, e): returns r.r.
inline double fused_urp_row_scalar(double* __restrict u, double* __restrict r,
                                   double* __restrict p,
                                   const double* __restrict w, std::size_t b,
                                   std::size_t e, double a, double bp) {
  double crr[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    for (std::size_t c = 0; c < 4; ++c) {
      u[i + c] += a * p[i + c];
      const double res = r[i + c] - a * w[i + c];
      r[i + c] = res;
      p[i + c] = res + bp * p[i + c];
      crr[c] += res * res;
    }
  }
  for (; i < e; ++i) {
    u[i] += a * p[i];
    const double res = r[i] - a * w[i];
    r[i] = res;
    p[i] = res + bp * p[i];
    crr[(i - b) & 3] += res * res;
  }
  return combine_chains(crr);
}

/// r = u0 - A u over one row [b, e): returns r.r.
inline double fused_residual_row_scalar(
    const double* __restrict u, const double* __restrict u0,
    const double* __restrict kx, const double* __restrict ky,
    double* __restrict r, std::size_t b, std::size_t e, std::size_t width) {
  double crr[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    for (std::size_t c = 0; c < 4; ++c) {
      const double res = u0[i + c] - stencil_at(u, kx, ky, i + c, width);
      r[i + c] = res;
      crr[c] += res * res;
    }
  }
  for (; i < e; ++i) {
    const double res = u0[i] - stencil_at(u, kx, ky, i, width);
    r[i] = res;
    crr[(i - b) & 3] += res * res;
  }
  return combine_chains(crr);
}

/// Scalar 5-point stencil with the fused iterates' diag association
/// (diag = 1 + kxl + kxr + kyb + kyt — the cheby/ppcg loop bodies' order,
/// which differs from stencil_at's; both are preserved exactly per kernel).
inline double stencil_at_fused(const double* __restrict v,
                               const double* __restrict kx,
                               const double* __restrict ky, std::size_t i,
                               std::size_t width) {
  const double kxl = kx[i], kxr = kx[i + 1];
  const double kyb = ky[i], kyt = ky[i + width];
  return (1.0 + kxl + kxr + kyb + kyt) * v[i] - kxr * v[i + 1] -
         kxl * v[i - 1] - kyt * v[i + width] - kyb * v[i - width];
}

/// Chebyshev fused row: r = u0 - A u, p = a p + bt r, un = u + p (un is the
/// w scratch; the caller swaps u <-> w after the sweep). No reduction.
inline void cheby_row_scalar(const double* __restrict u,
                             const double* __restrict u0,
                             const double* __restrict kx,
                             const double* __restrict ky, double* __restrict r,
                             double* __restrict p, double* __restrict un,
                             std::size_t b, std::size_t e, std::size_t width,
                             double a, double bt) {
  for (std::size_t i = b; i < e; ++i) {
    const double res = u0[i] - stencil_at_fused(u, kx, ky, i, width);
    r[i] = res;
    const double pn = a * p[i] + bt * res;
    p[i] = pn;
    un[i] = u[i] + pn;
  }
}

/// PPCG fused inner row: r -= A sd, u += sd, sn = a sd + bt r (sn is the w
/// scratch; the caller swaps sd <-> w after the sweep). No reduction.
inline void ppcg_row_scalar(const double* __restrict sd,
                            const double* __restrict kx,
                            const double* __restrict ky, double* __restrict u,
                            double* __restrict r, double* __restrict sn,
                            std::size_t b, std::size_t e, std::size_t width,
                            double a, double bt) {
  for (std::size_t i = b; i < e; ++i) {
    const double rn = r[i] - stencil_at_fused(sd, kx, ky, i, width);
    r[i] = rn;
    u[i] += sd[i];
    sn[i] = a * sd[i] + bt * rn;
  }
}

/// Jacobi fused row: u = (u0 + k.w neighbours) / diag, w the previous
/// iterate (the numerator's left-to-right association is the kernel's).
inline void jacobi_row_scalar(const double* __restrict u0,
                              const double* __restrict w,
                              const double* __restrict kx,
                              const double* __restrict ky,
                              double* __restrict u, std::size_t b,
                              std::size_t e, std::size_t width) {
  for (std::size_t i = b; i < e; ++i) {
    const double kxl = kx[i], kxr = kx[i + 1];
    const double kyb = ky[i], kyt = ky[i + width];
    const double diag = 1.0 + kxl + kxr + kyb + kyt;
    u[i] = (u0[i] + kxr * w[i + 1] + kxl * w[i - 1] + kyt * w[i + width] +
            kyb * w[i - width]) /
           diag;
  }
}

// -- SSE2 -------------------------------------------------------------------

#if TL_FUSED_SIMD

/// 5-point stencil for the two elements at flat indices {i, i+1}; each lane
/// evaluates exactly the stencil_at expression (mul and sub stay separate
/// ops — SSE2 cannot contract them).
inline __m128d stencil2(const double* __restrict v,
                        const double* __restrict kx,
                        const double* __restrict ky, std::size_t i,
                        std::size_t width) {
  const __m128d kxr = _mm_loadu_pd(kx + i + 1);
  const __m128d kxl = _mm_loadu_pd(kx + i);
  const __m128d kyt = _mm_loadu_pd(ky + i + width);
  const __m128d kyb = _mm_loadu_pd(ky + i);
  const __m128d diag = _mm_add_pd(
      _mm_add_pd(_mm_add_pd(_mm_add_pd(_mm_set1_pd(1.0), kxr), kxl), kyt),
      kyb);
  __m128d ap = _mm_mul_pd(diag, _mm_loadu_pd(v + i));
  ap = _mm_sub_pd(ap, _mm_mul_pd(kxr, _mm_loadu_pd(v + i + 1)));
  ap = _mm_sub_pd(ap, _mm_mul_pd(kxl, _mm_loadu_pd(v + i - 1)));
  ap = _mm_sub_pd(ap, _mm_mul_pd(kyt, _mm_loadu_pd(v + i + width)));
  ap = _mm_sub_pd(ap, _mm_mul_pd(kyb, _mm_loadu_pd(v + i - width)));
  return ap;
}

inline RowDots fused_w_row_simd(const double* __restrict p,
                                const double* __restrict kx,
                                const double* __restrict ky,
                                double* __restrict w, std::size_t b,
                                std::size_t e, std::size_t width) {
  double cpw[4], cww[4];
  __m128d pw01 = _mm_setzero_pd(), pw23 = _mm_setzero_pd();
  __m128d ww01 = _mm_setzero_pd(), ww23 = _mm_setzero_pd();
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m128d ap01 = stencil2(p, kx, ky, i, width);
    const __m128d ap23 = stencil2(p, kx, ky, i + 2, width);
    _mm_storeu_pd(w + i, ap01);
    _mm_storeu_pd(w + i + 2, ap23);
    pw01 = _mm_add_pd(pw01, _mm_mul_pd(ap01, _mm_loadu_pd(p + i)));
    pw23 = _mm_add_pd(pw23, _mm_mul_pd(ap23, _mm_loadu_pd(p + i + 2)));
    ww01 = _mm_add_pd(ww01, _mm_mul_pd(ap01, ap01));
    ww23 = _mm_add_pd(ww23, _mm_mul_pd(ap23, ap23));
  }
  _mm_storeu_pd(cpw, pw01);
  _mm_storeu_pd(cpw + 2, pw23);
  _mm_storeu_pd(cww, ww01);
  _mm_storeu_pd(cww + 2, ww23);
  for (; i < e; ++i) {
    const double ap = stencil_at(p, kx, ky, i, width);
    w[i] = ap;
    cpw[(i - b) & 3] += ap * p[i];
    cww[(i - b) & 3] += ap * ap;
  }
  return RowDots{combine_chains(cpw), combine_chains(cww)};
}

inline double fused_urp_row_simd(double* __restrict u, double* __restrict r,
                                 double* __restrict p,
                                 const double* __restrict w, std::size_t b,
                                 std::size_t e, double a, double bp) {
  double crr[4];
  const __m128d av = _mm_set1_pd(a);
  const __m128d bpv = _mm_set1_pd(bp);
  __m128d rr01 = _mm_setzero_pd(), rr23 = _mm_setzero_pd();
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m128d p01 = _mm_loadu_pd(p + i);
    const __m128d p23 = _mm_loadu_pd(p + i + 2);
    _mm_storeu_pd(u + i,
                  _mm_add_pd(_mm_loadu_pd(u + i), _mm_mul_pd(av, p01)));
    _mm_storeu_pd(u + i + 2,
                  _mm_add_pd(_mm_loadu_pd(u + i + 2), _mm_mul_pd(av, p23)));
    const __m128d r01 =
        _mm_sub_pd(_mm_loadu_pd(r + i), _mm_mul_pd(av, _mm_loadu_pd(w + i)));
    const __m128d r23 = _mm_sub_pd(_mm_loadu_pd(r + i + 2),
                                   _mm_mul_pd(av, _mm_loadu_pd(w + i + 2)));
    _mm_storeu_pd(r + i, r01);
    _mm_storeu_pd(r + i + 2, r23);
    _mm_storeu_pd(p + i, _mm_add_pd(r01, _mm_mul_pd(bpv, p01)));
    _mm_storeu_pd(p + i + 2, _mm_add_pd(r23, _mm_mul_pd(bpv, p23)));
    rr01 = _mm_add_pd(rr01, _mm_mul_pd(r01, r01));
    rr23 = _mm_add_pd(rr23, _mm_mul_pd(r23, r23));
  }
  _mm_storeu_pd(crr, rr01);
  _mm_storeu_pd(crr + 2, rr23);
  for (; i < e; ++i) {
    u[i] += a * p[i];
    const double res = r[i] - a * w[i];
    r[i] = res;
    p[i] = res + bp * p[i];
    crr[(i - b) & 3] += res * res;
  }
  return combine_chains(crr);
}

inline double fused_residual_row_simd(
    const double* __restrict u, const double* __restrict u0,
    const double* __restrict kx, const double* __restrict ky,
    double* __restrict r, std::size_t b, std::size_t e, std::size_t width) {
  double crr[4];
  __m128d rr01 = _mm_setzero_pd(), rr23 = _mm_setzero_pd();
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m128d r01 =
        _mm_sub_pd(_mm_loadu_pd(u0 + i), stencil2(u, kx, ky, i, width));
    const __m128d r23 = _mm_sub_pd(_mm_loadu_pd(u0 + i + 2),
                                   stencil2(u, kx, ky, i + 2, width));
    _mm_storeu_pd(r + i, r01);
    _mm_storeu_pd(r + i + 2, r23);
    rr01 = _mm_add_pd(rr01, _mm_mul_pd(r01, r01));
    rr23 = _mm_add_pd(rr23, _mm_mul_pd(r23, r23));
  }
  _mm_storeu_pd(crr, rr01);
  _mm_storeu_pd(crr + 2, rr23);
  for (; i < e; ++i) {
    const double res = u0[i] - stencil_at(u, kx, ky, i, width);
    r[i] = res;
    crr[(i - b) & 3] += res * res;
  }
  return combine_chains(crr);
}

/// SSE2 stencil pair with the fused iterates' diag association (the SIMD
/// twin of stencil_at_fused, as stencil2 is of stencil_at).
inline __m128d stencil2_fused(const double* __restrict v,
                              const double* __restrict kx,
                              const double* __restrict ky, std::size_t i,
                              std::size_t width) {
  const __m128d kxl = _mm_loadu_pd(kx + i);
  const __m128d kxr = _mm_loadu_pd(kx + i + 1);
  const __m128d kyb = _mm_loadu_pd(ky + i);
  const __m128d kyt = _mm_loadu_pd(ky + i + width);
  const __m128d diag = _mm_add_pd(
      _mm_add_pd(_mm_add_pd(_mm_add_pd(_mm_set1_pd(1.0), kxl), kxr), kyb),
      kyt);
  __m128d av = _mm_mul_pd(diag, _mm_loadu_pd(v + i));
  av = _mm_sub_pd(av, _mm_mul_pd(kxr, _mm_loadu_pd(v + i + 1)));
  av = _mm_sub_pd(av, _mm_mul_pd(kxl, _mm_loadu_pd(v + i - 1)));
  av = _mm_sub_pd(av, _mm_mul_pd(kyt, _mm_loadu_pd(v + i + width)));
  av = _mm_sub_pd(av, _mm_mul_pd(kyb, _mm_loadu_pd(v + i - width)));
  return av;
}

inline void cheby_row_sse2(const double* __restrict u,
                           const double* __restrict u0,
                           const double* __restrict kx,
                           const double* __restrict ky, double* __restrict r,
                           double* __restrict p, double* __restrict un,
                           std::size_t b, std::size_t e, std::size_t width,
                           double a, double bt) {
  const __m128d av = _mm_set1_pd(a);
  const __m128d btv = _mm_set1_pd(bt);
  std::size_t i = b;
  for (; i + 2 <= e; i += 2) {
    const __m128d res =
        _mm_sub_pd(_mm_loadu_pd(u0 + i), stencil2_fused(u, kx, ky, i, width));
    _mm_storeu_pd(r + i, res);
    const __m128d pn = _mm_add_pd(_mm_mul_pd(av, _mm_loadu_pd(p + i)),
                                  _mm_mul_pd(btv, res));
    _mm_storeu_pd(p + i, pn);
    _mm_storeu_pd(un + i, _mm_add_pd(_mm_loadu_pd(u + i), pn));
  }
  if (i < e) cheby_row_scalar(u, u0, kx, ky, r, p, un, i, e, width, a, bt);
}

inline void ppcg_row_sse2(const double* __restrict sd,
                          const double* __restrict kx,
                          const double* __restrict ky, double* __restrict u,
                          double* __restrict r, double* __restrict sn,
                          std::size_t b, std::size_t e, std::size_t width,
                          double a, double bt) {
  const __m128d av = _mm_set1_pd(a);
  const __m128d btv = _mm_set1_pd(bt);
  std::size_t i = b;
  for (; i + 2 <= e; i += 2) {
    const __m128d sdv = _mm_loadu_pd(sd + i);
    const __m128d rn =
        _mm_sub_pd(_mm_loadu_pd(r + i), stencil2_fused(sd, kx, ky, i, width));
    _mm_storeu_pd(r + i, rn);
    _mm_storeu_pd(u + i, _mm_add_pd(_mm_loadu_pd(u + i), sdv));
    _mm_storeu_pd(sn + i,
                  _mm_add_pd(_mm_mul_pd(av, sdv), _mm_mul_pd(btv, rn)));
  }
  if (i < e) ppcg_row_scalar(sd, kx, ky, u, r, sn, i, e, width, a, bt);
}

inline void jacobi_row_sse2(const double* __restrict u0,
                            const double* __restrict w,
                            const double* __restrict kx,
                            const double* __restrict ky, double* __restrict u,
                            std::size_t b, std::size_t e, std::size_t width) {
  std::size_t i = b;
  for (; i + 2 <= e; i += 2) {
    const __m128d kxl = _mm_loadu_pd(kx + i);
    const __m128d kxr = _mm_loadu_pd(kx + i + 1);
    const __m128d kyb = _mm_loadu_pd(ky + i);
    const __m128d kyt = _mm_loadu_pd(ky + i + width);
    const __m128d diag = _mm_add_pd(
        _mm_add_pd(_mm_add_pd(_mm_add_pd(_mm_set1_pd(1.0), kxl), kxr), kyb),
        kyt);
    __m128d num = _mm_add_pd(_mm_loadu_pd(u0 + i),
                             _mm_mul_pd(kxr, _mm_loadu_pd(w + i + 1)));
    num = _mm_add_pd(num, _mm_mul_pd(kxl, _mm_loadu_pd(w + i - 1)));
    num = _mm_add_pd(num, _mm_mul_pd(kyt, _mm_loadu_pd(w + i + width)));
    num = _mm_add_pd(num, _mm_mul_pd(kyb, _mm_loadu_pd(w + i - width)));
    _mm_storeu_pd(u + i, _mm_div_pd(num, diag));
  }
  if (i < e) jacobi_row_scalar(u0, w, kx, ky, u, i, e, width);
}

#endif  // TL_FUSED_SIMD

// Callers reach these through the ISA table: they fetch the active
// implementation set once per sweep via isa::active_row_table()
// (core/isa.hpp), which picks the widest of scalar/SSE2/AVX2 the CPU runs,
// once, from CPUID. All entries of every table are bit-identical to the
// `_scalar` functions above.

}  // namespace tl::core::fused
