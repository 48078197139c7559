#pragma once
// ISA dispatch for the fused row primitives.
//
// The hot sweeps in reference_kernels.cpp never call an ISA-specific function
// directly: they fetch a RowKernelTable once per sweep via active_row_table()
// and invoke its function pointers per row. The process runs the widest table
// the CPU can execute (AVX2, then SSE2, then scalar), picked once from CPUID
// at first use; nothing overrides that choice. Every table is bit-identical
// to the scalar one (tests/test_isa.cpp enforces this per primitive, per tail
// residue, on unaligned row starts, calling each table through row_table()),
// so the choice is a pure speed choice.
//
// The AVX2 table lives in fused_rows_avx2.cpp — the only translation unit
// compiled with -mavx2. It keeps every helper in an anonymous namespace (no
// header inlines) so no AVX-compiled symbol can leak into baseline code
// paths via the linker.

#include <cstddef>

#include "fused_rows.hpp"

namespace tl::core::isa {

/// Instruction sets the fused row primitives are specialised for, narrowest
/// first. On x86-64, kScalar and kSse2 are always available; kAvx2 depends
/// on the CPU. On other architectures only kScalar is available.
enum class Isa {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// One implementation set of every fused row primitive. All entries of all
/// tables are bit-identical; they differ only in vector width.
struct RowKernelTable {
  /// w = A p over one row: returns {p.w, w.w}.
  fused::RowDots (*w_row)(const double*, const double*, const double*,
                          double*, std::size_t, std::size_t, std::size_t);
  /// u += a p; r -= a w; p = r + bp p: returns r.r.
  double (*urp_row)(double*, double*, double*, const double*, std::size_t,
                    std::size_t, double, double);
  /// r = u0 - A u: returns r.r.
  double (*residual_row)(const double*, const double*, const double*,
                         const double*, double*, std::size_t, std::size_t,
                         std::size_t);
  /// Chebyshev fused row (u, u0, kx, ky, r, p, un, b, e, width, a, bt).
  void (*cheby_row)(const double*, const double*, const double*,
                    const double*, double*, double*, double*, std::size_t,
                    std::size_t, std::size_t, double, double);
  /// PPCG fused inner row (sd, kx, ky, u, r, sn, b, e, width, a, bt).
  void (*ppcg_row)(const double*, const double*, const double*, double*,
                   double*, double*, std::size_t, std::size_t, std::size_t,
                   double, double);
  /// Jacobi fused row (u0, w, kx, ky, u, b, e, width).
  void (*jacobi_row)(const double*, const double*, const double*,
                     const double*, double*, std::size_t, std::size_t,
                     std::size_t);
};

/// Canonical lower-case name ("scalar", "sse2", "avx2").
const char* isa_name(Isa isa);

/// The widest ISA whose row table this build can execute on this CPU.
/// Resolved once, at first call.
Isa active_isa();

/// Row table for the given ISA, or nullptr when it is unavailable in this
/// build / on this CPU. Scalar and (on x86-64) SSE2 are never null.
const RowKernelTable* row_table(Isa isa);

/// Row table for active_isa(); never null.
const RowKernelTable* active_row_table();

/// Defined in fused_rows_avx2.cpp; returns nullptr when the translation unit
/// was built without AVX2 support.
const RowKernelTable* avx2_row_table();

}  // namespace tl::core::isa
