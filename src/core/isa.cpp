#include "isa.hpp"

namespace tl::core::isa {

namespace {

const RowKernelTable kScalarTable = {
    &fused::fused_w_row_scalar,
    &fused::fused_urp_row_scalar,
    &fused::fused_residual_row_scalar,
    &fused::cheby_row_scalar,
    &fused::ppcg_row_scalar,
    &fused::jacobi_row_scalar,
};

#if TL_FUSED_SIMD
const RowKernelTable kSse2Table = {
    &fused::fused_w_row_simd,
    &fused::fused_urp_row_simd,
    &fused::fused_residual_row_simd,
    &fused::cheby_row_sse2,
    &fused::ppcg_row_sse2,
    &fused::jacobi_row_sse2,
};
#endif

bool cpu_has(Isa isa) {
#if defined(__x86_64__) || defined(_M_X64)
  switch (isa) {
    case Isa::kScalar:
    case Isa::kSse2:
      return true;  // SSE2 is part of the x86-64 baseline
    case Isa::kAvx2:
#if defined(__GNUC__) || defined(__clang__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "scalar";
}

Isa active_isa() {
  static const Isa best = row_table(Isa::kAvx2)   ? Isa::kAvx2
                          : row_table(Isa::kSse2) ? Isa::kSse2
                                                  : Isa::kScalar;
  return best;
}

const RowKernelTable* row_table(Isa isa) {
  if (!cpu_has(isa)) return nullptr;  // a table the CPU can't execute is
  switch (isa) {                      // as unavailable as an unbuilt one
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kSse2:
#if TL_FUSED_SIMD
      return &kSse2Table;
#else
      return nullptr;
#endif
    case Isa::kAvx2:
      return avx2_row_table();
  }
  return nullptr;
}

const RowKernelTable* active_row_table() { return row_table(active_isa()); }

}  // namespace tl::core::isa
