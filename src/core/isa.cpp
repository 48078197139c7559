#include "isa.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace tl::core::isa {

namespace {

const RowKernelTable kScalarTable = {
    &fused::fused_w_row_scalar,
    &fused::fused_w_row_dots,
    &fused::fused_urp_row_scalar,
    &fused::fused_residual_row_scalar,
    &fused::cheby_row_scalar,
    &fused::ppcg_row_scalar,
    &fused::jacobi_row_scalar,
};

#if TL_FUSED_SIMD
const RowKernelTable kSse2Table = {
    &fused::fused_w_row_simd,
    &fused::fused_w_row_dots_sse2,
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

std::mutex g_mutex;
std::optional<Isa> g_forced;                 // guarded by g_mutex
std::atomic<int> g_active{-1};               // -1 = unresolved

Isa resolve_locked() {
  std::optional<Isa> want = g_forced;
  if (!want) {
    if (const char* env = std::getenv("TL_FORCE_ISA")) {
      want = parse_isa(env);  // unparseable -> fall through to detection
    }
  }
  if (want) {
    // Graceful degradation: a forced ISA this build/CPU cannot execute runs
    // the portable scalar path rather than faulting.
    return isa_available(*want) ? *want : Isa::kScalar;
  }
  return detect_best();
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

std::optional<Isa> parse_isa(const std::string& name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "sse2") return Isa::kSse2;
  if (name == "avx2") return Isa::kAvx2;
  return std::nullopt;
}

bool isa_available(Isa isa) { return row_table(isa) != nullptr; }

Isa detect_best() {
  if (isa_available(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_available(Isa::kSse2)) return Isa::kSse2;
  return Isa::kScalar;
}

void force_isa(std::optional<Isa> isa) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_forced = isa;
  g_active.store(-1, std::memory_order_release);
}

Isa active_isa() {
  int cached = g_active.load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<Isa>(cached);
  std::lock_guard<std::mutex> lock(g_mutex);
  cached = g_active.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<Isa>(cached);
  const Isa resolved = resolve_locked();
  g_active.store(static_cast<int>(resolved), std::memory_order_release);
  return resolved;
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

const RowKernelTable* active_row_table() {
  const RowKernelTable* t = row_table(active_isa());
  return t != nullptr ? t : &kScalarTable;
}

}  // namespace tl::core::isa
