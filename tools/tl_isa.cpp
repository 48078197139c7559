// tl_isa: runtime ISA dispatch inspector.
//
//   tl_isa                 prints the CPU's detected best ISA, the resolved
//                          active ISA (after TL_FORCE_ISA), and per-ISA
//                          availability of the fused row-kernel tables.
//   tl_isa --probe NAME    exit 0 if NAME (scalar|sse2|avx2) is
//                          executable in this build on this CPU, 3 if not,
//                          2 on an unknown name.
//
// The --probe form is the CI gate: the per-ISA ctest entries (label `isa`)
// force each ISA in turn through TL_FORCE_ISA and use the exit code to skip
// (not fail) legs the host cannot run — an AVX2 smoke on a box without AVX2
// must be a skip, never a crash.

#include <cstdio>
#include <cstring>
#include <string>

#include "core/isa.hpp"

using tl::core::isa::Isa;

int main(int argc, char** argv) {
  namespace isa = tl::core::isa;

  if (argc >= 2 && std::strcmp(argv[1], "--probe") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "tl_isa: --probe needs exactly one ISA name\n");
      return 2;
    }
    const auto parsed = isa::parse_isa(argv[2]);
    if (!parsed) {
      std::fprintf(stderr, "tl_isa: unknown ISA '%s'\n", argv[2]);
      return 2;
    }
    const bool ok = isa::row_table(*parsed) != nullptr;
    std::printf("%s: %s\n", isa::isa_name(*parsed),
                ok ? "available" : "unavailable");
    return ok ? 0 : 3;
  }
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: tl_isa [--probe scalar|sse2|avx2]\n");
    return 2;
  }

  std::printf("detected best: %s\n", isa::isa_name(isa::detect_best()));
  std::printf("active:        %s\n", isa::isa_name(isa::active_isa()));
  std::printf("tables:\n");
  for (int i = 0; i < isa::kIsaCount; ++i) {
    const Isa which = static_cast<Isa>(i);
    std::printf("  %-7s %s\n", isa::isa_name(which),
                isa::row_table(which) ? "available" : "unavailable");
  }
  return 0;
}
