// ISA dispatch: the contract that vector width is a pure speed choice.
// Every available row-kernel table (sse2/avx2) must be bit-identical to the
// scalar one for every primitive, every tail residue, and unaligned row
// starts; the battery calls each table directly through row_table(), so it
// covers every table whichever one the process runs. The process runs the
// widest available table. The pool's default grain rides along here too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/isa.hpp"
#include "models/host_pool.hpp"

using namespace tl;
using core::isa::Isa;

namespace {

// ---------------------------------------------------------------------------
// Per-primitive bit-identity against the scalar table
// ---------------------------------------------------------------------------

/// Deterministic positive test data (xorshift64).
struct RowArrays {
  std::vector<double> a, b, c, d, e, f, g;
  explicit RowArrays(std::size_t n) : a(n), b(n), c(n), d(n), e(n), f(n), g(n) {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return 0.5 + static_cast<double>(s % 1000) * 1e-3;
    };
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = next();
      b[i] = next();
      c[i] = next();
      d[i] = next();
      e[i] = next();
      f[i] = next();
      g[i] = next();
    }
  }
};

/// Every non-scalar table that exists in this build on this CPU.
std::vector<Isa> available_wide_isas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kSse2, Isa::kAvx2}) {
    if (core::isa::row_table(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

/// Runs every primitive of `table` against the scalar table over rows at
/// `base..base+len` (len sweeps every tail residue past several full vector
/// steps) and asserts outputs and mutated arrays bit-identical.
void expect_table_matches_scalar(const core::isa::RowKernelTable& table,
                                 const std::string& tag, std::size_t width,
                                 std::size_t base, std::size_t len) {
  const core::isa::RowKernelTable& ref = *core::isa::row_table(Isa::kScalar);
  const std::string what =
      tag + " width=" + std::to_string(width) + " base=" +
      std::to_string(base) + " len=" + std::to_string(len);
  RowArrays m(width * 8);
  const std::size_t e = base + len;

  {  // w_row: w = A p plus {p.w, w.w}
    std::vector<double> w1 = m.e, w2 = m.e;
    const auto d1 = table.w_row(m.a.data(), m.b.data(), m.c.data(), w1.data(),
                                base, e, width);
    const auto d2 = ref.w_row(m.a.data(), m.b.data(), m.c.data(), w2.data(),
                              base, e, width);
    EXPECT_EQ(d1.pw, d2.pw) << what << " w_row pw";
    EXPECT_EQ(d1.ww, d2.ww) << what << " w_row ww";
    EXPECT_EQ(w1, w2) << what << " w_row w";
  }
  {  // urp_row: u += a p; r -= a w; p = r + bp p; returns r.r
    std::vector<double> u1 = m.a, r1 = m.b, p1 = m.c;
    std::vector<double> u2 = m.a, r2 = m.b, p2 = m.c;
    const double rr1 = table.urp_row(u1.data(), r1.data(), p1.data(),
                                     m.d.data(), base, e, 0.37, 0.61);
    const double rr2 = ref.urp_row(u2.data(), r2.data(), p2.data(),
                                   m.d.data(), base, e, 0.37, 0.61);
    EXPECT_EQ(rr1, rr2) << what << " urp_row rr";
    EXPECT_EQ(u1, u2) << what << " urp_row u";
    EXPECT_EQ(r1, r2) << what << " urp_row r";
    EXPECT_EQ(p1, p2) << what << " urp_row p";
  }
  {  // residual_row: r = u0 - A u; returns r.r
    std::vector<double> r1 = m.e, r2 = m.e;
    const double rr1 = table.residual_row(m.a.data(), m.b.data(), m.c.data(),
                                          m.d.data(), r1.data(), base, e,
                                          width);
    const double rr2 = ref.residual_row(m.a.data(), m.b.data(), m.c.data(),
                                        m.d.data(), r2.data(), base, e, width);
    EXPECT_EQ(rr1, rr2) << what << " residual_row rr";
    EXPECT_EQ(r1, r2) << what << " residual_row r";
  }
  {  // cheby_row
    std::vector<double> r1 = m.e, p1 = m.f, un1 = m.g;
    std::vector<double> r2 = m.e, p2 = m.f, un2 = m.g;
    table.cheby_row(m.a.data(), m.b.data(), m.c.data(), m.d.data(), r1.data(),
                    p1.data(), un1.data(), base, e, width, 0.8, 0.3);
    ref.cheby_row(m.a.data(), m.b.data(), m.c.data(), m.d.data(), r2.data(),
                  p2.data(), un2.data(), base, e, width, 0.8, 0.3);
    EXPECT_EQ(r1, r2) << what << " cheby_row r";
    EXPECT_EQ(p1, p2) << what << " cheby_row p";
    EXPECT_EQ(un1, un2) << what << " cheby_row un";
  }
  {  // ppcg_row
    std::vector<double> u1 = m.d, r1 = m.e, sn1 = m.f;
    std::vector<double> u2 = m.d, r2 = m.e, sn2 = m.f;
    table.ppcg_row(m.a.data(), m.b.data(), m.c.data(), u1.data(), r1.data(),
                   sn1.data(), base, e, width, 0.8, 0.3);
    ref.ppcg_row(m.a.data(), m.b.data(), m.c.data(), u2.data(), r2.data(),
                 sn2.data(), base, e, width, 0.8, 0.3);
    EXPECT_EQ(u1, u2) << what << " ppcg_row u";
    EXPECT_EQ(r1, r2) << what << " ppcg_row r";
    EXPECT_EQ(sn1, sn2) << what << " ppcg_row sn";
  }
  {  // jacobi_row
    std::vector<double> u1 = m.e, u2 = m.e;
    table.jacobi_row(m.a.data(), m.b.data(), m.c.data(), m.d.data(), u1.data(),
                     base, e, width);
    ref.jacobi_row(m.a.data(), m.b.data(), m.c.data(), m.d.data(), u2.data(),
                   base, e, width);
    EXPECT_EQ(u1, u2) << what << " jacobi_row u";
  }
}

TEST(IsaTables, EveryAvailableTableMatchesScalarBitwise) {
  const std::vector<Isa> wide = available_wide_isas();
  ASSERT_FALSE(wide.empty()) << "SSE2 must exist on x86-64 builds";
  for (const Isa isa : wide) {
    const core::isa::RowKernelTable* table = core::isa::row_table(isa);
    ASSERT_NE(table, nullptr);
    for (const std::size_t width : {std::size_t{37}, std::size_t{41}}) {
      // Unaligned starts (offset sweeps the vector-lane phase) x every tail
      // residue through several full vector steps.
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                       std::size_t{2}, std::size_t{3}}) {
        for (std::size_t len = 0; len <= 19; ++len) {
          expect_table_matches_scalar(*table, core::isa::isa_name(isa), width,
                                      width * 3 + offset, len);
        }
      }
    }
  }
}

TEST(IsaTables, ProcessRunsTheWidestAvailableTable) {
  Isa widest = Isa::kScalar;
  for (const Isa isa : available_wide_isas()) widest = isa;
  EXPECT_EQ(core::isa::active_isa(), widest)
      << core::isa::isa_name(core::isa::active_isa());
  EXPECT_EQ(core::isa::active_row_table(), core::isa::row_table(widest));
}

// ---------------------------------------------------------------------------
// Grain heuristic: the default grain depends on the range extent only
// ---------------------------------------------------------------------------

TEST(IsaGrain, DefaultGrainRoundsUpToTheIsaGroup) {
  using models::HostPool;
  // Explicit grains are honoured exactly.
  EXPECT_EQ(HostPool::effective_grain(1000, 7), 7);
  // Tiny ranges still get a positive grain.
  EXPECT_EQ(HostPool::effective_grain(3, 0), 1);
}

}  // namespace
