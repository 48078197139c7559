// Unit tests for src/comm: the in-process message-passing substrate, the
// comm link (clean and under a lossy fault schedule), block decomposition,
// and halo exchange.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>

#include "comm/decomposition.hpp"
#include "comm/fault.hpp"
#include "comm/halo.hpp"
#include "comm/minimpi.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"

namespace c = tl::comm;
using tl::util::Buffer;
using tl::util::Span2D;

namespace {
/// Drops, duplicates and delays at rates the retry budget survives: a
/// payload is lost for good only if all 12 of its attempts drop (0.2^12).
c::FaultSpec lossy_schedule() {
  c::FaultSpec spec;
  spec.seed = 11;
  spec.drop = 0.2;
  spec.duplicate = 0.2;
  spec.delay = 0.2;
  spec.max_attempts = 12;
  return spec;
}
}  // namespace

// ---------------------------------------------------------------------------
// MiniComm
// ---------------------------------------------------------------------------

TEST(MiniComm, SendRecvDeliversInOrder) {
  c::run_ranks(2, [](c::Communicator& comm) {
    if (comm.rank() == 0) {
      const double a[2] = {1.0, 2.0};
      const double b[2] = {3.0, 4.0};
      comm.send(a, 1, 7);
      comm.send(b, 1, 7);
    } else {
      double buf[2];
      comm.recv(buf, 0, 7);
      EXPECT_EQ(buf[0], 1.0);
      comm.recv(buf, 0, 7);
      EXPECT_EQ(buf[0], 3.0);
    }
  });
}

TEST(MiniComm, TagsSelectMessages) {
  c::run_ranks(2, [](c::Communicator& comm) {
    if (comm.rank() == 0) {
      const double a[1] = {10.0};
      const double b[1] = {20.0};
      comm.send(a, 1, 1);
      comm.send(b, 1, 2);
    } else {
      double buf[1];
      comm.recv(buf, 0, 2);  // out of arrival order
      EXPECT_EQ(buf[0], 20.0);
      comm.recv(buf, 0, 1);
      EXPECT_EQ(buf[0], 10.0);
    }
  });
}

TEST(MiniComm, SizeMismatchThrows) {
  EXPECT_THROW(c::run_ranks(2,
                            [](c::Communicator& comm) {
                              if (comm.rank() == 0) {
                                const double a[2] = {1, 2};
                                comm.send(a, 1, 0);
                              } else {
                                double buf[3];
                                comm.recv(buf, 0, 0);
                              }
                            }),
               std::runtime_error);
}

TEST(MiniComm, AllreduceSum) {
  c::run_ranks(4, [](c::Communicator& comm) {
    const double v = static_cast<double>(comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce(v), 10.0);
  });
}

TEST(MiniComm, AllreduceVector) {
  c::run_ranks(3, [](c::Communicator& comm) {
    double vals[2] = {1.0, static_cast<double>(comm.rank())};
    comm.allreduce(vals);
    EXPECT_DOUBLE_EQ(vals[0], 3.0);
    EXPECT_DOUBLE_EQ(vals[1], 3.0);  // 0+1+2
  });
}

TEST(MiniComm, BroadcastFromNonZeroRoot) {
  c::run_ranks(3, [](c::Communicator& comm) {
    double data[2] = {0.0, 0.0};
    if (comm.rank() == 2) {
      data[0] = 5.0;
      data[1] = 6.0;
    }
    comm.broadcast(data, 2);
    EXPECT_DOUBLE_EQ(data[0], 5.0);
    EXPECT_DOUBLE_EQ(data[1], 6.0);
  });
}

TEST(MiniComm, BarrierSynchronises) {
  std::atomic<int> before{0};
  std::atomic<bool> ok{true};
  c::run_ranks(4, [&](c::Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != 4) ok = false;
    comm.barrier();
  });
  EXPECT_TRUE(ok.load());
}

TEST(MiniComm, RankExceptionPropagates) {
  EXPECT_THROW(c::run_ranks(2,
                            [](c::Communicator& comm) {
                              if (comm.rank() == 1) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
}

TEST(MiniComm, ManyRanksStress) {
  // Ring pass-around with 8 ranks, several laps.
  c::run_ranks(8, [](c::Communicator& comm) {
    const int n = comm.size();
    double token[1] = {static_cast<double>(comm.rank())};
    for (int lap = 0; lap < 5; ++lap) {
      // Sends are buffered, so every rank may send before it receives.
      comm.send(token, (comm.rank() + 1) % n, lap);
      comm.recv(token, (comm.rank() + n - 1) % n, lap);
    }
    // After 5 laps the token originated 5 ranks upstream.
    EXPECT_DOUBLE_EQ(token[0],
                     static_cast<double>((comm.rank() + n - 5) % n));
  });
}

TEST(MiniComm, OrderPreservedPerSourceUnderInterleaving) {
  // FIFO holds per (source, dest, tag) even when two senders race: rank 2
  // drains each source in turn and must see each source's sequence in order,
  // whatever the arrival interleaving was.
  constexpr int kMessages = 32;
  c::run_ranks(3, [](c::Communicator& comm) {
    if (comm.rank() < 2) {
      for (int i = 0; i < kMessages; ++i) {
        const double v[1] = {100.0 * comm.rank() + i};
        comm.send(v, 2, 9);
      }
    } else {
      for (int src = 0; src < 2; ++src) {
        for (int i = 0; i < kMessages; ++i) {
          double v[1];
          comm.recv(v, src, 9);
          EXPECT_DOUBLE_EQ(v[0], 100.0 * src + i)
              << "source " << src << " message " << i;
        }
      }
    }
  });
}

TEST(MiniComm, MismatchedTagsTimeOutInsteadOfDeadlocking) {
  // A send/recv pair that disagrees on the tag would block forever in a
  // real MPI run. The World's recv-timeout deadlock guard turns it into a
  // thrown std::runtime_error naming the stuck (source, tag) wait.
  try {
    c::run_ranks(
        2,
        [](c::Communicator& comm) {
          double buf[1] = {static_cast<double>(comm.rank())};
          const int tag = comm.rank() == 0 ? 1 : 2;  // the bug under test
          comm.send(buf, 1 - comm.rank(), tag);
          comm.recv(buf, 1 - comm.rank(), tag);
        },
        std::chrono::milliseconds{250});
    FAIL() << "mismatched tags should have timed out";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << "unexpected error: " << e.what();
  }
}

TEST(MiniComm, AllreduceMatchesSerialReduction) {
  // The reduction is deterministic (accumulated in rank order 0..P-1), so a
  // serial fold over the same values must agree bit-for-bit — this is what
  // makes R-rank vs 1-rank solver comparisons meaningful. The link's
  // allreduce, the one the distributed solver runs, must give the same bits
  // over a clean link and under a lossy fault schedule.
  constexpr int kRanks = 5;
  tl::util::Rng rng(20260806);
  double vals[kRanks];
  for (double& v : vals) v = rng.uniform(-10.0, 10.0);

  double sum = vals[0];
  for (int r = 1; r < kRanks; ++r) sum += vals[r];

  std::atomic<std::uint64_t> injected{0};
  c::run_ranks(kRanks, [&](c::Communicator& comm) {
    const double v = vals[comm.rank()];
    EXPECT_EQ(comm.allreduce(v), sum);

    c::Link clean(comm);
    double x = v;
    clean.allreduce_sum(std::span<double>(&x, 1), /*gather_tag=*/4,
                        /*bcast_tag=*/5);
    EXPECT_EQ(x, sum) << "clean link, rank " << comm.rank();

    c::Link lossy(comm, lossy_schedule());
    double y = v;
    lossy.allreduce_sum(std::span<double>(&y, 1), /*gather_tag=*/12,
                        /*bcast_tag=*/13);
    EXPECT_EQ(y, sum) << "lossy link, rank " << comm.rank();
    const c::FaultStats& fs = lossy.stats();
    injected += fs.dropped + fs.duplicated + fs.delayed;
  });
  EXPECT_GT(injected.load(), 0u) << "the lossy schedule injected nothing";
}

TEST(MiniComm, BarrierUnderContention) {
  // Many rounds of increment-barrier-check with all ranks hammering the same
  // counters. Runs under the TSan CI leg, which is the real assertion here.
  constexpr int kRanks = 8;
  constexpr int kRounds = 50;
  std::atomic<int> arrived[kRounds];
  for (auto& a : arrived) a.store(0);
  std::atomic<bool> ok{true};
  c::run_ranks(kRanks, [&](c::Communicator& comm) {
    for (int round = 0; round < kRounds; ++round) {
      arrived[round].fetch_add(1);
      comm.barrier();
      if (arrived[round].load() != kRanks) ok = false;
      comm.barrier();
    }
  });
  EXPECT_TRUE(ok.load());
}

// ---------------------------------------------------------------------------
// BlockDecomposition
// ---------------------------------------------------------------------------

TEST(Decomposition, SingleRankCoversEverything) {
  const c::BlockDecomposition d(10, 7, 1);
  const auto& t = d.tile(0);
  EXPECT_EQ(t.nx(), 10);
  EXPECT_EQ(t.ny(), 7);
  for (const auto f : c::kAllFaces) EXPECT_FALSE(t.has_neighbour(f));
}

TEST(Decomposition, TilesPartitionTheMesh) {
  const c::BlockDecomposition d(37, 23, 6);
  std::vector<int> cover(37 * 23, 0);
  for (const auto& t : d.tiles()) {
    for (int y = t.y_begin; y < t.y_end; ++y) {
      for (int x = t.x_begin; x < t.x_end; ++x) ++cover[y * 37 + x];
    }
  }
  for (const int c_ : cover) EXPECT_EQ(c_, 1);
}

TEST(Decomposition, PrefersSquareGridForSquareMesh) {
  const c::BlockDecomposition d(100, 100, 4);
  EXPECT_EQ(d.grid_x(), 2);
  EXPECT_EQ(d.grid_y(), 2);
}

TEST(Decomposition, NeighboursAreMutual) {
  const c::BlockDecomposition d(64, 64, 8);
  for (const auto& t : d.tiles()) {
    if (t.has_neighbour(c::Face::kRight)) {
      const auto& n = d.tile(t.neighbour_of(c::Face::kRight));
      EXPECT_EQ(n.neighbour_of(c::Face::kLeft), t.rank);
      EXPECT_EQ(n.x_begin, t.x_end);
    }
    if (t.has_neighbour(c::Face::kTop)) {
      const auto& n = d.tile(t.neighbour_of(c::Face::kTop));
      EXPECT_EQ(n.neighbour_of(c::Face::kBottom), t.rank);
      EXPECT_EQ(n.y_begin, t.y_end);
    }
  }
}

TEST(Decomposition, InvalidArgumentsThrow) {
  EXPECT_THROW(c::BlockDecomposition(0, 4, 1), std::invalid_argument);
  EXPECT_THROW(c::BlockDecomposition(4, 4, 0), std::invalid_argument);
  EXPECT_THROW(c::BlockDecomposition(2, 2, 64), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BlockDecomposition: randomized properties
// ---------------------------------------------------------------------------

namespace {
/// Draws a random (nx, ny, nranks) triple for which a decomposition exists,
/// i.e. some factorisation px*py == nranks fits px <= nx, py <= ny.
struct DecompCase {
  int nx, ny, nranks;
};

DecompCase draw_decomp_case(tl::util::Rng& rng) {
  for (;;) {
    const int nx = 1 + static_cast<int>(rng.next_below(200));
    const int ny = 1 + static_cast<int>(rng.next_below(200));
    const int nranks = 1 + static_cast<int>(rng.next_below(16));
    for (int px = 1; px <= nranks; ++px) {
      if (nranks % px == 0 && px <= nx && nranks / px <= ny) {
        return {nx, ny, nranks};
      }
    }
  }
}
}  // namespace

TEST(DecompositionProperty, RandomPartitionIsExact) {
  // Every global cell is owned by exactly one tile, for random meshes and
  // rank counts.
  tl::util::Rng rng(1);
  for (int trial = 0; trial < 60; ++trial) {
    const DecompCase tc = draw_decomp_case(rng);
    const c::BlockDecomposition d(tc.nx, tc.ny, tc.nranks);
    std::vector<int> cover(static_cast<std::size_t>(tc.nx) * tc.ny, 0);
    for (const auto& t : d.tiles()) {
      EXPECT_GT(t.nx(), 0);
      EXPECT_GT(t.ny(), 0);
      for (int y = t.y_begin; y < t.y_end; ++y) {
        for (int x = t.x_begin; x < t.x_end; ++x) ++cover[y * tc.nx + x];
      }
    }
    for (const int n : cover) {
      ASSERT_EQ(n, 1) << tc.nx << "x" << tc.ny << " over " << tc.nranks;
    }
  }
}

TEST(DecompositionProperty, NeighbourLinksAreSymmetricAndAdjacent) {
  tl::util::Rng rng(2);
  const c::Face opposite[4] = {c::Face::kRight, c::Face::kLeft, c::Face::kTop,
                               c::Face::kBottom};
  for (int trial = 0; trial < 60; ++trial) {
    const DecompCase tc = draw_decomp_case(rng);
    const c::BlockDecomposition d(tc.nx, tc.ny, tc.nranks);
    for (const auto& t : d.tiles()) {
      for (const c::Face f : c::kAllFaces) {
        if (!t.has_neighbour(f)) continue;
        const auto& n = d.tile(t.neighbour_of(f));
        ASSERT_EQ(n.neighbour_of(opposite[static_cast<std::size_t>(f)]),
                  t.rank)
            << "asymmetric link " << tc.nx << "x" << tc.ny << "/" << tc.nranks;
        // Shared faces must actually abut and span the same interval.
        switch (f) {
          case c::Face::kLeft:
            ASSERT_EQ(n.x_end, t.x_begin);
            break;
          case c::Face::kRight:
            ASSERT_EQ(n.x_begin, t.x_end);
            break;
          case c::Face::kBottom:
            ASSERT_EQ(n.y_end, t.y_begin);
            break;
          case c::Face::kTop:
            ASSERT_EQ(n.y_begin, t.y_end);
            break;
        }
        if (f == c::Face::kLeft || f == c::Face::kRight) {
          ASSERT_EQ(n.y_begin, t.y_begin);
          ASSERT_EQ(n.y_end, t.y_end);
        } else {
          ASSERT_EQ(n.x_begin, t.x_begin);
          ASSERT_EQ(n.x_end, t.x_end);
        }
      }
    }
  }
}

TEST(DecompositionProperty, ChosenGridMinimisesSurface) {
  // The documented objective: among all factorisations px*py == nranks that
  // fit the mesh, the chosen grid minimises the exchanged surface
  // px*ny + py*nx.
  tl::util::Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const DecompCase tc = draw_decomp_case(rng);
    const c::BlockDecomposition d(tc.nx, tc.ny, tc.nranks);
    const double chosen = static_cast<double>(d.grid_x()) * tc.ny +
                          static_cast<double>(d.grid_y()) * tc.nx;
    EXPECT_EQ(d.grid_x() * d.grid_y(), tc.nranks);
    for (int px = 1; px <= tc.nranks; ++px) {
      if (tc.nranks % px != 0) continue;
      const int py = tc.nranks / px;
      if (px > tc.nx || py > tc.ny) continue;
      const double cost =
          static_cast<double>(px) * tc.ny + static_cast<double>(py) * tc.nx;
      ASSERT_LE(chosen, cost)
          << "grid " << d.grid_x() << "x" << d.grid_y() << " beaten by " << px
          << "x" << py << " on " << tc.nx << "x" << tc.ny;
    }
  }
}

TEST(DecompositionProperty, RandomInvalidArgumentsThrow) {
  tl::util::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const int good = 1 + static_cast<int>(rng.next_below(50));
    const int bad = -static_cast<int>(rng.next_below(10));
    EXPECT_THROW(c::BlockDecomposition(bad, good, 1), std::invalid_argument);
    EXPECT_THROW(c::BlockDecomposition(good, bad, 1), std::invalid_argument);
    EXPECT_THROW(c::BlockDecomposition(good, good, bad),
                 std::invalid_argument);
    // More ranks than cells can never be tiled.
    EXPECT_THROW(
        c::BlockDecomposition(good, good, good * good + 1 +
                                              static_cast<int>(rng.next_below(8))),
        std::invalid_argument);
  }
  // A prime rank count taller than the mesh has no fitting factorisation.
  EXPECT_THROW(c::BlockDecomposition(1, 1, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Halo: reflection
// ---------------------------------------------------------------------------

namespace {
/// Builds a (nx+2h)x(ny+2h) field whose interior holds f(x, y).
template <typename F>
Buffer<double> make_field(int nx, int ny, int h, F f) {
  Buffer<double> buf(static_cast<std::size_t>(nx + 2 * h) * (ny + 2 * h));
  auto s = buf.view2d(nx + 2 * h, ny + 2 * h);
  for (int y = h; y < h + ny; ++y) {
    for (int x = h; x < h + nx; ++x) s(x, y) = f(x, y);
  }
  return buf;
}
}  // namespace

TEST(Halo, ReflectMirrorsInteriorRows) {
  const int nx = 6, ny = 5, h = 2;
  auto buf = make_field(nx, ny, h, [](int x, int y) {
    return 100.0 * x + y;
  });
  auto s = buf.view2d(nx + 2 * h, ny + 2 * h);
  c::reflect_boundary(s, h, c::kAllFaces);
  for (int y = h; y < h + ny; ++y) {
    for (int k = 0; k < h; ++k) {
      EXPECT_EQ(s(h - 1 - k, y), s(h + k, y));
      EXPECT_EQ(s(h + nx + k, y), s(h + nx - 1 - k, y));
    }
  }
  for (int x = 0; x < nx + 2 * h; ++x) {
    for (int k = 0; k < h; ++k) {
      EXPECT_EQ(s(x, h - 1 - k), s(x, h + k));
      EXPECT_EQ(s(x, h + ny + k), s(x, h + ny - 1 - k));
    }
  }
}

TEST(Halo, ReflectFillsCorners) {
  const int nx = 4, ny = 4, h = 2;
  auto buf = make_field(nx, ny, h, [](int x, int y) {
    return 10.0 * x + y;
  });
  auto s = buf.view2d(nx + 2 * h, ny + 2 * h);
  c::reflect_boundary(s, h, c::kAllFaces);
  // Corner (0,0) mirrors interior (h+1, h+1) through both reflections.
  EXPECT_EQ(s(0, 0), s(h + 1, h + 1));
  EXPECT_EQ(s(1, 1), s(h, h));
}

TEST(Halo, ReflectTooSmallFieldThrows) {
  Buffer<double> buf(16);
  auto s = buf.view2d(4, 4);  // h=2 leaves no interior
  EXPECT_THROW(c::reflect_boundary(s, 2, c::kAllFaces), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Halo: exchange across ranks == global reflection
// ---------------------------------------------------------------------------

namespace {
/// Reference: one global field, reflected. Decomposed: each rank owns a tile
/// of the same field, exchanges + reflects over a link under `faults`, and
/// we compare every tile cell (including its halo) to the global field.
/// Returns the faults the link injected, summed over ranks.
std::uint64_t check_distributed_halo(int gnx, int gny, int ranks, int h,
                                     int depth,
                                     const c::FaultSpec& faults = {}) {
  auto global = make_field(gnx, gny, h, [](int x, int y) {
    return std::sin(0.3 * x) + 1.7 * y;
  });
  auto gspan = global.view2d(gnx + 2 * h, gny + 2 * h);
  c::reflect_boundary(gspan, h, c::kAllFaces);

  const c::BlockDecomposition decomp(gnx, gny, ranks);
  std::atomic<std::uint64_t> injected{0};
  c::run_ranks(ranks, [&](c::Communicator& comm) {
    const c::Tile& tile = decomp.tile(comm.rank());
    const int w = tile.nx() + 2 * h;
    const int ht = tile.ny() + 2 * h;
    Buffer<double> local(static_cast<std::size_t>(w) * ht);
    auto lspan = local.view2d(w, ht);
    for (int y = 0; y < ht; ++y) {
      for (int x = 0; x < w; ++x) {
        // Interior copy only; halo starts stale.
        const int gx = tile.x_begin + (x - h) + h;
        const int gy = tile.y_begin + (y - h) + h;
        if (x >= h && x < h + tile.nx() && y >= h && y < h + tile.ny()) {
          lspan(x, y) = gspan(gx, gy);
        } else {
          lspan(x, y) = -999.0;
        }
      }
    }
    c::HaloExchanger ex(decomp, comm.rank(), h);
    c::Link link(comm, faults);
    ex.exchange(link, lspan, depth, /*tag=*/3);
    const c::FaultStats& fs = link.stats();
    injected += fs.dropped + fs.duplicated + fs.delayed;

    for (int y = h - depth; y < h + tile.ny() + depth; ++y) {
      for (int x = h - depth; x < h + tile.nx() + depth; ++x) {
        const int gx = tile.x_begin + (x - h) + h;
        const int gy = tile.y_begin + (y - h) + h;
        ASSERT_DOUBLE_EQ(lspan(x, y), gspan(gx, gy))
            << "rank " << comm.rank() << " cell (" << x << "," << y << ")";
      }
    }
  });
  return injected.load();
}
}  // namespace

TEST(Halo, TwoRankExchangeMatchesGlobal) {
  check_distributed_halo(16, 12, 2, 2, 2);
}

TEST(Halo, FourRankExchangeMatchesGlobal) {
  check_distributed_halo(16, 16, 4, 2, 2);
}

TEST(Halo, SixRankDepthOne) { check_distributed_halo(18, 12, 6, 2, 1); }

TEST(Halo, BadDepthThrows) {
  const c::BlockDecomposition decomp(8, 8, 1);
  c::run_ranks(1, [&](c::Communicator& comm) {
    Buffer<double> local(12 * 12);
    auto s = local.view2d(12, 12);
    c::HaloExchanger ex(decomp, 0, 2);
    EXPECT_THROW(ex.exchange(comm, s, 3, 0), std::invalid_argument);
    EXPECT_THROW(ex.exchange(comm, s, 0, 0), std::invalid_argument);
  });
}

TEST(Halo, RandomisedExchangeMatchesGlobalBothDepths) {
  // Property form of the round-trip check: random mesh shapes and rank
  // counts, both supported depths, each over a clean link and a lossy one.
  // Covers corner fills (x-then-y ordering), interior tiles with four
  // neighbours, and tiles whose physical faces are reflected rather than
  // exchanged.
  tl::util::Rng rng(5);
  std::uint64_t injected = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const int gnx = 8 + static_cast<int>(rng.next_below(17));
    const int gny = 8 + static_cast<int>(rng.next_below(17));
    const int nranks = 1 + static_cast<int>(rng.next_below(6));
    const int depth = 1 + static_cast<int>(rng.next_below(2));
    check_distributed_halo(gnx, gny, nranks, /*h=*/2, depth);
    injected += check_distributed_halo(gnx, gny, nranks, /*h=*/2, depth,
                                       lossy_schedule());
  }
  EXPECT_GT(injected, 0u) << "the lossy schedule injected nothing";
}

TEST(Halo, NineRankInteriorTileAllFaces) {
  // 3x3 grid: the centre tile exchanges on all four faces and reflects none.
  check_distributed_halo(24, 24, 9, /*h=*/2, /*depth=*/2);
  EXPECT_GT(check_distributed_halo(24, 24, 9, /*h=*/2, /*depth=*/2,
                                   lossy_schedule()),
            0u);
}

TEST(Halo, TagOutOfRangeThrows) {
  // exchange() refuses a tag whose derived subtags would alias the reserved
  // collective range.
  const int bad_tag = c::kCollectiveTagBase / 8;
  const c::BlockDecomposition decomp(8, 8, 1);
  c::run_ranks(1, [&](c::Communicator& comm) {
    Buffer<double> local(12 * 12);
    auto s = local.view2d(12, 12);
    c::HaloExchanger ex(decomp, 0, 2);
    EXPECT_THROW(ex.exchange(comm, s, 1, bad_tag), std::invalid_argument);
    EXPECT_THROW(ex.exchange(comm, s, 1, -1), std::invalid_argument);
  });
}

TEST(Halo, ExchangeIsIdempotentOnConsistentField) {
  // Once halos agree with their owners, a second exchange (same depth) must
  // be a fixed point: pack/unpack round-trips the same values byte-for-byte.
  const int gnx = 16, gny = 12, h = 2, ranks = 4;
  const c::BlockDecomposition decomp(gnx, gny, ranks);
  c::run_ranks(ranks, [&](c::Communicator& comm) {
    const c::Tile& tile = decomp.tile(comm.rank());
    const int w = tile.nx() + 2 * h;
    const int ht = tile.ny() + 2 * h;
    Buffer<double> local(static_cast<std::size_t>(w) * ht);
    auto lspan = local.view2d(w, ht);
    for (int y = h; y < h + tile.ny(); ++y) {
      for (int x = h; x < h + tile.nx(); ++x) {
        lspan(x, y) = 7.0 * (tile.x_begin + x) - 1.3 * (tile.y_begin + y);
      }
    }
    c::HaloExchanger ex(decomp, comm.rank(), h);
    ex.exchange(comm, lspan, 2, /*tag=*/11);
    const Buffer<double> snapshot = local;  // deep copy
    ex.exchange(comm, lspan, 2, /*tag=*/12);
    for (std::size_t i = 0; i < local.size(); ++i) {
      ASSERT_EQ(local.data()[i], snapshot.data()[i]) << "cell " << i;
    }
  });
}
