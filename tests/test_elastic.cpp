// Elastic distributed execution battery (DESIGN.md §13):
//
//   * weighted/row-strip decomposition properties;
//   * checkpoint serialize/deserialize roundtrips and a loader fuzz sweep
//     (truncations, bit flips, incompatible fingerprints) — every malformed
//     input must throw CheckpointError, never crash or silently mis-resume;
//   * the kill-and-resume bit-identity battery: every solver, killed at a
//     step boundary and resumed into the same or a different rank count,
//     must finish bit-for-bit equal to the uninterrupted run;
//   * comm fault injection: seeded lossy schedules survive with identical
//     numerics and visible retry tallies; unsurvivable schedules throw
//     diagnosable CommFaultError subclasses;
//   * in-flight comm corruption (tl_verify --perturb halo_payload/allreduce)
//     is detected by the conformance checker;
//   * the solve service's checkpoint-resume path: a fault-injected mini-soak
//     must end with zero failures and bit-identical results.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "comm/decomposition.hpp"
#include "comm/fault.hpp"
#include "core/driver.hpp"
#include "core/mesh.hpp"
#include "core/reference_kernels.hpp"
#include "core/settings.hpp"
#include "dist/checkpoint.hpp"
#include "dist/driver.hpp"
#include "ports/registry.hpp"
#include "service/entry.hpp"
#include "service/pool.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "verify/conformance.hpp"

namespace d = tl::dist;
namespace c = tl::comm;
using tl::core::Settings;
using tl::core::SolverKind;

namespace {

Settings elastic_problem(SolverKind solver, int ranks, int steps = 2) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  s.solver = solver;
  s.end_step = steps;
  s.nranks = ranks;
  s.elastic = true;
  return s;
}

d::PortFactory reference_factory() {
  return [](const tl::core::Mesh& mesh, int /*rank*/) {
    return std::make_unique<tl::core::ReferenceKernels>(mesh);
  };
}

d::PortFactory omp3_factory() {
  return [](const tl::core::Mesh& mesh, int rank) {
    return tl::ports::make_port(*tl::sim::parse_model("omp3"),
                                *tl::sim::parse_device("cpu"), mesh,
                                1 + static_cast<std::uint64_t>(rank));
  };
}

/// Bit-for-bit equality of two runs: control flow, residual histories,
/// physics summaries, and the reassembled global fields.
void expect_bit_identical(const d::DistReport& a, const d::DistReport& b) {
  ASSERT_EQ(a.run.steps.size(), b.run.steps.size());
  for (std::size_t i = 0; i < a.run.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i + 1));
    const auto& sa = a.run.steps[i].solve;
    const auto& sb = b.run.steps[i].solve;
    EXPECT_EQ(sa.converged, sb.converged);
    EXPECT_EQ(sa.iterations, sb.iterations);
    EXPECT_EQ(sa.inner_iterations, sb.inner_iterations);
    EXPECT_EQ(sa.initial_rr, sb.initial_rr);
    EXPECT_EQ(sa.final_rr, sb.final_rr);
    ASSERT_EQ(sa.rr_history.size(), sb.rr_history.size());
    for (std::size_t j = 0; j < sa.rr_history.size(); ++j) {
      EXPECT_EQ(sa.rr_history[j], sb.rr_history[j]) << "rr entry " << j;
    }
    EXPECT_EQ(a.run.steps[i].summary.volume, b.run.steps[i].summary.volume);
    EXPECT_EQ(a.run.steps[i].summary.mass, b.run.steps[i].summary.mass);
    EXPECT_EQ(a.run.steps[i].summary.internal_energy,
              b.run.steps[i].summary.internal_energy);
    EXPECT_EQ(a.run.steps[i].summary.temperature,
              b.run.steps[i].summary.temperature);
  }
  ASSERT_EQ(a.u.size(), b.u.size());
  EXPECT_EQ(std::memcmp(a.u.data(), b.u.data(), a.u.size() * sizeof(double)),
            0)
      << "global u fields differ";
  ASSERT_EQ(a.energy.size(), b.energy.size());
  EXPECT_EQ(std::memcmp(a.energy.data(), b.energy.data(),
                        a.energy.size() * sizeof(double)),
            0)
      << "global energy fields differ";
}

/// A small but fully populated snapshot for the (de)serializer tests.
d::Snapshot sample_snapshot(std::uint64_t seed = 42) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-10.0, 10.0);

  d::Snapshot s;
  s.nx = 6;
  s.ny = 4;
  s.halo_depth = 2;
  s.solver = SolverKind::kCheby;
  s.end_step = 5;
  s.elastic = true;
  s.use_fused = false;
  s.overlap_comm = false;
  s.eps = 1e-15;
  s.dt_init = 0.004;
  s.completed_steps = 2;
  s.nranks_at_save = 3;
  for (int i = 0; i < s.completed_steps; ++i) {
    tl::core::StepReport step;
    step.step = i + 1;
    step.dt = s.dt_init;
    step.solve.solver = s.solver;
    step.solve.converged = true;
    step.solve.iterations = 7 + i;
    step.solve.inner_iterations = 2 * i;
    step.solve.initial_rr = val(rng);
    step.solve.final_rr = val(rng) * 1e-12;
    for (int j = 0; j < 5 + i; ++j) step.solve.rr_history.push_back(val(rng));
    step.summary.volume = val(rng);
    step.summary.mass = val(rng);
    step.summary.internal_energy = val(rng);
    step.summary.temperature = val(rng);
    step.sim_step_ns = 1234.5 * (i + 1);
    s.steps.push_back(std::move(step));
  }
  for (int r = 0; r < s.nranks_at_save; ++r) {
    d::RankCursor cur;
    cur.elapsed_ns = val(rng) * 1e6;
    cur.launches = 100 + static_cast<std::uint64_t>(r);
    cur.transfers = 7;
    cur.kernel_bytes = 1u << (10 + r);
    cur.transfer_bytes = 512;
    cur.comm.halo_exchanges = 40;
    cur.comm.allreduces = 13;
    cur.comm.bytes = 9999;
    cur.comm.comm_ns = val(rng) * 1e3;
    cur.comm.retries = static_cast<std::uint64_t>(r);
    s.cursors.push_back(cur);
  }
  const std::size_t cells = static_cast<std::size_t>(s.nx) * s.ny;
  for (std::size_t i = 0; i < cells; ++i) {
    s.density.push_back(val(rng));
    s.energy0.push_back(val(rng));
  }
  return s;
}

void expect_snapshots_equal(const d::Snapshot& a, const d::Snapshot& b) {
  EXPECT_EQ(a.nx, b.nx);
  EXPECT_EQ(a.ny, b.ny);
  EXPECT_EQ(a.halo_depth, b.halo_depth);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.end_step, b.end_step);
  EXPECT_EQ(a.elastic, b.elastic);
  EXPECT_EQ(a.use_fused, b.use_fused);
  EXPECT_EQ(a.overlap_comm, b.overlap_comm);
  EXPECT_EQ(a.eps, b.eps);
  EXPECT_EQ(a.dt_init, b.dt_init);
  EXPECT_EQ(a.completed_steps, b.completed_steps);
  EXPECT_EQ(a.nranks_at_save, b.nranks_at_save);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].step, b.steps[i].step);
    EXPECT_EQ(a.steps[i].dt, b.steps[i].dt);
    EXPECT_EQ(a.steps[i].solve.iterations, b.steps[i].solve.iterations);
    EXPECT_EQ(a.steps[i].solve.final_rr, b.steps[i].solve.final_rr);
    EXPECT_EQ(a.steps[i].solve.rr_history, b.steps[i].solve.rr_history);
    EXPECT_EQ(a.steps[i].summary.temperature, b.steps[i].summary.temperature);
    EXPECT_EQ(a.steps[i].sim_step_ns, b.steps[i].sim_step_ns);
  }
  ASSERT_EQ(a.cursors.size(), b.cursors.size());
  for (std::size_t i = 0; i < a.cursors.size(); ++i) {
    EXPECT_EQ(a.cursors[i].elapsed_ns, b.cursors[i].elapsed_ns);
    EXPECT_EQ(a.cursors[i].launches, b.cursors[i].launches);
    EXPECT_EQ(a.cursors[i].transfers, b.cursors[i].transfers);
    EXPECT_EQ(a.cursors[i].kernel_bytes, b.cursors[i].kernel_bytes);
    EXPECT_EQ(a.cursors[i].transfer_bytes, b.cursors[i].transfer_bytes);
    EXPECT_EQ(a.cursors[i].comm.halo_exchanges,
              b.cursors[i].comm.halo_exchanges);
    EXPECT_EQ(a.cursors[i].comm.allreduces, b.cursors[i].comm.allreduces);
    EXPECT_EQ(a.cursors[i].comm.bytes, b.cursors[i].comm.bytes);
    EXPECT_EQ(a.cursors[i].comm.retries, b.cursors[i].comm.retries);
  }
  EXPECT_EQ(a.density, b.density);
  EXPECT_EQ(a.energy0, b.energy0);
}

}  // namespace

// ===========================================================================
// Weighted / row-strip decomposition
// ===========================================================================

TEST(WeightedDecomposition, RowStripsPartitionTheMesh) {
  c::DecompOptions opt;
  opt.layout = c::DecompOptions::Layout::kRows;
  const c::BlockDecomposition dec(20, 37, 5, opt);
  EXPECT_TRUE(dec.row_strips());
  EXPECT_EQ(dec.grid_x(), 1);
  EXPECT_EQ(dec.grid_y(), 5);
  int rows = 0;
  int cursor = 0;
  for (int r = 0; r < dec.nranks(); ++r) {
    const c::Tile& t = dec.tile(r);
    EXPECT_EQ(t.x_begin, 0);
    EXPECT_EQ(t.x_end, 20);
    EXPECT_EQ(t.y_begin, cursor) << "strips must be contiguous in rank order";
    EXPECT_GE(t.ny(), 1);
    cursor = t.y_end;
    rows += t.ny();
    // Neighbour wiring: strips only see up/down.
    EXPECT_EQ(t.neighbour_of(c::Face::kLeft), -1);
    EXPECT_EQ(t.neighbour_of(c::Face::kRight), -1);
    EXPECT_EQ(t.neighbour_of(c::Face::kBottom), r > 0 ? r - 1 : -1);
    EXPECT_EQ(t.neighbour_of(c::Face::kTop), r + 1 < dec.nranks() ? r + 1 : -1);
  }
  EXPECT_EQ(rows, 37);
}

TEST(WeightedDecomposition, WeightsApportionByLargestRemainder) {
  c::DecompOptions opt;
  opt.weights = {1.0, 3.0};  // non-empty weights imply row strips
  const c::BlockDecomposition dec(16, 100, 2, opt);
  EXPECT_TRUE(dec.row_strips());
  // Floor-first apportionment: each rank is granted one row up front and the
  // weights split the remaining 98 (quotas 24.5/73.5 -> floors 24/73, the
  // spare row breaks the 0.5/0.5 remainder tie toward the lower rank), so
  // the split is 26/74 — one row shy of the naive 25/75 for the heavy rank.
  EXPECT_EQ(dec.tile(0).ny(), 26);
  EXPECT_EQ(dec.tile(1).ny(), 74);
}

TEST(WeightedDecomposition, EveryRankKeepsAtLeastOneRow) {
  c::DecompOptions opt;
  opt.weights = {1000.0, 1.0, 1.0};  // extreme skew cannot starve a rank
  const c::BlockDecomposition dec(8, 10, 3, opt);
  int rows = 0;
  for (int r = 0; r < 3; ++r) {
    EXPECT_GE(dec.tile(r).ny(), 1);
    rows += dec.tile(r).ny();
  }
  EXPECT_EQ(rows, 10);
  EXPECT_GE(dec.tile(0).ny(), 8);  // the heavy rank takes nearly everything
}

TEST(WeightedDecomposition, EqualWeightsMatchUnweightedRowStrips) {
  c::DecompOptions rows_only;
  rows_only.layout = c::DecompOptions::Layout::kRows;
  c::DecompOptions equal;
  equal.weights = {2.5, 2.5, 2.5};
  const c::BlockDecomposition a(12, 31, 3, rows_only);
  const c::BlockDecomposition b(12, 31, 3, equal);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(a.tile(r).y_begin, b.tile(r).y_begin);
    EXPECT_EQ(a.tile(r).y_end, b.tile(r).y_end);
  }
}

TEST(WeightedDecomposition, RejectsMalformedWeightsAndOverwideWorlds) {
  c::DecompOptions bad_count;
  bad_count.weights = {1.0, 2.0};  // 3 ranks need 3 weights
  EXPECT_THROW(c::BlockDecomposition(8, 8, 3, bad_count),
               std::invalid_argument);

  c::DecompOptions bad_value;
  bad_value.weights = {1.0, 0.0};
  EXPECT_THROW(c::BlockDecomposition(8, 8, 2, bad_value),
               std::invalid_argument);

  c::DecompOptions rows;
  rows.layout = c::DecompOptions::Layout::kRows;
  EXPECT_THROW(c::BlockDecomposition(64, 4, 5, rows), std::invalid_argument)
      << "more ranks than rows cannot give every rank a whole row";

  // Settings-level guard for the same condition.
  Settings s = elastic_problem(SolverKind::kCg, 40);
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// ===========================================================================
// Elastic reductions: rank-count invariance
// ===========================================================================

TEST(ElasticMode, AnyRowSplitIsBitIdentical) {
  const Settings s1 = elastic_problem(SolverKind::kCg, 1);
  d::DistributedDriver base(s1, reference_factory());
  const d::DistReport ref = base.run();

  for (const int ranks : {2, 3, 5, 8}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    const Settings s = elastic_problem(SolverKind::kCg, ranks);
    d::DistributedDriver driver(s, reference_factory());
    const d::DistReport rep = driver.run();
    expect_bit_identical(ref, rep);
  }

  // Weighted (uneven) strips split the same rows differently — still
  // bit-identical, which is what lets heterogeneous worlds stay exact.
  Settings sw = elastic_problem(SolverKind::kCg, 2);
  c::DecompOptions opt;
  opt.weights = {1.0, 3.0};
  d::DistributedDriver weighted(
      sw, reference_factory(),
      c::BlockDecomposition(sw.nx, sw.ny, sw.nranks, opt));
  expect_bit_identical(ref, weighted.run());
}

TEST(ElasticMode, RequiresARowCapablePort) {
  // The sim ports don't implement per-row reductions; asking for elastic
  // numerics through one must fail loudly, not silently change results.
  const Settings s = elastic_problem(SolverKind::kCg, 2);
  d::DistributedDriver driver(s, omp3_factory());
  EXPECT_THROW(driver.run(), std::invalid_argument);
}

// ===========================================================================
// Checkpoint wire format
// ===========================================================================

TEST(Checkpoint, SerializeDeserializeRoundtrip) {
  for (const std::uint64_t seed : {1u, 7u, 99u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const d::Snapshot snap = sample_snapshot(seed);
    const std::vector<std::uint8_t> bytes = d::serialize(snap);
    const d::Snapshot back = d::deserialize(bytes);
    expect_snapshots_equal(snap, back);
  }
}

TEST(Checkpoint, FileRoundtripAndUnreadablePaths) {
  const d::Snapshot snap = sample_snapshot();
  const std::string path =
      testing::TempDir() + "/tl_elastic_roundtrip.ckpt";
  d::save_snapshot(path, snap);
  expect_snapshots_equal(snap, d::load_snapshot(path));
  std::remove(path.c_str());

  EXPECT_THROW(d::load_snapshot("/nonexistent/dir/nope.ckpt"),
               d::CheckpointError);
  EXPECT_THROW(d::save_snapshot("/nonexistent/dir/nope.ckpt", snap),
               d::CheckpointError);
}

TEST(CheckpointFuzz, EveryTruncationIsDiagnosed) {
  const std::vector<std::uint8_t> bytes = d::serialize(sample_snapshot());
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        d::deserialize(std::span<const std::uint8_t>(bytes.data(), len)),
        d::CheckpointError)
        << "truncation to " << len << " bytes must throw";
  }
  // Trailing garbage is corruption too, not something to ignore.
  std::vector<std::uint8_t> extended = bytes;
  extended.push_back(0xAB);
  EXPECT_THROW(d::deserialize(extended), d::CheckpointError);
}

TEST(CheckpointFuzz, EveryBitFlipIsDiagnosed) {
  // The trailing checksum covers everything before it, and the checksum
  // itself can't be flipped without mismatching — so *any* single-byte
  // corruption (magic, version, dims, rank counts, payload, checksum) must
  // surface as CheckpointError. This subsumes the targeted flipped-version /
  // mismatched-dims / cross-rank-count header cases.
  const std::vector<std::uint8_t> bytes = d::serialize(sample_snapshot());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x5A;
    EXPECT_THROW(d::deserialize(corrupt), d::CheckpointError)
        << "flip at byte " << i << " must throw";
  }
}

TEST(Checkpoint, ResumeFingerprintMismatchesAreRejected) {
  d::Snapshot snap = sample_snapshot();
  Settings s = Settings::default_problem();
  s.nx = snap.nx;
  s.ny = snap.ny;
  s.halo_depth = snap.halo_depth;
  s.solver = snap.solver;
  s.end_step = snap.end_step;
  s.eps = snap.eps;
  s.dt_init = snap.dt_init;
  s.elastic = snap.elastic;
  s.nranks = 2;  // different world than nranks_at_save — explicitly allowed
  EXPECT_NO_THROW(d::check_resume_compatible(snap, s));

  Settings bad = s;
  bad.nx = snap.nx + 1;
  EXPECT_THROW(d::check_resume_compatible(snap, bad), d::CheckpointError);
  bad = s;
  bad.solver = SolverKind::kJacobi;
  EXPECT_THROW(d::check_resume_compatible(snap, bad), d::CheckpointError);
  bad = s;
  bad.eps = snap.eps * 10.0;
  EXPECT_THROW(d::check_resume_compatible(snap, bad), d::CheckpointError);
  bad = s;
  bad.elastic = !snap.elastic;
  EXPECT_THROW(d::check_resume_compatible(snap, bad), d::CheckpointError);
  bad = s;
  bad.end_step = snap.completed_steps;  // nothing left to run
  EXPECT_THROW(d::check_resume_compatible(snap, bad), d::CheckpointError);

  // A fused run resumes on the fused kernels only: the classic kernels
  // accumulate in another order and cannot reproduce its uninterrupted twin.
  d::Snapshot fused = snap;
  fused.elastic = false;
  fused.use_fused = true;
  Settings fused_settings = s;
  fused_settings.elastic = false;
  fused_settings.use_fused = true;
  EXPECT_NO_THROW(d::check_resume_compatible(fused, fused_settings));
  bad = fused_settings;
  bad.use_fused = false;
  EXPECT_THROW(d::check_resume_compatible(fused, bad), d::CheckpointError);
}

// ===========================================================================
// Kill-and-resume bit-identity battery
// ===========================================================================

TEST(KillResume, BitIdentityAcrossSolversAndRankTransitions) {
  const SolverKind solvers[] = {SolverKind::kCg, SolverKind::kCheby,
                                SolverKind::kPpcg, SolverKind::kJacobi};
  const int save_ranks[] = {1, 2, 4};
  const int resume_ranks[] = {1, 2, 4, 8};
  constexpr int kSteps = 2;
  constexpr int kKillAfter = 1;

  for (const SolverKind solver : solvers) {
    // Uninterrupted elastic baselines, one per resume rank count.
    std::map<int, d::DistReport> baseline;
    for (const int rr : resume_ranks) {
      const Settings s = elastic_problem(solver, rr, kSteps);
      d::DistributedDriver driver(s, reference_factory());
      baseline.emplace(rr, driver.run());
    }

    for (const int rs : save_ranks) {
      // Kill at the step-k boundary, keeping the last snapshot.
      d::Snapshot snap;
      bool captured = false;
      {
        const Settings s = elastic_problem(solver, rs, kSteps);
        d::DistributedDriver driver(s, reference_factory());
        d::RunControl ctl;
        ctl.halt_after_step = kKillAfter;
        ctl.on_checkpoint = [&](const d::Snapshot& sn) {
          snap = sn;
          captured = true;
        };
        const d::DistReport partial = driver.run(ctl);
        ASSERT_TRUE(captured);
        ASSERT_EQ(snap.completed_steps, kKillAfter);
        ASSERT_EQ(partial.run.steps.size(),
                  static_cast<std::size_t>(kKillAfter));
      }
      // The snapshot travels through the wire format, as it would on disk.
      const d::Snapshot reloaded = d::deserialize(d::serialize(snap));

      for (const int rr : resume_ranks) {
        SCOPED_TRACE(std::string(tl::core::solver_name(solver)) + " R" +
                     std::to_string(rs) + " -> R" + std::to_string(rr));
        Settings s = elastic_problem(solver, rr, kSteps);
        d::check_resume_compatible(reloaded, s);
        d::DistributedDriver driver(s, reference_factory());
        d::RunControl ctl;
        ctl.resume = &reloaded;
        const d::DistReport resumed = driver.run(ctl);
        expect_bit_identical(baseline.at(rr), resumed);
      }
    }
  }
}

TEST(KillResume, SameRankCountRestoresClockAndCommCursors) {
  // Non-elastic fused runs checkpoint too: with an unchanged rank count the
  // decomposition (and hence the reduction order) is unchanged, so the
  // resumed run is bit-identical AND the simulated clocks line up exactly.
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  s.solver = SolverKind::kCg;
  s.end_step = 3;
  s.nranks = 4;

  d::DistributedDriver base(s, omp3_factory());
  const d::DistReport full = base.run();

  d::Snapshot snap;
  {
    d::DistributedDriver first(s, omp3_factory());
    d::RunControl ctl;
    ctl.halt_after_step = 2;
    ctl.on_checkpoint = [&](const d::Snapshot& sn) { snap = sn; };
    first.run(ctl);
  }
  ASSERT_EQ(snap.completed_steps, 2);
  ASSERT_EQ(snap.nranks_at_save, 4);

  d::DistributedDriver second(s, omp3_factory());
  d::RunControl ctl;
  ctl.resume = &snap;
  const d::DistReport resumed = second.run(ctl);
  expect_bit_identical(full, resumed);
  ASSERT_EQ(resumed.ranks.size(), full.ranks.size());
  for (std::size_t r = 0; r < full.ranks.size(); ++r) {
    EXPECT_EQ(resumed.ranks[r].sim_seconds, full.ranks[r].sim_seconds);
    EXPECT_EQ(resumed.ranks[r].kernel_launches, full.ranks[r].kernel_launches);
    EXPECT_EQ(resumed.ranks[r].comm.bytes, full.ranks[r].comm.bytes);
    EXPECT_EQ(resumed.ranks[r].comm.halo_exchanges,
              full.ranks[r].comm.halo_exchanges);
  }
  EXPECT_EQ(resumed.run.sim_total_seconds, full.run.sim_total_seconds);
}

TEST(KillResume, SameRankCountResumeContinuesTheFaultTallies) {
  // The fault tallies are comm cursors too: a resume on the same rank count
  // starts from the snapshot's counts, whether or not it injects faults.
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  s.solver = SolverKind::kCg;
  s.end_step = 2;
  s.nranks = 2;
  c::FaultSpec lossy;
  lossy.seed = 5;
  lossy.drop = 0.08;
  lossy.duplicate = 0.05;
  lossy.delay = 0.05;

  d::Snapshot snap;
  {
    d::DistributedDriver first(s, reference_factory());
    d::RunControl ctl;
    ctl.halt_after_step = 1;
    ctl.faults = lossy;
    ctl.on_checkpoint = [&](const d::Snapshot& sn) { snap = sn; };
    first.run(ctl);
  }
  ASSERT_EQ(snap.cursors.size(), 2u);
  // The same snapshot with its fault tallies zeroed: resumed under the same
  // schedule, it reports the second leg's faults alone.
  d::Snapshot zeroed = snap;
  for (d::RankCursor& cur : zeroed.cursors) {
    cur.comm.retries = cur.comm.dropped = 0;
    cur.comm.duplicated = cur.comm.delayed = 0;
  }
  auto resume = [&](const d::Snapshot& from, const c::FaultSpec& faults) {
    d::DistributedDriver driver(s, reference_factory());
    d::RunControl ctl;
    ctl.resume = &from;
    ctl.faults = faults;
    return driver.run(ctl);
  };
  const d::DistReport clean = resume(snap, c::FaultSpec{});
  const d::DistReport faulty = resume(snap, lossy);
  const d::DistReport second_leg = resume(zeroed, lossy);

  std::uint64_t saved_faults = 0;
  std::uint64_t second_leg_faults = 0;
  for (std::size_t r = 0; r < snap.cursors.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const d::CommStats& saved = snap.cursors[r].comm;
    const d::CommStats& own = second_leg.ranks[r].comm;
    saved_faults += saved.dropped + saved.duplicated + saved.delayed;
    second_leg_faults += own.dropped + own.duplicated + own.delayed;
    EXPECT_EQ(clean.ranks[r].comm.retries, saved.retries);
    EXPECT_EQ(clean.ranks[r].comm.dropped, saved.dropped);
    EXPECT_EQ(clean.ranks[r].comm.duplicated, saved.duplicated);
    EXPECT_EQ(clean.ranks[r].comm.delayed, saved.delayed);
    EXPECT_EQ(faulty.ranks[r].comm.retries, saved.retries + own.retries);
    EXPECT_EQ(faulty.ranks[r].comm.dropped, saved.dropped + own.dropped);
    EXPECT_EQ(faulty.ranks[r].comm.duplicated,
              saved.duplicated + own.duplicated);
    EXPECT_EQ(faulty.ranks[r].comm.delayed, saved.delayed + own.delayed);
  }
  EXPECT_GT(saved_faults, 0u) << "the first leg must inject faults";
  EXPECT_GT(second_leg_faults, 0u) << "the second leg must inject faults";
}

TEST(KillResume, PeriodicCadenceCapturesEveryBoundary) {
  Settings s = elastic_problem(SolverKind::kCg, 2, 3);
  d::DistributedDriver driver(s, reference_factory());
  d::RunControl ctl;
  ctl.checkpoint_every = 1;
  std::vector<int> seen;
  ctl.on_checkpoint = [&](const d::Snapshot& sn) {
    seen.push_back(sn.completed_steps);
    EXPECT_EQ(sn.steps.size(), static_cast<std::size_t>(sn.completed_steps));
    EXPECT_EQ(sn.nranks_at_save, 2);
  };
  driver.run(ctl);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

// ===========================================================================
// Comm fault injection
// ===========================================================================

TEST(FaultInjection, LossySchedulesSurviveBitIdentically) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  s.solver = SolverKind::kCg;
  s.end_step = 2;
  s.nranks = 4;

  d::DistributedDriver base(s, reference_factory());
  const d::DistReport clean = base.run();

  std::uint64_t total_injected = 0;
  std::uint64_t total_retries = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    d::DistributedDriver driver(s, reference_factory());
    d::RunControl ctl;
    ctl.faults.seed = seed;
    ctl.faults.drop = 0.08;
    ctl.faults.duplicate = 0.05;
    ctl.faults.delay = 0.05;
    const d::DistReport rep = driver.run(ctl);
    expect_bit_identical(clean, rep);
    std::uint64_t injected = 0;
    std::uint64_t retries = 0;
    for (const d::RankReport& r : rep.ranks) {
      injected += r.comm.dropped + r.comm.duplicated + r.comm.delayed;
      retries += r.comm.retries;
      // Rounds retransmit a payload only after its attempt was dropped, so
      // the tallies depend on the schedule, not on thread timing.
      EXPECT_EQ(r.comm.retries, r.comm.dropped) << "rank " << r.rank;
    }
    EXPECT_GT(injected, 0u) << "the schedule must actually inject faults";
    total_injected += injected;
    total_retries += retries;
  }
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(total_retries, 0u) << "dropped payloads must force retransmits";
}

TEST(FaultInjection, UnsurvivableScheduleIsDiagnosable) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 16;
  s.solver = SolverKind::kCg;
  s.end_step = 1;
  s.nranks = 2;

  d::DistributedDriver driver(s, reference_factory());
  d::RunControl ctl;
  ctl.faults.seed = 3;
  ctl.faults.drop = 1.0;  // every DATA send vanishes — nothing can survive
  ctl.faults.max_attempts = 3;
  EXPECT_THROW(driver.run(ctl), c::CommFaultError);
}

TEST(FaultInjection, HardFailKillsEpochZeroAndSparesTheResume) {
  Settings s = elastic_problem(SolverKind::kCg, 2, 2);

  d::DistributedDriver base(s, reference_factory());
  const d::DistReport clean = base.run();

  c::FaultSpec spec;
  spec.hard_fail_rank = 0;
  spec.hard_fail_step = 2;
  spec.max_attempts = 4;

  // Epoch 0: the world dies at step 2, after the step-1 checkpoint.
  d::Snapshot snap;
  bool captured = false;
  {
    d::DistributedDriver doomed(s, reference_factory());
    d::RunControl ctl;
    ctl.faults = spec;
    ctl.checkpoint_every = 1;
    ctl.on_checkpoint = [&](const d::Snapshot& sn) {
      snap = sn;
      captured = true;
    };
    EXPECT_THROW(doomed.run(ctl), c::CommFaultError);
  }
  ASSERT_TRUE(captured);
  ASSERT_EQ(snap.completed_steps, 1);

  // Epoch 1 resumes from the snapshot; the hard-fail trigger is epoch-0
  // only, so the continued run completes — bit-identical to the clean one.
  d::DistributedDriver retry(s, reference_factory());
  d::RunControl ctl;
  ctl.faults = spec;
  ctl.faults.epoch = 1;
  ctl.resume = &snap;
  expect_bit_identical(clean, retry.run(ctl));
}

// ===========================================================================
// In-flight comm corruption (tl_verify --perturb comm targets)
// ===========================================================================

TEST(CommPerturb, CorruptionChangesResultsAndUnknownTargetsThrow) {
  Settings s = Settings::default_problem();
  s.nx = s.ny = 32;
  s.solver = SolverKind::kCg;
  s.end_step = 1;
  s.nranks = 2;

  d::DistributedDriver base(s, reference_factory());
  const d::DistReport clean = base.run();

  for (const char* target : {"halo_payload", "allreduce"}) {
    SCOPED_TRACE(target);
    d::DistributedDriver driver(s, reference_factory());
    d::RunControl ctl;
    ctl.comm_perturb = target;
    const d::DistReport rep = driver.run(ctl);
    // A silently absorbed perturbation would be a broken detector: the
    // corrupted run must differ somewhere bit-comparable.
    const bool u_differs =
        std::memcmp(clean.u.data(), rep.u.data(),
                    clean.u.size() * sizeof(double)) != 0;
    const bool rr_differs = clean.run.steps.back().solve.rr_history !=
                            rep.run.steps.back().solve.rr_history;
    EXPECT_TRUE(u_differs || rr_differs);
  }

  d::DistributedDriver bogus(s, reference_factory());
  d::RunControl ctl;
  ctl.comm_perturb = "bogus_target";
  EXPECT_THROW(bogus.run(ctl), std::invalid_argument);
}

TEST(CommPerturb, ConformanceCheckerFailsThePerturbedCells) {
  for (const char* target : {"halo_payload", "allreduce"}) {
    SCOPED_TRACE(target);
    tl::verify::VerifyOptions opt;
    opt.nx = 32;
    opt.ranks = 2;
    opt.solvers = {SolverKind::kCg};
    opt.only_model = *tl::sim::parse_model("omp3");
    opt.only_device = *tl::sim::parse_device("cpu");
    opt.comm_perturb = target;
    const tl::verify::ConformanceReport report =
        tl::verify::run_conformance(opt);
    EXPECT_FALSE(report.all_pass());
    EXPECT_GT(report.failed_cells(), 0);
  }

  tl::verify::VerifyOptions single;
  single.ranks = 1;
  single.comm_perturb = "halo_payload";
  EXPECT_THROW(tl::verify::run_conformance(single), std::invalid_argument);
}

// ===========================================================================
// Service: checkpoint-resume of fault-killed jobs
// ===========================================================================

namespace {

tl::service::Job elastic_job(const std::string& tenant, std::uint64_t seed,
                             int hard_fail_step) {
  tl::service::Job job;
  job.tenant = tenant;
  job.scenario.settings = Settings::default_problem();
  job.scenario.settings.nx = job.scenario.settings.ny = 24;
  job.scenario.settings.solver = SolverKind::kCg;
  job.scenario.settings.end_step = 2;
  job.scenario.settings.nranks = 2;
  job.resumable = true;
  job.faults.seed = seed;
  job.faults.drop = 0.02;
  job.faults.max_attempts = 10;
  job.faults.hard_fail_rank = hard_fail_step > 0 ? 0 : -1;
  job.faults.hard_fail_step = hard_fail_step;
  return job;
}

}  // namespace

TEST(ServiceElastic, FaultSoakEndsWithZeroFailuresAndIdenticalResults) {
  tl::service::ServiceConfig config;
  config.small_workers = 2;
  config.large_workers = 0;
  tl::service::SolveService svc(config);

  std::vector<tl::service::Job> jobs;
  const char* tenants[] = {"acme", "burl", "cato"};
  for (int i = 0; i < 9; ++i) {
    // A third of the jobs hard-fail on their first attempt — half of those
    // after the first checkpoint (resume mid-run), half during step 1
    // (restart from scratch). The rest just run under a lossy schedule.
    const int hard_fail = i % 3 == 0 ? (i % 2 == 0 ? 2 : 1) : -1;
    jobs.push_back(elastic_job(tenants[i % 3],
                               static_cast<std::uint64_t>(100 + i),
                               hard_fail));
  }
  for (const tl::service::Job& job : jobs) svc.submit(job);
  const tl::service::ServiceReport report = svc.finish();

  ASSERT_EQ(report.results.size(), jobs.size());
  EXPECT_TRUE(report.all_ok()) << "every fault-killed job must resume";

  int resumed = 0;
  for (const tl::service::JobResult& r : report.results) {
    SCOPED_TRACE("job " + std::to_string(r.id));
    EXPECT_TRUE(r.error.empty());
    EXPECT_EQ(r.checkpoint, nullptr)
        << "recorded results must not drag snapshots along";
    if (r.resume_attempts > 0) ++resumed;

    // Bit-identity with the clean standalone twin: faults, retries, and
    // checkpoint resumes must never change the answer.
    const tl::service::Job& job = jobs[static_cast<std::size_t>(r.id - 1)];
    const tl::service::ScenarioOutcome twin =
        tl::service::run_scenario(job.scenario);
    EXPECT_EQ(r.u_checksum.sum, twin.u_checksum.sum);
    EXPECT_EQ(r.u_checksum.l2, twin.u_checksum.l2);
    EXPECT_EQ(r.energy_checksum.sum, twin.energy_checksum.sum);
    EXPECT_EQ(r.energy_checksum.l2, twin.energy_checksum.l2);
  }
  EXPECT_GT(resumed, 0) << "the hard-fail jobs must ride the resume path";
}
