#pragma once
// DistributedDriver: the multi-rank timestep loop.
//
// Spawns a MiniComm world, block-decomposes the global mesh over
// settings.nranks, gives every rank its own tile-sized port (via the
// injected factory) wrapped in DistributedKernels, and runs core::Driver's
// step function (core::run_timestep) on every rank concurrently: upload,
// halo(density|energy0), init_u, init_coefficients, halo(u), solve,
// finalise, summary. Reduced scalars are identical on every rank (the
// link's allreduce folds in rank order), so all ranks take the same control
// flow and report the same solve statistics; with nranks == 1 the run is
// exactly the single-rank core::Driver run.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/decomposition.hpp"
#include "comm/fault.hpp"
#include "core/driver.hpp"
#include "core/settings.hpp"
#include "dist/checkpoint.hpp"
#include "dist/kernels.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "util/buffer.hpp"

namespace tl::dist {

/// Builds one rank's kernels for its tile mesh. Called concurrently from
/// every rank thread: must be thread-safe (ports::make_port is).
using PortFactory = std::function<std::unique_ptr<core::SolverKernels>(
    const core::Mesh& tile_mesh, int rank)>;

/// Per-rank outcome: the tile, the rank's simulated clock, and its comm tally.
struct RankReport {
  int rank = 0;
  comm::Tile tile;
  double sim_seconds = 0.0;
  std::uint64_t kernel_launches = 0;
  std::size_t kernel_bytes = 0;
  CommStats comm;
};

struct DistReport {
  /// Global view: step reports from rank 0 (solve statistics and summaries
  /// are allreduced, hence identical on every rank); sim_total_seconds is
  /// the slowest rank, kernel_launches the sum over ranks.
  core::RunReport run;
  std::vector<RankReport> ranks;
  core::Mesh global_mesh;
  /// Globally assembled final fields in the padded global layout (interiors
  /// gathered from every tile; halo cells left zero — checksums are
  /// interior-only).
  util::Buffer<double> u;
  util::Buffer<double> energy;

  std::size_t total_comm_bytes() const;
};

/// Elastic-execution controls for one run() call. Default-constructed, the
/// run is exactly the classic full run.
struct RunControl {
  /// > 0: stop after this step (a simulated kill at a step boundary). The
  /// returned report covers only the steps that ran; resume from the last
  /// snapshot to finish.
  int halt_after_step = 0;
  /// > 0: capture a Snapshot every N steps (and at a halt_after_step halt).
  int checkpoint_every = 0;
  /// Receives each captured snapshot, on rank 0's thread, while the other
  /// ranks hold at a barrier. Without it, captures are skipped.
  std::function<void(const Snapshot&)> on_checkpoint;
  /// Resume from this snapshot instead of step 1: fields are redistributed
  /// over the *current* decomposition (the rank count may differ from
  /// nranks_at_save), completed StepReports are prepended, and — same rank
  /// count only — per-rank clock/comm cursors are restored. Must stay valid
  /// for the run() call. Throws CheckpointError on a fingerprint mismatch.
  const Snapshot* resume = nullptr;
  /// An active() schedule is injected into every rank's comm link, whose
  /// exchanges then run the reliable ack/retry protocol.
  comm::FaultSpec faults;
  /// "" (off), "halo_payload", or "allreduce" — in-flight comm corruption
  /// for tl_verify --perturb.
  std::string comm_perturb;
};

/// The flags a run executes, resolved once from its settings and controls.
/// Elastic runs take the classic kernels: the fused paths would reorder the
/// accumulation the elastic fold fixes. Overlap stays on only for a plain
/// run: elastic runs charge every exchange in full, and fault-injected and
/// perturbed runs keep the blocking path, where every exchange (and every
/// corruption) settles as it happens. run() executes these settings and
/// records them in its snapshots; check_resume_compatible compares the
/// kernel set they resolve.
core::Settings executed_settings(const core::Settings& settings,
                                 const RunControl& ctl);

class DistributedDriver {
 public:
  /// Throws std::invalid_argument for bad settings (including a
  /// decomposition with more ranks than cells).
  DistributedDriver(const core::Settings& settings, PortFactory factory,
                    const sim::NetworkSpec& net = sim::node_interconnect());

  /// As above, but adopts a precomputed decomposition instead of deriving
  /// one from the settings — e.g. a weighted row-strip layout for a
  /// heterogeneous world. Throws std::invalid_argument when `decomp` does
  /// not match the settings' (nx, ny, nranks).
  DistributedDriver(const core::Settings& settings, PortFactory factory,
                    comm::BlockDecomposition decomp,
                    const sim::NetworkSpec& net = sim::node_interconnect());

  /// Runs settings.end_step steps over settings.nranks ranks.
  DistReport run();

  /// As run(), under elastic-execution controls (checkpoint capture, halted
  /// runs, snapshot resume, comm fault injection, comm perturbation), with
  /// the flags executed_settings(settings, ctl) resolves.
  DistReport run(const RunControl& ctl);

  const comm::BlockDecomposition& decomposition() const noexcept {
    return decomp_;
  }
  const core::Mesh& global_mesh() const noexcept { return global_mesh_; }

  /// Optional per-rank trace sinks (index = rank; nullptr or a short vector
  /// leaves ranks unobserved). Sinks receive each rank's full event stream,
  /// including the "comm"-phase halo_exchange/allreduce events.
  void set_rank_sinks(std::vector<sim::TraceSink*> sinks) {
    sinks_ = std::move(sinks);
  }

 private:
  core::Settings settings_;
  comm::BlockDecomposition decomp_;
  core::Mesh global_mesh_;
  PortFactory factory_;
  const sim::NetworkSpec* net_;
  std::vector<sim::TraceSink*> sinks_;
};

/// The tile's Mesh: tile-sized with the tile's physical sub-extents, so
/// state painting by cell centre reproduces the global initial condition.
core::Mesh tile_mesh(const core::Mesh& global, const comm::Tile& tile);

}  // namespace tl::dist
