#include "dist/driver.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/state_init.hpp"

namespace tl::dist {

namespace {

/// Settings-derived decomposition: elastic mode needs row strips (whole rows
/// per rank) for the rank-count-invariant reduction order.
comm::BlockDecomposition default_decomp(const core::Settings& s) {
  comm::DecompOptions opt;
  if (s.elastic) opt.layout = comm::DecompOptions::Layout::kRows;
  return comm::BlockDecomposition(s.nx, s.ny, s.nranks, opt);
}

}  // namespace

core::Settings executed_settings(const core::Settings& settings,
                                 const RunControl& ctl) {
  core::Settings out = settings;
  out.use_fused = settings.use_fused && !settings.elastic;
  out.overlap_comm = settings.overlap_comm && !settings.elastic &&
                     !ctl.faults.active() && ctl.comm_perturb.empty();
  return out;
}

core::Mesh tile_mesh(const core::Mesh& global, const comm::Tile& tile) {
  core::Mesh mesh(tile.nx(), tile.ny(), global.halo_depth);
  mesh.x_min = global.x_min + tile.x_begin * global.dx();
  mesh.x_max = global.x_min + tile.x_end * global.dx();
  mesh.y_min = global.y_min + tile.y_begin * global.dy();
  mesh.y_max = global.y_min + tile.y_end * global.dy();
  return mesh;
}

std::size_t DistReport::total_comm_bytes() const {
  std::size_t bytes = 0;
  for (const RankReport& r : ranks) bytes += r.comm.bytes;
  return bytes;
}

DistributedDriver::DistributedDriver(const core::Settings& settings,
                                     PortFactory factory,
                                     const sim::NetworkSpec& net)
    : DistributedDriver(settings, std::move(factory), default_decomp(settings),
                        net) {}

DistributedDriver::DistributedDriver(const core::Settings& settings,
                                     PortFactory factory,
                                     comm::BlockDecomposition decomp,
                                     const sim::NetworkSpec& net)
    : settings_(settings),
      decomp_(std::move(decomp)),
      global_mesh_(settings.mesh()),
      factory_(std::move(factory)),
      net_(&net) {
  settings_.validate();
  if (!factory_) throw std::invalid_argument("DistributedDriver: null factory");
  if (decomp_.global_nx() != settings_.nx ||
      decomp_.global_ny() != settings_.ny ||
      decomp_.nranks() != settings_.nranks) {
    throw std::invalid_argument(
        "DistributedDriver: decomposition does not match settings");
  }
  if (settings_.elastic && !decomp_.row_strips()) {
    // The elastic fold is defined over whole rows in global order.
    throw std::invalid_argument(
        "DistributedDriver: elastic mode requires a row-strip "
        "decomposition (every rank must own whole rows)");
  }
}

DistReport DistributedDriver::run() { return run(RunControl{}); }

DistReport DistributedDriver::run(const RunControl& ctl) {
  const int nranks = decomp_.nranks();
  const int h = settings_.halo_depth;
  const int gnx = settings_.nx;
  const int gny = settings_.ny;
  const core::Settings run_settings = executed_settings(settings_, ctl);
  const Mode mode{.overlap_comm = run_settings.overlap_comm,
                  .elastic = run_settings.elastic,
                  .faults = ctl.faults,
                  .comm_perturb = ctl.comm_perturb};

  if (ctl.resume != nullptr) check_resume_compatible(*ctl.resume, settings_);
  const int first_step = ctl.resume ? ctl.resume->completed_steps + 1 : 1;
  int last_step = settings_.end_step;
  if (ctl.halt_after_step > 0) last_step = std::min(last_step, ctl.halt_after_step);
  if (last_step < first_step) {
    throw std::invalid_argument(
        "DistributedDriver: halt_after_step precedes the resume point");
  }
  const bool may_capture = static_cast<bool>(ctl.on_checkpoint) &&
                           (ctl.checkpoint_every > 0 || ctl.halt_after_step > 0);

  DistReport report;
  report.global_mesh = global_mesh_;
  report.u.resize(global_mesh_.padded_cells());
  report.energy.resize(global_mesh_.padded_cells());
  report.ranks.resize(static_cast<std::size_t>(nranks));

  // Checkpoint staging: every rank writes its tile's interiors and cursor
  // into these, then rank 0 assembles the Snapshot between two barriers.
  std::vector<double> stage_density, stage_energy0;
  std::vector<RankCursor> stage_cursors;
  if (may_capture) {
    const std::size_t cells =
        static_cast<std::size_t>(gnx) * static_cast<std::size_t>(gny);
    stage_density.assign(cells, 0.0);
    stage_energy0.assign(cells, 0.0);
    stage_cursors.resize(static_cast<std::size_t>(nranks));
  }

  // Rank threads write disjoint slots: their RankReport, their tile's
  // interior cells of the global field buffers, and (rank 0 only) run.steps.
  comm::run_ranks(nranks, [&](comm::Communicator& cm) {
    const int rank = cm.rank();
    const comm::Tile& tile = decomp_.tile(rank);
    const core::Mesh mesh = tile_mesh(global_mesh_, tile);

    core::Chunk chunk(mesh);
    core::apply_initial_states(chunk, settings_);

    DistributedKernels k(factory_(mesh, rank), cm, decomp_, h, *net_, mode);
    if (static_cast<std::size_t>(rank) < sinks_.size() &&
        sinks_[static_cast<std::size_t>(rank)] != nullptr) {
      k.attach_trace_sink(sinks_[static_cast<std::size_t>(rank)]);
    }

    if (ctl.resume != nullptr) {
      // Redistribute the checkpointed interiors over the *current*
      // decomposition: rank 0 holds the snapshot's global fields, broadcasts
      // them through MiniComm, and every rank scatters its own tile.
      const Snapshot& snap = *ctl.resume;
      const std::size_t cells =
          static_cast<std::size_t>(gnx) * static_cast<std::size_t>(gny);
      std::vector<double> gdens(cells), gen0(cells);
      if (rank == 0) {
        gdens = snap.density;
        gen0 = snap.energy0;
      }
      cm.broadcast(std::span<double>(gdens), 0);
      cm.broadcast(std::span<double>(gen0), 0);
      auto d = chunk.field(core::FieldId::kDensity);
      auto e0 = chunk.field(core::FieldId::kEnergy0);
      for (int y = 0; y < tile.ny(); ++y) {
        for (int x = 0; x < tile.nx(); ++x) {
          const std::size_t g =
              static_cast<std::size_t>(tile.y_begin + y) * gnx +
              static_cast<std::size_t>(tile.x_begin + x);
          d(h + x, h + y) = gdens[g];
          e0(h + x, h + y) = gen0[g];
        }
      }
      if (snap.nranks_at_save == nranks &&
          static_cast<std::size_t>(rank) < snap.cursors.size()) {
        // Same world shape: continue the simulated clock and comm tally from
        // the capture point so timing reports match the uninterrupted run.
        // A different rank count drops the cursors (timers restart at zero);
        // numerics are unaffected either way.
        const RankCursor& c = snap.cursors[static_cast<std::size_t>(rank)];
        const_cast<sim::SimClock&>(k.clock())
            .restore(c.elapsed_ns, c.launches, c.transfers, c.kernel_bytes,
                     c.transfer_bytes);
        k.restore_comm_stats(c.comm);
      }
    }

    std::vector<core::StepReport> steps;
    steps.reserve(static_cast<std::size_t>(last_step));
    if (ctl.resume != nullptr) {
      steps.assign(ctl.resume->steps.begin(), ctl.resume->steps.end());
    }
    for (int s = first_step; s <= last_step; ++s) {
      k.set_fault_step(s);
      steps.push_back(
          core::run_timestep(k, chunk, run_settings, global_mesh_, s));

      const bool periodic =
          ctl.checkpoint_every > 0 && s % ctl.checkpoint_every == 0;
      const bool at_halt = ctl.halt_after_step > 0 && s == last_step;
      if (may_capture && (periodic || at_halt)) {
        const auto d = chunk.field(core::FieldId::kDensity);
        const auto e0 = chunk.field(core::FieldId::kEnergy0);
        for (int y = 0; y < tile.ny(); ++y) {
          for (int x = 0; x < tile.nx(); ++x) {
            const std::size_t g =
                static_cast<std::size_t>(tile.y_begin + y) * gnx +
                static_cast<std::size_t>(tile.x_begin + x);
            stage_density[g] = d(h + x, h + y);
            stage_energy0[g] = e0(h + x, h + y);
          }
        }
        RankCursor& cur = stage_cursors[static_cast<std::size_t>(rank)];
        cur.elapsed_ns = k.clock().elapsed_ns();
        cur.launches = k.clock().launches();
        cur.transfers = k.clock().transfers();
        cur.kernel_bytes = k.clock().kernel_bytes();
        cur.transfer_bytes = k.clock().transfer_bytes();
        cur.comm = k.comm_stats();
        cm.barrier();
        if (rank == 0) {
          Snapshot snap;
          snap.nx = gnx;
          snap.ny = gny;
          snap.halo_depth = h;
          snap.solver = settings_.solver;
          snap.end_step = settings_.end_step;
          snap.elastic = settings_.elastic;
          snap.use_fused = run_settings.use_fused;
          snap.overlap_comm = run_settings.overlap_comm;
          snap.eps = settings_.eps;
          snap.dt_init = settings_.dt_init;
          snap.completed_steps = s;
          snap.nranks_at_save = nranks;
          snap.steps = steps;  // rank 0's steps carry any resume prefix
          snap.cursors = stage_cursors;
          snap.density = stage_density;
          snap.energy0 = stage_energy0;
          ctl.on_checkpoint(snap);
        }
        cm.barrier();
      }
    }

    // Gather this tile's interiors into the global buffers.
    util::Buffer<double> tile_u(mesh.padded_cells());
    auto tu = tile_u.view2d(mesh.padded_nx(), mesh.padded_ny());
    k.read_u(tu);
    auto gu = report.u.view2d(global_mesh_.padded_nx(),
                              global_mesh_.padded_ny());
    auto ge = report.energy.view2d(global_mesh_.padded_nx(),
                                   global_mesh_.padded_ny());
    const auto te = chunk.field(core::FieldId::kEnergy);
    for (int y = 0; y < tile.ny(); ++y) {
      for (int x = 0; x < tile.nx(); ++x) {
        gu(h + tile.x_begin + x, h + tile.y_begin + y) = tu(h + x, h + y);
        ge(h + tile.x_begin + x, h + tile.y_begin + y) = te(h + x, h + y);
      }
    }

    RankReport& rr = report.ranks[static_cast<std::size_t>(rank)];
    rr.rank = rank;
    rr.tile = tile;
    rr.sim_seconds = k.clock().elapsed_seconds();
    rr.kernel_launches = k.clock().launches();
    rr.kernel_bytes = k.clock().kernel_bytes();
    rr.comm = k.comm_stats();

    if (rank == 0) report.run.steps = std::move(steps);
  });

  double max_seconds = 0.0;
  std::uint64_t launches = 0;
  std::size_t kernel_bytes = 0;
  for (const RankReport& r : report.ranks) {
    max_seconds = std::max(max_seconds, r.sim_seconds);
    launches += r.kernel_launches;
    kernel_bytes += r.kernel_bytes;
  }
  report.run.sim_total_seconds = max_seconds;
  report.run.kernel_launches = launches;
  report.run.achieved_bandwidth_gbs =
      max_seconds > 0.0 ? static_cast<double>(kernel_bytes) /
                              (max_seconds * 1e9)
                        : 0.0;
  return report;
}

}  // namespace tl::dist
