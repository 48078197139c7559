#pragma once
// Checkpoint/restart for the distributed timestep loop.
//
// A Snapshot captures everything needed to resume a run at a step boundary:
// the solver configuration fingerprint, every completed StepReport (the
// residual histories included), per-rank simulated-clock and comm cursors,
// and the global {density, energy0} interiors. That pair is the complete
// step-boundary state: every halo cell is deterministically rebuilt by the
// halo update at the top of the next step, and u/kx/ky/r/p are recomputed
// from density/energy0 before the solve. A resume may therefore re-decompose
// the fields over a *different* rank count; in elastic mode (per-row
// reductions, row-strip decomposition) the continued run is bit-identical to
// the uninterrupted one.
//
// Wire format "TLCKPT01" (host-endian, in-process lifetime): magic, version,
// fixed header, step reports, per-rank cursors, field interiors, and a
// trailing FNV-1a checksum over everything before it. The loader is strict:
// truncation, bad magic/version, nonsense dimensions, or a checksum mismatch
// throw CheckpointError with a message naming what failed — never a crash,
// never a silent mis-resume.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/settings.hpp"
#include "dist/kernels.hpp"

namespace tl::dist {

/// Diagnosable checkpoint failure (malformed bytes, incompatible resume).
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One rank's simulated-clock and comm tally at the capture point. Restored
/// verbatim on a same-rank-count resume; dropped (cursors restart at zero)
/// when the rank count changes — numerics are unaffected either way.
struct RankCursor {
  double elapsed_ns = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t transfers = 0;
  std::uint64_t kernel_bytes = 0;
  std::uint64_t transfer_bytes = 0;
  CommStats comm;
};

struct Snapshot {
  // Configuration fingerprint: a resume must match all of these except
  // end_step (the resumed run may go further) and overlap_comm. use_fused is
  // the kernel set the run executed (dist::executed_settings).
  int nx = 0;
  int ny = 0;
  int halo_depth = 0;
  core::SolverKind solver = core::SolverKind::kCg;
  int end_step = 0;
  bool elastic = false;
  bool use_fused = false;
  /// Provenance only: overlap moves where exchanges are charged, not the
  /// numerics (DESIGN.md §10). Records the flag the run executed.
  bool overlap_comm = false;
  double eps = 0.0;
  double dt_init = 0.0;

  int completed_steps = 0;
  int nranks_at_save = 0;

  /// One report per completed step, residual histories included; a resumed
  /// run prepends these so its final report equals the uninterrupted one's.
  std::vector<core::StepReport> steps;
  std::vector<RankCursor> cursors;  // size nranks_at_save

  /// Global interiors, row-major nx * ny (no halo — halos are rebuilt).
  std::vector<double> density;
  std::vector<double> energy0;
};

/// Snapshot -> TLCKPT01 bytes.
std::vector<std::uint8_t> serialize(const Snapshot& snap);

/// TLCKPT01 bytes -> Snapshot; throws CheckpointError on anything malformed.
Snapshot deserialize(std::span<const std::uint8_t> bytes);

/// File convenience wrappers around (de)serialize. load_snapshot throws
/// CheckpointError when the file is unreadable or malformed.
void save_snapshot(const std::string& path, const Snapshot& snap);
Snapshot load_snapshot(const std::string& path);

/// Throws CheckpointError when `snap` cannot resume a run configured by
/// `settings` (mesh/solver/tolerance/kernel-set fingerprint mismatch, or
/// nothing left to run). The kernel set compared is the one
/// dist::executed_settings resolves. The rank count may differ — that is
/// the elastic resume path.
void check_resume_compatible(const Snapshot& snap,
                             const core::Settings& settings);

}  // namespace tl::dist
