#pragma once
// The one solve entry point: run a Scenario exactly the way the standalone
// drivers do.
//
// Extracted from quickstart's inline driver wiring so every front end — the
// quickstart CLI, the solve service's workers, the soak bench's standalone
// verification twins — runs the identical path: settings.nranks == 1 is the
// classic single-chunk core::Driver run; nranks > 1 block-decomposes over a
// MiniComm world via DistributedDriver. Port seeding follows the canonical
// scheme (run_seed = 1 + rank), so a Scenario fully determines the result:
// two run_scenario calls return bit-identical field checksums no matter
// which thread, worker, or process runs them.

#include <functional>
#include <vector>

#include "dist/driver.hpp"
#include "service/job.hpp"
#include "sim/trace.hpp"

namespace tl::service {

/// Observability hooks. `sink_for_rank` (when set) is called once per rank
/// before the run and must return a sink that outlives it (nullptr = leave
/// that rank unobserved). Rank 0 doubles as the single-chunk sink.
struct ScenarioHooks {
  std::function<sim::TraceSink*(int rank)> sink_for_rank;
  /// Host threads each rank's port runs with (HostPool width).
  unsigned host_threads = 1;

  /// Elastic-execution controls (checkpoint capture, resume, fault
  /// injection) for distributed scenarios; single-chunk runs have no
  /// communication to fault or re-decompose, so they ignore it.
  dist::RunControl control;
};

/// What a scenario run yields: the step reports, the per-rank breakdown
/// (empty for single-chunk runs), and bit-comparable interior checksums of
/// the final u and energy fields.
struct ScenarioOutcome {
  core::RunReport run;
  std::vector<dist::RankReport> ranks;
  verify::FieldChecksum u_checksum;
  verify::FieldChecksum energy_checksum;
};

/// Runs `scenario` to completion. Throws std::invalid_argument for an
/// unsupported model x device pair or invalid settings.
ScenarioOutcome run_scenario(const Scenario& scenario,
                             const ScenarioHooks& hooks = {});

}  // namespace tl::service
