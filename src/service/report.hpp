#pragma once
// The committed service artifact (tl-bench-1, `"bench": "service"`).
//
// One JSON document per soak/smoke run, regression-checked by `tl_report
// --check` against the committed BENCH_service.json. Emission is
// deterministic for everything the artifact declares exact (job mix,
// per-tenant counts, iterations, launches — all folded in job-id order);
// wall-clock fields (wall_seconds slower, jobs_per_s higher) are checked
// with tolerance, and scheduling outcomes (batches, max_wait_pops) are
// machine- and interleaving-dependent, so they are left undeclared.

#include <string>

#include "service/pool.hpp"

namespace tl::service {

/// Bench-level facts the pool cannot know: who emitted the artifact and the
/// standalone bit-identity verification tally.
struct ArtifactInfo {
  std::string source = "bench_service";
  std::uint64_t scenarios = 0;      // distinct scenario keys in the job mix
  std::uint64_t verified = 0;       // jobs compared against standalone twins
  std::uint64_t bit_identical = 0;  // comparisons that matched bitwise
};

std::string service_artifact_json(const ServiceConfig& config,
                                  const ServiceReport& report,
                                  const ArtifactInfo& info);

/// Writes the artifact; logs and returns false on I/O failure.
bool write_service_artifact(const std::string& path,
                            const ServiceConfig& config,
                            const ServiceReport& report,
                            const ArtifactInfo& info);

}  // namespace tl::service
