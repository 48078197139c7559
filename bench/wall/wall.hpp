#pragma once
// Shared pieces of the host wall-clock benchmark: the port pairs it runs,
// summary statistics, failure accounting, the exact-expectation store, the
// timestamping trace sink, and the two workload families (solve items and
// the solve service). Everything here calls the repo's public entry points
// only — service::run_scenario, ports::make_port + core::Driver, and
// service::SolveService — so the benchmark needs no change to src/.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/settings.hpp"
#include "service/entry.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "sim/trace.hpp"

namespace wall {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host steady-clock nanoseconds (the trace timestamps).
std::int64_t now_ns();

// -- Statistics (stats.cpp) -------------------------------------------------

/// Sample count, median and quartiles. Quartiles follow Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), so numbers
/// printed here match what compare.py and external checks compute.
struct Spread {
  std::size_t n = 0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Spread spread_of(std::vector<double> values);
double median_of(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double percentile_of(std::vector<double> values, double p);

/// JSON array of the values, nine significant digits each.
std::string json_array(const std::vector<double>& values);
/// JSON array of quoted strings.
std::string json_array(const std::vector<std::string>& values);

// -- Port pairs ---------------------------------------------------------------

struct Pair {
  tl::sim::Model model;
  tl::sim::DeviceId device;
};

/// The ROADMAP wall-time table's pairs: all six port families, each on the
/// device the paper ran it on.
inline constexpr std::array<Pair, 7> kPairs = {{
    {tl::sim::Model::kOmp3Cpp, tl::sim::DeviceId::kCpuSandyBridge},
    {tl::sim::Model::kRaja, tl::sim::DeviceId::kCpuSandyBridge},
    {tl::sim::Model::kKokkos, tl::sim::DeviceId::kCpuSandyBridge},
    {tl::sim::Model::kOpenCl, tl::sim::DeviceId::kCpuSandyBridge},
    {tl::sim::Model::kCuda, tl::sim::DeviceId::kGpuK20X},
    {tl::sim::Model::kOpenAcc, tl::sim::DeviceId::kGpuK20X},
    {tl::sim::Model::kOmp4, tl::sim::DeviceId::kMicKnc},
}};

/// "opencl-cpu" — the metric-name spelling of a pair.
std::string pair_name(const Pair& pair);

// -- Failure accounting -------------------------------------------------------

/// Operations attempted and failed. An operation is one solve or one service
/// job; it fails on an exception, a non-converged solve where convergence is
/// expected, an expectation or twin mismatch, ok == false, or a fairness
/// violation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool check_failed = false;         // a whole-run self-check failed
  std::vector<std::string> reasons;  // first few failures, for the report

  /// Counts one operation; `reason` empty means it passed.
  void add(const std::string& what, const std::string& reason);
  /// A whole-run self-check (not an operation): fails the run, counts nothing.
  void fail_check(const std::string& reason);
};

// -- Exact expectations (expect.cpp) -----------------------------------------

/// Flat, ordered field list of one solve's reproducible outputs: iteration
/// and launch counts, simulated seconds, u/energy checksums and, for
/// multi-rank runs, every rank's comm counts. All fields compare exactly.
using Record = std::vector<std::pair<std::string, double>>;

Record record_of(const tl::service::ScenarioOutcome& outcome);
/// The same fields as a single-rank outcome, as a service job reports them.
Record record_of(const tl::service::JobResult& job);
/// The named field's value (0 when absent).
double field_of(const Record& record, std::string_view name);

/// Reads and writes bench/wall/expected.json. In recording mode check()
/// stores what it is given (and still insists that a key seen twice repeats
/// exactly); otherwise it compares against the committed entry.
class Expectations {
 public:
  explicit Expectations(bool recording) : recording_(recording) {}

  /// Throws std::runtime_error when the file is missing or malformed.
  void load(const std::string& path);
  /// Empty string on an exact match; otherwise the first difference.
  std::string check(const std::string& key, const Record& got);
  /// Returns false on an I/O failure.
  bool write(const std::string& path) const;
  bool recording() const noexcept { return recording_; }

 private:
  bool recording_;
  std::map<std::string, Record> entries_;
};

// -- Timestamping trace sink (host_trace.cpp) ---------------------------------

struct Stamped {
  std::int64_t host_ns = 0;
  tl::sim::TraceEvent event;
};

/// Stamps every metered launch, transfer and comm event with the host clock.
/// One sink per rank, so each is written from one thread only.
class HostTraceSink final : public tl::sim::TraceSink {
 public:
  void on_event(const tl::sim::TraceEvent& event) override {
    events_.push_back(Stamped{now_ns(), event});
  }
  const std::vector<Stamped>& events() const noexcept { return events_; }

 private:
  std::vector<Stamped> events_;
};

/// Host time of one rank of a traced solve, split at its events. An event's
/// gap is the host time since the previous event on that rank: a launch's
/// gap is its body plus dispatch, a comm event's gap is pack, MiniComm
/// transfer and waiting for peers, and the gap before the first event is
/// construction, painting and upload. The tail runs from the last event to
/// the solve's return (gather and checksums).
struct RankTime {
  double first_gap_ns = 0.0;
  double launch_ns = 0.0;
  double transfer_ns = 0.0;
  double comm_ns = 0.0;
  double overlap_ns = 0.0;  // trace-only "overlap" events (hidden comm)
  double tail_ns = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t transfers = 0;
  std::uint64_t comm_events = 0;
  bool monotonic = true;

  double total_ns() const {
    return first_gap_ns + launch_ns + transfer_ns + comm_ns + overlap_ns +
           tail_ns;
  }
};

/// One traced solve span: its label, host start/end, one sink per rank.
struct TracedSolve {
  std::string label;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::unique_ptr<HostTraceSink>> ranks;

  double wall_ns() const { return static_cast<double>(end_ns - start_ns); }
  RankTime rank_time(std::size_t rank) const;
  /// Largest |Σ attributed − wall| / wall over ranks; 1.0 when a rank saw
  /// no events or its timestamps run backwards.
  double conservation_error() const;
};

/// run_scenario with a HostTraceSink per rank attached through
/// ScenarioHooks::sink_for_rank; fills `traced`.
tl::service::ScenarioOutcome run_traced(const tl::service::Scenario& scenario,
                                        TracedSolve& traced);

/// Chrome trace-event JSON on the host clock (µs from `epoch_ns`): each solve
/// is a process, rank r is thread r+1 under a solve span on thread 0, and
/// each event is a slice covering its gap, with the simulated start,
/// duration and bytes in its args. Returns false on an I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<TracedSolve>& solves,
                        std::int64_t epoch_ns);

// -- Workload results ---------------------------------------------------------

/// One end-to-end metric of a run: the reported value, its unit, and the
/// spread of the per-pass samples it came from.
struct Metric {
  double value = 0.0;
  std::string unit;
  Spread spread;
};

/// One per-layer metric (from the traced pass or the public reports).
struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload contributes to the run's result file.
struct WorkloadResult {
  std::map<std::string, Metric> metrics;  // end-to-end, trace 0
  std::vector<LayerMetric> layers;        // per-layer, trace 1
  std::string samples_json;  // raw per-pass / per-job samples (JSON value)
  std::vector<TracedSolve> traces;
  double max_conservation_error = 0.0;

  void add_layer(std::string name, double value, const char* unit) {
    layers.push_back({std::move(name), value, unit});
  }
};

/// Seed of the service deck when --seed is not given.
inline constexpr std::uint64_t kDefaultSeed = 0x7ea1ea55ULL;

/// How a workload is run.
struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool traced = false;  // one untraced + one traced pass, per-layer metrics
  bool smoke = false;   // small meshes, one pass
};

// -- Solve workloads (solve_load.cpp) -----------------------------------------

/// Seconds to build what a solve of `scenario` runs on: its port and
/// core::Driver (painting included) for one rank; for several ranks the
/// DistributedDriver (decomposition), whose ports are built inside the run.
double time_setup(const tl::service::Scenario& scenario);

inline constexpr std::array<const char*, 3> kSolveWorkloads = {
    "cg512-ports", "cheby-ppcg384-ports", "cg1024-ranks"};

/// Runs a solve workload: an untimed warm-up at 64², then timed passes (or,
/// traced, the attribution passes).
WorkloadResult run_solve_workload(const std::string& workload,
                                  const RunOptions& options,
                                  Expectations& expect, Tally& tally);

// -- Service workload (service_load.cpp) --------------------------------------

inline constexpr const char* kServiceWorkload = "service-smalljobs";

WorkloadResult run_service_workload(const RunOptions& options,
                                    Expectations& expect, Tally& tally);

/// Records the expectations of every scenario key the service deck can draw
/// and of the default-seed decks (full and smoke).
void record_service_expectations(Expectations& expect, Tally& tally);

}  // namespace wall
