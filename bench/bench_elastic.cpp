// Elastic-execution bench: gate the three promises of the elastic layer and
// emit the committed BENCH_elastic.json regression artifact.
//
//   heterogeneous  on a world of unequal simulated devices (2x Sandy Bridge
//                  CPU + 2x K20X GPU), a bandwidth-weighted row split must
//                  beat the equal split: the slowest rank sets the simulated
//                  runtime, and weighting by STREAM bandwidth shrinks the
//                  slow ranks' tiles.
//   faults         seeded lossy schedules (drop/duplicate/delay) routed
//                  through the ack/retry protocol must survive with results
//                  bit-identical to the clean run, with retries actually
//                  exercised.
//   resume         a run killed at a step boundary and resumed into a
//                  different rank count (snapshot passed through the TLCKPT01
//                  codec) must finish bit-identical to the uninterrupted run.
//
// Everything here runs on the simulated clock (there is no wall clock in the
// artifact), so every number in it is deterministic, the retry/drop tallies
// included: they depend only on the fault schedule. The artifact declares
// its checks for `tl_report --check` (see tests/CMakeLists.txt
// golden.elastic.regen / telemetry.elastic.check).
//
//   --smoke         CI fast path: smaller heterogeneous mesh, fewer fault
//                   seeds. The committed artifact is the smoke one.
//   --report=FILE   artifact path (default BENCH_elastic.json)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "comm/decomposition.hpp"
#include "comm/fault.hpp"
#include "core/reference_kernels.hpp"
#include "core/settings.hpp"
#include "dist/checkpoint.hpp"
#include "dist/driver.hpp"
#include "ports/registry.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "telemetry/check.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace tl;

int total_iterations(const dist::DistReport& rep) {
  int n = 0;
  for (const core::StepReport& s : rep.run.steps) n += s.solve.iterations;
  return n;
}

bool fields_identical(const dist::DistReport& a, const dist::DistReport& b) {
  return a.u.size() == b.u.size() &&
         std::memcmp(a.u.data(), b.u.data(), a.u.size() * sizeof(double)) ==
             0 &&
         a.energy.size() == b.energy.size() &&
         std::memcmp(a.energy.data(), b.energy.data(),
                     a.energy.size() * sizeof(double)) == 0;
}

dist::PortFactory reference_factory() {
  return [](const core::Mesh& m, int) {
    return std::make_unique<core::ReferenceKernels>(m);
  };
}

// -- Heterogeneous decomposition --------------------------------------------

/// Half the world is the paper's CPU baseline, half its GPU baseline.
struct HeteroWorld {
  static constexpr int kRanks = 4;

  static sim::DeviceId device(int rank) {
    return rank < 2 ? sim::DeviceId::kCpuSandyBridge : sim::DeviceId::kGpuK20X;
  }
  static sim::Model model(int rank) {
    return rank < 2 ? sim::Model::kOmp3Cpp : sim::Model::kCuda;
  }
  static dist::PortFactory factory() {
    return [](const core::Mesh& m, int rank) {
      return ports::make_port(model(rank), device(rank), m);
    };
  }
};

struct HeteroCell {
  core::SolverKind solver;
  double equal_seconds = 0.0;
  double weighted_seconds = 0.0;
  double speedup = 0.0;
  int equal_iterations = 0;
  int weighted_iterations = 0;
};

HeteroCell run_hetero_cell(core::SolverKind solver, int mesh) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = mesh;
  s.solver = solver;
  s.end_step = 1;
  s.nranks = HeteroWorld::kRanks;

  comm::DecompOptions equal_opt;
  equal_opt.layout = comm::DecompOptions::Layout::kRows;

  HeteroCell cell;
  cell.solver = solver;
  // The equal-split run doubles as the calibration pass: each rank's
  // measured rate (rows per simulated second) folds launch latency AND
  // bandwidth into one number, so a latency-bound GPU is weighted by what
  // it actually delivers on this mesh, not by its STREAM headline.
  comm::DecompOptions weighted_opt;
  {
    const comm::BlockDecomposition equal_dec(s.nx, s.ny, s.nranks, equal_opt);
    dist::DistributedDriver driver(s, HeteroWorld::factory(), equal_dec);
    const dist::DistReport rep = driver.run();
    cell.equal_seconds = rep.run.sim_total_seconds;
    cell.equal_iterations = total_iterations(rep);
    for (const dist::RankReport& r : rep.ranks) {
      const double rows = static_cast<double>(equal_dec.tile(r.rank).ny());
      weighted_opt.weights.push_back(
          r.sim_seconds > 0.0 ? rows / r.sim_seconds : 1.0);
    }
  }
  {
    dist::DistributedDriver driver(
        s, HeteroWorld::factory(),
        comm::BlockDecomposition(s.nx, s.ny, s.nranks, weighted_opt));
    const dist::DistReport rep = driver.run();
    cell.weighted_seconds = rep.run.sim_total_seconds;
    cell.weighted_iterations = total_iterations(rep);
  }
  cell.speedup = cell.weighted_seconds > 0.0
                     ? cell.equal_seconds / cell.weighted_seconds
                     : 0.0;
  return cell;
}

// -- Fault survival ----------------------------------------------------------

struct FaultCell {
  std::uint64_t seed = 0;
  bool survived = false;
  bool identical = false;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
};

FaultCell run_fault_cell(std::uint64_t seed, const dist::DistReport& clean,
                         const core::Settings& s) {
  FaultCell cell;
  cell.seed = seed;
  dist::RunControl ctl;
  ctl.faults.seed = seed;
  ctl.faults.drop = 0.08;
  ctl.faults.duplicate = 0.05;
  ctl.faults.delay = 0.05;
  try {
    dist::DistributedDriver driver(s, reference_factory());
    const dist::DistReport rep = driver.run(ctl);
    cell.survived = true;
    cell.identical = fields_identical(clean, rep) &&
                     clean.run.steps.back().solve.rr_history ==
                         rep.run.steps.back().solve.rr_history;
    for (const dist::RankReport& r : rep.ranks) {
      cell.retries += r.comm.retries;
      cell.dropped += r.comm.dropped;
      cell.duplicated += r.comm.duplicated;
      cell.delayed += r.comm.delayed;
    }
  } catch (const comm::CommFaultError& e) {
    std::fprintf(stderr, "elastic bench: seed %llu did not survive: %s\n",
                 static_cast<unsigned long long>(seed), e.what());
  }
  return cell;
}

// -- Kill-and-resume ---------------------------------------------------------

struct ResumeCell {
  core::SolverKind solver;
  int from_ranks = 0;
  int to_ranks = 0;
  bool identical = false;
};

ResumeCell run_resume_cell(core::SolverKind solver, int from_ranks,
                           int to_ranks, int mesh) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = mesh;
  s.solver = solver;
  s.end_step = 2;
  s.elastic = true;

  ResumeCell cell;
  cell.solver = solver;
  cell.from_ranks = from_ranks;
  cell.to_ranks = to_ranks;

  s.nranks = to_ranks;
  dist::DistributedDriver uninterrupted(s, reference_factory());
  const dist::DistReport full = uninterrupted.run();

  std::vector<std::uint8_t> wire;
  {
    s.nranks = from_ranks;
    dist::DistributedDriver first_leg(s, reference_factory());
    dist::RunControl ctl;
    ctl.halt_after_step = 1;
    ctl.on_checkpoint = [&wire](const dist::Snapshot& snap) {
      wire = dist::serialize(snap);  // the artifact goes through the codec
    };
    (void)first_leg.run(ctl);
  }
  const dist::Snapshot snap = dist::deserialize(wire);

  s.nranks = to_ranks;
  dist::DistributedDriver second_leg(s, reference_factory());
  dist::RunControl ctl;
  ctl.resume = &snap;
  const dist::DistReport resumed = second_leg.run(ctl);

  cell.identical =
      fields_identical(full, resumed) &&
      full.run.steps.size() == resumed.run.steps.size() &&
      full.run.steps.back().solve.rr_history ==
          resumed.run.steps.back().solve.rr_history;
  return cell;
}

// -- Artifact ----------------------------------------------------------------

std::string artifact_json(const std::string& mode, int hetero_mesh,
                          const std::vector<HeteroCell>& hetero,
                          const std::vector<FaultCell>& faults,
                          const std::vector<ResumeCell>& resumes) {
  std::string os;
  os += "{\n";
  os += util::strf("  \"schema\": \"%s\",\n", telemetry::kBenchSchema);
  // The fault tallies are exact: the injector retries in logical rounds, so
  // they depend only on the fault schedule.
  os += telemetry::checks_member(
      {{".", {}, {"mode"}, {}, {}},
       {"heterogeneous.cells", {"solver"},
        {"equal_iterations", "weighted_iterations"},
        {"equal_seconds", "weighted_seconds"}, {"speedup"}},
       {"faults.cells", {"seed"},
        {"survived", "identical", "retries", "dropped", "duplicated",
         "delayed"},
        {}, {}},
       {"resume.cells", {"solver", "from_ranks", "to_ranks"}, {"identical"},
        {}, {}}});
  os += "  \"bench\": \"elastic\",\n";
  os += "  \"source\": \"bench_elastic\",\n";
  os += util::strf("  \"mode\": \"%s\",\n", mode.c_str());
  os += util::strf(
      "  \"heterogeneous\": {\"ranks\": %d, \"mesh\": %d, \"cells\": [",
      HeteroWorld::kRanks, hetero_mesh);
  for (std::size_t i = 0; i < hetero.size(); ++i) {
    const HeteroCell& c = hetero[i];
    os += i ? ",\n    " : "\n    ";
    os += util::strf(
        "{\"solver\": \"%s\", \"equal_seconds\": %.17g, "
        "\"weighted_seconds\": %.17g, \"speedup\": %.17g, "
        "\"equal_iterations\": %d, \"weighted_iterations\": %d}",
        std::string(core::solver_name(c.solver)).c_str(), c.equal_seconds,
        c.weighted_seconds, c.speedup, c.equal_iterations,
        c.weighted_iterations);
  }
  os += "\n  ]},\n";
  os += "  \"faults\": {\"cells\": [";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultCell& c = faults[i];
    os += i ? ",\n    " : "\n    ";
    os += util::strf(
        "{\"seed\": %llu, \"survived\": %d, \"identical\": %d, "
        "\"retries\": %llu, \"dropped\": %llu, \"duplicated\": %llu, "
        "\"delayed\": %llu}",
        static_cast<unsigned long long>(c.seed), c.survived ? 1 : 0,
        c.identical ? 1 : 0, static_cast<unsigned long long>(c.retries),
        static_cast<unsigned long long>(c.dropped),
        static_cast<unsigned long long>(c.duplicated),
        static_cast<unsigned long long>(c.delayed));
  }
  os += "\n  ]},\n";
  os += "  \"resume\": {\"cells\": [";
  for (std::size_t i = 0; i < resumes.size(); ++i) {
    const ResumeCell& c = resumes[i];
    os += i ? ",\n    " : "\n    ";
    os += util::strf(
        "{\"solver\": \"%s\", \"from_ranks\": %d, \"to_ranks\": %d, "
        "\"identical\": %d}",
        std::string(core::solver_name(c.solver)).c_str(), c.from_ranks,
        c.to_ranks, c.identical ? 1 : 0);
  }
  os += "\n  ]}\n";
  os += "}\n";
  return os;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const std::string report_path = cli.get_or("report", "BENCH_elastic.json");
  const int hetero_mesh =
      static_cast<int>(cli.get_long_or("mesh", smoke ? 128 : 384));

  int gate_failures = 0;
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "elastic bench: GATE FAILED: %s\n", what);
    ++gate_failures;
  };

  // Heterogeneous: weighted must beat equal for every solver.
  std::printf("elastic bench (%s): heterogeneous world, %d ranks "
              "(2x CPU 76.2 GB/s + 2x K20X 180.1 GB/s), %dx%d\n",
              smoke ? "smoke" : "full", HeteroWorld::kRanks, hetero_mesh,
              hetero_mesh);
  std::vector<HeteroCell> hetero;
  for (const core::SolverKind solver :
       {core::SolverKind::kCg, core::SolverKind::kPpcg}) {
    hetero.push_back(run_hetero_cell(solver, hetero_mesh));
  }
  {
    util::Table table({"solver", "equal s", "weighted s", "speedup", "iters"});
    for (const HeteroCell& c : hetero) {
      table.row({std::string(core::solver_name(c.solver)),
                 util::strf("%.6f", c.equal_seconds),
                 util::strf("%.6f", c.weighted_seconds),
                 util::strf("%.3fx", c.speedup),
                 util::strf("%d/%d", c.equal_iterations,
                            c.weighted_iterations)});
      if (!(c.weighted_seconds < c.equal_seconds)) {
        fail("weighted split not faster than equal split");
      }
    }
    std::printf("%s", table.render().c_str());
  }

  // Faults: every seeded lossy schedule survives bit-identically.
  const int fault_seeds = smoke ? 2 : 5;
  core::Settings fault_settings = core::Settings::default_problem();
  fault_settings.nx = fault_settings.ny = 48;
  fault_settings.solver = core::SolverKind::kCg;
  fault_settings.end_step = 2;
  fault_settings.nranks = 4;
  dist::DistributedDriver clean_driver(fault_settings, reference_factory());
  const dist::DistReport clean = clean_driver.run();
  std::vector<FaultCell> faults;
  std::uint64_t total_retries = 0;
  for (int seed = 1; seed <= fault_seeds; ++seed) {
    faults.push_back(run_fault_cell(static_cast<std::uint64_t>(seed), clean,
                                    fault_settings));
    const FaultCell& c = faults.back();
    total_retries += c.retries;
    std::printf(
        "  faults seed %d: %s, %s, %llu retries (%llu drop / %llu dup / "
        "%llu delay)\n",
        seed, c.survived ? "survived" : "DIED",
        c.identical ? "bit-identical" : "DIVERGED",
        static_cast<unsigned long long>(c.retries),
        static_cast<unsigned long long>(c.dropped),
        static_cast<unsigned long long>(c.duplicated),
        static_cast<unsigned long long>(c.delayed));
    if (!c.survived) fail("a lossy schedule was not survived");
    if (!c.identical) fail("a survived schedule diverged from the clean run");
  }
  if (total_retries == 0) fail("the retry protocol was never exercised");

  // Resume: kill at the step boundary, resume into a different rank count.
  std::vector<ResumeCell> resumes;
  struct Transition { core::SolverKind solver; int from; int to; };
  const Transition transitions[] = {
      {core::SolverKind::kCg, 2, 4},
      {core::SolverKind::kCheby, 4, 2},
      {core::SolverKind::kPpcg, 1, 4},
      {core::SolverKind::kJacobi, 4, 8},
  };
  for (const Transition& t : transitions) {
    resumes.push_back(run_resume_cell(t.solver, t.from, t.to, 48));
    const ResumeCell& c = resumes.back();
    std::printf("  resume %s %d -> %d ranks: %s\n",
                std::string(core::solver_name(c.solver)).c_str(),
                c.from_ranks, c.to_ranks,
                c.identical ? "bit-identical" : "DIVERGED");
    if (!c.identical) fail("a resumed run diverged from the uninterrupted run");
  }

  const std::string json = artifact_json(smoke ? "smoke" : "full",
                                         hetero_mesh, hetero, faults, resumes);
  {
    std::ofstream out(report_path);
    if (out) out << json;
    if (!out) {
      util::log_error("elastic bench: cannot write '%s'", report_path.c_str());
      ++gate_failures;
    }
  }
  std::printf("elastic bench: wrote %s\n", report_path.c_str());

  if (gate_failures > 0) {
    std::fprintf(stderr, "elastic bench: %d gate(s) FAILED\n", gate_failures);
    return 1;
  }
  std::printf("elastic bench: all gates passed\n");
  return 0;
}
