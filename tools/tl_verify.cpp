// tl_verify: the cross-model conformance checker CLI.
//
//   tl_verify [--nx 40] [--steps 1] [--seed 7] [--ranks R]
//             [--overlap on|off]
//             [--solver cg|cheby|ppcg|jacobi|all]
//             [--model ID] [--device cpu|gpu|knc]
//             [--golden FILE] [--regen-golden FILE]
//             [--json[=FILE]] [--perturb KERNEL] [--no-replay]
//
// Runs every supported model x device pair through the selected solvers,
// prints the conformance matrix (pass/FAIL + worst relative error per cell),
// optionally emits the machine-readable JSON report for CI, and exits
// nonzero on any divergence. `--golden FILE` additionally pins the reference
// kernels themselves to the committed baselines; `--regen-golden FILE`
// rewrites the baselines (a deliberate, reviewed act — see DESIGN.md §7).
// `--perturb KERNEL` corrupts one reference kernel to prove the checker
// fails when it should; the special targets `halo_payload` and `allreduce`
// (with --ranks > 1) instead corrupt the distributed cells' communication in
// flight, proving wire corruption is detected too. `--ranks R` (R > 1) runs
// every cell decomposed over
// R MiniComm ranks and asserts agreement with the 1-rank reference
// (DESIGN.md §8). `--overlap on|off` (default on) controls the overlapped
// halo pipeline for those decomposed cells; with it on, each cell also runs
// a blocking twin and asserts bit-identical results (DESIGN.md §10).

#include <cstdio>
#include <fstream>
#include <string>

#include "util/cli.hpp"
#include "verify/conformance.hpp"
#include "verify/perturb.hpp"
#include "verify/report.hpp"

using namespace tl;

namespace {

bool parse_solvers(const std::string& id,
                   std::vector<core::SolverKind>& out) {
  if (id == "all") {
    out.assign(core::kAllSolvers.begin(), core::kAllSolvers.end());
    out.push_back(core::SolverKind::kJacobi);
  } else if (const auto solver = core::parse_solver(id)) {
    out = {*solver};
  } else if (!id.empty()) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"nx", "steps", "seed", "ranks", "overlap", "no-replay",
                      "golden", "perturb", "solver", "model", "device",
                      "regen-golden", "json"});

  verify::VerifyOptions opt;
  opt.nx = static_cast<int>(cli.get_long_or("nx", opt.nx));
  opt.steps = static_cast<int>(cli.get_long_or("steps", opt.steps));
  opt.seed = static_cast<std::uint64_t>(cli.get_long_or("seed", 7));
  opt.ranks = static_cast<int>(cli.get_long_or("ranks", opt.ranks));
  if (opt.ranks < 1) {
    std::fprintf(stderr, "tl_verify: --ranks must be >= 1\n");
    return 2;
  }
  const std::string overlap = cli.get_or("overlap", "on");
  if (overlap == "on") {
    opt.overlap = true;
  } else if (overlap == "off") {
    opt.overlap = false;
  } else {
    std::fprintf(stderr, "tl_verify: --overlap must be 'on' or 'off'\n");
    return 2;
  }
  opt.check_replay = !cli.has("no-replay");
  opt.golden_path = cli.get_or("golden", "");
  // --perturb names either a reference kernel (PerturbingKernels) or one of
  // the comm-phase targets, which corrupt the distributed cells in flight.
  const std::string perturb = cli.get_or("perturb", "");
  if (perturb == "halo_payload" || perturb == "allreduce") {
    if (opt.ranks < 2) {
      std::fprintf(stderr,
                   "tl_verify: --perturb %s needs --ranks > 1 (it corrupts "
                   "inter-rank communication)\n",
                   perturb.c_str());
      return 2;
    }
    opt.comm_perturb = perturb;
  } else {
    opt.perturb_kernel = perturb;
  }

  if (!parse_solvers(cli.get_or("solver", ""), opt.solvers)) {
    std::fprintf(stderr, "tl_verify: unknown --solver '%s'\n",
                 cli.get_or("solver", "").c_str());
    return 2;
  }
  if (const auto model = cli.get("model")) {
    const auto parsed = sim::parse_model(*model);
    if (!parsed) {
      std::fprintf(stderr, "tl_verify: unknown --model '%s'\n", model->c_str());
      return 2;
    }
    opt.only_model = *parsed;
  }
  if (const auto device = cli.get("device")) {
    const auto parsed = sim::parse_device(*device);
    if (!parsed) {
      std::fprintf(stderr, "tl_verify: unknown --device '%s'\n",
                   device->c_str());
      return 2;
    }
    opt.only_device = *parsed;
  }

  // Baseline regeneration is its own mode: write and exit.
  if (const auto regen = cli.get("regen-golden")) {
    std::vector<verify::GoldenRecord> records;
    for (const core::SolverKind solver : opt.solvers) {
      records.push_back(
          verify::compute_reference_record(solver, opt.nx, opt.steps));
      std::printf("golden [%s] nx=%d steps=%d: %d iterations, "
                  "internal_energy=%.17g\n",
                  std::string(core::solver_name(solver)).c_str(), opt.nx,
                  opt.steps, records.back().iterations,
                  records.back().internal_energy);
    }
    verify::save_golden(*regen, records);
    std::printf("golden baselines written to %s (%zu records)\n",
                regen->c_str(), records.size());
    return 0;
  }

  verify::ConformanceReport report;
  try {
    report = verify::run_conformance(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tl_verify: %s\n", e.what());
    return 2;
  }

  std::printf("tl_verify: %dx%d mesh, %d step(s), %d rank(s)%s, seed %llu%s\n\n",
              opt.nx, opt.nx, opt.steps, opt.ranks,
              opt.ranks > 1 ? (opt.overlap ? " (overlap on)" : " (overlap off)")
                            : "",
              static_cast<unsigned long long>(opt.seed),
              !opt.perturb_kernel.empty()
                  ? (" — PERTURBED reference kernel: " + opt.perturb_kernel)
                        .c_str()
                  : !opt.comm_perturb.empty()
                        ? (" — PERTURBED comm phase: " + opt.comm_perturb)
                              .c_str()
                        : "");
  std::fputs(verify::format_matrix(report).c_str(), stdout);

  if (cli.has("json")) {
    const std::string json = verify::to_json(report);
    std::string path = cli.get_or("json", "");
    if (path == "true") path.clear();  // bare --json means stdout
    if (path.empty()) {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(path);
      out << json << "\n";
      if (!out) {
        std::fprintf(stderr, "tl_verify: cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("\nJSON report written to %s\n", path.c_str());
    }
  }

  const int failed = report.failed_cells();
  std::printf("\n%zu cells checked, %d failed; golden %s\n",
              report.cells.size(), failed,
              !report.references.empty() && report.references[0].golden_checked
                  ? (report.golden_pass() ? "pass" : "FAIL")
                  : "not checked");
  return report.all_pass() ? 0 : 1;
}
