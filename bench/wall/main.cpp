// Host wall-clock benchmark of the TeaLeaf reproduction: times the public
// entry points (service::run_scenario, ports::make_port + core::Driver,
// SolveService::submit/finish) on four workloads, attributes host time per
// launch, comm event and rank in a separate traced pass, and checks every
// solve's counts, simulated seconds and checksums against expected.json.
//
//   wall_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   wall_bench --smoke                 all four workloads at 64², one pass
//   wall_bench --record-expected       rewrite bench/wall/expected.json
//
// Other flags: --root DIR (repo checkout, default .), --out DIR (result
// files, default <root>/build-wall/results), --commit SHA (recorded in the
// result). run.sh builds this binary and passes --root and --commit.
//
// With --trace 0 the last stdout line carries the end-to-end metrics of the
// one workload; with --trace 1 it carries the per-layer metrics, which need
// one untraced and one traced pass of all four workloads.

#include <cpuid.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/isa.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"
#include "wall.hpp"

namespace {

using namespace wall;

constexpr std::size_t kLayerMetrics = 97;

const std::vector<std::string>& all_workloads() {
  static const std::vector<std::string> names = {
      kSolveWorkloads[0], kSolveWorkloads[1], kSolveWorkloads[2],
      kServiceWorkload};
  return names;
}

WorkloadResult run_workload(const std::string& name, const RunOptions& opt,
                            Expectations& expect, Tally& tally) {
  if (name == kServiceWorkload) return run_service_workload(opt, expect, tally);
  return run_solve_workload(name, opt, expect, tally);
}

std::string num(double v) {
  return std::isfinite(v) ? tl::util::strf("%.17g", v) : "null";
}

/// CPU brand string straight from CPUID (no file access needed).
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
  brand = brand.c_str();  // stop at the first NUL
  return tl::util::trim(brand);
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string machine_json(const std::string& commit) {
  return tl::util::strf(
      "{\"cpu\": \"%s\", \"nproc\": %d, \"isa\": \"%s\", \"compiler\": "
      "\"g++ %s\", \"build_type\": \"%s\", \"commit\": \"%s\"}",
      tl::util::json_escape(cpu_model()).c_str(), cpus_available(),
      tl::core::isa::isa_name(tl::core::isa::active_isa()),
      tl::util::json_escape(__VERSION__).c_str(), WALL_BUILD_TYPE,
      tl::util::json_escape(commit).c_str());
}

std::string utc_stamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y%m%dT%H%M%SZ", &tm);
  return buf;
}

void print_table(const std::string& workload, const WorkloadResult& r) {
  std::printf("%-20s %-11s %14s %-5s %3s %14s %14s\n", "workload", "metric",
              "value", "unit", "n", "q1", "q3");
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-20s %-11s %14.6g %-5s %3zu %14.6g %14.6g\n",
                workload.c_str(), name.c_str(), m.value, m.unit.c_str(),
                m.spread.n, m.spread.q1, m.spread.q3);
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "wall_bench: %s\nusage: wall_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] | --smoke | --record-expected\n"
               "workloads: cg512-ports cheby-ppcg384-ports cg1024-ranks "
               "service-smalljobs\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  const tl::util::Cli cli(argc, argv);
  const std::string root = cli.get_or("root", ".");
  const std::string expected_path = root + "/bench/wall/expected.json";
  const bool recording = cli.has("record-expected");

  RunOptions opt;
  opt.smoke = cli.has("smoke");
  opt.seconds = cli.get_double_or("seconds", opt.seconds);
  opt.traced = cli.get_long_or("trace", 0) != 0 && !opt.smoke;
  if (const auto seed = cli.get("seed")) {
    opt.seed = std::stoull(*seed, nullptr, 0);
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  std::vector<std::string> workloads;
  const std::string selected = cli.get_or("workload", "");
  if (!selected.empty()) {
    const auto& all = all_workloads();
    if (std::find(all.begin(), all.end(), selected) == all.end()) {
      return usage(("unknown workload " + selected).c_str());
    }
  }
  if (recording || opt.traced || (opt.smoke && selected.empty())) {
    workloads = all_workloads();
  } else if (!selected.empty()) {
    workloads = {selected};
  } else {
    return usage("--workload is required");
  }

  Expectations expect(recording);
  if (!recording) expect.load(expected_path);

  Tally tally;
  const std::int64_t epoch = now_ns();
  std::vector<std::pair<std::string, WorkloadResult>> results;
  for (const std::string& w : workloads) {
    std::fprintf(stderr, "wall_bench: running %s\n", w.c_str());
    results.emplace_back(w, run_workload(w, opt, expect, tally));
    print_table(w, results.back().second);
  }
  if (recording) {
    record_service_expectations(expect, tally);
    if (tally.failed != 0 || tally.check_failed) {
      for (const std::string& why : tally.reasons) {
        std::fprintf(stderr, "  %s\n", why.c_str());
      }
      std::fprintf(stderr, "wall_bench: not recording, checks failed\n");
      return 1;
    }
    if (!expect.write(expected_path)) {
      std::fprintf(stderr, "wall_bench: cannot write %s\n",
                   expected_path.c_str());
      return 1;
    }
    std::printf("wall_bench: recorded %s\n", expected_path.c_str());
    return 0;
  }

  // Self-checks: attribution adds up, and every per-layer metric is there.
  double conservation = 0.0;
  std::set<std::string> layer_names;
  for (const auto& [w, r] : results) {
    conservation = std::max(conservation, r.max_conservation_error);
    for (const LayerMetric& m : r.layers) layer_names.insert(m.name);
  }
  if (conservation > 0.01) {
    tally.fail_check(tl::util::strf(
        "traced time attribution off by %.2f%% of a solve span",
        100.0 * conservation));
  }
  if (opt.traced && layer_names.size() != kLayerMetrics) {
    tally.fail_check(tl::util::strf("%zu per-layer metrics, expected %zu",
                                    layer_names.size(), kLayerMetrics));
  }

  const std::string out_dir = cli.get_or("out", root + "/build-wall/results");
  std::filesystem::create_directories(out_dir);
  const std::string run = tl::util::strf(
      "%s-%s-t%d-s%llu-p%d", utc_stamp().c_str(),
      opt.smoke ? "smoke" : (opt.traced ? "layers" : workloads[0].c_str()),
      opt.traced ? 1 : 0, static_cast<unsigned long long>(opt.seed),
      static_cast<int>(getpid()));
  if (opt.traced) {
    std::vector<TracedSolve> traces;
    for (auto& [w, r] : results) {
      for (TracedSolve& t : r.traces) traces.push_back(std::move(t));
    }
    const std::string trace_path = out_dir + "/" + run + ".trace.json";
    if (!write_chrome_trace(trace_path, traces, epoch)) {
      tally.fail_check("cannot write " + trace_path);
    }
  }
  bool correct = tally.failed == 0 && !tally.check_failed;

  // Result file: every raw sample plus machine context.
  std::ofstream out(out_dir + "/" + run + ".json");
  out << "{\n  \"schema\": \"tl-wall-result-1\",\n  \"run\": \"" << run
      << "\",\n  \"seed\": " << opt.seed << ",\n  \"seconds\": "
      << num(opt.seconds) << ",\n  \"trace\": " << (opt.traced ? 1 : 0)
      << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
      << ",\n  \"machine\": " << machine_json(cli.get_or("commit", "unknown"))
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << tally.attempted
      << ",\n  \"failed\": " << tally.failed
      << ",\n  \"failures\": " << json_array(tally.reasons)
      << ",\n  \"conservation_max_error\": " << num(conservation)
      << ",\n  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [w, r] = results[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << w << "\": {\"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
      out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
          << num(m.value) << ", \"unit\": \"" << m.unit
          << "\", \"n\": " << m.spread.n << ", \"q1\": " << num(m.spread.q1)
          << ", \"median\": " << num(m.spread.median)
          << ", \"q3\": " << num(m.spread.q3) << '}';
      first = false;
    }
    out << "}, \"layers\": {";
    for (std::size_t k = 0; k < r.layers.size(); ++k) {
      out << (k == 0 ? "" : ", ") << '"' << r.layers[k].name
          << "\": {\"value\": " << num(r.layers[k].value) << ", \"unit\": \""
          << r.layers[k].unit << "\"}";
    }
    out << "},\n      \"samples\": "
        << (r.samples_json.empty() ? "null" : r.samples_json) << '}';
  }
  out << "\n  }\n}\n";
  out.close();
  if (!out) {
    tally.fail_check("cannot write the result file in " + out_dir);
    correct = false;
  }

  for (const std::string& why : tally.reasons) {
    std::fprintf(stderr, "wall_bench: FAILED %s\n", why.c_str());
  }
  std::fprintf(stderr, "wall_bench: wrote %s/%s.json\n", out_dir.c_str(),
               run.c_str());

  // The last stdout line: the run's verdict and its metrics.
  std::string metrics;
  for (const auto& [w, r] : results) {
    const std::string prefix = results.size() > 1 && !opt.traced ? w + "/" : "";
    if (opt.traced) {
      for (const LayerMetric& m : r.layers) {
        metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
                   "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
                   m.unit + "\"}";
      }
      continue;
    }
    for (const auto& [name, m] : r.metrics) {
      metrics += (metrics.empty() ? "\"" : ", \"") + prefix + name +
                 "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.c_str());
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "wall_bench: %s\n", e.what());
  return 1;
}
