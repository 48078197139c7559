// tl_report: analysis and regression checking of the repo's artifacts.
//
//   tl_report [--top=N] FILE...
//       Analyze each artifact. tl-report-1 run reports get the top-N kernels
//       with roofline ratios, per-rank comm exposure and fusion/overlap
//       effectiveness; every other section an artifact declares in its
//       "checks" member (all the tl-bench-1 BENCH_*.json artifacts) is
//       printed as a table.
//
//   tl_report --check --baseline=BASE [--rel-tol=0.10] CURRENT
//       Regression gate: compare CURRENT against BASE by walking BASE's
//       check declaration. Exact fields must match; slower fields fail only
//       when larger than baseline by more than the relative tolerance,
//       higher fields only when smaller; a row, field or declaration
//       missing or changed on either side fails. Exits 0 on pass, 1 on
//       regression, 2 on usage or parse errors.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace tl;

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--top=N] FILE...\n"
               "       %s --check --baseline=BASE [--rel-tol=T] CURRENT\n",
               program, program);
  return 2;
}

bool load_json(const std::string& path, util::JsonValue& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tl_report: cannot read '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    out = util::parse_json(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tl_report: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  // Operands: positionals, plus a value the parser attached to the bare
  // --check flag (`--check FILE` binds FILE to the flag).
  std::vector<std::string> files = cli.positional();
  const std::string check_value = cli.get_or("check", "");
  if (!check_value.empty() && check_value != "true") {
    files.insert(files.begin(), check_value);
  }

  if (cli.has("check")) {
    const std::string baseline_path = cli.get_or("baseline", "");
    if (baseline_path.empty() || files.size() != 1) {
      return usage(cli.program().c_str());
    }
    telemetry::CheckOptions opt;
    opt.rel_tol = cli.get_double_or("rel-tol", opt.rel_tol);
    if (opt.rel_tol < 0.0) {
      std::fprintf(stderr, "tl_report: --rel-tol must be >= 0\n");
      return 2;
    }

    util::JsonValue baseline, current;
    if (!load_json(baseline_path, baseline) || !load_json(files[0], current)) {
      return 2;
    }
    const telemetry::CheckResult result =
        telemetry::check(baseline, current, opt);
    std::printf("check %s (%s) vs baseline %s\n", files[0].c_str(),
                telemetry::artifact_name(current).c_str(),
                baseline_path.c_str());
    std::fputs(telemetry::format_check(result).c_str(), stdout);
    return result.pass() ? 0 : 1;
  }

  if (files.empty()) return usage(cli.program().c_str());

  telemetry::AnalyzeOptions opt;
  opt.top_n = static_cast<int>(cli.get_long_or("top", opt.top_n));
  bool first = true;
  for (const std::string& path : files) {
    util::JsonValue doc;
    if (!load_json(path, doc)) return 2;
    if (!first) std::printf("\n");
    first = false;
    std::printf("== %s ==\n", path.c_str());
    std::fputs(telemetry::analyze(doc, opt).c_str(), stdout);
  }
  return 0;
}
