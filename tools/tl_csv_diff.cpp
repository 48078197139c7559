// tl_csv_diff: tolerant numeric CSV comparison for golden regression tests.
//
//   tl_csv_diff A.csv B.csv [--rel 1e-9] [--abs 0] [--max-report 20]
//             [--numeric-tokens]
//
// Compares two CSV files cell by cell. Cells that parse as numbers on both
// sides compare within the given absolute OR relative tolerance; everything
// else must match exactly as text. Exit status: 0 = files agree, 1 = they
// diverge (each difference printed), 2 = usage or I/O error. This is what
// the golden-CSV ctest regressions use to compare freshly regenerated
// fig8/fig9 outputs against the committed baselines, where bit-identical
// output is expected but a stated tolerance keeps the contract explicit.
//
// --numeric-tokens drops the CSV structure: each file is a stream of
// interleaved text and number tokens, text must match exactly and numbers
// compare within tolerance. This is how the JSON goldens (BENCH_fusion.json)
// are diffed — same tolerance contract, format-agnostic.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

using namespace tl;

namespace {

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    rows.push_back(util::parse_csv_line(line));
  }
  return rows;
}

bool cells_match(const std::string& a, const std::string& b, double rel,
                 double abs, std::string& why) {
  if (a == b) return true;
  const auto da = util::parse_double(a);
  const auto db = util::parse_double(b);
  if (!da || !db) {
    why = "text mismatch";
    return false;
  }
  const double abs_err = std::fabs(*da - *db);
  const double denom = std::max(std::fabs(*da), std::fabs(*db));
  const double rel_err = denom > 0 ? abs_err / denom : 0.0;
  if (abs_err <= abs || rel_err <= rel) return true;
  why = util::strf("abs_err=%.3e rel_err=%.3e", abs_err, rel_err);
  return false;
}

/// Splits a file into alternating text/number tokens. A number token starts
/// at a digit (or a sign immediately followed by a digit) and spans whatever
/// strtod consumes; everything between numbers is one text token.
struct Token {
  bool numeric = false;
  std::string text;   // verbatim spelling (numeric and text alike)
  double value = 0.0;
};

std::vector<Token> tokenize_numeric(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<Token> tokens;
  std::string text;
  const auto flush_text = [&] {
    if (!text.empty()) {
      tokens.push_back(Token{false, text, 0.0});
      text.clear();
    }
  };
  std::size_t i = 0;
  while (i < body.size()) {
    const char c = body[i];
    const bool starts_number =
        (c >= '0' && c <= '9') ||
        ((c == '-' || c == '+') && i + 1 < body.size() &&
         body[i + 1] >= '0' && body[i + 1] <= '9');
    if (starts_number) {
      char* end = nullptr;
      const double v = std::strtod(body.c_str() + i, &end);
      const std::size_t len = static_cast<std::size_t>(end - (body.c_str() + i));
      flush_text();
      tokens.push_back(Token{true, body.substr(i, len), v});
      i += len;
    } else {
      text.push_back(c);
      ++i;
    }
  }
  flush_text();
  return tokens;
}

int diff_numeric_tokens(const std::string& pa, const std::string& pb,
                        double rel, double abs, long max_report) {
  std::vector<Token> a, b;
  try {
    a = tokenize_numeric(pa);
    b = tokenize_numeric(pb);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tl_csv_diff: %s\n", e.what());
    return 2;
  }
  long diffs = 0;
  const auto report = [&](const std::string& msg) {
    if (++diffs <= max_report) std::fprintf(stderr, "%s\n", msg.c_str());
  };
  if (a.size() != b.size()) {
    report(util::strf("token count differs: %zu vs %zu", a.size(), b.size()));
  }
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::string why;
    if (a[i].numeric != b[i].numeric) {
      report(util::strf("token %zu: '%s' vs '%s' (kind mismatch)", i + 1,
                        a[i].text.c_str(), b[i].text.c_str()));
    } else if (!cells_match(a[i].text, b[i].text, rel, abs, why)) {
      report(util::strf("token %zu: '%s' vs '%s' (%s)", i + 1,
                        a[i].text.c_str(), b[i].text.c_str(), why.c_str()));
    }
  }
  if (diffs > max_report) {
    std::fprintf(stderr, "... and %ld more difference(s)\n", diffs - max_report);
  }
  if (diffs == 0) {
    std::printf("tl_csv_diff: %s and %s agree (rel<=%g, abs<=%g, tokens)\n",
                pa.c_str(), pb.c_str(), rel, abs);
    return 0;
  }
  std::fprintf(stderr, "tl_csv_diff: %ld difference(s) between %s and %s\n",
               diffs, pa.c_str(), pb.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"rel", "abs", "max-report", "numeric-tokens"});
  if (cli.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: tl_csv_diff A.csv B.csv [--rel 1e-9] [--abs 0] "
                 "[--numeric-tokens]\n");
    return 2;
  }
  const double rel = cli.get_double_or("rel", 1e-9);
  const double abs = cli.get_double_or("abs", 0.0);
  const long max_report = cli.get_long_or("max-report", 20);
  if (cli.has("numeric-tokens")) {
    return diff_numeric_tokens(cli.positional()[0], cli.positional()[1], rel,
                               abs, max_report);
  }

  std::vector<std::vector<std::string>> a, b;
  try {
    a = read_csv(cli.positional()[0]);
    b = read_csv(cli.positional()[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tl_csv_diff: %s\n", e.what());
    return 2;
  }

  long diffs = 0;
  const auto report = [&](const std::string& msg) {
    if (++diffs <= max_report) std::fprintf(stderr, "%s\n", msg.c_str());
  };

  if (a.size() != b.size()) {
    report(util::strf("row count differs: %zu vs %zu", a.size(), b.size()));
  }
  const std::size_t rows = std::min(a.size(), b.size());
  for (std::size_t r = 0; r < rows; ++r) {
    if (a[r].size() != b[r].size()) {
      report(util::strf("row %zu: column count differs: %zu vs %zu", r + 1,
                        a[r].size(), b[r].size()));
      continue;
    }
    for (std::size_t c = 0; c < a[r].size(); ++c) {
      std::string why;
      if (!cells_match(a[r][c], b[r][c], rel, abs, why)) {
        report(util::strf("row %zu col %zu: '%s' vs '%s' (%s)", r + 1, c + 1,
                          a[r][c].c_str(), b[r][c].c_str(), why.c_str()));
      }
    }
  }

  if (diffs > max_report) {
    std::fprintf(stderr, "... and %ld more difference(s)\n", diffs - max_report);
  }
  if (diffs == 0) {
    std::printf("tl_csv_diff: %s and %s agree (rel<=%g, abs<=%g)\n",
                cli.positional()[0].c_str(), cli.positional()[1].c_str(), rel,
                abs);
    return 0;
  }
  std::fprintf(stderr, "tl_csv_diff: %ld difference(s) between %s and %s\n",
               diffs, cli.positional()[0].c_str(), cli.positional()[1].c_str());
  return 1;
}
