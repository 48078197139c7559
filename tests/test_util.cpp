// Unit tests for src/util: containers, RNG, statistics, parsing, writers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/buffer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/ini.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/span2d.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace u = tl::util;

// ---------------------------------------------------------------------------
// Span2D / Buffer
// ---------------------------------------------------------------------------

TEST(Span2D, RowMajorLayoutXIsFast) {
  double data[6] = {0, 1, 2, 3, 4, 5};
  u::Span2D<double> s(data, 3, 2);
  EXPECT_EQ(s(0, 0), 0.0);
  EXPECT_EQ(s(2, 0), 2.0);
  EXPECT_EQ(s(0, 1), 3.0);
  EXPECT_EQ(s(2, 1), 5.0);
  EXPECT_EQ(s.size(), 6u);
}

TEST(Span2D, FlatAccessMatchesCoordinates) {
  double data[12];
  u::Span2D<double> s(data, 4, 3);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  EXPECT_EQ(s(1, 2), 9.0);
}

TEST(Span2D, ConstConversion) {
  double data[4] = {1, 2, 3, 4};
  u::Span2D<double> s(data, 2, 2);
  u::Span2D<const double> cs = s;
  EXPECT_EQ(cs(1, 1), 4.0);
}

TEST(Buffer, ZeroInitialisedAndAligned) {
  u::Buffer<double> b(1000);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % u::kCacheLineBytes, 0u);
}

TEST(Buffer, CopyIsDeep) {
  u::Buffer<double> a(8);
  a.fill(3.5);
  u::Buffer<double> b = a;
  b[0] = -1.0;
  EXPECT_EQ(a[0], 3.5);
  EXPECT_EQ(b[1], 3.5);
}

TEST(Buffer, MoveTransfersOwnership) {
  u::Buffer<double> a(8);
  a.fill(2.0);
  const double* p = a.data();
  u::Buffer<double> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(a.empty());
}

TEST(Buffer, View2DRoundTrip) {
  u::Buffer<double> b(6);
  auto v = b.view2d(3, 2);
  v(2, 1) = 9.0;
  EXPECT_EQ(b[5], 9.0);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  u::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  u::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoublesInUnitInterval) {
  u::Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanReasonable) {
  u::Rng r(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.uniform(2.0, 4.0);
  EXPECT_NEAR(sum / n, 3.0, 0.01);
}

TEST(Rng, NextBelowIsBounded) {
  u::Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, NormalMoments) {
  u::Rng r(17);
  double sum = 0.0, sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double v = r.next_normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const double vals[] = {4.0, 1.0, 3.0, 2.0};
  const u::Summary s = u::summarize(vals);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummaryEmptyAndSingle) {
  EXPECT_EQ(u::summarize({}).count, 0u);
  const double one[] = {5.0};
  const u::Summary s = u::summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_EQ(s.median, 5.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, SummaryConstantSeries) {
  const double vals[] = {2.5, 2.5, 2.5, 2.5, 2.5};
  const u::Summary s = u::summarize(vals);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 2.5);
  EXPECT_EQ(s.max, 2.5);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  // Cancellation in the variance accumulation must not go negative/NaN.
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, LinearFitExact) {
  const double x[] = {1, 2, 3, 4};
  const double y[] = {3, 5, 7, 9};  // y = 1 + 2x
  const u::LinearFit f = u::fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, PowerFitExact) {
  std::vector<double> x, y;
  for (int i = 1; i <= 6; ++i) {
    x.push_back(i * 10.0);
    y.push_back(2.5 * std::pow(i * 10.0, 1.3));
  }
  const u::PowerFit f = u::fit_power(x, y);
  EXPECT_NEAR(f.coefficient, 2.5, 1e-9);
  EXPECT_NEAR(f.exponent, 1.3, 1e-12);
  EXPECT_NEAR(f.eval(100.0), 2.5 * std::pow(100.0, 1.3), 1e-6);
}

TEST(Stats, PowerFitRejectsNonPositive) {
  const double x[] = {1.0, -2.0};
  const double y[] = {1.0, 2.0};
  EXPECT_THROW(u::fit_power(x, y), std::invalid_argument);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(u::rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(u::rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
}

// ---------------------------------------------------------------------------
// string_util
// ---------------------------------------------------------------------------

TEST(StringUtil, TrimAndLower) {
  EXPECT_EQ(u::trim("  a b \t"), "a b");
  EXPECT_EQ(u::to_lower("AbC"), "abc");
  EXPECT_EQ(u::trim(""), "");
}

TEST(StringUtil, Split) {
  const auto parts = u::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, Parsers) {
  EXPECT_EQ(u::parse_double("2.5"), 2.5);
  EXPECT_FALSE(u::parse_double("2.5x").has_value());
  EXPECT_EQ(u::parse_long(" 42 "), 42);
  EXPECT_FALSE(u::parse_long("4.2").has_value());
  EXPECT_EQ(u::parse_bool("On"), true);
  EXPECT_EQ(u::parse_bool("no"), false);
  EXPECT_FALSE(u::parse_bool("maybe").has_value());
}

TEST(StringUtil, Strf) {
  EXPECT_EQ(u::strf("%d-%s", 3, "x"), "3-x");
}

TEST(StringUtil, HumanFormats) {
  EXPECT_EQ(u::human_count(1'500'000), "1.50M");
  EXPECT_EQ(u::human_seconds(0.002), "2.00 ms");
}

// ---------------------------------------------------------------------------
// ini
// ---------------------------------------------------------------------------

TEST(Ini, ParsesKeysFlagsAndComments) {
  const auto cfg = u::IniConfig::parse(
      "! tea.in style\n"
      "x_cells=128\n"
      "tl_use_cg\n"
      "tl_eps = 1e-12  ! tolerance\n");
  EXPECT_EQ(cfg.get_long_or("x_cells", 0), 128);
  EXPECT_TRUE(cfg.get_bool_or("tl_use_cg", false));
  EXPECT_DOUBLE_EQ(cfg.get_double_or("tl_eps", 0.0), 1e-12);
  EXPECT_EQ(cfg.get_or("missing", "d"), "d");
}

TEST(Ini, ParsesStateLines) {
  const auto cfg = u::IniConfig::parse(
      "state 1 density=100.0 energy=0.0001\n"
      "state 2 density=0.1 energy=25.0 xmin=0.0 xmax=5.0 ymin=0.0 ymax=2.0\n");
  ASSERT_EQ(cfg.states().size(), 2u);
  EXPECT_EQ(cfg.states()[1].index, 2);
  EXPECT_DOUBLE_EQ(cfg.states()[1].fields.at("xmax"), 5.0);
}

TEST(Ini, BadStateLineThrows) {
  EXPECT_THROW(u::IniConfig::parse("state x density=1"), std::runtime_error);
  EXPECT_THROW(u::IniConfig::parse("state 1 density=abc"), std::runtime_error);
}

TEST(Ini, TypeErrorsThrow) {
  const auto cfg = u::IniConfig::parse("k=hello\n");
  EXPECT_THROW(cfg.get_double_or("k", 0.0), std::runtime_error);
}

TEST(Ini, EmptyAndWhitespaceOnlyInputsParse) {
  for (const char* text : {"", "\n", "\n\n\n", "   \n\t\n", "! only\n# here\n"}) {
    const auto cfg = u::IniConfig::parse(text);
    EXPECT_FALSE(cfg.has("anything")) << "input: '" << text << "'";
    EXPECT_TRUE(cfg.states().empty());
  }
}

TEST(Ini, CrlfInputParsesSameAsLf) {
  // tea.in files written on Windows end lines with \r\n; the parser must not
  // leave the \r glued onto values or flag names.
  const auto lf = u::IniConfig::parse("x_cells=128\ntl_use_cg\ntl_eps=1e-12\n");
  const auto crlf =
      u::IniConfig::parse("x_cells=128\r\ntl_use_cg\r\ntl_eps=1e-12\r\n");
  EXPECT_EQ(crlf.get_long_or("x_cells", 0), lf.get_long_or("x_cells", 0));
  EXPECT_EQ(crlf.get_bool_or("tl_use_cg", false),
            lf.get_bool_or("tl_use_cg", false));
  EXPECT_DOUBLE_EQ(crlf.get_double_or("tl_eps", 0.0),
                   lf.get_double_or("tl_eps", 0.0));
}

TEST(Ini, SectionHeadersAreIgnoredButUnterminatedOnesThrow) {
  const auto cfg = u::IniConfig::parse("[header]\nx=1\n[another]\ny=2\n");
  EXPECT_EQ(cfg.get_long_or("x", 0), 1);
  EXPECT_EQ(cfg.get_long_or("y", 0), 2);
  EXPECT_THROW(u::IniConfig::parse("[oops\nx=1\n"), std::runtime_error);
  EXPECT_THROW(u::IniConfig::parse("x=1\n[tail"), std::runtime_error);
}

TEST(Ini, RandomGarbageEitherParsesOrThrows) {
  // Fuzz sanity: arbitrary byte soup must never crash or hang — every line
  // either lands as a key/flag/state or raises std::runtime_error.
  u::Rng rng(99);
  const char alphabet[] = "ab=[] \t!#\r\nstate 0123.";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const std::size_t len = rng.next_below(80);
    for (std::size_t i = 0; i < len; ++i) {
      text += alphabet[rng.next_below(sizeof(alphabet) - 1)];
    }
    try {
      const auto cfg = u::IniConfig::parse(text);
      (void)cfg;
    } catch (const std::runtime_error&) {
      // Acceptable: malformed state lines / section headers report as errors.
    }
  }
}

// ---------------------------------------------------------------------------
// cli
// ---------------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "pos1", "--nx=64", "--device", "gpu", "--fast"};
  const u::Cli cli(6, argv);
  EXPECT_EQ(cli.get_long_or("nx", 0), 64);
  EXPECT_EQ(cli.get_or("device", ""), "gpu");
  EXPECT_TRUE(cli.has("fast"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, BareFlagGreedilyConsumesNextNonFlag) {
  // Documented ambiguity of the `--flag value` form: a bare flag followed by
  // a non-flag token takes it as its value.
  const char* argv[] = {"prog", "--fast", "pos1"};
  const u::Cli cli(3, argv);
  EXPECT_EQ(cli.get_or("fast", ""), "pos1");
  EXPECT_TRUE(cli.positional().empty());
}

TEST(Cli, TypeErrorThrows) {
  const char* argv[] = {"prog", "--nx=abc"};
  const u::Cli cli(2, argv);
  EXPECT_THROW(cli.get_long_or("nx", 0), std::runtime_error);
}

TEST(Cli, UndeclaredFlagExitsTwoNamingIt) {
  const char* argv[] = {"prog", "deck.in", "--nx", "32", "--SOLVR=ppcg"};
  const u::Cli cli(5, argv);
  EXPECT_EXIT(cli.reject_unknown({"nx", "solver"}),
              testing::ExitedWithCode(2), "prog: unknown flag --solvr");
  // Declared flags and positionals pass, and so does a flag left unset.
  cli.reject_unknown({"nx", "solver", "solvr", "steps"});
  const char* bare[] = {"prog", "--help"};
  EXPECT_EXIT(u::Cli(2, bare).reject_unknown({}), testing::ExitedWithCode(2),
              "unknown flag --help");
}

// ---------------------------------------------------------------------------
// log
// ---------------------------------------------------------------------------

TEST(Log, WarnAndErrorWriteOnePlainLineEach) {
  testing::internal::CaptureStderr();
  u::log_warn("disk \"%s\"", "full");
  u::log_error("%d of %d", 1, 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] disk \"full\"\n[ERROR] 1 of 2\n");
}

// ---------------------------------------------------------------------------
// table / csv
// ---------------------------------------------------------------------------

TEST(Table, RendersAlignedRows) {
  u::Table t({"name", "value"});
  t.row({"alpha", "1.5"});
  t.row({"b", "22.25"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find(" 22.25 |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  u::Table t({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), std::invalid_argument);
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "tlm_test_csv.csv";
  {
    u::CsvWriter csv(path, {"a", "b"});
    csv.row({"x,y", "pla\"in"});
  }
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "a,b");
  EXPECT_EQ(row, "\"x,y\",\"pla\"\"in\"");
  std::filesystem::remove(path);
}

TEST(Csv, RowWidthMismatchThrows) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "tlm_test_csv2.csv";
  u::CsvWriter csv(path, {"a"});
  EXPECT_THROW(csv.row({"1", "2"}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Csv, ParseLineSplitsPlainCells) {
  EXPECT_EQ(u::parse_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(u::parse_csv_line(""), (std::vector<std::string>{""}));
  EXPECT_EQ(u::parse_csv_line(",x,"),
            (std::vector<std::string>{"", "x", ""}));
}

TEST(Csv, ParseLineHandlesQuotedCommasAndEscapedQuotes) {
  EXPECT_EQ(u::parse_csv_line("\"x,y\",\"pla\"\"in\""),
            (std::vector<std::string>{"x,y", "pla\"in"}));
  EXPECT_EQ(u::parse_csv_line("\"a\nb\""),  // embedded newline survives
            (std::vector<std::string>{"a\nb"}));
}

TEST(Csv, ParseLineDropsOneTrailingCarriageReturn) {
  EXPECT_EQ(u::parse_csv_line("a,b\r"), (std::vector<std::string>{"a", "b"}));
  // Only the CRLF artefact goes; an interior \r is cell data.
  EXPECT_EQ(u::parse_csv_line("a\rb"), (std::vector<std::string>{"a\rb"}));
}

TEST(Csv, ParseLineUnterminatedQuoteThrows) {
  EXPECT_THROW(u::parse_csv_line("\"never closed"), std::runtime_error);
  EXPECT_THROW(u::parse_csv_line("ok,\"half"), std::runtime_error);
}

TEST(Csv, WriterAndParserRoundTripRandomCells) {
  // Fuzz the writer-escape / parser-unescape pair: any newline-free cell
  // content (commas, quotes, spaces) must survive a write-then-parse cycle.
  u::Rng rng(123);
  const char alphabet[] = "ab,\", x";
  const std::string path =
      std::filesystem::temp_directory_path() / "tlm_test_csv_fuzz.csv";
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> cells(3);
    for (std::string& cell : cells) {
      const std::size_t len = rng.next_below(10);
      for (std::size_t i = 0; i < len; ++i) {
        cell += alphabet[rng.next_below(sizeof(alphabet) - 1)];
      }
    }
    {
      u::CsvWriter csv(path, {"c1", "c2", "c3"});
      csv.row(cells);
    }
    std::ifstream in(path);
    std::string header, row;
    std::getline(in, header);
    std::getline(in, row);
    ASSERT_EQ(u::parse_csv_line(row), cells)
        << "raw row: " << row;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// JSON parser (util/json.hpp): the telemetry report/check layer rests on it.
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndNestedObjects) {
  const u::JsonValue v = u::parse_json(
      R"({"a": 1.5, "b": [true, false, null, "x"], "c": {"d": -2e3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get_number_or("a", 0.0), 1.5);
  const u::JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->as_array().size(), 4u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[2].is_null());
  EXPECT_EQ(b->as_array()[3].as_string(), "x");
  const u::JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->get_number_or("d", 0.0), -2000.0);
}

TEST(Json, PreservesObjectKeyOrder) {
  const u::JsonValue v = u::parse_json(R"({"z": 1, "a": 2, "m": 3})");
  const auto& obj = v.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(Json, DecodesEscapesAndUnicode) {
  const u::JsonValue v =
      u::parse_json(R"({"s": "line\nquote\" back\\ uA"})");
  EXPECT_EQ(v.get_string_or("s", ""), "line\nquote\" back\\ uA");
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const u::JsonValue v =
      u::parse_json("{\"k\": \"" + u::json_escape(nasty) + "\"}");
  EXPECT_EQ(v.get_string_or("k", ""), nasty);
}

TEST(Json, RejectsMalformedInputWithOffset) {
  EXPECT_THROW(u::parse_json("{"), std::runtime_error);
  EXPECT_THROW(u::parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(u::parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(u::parse_json("01"), std::runtime_error);    // number grammar
  EXPECT_THROW(u::parse_json("1 x"), std::runtime_error);   // trailing junk
  EXPECT_THROW(u::parse_json("nul"), std::runtime_error);
  try {
    u::parse_json("[1, }");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Json, DefaultingAccessorsIgnoreKindMismatch) {
  const u::JsonValue v = u::parse_json(R"({"s": "text", "n": 4})");
  EXPECT_DOUBLE_EQ(v.get_number_or("s", 7.5), 7.5);   // wrong kind
  EXPECT_DOUBLE_EQ(v.get_number_or("missing", 7.5), 7.5);
  EXPECT_EQ(v.get_string_or("n", "d"), "d");
  EXPECT_DOUBLE_EQ(v.get_number_or("n", 0.0), 4.0);
}
