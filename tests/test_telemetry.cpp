// Telemetry battery: registry semantics (bucket boundaries, pooled
// bit-identity), trace-event classification, report schema/determinism,
// OpenMetrics rendering, the tl_report regression-check policy, and the
// negative controls of every check the committed artifacts declare.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/driver.hpp"
#include "telemetry/check.hpp"
#include "telemetry/collectors.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/report.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace {

using namespace tl;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::SectionChecks;
using util::JsonValue;

// -- Histogram ---------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpper) {
  Histogram h;
  h.upper_bounds = {1.0, 2.0, 4.0};
  h.counts.assign(4, 0);
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // == bound -> its own bucket, not the next
  h.observe(1.5);   // <= 2.0
  h.observe(2.0);   // == bound
  h.observe(4.0);   // == last finite bound
  h.observe(4.01);  // overflow (+Inf bucket)
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.01);
  // Cumulative counts are what the OpenMetrics le-series renders.
  EXPECT_EQ(h.cumulative(0), 2u);
  EXPECT_EQ(h.cumulative(1), 4u);
  EXPECT_EQ(h.cumulative(2), 5u);
  EXPECT_EQ(h.cumulative(3), 6u);
}

TEST(Histogram, RebindingDifferentBoundsThrows) {
  static constexpr double kBounds[] = {1.0, 2.0};
  static constexpr double kOther[] = {1.0, 3.0};
  MetricsRegistry reg;
  reg.observe("h", 0.5, kBounds);
  EXPECT_NO_THROW(reg.observe("h", 1.5, kBounds));
  EXPECT_THROW(reg.observe("h", 1.5, kOther), std::invalid_argument);
}

// -- Registry combine: pooled bit-identity -----------------------------------

/// A deterministic observation stream whose floating-point sums genuinely
/// depend on combine order (values of very different magnitudes).
void feed(MetricsRegistry& reg, int begin, int end) {
  for (int i = begin; i < end; ++i) {
    reg.add_counter("ns", 1e-3 + 1e6 * (i % 7) + 0.1 * i);
    reg.add_counter("events", 1.0);
    reg.observe("factor", 1.0 + 0.001 * (i % 997),
                telemetry::kLaunchFactorBounds);
    reg.set_gauge("last", 0.1 * i);
  }
}

/// The HostPool discipline transplanted to registries: [0, n) is split into
/// a FIXED number of chunks (a function of the data, never the worker
/// count), each chunk fills its own single-writer registry, and `workers`
/// threads claim chunks through an atomic cursor — so claim order varies
/// with scheduling but each chunk's content does not. combine_all then
/// tree-folds the chunk registries in chunk order.
MetricsRegistry pooled(int n, int workers) {
  constexpr int kChunks = 16;
  std::vector<MetricsRegistry> pool(kChunks);
  const int chunk = (n + kChunks - 1) / kChunks;
  std::atomic<int> cursor{0};
  auto worker = [&] {
    for (int c = cursor.fetch_add(1); c < kChunks; c = cursor.fetch_add(1)) {
      feed(pool[static_cast<std::size_t>(c)], c * chunk,
           std::min(n, (c + 1) * chunk));
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  return MetricsRegistry::combine_all(pool);
}

TEST(MetricsRegistry, CombineAllIsThreadCountInvariant) {
  // NOTE: this is NOT approximate — chunking depends only on the data and
  // the pairwise tree fold only on the chunk count, so the pooled result
  // must be bit-identical at 1, 2, or 8 workers.
  const MetricsRegistry one = pooled(1000, 1);
  const MetricsRegistry two = pooled(1000, 2);
  const MetricsRegistry eight = pooled(1000, 8);
  const std::string a = telemetry::to_openmetrics(one);
  EXPECT_EQ(a, telemetry::to_openmetrics(two));
  EXPECT_EQ(a, telemetry::to_openmetrics(eight));
  // And at the raw-double level, not just the rendering.
  for (const auto& [key, value] : one.counters()) {
    EXPECT_EQ(value, two.counter_or(key)) << key;
    EXPECT_EQ(value, eight.counter_or(key)) << key;
  }
}

TEST(MetricsRegistry, CombineAddsCountersAndHistograms) {
  MetricsRegistry a, b;
  a.add_counter("c", 1.5);
  b.add_counter("c", 2.5);
  b.add_counter("only_b", 1.0);
  static constexpr double kBounds[] = {1.0};
  a.observe("h", 0.5, kBounds);
  b.observe("h", 2.0, kBounds);
  a.combine(b);
  EXPECT_DOUBLE_EQ(a.counter_or("c"), 4.0);
  EXPECT_DOUBLE_EQ(a.counter_or("only_b"), 1.0);
  const Histogram& h = a.histograms().at("h");
  EXPECT_EQ(h.counts[0], 1u);  // 0.5
  EXPECT_EQ(h.counts[1], 1u);  // 2.0 overflow
  EXPECT_EQ(h.count, 2u);
}

TEST(MetricsRegistry, LabelKeysRoundTripFamilies) {
  const std::string key =
      MetricsRegistry::key_for("tl_rank_bytes", {{"rank", "3"}});
  EXPECT_EQ(key, "tl_rank_bytes{rank=\"3\"}");
  EXPECT_EQ(MetricsRegistry::family(key), "tl_rank_bytes");
  EXPECT_EQ(MetricsRegistry::family("plain"), "plain");
}

// -- RegistrySink classification --------------------------------------------

sim::TraceEvent event(sim::TraceEvent::Kind kind, std::string_view name,
                      std::string_view phase, double ns, std::size_t bytes,
                      double factor = 1.0) {
  sim::TraceEvent ev;
  ev.kind = kind;
  ev.name = name;
  ev.phase = phase;
  ev.duration_ns = ns;
  ev.bytes = bytes;
  ev.launch_factor = factor;
  return ev;
}

TEST(RegistrySink, ClassifiesLaunchTransferCommOverlap) {
  MetricsRegistry reg;
  telemetry::RegistrySink sink(reg);
  using Kind = sim::TraceEvent::Kind;
  sink.on_event(event(Kind::kLaunch, "cg_calc_w", "cg", 100.0, 64, 1.25));
  sink.on_event(event(Kind::kLaunch, "halo_exchange", "comm", 50.0, 32));
  sink.on_event(event(Kind::kLaunch, "halo_overlap", "overlap", 40.0, 16));
  sink.on_event(event(Kind::kTransfer, "upload_state", "transfer", 10.0, 8));

  // Compute + comm launches count as launches (mirroring SimClock);
  // overlap windows and transfers do not.
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_launches"), 2.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_kernel_ns"), 150.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_kernel_bytes"), 96.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_comm_events"), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_comm_ns"), 50.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_overlap_events"), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_overlap_hidden_ns"), 40.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_transfers"), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_transfer_bytes"), 8.0);
  // Only the compute launch lands in the launch-factor histogram.
  EXPECT_EQ(reg.histograms().at("tl_launch_factor").count, 1u);
}

TEST(Collectors, CommCountersAreRankLabelled) {
  MetricsRegistry reg;
  dist::CommStats stats;
  stats.halo_exchanges = 7;
  stats.allreduces = 3;
  stats.bytes = 1024;
  stats.comm_ns = 500.0;
  stats.overlapped_exchanges = 4;
  stats.hidden_ns = 250.0;
  telemetry::collect_comm(reg, 2, stats);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_rank_halo_exchanges{rank=\"2\"}"), 7.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_rank_hidden_ns{rank=\"2\"}"), 250.0);
  EXPECT_DOUBLE_EQ(reg.counter_or("tl_rank_halo_exchanges{rank=\"0\"}"), 0.0);
}

// -- Report ------------------------------------------------------------------

telemetry::ReportBuilder small_report(double kernel_ns) {
  telemetry::ReportContext ctx;
  ctx.source = "tests";
  ctx.model = "omp3";
  ctx.device = "cpu";
  ctx.solver = "cg";
  ctx.nx = ctx.ny = 64;
  telemetry::ReportBuilder builder(std::move(ctx));
  builder.add_solve(telemetry::SolveRow{.label = "step 1",
                                        .solver = "CG",
                                        .converged = true,
                                        .iterations = 10,
                                        .inner_iterations = 0,
                                        .fused_iterations = 10,
                                        .classic_iterations = 0,
                                        .final_rr = 1e-16,
                                        .sim_seconds = kernel_ns * 1e-9});
  util::Aggregator agg;
  agg.add(util::LaunchSample{"cg_calc_w", kernel_ns, 4096, 1.0});
  agg.add(util::LaunchSample{"cg_calc_ur", kernel_ns / 2, 2048, 1.0});
  builder.set_totals(kernel_ns * 1e-9, 2.0, 2);
  builder.add_profiles(agg);
  builder.registry().add_counter("tl_launches", 2.0);
  return builder;
}

TEST(Report, JsonIsSchemaValidAndDeterministic) {
  const std::string doc = small_report(1000.0).to_json();
  EXPECT_EQ(doc, small_report(1000.0).to_json());  // byte-identical

  const JsonValue parsed = util::parse_json(doc);
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.get_string_or("schema", ""), telemetry::kReportSchema);
  const JsonValue* ctx = parsed.find("context");
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->get_string_or("model", ""), "omp3");
  EXPECT_EQ(ctx->get_number_or("nx", 0.0), 64.0);
  const JsonValue* totals = parsed.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->get_number_or("peak_gbs", 0.0), 0.0);  // cpu STREAM peak
  const JsonValue* kernels = parsed.find("kernels");
  ASSERT_NE(kernels, nullptr);
  ASSERT_EQ(kernels->as_array().size(), 2u);
  // Sorted by total time descending; roofline ratio priced vs the device.
  EXPECT_EQ(kernels->as_array()[0].get_string_or("name", ""), "cg_calc_w");
  const double gbs = kernels->as_array()[0].get_number_or("gbs", 0.0);
  const double peak = kernels->as_array()[0].get_number_or("peak_gbs", 0.0);
  const double ratio = kernels->as_array()[0].get_number_or("peak_ratio", -1);
  EXPECT_NEAR(ratio, gbs / peak, 1e-12);
  // The document classifies as a run report for tl_report and declares its
  // checks; the tenants section is declared only when a service wrote one.
  EXPECT_EQ(telemetry::classify(parsed), telemetry::ArtifactKind::kRunReport);
  const telemetry::CheckDecl decl = telemetry::parse_checks(parsed);
  ASSERT_EQ(decl.size(), 3u);
  EXPECT_EQ(decl[1].section, "kernels");
  EXPECT_EQ(decl[1].key, std::vector<std::string>{"name"});
}

TEST(Report, OpenMetricsRenderingLints) {
  telemetry::ReportBuilder builder = small_report(1000.0);
  builder.registry().observe("tl_launch_factor", 1.01,
                             telemetry::kLaunchFactorBounds);
  const std::string om = telemetry::to_openmetrics(builder.registry());
  EXPECT_NE(om.find("# TYPE tl_launches counter\n"), std::string::npos);
  EXPECT_NE(om.find("tl_launches_total 2\n"), std::string::npos);
  EXPECT_NE(om.find("# TYPE tl_launch_factor histogram\n"), std::string::npos);
  EXPECT_NE(om.find("tl_launch_factor_bucket{le=\"1.02\"} 1\n"),
            std::string::npos);
  EXPECT_NE(om.find("tl_launch_factor_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(om.find("tl_launch_factor_sum 1.01"), std::string::npos);
  EXPECT_NE(om.find("tl_launch_factor_count 1\n"), std::string::npos);
  // Exactly one terminator, at the very end.
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");
  EXPECT_EQ(om.find("# EOF"), om.size() - 6);
}

TEST(Report, OpenMetricsSiblingPath) {
  using telemetry::ReportBuilder;
  EXPECT_EQ(ReportBuilder::openmetrics_path("run.json"), "run.om");
  EXPECT_EQ(ReportBuilder::openmetrics_path("a/b.c/report.json"),
            "a/b.c/report.om");
  EXPECT_EQ(ReportBuilder::openmetrics_path("noext"), "noext.om");
}

// -- Regression check policy -------------------------------------------------

TEST(Check, PassesAgainstItselfAndFailsOnInjectedSlowdown) {
  const JsonValue baseline = util::parse_json(small_report(1000.0).to_json());
  const JsonValue same = util::parse_json(small_report(1000.0).to_json());
  const telemetry::CheckResult self = telemetry::check(baseline, same);
  EXPECT_TRUE(self.pass());
  EXPECT_GT(self.checked, 0);

  // 50% slower kernel time: far past the 10% tolerance -> regression.
  const JsonValue slower = util::parse_json(small_report(1500.0).to_json());
  const telemetry::CheckResult bad = telemetry::check(baseline, slower);
  EXPECT_FALSE(bad.pass());
  EXPECT_GT(bad.regressions, 0);
  // The rendering carries the failing summary line tl_report prints.
  EXPECT_NE(telemetry::format_check(bad).find("FAIL"), std::string::npos);

  // The asymmetric policy: the same delta in the faster direction passes
  // and is reported as an improvement, never a failure.
  const telemetry::CheckResult good = telemetry::check(slower, baseline);
  EXPECT_TRUE(good.pass());
  bool noted_improvement = false;
  for (const telemetry::Finding& f : good.findings) {
    if (!f.regression) noted_improvement = true;
  }
  EXPECT_TRUE(noted_improvement);
}

TEST(Check, StructuralDriftIsExact) {
  const JsonValue baseline = util::parse_json(small_report(1000.0).to_json());
  // +2% launches would pass a 10% tolerance; structural counts must not.
  telemetry::ReportBuilder drifted = small_report(1000.0);
  drifted.set_totals(1000.0 * 1e-9, 2.0, 3);  // 2 -> 3 launches
  const JsonValue current = util::parse_json(drifted.to_json());
  EXPECT_FALSE(telemetry::check(baseline, current).pass());
}

TEST(Check, ArtifactKindMismatchIsARegression) {
  const JsonValue report = util::parse_json(small_report(1000.0).to_json());
  const JsonValue fusion = util::parse_json(
      "{\"schema\": \"tl-bench-1\", \"checks\": {\"cells\": {\"key\": "
      "[\"model\"], \"slower\": [\"fused_seconds\"]}}, \"bench\": "
      "\"fusion\", \"cells\": []}");
  EXPECT_EQ(telemetry::classify(fusion), telemetry::ArtifactKind::kBench);
  EXPECT_EQ(telemetry::artifact_name(fusion), "bench/fusion");
  EXPECT_FALSE(telemetry::check(report, fusion).pass());
  EXPECT_TRUE(telemetry::check(fusion, fusion).pass());
}

TEST(Check, BenchOverlapHiddenFractionIsHigherIsBetter) {
  const char* base =
      "{\"schema\": \"tl-bench-1\", \"checks\": {\"cells\": {\"key\": "
      "[\"scaling\", \"solver\", \"ranks\"], \"slower\": [\"blocking_s\", "
      "\"overlap_s\"], \"higher\": [\"hidden_fraction\"]}}, "
      "\"bench\": \"fig13_overlap\", \"mode\": \"full\", \"cells\": ["
      "{\"scaling\": \"strong\", \"solver\": \"CG\", \"ranks\": 8, "
      "\"blocking_s\": 10.0, \"blocking_comm_s\": 2.0, \"overlap_s\": 8.5, "
      "\"hidden_s\": 1.5, \"hidden_fraction\": 0.75}]}";
  std::string worse(base);
  const std::string::size_type at = worse.find("0.75");
  ASSERT_NE(at, std::string::npos);
  worse.replace(at, 4, "0.40");
  EXPECT_TRUE(
      telemetry::check(util::parse_json(base), util::parse_json(base)).pass());
  EXPECT_FALSE(
      telemetry::check(util::parse_json(base), util::parse_json(worse)).pass());
}

TEST(Check, MissingDeclaredFieldIsARegression) {
  // A dropped metric must not read as zero: a deleted kernel total_ns would
  // otherwise compare as "0 ns, improved".
  const JsonValue baseline = util::parse_json(small_report(1000.0).to_json());
  JsonValue dropped = baseline;
  auto& row = dropped.find("kernels")->as_array()[0].as_object();
  std::erase_if(row, [](const auto& m) { return m.first == "total_ns"; });
  EXPECT_FALSE(telemetry::check(baseline, dropped).pass());
  EXPECT_FALSE(telemetry::check(dropped, baseline).pass());
}

TEST(Check, DeclarationRoundTripsAndDriftIsARegression) {
  const telemetry::CheckDecl decl = {
      {".", {}, {"mode"}, {}, {}},
      {"a.rows", {"k1", "k2"}, {"n"}, {"t"}, {"r"}}};
  const JsonValue doc = util::parse_json(
      "{\n  \"schema\": \"tl-bench-1\",\n" + telemetry::checks_member(decl) +
      "  \"bench\": \"x\", \"mode\": \"m\", \"a\": {\"rows\": [{\"k1\": "
      "\"p\", \"k2\": 2, \"n\": 1, \"t\": 1.0, \"r\": 1.0}]}\n}\n");
  EXPECT_EQ(telemetry::parse_checks(doc), decl);
  const telemetry::CheckResult self = telemetry::check(doc, doc);
  EXPECT_TRUE(self.pass());
  EXPECT_EQ(self.checked, 4);

  JsonValue drifted = doc;
  drifted.find("checks")->find("a.rows")->find("slower")->as_array().clear();
  EXPECT_FALSE(telemetry::check(doc, drifted).pass());
  JsonValue undeclared = doc;
  undeclared.as_object().erase(undeclared.as_object().begin() + 1);
  EXPECT_FALSE(telemetry::check(doc, undeclared).pass());
  EXPECT_FALSE(telemetry::check(undeclared, doc).pass());
}

// -- Negative controls over the committed artifacts --------------------------

JsonValue load_committed(const std::string& name) {
  std::ifstream in(std::string(TLM_SOURCE_DIR) + "/" + name);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return util::parse_json(buffer.str());
}

/// The row of a section that a negative control edits: the first whose
/// `field` is a nonzero number, so both directions of a tolerance class are
/// observable, else the first row.
JsonValue& pick_row(JsonValue& doc, const SectionChecks& s,
                    const std::string& field) {
  auto* v = const_cast<JsonValue*>(telemetry::find_section(doc, s.section));
  if (v->is_object()) return *v;
  for (JsonValue& row : v->as_array()) {
    const JsonValue* f = row.find(field);
    if (f != nullptr && f->is_number() && f->as_number() != 0.0) return row;
  }
  return v->as_array().front();
}

/// `value` moved away from itself: numbers scaled by `factor` (or shifted
/// when zero), strings and booleans changed.
JsonValue moved(const JsonValue& value, double factor) {
  if (value.is_string()) return JsonValue::make_string(value.as_string() + "~");
  if (value.is_bool()) return JsonValue::make_bool(!value.as_bool());
  const double v = value.as_number();
  return JsonValue::make_number(v != 0.0 ? v * factor : factor - 1.0);
}

TEST(CommittedArtifacts, EveryDeclaredCheckFailsItsNegativeControl) {
  // Lower bounds on each artifact's self-check count: a declaration that
  // drops a field these artifacts are known to check falls below them.
  const std::vector<std::pair<std::string, int>> artifacts = {
      {"BENCH_fusion.json", 220},  {"BENCH_overlap.json", 72},
      {"BENCH_service.json", 60},  {"BENCH_elastic.json", 26},
      {"BENCH_plan.json", 46},     {"BENCH_report.json", 51}};
  for (const auto& [name, parent_checked] : artifacts) {
    SCOPED_TRACE(name);
    const JsonValue committed = load_committed(name);
    const telemetry::CheckDecl decl = telemetry::parse_checks(committed);
    ASSERT_FALSE(decl.empty());
    const telemetry::CheckResult self = telemetry::check(committed, committed);
    EXPECT_TRUE(self.pass()) << telemetry::format_check(self);
    EXPECT_GE(self.checked, parent_checked);
    const std::string analysis = telemetry::analyze(committed);

    for (const SectionChecks& s : decl) {
      if (s.section == ".") {
        for (const std::string& f : s.exact) {
          EXPECT_NE(analysis.find(f + "="), std::string::npos) << f;
        }
      } else {
        EXPECT_NE(analysis.find(s.section), std::string::npos) << s.section;
      }
      // The baseline is the committed artifact; `edit` perturbs one row of
      // a copy, which is checked as the current artifact (or, swapped, as
      // the baseline).
      const auto passes = [&](const std::string& field, auto&& edit,
                              bool as_baseline = false) {
        JsonValue doc = committed;
        edit(pick_row(doc, s, field));
        return as_baseline ? telemetry::check(doc, committed).pass()
                           : telemetry::check(committed, doc).pass();
      };
      const auto scale = [](const std::string& f, double factor) {
        return [&f, factor](JsonValue& row) {
          *row.find(f) = moved(*row.find(f), factor);
        };
      };
      const auto erase = [](const std::string& f) {
        return [&f](JsonValue& row) {
          std::erase_if(row.as_object(),
                        [&f](const auto& m) { return m.first == f; });
        };
      };
      const std::vector<std::pair<std::string, std::vector<std::string>>>
          classes = {{"key", s.key},
                     {"exact", s.exact},
                     {"slower", s.slower},
                     {"higher", s.higher}};
      std::set<std::string> declared;
      for (const auto& [cls, fields] : classes) {
        declared.insert(fields.begin(), fields.end());
        for (const std::string& f : fields) {
          SCOPED_TRACE(s.section + " " + f + " (" + cls + ")");
          // Failing direction: a larger slower value, a smaller higher
          // one, any change of an exact field or of a row key.
          EXPECT_FALSE(passes(f, scale(f, cls == "higher" ? 0.5 : 2.0)));
          if (cls == "slower" || cls == "higher") {
            EXPECT_TRUE(passes(f, scale(f, cls == "higher" ? 2.0 : 0.5)));
          }
          EXPECT_FALSE(passes(f, erase(f)));
          EXPECT_FALSE(passes(f, erase(f), /*as_baseline=*/true));
        }
      }
      // Undeclared scalars are informational, and so is an added member.
      JsonValue probe = committed;
      for (const auto& [field, value] : pick_row(probe, s, "").as_object()) {
        const bool tag = s.section == "." &&
                         (field == "schema" || field == "bench");
        if (declared.contains(field) || tag || value.is_object() ||
            value.is_array() || value.is_null()) {
          continue;
        }
        SCOPED_TRACE(s.section + " " + field + " (undeclared)");
        EXPECT_TRUE(passes(field, scale(field, 2.0)));
      }
      EXPECT_TRUE(passes("", [](JsonValue& row) {
        row.as_object().emplace_back("undeclared", JsonValue::make_number(1));
      }));
    }
  }
}

TEST(Analyze, RunReportMentionsKernelsAndComm) {
  telemetry::ReportBuilder builder = small_report(1000.0);
  dist::RankReport rank;
  rank.rank = 0;
  rank.comm.halo_exchanges = 4;
  rank.comm.comm_ns = 100.0;
  builder.add_rank(rank);
  const std::string text =
      telemetry::analyze(util::parse_json(builder.to_json()));
  EXPECT_NE(text.find("cg_calc_w"), std::string::npos);
  EXPECT_NE(text.find("comm"), std::string::npos);
}

// -- Structured logging ------------------------------------------------------

TEST(Log, JsonLinesAreValidAndPlainIsUnchanged) {
  const std::string plain = util::format_log_line(
      util::LogFormat::kPlain, util::LogLevel::kWarn, "disk \"full\"", 0);
  EXPECT_EQ(plain, "[WARN] disk \"full\"");

  const std::string json = util::format_log_line(
      util::LogFormat::kJson, util::LogLevel::kWarn, "disk \"full\"\n", 42);
  const JsonValue parsed = util::parse_json(json);
  EXPECT_EQ(parsed.get_string_or("level", ""), "warn");
  EXPECT_EQ(parsed.get_number_or("ts_ns", -1.0), 42.0);
  EXPECT_EQ(parsed.get_string_or("message", ""), "disk \"full\"\n");
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one object per line
}

TEST(Log, FormatParsesAndRoundTrips) {
  EXPECT_EQ(util::parse_log_format("json"), util::LogFormat::kJson);
  EXPECT_EQ(util::parse_log_format(" PLAIN "), util::LogFormat::kPlain);
  EXPECT_EQ(util::parse_log_format("text"), util::LogFormat::kPlain);
  EXPECT_FALSE(util::parse_log_format("yaml").has_value());
  const util::LogFormat before = util::log_format();
  util::set_log_format(util::LogFormat::kJson);
  EXPECT_EQ(util::log_format(), util::LogFormat::kJson);
  util::set_log_format(before);
}

}  // namespace
