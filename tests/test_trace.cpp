// Tests for the kernel-level tracing & profiling layer: sink recording,
// aggregation math, Chrome-trace JSON well-formedness, and the conservation
// property the whole layer rests on — the traced event stream accounts for
// exactly the time the metering clock charged, for live ports and the
// analytic PhantomKernels replay alike.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "core/driver.hpp"
#include "core/kernel_catalog.hpp"
#include "core/phantom_kernels.hpp"
#include "ports/registry.hpp"
#include "sim/device.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

using namespace tl;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (objects, arrays, strings, numbers, literals).
// Enough to assert the Chrome exporter emits structurally valid JSON without
// pulling in a JSON library.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

double sum_durations(const std::vector<sim::TraceEvent>& events) {
  double total = 0.0;
  for (const auto& ev : events) total += ev.duration_ns;
  return total;
}

/// One CG solve on PhantomKernels with a recording sink attached.
core::RunReport phantom_cg_solve(sim::Model model, sim::DeviceId device,
                                 sim::TraceSink* sink, int nx = 64,
                                 int steps = 1) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = nx;
  s.end_step = steps;
  s.solver = core::SolverKind::kCg;
  core::PhantomScript script;
  script.converge_after_ur = 25;
  auto kernels = std::make_unique<core::PhantomKernels>(
      model, device, core::Mesh(nx, nx, s.halo_depth), script, 1);
  if (sink) kernels->attach_trace_sink(sink);
  core::Driver driver(s, std::move(kernels),
                      core::DriverOptions{.materialize_host_state = false});
  return driver.run();
}

}  // namespace

// ---------------------------------------------------------------------------
// Sink recording
// ---------------------------------------------------------------------------

TEST(TraceSink, RecordsOneEventPerMeteredLaunchAndTransfer) {
  sim::RecordingSink sink;
  const core::RunReport report = phantom_cg_solve(
      sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, &sink);

  std::uint64_t launches = 0, transfers = 0;
  for (const auto& ev : sink.events()) {
    (ev.kind == sim::TraceEvent::Kind::kLaunch ? launches : transfers)++;
  }
  EXPECT_EQ(launches, report.kernel_launches);
  EXPECT_GT(transfers, 0u);
  EXPECT_EQ(sink.events().size(), launches + transfers);
}

TEST(TraceSink, EventsCarryKernelIdPhaseAndIdentity) {
  sim::RecordingSink sink;
  phantom_cg_solve(sim::Model::kKokkos, sim::DeviceId::kGpuK20X, &sink);

  bool saw_cg_calc_w = false, saw_transfer = false;
  for (const auto& ev : sink.events()) {
    EXPECT_EQ(ev.model, sim::Model::kKokkos);
    EXPECT_EQ(ev.device, sim::DeviceId::kGpuK20X);
    if (ev.name == "cg_calc_w_fused") {  // the default CG path is fused
      saw_cg_calc_w = true;
      EXPECT_EQ(ev.kernel_id, static_cast<int>(core::KernelId::kCgCalcWFused));
      EXPECT_EQ(ev.phase, "cg");
      EXPECT_EQ(ev.kind, sim::TraceEvent::Kind::kLaunch);
    }
    if (ev.kind == sim::TraceEvent::Kind::kTransfer) {
      saw_transfer = true;
      EXPECT_EQ(ev.kernel_id, -1);
      EXPECT_EQ(ev.phase, "transfer");
    }
  }
  EXPECT_TRUE(saw_cg_calc_w);
  EXPECT_TRUE(saw_transfer);  // GPU device: upload/download cross the link
}

TEST(TraceSink, EventsTileTheTimelineInOrder) {
  sim::RecordingSink sink;
  phantom_cg_solve(sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, &sink);
  double cursor = 0.0;
  for (const auto& ev : sink.events()) {
    EXPECT_DOUBLE_EQ(ev.start_ns, cursor);
    EXPECT_GE(ev.duration_ns, 0.0);
    cursor = ev.start_ns + ev.duration_ns;
  }
}

TEST(TraceSink, CapacityBoundsMemoryAndCountsDropped) {
  sim::RecordingSink sink(10);
  phantom_cg_solve(sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, &sink);
  EXPECT_EQ(sink.events().size(), 10u);
  EXPECT_GT(sink.dropped(), 0u);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, AttachingASinkDoesNotPerturbMetering) {
  const core::RunReport plain = phantom_cg_solve(
      sim::Model::kOpenCl, sim::DeviceId::kCpuSandyBridge, nullptr);
  sim::RecordingSink sink;
  const core::RunReport traced = phantom_cg_solve(
      sim::Model::kOpenCl, sim::DeviceId::kCpuSandyBridge, &sink);
  // Same seed, work-stealing scheduler: bit-identical with and without the
  // observer (the zero-overhead guarantee behind byte-identical bench CSVs).
  EXPECT_EQ(plain.sim_total_seconds, traced.sim_total_seconds);
  EXPECT_EQ(plain.kernel_launches, traced.kernel_launches);
}

// ---------------------------------------------------------------------------
// Aggregation math
// ---------------------------------------------------------------------------

sim::TraceEvent launch(std::string_view name, double ns,
                       std::size_t bytes = 0, double factor = 1.0) {
  sim::TraceEvent ev;
  ev.name = name;
  ev.duration_ns = ns;
  ev.bytes = bytes;
  ev.launch_factor = factor;
  return ev;
}

TEST(ProfileSink, FoldsCountsSumsAndExtrema) {
  sim::ProfileSink prof;
  prof.on_event(launch("a", 10.0, 100, 0.8));
  prof.on_event(launch("a", 30.0, 300, 1.2));
  prof.on_event(launch("b", 60.0, 0, 1.0));

  EXPECT_EQ(prof.total_events(), 3u);
  EXPECT_DOUBLE_EQ(prof.total_ns(), 100.0);
  EXPECT_EQ(prof.total_bytes(), 400u);
  EXPECT_DOUBLE_EQ(prof.bandwidth_gbs(), 4.0);  // 400 B / 100 ns

  const auto profiles = prof.profiles();
  ASSERT_EQ(profiles.size(), 2u);
  // Sorted by total time descending: b (60) before a (40).
  EXPECT_EQ(profiles[0].name, "b");
  EXPECT_EQ(profiles[1].name, "a");

  const auto& a = profiles[1];
  EXPECT_EQ(a.count, 2u);
  EXPECT_DOUBLE_EQ(a.total_ns, 40.0);
  EXPECT_DOUBLE_EQ(a.min_ns, 10.0);
  EXPECT_DOUBLE_EQ(a.max_ns, 30.0);
  EXPECT_DOUBLE_EQ(a.mean_ns(), 20.0);
  EXPECT_EQ(a.bytes, 400u);
  EXPECT_DOUBLE_EQ(a.bandwidth_gbs(), 10.0);  // 400 B / 40 ns
  EXPECT_DOUBLE_EQ(a.percent, 40.0);
  EXPECT_DOUBLE_EQ(a.factor_min, 0.8);
  EXPECT_DOUBLE_EQ(a.factor_max, 1.2);
  EXPECT_DOUBLE_EQ(a.factor_mean(), 1.0);
}

TEST(ProfileSink, PercentagesSumToHundred) {
  sim::ProfileSink prof;
  prof.on_event(launch("x", 1.5));
  prof.on_event(launch("y", 2.25));
  prof.on_event(launch("z", 0.75));
  double pct = 0.0;
  for (const auto& p : prof.profiles()) pct += p.percent;
  EXPECT_NEAR(pct, 100.0, 1e-12);
}

TEST(ProfileSink, EmptyProfile) {
  const sim::ProfileSink prof;
  EXPECT_TRUE(prof.profiles().empty());
  EXPECT_EQ(prof.total_events(), 0u);
  EXPECT_DOUBLE_EQ(prof.total_ns(), 0.0);
  EXPECT_DOUBLE_EQ(prof.bandwidth_gbs(), 0.0);
}

TEST(ProfileSink, FormatTableListsEveryKernel) {
  sim::ProfileSink prof;
  prof.on_event(launch("cheby_iterate", 5.0, 10));
  prof.on_event(launch("halo_update", 1.0, 2));
  const std::string table = sim::format_profile_table(prof.profiles());
  EXPECT_NE(table.find("cheby_iterate"), std::string::npos);
  EXPECT_NE(table.find("halo_update"), std::string::npos);
  EXPECT_NE(table.find("% of run"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, EmitsWellFormedJson) {
  sim::RecordingSink sink;
  phantom_cg_solve(sim::Model::kCuda, sim::DeviceId::kGpuK20X, &sink);
  ASSERT_FALSE(sink.events().empty());

  std::ostringstream os;
  sim::write_chrome_trace(os, sink.events(), "cuda/cg");
  const std::string json = os.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cg_calc_w_fused\""), std::string::npos);
  EXPECT_NE(json.find("\"cuda/cg\""), std::string::npos);
  EXPECT_NE(json.find("\"launch_factor\""), std::string::npos);
}

TEST(ChromeTrace, GroupsBecomeSeparateProcessRows) {
  sim::RecordingSink a, b;
  phantom_cg_solve(sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, &a);
  phantom_cg_solve(sim::Model::kOmp4, sim::DeviceId::kGpuK20X, &b);
  const sim::TraceGroup groups[] = {{"omp3/cg", a.events()},
                                    {"omp4/cg", b.events()}};
  std::ostringstream os;
  sim::write_chrome_trace(os, groups);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"omp3/cg\""), std::string::npos);
  EXPECT_NE(json.find("\"omp4/cg\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(ChromeTrace, TruncatedGroupCarriesDroppedMetadata) {
  sim::RecordingSink sink(5);
  phantom_cg_solve(sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, &sink);
  ASSERT_GT(sink.dropped(), 0u);
  const sim::TraceGroup groups[] = {
      {"omp3/cg", sink.events(), sink.dropped()}};
  std::ostringstream os;
  sim::write_chrome_trace(os, groups);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"trace_truncated\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);

  // A group that dropped nothing stays metadata-free.
  sim::RecordingSink all;
  phantom_cg_solve(sim::Model::kOmp3Cpp, sim::DeviceId::kCpuSandyBridge, &all);
  const sim::TraceGroup full[] = {{"omp3/cg", all.events(), all.dropped()}};
  std::ostringstream os2;
  sim::write_chrome_trace(os2, full);
  EXPECT_EQ(os2.str().find("\"trace_truncated\""), std::string::npos);
}

TEST(ChromeTrace, EscapesJsonSpecialCharacters) {
  sim::TraceEvent ev;
  ev.name = "weird\"name\\with\ncontrol";
  std::ostringstream os;
  sim::write_chrome_trace(os, std::span<const sim::TraceEvent>(&ev, 1),
                          "label\"quote");
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// ---------------------------------------------------------------------------
// Conservation: the event stream accounts for exactly the metered time
// ---------------------------------------------------------------------------

TEST(TraceConservation, PhantomEventsSumToMeteredTimeForAllPairs) {
  for (const sim::Model model : sim::kAllModels) {
    for (const sim::DeviceId device : sim::kAllDevices) {
      if (!ports::is_supported(model, device)) continue;
      sim::RecordingSink sink;
      const core::RunReport report = phantom_cg_solve(model, device, &sink);
      ASSERT_FALSE(sink.events().empty());

      // Every metered launch/transfer produced exactly one event...
      const auto& clock_events = sink.events();
      std::uint64_t launches = 0;
      for (const auto& ev : clock_events) {
        launches += ev.kind == sim::TraceEvent::Kind::kLaunch;
      }
      EXPECT_EQ(launches, report.kernel_launches)
          << sim::model_name(model) << " on " << sim::device_spec(device).name;

      // ...and the per-kernel profile durations sum to the solve's total
      // metered time within 1e-9 relative error.
      sim::ProfileSink prof;
      for (const auto& ev : clock_events) prof.on_event(ev);
      double profile_total = 0.0;
      for (const auto& p : prof.profiles()) profile_total += p.total_ns;
      EXPECT_LE(util::rel_diff(profile_total, report.sim_total_seconds * 1e9),
                1e-9)
          << sim::model_name(model) << " on " << sim::device_spec(device).name;

      // Every catalogued kernel a CG solve launches shows up in the profile.
      std::set<std::string> names;
      for (const auto& p : prof.profiles()) names.insert(p.name);
      for (const char* expected :
           {"init_u", "init_coef", "halo_update", "cg_init", "cg_calc_w_fused",
            "cg_fused_ur_p", "finalise", "field_summary", "upload_state",
            "download_energy"}) {
        EXPECT_TRUE(names.count(expected))
            << expected << " missing for " << sim::model_name(model) << " on "
            << sim::device_spec(device).name;
      }
    }
  }
}

TEST(TraceConservation, LivePortEventsSumToSimStepNs) {
  // A real (numerics-executing) host port must meter the identical stream:
  // sum of traced durations == the driver's sim_step_ns, within 1e-9.
  const int nx = 48;
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = nx;
  s.end_step = 1;
  s.solver = core::SolverKind::kCg;

  auto port = ports::make_port(sim::Model::kOmp3Cpp,
                               sim::DeviceId::kCpuSandyBridge,
                               core::Mesh(nx, nx, s.halo_depth));
  sim::RecordingSink sink;
  port->attach_trace_sink(&sink);
  core::Driver driver(s, std::move(port));
  const core::StepReport step = driver.run_step();

  ASSERT_FALSE(sink.events().empty());
  EXPECT_LE(util::rel_diff(sum_durations(sink.events()), step.sim_step_ns),
            1e-9);
  EXPECT_GT(step.solve.iterations, 0);
}

TEST(TraceConservation, LivePortAndPhantomEmitSameKernelSet) {
  // The port<->replay lockstep, now visible at event granularity: a live CG
  // solve and its analytic replay must launch the same kernel names.
  const int nx = 48;
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = nx;
  s.end_step = 1;
  s.solver = core::SolverKind::kCg;

  auto port = ports::make_port(sim::Model::kKokkos,
                               sim::DeviceId::kCpuSandyBridge,
                               core::Mesh(nx, nx, s.halo_depth));
  sim::RecordingSink port_sink;
  port->attach_trace_sink(&port_sink);
  core::Driver driver(s, std::move(port));
  driver.run_step();

  sim::RecordingSink phantom_sink;
  phantom_cg_solve(sim::Model::kKokkos, sim::DeviceId::kCpuSandyBridge,
                   &phantom_sink, nx);

  // Compare kernel launches only: the replay additionally models the explicit
  // upload/download transfers that a live host port (shared memory) skips.
  std::set<std::string_view> port_names, phantom_names;
  for (const auto& ev : port_sink.events()) {
    if (ev.kind == sim::TraceEvent::Kind::kLaunch) port_names.insert(ev.name);
  }
  for (const auto& ev : phantom_sink.events()) {
    if (ev.kind == sim::TraceEvent::Kind::kLaunch) phantom_names.insert(ev.name);
  }
  EXPECT_EQ(port_names, phantom_names);
}
