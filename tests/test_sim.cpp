// Unit tests for src/sim: device catalogue, codegen profiles (Table 1),
// performance model arithmetic, scheduler models, STREAM (Table 2), and the
// SimClock launch split behind overlapped halo exchange.

#include <gtest/gtest.h>

#include <set>

#include "sim/clock.hpp"
#include "sim/codegen.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"
#include "sim/perf_model.hpp"
#include "sim/scheduler.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"
#include "sim/traits.hpp"

namespace s = tl::sim;

// ---------------------------------------------------------------------------
// Device catalogue (paper Table 2 values)
// ---------------------------------------------------------------------------

TEST(Device, Table2Bandwidths) {
  const auto& cpu = s::device_spec(s::DeviceId::kCpuSandyBridge);
  EXPECT_DOUBLE_EQ(cpu.peak_bw_gbs, 102.4);
  EXPECT_DOUBLE_EQ(cpu.stream_bw_gbs, 76.2);
  const auto& gpu = s::device_spec(s::DeviceId::kGpuK20X);
  EXPECT_DOUBLE_EQ(gpu.peak_bw_gbs, 250.0);
  EXPECT_DOUBLE_EQ(gpu.stream_bw_gbs, 180.1);
  const auto& knc = s::device_spec(s::DeviceId::kMicKnc);
  EXPECT_DOUBLE_EQ(knc.peak_bw_gbs, 320.0);
  EXPECT_DOUBLE_EQ(knc.stream_bw_gbs, 159.9);
}

TEST(Device, StreamBelowPeakEverywhere) {
  for (const auto d : s::kAllDevices) {
    const auto& spec = s::device_spec(d);
    EXPECT_LT(spec.stream_bw_gbs, spec.peak_bw_gbs) << spec.name;
    EXPECT_GT(spec.stream_bw_gbs, 0.0);
  }
}

TEST(Device, ParseRoundTrip) {
  for (const auto d : s::kAllDevices) {
    EXPECT_EQ(s::parse_device(s::device_short_name(d)), d);
  }
  EXPECT_FALSE(s::parse_device("nonsense").has_value());
}

TEST(Model, ParseRoundTrip) {
  for (const auto m : s::kAllModels) {
    EXPECT_EQ(s::parse_model(s::model_id(m)), m);
  }
  EXPECT_EQ(s::parse_model("acc"), s::Model::kOpenAcc);
  EXPECT_FALSE(s::parse_model("nonsense").has_value());
}

// ---------------------------------------------------------------------------
// Codegen profiles: the paper's Table 1 support matrix
// ---------------------------------------------------------------------------

TEST(Codegen, Table1SupportMatrix) {
  using s::DeviceId;
  using s::Model;
  // CPU column.
  EXPECT_EQ(s::support_cell(Model::kFortran, DeviceId::kCpuSandyBridge), "Yes");
  EXPECT_EQ(s::support_cell(Model::kOpenCl, DeviceId::kCpuSandyBridge), "Yes");
  EXPECT_EQ(s::support_cell(Model::kCuda, DeviceId::kCpuSandyBridge), "");
  // GPU column.
  EXPECT_EQ(s::support_cell(Model::kCuda, DeviceId::kGpuK20X), "Yes");
  EXPECT_EQ(s::support_cell(Model::kOmp4, DeviceId::kGpuK20X), "Experimental");
  EXPECT_EQ(s::support_cell(Model::kRaja, DeviceId::kGpuK20X), "");
  EXPECT_EQ(s::support_cell(Model::kFortran, DeviceId::kGpuK20X), "");
  // KNC column.
  EXPECT_EQ(s::support_cell(Model::kFortran, DeviceId::kMicKnc), "Native");
  EXPECT_EQ(s::support_cell(Model::kOmp4, DeviceId::kMicKnc), "Offload");
  EXPECT_EQ(s::support_cell(Model::kOpenCl, DeviceId::kMicKnc), "Offload");
  EXPECT_EQ(s::support_cell(Model::kKokkos, DeviceId::kMicKnc), "Native");
  EXPECT_EQ(s::support_cell(Model::kOpenAcc, DeviceId::kMicKnc), "");
}

TEST(Codegen, SupportedProfilesAreSane) {
  for (const auto m : s::kAllModels) {
    for (const auto d : s::kAllDevices) {
      const auto& p = s::codegen_profile(m, d);
      if (!p.supported) continue;
      EXPECT_GT(p.base_efficiency, 0.0);
      EXPECT_LE(p.base_efficiency, 1.0);
      EXPECT_GT(p.reduction_efficiency, 0.0);
      EXPECT_LE(p.reduction_efficiency, 1.0);
      EXPECT_GE(p.launch_overhead_ns, 0.0);
      EXPECT_GE(p.vector_quality, 0.0);
      EXPECT_LE(p.vector_quality, 1.0);
    }
  }
}

TEST(Codegen, ResidencyRules) {
  using s::DeviceId;
  using s::Model;
  // Host device: nothing offloads.
  EXPECT_FALSE(s::uses_device_residency(Model::kOpenCl, DeviceId::kCpuSandyBridge));
  // Discrete GPU: every supported model offloads.
  EXPECT_TRUE(s::uses_device_residency(Model::kCuda, DeviceId::kGpuK20X));
  EXPECT_TRUE(s::uses_device_residency(Model::kKokkos, DeviceId::kGpuK20X));
  // KNC: offload models cross PCIe, native compilation does not.
  EXPECT_TRUE(s::uses_device_residency(Model::kOmp4, DeviceId::kMicKnc));
  EXPECT_FALSE(s::uses_device_residency(Model::kFortran, DeviceId::kMicKnc));
  EXPECT_FALSE(s::uses_device_residency(Model::kRaja, DeviceId::kMicKnc));
}

// ---------------------------------------------------------------------------
// PerfModel
// ---------------------------------------------------------------------------

namespace {
s::LaunchInfo streaming_launch(std::size_t bytes) {
  s::LaunchInfo info;
  info.items = bytes / 8;
  info.bytes_read = bytes / 2;
  info.bytes_written = bytes / 2;
  info.working_set_bytes = 1ull << 30;  // far beyond any LLC: no cache boost
  info.traits.vector_sensitivity = 0.0;
  return info;
}
}  // namespace

TEST(PerfModel, UnsupportedPairThrows) {
  EXPECT_THROW(s::PerfModel(s::Model::kCuda, s::DeviceId::kCpuSandyBridge),
               std::invalid_argument);
}

TEST(PerfModel, StreamingTimeMatchesBaseEfficiency) {
  s::PerfModel pm(s::Model::kFortran, s::DeviceId::kCpuSandyBridge);
  const auto& p = pm.profile();
  const std::size_t bytes = 1ull << 30;
  const double ns = pm.launch_ns(streaming_launch(bytes));
  const double expected =
      p.launch_overhead_ns +
      static_cast<double>(bytes) / (76.2 * p.base_efficiency);
  EXPECT_NEAR(ns, expected, expected * 1e-12);
}

TEST(PerfModel, ReductionKernelsSlower) {
  s::PerfModel pm(s::Model::kOpenAcc, s::DeviceId::kGpuK20X);
  auto info = streaming_launch(1ull << 28);
  const double plain = pm.launch_ns(info);
  info.traits.reduction = true;
  const double reduced = pm.launch_ns(info);
  EXPECT_GT(reduced, plain);
}

TEST(PerfModel, IndirectionKillsVectorisationOnKnc) {
  s::PerfModel raja(s::Model::kRaja, s::DeviceId::kMicKnc);
  auto info = streaming_launch(1ull << 28);
  info.traits.vector_sensitivity = 0.4;  // Chebyshev-like kernel
  const double direct = raja.launch_ns(info);
  info.traits.indirection = true;
  const double indirect = raja.launch_ns(info);
  // Substantially slower: the paper's RAJA-native-on-KNC observation.
  EXPECT_GT(indirect, 1.5 * direct);
}

TEST(PerfModel, SimdDirectiveRecoversVectorisation) {
  auto info = streaming_launch(1ull << 28);
  info.traits.vector_sensitivity = 0.4;
  info.traits.indirection = true;
  s::PerfModel raja(s::Model::kRaja, s::DeviceId::kCpuSandyBridge);
  s::PerfModel simd(s::Model::kRajaSimd, s::DeviceId::kCpuSandyBridge);
  EXPECT_LT(simd.launch_ns(info), raja.launch_ns(info));
}

TEST(PerfModel, InteriorBranchPenalisedHardestOnKnc) {
  auto info = streaming_launch(1ull << 28);
  auto ratio = [&](s::Model m, s::DeviceId d) {
    s::PerfModel pm(m, d);
    auto branchy = info;
    branchy.traits.interior_branch = true;
    return pm.launch_ns(branchy) / pm.launch_ns(info);
  };
  const double knc = ratio(s::Model::kKokkos, s::DeviceId::kMicKnc);
  const double cpu = ratio(s::Model::kKokkos, s::DeviceId::kCpuSandyBridge);
  const double gpu = ratio(s::Model::kKokkos, s::DeviceId::kGpuK20X);
  EXPECT_GT(knc, 1.7);  // roughly the paper's halved solve time
  EXPECT_GT(knc, gpu);
  EXPECT_GT(knc, cpu);
  EXPECT_LT(cpu, 1.1);
}

TEST(PerfModel, CacheBoostFadesWithWorkingSet) {
  s::PerfModel pm(s::Model::kFortran, s::DeviceId::kCpuSandyBridge);
  const auto& llc = pm.device().llc_bytes;
  s::KernelTraits traits;
  traits.vector_sensitivity = 0.0;
  const double small = pm.effective_bandwidth_gbs(traits, llc / 8);
  const double med = pm.effective_bandwidth_gbs(traits, llc);
  const double large = pm.effective_bandwidth_gbs(traits, llc * 8);
  EXPECT_GT(small, med);
  EXPECT_GT(med, large);
  // Deep in cache approaches the boosted bandwidth; far outside approaches
  // the plain STREAM-derived bandwidth.
  EXPECT_GT(small / large, 1.8);
}

TEST(PerfModel, GpuIgnoresVectorQuality) {
  // The K20X is SIMT: vector_sensitivity must not matter.
  s::PerfModel pm(s::Model::kOpenCl, s::DeviceId::kGpuK20X);
  auto a = streaming_launch(1ull << 28);
  auto b = a;
  b.traits.vector_sensitivity = 1.0;
  EXPECT_DOUBLE_EQ(pm.launch_ns(a), pm.launch_ns(b));
}

TEST(PerfModel, TransfersFreeOnHostPaidAcrossPcie) {
  const s::TransferInfo t{.name = "x", .bytes = 1u << 20, .to_device = true};
  s::PerfModel host(s::Model::kOmp3Cpp, s::DeviceId::kCpuSandyBridge);
  EXPECT_DOUBLE_EQ(host.transfer_ns(t), 0.0);
  s::PerfModel gpu(s::Model::kCuda, s::DeviceId::kGpuK20X);
  const double expected = 10'000.0 + static_cast<double>(t.bytes) / 6.0;
  EXPECT_NEAR(gpu.transfer_ns(t), expected, 1e-6);
  s::PerfModel native(s::Model::kFortran, s::DeviceId::kMicKnc);
  EXPECT_DOUBLE_EQ(native.transfer_ns(t), 0.0);
}

TEST(PerfModel, WorkStealingVariesAcrossRunsDeterministically) {
  s::PerfModel pm(s::Model::kOpenCl, s::DeviceId::kCpuSandyBridge, 1);
  const auto info = streaming_launch(1ull << 26);
  std::set<long long> times;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    pm.begin_run(seed);
    times.insert(static_cast<long long>(pm.launch_ns(info)));
  }
  EXPECT_GT(times.size(), 8u);  // run-to-run spread
  pm.begin_run(3);
  const double a = pm.launch_ns(info);
  pm.begin_run(3);
  const double b = pm.launch_ns(info);
  EXPECT_DOUBLE_EQ(a, b);  // same seed, same luck
}

TEST(PerfModel, StaticSchedulersAreStable) {
  s::PerfModel pm(s::Model::kFortran, s::DeviceId::kCpuSandyBridge, 1);
  const auto info = streaming_launch(1ull << 26);
  pm.begin_run(1);
  const double a = pm.launch_ns(info);
  pm.begin_run(99);
  const double b = pm.launch_ns(info);
  EXPECT_DOUBLE_EQ(a, b);
}

// ---------------------------------------------------------------------------
// SchedulerModel
// ---------------------------------------------------------------------------

TEST(Scheduler, StaticAlwaysUnity) {
  auto sched = s::SchedulerModel::make_static();
  sched.begin_run(5);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(sched.launch_factor(), 1.0);
}

TEST(Scheduler, WorkStealingWithinBand) {
  auto sched = s::SchedulerModel::make_work_stealing(0.5, 0.9, 0.05);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sched.begin_run(seed);
    for (int i = 0; i < 5; ++i) {
      const double f = sched.launch_factor();
      EXPECT_GE(f, 0.5 * 0.95 - 1e-12);
      EXPECT_LE(f, 0.9 * 1.05 + 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// STREAM (Table 2 reproduction)
// ---------------------------------------------------------------------------

TEST(Stream, DeviceTunedReproducesTable2) {
  for (const auto d : s::kAllDevices) {
    const auto r = s::run_stream(d, 1 << 16, 3);
    EXPECT_TRUE(r.verified);
    const double expected = s::device_spec(d).stream_bw_gbs;
    EXPECT_NEAR(r.copy_gbs, expected, expected * 1e-9);
    EXPECT_NEAR(r.triad_gbs, expected, expected * 1e-9);
  }
}

TEST(Stream, ModelStreamNeverExceedsDeviceStream) {
  // Arrays must defeat the LLC (as STREAM requires), otherwise the CPU cache
  // boost legitimately exceeds DRAM STREAM bandwidth.
  const std::size_t len = 1 << 23;
  for (const auto m : s::kAllModels) {
    for (const auto d : s::kAllDevices) {
      if (!s::codegen_profile(m, d).supported) continue;
      const auto r = s::run_stream(m, d, len, 1);
      EXPECT_TRUE(r.verified);
      EXPECT_LE(r.best_gbs(), s::device_spec(d).stream_bw_gbs * 1.001)
          << s::model_name(m) << " on " << s::device_spec(d).name;
    }
  }
}

TEST(Stream, SmallArraysLegitimatelyExceedDramStreamOnCpu) {
  // The cache model at work: in-LLC STREAM beats DRAM STREAM on the CPU.
  const auto r = s::run_stream(s::Model::kFortran, s::DeviceId::kCpuSandyBridge,
                               1 << 15, 2);
  EXPECT_GT(r.best_gbs(),
            s::device_spec(s::DeviceId::kCpuSandyBridge).stream_bw_gbs);
}

TEST(Stream, DefaultLengthDefeatsCaches) {
  const std::size_t len = s::default_stream_length();
  for (const auto d : s::kAllDevices) {
    EXPECT_GT(len * sizeof(double), 2 * s::device_spec(d).llc_bytes);
  }
}

// ---------------------------------------------------------------------------
// SimClock: the one-shot launch split (overlapped halo exchange metering)
// ---------------------------------------------------------------------------

namespace {
s::LaunchInfo split_probe() {
  s::LaunchInfo info;
  info.name = "cg_calc_w";
  info.kernel_id = 7;
  info.phase = "cg";
  info.bytes_read = 1001;   // 0.3 of it truncates 300.3 -> 300
  info.bytes_written = 333;  // and 99.9 -> 99, not 100
  return info;
}
}  // namespace

TEST(SimClock, SplitRecordsTwoPartsSummingToTheUnsplitCharge) {
  const s::LaunchInfo info = split_probe();
  s::SimClock whole;
  whole.record_launch(info, 1234.5, 0.9);

  s::SimClock clock;
  s::RecordingSink sink;
  clock.set_trace_sink(&sink);
  int calls = 0;
  double clock_between = -1.0;
  clock.split_next_launch(0.3, [&] {
    ++calls;
    clock_between = clock.elapsed_ns();
  });
  clock.record_launch(info, 1234.5, 0.9);

  EXPECT_EQ(calls, 1);
  ASSERT_EQ(sink.events().size(), 2u);
  const s::TraceEvent& head = sink.events()[0];
  const s::TraceEvent& tail = sink.events()[1];
  const double part_ns = 1234.5 * 0.3;
  EXPECT_EQ(head.duration_ns, part_ns);
  EXPECT_EQ(tail.duration_ns, 1234.5 - part_ns);
  EXPECT_EQ(clock_between, head.duration_ns);  // callback sees the first part
  EXPECT_EQ(tail.start_ns, head.duration_ns);
  EXPECT_EQ(head.bytes, 300u + 99u);
  EXPECT_EQ(head.bytes + tail.bytes, 1001u + 333u);
  for (const s::TraceEvent& e : sink.events()) {
    EXPECT_EQ(e.name, info.name);
    EXPECT_EQ(e.kernel_id, info.kernel_id);
    EXPECT_EQ(e.phase, info.phase);
    EXPECT_EQ(e.launch_factor, 0.9);
  }
  EXPECT_EQ(clock.launches(), 2u);
  EXPECT_EQ(clock.kernel_bytes(), whole.kernel_bytes());
  EXPECT_DOUBLE_EQ(clock.elapsed_ns(), whole.elapsed_ns());
}

TEST(SimClock, SplitFiresOnceAndCallbackLaunchesStayWhole) {
  const s::LaunchInfo info = split_probe();
  s::LaunchInfo comm;
  comm.name = "halo_exchange";
  comm.phase = "comm";
  comm.bytes_read = comm.bytes_written = 64;

  s::SimClock clock;
  s::RecordingSink sink;
  clock.set_trace_sink(&sink);
  int calls = 0;
  clock.split_next_launch(0.25, [&] {
    ++calls;
    clock.record_launch(comm, 10.0, 1.0);  // disarmed: metered whole
  });
  clock.record_launch(info, 100.0, 1.0);
  clock.record_launch(info, 100.0, 1.0);  // the split was one-shot
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.events()[0].duration_ns, 25.0);
  EXPECT_EQ(sink.events()[1].name, "halo_exchange");
  EXPECT_EQ(sink.events()[1].duration_ns, 10.0);
  EXPECT_EQ(sink.events()[1].bytes, 128u);
  EXPECT_EQ(sink.events()[2].duration_ns, 75.0);
  EXPECT_EQ(sink.events()[2].start_ns, 35.0);
  EXPECT_EQ(sink.events()[3].duration_ns, 100.0);
  EXPECT_EQ(sink.events()[3].bytes, 1001u + 333u);

  // A cancelled split never fires.
  clock.split_next_launch(0.5, [&] { ++calls; });
  clock.cancel_split();
  clock.record_launch(info, 100.0, 1.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sink.events().size(), 5u);
  EXPECT_EQ(clock.launches(), 5u);
}
