#include "sim/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace tl::sim {

void RecordingSink::on_event(const TraceEvent& event) {
  if (capacity_ != 0 && events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

void RecordingSink::clear() {
  events_.clear();
  dropped_ = 0;
}

void ProfileSink::on_event(const TraceEvent& event) {
  auto it = by_kernel_.find(event.name);
  if (it == by_kernel_.end()) {
    KernelProfile p;
    p.name = std::string(event.name);
    p.min_ns = event.duration_ns;
    p.max_ns = event.duration_ns;
    p.factor_min = event.launch_factor;
    p.factor_max = event.launch_factor;
    it = by_kernel_.emplace(p.name, std::move(p)).first;
  }
  KernelProfile& p = it->second;
  ++p.count;
  p.total_ns += event.duration_ns;
  p.min_ns = std::min(p.min_ns, event.duration_ns);
  p.max_ns = std::max(p.max_ns, event.duration_ns);
  p.bytes += event.bytes;
  p.factor_min = std::min(p.factor_min, event.launch_factor);
  p.factor_max = std::max(p.factor_max, event.launch_factor);
  p.factor_sum += event.launch_factor;

  ++total_events_;
  total_ns_ += event.duration_ns;
  total_bytes_ += event.bytes;
}

std::vector<KernelProfile> ProfileSink::profiles() const {
  std::vector<KernelProfile> out;
  out.reserve(by_kernel_.size());
  for (const auto& [name, profile] : by_kernel_) out.push_back(profile);
  for (KernelProfile& p : out) {
    p.percent = total_ns_ > 0.0 ? 100.0 * p.total_ns / total_ns_ : 0.0;
  }
  std::sort(out.begin(), out.end(),
            [](const KernelProfile& a, const KernelProfile& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return out;
}

std::string format_profile_table(const std::vector<KernelProfile>& profiles) {
  util::Table table({"kernel", "launches", "total s", "% of run", "mean us",
                     "GB/s", "sched min/mean/max"});
  for (const KernelProfile& p : profiles) {
    table.row({p.name,
               util::strf("%llu", static_cast<unsigned long long>(p.count)),
               util::strf("%.3f", p.total_ns * 1e-9),
               util::strf("%.1f", p.percent),
               util::strf("%.2f", p.mean_ns() * 1e-3),
               util::strf("%.1f", p.bandwidth_gbs()),
               util::strf("%.2f/%.2f/%.2f", p.factor_min, p.factor_mean(),
                          p.factor_max)});
  }
  return table.render();
}

namespace {

using util::json_escape;

void write_event(std::ostream& os, const TraceEvent& e, int pid, bool first) {
  if (!first) os << ",\n";
  // Complete ("X") events; Chrome expects microseconds.
  os << "  {\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
     << json_escape(e.phase.empty() ? "kernel" : e.phase)
     << "\",\"ph\":\"X\",\"ts\":" << util::strf("%.6f", e.start_ns * 1e-3)
     << ",\"dur\":" << util::strf("%.6f", e.duration_ns * 1e-3)
     << ",\"pid\":" << pid << ",\"tid\":0,\"args\":{"
     << "\"kind\":\""
     << (e.kind == TraceEvent::Kind::kTransfer ? "transfer" : "launch")
     << "\",\"model\":\"" << json_escape(model_name(e.model))
     << "\",\"device\":\"" << json_escape(device_short_name(e.device))
     << "\",\"bytes\":" << e.bytes << ",\"gbs\":"
     << util::strf("%.3f", e.gbs())
     << ",\"launch_factor\":" << util::strf("%.4f", e.launch_factor) << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const TraceGroup> groups) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  int pid = 0;
  for (const TraceGroup& group : groups) {
    // Metadata event naming the process row after the group label.
    if (!first) os << ",\n";
    os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(group.label)
       << "\"}}";
    first = false;
    if (group.dropped > 0) {
      // A truncated row must never be read as a complete timeline: surface
      // the drop count both in-band and on the log.
      os << ",\n  {\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":0,\"args\":{\"dropped_events\":" << group.dropped
         << "}}";
      util::log_warn("chrome trace row '%s' truncated: %zu events dropped",
                     group.label.c_str(), group.dropped);
    }
    for (const TraceEvent& event : group.events) {
      write_event(os, event, pid, false);
    }
    ++pid;
  }
  os << "\n]}\n";
}

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events,
                        std::string_view label) {
  const TraceGroup group{std::string(label), events};
  write_chrome_trace(os, std::span<const TraceGroup>(&group, 1));
}

bool write_chrome_trace_file(const std::string& path,
                             std::span<const TraceGroup> groups) {
  std::ofstream out(path);
  if (!out) {
    util::log_error("write_chrome_trace_file: cannot open '%s'", path.c_str());
    return false;
  }
  write_chrome_trace(out, groups);
  out.flush();
  if (!out) {
    util::log_error("write_chrome_trace_file: write to '%s' failed",
                    path.c_str());
    return false;
  }
  return true;
}

}  // namespace tl::sim
