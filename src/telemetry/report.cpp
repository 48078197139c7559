#include "telemetry/report.hpp"

#include <fstream>
#include <sstream>

#include "sim/device.hpp"
#include "telemetry/check.hpp"
#include "telemetry/collectors.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace tl::telemetry {

namespace {

// Short names for the shared JSON scalar writers.
constexpr auto& jnum = util::json_number;
constexpr auto& jstr = util::json_quote;

const char* jbool(bool b) { return b ? "true" : "false"; }

}  // namespace

ReportBuilder::ReportBuilder(ReportContext context)
    : context_(std::move(context)) {
  if (const auto device = sim::parse_device(context_.device)) {
    peak_gbs_ = sim::device_spec(*device).stream_bw_gbs;
  }
}

void ReportBuilder::add_solve(SolveRow row) {
  solves_.push_back(std::move(row));
}

void ReportBuilder::add_step(const core::StepReport& step) {
  add_solve(SolveRow{
      .label = util::strf("step %d", step.step),
      .solver = std::string(core::solver_name(step.solve.solver)),
      .converged = step.solve.converged,
      .iterations = step.solve.iterations,
      .inner_iterations = step.solve.inner_iterations,
      .fused_iterations = step.solve.fused_iterations,
      .classic_iterations = step.solve.classic_iterations,
      .final_rr = step.solve.final_rr,
      .sim_seconds = step.sim_step_ns * 1e-9,
  });
}

void ReportBuilder::add_run(const core::RunReport& run, double achieved_gbs) {
  for (const core::StepReport& step : run.steps) add_step(step);
  set_totals(run.sim_total_seconds, achieved_gbs, run.kernel_launches);
  collect_solve(registry_, run);
}

void ReportBuilder::set_totals(double sim_seconds, double achieved_gbs,
                               std::uint64_t kernel_launches) {
  total_sim_seconds_ = sim_seconds;
  achieved_gbs_ = achieved_gbs;
  kernel_launches_ = kernel_launches;
}

void ReportBuilder::add_rank(const dist::RankReport& rank) {
  ranks_.push_back(rank);
  collect_comm(registry_, rank.rank, rank.comm);
}

void ReportBuilder::add_tenant(TenantRow row) {
  tenants_.push_back(std::move(row));
}

void ReportBuilder::on_event(const sim::TraceEvent& event) {
  profile_.on_event(event);
  MetricsRegistry& reg = registry_;
  if (event.phase == "overlap") {
    // Trace-only hidden-comm window: the covering compute is already
    // metered, so this must not count as a launch (mirrors SimClock).
    reg.add_counter("tl_overlap_events", 1.0);
    reg.add_counter("tl_overlap_hidden_ns", event.duration_ns);
    return;
  }
  if (event.kind == sim::TraceEvent::Kind::kTransfer) {
    reg.add_counter("tl_transfers", 1.0);
    reg.add_counter("tl_transfer_ns", event.duration_ns);
    reg.add_counter("tl_transfer_bytes", static_cast<double>(event.bytes));
    return;
  }
  reg.add_counter("tl_launches", 1.0);
  reg.add_counter("tl_kernel_ns", event.duration_ns);
  reg.add_counter("tl_kernel_bytes", static_cast<double>(event.bytes));
  if (event.phase == "comm") {
    reg.add_counter("tl_comm_events", 1.0);
    reg.add_counter("tl_comm_ns", event.duration_ns);
    reg.add_counter("tl_comm_bytes", static_cast<double>(event.bytes));
    return;
  }
  reg.observe("tl_launch_factor", event.launch_factor, kLaunchFactorBounds);
}

std::string ReportBuilder::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": " << jstr(kReportSchema) << ",\n";
  CheckDecl checks = {
      {"totals", {}, {"kernel_launches", "total_iterations"},
       {"sim_seconds"}, {}},
      {"kernels", {"name"}, {"count"}, {"total_ns"}, {}},
      {"ranks", {"rank"}, {"halo_exchanges", "allreduces", "comm_bytes"},
       {"exposed_ns"}, {"hidden_fraction"}},
  };
  if (!tenants_.empty()) {
    checks.push_back({"tenants", {"tenant"},
                      {"jobs", "failures", "iterations", "kernel_launches"},
                      {"sim_seconds"}, {}});
  }
  os << checks_member(checks);
  os << "  \"source\": " << jstr(context_.source) << ",\n";

  os << "  \"context\": {\"model\": " << jstr(context_.model)
     << ", \"device\": " << jstr(context_.device)
     << ", \"solver\": " << jstr(context_.solver)
     << ", \"nx\": " << context_.nx << ", \"ny\": " << context_.ny
     << ", \"steps\": " << context_.steps << ", \"ranks\": " << context_.ranks
     << ", \"use_fused\": " << jbool(context_.use_fused)
     << ", \"overlap_comm\": " << jbool(context_.overlap_comm) << "},\n";

  int total_iterations = 0;
  for (const SolveRow& s : solves_) total_iterations += s.iterations;
  os << "  \"totals\": {\"sim_seconds\": " << jnum(total_sim_seconds_)
     << ", \"achieved_gbs\": " << jnum(achieved_gbs_)
     << ", \"kernel_launches\": " << kernel_launches_
     << ", \"total_iterations\": " << total_iterations
     << ", \"peak_gbs\": " << jnum(peak_gbs_) << "},\n";

  os << "  \"solves\": [";
  for (std::size_t i = 0; i < solves_.size(); ++i) {
    const SolveRow& s = solves_[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"label\": " << jstr(s.label) << ", \"solver\": " << jstr(s.solver)
       << ", \"converged\": " << jbool(s.converged)
       << ", \"iterations\": " << s.iterations
       << ", \"inner_iterations\": " << s.inner_iterations
       << ", \"fused_iterations\": " << s.fused_iterations
       << ", \"classic_iterations\": " << s.classic_iterations
       << ", \"final_rr\": " << jnum(s.final_rr)
       << ", \"sim_seconds\": " << jnum(s.sim_seconds) << "}";
  }
  os << (solves_.empty() ? "],\n" : "\n  ],\n");

  const std::vector<sim::KernelProfile> kernels = profile_.profiles();
  os << "  \"kernels\": [";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const sim::KernelProfile& p = kernels[i];
    const double gbs = p.bandwidth_gbs();
    os << (i ? ",\n    " : "\n    ");
    os << "{\"name\": " << jstr(p.name) << ", \"count\": " << p.count
       << ", \"total_ns\": " << jnum(p.total_ns)
       << ", \"mean_ns\": " << jnum(p.mean_ns())
       << ", \"min_ns\": " << jnum(p.min_ns)
       << ", \"max_ns\": " << jnum(p.max_ns) << ", \"bytes\": " << p.bytes
       << ", \"percent\": " << jnum(p.percent) << ", \"gbs\": " << jnum(gbs)
       << ", \"peak_gbs\": " << jnum(peak_gbs_) << ", \"peak_ratio\": "
       << jnum(peak_gbs_ > 0.0 ? gbs / peak_gbs_ : 0.0)
       << ", \"factor_min\": " << jnum(p.factor_min)
       << ", \"factor_mean\": " << jnum(p.factor_mean())
       << ", \"factor_max\": " << jnum(p.factor_max) << "}";
  }
  os << (kernels.empty() ? "],\n" : "\n  ],\n");

  os << "  \"ranks\": [";
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    const dist::RankReport& r = ranks_[i];
    const double exposed = r.comm.comm_ns;
    const double hidden = r.comm.hidden_ns;
    const double wire = exposed + hidden;
    os << (i ? ",\n    " : "\n    ");
    os << "{\"rank\": " << r.rank
       << ", \"sim_seconds\": " << jnum(r.sim_seconds)
       << ", \"kernel_launches\": " << r.kernel_launches
       << ", \"kernel_bytes\": " << r.kernel_bytes
       << ", \"halo_exchanges\": " << r.comm.halo_exchanges
       << ", \"allreduces\": " << r.comm.allreduces
       << ", \"comm_bytes\": " << r.comm.bytes
       << ", \"exposed_ns\": " << jnum(exposed)
       << ", \"overlapped_exchanges\": " << r.comm.overlapped_exchanges
       << ", \"hidden_ns\": " << jnum(hidden) << ", \"hidden_fraction\": "
       << jnum(wire > 0.0 ? hidden / wire : 0.0) << "}";
  }
  os << (ranks_.empty() ? "],\n" : "\n  ],\n");

  if (!tenants_.empty()) {
    os << "  \"tenants\": [";
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const TenantRow& t = tenants_[i];
      os << (i ? ",\n    " : "\n    ");
      os << "{\"tenant\": " << jstr(t.tenant) << ", \"jobs\": " << t.jobs
         << ", \"failures\": " << t.failures
         << ", \"converged\": " << t.converged
         << ", \"iterations\": " << t.iterations
         << ", \"kernel_launches\": " << t.kernel_launches
         << ", \"comm_bytes\": " << t.comm_bytes
         << ", \"sim_seconds\": " << jnum(t.sim_seconds)
         << ", \"max_wait_pops\": " << t.max_wait_pops << "}";
    }
    os << "\n  ],\n";
  }

  os << "  \"metrics\": {\n    \"counters\": {";
  bool first = true;
  for (const auto& [key, value] : registry_.counters()) {
    os << (first ? "" : ", ") << jstr(key) << ": " << jnum(value);
    first = false;
  }
  os << "},\n    \"gauges\": {";
  first = true;
  for (const auto& [key, value] : registry_.gauges()) {
    os << (first ? "" : ", ") << jstr(key) << ": " << jnum(value);
    first = false;
  }
  os << "},\n    \"histograms\": {";
  first = true;
  for (const auto& [key, h] : registry_.histograms()) {
    os << (first ? "" : ", ") << jstr(key) << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
      os << (i ? ", " : "") << jnum(h.upper_bounds[i]);
    }
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      os << (i ? ", " : "") << h.counts[i];
    }
    os << "], \"sum\": " << jnum(h.sum) << ", \"count\": " << h.count << "}";
    first = false;
  }
  os << "}\n  }\n}\n";
  return os.str();
}

std::string ReportBuilder::openmetrics_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + ".om";
  }
  return path.substr(0, dot) + ".om";
}

bool ReportBuilder::write(const std::string& path) const {
  {
    std::ofstream out(path);
    if (out) out << to_json();
    if (!out) {
      util::log_error("report: cannot write '%s'", path.c_str());
      return false;
    }
  }
  const std::string om_path = openmetrics_path(path);
  std::ofstream om(om_path);
  if (om) om << to_openmetrics(registry_);
  if (!om) {
    util::log_error("report: cannot write '%s'", om_path.c_str());
    return false;
  }
  return true;
}

}  // namespace tl::telemetry
