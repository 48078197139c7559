#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/json.hpp"
#include "util/string_util.hpp"
#include "wall.hpp"

namespace wall {

RankTime TracedSolve::rank_time(std::size_t rank) const {
  RankTime t;
  const std::vector<Stamped>& events = ranks[rank]->events();
  std::int64_t prev = start_ns;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Stamped& s = events[i];
    const double gap = static_cast<double>(s.host_ns - prev);
    if (gap < 0.0) t.monotonic = false;
    prev = s.host_ns;
    if (i == 0) {
      t.first_gap_ns += gap;
    } else if (s.event.phase == "comm") {
      t.comm_ns += gap;
      ++t.comm_events;
    } else if (s.event.phase == "overlap") {
      t.overlap_ns += gap;
    } else if (s.event.kind == tl::sim::TraceEvent::Kind::kTransfer) {
      t.transfer_ns += gap;
      ++t.transfers;
    } else {
      t.launch_ns += gap;
      ++t.launches;
    }
  }
  t.tail_ns = static_cast<double>(end_ns - prev);
  if (t.tail_ns < 0.0 || events.empty()) t.monotonic = false;
  return t;
}

double TracedSolve::conservation_error() const {
  double worst = 0.0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankTime t = rank_time(r);
    if (!t.monotonic || wall_ns() <= 0.0) return 1.0;
    worst = std::max(worst, std::abs(t.total_ns() - wall_ns()) / wall_ns());
  }
  return worst;
}

tl::service::ScenarioOutcome run_traced(const tl::service::Scenario& scenario,
                                        TracedSolve& traced) {
  traced.ranks.clear();
  for (int r = 0; r < scenario.settings.nranks; ++r) {
    traced.ranks.push_back(std::make_unique<HostTraceSink>());
  }
  tl::service::ScenarioHooks hooks;
  hooks.sink_for_rank = [&traced](int rank) -> tl::sim::TraceSink* {
    const auto r = static_cast<std::size_t>(rank);
    return r < traced.ranks.size() ? traced.ranks[r].get() : nullptr;
  };
  traced.start_ns = now_ns();
  tl::service::ScenarioOutcome outcome =
      tl::service::run_scenario(scenario, hooks);
  traced.end_ns = now_ns();
  return outcome;
}

namespace {

/// One complete ("X") slice on the host timeline, microseconds from epoch.
void slice(std::ostream& out, bool& first, std::string_view name,
           std::string_view cat, int pid, int tid, std::int64_t from_ns,
           std::int64_t to_ns, std::int64_t epoch_ns, const std::string& args) {
  out << (first ? "\n" : ",\n") << "{\"name\":\""
      << tl::util::json_escape(name) << "\",\"cat\":\""
      << tl::util::json_escape(cat) << "\",\"ph\":\"X\",\"pid\":" << pid
      << ",\"tid\":" << tid
      << tl::util::strf(",\"ts\":%.3f,\"dur\":%.3f",
                        static_cast<double>(from_ns - epoch_ns) * 1e-3,
                        static_cast<double>(to_ns - from_ns) * 1e-3)
      << ",\"args\":{" << args << "}}";
  first = false;
}

void name_meta(std::ostream& out, bool& first, const char* what, int pid,
               int tid, const std::string& name) {
  out << (first ? "\n" : ",\n") << "{\"name\":\"" << what
      << "\",\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"args\":{\"name\":\"" << tl::util::json_escape(name) << "\"}}";
  first = false;
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::vector<TracedSolve>& solves,
                        std::int64_t epoch_ns) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  long next_id = 1;
  for (std::size_t s = 0; s < solves.size(); ++s) {
    const TracedSolve& solve = solves[s];
    const int pid = static_cast<int>(s) + 1;
    const long solve_id = next_id++;
    name_meta(out, first, "process_name", pid, 0, solve.label);
    slice(out, first, solve.label, "solve", pid, 0, solve.start_ns,
          solve.end_ns, epoch_ns, tl::util::strf("\"id\":%ld", solve_id));
    for (std::size_t r = 0; r < solve.ranks.size(); ++r) {
      const int tid = static_cast<int>(r) + 1;
      const long rank_id = next_id++;
      name_meta(out, first, "thread_name", pid, tid,
                tl::util::strf("rank %zu", r));
      slice(out, first, tl::util::strf("rank %zu", r), "rank", pid, tid,
            solve.start_ns, solve.end_ns, epoch_ns,
            tl::util::strf("\"id\":%ld,\"parent\":%ld", rank_id, solve_id));
      std::int64_t prev = solve.start_ns;
      const std::vector<Stamped>& events = solve.ranks[r]->events();
      for (std::size_t i = 0; i < events.size(); ++i) {
        const tl::sim::TraceEvent& e = events[i].event;
        const std::string args = tl::util::strf(
            "\"id\":%ld,\"parent\":%ld,\"sim_start_ns\":%.1f,\"sim_ns\":%.1f,"
            "\"bytes\":%zu",
            next_id++, rank_id, e.start_ns, e.duration_ns, e.bytes);
        slice(out, first, i == 0 ? std::string("setup+") + std::string(e.name)
                                 : std::string(e.name),
              e.phase.empty() ? "launch" : e.phase, pid, tid, prev,
              events[i].host_ns, epoch_ns, args);
        prev = events[i].host_ns;
      }
      slice(out, first, "tail", "tail", pid, tid, prev, solve.end_ns, epoch_ns,
            tl::util::strf("\"id\":%ld,\"parent\":%ld", next_id++, rank_id));
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace wall
