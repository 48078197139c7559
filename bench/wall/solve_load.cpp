// The three solve workloads: one run_scenario call per item, with the
// item's port construction (make_port + core::Driver) timed on its own right
// before the solve.

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "core/driver.hpp"
#include "dist/driver.hpp"
#include "ports/registry.hpp"
#include "util/string_util.hpp"
#include "wall.hpp"

namespace wall {

namespace {

using tl::core::SolverKind;

struct SolveItem {
  std::string label;  // expectation key and sample name, e.g. "cg512/raja-cpu"
  Pair pair;
  SolverKind solver;
  int n;          // mesh is n x n
  int ranks = 1;  // MiniComm ranks (overlap on, the default deck)
};

const char* solver_tag(SolverKind s) {
  switch (s) {
    case SolverKind::kCg: return "cg";
    case SolverKind::kCheby: return "cheby";
    case SolverKind::kPpcg: return "ppcg";
    case SolverKind::kJacobi: return "jacobi";
  }
  return "?";
}

/// The workload's items at full size, or at the 64² warm-up/smoke size.
std::vector<SolveItem> items_for(const std::string& workload, bool small) {
  std::vector<SolveItem> items;
  const auto add_pairs = [&](SolverKind solver, int n) {
    for (const Pair& p : kPairs) {
      items.push_back({tl::util::strf("%s%d/%s", solver_tag(solver), n,
                                      pair_name(p).c_str()),
                       p, solver, n});
    }
  };
  if (workload == "cg512-ports") {
    add_pairs(SolverKind::kCg, small ? 64 : 512);
  } else if (workload == "cheby-ppcg384-ports") {
    add_pairs(SolverKind::kCheby, small ? 64 : 384);
    add_pairs(SolverKind::kPpcg, small ? 64 : 384);
  } else if (workload == "cg1024-ranks") {
    const int n = small ? 64 : 1024;
    for (const int ranks : {1, 4}) {
      items.push_back({tl::util::strf("cg%d/r%d", n, ranks), kPairs[0],
                       SolverKind::kCg, n, ranks});
    }
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return items;
}

tl::service::Scenario scenario_of(const SolveItem& item) {
  tl::service::Scenario s;
  s.settings = tl::core::Settings::default_problem();
  s.settings.nx = s.settings.ny = item.n;
  s.settings.solver = item.solver;
  s.settings.nranks = item.ranks;
  s.model = item.pair.model;
  s.device = item.pair.device;
  return s;
}

std::string check_outcome(const SolveItem& item,
                          const tl::service::ScenarioOutcome& out,
                          Expectations& expect) {
  const Record r = record_of(out);
  if (field_of(r, "converged") != 1.0) return "solve did not converge";
  return expect.check(item.label, r);
}

struct ItemSamples {
  std::vector<double> setup_s;
  std::vector<double> solve_s;
};

/// Times one item untraced: its set-up, then its solve.
void timed_item(const SolveItem& item, ItemSamples& samples,
                Expectations& expect, Tally& tally) {
  const tl::service::Scenario sc = scenario_of(item);
  std::string reason;
  try {
    samples.setup_s.push_back(time_setup(sc));
    const auto t0 = Clock::now();
    const tl::service::ScenarioOutcome out = tl::service::run_scenario(sc);
    samples.solve_s.push_back(seconds_between(t0, Clock::now()));
    reason = check_outcome(item, out, expect);
  } catch (const std::exception& e) {
    reason = e.what();
  }
  tally.add(item.label, reason);
}

void timed_pass(const std::vector<SolveItem>& items,
                std::vector<ItemSamples>& samples, Expectations& expect,
                Tally& tally) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    timed_item(items[i], samples[i], expect, tally);
  }
}

/// setup_s / wall_s / slowest_s / jobs_per_s from per-item medians; the
/// spread is that of the same quantity computed per pass.
void e2e_metrics(const std::vector<ItemSamples>& samples,
                 WorkloadResult& result) {
  std::size_t passes = samples.front().solve_s.size();
  for (const ItemSamples& s : samples) {
    passes = std::min({passes, s.solve_s.size(), s.setup_s.size()});
  }
  double setup = 0.0, wall = 0.0, slowest = 0.0;
  for (const ItemSamples& s : samples) {
    setup += median_of(s.setup_s);
    const double m = median_of(s.solve_s);
    wall += m;
    slowest = std::max(slowest, m);
  }
  std::vector<double> p_setup, p_wall, p_slowest, p_rate;
  for (std::size_t p = 0; p < passes; ++p) {
    double su = 0.0, w = 0.0, sl = 0.0;
    for (const ItemSamples& s : samples) {
      su += s.setup_s[p];
      w += s.solve_s[p];
      sl = std::max(sl, s.solve_s[p]);
    }
    p_setup.push_back(su);
    p_wall.push_back(w);
    p_slowest.push_back(sl);
    p_rate.push_back(static_cast<double>(samples.size()) / w);
  }
  const double items = static_cast<double>(samples.size());
  result.metrics["setup_s"] = {setup, "s", spread_of(p_setup)};
  result.metrics["wall_s"] = {wall, "s", spread_of(p_wall)};
  result.metrics["slowest_s"] = {slowest, "s", spread_of(p_slowest)};
  result.metrics["jobs_per_s"] = {items / wall, "1/s", spread_of(p_rate)};
}

std::string samples_json(const std::vector<SolveItem>& items,
                         const std::vector<ItemSamples>& samples,
                         const std::string& traced_json) {
  std::vector<std::string> labels;
  for (const SolveItem& item : items) labels.push_back(item.label);
  std::string out = "{\"items\": " + json_array(labels) + ", \"setup_s\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_array(samples[i].setup_s);
  }
  out += "], \"solve_s\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_array(samples[i].solve_s);
  }
  out += "]";
  if (!traced_json.empty()) out += ", \"traced\": " + traced_json;
  return out + "}";
}

double per_launch(double ns, std::uint64_t launches) {
  return launches > 0 ? ns / static_cast<double>(launches) : 0.0;
}

/// Per-layer metrics of the port workloads, from one untraced and one traced
/// pass. `solver_tag` + size names the group, e.g. "cg512" or "ppcg384".
void port_layers(const std::vector<SolveItem>& items,
                 const std::vector<ItemSamples>& samples,
                 const std::vector<tl::service::ScenarioOutcome>& traced_out,
                 const std::vector<TracedSolve>& traces, WorkloadResult& r) {
  // Group items by solver; within a group the pairs appear in kPairs order.
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string g =
        tl::util::strf("%s%d", solver_tag(items[i].solver), items[i].n);
    if (groups.find(g) == groups.end()) order.push_back(g);
    groups[g].push_back(i);
  }
  for (const std::string& g : order) {
    const std::vector<std::size_t>& idx = groups[g];
    std::vector<double> launch_ns;
    for (const std::size_t i : idx) {
      const RankTime t = traces[i].rank_time(0);
      launch_ns.push_back(t.launch_ns);
      r.add_layer("models." + g + "." + pair_name(items[i].pair) +
                      ".ns_per_launch",
                  per_launch(t.launch_ns, t.launches), "ns");
    }
    for (std::size_t k = 0; k < idx.size(); ++k) {
      r.add_layer("models." + g + "." + pair_name(items[idx[k]].pair) +
                      ".vs_omp3",
                  launch_ns[k] / launch_ns.front(), "ratio");
    }
  }
  // Construction per pair: the median of its items' set-up samples.
  const std::string ports_group =
      items.front().solver == SolverKind::kCg ? "cg512" : "384";
  for (const Pair& p : kPairs) {
    std::vector<double> setups;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (pair_name(items[i].pair) == pair_name(p)) {
        setups.insert(setups.end(), samples[i].setup_s.begin(),
                      samples[i].setup_s.end());
      }
    }
    r.add_layer("ports." + ports_group + "." + pair_name(p) + ".construct_ms",
                median_of(setups) * 1e3, "ms");
  }
  // Exact counts from the omp3 item of each group (the first).
  for (const std::string& g : order) {
    const Record rec = record_of(traced_out[groups[g].front()]);
    r.add_layer("core." + g + ".iterations", field_of(rec, "iterations"),
                "count");
    if (g.rfind("ppcg", 0) == 0) {
      r.add_layer("core." + g + ".inner_iterations",
                  field_of(rec, "inner_iterations"), "count");
    }
    r.add_layer("core." + g + ".launches", field_of(rec, "launches"), "count");
  }
}

/// Per-layer metrics of cg1024-ranks: item 0 is the 1-rank solve, item 1
/// the 4-rank solve.
void rank_layers(const std::vector<ItemSamples>& samples,
                 const std::vector<tl::service::ScenarioOutcome>& traced_out,
                 const std::vector<TracedSolve>& traces, WorkloadResult& r) {
  const TracedSolve& r1 = traces[0];
  const TracedSolve& r4 = traces[1];
  const RankTime t1 = r1.rank_time(0);
  double comm_ns = 0.0, launch_sum = 0.0, launch_max = 0.0, setup_max = 0.0;
  double tail_min = r4.wall_ns();
  std::uint64_t launches = 0;
  for (std::size_t k = 0; k < r4.ranks.size(); ++k) {
    const RankTime t = r4.rank_time(k);
    comm_ns += t.comm_ns;
    launch_sum += t.launch_ns;
    launch_max = std::max(launch_max, t.launch_ns);
    setup_max = std::max(setup_max, t.first_gap_ns);
    tail_min = std::min(tail_min, t.tail_ns);
    launches += t.launches;
  }
  const double nranks = static_cast<double>(r4.ranks.size());
  r.add_layer("dist.cg1024.r4.comm_s", comm_ns * 1e-9, "s");
  r.add_layer("dist.cg1024.r4.comm_frac", comm_ns / (nranks * r4.wall_ns()),
              "ratio");
  r.add_layer("dist.cg1024.r4.imbalance", launch_max / (launch_sum / nranks),
              "ratio");
  r.add_layer("dist.cg1024.r1.rank_setup_s", t1.first_gap_ns * 1e-9, "s");
  r.add_layer("dist.cg1024.r4.rank_setup_s", setup_max * 1e-9, "s");
  r.add_layer("dist.cg1024.r1.tail_s", t1.tail_ns * 1e-9, "s");
  r.add_layer("dist.cg1024.r4.tail_s", tail_min * 1e-9, "s");
  r.add_layer("dist.cg1024.speedup_r4",
              median_of(samples[0].solve_s) / median_of(samples[1].solve_s),
              "ratio");

  double halo = 0.0, allreduces = 0.0, bytes = 0.0;
  for (const tl::dist::RankReport& rank : traced_out[1].ranks) {
    halo += static_cast<double>(rank.comm.halo_exchanges);
    allreduces += static_cast<double>(rank.comm.allreduces);
    bytes += static_cast<double>(rank.comm.bytes);
  }
  r.add_layer("comm.cg1024.r4.halo_exchanges", halo, "count");
  r.add_layer("comm.cg1024.r4.allreduces", allreduces, "count");
  r.add_layer("comm.cg1024.r4.bytes", bytes, "B");
  r.add_layer("models.cg1024.r1.ns_per_launch",
              per_launch(t1.launch_ns, t1.launches), "ns");
  r.add_layer("models.cg1024.r4.ns_per_launch",
              per_launch(launch_sum, launches), "ns");
  r.add_layer("core.cg1024.iterations",
              field_of(record_of(traced_out[0]), "iterations"), "count");
}

std::string traced_json(const std::vector<TracedSolve>& traces) {
  std::string out = "[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const TracedSolve& t = traces[i];
    out += tl::util::strf("%s{\"item\": \"%s\", \"wall_s\": %.9g, \"ranks\": [",
                          i == 0 ? "" : ", ", t.label.c_str(),
                          t.wall_ns() * 1e-9);
    for (std::size_t k = 0; k < t.ranks.size(); ++k) {
      const RankTime rt = t.rank_time(k);
      out += tl::util::strf(
          "%s{\"first_gap_s\": %.9g, \"launch_s\": %.9g, \"transfer_s\": "
          "%.9g, \"comm_s\": %.9g, \"overlap_s\": %.9g, \"tail_s\": %.9g, "
          "\"launches\": %llu, \"transfers\": %llu, \"comm_events\": %llu}",
          k == 0 ? "" : ", ", rt.first_gap_ns * 1e-9, rt.launch_ns * 1e-9,
          rt.transfer_ns * 1e-9, rt.comm_ns * 1e-9, rt.overlap_ns * 1e-9,
          rt.tail_ns * 1e-9, static_cast<unsigned long long>(rt.launches),
          static_cast<unsigned long long>(rt.transfers),
          static_cast<unsigned long long>(rt.comm_events));
    }
    out += "]}";
  }
  return out + "]";
}

}  // namespace

double time_setup(const tl::service::Scenario& sc) {
  const auto t0 = Clock::now();
  Clock::time_point t1;
  if (sc.settings.nranks == 1) {
    const tl::core::Mesh mesh(sc.settings.nx, sc.settings.ny,
                              sc.settings.halo_depth);
    const tl::core::Driver driver(
        sc.settings, tl::ports::make_port(sc.model, sc.device, mesh, 1, 1));
    t1 = Clock::now();
  } else {
    const tl::dist::DistributedDriver driver(
        sc.settings, [&](const tl::core::Mesh& tile, int rank) {
          return tl::ports::make_port(sc.model, sc.device, tile,
                                      1 + static_cast<std::uint64_t>(rank), 1);
        });
    t1 = Clock::now();
  }
  return seconds_between(t0, t1);
}

WorkloadResult run_solve_workload(const std::string& workload,
                                  const RunOptions& options,
                                  Expectations& expect, Tally& tally) {
  const std::vector<SolveItem> warm = items_for(workload, true);
  const std::vector<SolveItem> items =
      options.smoke ? warm : items_for(workload, false);
  std::vector<ItemSamples> samples(items.size());

  if (!options.smoke) {
    std::vector<ItemSamples> unused(warm.size());
    timed_pass(warm, unused, expect, tally);
    // One untimed full-size set-up per item: the first allocation of each
    // field size pays page faults that no later pass does.
    for (const SolveItem& item : items) time_setup(scenario_of(item));
  }

  WorkloadResult result;
  if (!options.traced) {
    const auto begin = Clock::now();
    while (true) {
      const auto pass_start = Clock::now();
      timed_pass(items, samples, expect, tally);
      const auto now = Clock::now();
      if (options.smoke || expect.recording() ||
          seconds_between(begin, now) + seconds_between(pass_start, now) >
              options.seconds) {
        break;
      }
    }
    e2e_metrics(samples, result);
    result.samples_json = samples_json(items, samples, "");
    return result;
  }

  // Traced: after one full-size pass (the first of a process runs up to 30%
  // slow on some items), each item runs untraced and then traced, back to
  // back, so the trace overhead compares like with like.
  std::vector<ItemSamples> full(items.size());
  timed_pass(items, full, expect, tally);
  std::vector<tl::service::ScenarioOutcome> traced_out(items.size());
  std::vector<double> ratios;
  for (std::size_t i = 0; i < items.size(); ++i) {
    timed_item(items[i], samples[i], expect, tally);
    result.traces.emplace_back();
    TracedSolve& t = result.traces.back();
    t.label = workload + "/" + items[i].label;
    std::string reason;
    try {
      traced_out[i] = run_traced(scenario_of(items[i]), t);
      reason = check_outcome(items[i], traced_out[i], expect);
    } catch (const std::exception& e) {
      reason = e.what();
    }
    tally.add(items[i].label + " (traced)", reason);
    if (!reason.empty() || samples[i].solve_s.empty()) return result;
    ratios.push_back(t.wall_ns() * 1e-9 / samples[i].solve_s.back());
    result.max_conservation_error =
        std::max(result.max_conservation_error, t.conservation_error());
  }
  e2e_metrics(samples, result);

  if (workload == "cg1024-ranks") {
    rank_layers(samples, traced_out, result.traces, result);
  } else {
    port_layers(items, samples, traced_out, result.traces, result);
  }
  result.add_layer("trace." + workload + ".overhead_frac",
                   median_of(ratios) - 1.0, "ratio");
  result.samples_json =
      samples_json(items, samples, traced_json(result.traces));
  return result;
}

}  // namespace wall
