// service-smalljobs: a closed-loop deck of small jobs pushed from one thread
// through service::SolveService, every job checked bit-for-bit against a
// standalone run_scenario twin of its scenario key.

#include <algorithm>
#include <exception>
#include <numeric>
#include <set>

#include "service/pool.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "wall.hpp"

namespace wall {

namespace {

using tl::core::SolverKind;
using tl::service::Job;
using tl::service::JobResult;

constexpr std::size_t kJobs = 40'000;
constexpr std::size_t kSmokeJobs = 1'000;

constexpr const char* kTenants[] = {"acme", "burl", "cato",
                                    "dene", "etna", "frey"};
constexpr SolverKind kSolvers[] = {SolverKind::kCg, SolverKind::kCg,
                                   SolverKind::kCheby, SolverKind::kPpcg,
                                   SolverKind::kJacobi};
constexpr int kSmallMeshes[] = {16, 24, 32, 48};
constexpr int kLargeMesh = 96;
/// Every 40th job is 96² (2.5%). Those jobs take about a third of the
/// workers' time, so jobs/s moves with the speed of either size class.
constexpr std::size_t kLargeEvery = 40;

/// Two workers on one lane. The 2 small + 1 large worker split, with its
/// submitter blocking on whichever lane is full, flipped run to run between
/// small-lane-bound and large-lane-bound drains: jobs/s spread 26% over ten
/// runs on a 4-core VM, against 2-5% per drain for one shared lane.
tl::service::ServiceConfig service_config() {
  tl::service::ServiceConfig c;
  c.small_workers = 2;
  c.large_workers = 0;
  c.queue_capacity = 256;
  c.batch_max = 8;
  c.aging_interval = 16;
  c.host_threads = 1;
  return c;
}

tl::service::Scenario job_scenario(const Pair& pair, SolverKind solver,
                                   int n) {
  tl::service::Scenario s;
  s.settings = tl::core::Settings::default_problem();
  s.settings.nx = s.settings.ny = n;
  s.settings.solver = solver;
  s.settings.eps = 1e-6;
  s.settings.max_iters = 200;
  s.settings.end_step = 1;
  s.model = pair.model;
  s.device = pair.device;
  return s;
}

/// The deck's composition is fixed: slot i runs pair i % 7, solver
/// (i / 7) % 5 and small mesh (i / 35) % 4, except that every 40th slot is
/// 96². The seed shuffles the slots and draws each job's tenant (two heavy
/// hitters, four long-tail) and priority (20/50/30), so every seed's deck
/// carries the same solve work. Only fields covered by Scenario::key() vary
/// between jobs, so a twin per key verifies every job with that key.
/// Refills `deck`, whose storage a caller reuses across drains.
void make_deck(std::uint64_t seed, std::size_t jobs, std::vector<Job>& deck) {
  tl::util::Rng rng(seed);
  std::vector<std::size_t> slots(jobs);
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  for (std::size_t i = jobs; i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  }
  deck.clear();
  deck.reserve(jobs);
  for (const std::size_t slot : slots) {
    Job job;
    const std::uint64_t t = rng.next_below(10);
    job.tenant = kTenants[t < 3 ? 0 : (t < 6 ? 1 : 2 + (t - 6) % 4)];
    const std::uint64_t p = rng.next_below(10);
    job.priority = p < 2 ? tl::service::Priority::kHigh
                         : (p < 7 ? tl::service::Priority::kNormal
                                  : tl::service::Priority::kLow);
    const std::size_t combos = kPairs.size() * std::size(kSolvers);
    const int n = slot % kLargeEvery == kLargeEvery - 1
                      ? kLargeMesh
                      : kSmallMeshes[(slot / combos) % std::size(kSmallMeshes)];
    job.scenario = job_scenario(kPairs[slot % kPairs.size()],
                                kSolvers[(slot / kPairs.size()) %
                                         std::size(kSolvers)],
                                n);
    deck.push_back(std::move(job));
  }
}

std::string key_of(const tl::service::Scenario& s) {
  return "service/" + s.key();
}

std::string deck_key(std::uint64_t seed, std::size_t jobs) {
  return tl::util::strf("service-deck/seed=0x%llx/jobs=%zu",
                        static_cast<unsigned long long>(seed), jobs);
}

/// Deck totals in job-id order, so the float sums are schedule-independent.
Record deck_totals(const std::vector<const Record*>& per_job) {
  double it = 0.0, inner = 0.0, launches = 0.0, sim = 0.0;
  for (const Record* r : per_job) {
    it += field_of(*r, "iterations");
    inner += field_of(*r, "inner_iterations");
    launches += field_of(*r, "launches");
    sim += field_of(*r, "sim_total_seconds");
  }
  return {{"jobs", static_cast<double>(per_job.size())},
          {"iterations", it},
          {"inner_iterations", inner},
          {"launches", launches},
          {"sim_seconds", sim}};
}

struct Twin {
  tl::service::Scenario scenario;
  Record record;
  double untraced_s = 0.0;
  bool ok = false;
};

/// One standalone run_scenario per distinct key of the deck, timed and
/// checked against the committed expectation for that key.
std::map<std::string, Twin> run_twins(const std::vector<Job>& deck,
                                      Expectations& expect, Tally& tally) {
  std::map<std::string, Twin> twins;
  for (const Job& job : deck) {
    twins.emplace(key_of(job.scenario), Twin{job.scenario, {}, 0.0, false});
  }
  for (auto& [key, twin] : twins) {
    std::string reason;
    try {
      const auto t0 = Clock::now();
      const tl::service::ScenarioOutcome out =
          tl::service::run_scenario(twin.scenario);
      twin.untraced_s = seconds_between(t0, Clock::now());
      twin.record = record_of(out);
      reason = expect.check(key, twin.record);
    } catch (const std::exception& e) {
      reason = e.what();
    }
    twin.ok = reason.empty();
    tally.add(key + " (twin)", reason);
  }
  return twins;
}

struct Drain {
  double setup_s = 0.0;  // Σ over the deck's keys of time_setup()
  double wall_s = 0.0;   // SolveService construction -> finish() returned
  double submit_blocked_s = 0.0;
  double drain_s = 0.0;  // last submit returned -> finish() returned
  std::size_t jobs = 0;
  tl::service::ServiceReport report;
};

/// One drain of the deck, preceded by one set-up of every key it runs: the
/// port construction each of its jobs pays.
Drain run_drain(std::uint64_t seed, std::size_t jobs, std::vector<Job>& deck,
                const std::map<std::string, Twin>& twins) {
  Drain d;
  d.jobs = jobs;
  for (const auto& [key, twin] : twins) d.setup_s += time_setup(twin.scenario);
  make_deck(seed, jobs, deck);
  const auto start = Clock::now();
  tl::service::SolveService svc(service_config());
  for (Job& job : deck) {
    const auto t = Clock::now();
    svc.submit(std::move(job));
    d.submit_blocked_s += seconds_between(t, Clock::now());
  }
  const auto last_submit = Clock::now();
  d.report = svc.finish();
  const auto end = Clock::now();
  d.wall_s = seconds_between(start, end);
  d.drain_s = seconds_between(last_submit, end);
  return d;
}

/// Checks every job of a drain against its twin and the fairness bound, and
/// the default-seed deck totals against the committed ones.
void check_drain(const Drain& d, std::uint64_t seed,
                 const std::map<std::string, Twin>& twins,
                 Expectations& expect, Tally& tally) {
  const std::vector<JobResult>& results = d.report.results;
  for (std::size_t i = results.size(); i < d.jobs; ++i) {
    tally.add("service job", "not drained");
  }
  std::vector<Record> records;
  records.reserve(results.size());
  for (const JobResult& r : results) {
    const std::string key = key_of(r.scenario);
    std::string reason;
    const auto twin = twins.find(key);
    records.push_back(record_of(r));
    if (!r.ok) {
      reason = "job failed: " + r.error;
    } else if (r.wait_pops > d.report.fairness_bound) {
      reason = tl::util::strf("waited %llu pops > fairness bound %llu",
                              static_cast<unsigned long long>(r.wait_pops),
                              static_cast<unsigned long long>(
                                  d.report.fairness_bound));
    } else if (twin == twins.end() || !twin->second.ok) {
      reason = "no verified twin for " + key;
    } else if (records.back() != twin->second.record) {
      reason = "result differs from its standalone twin";
    }
    tally.add(tl::util::strf("job %llu (%s)",
                             static_cast<unsigned long long>(r.id),
                             key.c_str()),
              reason);
  }
  if (seed == kDefaultSeed) {
    std::vector<const Record*> per_job;
    for (const Record& r : records) per_job.push_back(&r);
    const std::string why =
        expect.check(deck_key(seed, d.jobs), deck_totals(per_job));
    if (!why.empty()) tally.fail_check("deck totals: " + why);
  }
}

bool is_large(const JobResult& job) {
  return job.scenario.settings.nx >= kLargeMesh;
}

/// Per-layer service metrics from one drain plus the untraced and traced
/// twins. "small" and "large" are the job size classes (below 96², 96²),
/// which share the one lane; a class's busy_frac is the workers' time spent
/// on its jobs, so the two add up to the workers' busy share.
void service_layers(const Drain& d, const std::map<std::string, Twin>& twins,
                    const std::map<std::string, const TracedSolve*>& traced,
                    WorkloadResult& r) {
  std::vector<double> exec_ms[2], waits;
  double busy_ns[2] = {0.0, 0.0};
  double twin_s = 0.0, exec_s = 0.0, first_gap_ns = 0.0, traced_ns = 0.0;
  double iterations = 0.0, launches = 0.0;
  std::set<std::uint64_t> batches;
  for (const JobResult& job : d.report.results) {
    const int size = is_large(job) ? 1 : 0;
    exec_ms[size].push_back(job.wall_ns * 1e-6);
    busy_ns[size] += job.wall_ns;
    waits.push_back(static_cast<double>(job.wait_pops));
    batches.insert(job.batch);
    iterations += job.iterations;
    launches += static_cast<double>(job.kernel_launches);
    const std::string key = key_of(job.scenario);
    exec_s += job.wall_ns * 1e-9;
    twin_s += twins.at(key).untraced_s;
    const TracedSolve& t = *traced.at(key);
    first_gap_ns += t.rank_time(0).first_gap_ns;
    traced_ns += t.wall_ns();
  }
  const double worker_ns = service_config().small_workers * d.wall_s * 1e9;
  r.add_layer("service.submit_blocked_s", d.submit_blocked_s, "s");
  r.add_layer("service.drain_s", d.drain_s, "s");
  r.add_layer("service.small.busy_frac", busy_ns[0] / worker_ns, "ratio");
  r.add_layer("service.large.busy_frac", busy_ns[1] / worker_ns, "ratio");
  r.add_layer("service.small.exec_ms.p50", percentile_of(exec_ms[0], 50), "ms");
  r.add_layer("service.large.exec_ms.p50", percentile_of(exec_ms[1], 50), "ms");
  r.add_layer("service.small.exec_ms.p99", percentile_of(exec_ms[0], 99), "ms");
  r.add_layer("service.large.exec_ms.p99", percentile_of(exec_ms[1], 99), "ms");
  r.add_layer("service.wait_pops.p99", percentile_of(waits, 99), "pops");
  r.add_layer("service.max_wait_pops",
              static_cast<double>(d.report.max_wait_pops()), "pops");
  r.add_layer("service.fairness_bound",
              static_cast<double>(d.report.fairness_bound), "pops");
  r.add_layer("service.jobs_per_batch",
              static_cast<double>(d.report.results.size()) /
                  static_cast<double>(std::max<std::size_t>(1, batches.size())),
              "count");
  r.add_layer("service.session_overhead_frac", 1.0 - twin_s / exec_s, "ratio");
  r.add_layer("ports.service.setup_share", first_gap_ns / traced_ns, "ratio");
  r.add_layer("core.service.iterations", iterations, "count");
  r.add_layer("core.service.launches", launches, "count");
}

std::string drain_json(const Drain& d) {
  return tl::util::strf(
      "{\"jobs\": %zu, \"setup_s\": %.9g, \"wall_s\": %.9g, \"jobs_per_s\": "
      "%.9g, \"submit_blocked_s\": %.9g, \"drain_s\": %.9g}",
      d.jobs, d.setup_s, d.wall_s, static_cast<double>(d.jobs) / d.wall_s,
      d.submit_blocked_s, d.drain_s);
}

/// Every job's exec time (µs), worker index and size class ('s'mall or
/// 'l'arge), in id order.
std::string jobs_json(const Drain& d) {
  std::string exec = "[", workers, sizes;
  for (std::size_t i = 0; i < d.report.results.size(); ++i) {
    const JobResult& r = d.report.results[i];
    exec += tl::util::strf("%s%.0f", i == 0 ? "" : ",", r.wall_ns * 1e-3);
    workers += static_cast<char>('0' + r.worker);
    sizes += is_large(r) ? 'l' : 's';
  }
  return "{\"exec_us\": " + exec + "], \"worker\": \"" + workers +
         "\", \"size\": \"" + sizes + "\"}";
}

}  // namespace

WorkloadResult run_service_workload(const RunOptions& options,
                                    Expectations& expect, Tally& tally) {
  const std::size_t jobs = options.smoke ? kSmokeJobs : kJobs;
  // The twins run every key of the deck once, which doubles as the warm-up
  // of every port at the deck's meshes; an untimed small drain warms the
  // service itself.
  std::vector<Job> deck;
  make_deck(options.seed, jobs, deck);
  std::map<std::string, Twin> twins = run_twins(deck, expect, tally);
  if (!options.smoke) {
    const Drain warm = run_drain(options.seed, kSmokeJobs, deck, twins);
    check_drain(warm, options.seed, twins, expect, tally);
  }

  std::vector<Drain> drains;
  std::map<std::string, std::vector<std::vector<double>>> exec_by_key;
  const auto begin = Clock::now();
  while (true) {
    drains.push_back(run_drain(options.seed, jobs, deck, twins));
    Drain& d = drains.back();
    check_drain(d, options.seed, twins, expect, tally);
    for (auto& [key, per_drain] : exec_by_key) per_drain.emplace_back();
    for (const JobResult& r : d.report.results) {
      auto& per_drain = exec_by_key[key_of(r.scenario)];
      per_drain.resize(drains.size());
      per_drain.back().push_back(r.wall_ns * 1e-9);
    }
    // Only the traced run's single drain needs its report later.
    if (!options.traced) d.report = {};
    if (options.smoke || options.traced || expect.recording() ||
        seconds_between(begin, Clock::now()) + d.wall_s + d.setup_s >
            options.seconds) {
      break;
    }
  }

  WorkloadResult result;
  std::vector<double> setup, wall, rate, slowest_per_drain(drains.size(), 0.0);
  for (const Drain& d : drains) {
    setup.push_back(d.setup_s);
    wall.push_back(d.wall_s);
    rate.push_back(static_cast<double>(d.jobs) / d.wall_s);
  }
  // slowest_s: the largest per-key median exec time (a key is the service's
  // item), pooled over drains; its spread is the same quantity per drain.
  double slowest = 0.0;
  std::vector<std::string> keys;
  std::string key_medians;
  for (const auto& [key, per_drain] : exec_by_key) {
    std::vector<double> pooled, medians;
    for (std::size_t i = 0; i < per_drain.size(); ++i) {
      pooled.insert(pooled.end(), per_drain[i].begin(), per_drain[i].end());
      medians.push_back(median_of(per_drain[i]));
      slowest_per_drain[i] = std::max(slowest_per_drain[i], medians.back());
    }
    slowest = std::max(slowest, median_of(pooled));
    keys.push_back(key);
    key_medians += (key_medians.empty() ? "" : ",") + json_array(medians);
  }
  result.metrics["setup_s"] = {median_of(setup), "s", spread_of(setup)};
  result.metrics["wall_s"] = {median_of(wall), "s", spread_of(wall)};
  result.metrics["slowest_s"] = {slowest, "s", spread_of(slowest_per_drain)};
  result.metrics["jobs_per_s"] = {median_of(rate), "1/s", spread_of(rate)};

  std::string samples = "{\"drains\": [";
  for (std::size_t i = 0; i < drains.size(); ++i) {
    samples += (i == 0 ? "" : ", ") + drain_json(drains[i]);
  }
  samples += "], \"keys\": " + json_array(keys) +
             ", \"key_exec_median_s\": [" + key_medians + "], \"twin_s\": [";
  bool first = true;
  for (const auto& [key, twin] : twins) {
    samples += tl::util::strf("%s%.9g", first ? "" : ",", twin.untraced_s);
    first = false;
  }
  samples += "]";

  if (options.traced) {
    // Each key runs untraced three times (median) and then traced, back to
    // back: the twins timed before the drains ran cold, and these times feed
    // the session overhead as well as the trace overhead.
    std::map<std::string, const TracedSolve*> traced;
    std::vector<double> ratios;
    result.traces.reserve(twins.size());
    for (auto& [key, twin] : twins) {
      result.traces.emplace_back();
      TracedSolve& t = result.traces.back();
      t.label = key;
      std::string reason;
      try {
        std::vector<double> untraced;
        for (int rep = 0; rep < 3 && reason.empty(); ++rep) {
          const auto t0 = Clock::now();
          const tl::service::ScenarioOutcome out =
              tl::service::run_scenario(twin.scenario);
          untraced.push_back(seconds_between(t0, Clock::now()));
          reason = expect.check(key, record_of(out));
        }
        twin.untraced_s = median_of(untraced);
        if (reason.empty()) {
          reason = expect.check(key, record_of(run_traced(twin.scenario, t)));
        }
      } catch (const std::exception& e) {
        reason = e.what();
      }
      tally.add(key + " (traced twin)", reason);
      if (!reason.empty()) return result;
      traced[key] = &t;
      ratios.push_back(t.wall_ns() * 1e-9 / twin.untraced_s);
      result.max_conservation_error =
          std::max(result.max_conservation_error, t.conservation_error());
    }
    service_layers(drains.front(), twins, traced, result);
    result.add_layer("trace.service-smalljobs.overhead_frac",
                     median_of(ratios) - 1.0, "ratio");
    samples += ", \"jobs\": " + jobs_json(drains.front());
  }
  result.samples_json = samples + "}";
  return result;
}

void record_service_expectations(Expectations& expect, Tally& tally) {
  std::map<std::string, Record> by_key;
  for (const Pair& pair : kPairs) {
    for (const SolverKind solver : kSolvers) {
      for (const int n : {16, 24, 32, 48, kLargeMesh}) {
        const tl::service::Scenario s = job_scenario(pair, solver, n);
        const std::string key = key_of(s);
        if (by_key.count(key) != 0) continue;
        std::string reason;
        try {
          by_key[key] = record_of(tl::service::run_scenario(s));
          reason = expect.check(key, by_key[key]);
        } catch (const std::exception& e) {
          reason = e.what();
        }
        tally.add(key, reason);
      }
    }
  }
  for (const std::size_t jobs : {kJobs, kSmokeJobs}) {
    std::vector<const Record*> per_job;
    std::vector<Job> deck;
    make_deck(kDefaultSeed, jobs, deck);
    for (const Job& job : deck) {
      per_job.push_back(&by_key.at(key_of(job.scenario)));
    }
    expect.check(deck_key(kDefaultSeed, jobs), deck_totals(per_job));
  }
}

}  // namespace wall
