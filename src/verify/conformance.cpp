#include "verify/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/driver.hpp"
#include "core/phantom_kernels.hpp"
#include "core/reference_kernels.hpp"
#include "dist/driver.hpp"
#include "ports/registry.hpp"
#include "util/string_util.hpp"
#include "verify/perturb.hpp"

namespace tl::verify {

namespace {

using core::SolverKind;

core::Settings make_settings(const VerifyOptions& opt, SolverKind solver) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = opt.nx;
  s.solver = solver;
  s.end_step = opt.steps;
  return s;
}

MetricResult check_scalar(Metric metric, double port, double ref,
                          const ToleranceSpec& spec, std::string detail = {}) {
  MetricResult r;
  r.metric = metric;
  r.tol = spec[metric];
  r.cmp = compare(port, ref, r.tol);
  r.pass = r.cmp.pass;
  r.detail = std::move(detail);
  return r;
}

/// Element-wise residual-history comparison: a length mismatch beyond
/// `len_slack` fails outright; within the slack (the distributed case, where
/// reassociated dot products may flip a check-interval boundary) the common
/// prefix is compared instead. Otherwise the worst entry (first failing,
/// else largest relative error) represents the metric.
MetricResult check_history(const std::vector<double>& port,
                           const std::vector<double>& ref,
                           const ToleranceSpec& spec,
                           std::size_t len_slack = 0) {
  MetricResult r;
  r.metric = Metric::kResidualHistory;
  r.tol = spec[Metric::kResidualHistory];
  const std::size_t len_diff = port.size() > ref.size()
                                   ? port.size() - ref.size()
                                   : ref.size() - port.size();
  if (len_diff > len_slack) {
    r.cmp = compare(static_cast<double>(port.size()),
                    static_cast<double>(ref.size()), Tolerance::exact());
    r.pass = false;
    r.detail = util::strf("length %zu vs %zu", port.size(), ref.size());
    return r;
  }
  const std::size_t n = std::min(port.size(), ref.size());
  r.pass = true;
  double worst_rel = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Comparison c = compare(port[i], ref[i], r.tol);
    if ((!c.pass && r.pass) || (c.pass == r.pass && c.rel_err > worst_rel)) {
      r.cmp = c;
      worst_rel = c.rel_err;
      r.detail = util::strf("entry %zu/%zu", i + 1, n);
      if (!c.pass) r.pass = false;
    }
  }
  if (n == 0) {
    r.cmp = compare(0.0, 0.0, r.tol);
    r.detail = "empty";
  } else if (len_diff != 0) {
    r.detail += util::strf(" (prefix; lengths %zu vs %zu)", port.size(),
                           ref.size());
  }
  return r;
}

/// Worst-component checksum comparison (sum, l2, min, max share a metric).
MetricResult check_checksum(Metric metric, const FieldChecksum& port,
                            const FieldChecksum& ref,
                            const ToleranceSpec& spec) {
  MetricResult worst;
  bool first = true;
  const std::pair<const char*, std::pair<double, double>> parts[] = {
      {"sum", {port.sum, ref.sum}},
      {"l2", {port.l2, ref.l2}},
      {"min", {port.min, ref.min}},
      {"max", {port.max, ref.max}}};
  for (const auto& [name, values] : parts) {
    MetricResult r =
        check_scalar(metric, values.first, values.second, spec, name);
    if (first || (worst.pass && !r.pass) ||
        (worst.pass == r.pass && r.cmp.rel_err > worst.cmp.rel_err)) {
      worst = r;
      first = false;
    }
  }
  return worst;
}

void append_record_checks(std::vector<MetricResult>& out,
                          const GoldenRecord& live, const GoldenRecord& ref,
                          const ToleranceSpec& spec) {
  out.push_back(check_scalar(Metric::kConverged, live.converged ? 1.0 : 0.0,
                             ref.converged ? 1.0 : 0.0, spec));
  out.push_back(check_scalar(Metric::kIterations, live.iterations,
                             ref.iterations, spec));
  out.push_back(check_scalar(Metric::kInnerIterations, live.inner_iterations,
                             ref.inner_iterations, spec));
  out.push_back(
      check_scalar(Metric::kFinalResidual, live.final_rr, ref.final_rr, spec));
  out.push_back(check_scalar(Metric::kVolume, live.volume, ref.volume, spec));
  out.push_back(check_scalar(Metric::kMass, live.mass, ref.mass, spec));
  out.push_back(check_scalar(Metric::kInternalEnergy, live.internal_energy,
                             ref.internal_energy, spec));
  out.push_back(check_scalar(Metric::kTemperature, live.temperature,
                             ref.temperature, spec));
  out.push_back(
      check_checksum(Metric::kSolutionChecksum, live.u, ref.u, spec));
  out.push_back(
      check_checksum(Metric::kEnergyChecksum, live.energy, ref.energy, spec));
}

/// Replays the live port's recorded control flow through PhantomKernels and
/// compares the simulated clocks (the bench pipeline's equivalence).
void append_replay_checks(std::vector<MetricResult>& out,
                          const VerifyOptions& opt, sim::Model model,
                          sim::DeviceId device, const core::Settings& s,
                          const core::RunReport& live,
                          const ToleranceSpec& spec) {
  const core::SolveStats& stats = live.steps.back().solve;
  const core::PhantomScript script =
      core::replay_script(s, stats.iterations, stats.converged_on_ur);
  core::Driver phantom(
      s,
      std::make_unique<core::PhantomKernels>(model, device, s.mesh(), script,
                                             opt.seed),
      core::DriverOptions{.materialize_host_state = false});
  const core::RunReport replay = phantom.run();
  out.push_back(check_scalar(Metric::kReplaySeconds, live.sim_total_seconds,
                             replay.sim_total_seconds, spec));
  out.push_back(check_scalar(Metric::kReplayLaunches,
                             static_cast<double>(live.kernel_launches),
                             static_cast<double>(replay.kernel_launches),
                             spec));
}

MetricResult exact_check(Metric metric, double a, double b,
                         std::string detail) {
  MetricResult r;
  r.metric = metric;
  r.tol = Tolerance::exact();
  r.cmp = compare(a, b, r.tol);
  r.pass = r.cmp.pass;
  r.detail = std::move(detail);
  return r;
}

/// The overlap pipeline's exactness contract: an overlapped decomposed solve
/// must be bit-identical to the blocking one — not merely within the
/// distributed tolerances — so every condensed scalar is compared exactly.
void append_overlap_identity(std::vector<MetricResult>& out,
                             const GoldenRecord& ov, const GoldenRecord& bl) {
  const char* tag = "overlap==blocking";
  out.push_back(exact_check(Metric::kConverged, ov.converged ? 1.0 : 0.0,
                            bl.converged ? 1.0 : 0.0, tag));
  out.push_back(exact_check(Metric::kIterations, ov.iterations, bl.iterations,
                            tag));
  out.push_back(exact_check(Metric::kInnerIterations, ov.inner_iterations,
                            bl.inner_iterations, tag));
  out.push_back(
      exact_check(Metric::kFinalResidual, ov.final_rr, bl.final_rr, tag));
  out.push_back(exact_check(Metric::kVolume, ov.volume, bl.volume, tag));
  out.push_back(exact_check(Metric::kMass, ov.mass, bl.mass, tag));
  out.push_back(exact_check(Metric::kInternalEnergy, ov.internal_energy,
                            bl.internal_energy, tag));
  out.push_back(
      exact_check(Metric::kTemperature, ov.temperature, bl.temperature, tag));
  const std::pair<Metric, std::pair<const FieldChecksum*, const FieldChecksum*>>
      sums[] = {{Metric::kSolutionChecksum, {&ov.u, &bl.u}},
                {Metric::kEnergyChecksum, {&ov.energy, &bl.energy}}};
  for (const auto& [metric, cs] : sums) {
    out.push_back(exact_check(metric, cs.first->sum, cs.second->sum,
                              std::string(tag) + " sum"));
    out.push_back(exact_check(metric, cs.first->l2, cs.second->l2,
                              std::string(tag) + " l2"));
    out.push_back(exact_check(metric, cs.first->min, cs.second->min,
                              std::string(tag) + " min"));
    out.push_back(exact_check(metric, cs.first->max, cs.second->max,
                              std::string(tag) + " max"));
  }
}

/// Condenses a finished distributed run into a GoldenRecord. The assembled
/// global fields in the report are padded like a single-chunk run with the
/// halo cells zero, which is exactly what the interior-only checksum wants.
GoldenRecord condense_dist(const core::Settings& s,
                           const dist::DistReport& rep) {
  const core::StepReport& last = rep.run.steps.back();
  const core::Mesh& mesh = rep.global_mesh;
  GoldenRecord rec;
  rec.solver = s.solver;
  rec.nx = mesh.nx;
  rec.steps = static_cast<int>(rep.run.steps.size());
  rec.converged = last.solve.converged;
  rec.iterations = last.solve.iterations;
  rec.inner_iterations = last.solve.inner_iterations;
  rec.final_rr = last.solve.final_rr;
  rec.volume = last.summary.volume;
  rec.mass = last.summary.mass;
  rec.internal_energy = last.summary.internal_energy;
  rec.temperature = last.summary.temperature;
  rec.u = checksum_field(mesh, rep.u.view2d(mesh.padded_nx(), mesh.padded_ny()));
  rec.energy = checksum_field(
      mesh, rep.energy.view2d(mesh.padded_nx(), mesh.padded_ny()));
  return rec;
}

}  // namespace

int ConformanceReport::failed_cells() const {
  return static_cast<int>(
      std::count_if(cells.begin(), cells.end(),
                    [](const CellResult& c) { return !c.pass; }));
}

bool ConformanceReport::golden_pass() const {
  return std::all_of(references.begin(), references.end(),
                     [](const ReferenceResult& r) { return r.golden_pass; });
}

bool ConformanceReport::all_pass() const {
  if (failed_cells() != 0 || !golden_pass()) return false;
  return std::all_of(
      references.begin(), references.end(),
      [](const ReferenceResult& r) { return r.record.converged; });
}

ConformanceReport run_conformance(const VerifyOptions& options) {
  if (options.solvers.empty()) {
    throw std::invalid_argument("run_conformance: no solvers selected");
  }
  if (!options.comm_perturb.empty() && options.ranks < 2) {
    throw std::invalid_argument(
        "run_conformance: comm_perturb needs ranks > 1 (there is no "
        "communication to corrupt in a single-rank run)");
  }
  ConformanceReport report;
  report.options = options;

  // Golden store (loaded once; individual lookups may still miss).
  std::vector<GoldenRecord> golden;
  bool golden_loaded = false;
  std::string golden_error;
  if (!options.golden_path.empty()) {
    try {
      golden = load_golden(options.golden_path);
      golden_loaded = true;
    } catch (const std::runtime_error& e) {
      golden_error = e.what();
    }
  }

  // Reference solves, one per solver.
  for (const SolverKind solver : options.solvers) {
    const core::Settings s = make_settings(options, solver);
    std::unique_ptr<core::SolverKernels> kernels =
        std::make_unique<core::ReferenceKernels>(s.mesh());
    if (!options.perturb_kernel.empty()) {
      kernels = std::make_unique<PerturbingKernels>(
          std::move(kernels), options.perturb_kernel, options.perturb_factor);
    }
    core::Driver driver(s, std::move(kernels));
    const core::RunReport run = driver.run();

    ReferenceResult ref;
    ref.solver = solver;
    ref.record = condense_run(driver, run);
    ref.rr_history = run.steps.back().solve.rr_history;

    if (!options.golden_path.empty()) {
      ref.golden_checked = true;
      const ToleranceSpec spec = ToleranceSpec::defaults(solver, s.eps);
      if (!golden_loaded) {
        ref.golden_pass = false;
        ref.golden_note = golden_error;
      } else if (const GoldenRecord* g = find_golden(golden, solver, s.nx,
                                                     s.end_step)) {
        append_record_checks(ref.golden_metrics, ref.record, *g, spec);
        ref.golden_pass =
            std::all_of(ref.golden_metrics.begin(), ref.golden_metrics.end(),
                        [](const MetricResult& m) { return m.pass; });
      } else {
        ref.golden_pass = false;
        ref.golden_note = util::strf(
            "no golden record for %s nx=%d steps=%d in %s",
            std::string(core::solver_name(solver)).c_str(), s.nx, s.end_step,
            options.golden_path.c_str());
      }
    }
    report.references.push_back(std::move(ref));
  }

  // Conformance cells: every supported (model, device) x solver.
  for (const sim::Model model : sim::kAllModels) {
    if (options.only_model && *options.only_model != model) continue;
    for (const sim::DeviceId device : sim::kAllDevices) {
      if (options.only_device && *options.only_device != device) continue;
      if (!ports::is_supported(model, device)) continue;
      for (std::size_t si = 0; si < options.solvers.size(); ++si) {
        const SolverKind solver = options.solvers[si];
        const ReferenceResult& ref = report.references[si];
        const bool distributed = options.ranks > 1;
        core::Settings s = make_settings(options, solver);
        const ToleranceSpec spec =
            distributed ? ToleranceSpec::distributed(solver, s.eps)
                        : ToleranceSpec::defaults(solver, s.eps);

        CellResult cell;
        cell.model = model;
        cell.device = device;
        cell.solver = solver;
        if (distributed) {
          // R-rank vs 1-rank contract: the decomposed solve, reassembled,
          // must match the single-chunk reference under the distributed
          // bounds. Replay checks are skipped — the phantom replay models a
          // single chunk, not R tiles plus comm events.
          s.nranks = options.ranks;
          s.overlap_comm = options.overlap;
          const std::uint64_t seed = options.seed;
          const auto factory = [&](const core::Mesh& mesh, int rank) {
            return ports::make_port(model, device, mesh,
                                    seed + static_cast<std::uint64_t>(rank));
          };
          dist::DistributedDriver driver(s, factory);
          dist::RunControl ctl;
          ctl.comm_perturb = options.comm_perturb;
          const dist::DistReport rep = driver.run(ctl);
          const GoldenRecord dist_rec = condense_dist(s, rep);
          append_record_checks(cell.metrics, dist_rec, ref.record, spec);
          cell.metrics.push_back(
              check_history(rep.run.steps.back().solve.rr_history,
                            ref.rr_history, spec, /*len_slack=*/1));
          // The overlap-identity twin is meaningless under comm perturbation:
          // DistributedDriver::run turns overlap off for perturbed runs.
          if (options.overlap && options.comm_perturb.empty()) {
            // Blocking twin with the same seeds: overlap only moves where an
            // exchange is charged, so every number it produces must be the
            // blocking number, bit for bit.
            core::Settings sb = s;
            sb.overlap_comm = false;
            dist::DistributedDriver blocking(sb, factory);
            const dist::DistReport brep = blocking.run();
            append_overlap_identity(cell.metrics, dist_rec,
                                    condense_dist(sb, brep));
          }
        } else {
          core::Driver driver(
              s, ports::make_port(model, device, s.mesh(), options.seed));
          const core::RunReport run = driver.run();
          append_record_checks(cell.metrics, condense_run(driver, run),
                               ref.record, spec);
          cell.metrics.push_back(check_history(
              run.steps.back().solve.rr_history, ref.rr_history, spec));
          if (options.check_replay && options.steps == 1) {
            append_replay_checks(cell.metrics, options, model, device, s, run,
                                 spec);
          }
        }
        cell.pass = std::all_of(cell.metrics.begin(), cell.metrics.end(),
                                [](const MetricResult& m) { return m.pass; });
        for (const MetricResult& m : cell.metrics) {
          if (std::isfinite(m.cmp.rel_err)) {
            cell.max_rel_err = std::max(cell.max_rel_err, m.cmp.rel_err);
          }
        }
        report.cells.push_back(std::move(cell));
      }
    }
  }
  return report;
}

}  // namespace tl::verify
