#include "verify/golden.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/driver.hpp"
#include "core/reference_kernels.hpp"
#include "util/buffer.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

namespace tl::verify {

namespace {

constexpr const char* kColumns[] = {
    "solver", "nx", "steps", "converged", "iterations", "inner_iterations",
    "final_rr", "volume", "mass", "internal_energy", "temperature",
    "u_sum", "u_l2", "u_min", "u_max",
    "energy_sum", "energy_l2", "energy_min", "energy_max"};

std::string fmt(double v) { return util::strf("%.17g", v); }

core::SolverKind parse_solver_or_throw(const std::string& name) {
  for (const core::SolverKind s :
       {core::SolverKind::kCg, core::SolverKind::kCheby,
        core::SolverKind::kPpcg, core::SolverKind::kJacobi}) {
    if (name == core::solver_name(s)) return s;
  }
  throw std::runtime_error("golden: unknown solver '" + name + "'");
}

}  // namespace

GoldenRecord condense_run(core::Driver& driver,
                          const core::RunReport& report) {
  const core::Mesh& mesh = driver.mesh();
  const core::StepReport& last = report.steps.back();

  GoldenRecord rec;
  rec.solver = driver.settings().solver;
  rec.nx = mesh.nx;
  rec.steps = static_cast<int>(report.steps.size());
  rec.converged = last.solve.converged;
  rec.iterations = last.solve.iterations;
  rec.inner_iterations = last.solve.inner_iterations;
  rec.final_rr = last.solve.final_rr;
  rec.volume = last.summary.volume;
  rec.mass = last.summary.mass;
  rec.internal_energy = last.summary.internal_energy;
  rec.temperature = last.summary.temperature;

  util::Buffer<double> u(mesh.padded_cells());
  driver.kernels().read_u(u.view2d(mesh.padded_nx(), mesh.padded_ny()));
  rec.u = checksum_field(mesh, u.view2d(mesh.padded_nx(), mesh.padded_ny()));
  rec.energy = checksum_field(mesh, driver.chunk().field(core::FieldId::kEnergy));
  return rec;
}

GoldenRecord compute_reference_record(core::SolverKind solver, int nx,
                                      int steps) {
  core::Settings s = core::Settings::default_problem();
  s.nx = s.ny = nx;
  s.solver = solver;
  s.end_step = steps;
  core::Driver driver(s, std::make_unique<core::ReferenceKernels>(s.mesh()));
  const core::RunReport report = driver.run();
  return condense_run(driver, report);
}

void save_golden(const std::string& path,
                 const std::vector<GoldenRecord>& records) {
  util::CsvWriter csv(path, {std::begin(kColumns), std::end(kColumns)});
  for (const GoldenRecord& r : records) {
    csv.row({std::string(core::solver_name(r.solver)), util::strf("%d", r.nx),
             util::strf("%d", r.steps), r.converged ? "1" : "0",
             util::strf("%d", r.iterations),
             util::strf("%d", r.inner_iterations), fmt(r.final_rr),
             fmt(r.volume), fmt(r.mass), fmt(r.internal_energy),
             fmt(r.temperature), fmt(r.u.sum), fmt(r.u.l2), fmt(r.u.min),
             fmt(r.u.max), fmt(r.energy.sum), fmt(r.energy.l2),
             fmt(r.energy.min), fmt(r.energy.max)});
  }
}

std::vector<GoldenRecord> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("golden: cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("golden: empty file " + path);
  }
  constexpr std::size_t kFields = std::size(kColumns);
  std::vector<GoldenRecord> records;
  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") continue;
    const std::vector<std::string> cells = util::parse_csv_line(line);
    if (cells.size() != kFields) {
      throw std::runtime_error(
          util::strf("golden: malformed row in %s (%zu cells, expected %zu)",
                     path.c_str(), cells.size(), kFields));
    }
    try {
      GoldenRecord r;
      std::size_t i = 0;
      r.solver = parse_solver_or_throw(cells[i++]);
      r.nx = std::stoi(cells[i++]);
      r.steps = std::stoi(cells[i++]);
      r.converged = cells[i++] == "1";
      r.iterations = std::stoi(cells[i++]);
      r.inner_iterations = std::stoi(cells[i++]);
      r.final_rr = std::stod(cells[i++]);
      r.volume = std::stod(cells[i++]);
      r.mass = std::stod(cells[i++]);
      r.internal_energy = std::stod(cells[i++]);
      r.temperature = std::stod(cells[i++]);
      r.u.sum = std::stod(cells[i++]);
      r.u.l2 = std::stod(cells[i++]);
      r.u.min = std::stod(cells[i++]);
      r.u.max = std::stod(cells[i++]);
      r.energy.sum = std::stod(cells[i++]);
      r.energy.l2 = std::stod(cells[i++]);
      r.energy.min = std::stod(cells[i++]);
      r.energy.max = std::stod(cells[i++]);
      records.push_back(r);
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("golden: non-numeric cell in " + path);
    } catch (const std::out_of_range&) {
      throw std::runtime_error("golden: out-of-range cell in " + path);
    }
  }
  return records;
}

const GoldenRecord* find_golden(const std::vector<GoldenRecord>& records,
                                core::SolverKind solver, int nx, int steps) {
  for (const GoldenRecord& r : records) {
    if (r.solver == solver && r.nx == nx && r.steps == steps) return &r;
  }
  return nullptr;
}

}  // namespace tl::verify
