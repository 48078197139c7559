#include "core/settings.hpp"

#include <stdexcept>

#include "util/string_util.hpp"

namespace tl::core {

Settings Settings::default_problem() {
  Settings s;
  // tea.in benchmark states: dense cold background, hot light region.
  s.states.push_back(StateRegion{.density = 100.0, .energy = 0.0001,
                                 .x_min = 0.0, .x_max = 10.0,
                                 .y_min = 0.0, .y_max = 10.0});
  s.states.push_back(StateRegion{.density = 0.1, .energy = 25.0,
                                 .x_min = 0.0, .x_max = 5.0,
                                 .y_min = 0.0, .y_max = 2.0});
  s.states.push_back(StateRegion{.density = 0.1, .energy = 0.1,
                                 .x_min = 3.0, .x_max = 7.0,
                                 .y_min = 5.0, .y_max = 8.0});
  return s;
}

Settings Settings::from_config(const tl::util::IniConfig& cfg) {
  Settings s = default_problem();
  s.nx = static_cast<int>(cfg.get_long_or("x_cells", s.nx));
  s.ny = static_cast<int>(cfg.get_long_or("y_cells", s.ny));
  s.x_min = cfg.get_double_or("xmin", s.x_min);
  s.x_max = cfg.get_double_or("xmax", s.x_max);
  s.y_min = cfg.get_double_or("ymin", s.y_min);
  s.y_max = cfg.get_double_or("ymax", s.y_max);
  s.dt_init = cfg.get_double_or("initial_timestep", s.dt_init);
  s.end_step = static_cast<int>(cfg.get_long_or("end_step", s.end_step));
  s.nranks = static_cast<int>(cfg.get_long_or("ranks", s.nranks));
  s.eps = cfg.get_double_or("tl_eps", s.eps);
  s.max_iters = static_cast<int>(cfg.get_long_or("tl_max_iters", s.max_iters));
  s.ppcg_inner_steps =
      static_cast<int>(cfg.get_long_or("tl_ppcg_inner_steps", s.ppcg_inner_steps));
  s.cg_prep_iters =
      static_cast<int>(cfg.get_long_or("tl_chebyshev_prep_iters", s.cg_prep_iters));
  s.use_fused = cfg.get_bool_or("tl_use_fused", s.use_fused);
  s.overlap_comm = cfg.get_bool_or("tl_overlap_comm", s.overlap_comm);
  s.elastic = cfg.get_bool_or("tl_elastic", s.elastic);

  if (cfg.get_bool_or("tl_use_jacobi", false)) s.solver = SolverKind::kJacobi;
  if (cfg.get_bool_or("tl_use_cg", false)) s.solver = SolverKind::kCg;
  if (cfg.get_bool_or("tl_use_chebyshev", false)) s.solver = SolverKind::kCheby;
  if (cfg.get_bool_or("tl_use_ppcg", false)) s.solver = SolverKind::kPpcg;

  const std::string coef = tl::util::to_lower(
      cfg.get_or("tl_coefficient", "conductivity"));
  if (coef == "conductivity") {
    s.coefficient = Coefficient::kConductivity;
  } else if (coef == "recip_conductivity") {
    s.coefficient = Coefficient::kRecipConductivity;
  } else {
    throw std::invalid_argument("Settings: unknown tl_coefficient " + coef);
  }

  if (!cfg.states().empty()) {
    s.states.clear();
    for (const auto& line : cfg.states()) {
      StateRegion region;
      auto get = [&](const char* key, double fallback) {
        const auto it = line.fields.find(key);
        return it == line.fields.end() ? fallback : it->second;
      };
      region.density = get("density", 1.0);
      region.energy = get("energy", 1.0);
      region.x_min = get("xmin", s.x_min);
      region.x_max = get("xmax", s.x_max);
      region.y_min = get("ymin", s.y_min);
      region.y_max = get("ymax", s.y_max);
      s.states.push_back(region);
    }
  }

  s.validate();
  return s;
}

Mesh Settings::mesh() const {
  Mesh m(nx, ny, halo_depth);
  m.x_min = x_min;
  m.x_max = x_max;
  m.y_min = y_min;
  m.y_max = y_max;
  return m;
}

void Settings::validate() const {
  if (nx <= 0 || ny <= 0) throw std::invalid_argument("Settings: bad mesh");
  if (halo_depth < 1) throw std::invalid_argument("Settings: halo_depth < 1");
  if (x_max <= x_min || y_max <= y_min) {
    throw std::invalid_argument("Settings: bad physical extents");
  }
  if (dt_init <= 0.0) throw std::invalid_argument("Settings: bad timestep");
  if (end_step < 1) throw std::invalid_argument("Settings: end_step < 1");
  if (nranks < 1) throw std::invalid_argument("Settings: nranks < 1");
  if (elastic && nranks > ny) {
    throw std::invalid_argument(
        "Settings: elastic row-strip decomposition needs nranks <= ny");
  }
  if (eps <= 0.0) throw std::invalid_argument("Settings: eps must be > 0");
  if (max_iters < 1) throw std::invalid_argument("Settings: max_iters < 1");
  if (ppcg_inner_steps < 1) {
    throw std::invalid_argument("Settings: ppcg_inner_steps < 1");
  }
  if (cg_prep_iters < 2) {
    throw std::invalid_argument("Settings: need >= 2 CG prep iterations");
  }
  if (states.empty()) throw std::invalid_argument("Settings: no states");
}

}  // namespace tl::core
