#pragma once
// Solver configuration, mirroring TeaLeaf's tea.in deck. Every port solves
// with *identical* parameters — the paper's methodological requirement that
// "core solver logic and parameters were kept consistent between ports".

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/mesh.hpp"
#include "util/ini.hpp"

namespace tl::core {

enum class SolverKind { kCg, kCheby, kPpcg, kJacobi };

/// The paper's three evaluated solvers (Jacobi is TeaLeaf's slow baseline
/// and appears in no figure).
inline constexpr std::array<SolverKind, 3> kAllSolvers = {
    SolverKind::kCg, SolverKind::kCheby, SolverKind::kPpcg};

constexpr std::string_view solver_name(SolverKind s) {
  switch (s) {
    case SolverKind::kCg: return "CG";
    case SolverKind::kCheby: return "Chebyshev";
    case SolverKind::kPpcg: return "PPCG";
    case SolverKind::kJacobi: return "Jacobi";
  }
  return "?";
}

/// The command-line and job-file solver id (cg|cheby|ppcg|jacobi);
/// nullopt for anything else.
constexpr std::optional<SolverKind> parse_solver(std::string_view id) {
  if (id == "cg") return SolverKind::kCg;
  if (id == "cheby") return SolverKind::kCheby;
  if (id == "ppcg") return SolverKind::kPpcg;
  if (id == "jacobi") return SolverKind::kJacobi;
  return std::nullopt;
}

/// Diffusion coefficient from cell density (TeaLeaf tl_coefficient).
enum class Coefficient { kConductivity, kRecipConductivity };

/// One rectangular initial state (tea.in `state` line).
struct StateRegion {
  double density = 1.0;
  double energy = 1.0;
  double x_min = 0.0, x_max = 0.0;
  double y_min = 0.0, y_max = 0.0;
};

struct Settings {
  // Mesh.
  int nx = 128;
  int ny = 128;
  int halo_depth = 2;
  double x_min = 0.0, x_max = 10.0;
  double y_min = 0.0, y_max = 10.0;

  // Time stepping.
  double dt_init = 0.004;
  int end_step = 1;

  // Distribution: MiniComm ranks the mesh is block-decomposed over
  // (src/dist). 1 = the classic single-chunk run.
  int nranks = 1;

  // Solver.
  SolverKind solver = SolverKind::kCg;
  Coefficient coefficient = Coefficient::kConductivity;
  double eps = 1e-15;       // tolerance on rr (squared residual norm)
  int max_iters = 10'000;
  int cg_prep_iters = 20;   // CG bootstrap before Chebyshev/PPCG eigen-est
  int ppcg_inner_steps = 10;
  bool use_fused = true;    // dispatch the fused kernels
  bool overlap_comm = true;  // hide halo wire time behind interior compute
                             // (multi-rank; ports with overlaps_comm())
  bool elastic = false;  // rank-count-invariant numerics: per-row reductions
                         // folded over the global row order, row-strip
                         // decomposition. Forces the classic (non-fused,
                         // non-overlapped) path; needed for checkpoints that
                         // resume into a different rank count bit-for-bit.

  // Initial states: states[0] is the background (whole domain); later
  // entries paint rectangles over it.
  std::vector<StateRegion> states;

  /// TeaLeaf's default benchmark problem: cold dense background with a hot
  /// light square in the lower-left corner (tea.in defaults).
  static Settings default_problem();

  /// Reads a tea.in-style deck; unspecified keys keep defaults.
  static Settings from_config(const tl::util::IniConfig& cfg);

  void validate() const;  // throws std::invalid_argument on nonsense

  /// The global single-chunk mesh: cell counts, halo depth and physical
  /// extents. Every kernel set built for these settings takes this mesh, so
  /// field_summary's cell area matches the decomposed run's tiles.
  Mesh mesh() const;
};

/// PPCG inner smoothing steps scaled to the mesh: the polynomial degree must
/// track sqrt(condition) ~ nx for the smoother to keep reducing the outer
/// (reduction-heavy) iteration count — the communication-avoiding regime the
/// solver is designed for. The benches and iteration calibration use this
/// rule so small-mesh fits extrapolate to the paper's 4096^2 runs.
inline int recommended_ppcg_inner_steps(int nx) {
  return std::max(10, nx / 12);
}

}  // namespace tl::core
