#pragma once
// Measurement ingestion: turns the repo's committed measurement artifacts
// into (SeriesKey -> sample points) sets the fitter consumes.
//
// Recognized inputs (auto-detected by CSV header, by the tl-report-1
// schema, or by the bench tag of a tl-bench-1 artifact; the artifacts'
// "checks" declarations are ignored here):
//   fig11_meshsweep.csv    model,device,nx,cells,seconds        (CG sweep)
//   fig8/9/10 CSVs         model,solver,seconds,...             (4096^2 cells;
//                          device inferred from the file name)
//   fig13_scaling.csv      scaling,mode,...,total_s             (rank sweeps)
//   tl-report-1 JSON       per-kernel total_ns at the report's mesh
//   BENCH_fusion.json      unfused/fused ratio per cell
//   BENCH_overlap.json     hidden comm fraction per (solver, ranks)
//
// Multiple files accumulate into one SampleSet (e.g. several tl-report-1
// profiles at different meshes become a multi-point kernel series), then
// fit_samples() runs the lattice fitter over every series and returns the
// catalog.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "tune/catalog.hpp"
#include "tune/fitter.hpp"

namespace tl::tune {

struct SampleSet {
  // Keyed by SeriesKey::str() so iteration (and therefore fitting and the
  // emitted catalog) is deterministic.
  std::map<std::string, std::pair<SeriesKey, std::vector<SamplePoint>>>
      series;
  std::vector<std::string> notes;  // skipped rows, inferred devices, ...

  void add(const SeriesKey& key, double x, double y);
};

/// The figure benches' convergence mesh (fig8/9/10 rows carry no mesh
/// column; they are all measured at the paper's 4096^2 point).
inline constexpr double kFigureMeshCells = 4096.0 * 4096.0;

/// Ingests one file, auto-detected; returns the number of sample points
/// added. Throws std::runtime_error for unreadable files or unrecognized
/// content.
std::size_t ingest_file(SampleSet& set, const std::string& path);

/// Fits every series with at least `min_points` samples (fewer-point series
/// are skipped with a note appended to `set.notes`).
ModelCatalog fit_samples(SampleSet& set, int min_points = 1);

}  // namespace tl::tune
