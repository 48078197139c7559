#pragma once
// Predictor: composes fitted series into an end-to-end runtime estimate for
// any (mesh, ranks, solver, model, device, fusion/overlap) point.
//
// Resolution order, most-specific first:
//   1. A direct rank-sweep series for the exact (mesh, mode) — the fitted
//      fig13 curves — evaluated at the requested rank count.
//   2. The per-cell total_s series evaluated at nx*ny, divided across ranks,
//      plus the network model's comm term (fitted comm_s curve when one
//      exists, otherwise the analytic sim::network halo/allreduce prices
//      times the fitted iteration count).
//   3. When no total_s series exists, the sum of the fitted per-kernel
//      series (tl-report-1 profiles) — the compositional fallback.
// The fusion ratio multiplies estimates for use_fused = false, and the
// fitted hidden fraction discounts the comm term under overlap.

#include <string>

#include "tune/catalog.hpp"

namespace tl::tune {

struct PredictQuery {
  std::string model;
  std::string device;
  std::string solver = "CG";
  int nx = 0;
  int ny = 0;  // 0 = square mesh (ny = nx)
  int ranks = 1;
  bool use_fused = true;
  bool overlap_comm = true;
};

struct Prediction {
  bool ok = false;
  std::string error;      // why no estimate could be formed
  double seconds = 0.0;   // end-to-end estimate
  double compute_s = 0.0;
  double comm_s = 0.0;
  bool extrapolated = false;  // outside every contributing fitted domain
  std::string basis;          // series keys the estimate composed
};

Prediction predict(const ModelCatalog& catalog, const PredictQuery& query);

}  // namespace tl::tune
