#pragma once
// Planner: enumerate the feasible configuration space for a scenario, score
// every candidate with the predictor, and return the argmin plus the full
// ranked table.
//
// A PlanQuery pins any subset of {model, device, ranks, overlap}; the
// planner fills the rest. The solver is always pinned — switching solvers
// changes the numerics of the answer, and the planner's contract is to
// change only *which configuration runs*, never what it computes. The
// candidate walk is a fixed deterministic order (sim::kAllModels x
// sim::kAllDevices x rank choices x overlap), filtered by the paper's
// Table 1 support matrix; ties in predicted seconds keep enumeration order,
// so the same catalog and query always produce the same pick.

#include <optional>
#include <string>
#include <vector>

#include "tune/predictor.hpp"

namespace tl::tune {

struct PlanQuery {
  int nx = 0;
  int ny = 0;  // 0 = square
  std::string solver = "CG";  // always pinned

  std::string model;   // "" = free over every supported model
  std::string device;  // "" = free over every device
  std::vector<int> rank_choices = {1};  // one entry = pinned
  std::optional<bool> overlap_comm;     // nullopt = free (multi-rank only)

  bool use_fused = true;
  /// Skip (model, device) pairs outside the Table 1 support matrix. Off only
  /// for tests that probe the raw catalog space.
  bool require_supported = true;
};

struct PlanChoice {
  std::string model;
  std::string device;
  int ranks = 1;
  bool overlap_comm = true;
  Prediction predicted;
};

struct PlanResult {
  bool ok = false;
  std::string error;        // no scorable candidate
  PlanChoice best;          // == ranked.front() when ok
  std::vector<PlanChoice> ranked;  // ascending predicted seconds
  int considered = 0;       // candidates enumerated (scored or not)
};

PlanResult choose_config(const ModelCatalog& catalog, const PlanQuery& query);

}  // namespace tl::tune
