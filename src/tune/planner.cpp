#include "tune/planner.hpp"

#include <algorithm>

#include "ports/registry.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"

namespace tl::tune {

PlanResult choose_config(const ModelCatalog& catalog, const PlanQuery& query) {
  PlanResult result;
  if (query.nx <= 0) {
    result.error = "invalid query (nx must be positive)";
    return result;
  }
  if (query.rank_choices.empty()) {
    result.error = "invalid query (no rank choices)";
    return result;
  }

  // Resolve the pinned axes up front so a typo'd pin is an error, not an
  // empty plan.
  std::vector<sim::Model> models;
  if (query.model.empty()) {
    models.assign(sim::kAllModels.begin(), sim::kAllModels.end());
  } else if (const auto pinned = sim::parse_model(query.model)) {
    models.push_back(*pinned);
  } else {
    result.error = "unknown model '" + query.model + "'";
    return result;
  }
  std::vector<sim::DeviceId> devices;
  if (query.device.empty()) {
    devices.assign(sim::kAllDevices.begin(), sim::kAllDevices.end());
  } else if (const auto pinned = sim::parse_device(query.device)) {
    devices.push_back(*pinned);
  } else {
    result.error = "unknown device '" + query.device + "'";
    return result;
  }

  for (const sim::Model model : models) {
    for (const sim::DeviceId device : devices) {
      if (query.require_supported && !ports::is_supported(model, device)) {
        continue;
      }
      for (const int ranks : query.rank_choices) {
        if (ranks < 1) continue;
        std::vector<bool> overlaps;
        if (query.overlap_comm.has_value()) {
          overlaps.push_back(*query.overlap_comm);
        } else if (ranks > 1) {
          overlaps = {true, false};
        } else {
          overlaps.push_back(true);  // single rank: overlap is a no-op
        }
        for (const bool overlap : overlaps) {
          ++result.considered;
          PredictQuery pq;
          pq.model = std::string(sim::model_id(model));
          pq.device = std::string(sim::device_short_name(device));
          pq.solver = query.solver;
          pq.nx = query.nx;
          pq.ny = query.ny;
          pq.ranks = ranks;
          pq.use_fused = query.use_fused;
          pq.overlap_comm = overlap;
          Prediction predicted = predict(catalog, pq);
          if (!predicted.ok) continue;  // no basis — not scorable
          PlanChoice choice;
          choice.model = pq.model;
          choice.device = pq.device;
          choice.ranks = ranks;
          choice.overlap_comm = overlap;
          choice.predicted = std::move(predicted);
          result.ranked.push_back(std::move(choice));
        }
      }
    }
  }

  if (result.ranked.empty()) {
    result.error = "no candidate has a fitted basis in the catalog";
    return result;
  }
  // stable_sort keeps enumeration order on predicted-seconds ties, making
  // the pick a pure function of (catalog, query).
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const PlanChoice& lhs, const PlanChoice& rhs) {
                     return lhs.predicted.seconds < rhs.predicted.seconds;
                   });
  result.best = result.ranked.front();
  result.ok = true;
  return result;
}

}  // namespace tl::tune
