#include "tune/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "sim/network.hpp"
#include "util/string_util.hpp"

namespace tl::tune {

namespace {

/// Looks up a series and appends its key to the basis trail.
const FittedSeries* use_series(const ModelCatalog& catalog,
                               const SeriesKey& key, std::string* basis) {
  const FittedSeries* s = catalog.find(key);
  if (s != nullptr) {
    if (!basis->empty()) *basis += " + ";
    *basis += key.str();
  }
  return s;
}

bool outside(const FittedSeries& s, double x) {
  return x < s.x_min * (1.0 - 1e-12) || x > s.x_max * (1.0 + 1e-12);
}

/// The analytic per-iteration comm price from the network model: one
/// halo exchange of the search direction (two row-strip neighbours, one
/// depth row each) plus the solver's two scalar allreduces (2 doubles).
double comm_ns_per_iteration(int nx, int ranks) {
  const sim::NetworkSpec& net = sim::node_interconnect();
  const std::size_t halo_bytes =
      2 * static_cast<std::size_t>(nx) * sizeof(double);
  return sim::halo_exchange_ns(net, halo_bytes, 2) +
         2.0 * sim::allreduce_ns(net, 2 * sizeof(double), ranks);
}

}  // namespace

Prediction predict(const ModelCatalog& catalog, const PredictQuery& query) {
  Prediction p;
  if (query.nx <= 0 || query.ranks < 1) {
    p.error = "invalid query (nx and ranks must be positive)";
    return p;
  }
  const int ny = query.ny > 0 ? query.ny : query.nx;
  const double cells = static_cast<double>(query.nx) * ny;

  // 1. Direct rank-sweep series for this exact mesh and comm mode.
  if (query.ranks >= 1 && query.nx == ny) {
    const std::string variant =
        std::string("strong-") +
        (query.overlap_comm ? "overlap" : "blocking") + "-" +
        util::strf("%d", query.nx);
    SeriesKey key{"total_s", query.model, query.device, query.solver, variant,
                  "ranks"};
    if (const FittedSeries* total = use_series(catalog, key, &p.basis)) {
      const double ranks = static_cast<double>(query.ranks);
      p.seconds = total->fit.eval(ranks);
      key.metric = "comm_s";
      const FittedSeries* comm = use_series(catalog, key, &p.basis);
      p.comm_s = comm != nullptr
                     ? std::min(comm->fit.eval(ranks), p.seconds)
                     : 0.0;
      p.compute_s = p.seconds - p.comm_s;
      p.extrapolated = outside(*total, ranks);
      p.ok = true;
      return p;
    }
  }

  // 2. Per-cell total series, else 3. the per-kernel composition.
  double base = 0.0;
  bool have_base = false;
  const SeriesKey total_key{"total_s", query.model, query.device, query.solver,
                            "", "cells"};
  if (const FittedSeries* total = use_series(catalog, total_key, &p.basis)) {
    base = total->fit.eval(cells);
    p.extrapolated = outside(*total, cells);
    have_base = true;
  }
  if (!have_base) {
    // Compositional fallback: sum the fitted per-kernel curves.
    bool all_inside = true;
    for (const auto& [joined, s] : catalog.series()) {
      (void)joined;
      if (s.key.metric.rfind("kernel_ns/", 0) != 0) continue;
      if (s.key.model != query.model || s.key.device != query.device) continue;
      if (s.key.solver != query.solver && s.key.solver != "all") continue;
      if (s.key.x != "cells") continue;
      base += s.fit.eval(cells) * 1e-9;
      all_inside = all_inside && !outside(s, cells);
      if (!p.basis.empty()) p.basis += " + ";
      p.basis += s.key.str();
      have_base = true;
    }
    p.extrapolated = have_base && !all_inside;
  }
  if (!have_base) {
    p.error = util::strf("no fitted series for %s/%s/%s",
                         query.model.c_str(), query.device.c_str(),
                         query.solver.c_str());
    return p;
  }

  if (!query.use_fused) {
    const SeriesKey key{"fusion_ratio", query.model, query.device,
                        query.solver, "", "cells"};
    if (const FittedSeries* ratio = use_series(catalog, key, &p.basis)) {
      base *= std::max(ratio->fit.eval(cells), 1.0);
    }
  }

  p.compute_s = base / static_cast<double>(query.ranks);
  p.comm_s = 0.0;
  if (query.ranks > 1) {
    const SeriesKey key{"iters", query.model, query.device, query.solver, "",
                        "cells"};
    if (const FittedSeries* iters = use_series(catalog, key, &p.basis)) {
      double comm = iters->fit.eval(cells) *
                    comm_ns_per_iteration(query.nx, query.ranks) * 1e-9;
      if (query.overlap_comm) {
        const SeriesKey hidden_key{"hidden_fraction", query.model,
                                   query.device, query.solver, "strong",
                                   "ranks"};
        if (const FittedSeries* hidden =
                use_series(catalog, hidden_key, &p.basis)) {
          const double fraction = std::clamp(
              hidden->fit.eval(static_cast<double>(query.ranks)), 0.0, 1.0);
          comm *= 1.0 - fraction;
        }
      }
      p.comm_s = comm;
    } else {
      p.basis += " + (no iters series: comm term omitted)";
    }
  }
  p.seconds = p.compute_s + p.comm_s;
  p.ok = true;
  return p;
}

}  // namespace tl::tune
