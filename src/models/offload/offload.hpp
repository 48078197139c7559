#pragma once
// Directive-style offload runtime — the shared machinery behind the OpenMP
// 4.0 (`target`) and OpenACC (`kernels`) front-ends.
//
// Reproduced concepts (paper sections 2.1, 2.2, 3.1, 3.2):
//   - `target data` / `acc data` scopes: map arrays onto the device for the
//     scope's lifetime so multiple target regions reuse resident data;
//   - `map(to/from/tofrom/alloc)` direction semantics with transfer charging
//     at scope entry/exit;
//   - `update to/from`: explicit mid-scope consistency;
//   - per-region synchronous launch overhead — the paper's observed
//     "overhead dependent upon the number of target invocations", which the
//     OpenMP 4.5 `nowait` directive was expected to hide (modelled by the
//     fuse_regions knob used in the ablation bench);
//   - reductions through the directive reduction clause.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/launcher.hpp"

namespace offload {

enum class MapDir { kTo, kFrom, kToFrom, kAlloc };

struct MapSpec {
  const void* host_ptr = nullptr;
  std::size_t bytes = 0;
  MapDir dir = MapDir::kToFrom;
};

template <typename T>
MapSpec map(std::span<T> data, MapDir dir) {
  return MapSpec{data.data(), data.size_bytes(), dir};
}

class Runtime {
 public:
  Runtime(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1)
      : launcher_(model, device, run_seed),
        offloads_(tl::sim::uses_device_residency(model, device)) {}

  models::Launcher& launcher() noexcept { return launcher_; }
  bool offloads() const noexcept { return offloads_; }

  /// Is this host array currently mapped on the device?
  bool is_present(const void* host_ptr) const {
    return resident_.count(host_ptr) != 0;
  }

  /// Explicit consistency (omp target update from / acc update host).
  void update_from(const void* host_ptr, std::size_t bytes) {
    require_present(host_ptr);
    charge_transfer(bytes, false);
  }

  /// Executes one target region. Kernels inside a data scope find their
  /// arrays resident; launching still pays the per-region overhead carried
  /// by the LaunchInfo-derived cost (the paper's target-region overhead).
  template <typename Body>
  void target_region(const tl::sim::LaunchInfo& info, Body&& body) {
    launcher_.run(info, std::forward<Body>(body));
  }

 private:
  friend class DataScope;

  void require_present(const void* host_ptr) const {
    if (offloads_ && resident_.count(host_ptr) == 0) {
      throw std::logic_error(
          "offload: array used on device without an enclosing data map");
    }
  }

  void enter(const MapSpec& spec) {
    if (!offloads_) return;
    if (++resident_[spec.host_ptr] == 1 &&
        (spec.dir == MapDir::kTo || spec.dir == MapDir::kToFrom)) {
      charge_transfer(spec.bytes, true);
    }
  }

  void exit(const MapSpec& spec) {
    if (!offloads_) return;
    const auto it = resident_.find(spec.host_ptr);
    if (it == resident_.end()) return;
    if (--it->second == 0) {
      resident_.erase(it);
      if (spec.dir == MapDir::kFrom || spec.dir == MapDir::kToFrom) {
        charge_transfer(spec.bytes, false);
      }
    }
  }

  void charge_transfer(std::size_t bytes, bool to_device) {
    if (!offloads_) return;
    launcher_.charge_transfer(
        tl::sim::TransferInfo{.name = "map", .bytes = bytes, .to_device = to_device});
  }

  models::Launcher launcher_;
  bool offloads_;
  std::unordered_map<const void*, int> resident_;  // ref-counted presence
};

/// RAII `target data` / `acc data` region: maps on construction, unmaps (and
/// copies `from`-direction arrays back) on destruction. Lexically structured,
/// exactly the constraint the paper calls out for OpenMP 4.0.
class DataScope {
 public:
  DataScope(Runtime& rt, std::vector<MapSpec> maps)
      : rt_(&rt), maps_(std::move(maps)) {
    for (const auto& m : maps_) rt_->enter(m);
  }
  ~DataScope() {
    for (const auto& m : maps_) rt_->exit(m);
  }
  DataScope(const DataScope&) = delete;
  DataScope& operator=(const DataScope&) = delete;

 private:
  Runtime* rt_;
  std::vector<MapSpec> maps_;
};

}  // namespace offload

// ---------------------------------------------------------------------------
// OpenMP 4.0 front-end: #pragma omp target teams distribute parallel for
// ---------------------------------------------------------------------------
namespace omp4 {

using offload::DataScope;
using offload::MapDir;
using offload::MapSpec;
using offload::Runtime;

/// `#pragma omp target teams distribute parallel for collapse(2)` over the
/// interior cells; the body receives the flat cell index.
template <typename Body>
void target_parallel_for(Runtime& rt, const tl::sim::LaunchInfo& info,
                         std::int64_t begin, std::int64_t end, Body&& body) {
  rt.target_region(info, [&] {
    for (std::int64_t i = begin; i < end; ++i) body(i);
  });
}

/// Same with a `reduction(+: result)` clause.
template <typename Body>
double target_parallel_reduce(Runtime& rt, const tl::sim::LaunchInfo& info,
                              std::int64_t begin, std::int64_t end,
                              Body&& body) {
  double acc = 0.0;
  rt.target_region(info, [&] {
    for (std::int64_t i = begin; i < end; ++i) body(i, acc);
  });
  return acc;
}

}  // namespace omp4

// ---------------------------------------------------------------------------
// OpenACC front-end: #pragma acc kernels loop independent collapse(2)
// ---------------------------------------------------------------------------
namespace acc {

using offload::DataScope;
using offload::MapDir;
using offload::MapSpec;
using offload::Runtime;

template <typename Body>
void kernels_loop(Runtime& rt, const tl::sim::LaunchInfo& info,
                  std::int64_t begin, std::int64_t end, Body&& body) {
  rt.target_region(info, [&] {
    for (std::int64_t i = begin; i < end; ++i) body(i);
  });
}

template <typename Body>
double kernels_loop_reduce(Runtime& rt, const tl::sim::LaunchInfo& info,
                           std::int64_t begin, std::int64_t end, Body&& body) {
  double acc = 0.0;
  rt.target_region(info, [&] {
    for (std::int64_t i = begin; i < end; ++i) body(i, acc);
  });
  return acc;
}

}  // namespace acc
