#pragma once
// RAJA-like programming model layer (from-scratch reimplementation of the
// API *style* the paper's RAJA port uses — see DESIGN.md substitutions).
//
// Reproduced concepts, following Hornung et al. and the paper's section 2.3:
//   - decoupling of loop body (lambda) from traversal (execution policy);
//   - Segments: RangeSegment (contiguous) and ListSegment (indirection
//     array) partition the iteration space;
//   - IndexSets aggregate segments and are dispatched by forall<Policy>;
//     TeaLeaf's halo exclusion is encoded as per-row ListSegments, which is
//     precisely the indirection that precludes vectorisation in the paper;
//   - ReduceSum objects usable from inside the lambda;
//   - the simd_exec policy models the paper's RAJA SIMD proof of concept
//     (OpenMP 4.0 `simd` on the inner loops).

#include <cstdint>
#include <numeric>
#include <variant>
#include <vector>

#include "models/launcher.hpp"

namespace rajalike {

// Execution policy tags. The policy choice is reflected in the KernelTraits
// the port passes with each forall (indirection / simd_forced); these tags
// keep the call sites reading like RAJA.
struct seq_exec {};
struct omp_parallel_for_exec {};
struct omp_parallel_simd_exec {};

struct RangeSegment {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Explicit indirection list: iteration visits idx[0], idx[1], ...
struct ListSegment {
  std::vector<std::int64_t> indices;
};

using Segment = std::variant<RangeSegment, ListSegment>;

class IndexSet {
 public:
  void push_back(RangeSegment s) { segments_.emplace_back(s); }
  void push_back(ListSegment s) { segments_.emplace_back(std::move(s)); }

  const std::vector<Segment>& segments() const noexcept { return segments_; }

  std::int64_t total_length() const noexcept {
    std::int64_t n = 0;
    for (const auto& s : segments_) {
      if (const auto* r = std::get_if<RangeSegment>(&s)) {
        n += r->end - r->begin;
      } else {
        n += static_cast<std::int64_t>(std::get<ListSegment>(s).indices.size());
      }
    }
    return n;
  }

  /// True when any segment traverses through an indirection list.
  bool has_indirection() const noexcept {
    for (const auto& s : segments_) {
      if (std::holds_alternative<ListSegment>(s)) return true;
    }
    return false;
  }

 private:
  std::vector<Segment> segments_;
};

/// Builds the TeaLeaf interior IndexSet: one ListSegment per interior row of
/// an (nx + 2h) x (ny + 2h) field, excluding `pad` extra cells on each side
/// of the interior. This is the "pre-computation of indirection lists"
/// the paper discusses placing early in the application.
IndexSet make_interior_index_set(int nx, int ny, int halo_depth, int pad = 0);

/// Same iteration space as contiguous row ranges (no indirection): used by
/// tests to show both traversals visit identical cells, and by ablation
/// benches to isolate the indirection cost.
IndexSet make_interior_range_set(int nx, int ny, int halo_depth, int pad = 0);

class Context;

/// Reduction object following RAJA's style: constructed against the context,
/// accumulated into from the lambda, read once with get().
class ReduceSum {
 public:
  explicit ReduceSum(double initial = 0.0) : value_(initial) {}
  ReduceSum& operator+=(double v) {
    value_ += v;
    return *this;
  }
  double get() const noexcept { return value_; }

 private:
  double value_;
};

class Context {
 public:
  Context(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1)
      : launcher_(model, device, run_seed) {}

  models::Launcher& launcher() noexcept { return launcher_; }

  /// Dispatches every segment of the IndexSet through the loop body. The
  /// LaunchInfo covers the whole forall (one conceptual kernel).
  template <typename Policy, typename Body>
  void forall(const tl::sim::LaunchInfo& info, const IndexSet& iset,
              Body&& body) {
    static_assert(std::is_same_v<Policy, seq_exec> ||
                      std::is_same_v<Policy, omp_parallel_for_exec> ||
                      std::is_same_v<Policy, omp_parallel_simd_exec>,
                  "unknown RAJA-like execution policy");
    launcher_.run(info, [&] {
      for (const Segment& s : iset.segments()) {
        if (const auto* r = std::get_if<RangeSegment>(&s)) {
          for (std::int64_t i = r->begin; i < r->end; ++i) body(i);
        } else {
          for (const std::int64_t i : std::get<ListSegment>(s).indices) body(i);
        }
      }
    });
  }

  /// Plain range forall (initialisation code, dot products over vectors).
  template <typename Policy, typename Body>
  void forall(const tl::sim::LaunchInfo& info, RangeSegment range, Body&& body) {
    launcher_.run(info, [&] {
      for (std::int64_t i = range.begin; i < range.end; ++i) body(i);
    });
  }

 private:
  models::Launcher launcher_;
};

}  // namespace rajalike
