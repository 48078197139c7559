#pragma once
// Field identifiers and the host-side chunk: the canonical storage every
// port initialises from and writes results back to.

#include <array>
#include <string_view>
#include <utility>

#include "core/mesh.hpp"
#include "util/buffer.hpp"
#include "util/span2d.hpp"

namespace tl::core {

/// TeaLeaf's working arrays (2-D solver, matching the reference code).
enum class FieldId {
  kDensity,  // cell density (input state)
  kEnergy0,  // specific energy at step start (input state)
  kEnergy,   // specific energy at step end (output of finalise)
  kU,        // solution vector (temperature-like)
  kU0,       // right-hand side for the implicit solve
  kP,        // CG/Chebyshev search direction
  kR,        // residual
  kW,        // A*p scratch
  kSd,       // PPCG inner smoothing direction
  kKx,       // x-face diffusion coefficient (pre-scaled by rx)
  kKy,       // y-face diffusion coefficient (pre-scaled by ry)
};

inline constexpr std::array<FieldId, 11> kAllFields = {
    FieldId::kDensity, FieldId::kEnergy0, FieldId::kEnergy, FieldId::kU,
    FieldId::kU0,      FieldId::kP,       FieldId::kR,      FieldId::kW,
    FieldId::kSd,      FieldId::kKx,      FieldId::kKy};

constexpr std::string_view field_name(FieldId f) {
  switch (f) {
    case FieldId::kDensity: return "density";
    case FieldId::kEnergy0: return "energy0";
    case FieldId::kEnergy: return "energy";
    case FieldId::kU: return "u";
    case FieldId::kU0: return "u0";
    case FieldId::kP: return "p";
    case FieldId::kR: return "r";
    case FieldId::kW: return "w";
    case FieldId::kSd: return "sd";
    case FieldId::kKx: return "kx";
    case FieldId::kKy: return "ky";
  }
  return "?";
}

/// Host-side storage for one mesh chunk: all fields, padded with halo.
class Chunk {
 public:
  explicit Chunk(const Mesh& mesh) : mesh_(mesh) {
    for (auto& b : buffers_) b.resize(mesh.padded_cells());
  }

  const Mesh& mesh() const noexcept { return mesh_; }

  tl::util::Span2D<double> field(FieldId f) noexcept {
    return buffers_[static_cast<std::size_t>(f)].view2d(mesh_.padded_nx(),
                                                        mesh_.padded_ny());
  }
  tl::util::Span2D<const double> field(FieldId f) const noexcept {
    return buffers_[static_cast<std::size_t>(f)].view2d(mesh_.padded_nx(),
                                                        mesh_.padded_ny());
  }

  /// Exchanges the storage behind two fields (O(1) pointer swap). The fused
  /// reference kernels ping-pong u through the w scratch instead of copying.
  void swap_fields(FieldId a, FieldId b) noexcept {
    std::swap(buffers_[static_cast<std::size_t>(a)],
              buffers_[static_cast<std::size_t>(b)]);
  }

 private:
  Mesh mesh_;
  std::array<tl::util::Buffer<double>, kAllFields.size()> buffers_;
};

}  // namespace tl::core
