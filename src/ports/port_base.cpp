#include "ports/port_base.hpp"

#include <algorithm>

#include "comm/halo.hpp"
#include "core/reference_kernels.hpp"

namespace tl::ports {

using core::FieldId;

void PortBase::halo_update(unsigned fields, int depth) {
  const sim::LaunchInfo halo = core::make_halo_info(
      model_, nx_, ny_, core::mask_field_count(fields), depth);
  launcher().run(halo, [&] {
    for (const auto& [mask, id] : core::kMaskFields) {
      if ((fields & mask) != 0) {
        comm::reflect_boundary(field_view(id), h_, comm::kAllFaces);
      }
    }
  });
}

void PortBase::cheby_step(core::KernelId charge, double alpha, double beta) {
  cheby_calc_p_as(charge, alpha, beta);
  core::ref::cheby_calc_u(mesh_, field_view(FieldId::kP),
                          field_view(FieldId::kU));
}

void PortBase::ppcg_step(core::KernelId charge, double alpha, double beta) {
  ppcg_inner_ru_as(charge);
  core::ref::ppcg_inner_sd(mesh_, alpha, beta, field_view(FieldId::kR),
                           field_view(FieldId::kSd));
}

void PortBase::jacobi_fused_copy_iterate() {
  jacobi_copy_u_as(core::KernelId::kJacobiFusedCopyIterate);
  core::ref::jacobi_iterate(mesh_, field_view(FieldId::kU0),
                            field_view(FieldId::kW), field_view(FieldId::kKx),
                            field_view(FieldId::kKy), field_view(FieldId::kU));
}

void PortBase::copy_field(util::Span2D<const double> src,
                          util::Span2D<double> dst) const {
  const std::span<const double> from = padded_span(src);
  std::copy(from.begin(), from.end(), padded_span(dst).begin());
}

}  // namespace tl::ports
