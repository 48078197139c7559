#include "ports/port_base.hpp"

#include "comm/halo.hpp"
#include "core/reference_kernels.hpp"

namespace tl::ports {

using core::FieldId;

void PortBase::jacobi_fused_copy_iterate() {
  jacobi_copy_u_as(core::KernelId::kJacobiFusedCopyIterate);
  core::ref::jacobi_iterate(mesh_, field_view(FieldId::kU0),
                            field_view(FieldId::kW), field_view(FieldId::kKx),
                            field_view(FieldId::kKy), field_view(FieldId::kU));
}

void PortBase::reflect_fields(unsigned fields) {
  for (const auto& [mask, id] : core::kMaskFields) {
    if ((fields & mask) != 0) {
      comm::reflect_boundary(field_view(id), h_, comm::kAllFaces);
    }
  }
}

}  // namespace tl::ports
