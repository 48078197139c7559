#include "core/kernels_api.hpp"

#include <stdexcept>

namespace tl::core {

tl::util::Span2D<double> SolverKernels::field_view(FieldId) {
  throw std::logic_error(
      "SolverKernels::field_view: this kernel set exposes no field storage");
}

void SolverKernels::attach_trace_sink(tl::sim::TraceSink* sink) {
  // clock() is const-qualified because metering reads dominate its use, but
  // the SimClock object itself is mutable state owned by the port's launcher;
  // attaching an observer does not alter any metered quantity.
  const_cast<tl::sim::SimClock&>(clock()).set_trace_sink(sink);
}

int mask_field_count(unsigned mask) {
  int n = 0;
  while (mask != 0) {
    n += static_cast<int>(mask & 1u);
    mask >>= 1;
  }
  return n;
}

}  // namespace tl::core
