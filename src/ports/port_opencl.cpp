#include "ports/port_opencl.hpp"

#include <stdexcept>

namespace tl::ports {

using core::FieldId;
using core::KernelId;
using ocllike::Buffer;
using ocllike::KernelArg;
using ocllike::NDItem;

namespace {

// Kernel argument convention ("program source" below): every kernel takes
//   [0] n (interior cells)  [1] width  [2] h  [3] nx
// then its buffers and scalars. Reductions take the partials buffer last.

struct Unpack {
  const std::vector<KernelArg>& args;
  Buffer& b(std::size_t i) const { return *std::get<Buffer*>(args[i]); }
  double d(std::size_t i) const { return std::get<double>(args[i]); }
  std::int64_t n(std::size_t i) const { return std::get<std::int64_t>(args[i]); }
};

/// Interior flat index -> padded flat index.
inline std::int64_t pad_index(std::int64_t idx, std::int64_t width,
                              std::int64_t h, std::int64_t nx) {
  const std::int64_t x = h + (idx % nx);
  const std::int64_t y = h + (idx / nx);
  return y * width + x;
}

inline double stencil(const Buffer& v, const Buffer& kx, const Buffer& ky,
                      std::size_t i, std::size_t width) {
  const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
  return diag * v[i] - kx[i + 1] * v[i + 1] - kx[i] * v[i - 1] -
         ky[i + width] * v[i + width] - ky[i] * v[i - width];
}

/// Work-group reduction epilogue: store the item's value in local memory;
/// the final item of the group (in-order emulation) folds the group's local
/// memory into the partials buffer.
inline void wg_reduce(const NDItem& item, double value, Buffer& partials) {
  item.local_mem[item.local_id] = value;
  if (item.local_id + 1 == item.local_size) {
    double sum = 0.0;
    for (std::size_t l = 0; l < item.local_size; ++l) sum += item.local_mem[l];
    partials[item.group_id] = sum;
  }
}

std::map<std::string, ocllike::KernelFn> program_source() {
  std::map<std::string, ocllike::KernelFn> src;

  src["init_u"] = [](const NDItem& item, const std::vector<KernelArg>& args) {
    const Unpack a{args};
    // Whole padded allocation: n here is padded cells, no index reform.
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = item.global_id;
    Buffer& density = a.b(4);
    Buffer& energy0 = a.b(5);
    Buffer& u = a.b(6);
    Buffer& u0 = a.b(7);
    const double v = energy0[i] * density[i];
    u[i] = v;
    u0[i] = v;
  };

  src["init_coef"] = [](const NDItem& item,
                        const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    // Iterates the (nx+2)x(ny+2) ring-extended interior.
    const std::int64_t width = a.n(1), h = a.n(2), nx = a.n(3);
    const std::int64_t idx = static_cast<std::int64_t>(item.global_id);
    const std::int64_t x = (h - 1) + (idx % (nx + 2));
    const std::int64_t y = (h - 1) + (idx / (nx + 2));
    const std::size_t i = static_cast<std::size_t>(y * width + x);
    Buffer& density = a.b(4);
    Buffer& kx = a.b(5);
    Buffer& ky = a.b(6);
    const double rx = a.d(7), ry = a.d(8);
    const bool recip = a.n(9) != 0;
    auto w_of = [&](std::size_t j) {
      return recip ? 1.0 / density[j] : density[j];
    };
    const double wc = w_of(i);
    const double wl = w_of(i - 1);
    const double wb = w_of(i - static_cast<std::size_t>(width));
    kx[i] = rx * (wl + wc) / (2.0 * wl * wc);
    ky[i] = ry * (wb + wc) / (2.0 * wb * wc);
  };

  src["calc_residual"] = [](const NDItem& item,
                            const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& u = a.b(4);
    Buffer& u0 = a.b(5);
    Buffer& kx = a.b(6);
    Buffer& ky = a.b(7);
    Buffer& r = a.b(8);
    r[i] = u0[i] - stencil(u, kx, ky, i, static_cast<std::size_t>(a.n(1)));
  };

  src["calc_2norm"] = [](const NDItem& item,
                         const std::vector<KernelArg>& args) {
    const Unpack a{args};
    double value = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& v = a.b(4);
      value = v[i] * v[i];
    }
    wg_reduce(item, value, a.b(5));
  };

  src["finalise"] = [](const NDItem& item,
                       const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& u = a.b(4);
    Buffer& density = a.b(5);
    Buffer& energy = a.b(6);
    energy[i] = u[i] / density[i];
  };

  // field_summary reduces four quantities; the port runs it as a volume
  // reduction with the other three accumulated into dedicated partial rows
  // (partials buffer holds 4 strided sections).
  src["field_summary"] = [](const NDItem& item,
                            const std::vector<KernelArg>& args) {
    const Unpack a{args};
    const std::size_t groups = item.global_size / item.local_size;
    double vol = 0.0, mass = 0.0, ie = 0.0, temp = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& density = a.b(4);
      Buffer& energy0 = a.b(5);
      Buffer& u = a.b(6);
      const double cell_vol = a.d(7);
      vol = cell_vol;
      mass = density[i] * cell_vol;
      ie = density[i] * energy0[i] * cell_vol;
      temp = u[i] * cell_vol;
    }
    Buffer& partials = a.b(8);
    item.local_mem[item.local_id] = vol;
    if (item.local_id + 1 == item.local_size) {
      double sum = 0.0;
      for (std::size_t l = 0; l < item.local_size; ++l) sum += item.local_mem[l];
      partials[item.group_id] = sum;
    }
    // The three companion sums accumulate directly into their sections (the
    // in-order emulation makes this race-free).
    partials[groups + item.group_id] += mass;
    partials[2 * groups + item.group_id] += ie;
    partials[3 * groups + item.group_id] += temp;
  };

  src["cg_init"] = [](const NDItem& item, const std::vector<KernelArg>& args) {
    const Unpack a{args};
    double value = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& u = a.b(4);
      Buffer& u0 = a.b(5);
      Buffer& kx = a.b(6);
      Buffer& ky = a.b(7);
      Buffer& w = a.b(8);
      Buffer& r = a.b(9);
      Buffer& p = a.b(10);
      const double au = stencil(u, kx, ky, i, static_cast<std::size_t>(a.n(1)));
      w[i] = au;
      const double res = u0[i] - au;
      r[i] = res;
      p[i] = res;
      value = res * res;
    }
    wg_reduce(item, value, a.b(11));
  };

  src["cg_calc_w"] = [](const NDItem& item,
                        const std::vector<KernelArg>& args) {
    const Unpack a{args};
    double value = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& p = a.b(4);
      Buffer& kx = a.b(5);
      Buffer& ky = a.b(6);
      Buffer& w = a.b(7);
      const double ap = stencil(p, kx, ky, i, static_cast<std::size_t>(a.n(1)));
      w[i] = ap;
      value = ap * p[i];
    }
    wg_reduce(item, value, a.b(8));
  };

  src["cg_calc_ur"] = [](const NDItem& item,
                         const std::vector<KernelArg>& args) {
    const Unpack a{args};
    double value = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& u = a.b(4);
      Buffer& p = a.b(5);
      Buffer& r = a.b(6);
      Buffer& w = a.b(7);
      const double alpha = a.d(8);
      u[i] += alpha * p[i];
      const double res = r[i] - alpha * w[i];
      r[i] = res;
      value = res * res;
    }
    wg_reduce(item, value, a.b(9));
  };

  src["cg_calc_p"] = [](const NDItem& item,
                        const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& r = a.b(4);
    Buffer& p = a.b(5);
    const double beta = a.d(6);
    p[i] = r[i] + beta * p[i];
  };

  src["cheby_init"] = [](const NDItem& item,
                         const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& r = a.b(4);
    Buffer& p = a.b(5);
    Buffer& u = a.b(6);
    const double theta_inv = a.d(7);
    p[i] = r[i] * theta_inv;
    u[i] += p[i];
  };

  src["cheby_calc_p"] = [](const NDItem& item,
                           const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& u = a.b(4);
    Buffer& u0 = a.b(5);
    Buffer& kx = a.b(6);
    Buffer& ky = a.b(7);
    Buffer& r = a.b(8);
    Buffer& p = a.b(9);
    const double alpha = a.d(10), beta = a.d(11);
    const double res =
        u0[i] - stencil(u, kx, ky, i, static_cast<std::size_t>(a.n(1)));
    r[i] = res;
    p[i] = alpha * p[i] + beta * res;
  };

  src["ppcg_init_sd"] = [](const NDItem& item,
                           const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& r = a.b(4);
    Buffer& sd = a.b(5);
    const double theta_inv = a.d(6);
    sd[i] = r[i] * theta_inv;
  };

  src["ppcg_inner_ru"] = [](const NDItem& item,
                            const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& u = a.b(4);
    Buffer& r = a.b(5);
    Buffer& sd = a.b(6);
    Buffer& kx = a.b(7);
    Buffer& ky = a.b(8);
    r[i] -= stencil(sd, kx, ky, i, static_cast<std::size_t>(a.n(1)));
    u[i] += sd[i];
  };

  // Full padded range (like init_u): the iterate's stencil reads w's halo.
  src["jacobi_copy_u"] = [](const NDItem& item,
                            const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t i = item.global_id;
    Buffer& u = a.b(4);
    Buffer& w = a.b(5);
    w[i] = u[i];
  };

  src["jacobi_iterate"] = [](const NDItem& item,
                             const std::vector<KernelArg>& args) {
    const Unpack a{args};
    if (item.global_id >= static_cast<std::size_t>(a.n(0))) return;
    const std::size_t width = static_cast<std::size_t>(a.n(1));
    const std::size_t i = static_cast<std::size_t>(pad_index(
        static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
    Buffer& u = a.b(4);
    Buffer& u0 = a.b(5);
    Buffer& w = a.b(6);
    Buffer& kx = a.b(7);
    Buffer& ky = a.b(8);
    const double diag = 1.0 + kx[i + 1] + kx[i] + ky[i + width] + ky[i];
    u[i] = (u0[i] + kx[i + 1] * w[i + 1] + kx[i] * w[i - 1] +
            ky[i + width] * w[i + width] + ky[i] * w[i - width]) /
           diag;
  };

  // Fused CG w sweep: pw through the work-group reduction, ww into a
  // companion partial section (field_summary's layout).
  src["cg_calc_w_fused"] = [](const NDItem& item,
                              const std::vector<KernelArg>& args) {
    const Unpack a{args};
    const std::size_t groups = item.global_size / item.local_size;
    double pw = 0.0, ww = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& p = a.b(4);
      Buffer& kx = a.b(5);
      Buffer& ky = a.b(6);
      Buffer& w = a.b(7);
      const double ap = stencil(p, kx, ky, i, static_cast<std::size_t>(a.n(1)));
      w[i] = ap;
      pw = ap * p[i];
      ww = ap * ap;
    }
    Buffer& partials = a.b(8);
    wg_reduce(item, pw, partials);
    partials[groups + item.group_id] += ww;
  };

  src["cg_fused_ur_p"] = [](const NDItem& item,
                            const std::vector<KernelArg>& args) {
    const Unpack a{args};
    double value = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& u = a.b(4);
      Buffer& p = a.b(5);
      Buffer& r = a.b(6);
      Buffer& w = a.b(7);
      const double alpha = a.d(8);
      const double beta_prev = a.d(9);
      u[i] += alpha * p[i];
      const double res = r[i] - alpha * w[i];
      r[i] = res;
      p[i] = res + beta_prev * p[i];
      value = res * res;
    }
    wg_reduce(item, value, a.b(10));
  };

  src["fused_residual_norm"] = [](const NDItem& item,
                                  const std::vector<KernelArg>& args) {
    const Unpack a{args};
    double value = 0.0;
    if (item.global_id < static_cast<std::size_t>(a.n(0))) {
      const std::size_t i = static_cast<std::size_t>(pad_index(
          static_cast<std::int64_t>(item.global_id), a.n(1), a.n(2), a.n(3)));
      Buffer& u = a.b(4);
      Buffer& u0 = a.b(5);
      Buffer& kx = a.b(6);
      Buffer& ky = a.b(7);
      Buffer& r = a.b(8);
      const double res =
          u0[i] - stencil(u, kx, ky, i, static_cast<std::size_t>(a.n(1)));
      r[i] = res;
      value = res * res;
    }
    wg_reduce(item, value, a.b(9));
  };

  return src;
}

}  // namespace

OpenClPort::OpenClPort(sim::DeviceId device, const core::Mesh& mesh,
                       std::uint64_t run_seed)
    : PortBase(sim::Model::kOpenCl, mesh),
      ctx_(sim::Model::kOpenCl, device, run_seed),
      queue_(ctx_),
      program_(ocllike::Program::build(ctx_, program_source())) {
  // Boilerplate: confirm the requested device exists on a platform.
  bool found = false;
  for (const auto& pd : ocllike::get_platform_devices()) {
    if (pd.id == device) found = true;
  }
  if (!found) throw std::invalid_argument("OpenClPort: no such device");

  for (const FieldId id : core::kAllFields) {
    buffers_[static_cast<std::size_t>(id)] =
        std::make_unique<Buffer>(ctx_, mesh.padded_cells());
  }
  const std::size_t padded_groups =
      (mesh.padded_cells() + kWorkGroupSize - 1) / kWorkGroupSize;
  partials_ = std::make_unique<Buffer>(
      ctx_, 4 * std::max(group_count(), padded_groups));

  for (const char* name :
       {"init_u", "init_coef", "calc_residual", "calc_2norm", "finalise",
        "field_summary", "cg_init", "cg_calc_w", "cg_calc_ur", "cg_calc_p",
        "cheby_init", "cheby_calc_p", "ppcg_init_sd", "ppcg_inner_ru",
        "jacobi_copy_u", "jacobi_iterate", "cg_calc_w_fused", "cg_fused_ur_p",
        "fused_residual_norm"}) {
    kernels_.emplace(name, ocllike::Kernel(program_, name));
  }
}

void OpenClPort::run_kernel(const std::string& name,
                            const sim::LaunchInfo& info) {
  queue_.enqueue_nd_range(kernels_.at(name), info, interior_global(),
                          kWorkGroupSize);
  queue_.finish();
}

double OpenClPort::run_reduction(const std::string& name,
                                 const sim::LaunchInfo& info) {
  run_kernel(name, info);
  // Finish the per-group partials (in-launch tree tail, priced by the
  // model's reduction overhead — see port_base metering notes).
  double sum = 0.0;
  for (std::size_t g = 0; g < group_count(); ++g) sum += (*partials_)[g];
  return sum;
}

void OpenClPort::upload_state(const core::Chunk& chunk) {
  for (const FieldId id : {FieldId::kDensity, FieldId::kEnergy0}) {
    queue_.enqueue_write(buf(id), padded_span(chunk.field(id)));
  }
}

void OpenClPort::init_u() {
  ocllike::Kernel& k = kernels_.at("init_u");
  k.set_arg(0, static_cast<std::int64_t>(mesh_.padded_cells()));
  k.set_arg(1, static_cast<std::int64_t>(width_));
  k.set_arg(2, static_cast<std::int64_t>(h_));
  k.set_arg(3, static_cast<std::int64_t>(nx_));
  k.set_arg(4, &buf(FieldId::kDensity));
  k.set_arg(5, &buf(FieldId::kEnergy0));
  k.set_arg(6, &buf(FieldId::kU));
  k.set_arg(7, &buf(FieldId::kU0));
  const std::size_t global = (mesh_.padded_cells() + kWorkGroupSize - 1) /
                             kWorkGroupSize * kWorkGroupSize;
  queue_.enqueue_nd_range(k, info(KernelId::kInitU), global, kWorkGroupSize);
  queue_.finish();
}

void OpenClPort::init_coefficients(core::Coefficient coefficient, double rx,
                                   double ry) {
  ocllike::Kernel& k = kernels_.at("init_coef");
  const std::int64_t ring_cells =
      static_cast<std::int64_t>(nx_ + 2) * (ny_ + 2);
  k.set_arg(0, ring_cells);
  k.set_arg(1, static_cast<std::int64_t>(width_));
  k.set_arg(2, static_cast<std::int64_t>(h_));
  k.set_arg(3, static_cast<std::int64_t>(nx_));
  k.set_arg(4, &buf(FieldId::kDensity));
  k.set_arg(5, &buf(FieldId::kKx));
  k.set_arg(6, &buf(FieldId::kKy));
  k.set_arg(7, rx);
  k.set_arg(8, ry);
  k.set_arg(9, static_cast<std::int64_t>(
                   coefficient == core::Coefficient::kRecipConductivity));
  const std::size_t global =
      (static_cast<std::size_t>(ring_cells) + kWorkGroupSize - 1) /
      kWorkGroupSize * kWorkGroupSize;
  queue_.enqueue_nd_range(k, info(KernelId::kInitCoef), global, kWorkGroupSize);
  queue_.finish();
}

namespace {
void set_geometry_args(ocllike::Kernel& k, std::size_t n, int width, int h,
                       int nx) {
  k.set_arg(0, static_cast<std::int64_t>(n));
  k.set_arg(1, static_cast<std::int64_t>(width));
  k.set_arg(2, static_cast<std::int64_t>(h));
  k.set_arg(3, static_cast<std::int64_t>(nx));
}
}  // namespace

void OpenClPort::calc_residual() {
  ocllike::Kernel& k = kernels_.at("calc_residual");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kU0));
  k.set_arg(6, &buf(FieldId::kKx));
  k.set_arg(7, &buf(FieldId::kKy));
  k.set_arg(8, &buf(FieldId::kR));
  run_kernel("calc_residual", info(KernelId::kCalcResidual));
}

double OpenClPort::calc_2norm(core::NormTarget target) {
  ocllike::Kernel& k = kernels_.at("calc_2norm");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(target == core::NormTarget::kResidual ? FieldId::kR
                                                          : FieldId::kU0));
  k.set_arg(5, partials_.get());
  return run_reduction("calc_2norm", info(KernelId::kCalc2Norm));
}

void OpenClPort::finalise() {
  ocllike::Kernel& k = kernels_.at("finalise");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kDensity));
  k.set_arg(6, &buf(FieldId::kEnergy));
  run_kernel("finalise", info(KernelId::kFinalise));
}

core::FieldSummary OpenClPort::field_summary() {
  // Zero the companion partial sections (mass/ie/temp accumulate in place).
  const std::size_t groups = group_count();
  for (std::size_t i = 0; i < 4 * groups; ++i) (*partials_)[i] = 0.0;
  ocllike::Kernel& k = kernels_.at("field_summary");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kDensity));
  k.set_arg(5, &buf(FieldId::kEnergy0));
  k.set_arg(6, &buf(FieldId::kU));
  k.set_arg(7, mesh_.cell_area());
  k.set_arg(8, partials_.get());
  core::FieldSummary s;
  s.volume = run_reduction("field_summary", info(KernelId::kFieldSummary));
  for (std::size_t g = 0; g < groups; ++g) {
    s.mass += (*partials_)[groups + g];
    s.internal_energy += (*partials_)[2 * groups + g];
    s.temperature += (*partials_)[3 * groups + g];
  }
  return s;
}

double OpenClPort::cg_init() {
  ocllike::Kernel& k = kernels_.at("cg_init");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kU0));
  k.set_arg(6, &buf(FieldId::kKx));
  k.set_arg(7, &buf(FieldId::kKy));
  k.set_arg(8, &buf(FieldId::kW));
  k.set_arg(9, &buf(FieldId::kR));
  k.set_arg(10, &buf(FieldId::kP));
  k.set_arg(11, partials_.get());
  return run_reduction("cg_init", info(KernelId::kCgInit));
}

double OpenClPort::cg_calc_w() {
  ocllike::Kernel& k = kernels_.at("cg_calc_w");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kP));
  k.set_arg(5, &buf(FieldId::kKx));
  k.set_arg(6, &buf(FieldId::kKy));
  k.set_arg(7, &buf(FieldId::kW));
  k.set_arg(8, partials_.get());
  return run_reduction("cg_calc_w", info(KernelId::kCgCalcW));
}

double OpenClPort::cg_calc_ur(double alpha) {
  ocllike::Kernel& k = kernels_.at("cg_calc_ur");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kP));
  k.set_arg(6, &buf(FieldId::kR));
  k.set_arg(7, &buf(FieldId::kW));
  k.set_arg(8, alpha);
  k.set_arg(9, partials_.get());
  return run_reduction("cg_calc_ur", info(KernelId::kCgCalcUr));
}

void OpenClPort::cg_calc_p(double beta) {
  ocllike::Kernel& k = kernels_.at("cg_calc_p");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kR));
  k.set_arg(5, &buf(FieldId::kP));
  k.set_arg(6, beta);
  run_kernel("cg_calc_p", info(KernelId::kCgCalcP));
}

void OpenClPort::cheby_init(double theta) {
  ocllike::Kernel& k = kernels_.at("cheby_init");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kR));
  k.set_arg(5, &buf(FieldId::kP));
  k.set_arg(6, &buf(FieldId::kU));
  k.set_arg(7, 1.0 / theta);
  run_kernel("cheby_init", info(KernelId::kChebyInit));
}

void OpenClPort::cheby_calc_p_as(KernelId charge, double alpha, double beta) {
  ocllike::Kernel& kp = kernels_.at("cheby_calc_p");
  set_geometry_args(kp, mesh_.interior_cells(), width_, h_, nx_);
  kp.set_arg(4, &buf(FieldId::kU));
  kp.set_arg(5, &buf(FieldId::kU0));
  kp.set_arg(6, &buf(FieldId::kKx));
  kp.set_arg(7, &buf(FieldId::kKy));
  kp.set_arg(8, &buf(FieldId::kR));
  kp.set_arg(9, &buf(FieldId::kP));
  kp.set_arg(10, alpha);
  kp.set_arg(11, beta);
  run_kernel("cheby_calc_p", info(charge));
}

void OpenClPort::ppcg_init_sd(double theta) {
  ocllike::Kernel& k = kernels_.at("ppcg_init_sd");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kR));
  k.set_arg(5, &buf(FieldId::kSd));
  k.set_arg(6, 1.0 / theta);
  run_kernel("ppcg_init_sd", info(KernelId::kPpcgInitSd));
}

void OpenClPort::ppcg_inner_ru_as(KernelId charge) {
  ocllike::Kernel& kr = kernels_.at("ppcg_inner_ru");
  set_geometry_args(kr, mesh_.interior_cells(), width_, h_, nx_);
  kr.set_arg(4, &buf(FieldId::kU));
  kr.set_arg(5, &buf(FieldId::kR));
  kr.set_arg(6, &buf(FieldId::kSd));
  kr.set_arg(7, &buf(FieldId::kKx));
  kr.set_arg(8, &buf(FieldId::kKy));
  run_kernel("ppcg_inner_ru", info(charge));
}

void OpenClPort::jacobi_copy_u_as(KernelId charge) {
  ocllike::Kernel& k = kernels_.at("jacobi_copy_u");
  set_geometry_args(k, mesh_.padded_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kW));
  const std::size_t global = (mesh_.padded_cells() + kWorkGroupSize - 1) /
                             kWorkGroupSize * kWorkGroupSize;
  queue_.enqueue_nd_range(k, info(charge), global,
                          kWorkGroupSize);
  queue_.finish();
}

void OpenClPort::jacobi_iterate() {
  ocllike::Kernel& k = kernels_.at("jacobi_iterate");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kU0));
  k.set_arg(6, &buf(FieldId::kW));
  k.set_arg(7, &buf(FieldId::kKx));
  k.set_arg(8, &buf(FieldId::kKy));
  run_kernel("jacobi_iterate", info(KernelId::kJacobiIterate));
}

core::CgFusedW OpenClPort::cg_calc_w_fused() {
  // Zero the companion section (ww accumulates in place).
  const std::size_t groups = group_count();
  for (std::size_t i = 0; i < 2 * groups; ++i) (*partials_)[i] = 0.0;
  ocllike::Kernel& k = kernels_.at("cg_calc_w_fused");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kP));
  k.set_arg(5, &buf(FieldId::kKx));
  k.set_arg(6, &buf(FieldId::kKy));
  k.set_arg(7, &buf(FieldId::kW));
  k.set_arg(8, partials_.get());
  core::CgFusedW out;
  out.pw = run_reduction("cg_calc_w_fused", info(KernelId::kCgCalcWFused));
  for (std::size_t g = 0; g < groups; ++g) {
    out.ww += (*partials_)[groups + g];
  }
  return out;
}

double OpenClPort::cg_fused_ur_p(double alpha, double beta_prev) {
  ocllike::Kernel& k = kernels_.at("cg_fused_ur_p");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kP));
  k.set_arg(6, &buf(FieldId::kR));
  k.set_arg(7, &buf(FieldId::kW));
  k.set_arg(8, alpha);
  k.set_arg(9, beta_prev);
  k.set_arg(10, partials_.get());
  return run_reduction("cg_fused_ur_p", info(KernelId::kCgFusedUrP));
}

double OpenClPort::fused_residual_norm() {
  ocllike::Kernel& k = kernels_.at("fused_residual_norm");
  set_geometry_args(k, mesh_.interior_cells(), width_, h_, nx_);
  k.set_arg(4, &buf(FieldId::kU));
  k.set_arg(5, &buf(FieldId::kU0));
  k.set_arg(6, &buf(FieldId::kKx));
  k.set_arg(7, &buf(FieldId::kKy));
  k.set_arg(8, &buf(FieldId::kR));
  k.set_arg(9, partials_.get());
  return run_reduction("fused_residual_norm",
                       info(KernelId::kFusedResidualNorm));
}

void OpenClPort::read_u(util::Span2D<double> out) {
  queue_.enqueue_read(buf(FieldId::kU), padded_span(out));
}

void OpenClPort::download_energy(core::Chunk& chunk) {
  queue_.enqueue_read(buf(FieldId::kEnergy),
                      padded_span(chunk.field(FieldId::kEnergy)));
}

}  // namespace tl::ports
