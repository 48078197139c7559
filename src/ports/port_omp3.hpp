#pragma once
// OpenMP 3.0-style TeaLeaf port: `parallel for` loops over interior rows
// with reduction clauses — the structure of both the original Fortran 90
// TeaLeaf and the C port the paper derived every other port from. The same
// class serves the two baselines (Model::kFortran / Model::kOmp3Cpp): the
// source structure is identical, the codegen profile (vectorisation quality
// of the two compilers) is what differs — exactly the paper's finding that
// identical code compiled as C++ ran 15% slower on Chebyshev.

#include "core/fields.hpp"
#include "models/omp3/omp3.hpp"
#include "ports/port_base.hpp"

namespace tl::ports {

class Omp3Port final : public PortBase {
 public:
  Omp3Port(sim::Model model, sim::DeviceId device, const core::Mesh& mesh,
           std::uint64_t run_seed, unsigned host_threads);

  void upload_state(const core::Chunk& chunk) override;
  void init_u() override;
  void init_coefficients(core::Coefficient coefficient, double rx,
                         double ry) override;
  void halo_update(unsigned fields, int depth) override;
  void calc_residual() override;
  double calc_2norm(core::NormTarget target) override;
  void finalise() override;
  core::FieldSummary field_summary() override;
  double cg_init() override;
  double cg_calc_w() override;
  double cg_calc_ur(double alpha) override;
  void cg_calc_p(double beta) override;
  void cheby_init(double theta) override;
  void ppcg_init_sd(double theta) override;
  void jacobi_iterate() override;

  // Fused variants: the single-pass CG and residual sweeps, welded into one
  // metered launch per solver step (the paper's ports fuse at source level;
  // here the fusion is visible to the cost model through the fused
  // catalogue entries). The fused Chebyshev, PPCG and Jacobi steps run the
  // classic bodies below under their fused charge (PortBase).
  core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;

  // The one port whose simulated timeline hides an in-flight halo exchange
  // behind the consuming kernel's interior share (DESIGN.md §10).
  bool overlaps_comm() const override { return true; }

  void read_u(util::Span2D<double> out) override;
  void download_energy(core::Chunk& chunk) override;
  const sim::SimClock& clock() const override { return rt_.launcher().clock(); }
  void begin_run(std::uint64_t run_seed) override {
    rt_.launcher().begin_run(run_seed);
  }
  util::Span2D<double> field_view(core::FieldId id) override {
    return storage_.field(id);
  }

 protected:
  void cheby_iterate_as(core::KernelId charge, double alpha,
                        double beta) override;
  void ppcg_inner_as(core::KernelId charge, double alpha,
                     double beta) override;
  void jacobi_copy_u_as(core::KernelId charge) override;

 private:
  util::Span2D<double> f(core::FieldId id) { return storage_.field(id); }

  mutable omp3::Runtime rt_;
  core::Chunk storage_;
};

}  // namespace tl::ports
