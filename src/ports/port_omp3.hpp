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
  void cheby_iterate(double alpha, double beta) override;
  void ppcg_init_sd(double theta) override;
  void ppcg_inner(double alpha, double beta) override;
  void jacobi_copy_u() override;
  void jacobi_iterate() override;

  // Fused variants: the same loop bodies welded into one metered launch per
  // solver step (the paper's ports fuse at source level; here the fusion is
  // visible to the cost model through the fused catalogue entries).
  unsigned caps() const override {
    return core::kAllKernelCaps | core::kCapRegions;
  }
  core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;
  void cheby_fused_iterate(double alpha, double beta) override;
  void ppcg_fused_inner(double alpha, double beta) override;
  void jacobi_fused_copy_iterate() override;

  // Region sweeps (kCapRegions). Metering: the kInterior call prices the
  // whole kernel once (one PerfModel draw — the same scheduler luck the
  // unsplit kernel would get) and charges the interior-cell fraction; the
  // finish charges the exact remainder, so total simulated time is
  // bit-identical to the blocking path and the interior charge is what the
  // in-flight exchange can hide behind. Edge sweeps charge nothing.
  void cg_calc_w_region(core::Region region) override;
  double cg_calc_w_region_finish() override;
  void cg_calc_w_fused_region(core::Region region) override;
  core::CgFusedW cg_calc_w_fused_region_finish() override;
  void cheby_fused_region(double alpha, double beta,
                          core::Region region) override;
  void cheby_fused_region_finish() override;
  void ppcg_fused_region(double alpha, double beta,
                         core::Region region) override;
  void ppcg_fused_region_finish(double alpha, double beta) override;
  void jacobi_fused_region(core::Region region) override;
  void jacobi_fused_region_finish() override;

  void read_u(util::Span2D<double> out) override;
  void download_energy(core::Chunk& chunk) override;
  const sim::SimClock& clock() const override { return rt_.launcher().clock(); }
  void begin_run(std::uint64_t run_seed) override {
    rt_.launcher().begin_run(run_seed);
  }
  util::Span2D<double> field_view(core::FieldId id) override {
    return storage_.field(id);
  }

 private:
  util::Span2D<double> f(core::FieldId id) { return storage_.field(id); }

  // Region-split metering: price the kernel once at the interior call,
  // charge the interior-cell fraction immediately and the remainder at the
  // finish (see Launcher::price). Sweep helpers run the loop bodies serially
  // over one region's bounds; the finish reductions rerun through the pool
  // with the blocking path's exact chunking so sums stay bit-identical.
  void region_begin(core::KernelId id);
  void region_finish_charge();
  void sweep_cg_w(const core::RegionBounds& b);

  mutable omp3::Runtime rt_;
  core::Chunk storage_;

  sim::LaunchInfo region_info_{};
  double region_factor_ = 1.0;
  double region_rem_ns_ = 0.0;
  std::size_t region_rem_read_ = 0;
  std::size_t region_rem_written_ = 0;
  // jacobi region sweeps copy u into w per region; the first edge sweep after
  // the halo exchange completes must re-copy u's refreshed halo frame into w.
  bool jacobi_frame_synced_ = false;
};

}  // namespace tl::ports
