#pragma once
// DistributedKernels: rank-aware decoration of any SolverKernels.
//
// TeaLeaf's inter-node layer in decorator form: the solver drivers stay
// byte-identical (they already speak SolverKernels), and every port gains
// distribution for free. halo_update runs the port's own (local, metered)
// update first, then exchanges tile boundaries through HaloExchanger; every
// reduction kernel's local partial is allreduced. All traffic goes through
// one comm::Link, which alone knows whether a fault schedule is injected, and
// the whole mode (overlap, elastic, faults, perturbation) is fixed at
// construction. Communication is charged to the rank's SimClock via the
// network cost model (sim/network.hpp) as "comm"-phase trace events carrying
// the wire bytes, so `--profile`/`--trace` and the scaling bench see comm
// time per rank.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/halo.hpp"
#include "comm/minimpi.hpp"
#include "core/kernels_api.hpp"
#include "sim/network.hpp"

namespace tl::dist {

/// Per-rank communication tally, aggregated alongside the SimClock counters.
struct CommStats {
  std::uint64_t halo_exchanges = 0;  // per-field exchange operations
  std::uint64_t allreduces = 0;
  std::size_t bytes = 0;             // wire bytes this rank moved (both ways)
  double comm_ns = 0.0;   // simulated interconnect time charged (exposed)
  // Overlapped exchanges (charge deferred into the consuming kernel's
  // launch) and the simulated wire time they hid behind its interior share
  // (comm_ns only accumulates the exposed remainder for those exchanges).
  std::uint64_t overlapped_exchanges = 0;
  double hidden_ns = 0.0;
  // Total modelled wire time of all scalar/vector allreduces.
  double allreduce_ns = 0.0;
  // Fault-injected runs: totals mirrored from the link after every comm
  // operation (zero without faults). The link retries in logical rounds, so
  // the values depend only on the fault schedule (seed, epoch, rates), never
  // on how the rank threads were scheduled.
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
};

/// How one DistributedKernels runs, fixed for its lifetime. The caller
/// resolves the flags (DistributedDriver::run turns overlap off for elastic,
/// fault-injected and perturbed runs).
struct Mode {
  /// Every exchange is blocking. With overlap (and an inner port whose
  /// overlaps_comm() is true), the depth-1 single-field exchanges of p, u or
  /// sd defer their charge: the consuming kernel's one launch record is split
  /// at the tile's interior-cell fraction, and the charge settles between the
  /// two parts, so the simulated wire time hides behind the interior share.
  /// Every other exchange — and every exchange when the flag is off — is
  /// charged in full as it happens.
  bool overlap_comm = true;
  /// Rank-count-invariant reductions: the inner port computes one partial
  /// per interior row (set_row_reductions), and every reduction gathers the
  /// partials in global row order and folds one pairwise tree over global
  /// ny — identical for any row-strip split of the mesh. Requires a
  /// row-strip decomposition (the driver enforces it) and a port that
  /// honours set_row_reductions.
  bool elastic = false;
  /// An active() schedule is injected into the link: every halo exchange
  /// and reduction runs the reliable ack/retry protocol. Numerics are
  /// unchanged (exactly-once delivery); an unsurvivable schedule throws a
  /// CommFaultError subclass.
  comm::FaultSpec faults;
  /// Comm-phase perturbation for tl_verify --perturb: "" (off);
  /// "halo_payload" scales one received halo cell on rank 1 after every
  /// exchange; "allreduce" scales rank 1's local contribution before the
  /// reduction.
  std::string comm_perturb;
};

class DistributedKernels final : public core::SolverKernels {
 public:
  /// Wraps `inner` for `comm.rank()`'s tile of `decomp` in `mode`.
  /// `halo_depth` is the mesh halo depth (exchange depth may be shallower per
  /// call). The communicator, decomposition, and network spec must outlive
  /// this object. Throws std::invalid_argument for an elastic mode whose
  /// port refuses per-row reductions and for an unknown perturbation target.
  DistributedKernels(std::unique_ptr<core::SolverKernels> inner,
                     comm::Communicator& comm,
                     const comm::BlockDecomposition& decomp, int halo_depth,
                     const sim::NetworkSpec& net, const Mode& mode);

  // -- Forwarded with distribution -----------------------------------------
  void halo_update(unsigned fields, int depth) override;
  double calc_2norm(core::NormTarget target) override;
  core::FieldSummary field_summary() override;
  double cg_init() override;
  double cg_calc_w() override;
  double cg_calc_ur(double alpha) override;
  core::CgFusedW cg_calc_w_fused() override;
  double cg_fused_ur_p(double alpha, double beta_prev) override;
  double fused_residual_norm() override;

  // -- Forwarded, consuming a deferred exchange charge when one matches -----
  void cheby_fused_iterate(double alpha, double beta) override;
  void ppcg_fused_inner(double alpha, double beta) override;
  void jacobi_fused_copy_iterate() override;

  // -- Forwarded verbatim (after settling any deferred charge) -------------
  void upload_state(const core::Chunk& chunk) override;
  void init_u() override;
  void init_coefficients(core::Coefficient coefficient, double rx,
                         double ry) override;
  void calc_residual() override;
  void finalise() override;
  void cg_calc_p(double beta) override;
  void cheby_init(double theta) override;
  void cheby_iterate(double alpha, double beta) override;
  void ppcg_init_sd(double theta) override;
  void ppcg_inner(double alpha, double beta) override;
  void jacobi_copy_u() override;
  void jacobi_iterate() override;
  void read_u(tl::util::Span2D<double> out) override;
  void download_energy(core::Chunk& chunk) override;
  const tl::sim::SimClock& clock() const override;
  void begin_run(std::uint64_t run_seed) override;
  tl::util::Span2D<double> field_view(core::FieldId id) override;

  const CommStats& comm_stats() const noexcept { return stats_; }
  core::SolverKernels& inner() noexcept { return *inner_; }

  /// Step-boundary notification for step-scoped fault triggers.
  void set_fault_step(int step) { link_.set_step(step); }

  /// Seeds the comm tally from a checkpoint cursor (same-rank-count resume).
  void restore_comm_stats(const CommStats& stats) { stats_ = stats; }

 private:
  /// The next rolling tag: one per field exchange and per reduction.
  int take_tag();
  /// Exchanges one field (blocking) and charges its wire time, or, with
  /// `defer`, records the charge as the pending one.
  void exchange_field(core::FieldId id, int depth, bool defer);
  /// Sums `values` over every rank through the link, charged as one
  /// allreduce of their payload and metered as `wire_bytes` each way (a
  /// block reduction meters its payload).
  void allreduce(std::span<double> values, std::size_t wire_bytes);
  /// A scalar allreduce, metered as 8 bytes per level of a ⌈log₂P⌉ tree.
  double allreduce_sum(double local);
  void meter_comm(const char* name, std::size_t sent, std::size_t received,
                  double ns);
  /// Gathers the inner port's k blocks of per-row partials to rank 0 in
  /// global row order, pairwise-folds each block over global ny, and
  /// broadcasts the k folded values into `out`.
  void elastic_combine(int k, double* out);
  void sync_fault_stats();
  void perturb_halo_cell(core::FieldId id);

  // -- Overlapped halo exchange ---------------------------------------------
  /// The charge of the last eligible exchange, deferred into the launch of
  /// the kernel that consumes the field. One at most.
  struct PendingCharge {
    bool active = false;
    core::FieldId id{};
    double posted_ns = 0.0;  // inner clock when the exchange ran
    double comm_ns = 0.0;    // full modelled wire time
    std::size_t bytes = 0;   // one-way wire bytes
  };

  /// Arms the inner clock's split of the next launch when `id`'s charge is
  /// pending; otherwise settles any pending charge.
  void arm_split(core::FieldId id);
  /// Charges the pending exchange (no-op when none): only the wire time not
  /// already covered by compute metered since the exchange advances the
  /// clock; the hidden remainder is traced (phase "overlap") and tallied.
  /// Disarms a split the consuming kernel left unfired.
  void settle_pending();

  std::unique_ptr<core::SolverKernels> inner_;
  comm::Link link_;
  const comm::BlockDecomposition* decomp_;
  comm::HaloExchanger exchanger_;
  const sim::NetworkSpec* net_;
  CommStats stats_;
  comm::FaultStats synced_;  // the link's tallies at the last sync
  int rank_;
  int nranks_;
  int halo_depth_;
  int next_tag_ = 0;
  const bool overlap_;
  const bool elastic_;
  bool perturb_halo_ = false;
  bool perturb_allreduce_ = false;
  double interior_fraction_;  // the tile's (nx-2)(ny-2)/(nx ny), 0 if thin
  PendingCharge pending_;
  std::vector<double> elastic_scratch_;
};

}  // namespace tl::dist
