#include "dist/kernels.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "util/stats.hpp"

namespace tl::dist {

namespace {

using comm::Face;

// Tag scheme: exchange_field consumes one rolling tag per field exchange,
// and HaloExchanger derives the wire tag as tag * 8 + subtag with
// subtag in [0, 4) — 0 left-edge data moving left, 1 right-edge moving
// right, 2 bottom moving down, 3 top moving up (see comm/halo.hpp). The
// modulus keeps every derived wire tag strictly below MiniComm's reserved
// collective tag base, so a mismatched halo tag can never alias a
// barrier/allreduce message: it surfaces as a stuck recv (the deadlock-guard
// timeout throws), never as silent data corruption. The static_assert pins
// the comment to the code.
constexpr int kTagModulus = 1 << 20;
static_assert(static_cast<long long>(kTagModulus) * 8 <=
                  comm::kCollectiveTagBase,
              "halo wire tags (tag * 8 + subtag) must stay below the "
              "reserved collective tag base");

// Subtags 4 and 5 of the tag * 8 scheme (halo uses 0-3) carry the gather
// and the broadcast of every reduction (allreduce and the elastic row-partial
// combine), so every wire message in a run still has a unique tag.
constexpr int kSubtagGather = 4;
constexpr int kSubtagBcast = 5;

// In-flight corruption model: scale-plus-offset, applied to one payload
// value per comm phase. The offset matters — early in a solve, rank 1's
// reduction partials (and some halo cells) are exactly zero, where a pure
// scale would be invisible. The magnitude (1e-3) is chosen to clear
// ToleranceSpec::distributed (history rel 1e-6, checksums rel 1e-8) by
// orders of magnitude, so the conformance checker must flag it.
constexpr double kPerturbFactor = 1.0 + 1e-3;
constexpr double kPerturbOffset = 1e-3;

double perturb(double x) { return x * kPerturbFactor + kPerturbOffset; }

/// Share of a tile's cells that no depth-1 halo value reaches through a
/// five-point stencil: the compute an in-flight exchange can hide behind.
double interior_fraction(const comm::Tile& tile) {
  const int nx = tile.nx();
  const int ny = tile.ny();
  if (nx <= 2 || ny <= 2) return 0.0;
  return (static_cast<double>(nx - 2) * static_cast<double>(ny - 2)) /
         (static_cast<double>(nx) * static_cast<double>(ny));
}

}  // namespace

DistributedKernels::DistributedKernels(
    std::unique_ptr<core::SolverKernels> inner, comm::Communicator& comm,
    const comm::BlockDecomposition& decomp, int halo_depth,
    const sim::NetworkSpec& net, const Mode& mode)
    : inner_(std::move(inner)),
      link_(comm, mode.faults),
      decomp_(&decomp),
      exchanger_(decomp, comm.rank(), halo_depth),
      net_(&net),
      rank_(comm.rank()),
      nranks_(decomp.nranks()),
      halo_depth_(halo_depth),
      overlap_(mode.overlap_comm),
      elastic_(mode.elastic),
      interior_fraction_(interior_fraction(exchanger_.tile())) {
  if (!inner_) throw std::invalid_argument("DistributedKernels: null inner");
  if (nranks_ != comm.size()) {
    throw std::invalid_argument(
        "DistributedKernels: decomposition/communicator rank mismatch");
  }
  if (elastic_ && !inner_->set_row_reductions(true)) {
    throw std::invalid_argument(
        "DistributedKernels: elastic mode needs a port with per-row "
        "reductions (set_row_reductions refused)");
  }
  if (mode.comm_perturb == "halo_payload") {
    perturb_halo_ = true;
  } else if (mode.comm_perturb == "allreduce") {
    perturb_allreduce_ = true;
  } else if (!mode.comm_perturb.empty()) {
    throw std::invalid_argument("unknown comm perturb target: " +
                                mode.comm_perturb);
  }
}

int DistributedKernels::take_tag() {
  const int tag = next_tag_;
  next_tag_ = (next_tag_ + 1) % kTagModulus;
  return tag;
}

void DistributedKernels::meter_comm(const char* name, std::size_t sent,
                                    std::size_t received, double ns) {
  sim::LaunchInfo info;
  info.name = name;  // literal: static storage, safe for retained sinks
  info.kernel_id = -1;
  info.phase = "comm";
  info.bytes_read = received;
  info.bytes_written = sent;
  const_cast<sim::SimClock&>(inner_->clock()).record_launch(info, ns, 1.0);
  stats_.bytes += sent + received;
  stats_.comm_ns += ns;
}

void DistributedKernels::sync_fault_stats() {
  // Adds the link's tallies since the last sync, so the counts continue from
  // whatever stats_ starts at: zero, or a restored checkpoint cursor.
  const comm::FaultStats& fs = link_.stats();
  const std::uint64_t new_retries = fs.retries - synced_.retries;
  if (new_retries > 0) {
    // Trace-only breadcrumb (bytes = new retries): makes retry storms
    // visible in Chrome traces without touching the metered timeline.
    if (sim::TraceSink* sink = inner_->clock().trace_sink()) {
      sim::TraceEvent ev;
      ev.kind = sim::TraceEvent::Kind::kLaunch;
      ev.name = "comm_retry";
      ev.kernel_id = -1;
      ev.phase = "comm";
      ev.start_ns = inner_->clock().elapsed_ns();
      ev.duration_ns = 0.0;
      ev.bytes = static_cast<std::size_t>(new_retries);
      sink->on_event(ev);
    }
  }
  stats_.retries += new_retries;
  stats_.dropped += fs.dropped - synced_.dropped;
  stats_.duplicated += fs.duplicated - synced_.duplicated;
  stats_.delayed += fs.delayed - synced_.delayed;
  synced_ = fs;
}

void DistributedKernels::perturb_halo_cell(core::FieldId id) {
  auto f = inner_->field_view(id);
  const comm::Tile& t = exchanger_.tile();
  const int h = halo_depth_;
  // Scale one halo cell that was just received from a neighbour (rank 1
  // always has at least one); the corrupted value feeds the next stencil
  // sweep exactly as an in-flight payload flip would.
  if (t.has_neighbour(Face::kBottom)) {
    f(h, h - 1) = perturb(f(h, h - 1));
  } else if (t.has_neighbour(Face::kLeft)) {
    f(h - 1, h) = perturb(f(h - 1, h));
  } else if (t.has_neighbour(Face::kTop)) {
    f(h, h + t.ny()) = perturb(f(h, h + t.ny()));
  } else if (t.has_neighbour(Face::kRight)) {
    f(h + t.nx(), h) = perturb(f(h + t.nx(), h));
  }
}

void DistributedKernels::exchange_field(core::FieldId id, int depth,
                                        bool defer) {
  auto field = inner_->field_view(id);
  exchanger_.exchange(link_, field, depth, take_tag());
  sync_fault_stats();
  if (perturb_halo_ && rank_ == 1) perturb_halo_cell(id);

  const comm::HaloWire wire =
      comm::halo_wire(exchanger_.tile(), depth, halo_depth_);
  const std::size_t bytes = wire.doubles * sizeof(double);
  const double ns = sim::halo_exchange_ns(*net_, bytes, wire.messages);
  ++stats_.halo_exchanges;
  if (defer) {
    pending_ = PendingCharge{true, id, inner_->clock().elapsed_ns(), ns, bytes};
    return;
  }
  meter_comm("halo_exchange", bytes, bytes, ns);
}

void DistributedKernels::arm_split(core::FieldId id) {
  if (!pending_.active || pending_.id != id) {
    settle_pending();
    return;
  }
  const_cast<sim::SimClock&>(inner_->clock())
      .split_next_launch(interior_fraction_, [this] { settle_pending(); });
}

void DistributedKernels::settle_pending() {
  if (!pending_.active) return;
  pending_.active = false;
  auto& clock = const_cast<sim::SimClock&>(inner_->clock());
  clock.cancel_split();
  // Compute metered since the exchange covers that much of the wire time;
  // only the exposed remainder advances the clock. The hidden share becomes
  // a trace-only "overlap" event so profiles show where the transfer sat.
  const double covered = clock.elapsed_ns() - pending_.posted_ns;
  const double exposed = std::max(0.0, pending_.comm_ns - covered);
  const double hidden = pending_.comm_ns - exposed;
  ++stats_.overlapped_exchanges;
  meter_comm("halo_exchange", pending_.bytes, pending_.bytes, exposed);
  if (hidden > 0.0) {
    sim::LaunchInfo info;
    info.name = "halo_overlap";  // literal: static storage
    info.kernel_id = -1;
    info.phase = "overlap";
    info.bytes_read = pending_.bytes;
    info.bytes_written = pending_.bytes;
    clock.record_overlap(info, hidden);
  }
  stats_.hidden_ns += hidden;
}

void DistributedKernels::allreduce(std::span<double> values,
                                   std::size_t wire_bytes) {
  if (perturb_allreduce_ && rank_ == 1) values[0] = perturb(values[0]);
  if (nranks_ == 1) return;
  const int tag = take_tag();
  link_.allreduce_sum(values, tag * 8 + kSubtagGather, tag * 8 + kSubtagBcast);
  sync_fault_stats();
  ++stats_.allreduces;
  const double ns = sim::allreduce_ns(*net_, values.size_bytes(), nranks_);
  stats_.allreduce_ns += ns;
  meter_comm("allreduce", wire_bytes, wire_bytes, ns);
}

double DistributedKernels::allreduce_sum(double local) {
  int levels = 0;
  while ((1 << levels) < nranks_) ++levels;
  allreduce(std::span<double>(&local, 1),
            sizeof(double) * static_cast<std::size_t>(levels));
  return local;
}

void DistributedKernels::elastic_combine(int k, double* out) {
  const std::span<const double> local = inner_->row_partials();
  const int local_ny = exchanger_.tile().ny();
  if (local.size() !=
      static_cast<std::size_t>(k) * static_cast<std::size_t>(local_ny)) {
    throw std::runtime_error(
        "DistributedKernels: elastic port published a row-partial vector of "
        "unexpected size");
  }
  const int gny = decomp_->global_ny();
  const std::size_t gny_z = static_cast<std::size_t>(gny);
  // The tree the ports fold locally, applied to the *global* row vector, so
  // the result is invariant under any row-strip split.
  const auto fold = [&] {
    for (int j = 0; j < k; ++j) {
      out[j] = util::pairwise_sum(
          elastic_scratch_.data() + static_cast<std::size_t>(j) * gny_z, gny);
    }
  };

  if (nranks_ == 1) {
    elastic_scratch_.assign(local.begin(), local.end());
    fold();
    return;
  }

  const int tag = take_tag();
  const int gather_tag = tag * 8 + kSubtagGather;
  const int bcast_tag = tag * 8 + kSubtagBcast;
  const std::span<double> result(out, static_cast<std::size_t>(k));

  if (rank_ == 0) {
    // Every other rank's k blocks of row partials, in rank order.
    const auto count_of = [&](int r) {
      return static_cast<std::size_t>(k) *
             static_cast<std::size_t>(decomp_->tile(r).ny());
    };
    std::size_t total = 0;
    for (int r = 1; r < nranks_; ++r) total += count_of(r);
    std::vector<double> incoming(total);
    std::vector<comm::WireIn> ins;
    ins.reserve(static_cast<std::size_t>(nranks_ - 1));
    std::size_t offset = 0;
    for (int r = 1; r < nranks_; ++r) {
      ins.push_back({r, gather_tag,
                     std::span<double>(incoming.data() + offset, count_of(r))});
      offset += count_of(r);
    }
    link_.exchange({}, ins);

    // Assemble the k global row vectors: rank r's rows land at its tile's
    // y_begin, so rank-order placement IS global row order for row strips.
    elastic_scratch_.assign(static_cast<std::size_t>(k) * gny_z, 0.0);
    auto place = [&](int rank, std::span<const double> partials) {
      const comm::Tile& t = decomp_->tile(rank);
      const std::size_t rows = static_cast<std::size_t>(t.ny());
      for (int j = 0; j < k; ++j) {
        std::copy_n(partials.data() + static_cast<std::size_t>(j) * rows, rows,
                    elastic_scratch_.data() +
                        static_cast<std::size_t>(j) * gny_z +
                        static_cast<std::size_t>(t.y_begin));
      }
    };
    place(0, local);
    for (const comm::WireIn& in : ins) place(in.source, in.data);
    fold();

    std::vector<comm::WireOut> outs;
    outs.reserve(static_cast<std::size_t>(nranks_ - 1));
    for (int r = 1; r < nranks_; ++r) outs.push_back({r, bcast_tag, result});
    link_.exchange(outs, {});
  } else {
    const comm::WireOut contribute{0, gather_tag, local};
    link_.exchange(std::span<const comm::WireOut>(&contribute, 1), {});
    const comm::WireIn back{0, bcast_tag, result};
    link_.exchange({}, std::span<const comm::WireIn>(&back, 1));
  }
  sync_fault_stats();

  ++stats_.allreduces;
  const std::size_t payload =
      static_cast<std::size_t>(k) * gny_z * sizeof(double);
  meter_comm("row_allreduce", payload, payload,
             sim::allreduce_ns(*net_, payload, nranks_));
}

void DistributedKernels::halo_update(unsigned fields, int depth) {
  settle_pending();
  // The port's own update does the local work (and the per-rank metering):
  // it reflects all four faces as if the tile were the whole domain. The
  // exchange then overwrites the halos on interior faces with neighbour
  // data, leaving physical faces reflected — TeaLeaf's update_halo split.
  inner_->halo_update(fields, depth);
  if (nranks_ == 1) return;
  // Only the single-field depth-1 exchanges feeding the solver iteration
  // kernels overlap: their charge settles inside the consuming kernel's
  // launch. Multi-field updates (bootstrap, residual prep) and deep halos
  // are charged now.
  const bool defer = overlap_ && depth == 1 && inner_->overlaps_comm() &&
                     (fields == core::kMaskP || fields == core::kMaskU ||
                      fields == core::kMaskSd);
  for (const auto& [mask, id] : core::kMaskFields) {
    if ((fields & mask) != 0) exchange_field(id, depth, defer);
  }
}

double DistributedKernels::calc_2norm(core::NormTarget target) {
  settle_pending();
  const double local = inner_->calc_2norm(target);
  if (elastic_) {
    double v;
    elastic_combine(1, &v);
    return v;
  }
  return allreduce_sum(local);
}

core::FieldSummary DistributedKernels::field_summary() {
  settle_pending();
  core::FieldSummary s = inner_->field_summary();
  if (elastic_) {
    double v[4];
    elastic_combine(4, v);
    return core::FieldSummary{v[0], v[1], v[2], v[3]};
  }
  if (nranks_ == 1) return s;
  std::array<double, 4> values = {s.volume, s.mass, s.internal_energy,
                                  s.temperature};
  allreduce(values, values.size() * sizeof(double));
  return core::FieldSummary{values[0], values[1], values[2], values[3]};
}

double DistributedKernels::cg_init() {
  settle_pending();
  const double local = inner_->cg_init();
  if (elastic_) {
    double v;
    elastic_combine(1, &v);
    return v;
  }
  return allreduce_sum(local);
}

// The five consumer kernels: when the exchange of the field they read is
// pending, the split arms before the call and the charge settles between
// the launch's interior share and its remainder (or after the call, with
// nothing hidden, for a kernel set that meters nothing).
double DistributedKernels::cg_calc_w() {
  arm_split(core::FieldId::kP);
  const double local = inner_->cg_calc_w();
  settle_pending();
  if (elastic_) {
    double v;
    elastic_combine(1, &v);
    return v;
  }
  return allreduce_sum(local);
}

double DistributedKernels::cg_calc_ur(double alpha) {
  settle_pending();
  const double local = inner_->cg_calc_ur(alpha);
  if (elastic_) {
    double v;
    elastic_combine(1, &v);
    return v;
  }
  return allreduce_sum(local);
}

core::CgFusedW DistributedKernels::cg_calc_w_fused() {
  arm_split(core::FieldId::kP);
  const core::CgFusedW local = inner_->cg_calc_w_fused();
  settle_pending();
  if (nranks_ == 1) return local;
  // The fused sweep's two dots travel in one allreduce (the fusion's comm
  // win: one latency instead of two).
  std::array<double, 2> values = {local.pw, local.ww};
  allreduce(values, values.size() * sizeof(double));
  return core::CgFusedW{values[0], values[1]};
}

double DistributedKernels::cg_fused_ur_p(double alpha, double beta_prev) {
  settle_pending();
  return allreduce_sum(inner_->cg_fused_ur_p(alpha, beta_prev));
}

double DistributedKernels::fused_residual_norm() {
  settle_pending();
  return allreduce_sum(inner_->fused_residual_norm());
}

void DistributedKernels::cheby_fused_iterate(double alpha, double beta) {
  arm_split(core::FieldId::kU);
  inner_->cheby_fused_iterate(alpha, beta);
  settle_pending();
}

void DistributedKernels::ppcg_fused_inner(double alpha, double beta) {
  arm_split(core::FieldId::kSd);
  inner_->ppcg_fused_inner(alpha, beta);
  settle_pending();
}

void DistributedKernels::jacobi_fused_copy_iterate() {
  arm_split(core::FieldId::kU);
  inner_->jacobi_fused_copy_iterate();
  settle_pending();
}

// Every other forward settles a deferred charge first, with nothing hidden:
// the overlapped window only ever spans halo_update -> next consuming
// kernel.
void DistributedKernels::upload_state(const core::Chunk& chunk) {
  settle_pending();
  inner_->upload_state(chunk);
}
void DistributedKernels::init_u() {
  settle_pending();
  inner_->init_u();
}
void DistributedKernels::init_coefficients(core::Coefficient coefficient,
                                           double rx, double ry) {
  settle_pending();
  inner_->init_coefficients(coefficient, rx, ry);
}
void DistributedKernels::calc_residual() {
  settle_pending();
  inner_->calc_residual();
}
void DistributedKernels::finalise() {
  settle_pending();
  inner_->finalise();
}
void DistributedKernels::cg_calc_p(double beta) {
  settle_pending();
  inner_->cg_calc_p(beta);
}
void DistributedKernels::cheby_init(double theta) {
  settle_pending();
  inner_->cheby_init(theta);
}
void DistributedKernels::cheby_iterate(double alpha, double beta) {
  settle_pending();
  inner_->cheby_iterate(alpha, beta);
}
void DistributedKernels::ppcg_init_sd(double theta) {
  settle_pending();
  inner_->ppcg_init_sd(theta);
}
void DistributedKernels::ppcg_inner(double alpha, double beta) {
  settle_pending();
  inner_->ppcg_inner(alpha, beta);
}
void DistributedKernels::jacobi_copy_u() {
  settle_pending();
  inner_->jacobi_copy_u();
}
void DistributedKernels::jacobi_iterate() {
  settle_pending();
  inner_->jacobi_iterate();
}
void DistributedKernels::read_u(tl::util::Span2D<double> out) {
  settle_pending();
  inner_->read_u(out);
}
void DistributedKernels::download_energy(core::Chunk& chunk) {
  settle_pending();
  inner_->download_energy(chunk);
}
const tl::sim::SimClock& DistributedKernels::clock() const {
  return inner_->clock();
}
void DistributedKernels::begin_run(std::uint64_t run_seed) {
  settle_pending();  // charge the deferred wire time before the reset
  inner_->begin_run(run_seed);
  stats_ = CommStats{};
  next_tag_ = 0;
}
tl::util::Span2D<double> DistributedKernels::field_view(core::FieldId id) {
  settle_pending();
  return inner_->field_view(id);
}

}  // namespace tl::dist
