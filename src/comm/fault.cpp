#include "comm/fault.hpp"

#include <algorithm>

#include "util/string_util.hpp"

namespace tl::comm {

namespace {

/// splitmix64 finaliser — the schedule hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double Link::uniform(int dest, int tag, int attempt, int salt) const {
  std::uint64_t h = spec_.seed;
  h = mix64(h ^ (static_cast<std::uint64_t>(spec_.epoch) << 48));
  h = mix64(h ^ (static_cast<std::uint64_t>(comm_.rank()) << 32) ^
            static_cast<std::uint64_t>(dest));
  h = mix64(h ^ (static_cast<std::uint64_t>(tag) << 16) ^
            (static_cast<std::uint64_t>(attempt) << 8) ^
            static_cast<std::uint64_t>(salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void Link::faulty_send(const WireOut& out, int attempt,
                       std::vector<const WireOut*>& delayed) {
  const bool hard_fail = spec_.epoch == 0 &&
                         comm_.rank() == spec_.hard_fail_rank &&
                         step_ == spec_.hard_fail_step;
  if (hard_fail || uniform(out.dest, out.tag, attempt, 0) < spec_.drop) {
    ++stats_.dropped;
    return;
  }
  if (uniform(out.dest, out.tag, attempt, 1) < spec_.delay) {
    ++stats_.delayed;
    delayed.push_back(&out);
    return;
  }
  comm_.send(out.data, out.dest, out.tag);
  if (uniform(out.dest, out.tag, attempt, 2) < spec_.duplicate) {
    ++stats_.duplicated;
    comm_.send(out.data, out.dest, out.tag);
  }
}

void Link::exchange(std::span<const WireOut> outs,
                    std::span<const WireIn> ins) {
  if (faulty_) {
    reliable_exchange(outs, ins);
    return;
  }
  for (const WireOut& out : outs) comm_.send(out.data, out.dest, out.tag);
  for (const WireIn& in : ins) comm_.recv(in.data, in.source, in.tag);
}

void Link::reliable_exchange(std::span<const WireOut> outs,
                             std::span<const WireIn> ins) {
  std::vector<char> acked(outs.size(), 0);
  std::vector<char> got(ins.size(), 0);
  std::vector<const WireOut*> delayed;

  std::size_t scratch_len = 0;
  for (const WireIn& in : ins) scratch_len = std::max(scratch_len, in.data.size());
  std::vector<double> dup_scratch(scratch_len);
  const double ack_payload = 1.0;
  double ack_buf = 0.0;

  for (int round = 1;; ++round) {
    // Send phase: every unacknowledged payload goes out as attempt `round`;
    // deferred sends land behind the round's on-time ones.
    delayed.clear();
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (acked[i] != 0) continue;
      if (round > 1) ++stats_.retries;
      faulty_send(outs[i], round, delayed);
    }
    for (const WireOut* out : delayed) comm_.send(out->data, out->dest, out->tag);
    comm_.barrier();

    // Receive phase: every copy that arrived is ACKed; the first fills the
    // destination, later ones (injected duplicates) are absorbed.
    for (std::size_t j = 0; j < ins.size(); ++j) {
      const WireIn& in = ins[j];
      const std::span<double> scratch(dup_scratch.data(), in.data.size());
      while (comm_.try_recv(got[j] != 0 ? scratch : in.data, in.source,
                            in.tag)) {
        got[j] = 1;
        comm_.send(std::span<const double>(&ack_payload, 1), in.source,
                   in.tag + kAckTagOffset);
      }
    }
    comm_.barrier();

    // ACK phase: every ACK of this round is queued by now.
    std::size_t outs_left = 0;
    std::size_t ins_left = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (acked[i] == 0 &&
          comm_.try_recv(std::span<double>(&ack_buf, 1), outs[i].dest,
                         outs[i].tag + kAckTagOffset)) {
        acked[i] = 1;
      }
      outs_left += acked[i] != 0 ? 0 : 1;
    }
    for (char g : got) ins_left += g != 0 ? 0 : 1;
    const double world_left =
        comm_.allreduce(static_cast<double>(outs_left + ins_left));
    if (world_left == 0.0) return;
    if (round < spec_.max_attempts) continue;

    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (acked[i] != 0) continue;
      throw CommRetryExhausted(util::strf(
          "reliable exchange: rank %d -> %d tag %d unacked after %d "
          "attempt(s) (seed %llu, epoch %d)",
          comm_.rank(), outs[i].dest, outs[i].tag, round,
          static_cast<unsigned long long>(spec_.seed), spec_.epoch));
    }
    throw ReliableTimeout(util::strf(
        "reliable exchange: rank %d gave up after %d round(s) with %zu "
        "recv(s) missing here and %.0f payload(s) unfinished world-wide "
        "(seed %llu, epoch %d) — peer dead or schedule unsurvivable",
        comm_.rank(), round, ins_left, world_left,
        static_cast<unsigned long long>(spec_.seed), spec_.epoch));
  }
}

void Link::allreduce_sum(std::span<double> values, int gather_tag,
                         int bcast_tag) {
  const int size = comm_.size();
  if (size == 1) return;
  const std::size_t n = values.size();

  if (comm_.rank() == 0) {
    incoming_.resize(static_cast<std::size_t>(size - 1) * n);
    ins_.clear();
    for (int r = 1; r < size; ++r) {
      ins_.push_back({r, gather_tag,
                      std::span<double>(incoming_.data() +
                                            static_cast<std::size_t>(r - 1) * n,
                                        n)});
    }
    exchange({}, ins_);
    // Rank-order combine: bit-identical to MiniComm's sequential reduce.
    for (int r = 1; r < size; ++r) {
      const double* block =
          incoming_.data() + static_cast<std::size_t>(r - 1) * n;
      for (std::size_t k = 0; k < n; ++k) values[k] += block[k];
    }
    outs_.clear();
    for (int r = 1; r < size; ++r) {
      outs_.push_back({r, bcast_tag, std::span<const double>(values)});
    }
    exchange(outs_, {});
  } else {
    const WireOut contribute{0, gather_tag, std::span<const double>(values)};
    exchange(std::span<const WireOut>(&contribute, 1), {});
    const WireIn result{0, bcast_tag, values};
    exchange({}, std::span<const WireIn>(&result, 1));
  }
}

}  // namespace tl::comm
