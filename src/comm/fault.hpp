#pragma once
// The comm link: the one channel the halo exchange and the solver's
// reductions talk through, and the only place fault injection lives
// (DESIGN.md §13).
//
// Link::exchange(outs, ins) delivers a batch of tagged payloads. Under an
// inactive FaultSpec it sends every payload, then receives every expected
// one — MiniComm sends are buffered, so that order cannot deadlock. Under an
// active spec the link decorates the MiniComm Communicator with a seeded,
// deterministic fault schedule: any DATA send may be dropped, duplicated, or
// delayed, decided by hashing (seed, epoch, src, dst, tag, attempt) — never
// by wall clock — so a given schedule is reproducible across runs and
// machines. The exchange then runs a reliable ack/retry protocol in logical
// rounds. In round k every rank sends each payload still unacknowledged as
// attempt k; a round barrier follows, then every rank receives what arrived
// and ACKs each copy (duplicates are absorbed and re-ACKed); a second
// barrier follows, then senders collect their ACKs. The rounds end when a
// world-wide count of unfinished payloads reaches zero. Matching is by
// (source, wire tag), which the halo/reduction layers never reuse within a
// run. Attempts, retries and survival therefore depend only on (seed, epoch,
// schedule), not on how the OS schedules the rank threads. Under faults
// every rank of the world must call exchange() the same number of times in
// the same order (the halo and reduction layers are SPMD), since the rounds
// synchronise the whole world.
//
// Unsurvivable schedules stay diagnosable instead of hanging: when round
// max_attempts ends with a payload still unfinished anywhere, every rank
// throws — CommRetryExhausted on a rank whose own send went unacknowledged,
// ReliableTimeout on the others (a payload it awaited, or a peer's, never
// arrived). Both derive from CommFaultError, the retryable class the solve
// service keys re-enqueue-from-checkpoint on.
//
// ACK tags sit one bit above the data wire-tag space: HaloExchanger derives
// wire tags as tag * 8 + subtag with tag < 2^20, so every data tag is below
// 2^23 and ACKs occupy [2^23, 2^24), still under kCollectiveTagBase.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/minimpi.hpp"

namespace tl::comm {

/// Added to a data wire tag to form its ACK tag.
inline constexpr int kAckTagOffset = 1 << 23;

/// A deterministic fault schedule plus the retry/deadlock budgets.
struct FaultSpec {
  std::uint64_t seed = 1;   // schedule seed (mixed with epoch)
  double drop = 0.0;        // P(DATA send vanishes)
  double duplicate = 0.0;   // P(DATA send delivered twice)
  double delay = 0.0;       // P(DATA send deferred behind the round's
                            // on-time sends; still ahead of its timeout)
  int max_attempts = 10;    // rounds (sends per payload) before the world
                            // gives up with a CommFaultError

  /// Deterministic hard failure for lifecycle tests: while the injected
  /// step equals hard_fail_step and epoch == 0, every DATA send from
  /// hard_fail_rank is dropped — the world fails diagnosably at a known
  /// step, and a resumed attempt (epoch > 0) sails through.
  int hard_fail_rank = -1;
  int hard_fail_step = -1;
  int epoch = 0;  // resume attempt counter; perturbs the schedule hash

  bool active() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || hard_fail_rank >= 0;
  }
};

/// Retryable communication failure (the service re-enqueues on this).
class CommFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A sender used up its retry budget without seeing an ACK.
class CommRetryExhausted : public CommFaultError {
 public:
  using CommFaultError::CommFaultError;
};

/// The round budget ran out while a payload this rank awaited, or one a
/// peer was exchanging, was still undelivered.
class ReliableTimeout : public CommFaultError {
 public:
  using CommFaultError::CommFaultError;
};

/// Injection/retry tallies for one rank, folded into dist::CommStats. All
/// zero under an inactive spec.
struct FaultStats {
  std::uint64_t retries = 0;     // retransmissions past the first attempt
  std::uint64_t dropped = 0;     // injected drops
  std::uint64_t duplicated = 0;  // injected duplicate deliveries
  std::uint64_t delayed = 0;     // injected deferrals
};

/// One outbound / inbound payload of an exchange. The spans must stay valid
/// until exchange() returns.
struct WireOut {
  int dest = 0;
  int tag = 0;
  std::span<const double> data;
};
struct WireIn {
  int source = 0;
  int tag = 0;
  std::span<double> data;
};

class Link {
 public:
  /// The default spec is inactive: a plain send-then-receive link.
  explicit Link(Communicator& comm, FaultSpec spec = {})
      : comm_(comm), spec_(spec), faulty_(spec.active()) {}

  /// Completes every out and every in (payload delivered exactly once), or,
  /// under an active spec, throws a CommFaultError subclass. Either span may
  /// be empty. Under an active spec the call is collective: every rank of
  /// the world takes part in each call.
  void exchange(std::span<const WireOut> outs, std::span<const WireIn> ins);

  /// allreduce(sum) over the link: gather to rank 0, combine in rank order
  /// 0..P-1 (bit-identical to MiniComm's allreduce, and the same 2(P-1)
  /// messages), broadcast. `gather_tag`/`bcast_tag` are caller-provided data
  /// wire tags (the halo scheme's spare subtags).
  void allreduce_sum(std::span<double> values, int gather_tag, int bcast_tag);

  /// Step-boundary notification (arms/disarms the hard-fail trigger).
  void set_step(int step) noexcept { step_ = step; }

  const FaultStats& stats() const noexcept { return stats_; }

 private:
  /// The ack/retry rounds of an active spec (see the header comment).
  void reliable_exchange(std::span<const WireOut> outs,
                         std::span<const WireIn> ins);
  double uniform(int dest, int tag, int attempt, int salt) const;
  /// Sends under the schedule; a delayed send is appended to `delayed`.
  void faulty_send(const WireOut& out, int attempt,
                   std::vector<const WireOut*>& delayed);

  Communicator& comm_;
  FaultSpec spec_;
  const bool faulty_;  // spec_.active(), fixed for the link's lifetime
  FaultStats stats_;
  int step_ = 0;
  // allreduce_sum scratch, reused across calls.
  std::vector<double> incoming_;
  std::vector<WireIn> ins_;
  std::vector<WireOut> outs_;
};

}  // namespace tl::comm
