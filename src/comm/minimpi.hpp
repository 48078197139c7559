#pragma once
// MiniComm: an in-process message-passing substrate.
//
// The paper notes every evaluated model stops at node-level parallelism and
// TeaLeaf handles inter-node communication with MPI. This environment has no
// MPI (and no second node), so we provide the primitives the program calls —
// ranks, blocking tagged send/recv, barrier, broadcast, sum-allreduce — over
// threads in one process. Each rank runs as a std::thread; mailboxes are
// mutex+condvar protected queues. Semantics follow MPI's blocking point-to-
// point model closely enough that the TeaLeaf halo-exchange driver code is
// shaped exactly as it would be over real MPI. The halo exchange and the
// solver's reductions run over comm::Link (comm/fault.hpp), which is built on
// send/recv plus, under a fault schedule, try_recv, barrier and allreduce.
// Every operation blocks except try_recv, the probe the fault-tolerant retry
// protocol polls with; the overlapped halo exchange is a metering rule
// (dist/kernels.hpp), not a nonblocking wire protocol.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace tl::comm {

class World;
class Communicator;

/// Tags at or above this value are reserved for the collectives built on
/// point-to-point messaging (broadcast, allreduce). User-level
/// protocols — notably the halo exchanger's `tag * 8 + subtag` scheme —
/// must keep every derived tag strictly below this base; HaloExchanger
/// throws (and dist/kernels.cpp static_asserts) on violation so a tag
/// collision with a collective surfaces as an error, not a hang.
inline constexpr int kCollectiveTagBase = 1 << 24;

/// Per-rank handle passed to the rank body. Thread-compatible: each rank
/// uses its own Communicator from its own thread.
class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Blocking tagged send/recv of doubles. Messages between a (source,
  /// dest, tag) triple are delivered in order.
  void send(std::span<const double> data, int dest, int tag);
  void recv(std::span<double> data, int source, int tag);

  /// Nonblocking probe-and-receive: delivers and returns true iff a
  /// matching (source, tag) message is already queued; never waits. The
  /// fault-tolerant retry protocol's receive phase is built on this.
  bool try_recv(std::span<double> data, int source, int tag);

  void barrier();

  /// Broadcast from root into `data` on every rank.
  void broadcast(std::span<double> data, int root);

  /// Elementwise sum over every rank, accumulated in rank order 0..P-1, so
  /// every rank receives the same bits.
  double allreduce(double value);
  void allreduce(std::span<double> values);

 private:
  friend class World;
  Communicator(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_;
  int rank_;
};

/// Runs `body(comm)` on `nranks` threads, each with its own rank. Any
/// exception thrown by a rank is rethrown (first rank's exception wins)
/// after all threads join. A nonzero `recv_timeout` arms the World's
/// deadlock guard (see World::set_recv_timeout).
void run_ranks(int nranks, const std::function<void(Communicator&)>& body,
               std::chrono::milliseconds recv_timeout =
                   std::chrono::milliseconds{0});

/// The shared state behind a set of communicators. Exposed for tests that
/// want to drive ranks manually instead of via run_ranks.
class World {
 public:
  explicit World(int nranks);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const noexcept { return nranks_; }
  Communicator communicator(int rank);

  /// Deadlock guard: bounds every recv wait. A recv that sees no matching
  /// (source, tag) message within the window throws std::runtime_error
  /// instead of blocking forever — mismatched tags in a send/recv pattern
  /// become a diagnosable failure, not a hang. Zero (the default) waits
  /// indefinitely. Set before the rank threads start.
  void set_recv_timeout(std::chrono::milliseconds timeout) noexcept {
    recv_timeout_ = timeout;
  }

 private:
  friend class Communicator;

  struct Message {
    int source;
    int tag;
    std::vector<double> payload;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  struct CollectiveState {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    std::uint64_t generation = 0;
    std::vector<double> scratch;
  };

  void send_impl(int source, int dest, int tag, std::span<const double> data);
  void recv_impl(int rank, int source, int tag, std::span<double> data);
  /// Nonblocking probe: delivers and returns true iff a matching message is
  /// already queued. Never waits.
  bool try_recv_impl(int rank, int source, int tag, std::span<double> data);
  void barrier_impl();

  int nranks_;
  std::chrono::milliseconds recv_timeout_{0};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  CollectiveState collective_;
};

}  // namespace tl::comm
