#include "comm/minimpi.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

namespace tl::comm {

namespace {
// kCollectiveTagBase lives in the header so user-level tag schemes can
// assert they stay below the reserved collective range.
constexpr int kTagBroadcast = kCollectiveTagBase + 1;
constexpr int kTagReduceUp = kCollectiveTagBase + 2;
constexpr int kTagReduceDown = kCollectiveTagBase + 3;
}  // namespace

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(int nranks) : nranks_(nranks) {
  if (nranks <= 0) throw std::invalid_argument("World: nranks must be > 0");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

World::~World() = default;

Communicator World::communicator(int rank) {
  if (rank < 0 || rank >= nranks_) {
    throw std::out_of_range("World::communicator: bad rank");
  }
  return Communicator(this, rank);
}

void World::send_impl(int source, int dest, int tag,
                      std::span<const double> data) {
  if (dest < 0 || dest >= nranks_) {
    throw std::out_of_range("send: bad destination rank");
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.messages.push_back(
        Message{source, tag, std::vector<double>(data.begin(), data.end())});
  }
  box.cv.notify_all();
}

void World::recv_impl(int rank, int source, int tag, std::span<double> data) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto find_match = [&] {
    return std::find_if(box.messages.begin(), box.messages.end(),
                        [&](const Message& m) {
                          return m.source == source && m.tag == tag;
                        });
  };
  for (;;) {
    const auto it = find_match();
    if (it != box.messages.end()) {
      if (it->payload.size() != data.size()) {
        throw std::runtime_error("recv: message size mismatch");
      }
      std::copy(it->payload.begin(), it->payload.end(), data.begin());
      box.messages.erase(it);
      return;
    }
    if (recv_timeout_.count() <= 0) {
      box.cv.wait(lock);
    } else if (!box.cv.wait_for(lock, recv_timeout_, [&] {
                 return find_match() != box.messages.end();
               })) {
      throw std::runtime_error(
          "recv: timed out waiting for (source=" + std::to_string(source) +
          ", tag=" + std::to_string(tag) +
          ") — likely deadlock (mismatched tags?)");
    }
  }
}

bool World::try_recv_impl(int rank, int source, int tag,
                          std::span<double> data) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(box.mutex);
  const auto it = std::find_if(box.messages.begin(), box.messages.end(),
                               [&](const Message& m) {
                                 return m.source == source && m.tag == tag;
                               });
  if (it == box.messages.end()) return false;
  if (it->payload.size() != data.size()) {
    throw std::runtime_error("recv: message size mismatch");
  }
  std::copy(it->payload.begin(), it->payload.end(), data.begin());
  box.messages.erase(it);
  return true;
}

void World::barrier_impl() {
  std::unique_lock<std::mutex> lock(collective_.mutex);
  const std::uint64_t my_generation = collective_.generation;
  if (++collective_.arrived == nranks_) {
    collective_.arrived = 0;
    ++collective_.generation;
    collective_.cv.notify_all();
    return;
  }
  collective_.cv.wait(lock, [&] {
    return collective_.generation != my_generation;
  });
}

// ---------------------------------------------------------------------------
// Communicator
// ---------------------------------------------------------------------------

int Communicator::size() const noexcept { return world_->size(); }

void Communicator::send(std::span<const double> data, int dest, int tag) {
  world_->send_impl(rank_, dest, tag, data);
}

void Communicator::recv(std::span<double> data, int source, int tag) {
  world_->recv_impl(rank_, source, tag, data);
}

bool Communicator::try_recv(std::span<double> data, int source, int tag) {
  return world_->try_recv_impl(rank_, source, tag, data);
}

void Communicator::barrier() { world_->barrier_impl(); }

void Communicator::broadcast(std::span<double> data, int root) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) world_->send_impl(rank_, r, kTagBroadcast, data);
    }
  } else {
    world_->recv_impl(rank_, root, kTagBroadcast, data);
  }
}

void Communicator::allreduce(std::span<double> values) {
  // Reduce-to-root then broadcast. Rank order of accumulation is fixed
  // (0..P-1), so the result is deterministic.
  constexpr int root = 0;
  if (rank_ == root) {
    std::vector<double> incoming(values.size());
    for (int r = 1; r < size(); ++r) {
      world_->recv_impl(rank_, r, kTagReduceUp, incoming);
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += incoming[i];
    }
    for (int r = 1; r < size(); ++r) {
      world_->send_impl(rank_, r, kTagReduceDown, values);
    }
  } else {
    world_->send_impl(rank_, root, kTagReduceUp, values);
    world_->recv_impl(rank_, root, kTagReduceDown, values);
  }
}

double Communicator::allreduce(double value) {
  double buf[1] = {value};
  allreduce(std::span<double>(buf, 1));
  return buf[0];
}

// ---------------------------------------------------------------------------
// run_ranks
// ---------------------------------------------------------------------------

void run_ranks(int nranks, const std::function<void(Communicator&)>& body,
               std::chrono::milliseconds recv_timeout) {
  World world(nranks);
  world.set_recv_timeout(recv_timeout);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &body, &errors, r] {
      try {
        Communicator comm = world.communicator(r);
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace tl::comm
