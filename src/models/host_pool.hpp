#pragma once
// HostPool: a fork-join worker pool, the execution engine behind the
// host-side model layers and the fused reference kernels.
//
// Work is split into `grain`-sized chunks that threads claim dynamically
// through an atomic cursor. The chunking depends only on (begin, end, grain)
// — never on the thread count or on claim order — so a reduction is
// bit-identical at 1, 2, or 8 threads: each chunk writes a private partial
// slot, and the slots are combined by a pairwise (tree) fold in chunk order,
// which also accumulates less rounding drift than a running left-fold.
//
// The public entry points are templates dispatching through a raw function
// pointer (ChunkFn), so hot loops never allocate or type-erase through
// std::function. With `threads == 1` (the default on this single-core
// machine) execution degenerates to a plain chunked loop, but the pool is
// fully functional and is exercised multi-threaded by the test suite.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/stats.hpp"

namespace models {

class HostPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency().
  explicit HostPool(unsigned threads = 1);
  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Raw dispatch seam: invoked once per chunk with that chunk's
  /// [begin, end) and its index in iteration order.
  using ChunkFn = void (*)(void* ctx, std::int64_t begin, std::int64_t end,
                           std::int64_t chunk_index);

  /// Chunk length actually used for a range of `total` iterations.
  /// grain > 0 is honoured exactly; grain == 0 picks a default aiming at
  /// kDefaultChunksPerRange chunks, a function of the range extent only
  /// (never the thread count), so default-grain reductions stay
  /// thread-count-invariant too.
  static constexpr std::int64_t kDefaultChunksPerRange = 64;
  static std::int64_t effective_grain(std::int64_t total,
                                      std::int64_t grain) noexcept {
    if (grain > 0) return grain;
    const std::int64_t g = total / kDefaultChunksPerRange;
    return g < 1 ? 1 : g;
  }

  /// Splits [begin, end) into grain-sized chunks and runs
  /// `body(chunk_begin, chunk_end)` on each. Blocks until all complete.
  template <typename Body>
  void parallel_for(std::int64_t begin, std::int64_t end, Body&& body,
                    std::int64_t grain = 0) {
    if (begin >= end) return;
    run_chunks(begin, end, effective_grain(end - begin, grain),
               &invoke_for<std::remove_reference_t<Body>>,
               std::addressof(body));
  }

  /// Reduction variant: `body(chunk_begin, chunk_end) -> double` partials,
  /// one per chunk, combined pairwise in chunk order.
  template <typename Body>
  double parallel_reduce_sum(std::int64_t begin, std::int64_t end, Body&& body,
                             std::int64_t grain = 0) {
    if (begin >= end) return 0.0;
    const std::int64_t g = effective_grain(end - begin, grain);
    const std::int64_t nchunks = (end - begin + g - 1) / g;
    partials_.assign(static_cast<std::size_t>(nchunks), 0.0);
    ReduceCtx<std::remove_reference_t<Body>> ctx{std::addressof(body),
                                                 partials_.data()};
    run_chunks(begin, end, g, &invoke_reduce<std::remove_reference_t<Body>>,
               &ctx);
    return tl::util::pairwise_sum(partials_.data(), nchunks);
  }

 private:
  template <typename Body>
  static void invoke_for(void* ctx, std::int64_t b, std::int64_t e,
                         std::int64_t) {
    (*static_cast<Body*>(ctx))(b, e);
  }

  template <typename Body>
  struct ReduceCtx {
    Body* body;
    double* partials;
  };

  template <typename Body>
  static void invoke_reduce(void* ctx, std::int64_t b, std::int64_t e,
                            std::int64_t chunk_index) {
    auto* c = static_cast<ReduceCtx<Body>*>(ctx);
    c->partials[chunk_index] = (*c->body)(b, e);
  }

  void run_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  ChunkFn fn, void* ctx);
  void claim_chunks();
  void worker_loop();

  /// The in-flight job. Written under mutex_ before the generation bump;
  /// stable until every participant has decremented pending_.
  struct Job {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    std::int64_t nchunks = 0;
    ChunkFn fn = nullptr;
    void* ctx = nullptr;
    std::atomic<std::int64_t> cursor{0};
  };

  std::vector<std::thread> threads_;
  bool workers_empty_ = true;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool shutdown_ = false;
  Job job_;
  std::vector<double> partials_;  // reduction slots, one per chunk
};

}  // namespace models
