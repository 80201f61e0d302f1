// A small thread pool for index-space parallelism.
//
// The pool exists for the STCG solve grid: per generation round, the
// (uncovered goal × state-tree node) tasks are independent solver queries
// of wildly varying cost (a state-folded residual is nanoseconds, a hard
// box query is the full per-query budget). parallelFor() opens a batch
// over [0, n); the caller and every worker claim chunks of consecutive
// indices from one shared atomic cursor until it passes n, so a lane that
// draws expensive tasks simply claims fewer chunks. Chunks are n/(8·lanes)
// indices (at least 1): small enough that one slow chunk does not
// serialize the round, large enough that the cursor is not contended.
//
// Batch handover: a worker joins a batch only under the pool mutex while
// the batch is open, and counts itself active until its claims run dry.
// The caller closes the batch once the cursor is exhausted and returns
// only when no worker is active, so no lane can carry a claim from one
// batch into the next.
//
// Determinism contract: the pool promises only that every index in [0, n)
// is executed exactly once (in some order) before parallelFor returns.
// Callers that need order-independent results must make each task
// self-contained (own RNG stream, no shared mutable state) and reduce the
// results themselves — see campaign.cpp for the canonical pattern.
//
// Exceptions thrown by the body are captured; after all indices settle,
// the exception from the lowest-numbered throwing index is rethrown on
// the calling thread (lowest-index, so the choice does not depend on the
// thread schedule).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stcg {

class ThreadPool {
 public:
  /// A pool with `threads` total lanes of parallelism, *including* the
  /// thread that calls parallelFor (which always participates). Values
  /// <= 1 mean no worker threads are spawned and parallelFor degrades to
  /// an inline sequential loop over 0..n-1.
  explicit ThreadPool(int threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Safe to call with no parallelFor in flight.
  ~ThreadPool();

  [[nodiscard]] int threadCount() const { return threads_; }

  /// Execute body(i) for every i in [0, n), across the pool plus the
  /// calling thread. Blocks until all indices settle, then rethrows the
  /// lowest-index captured exception, if any. Not reentrant: do not call
  /// parallelFor from inside a body.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Total lanes the hardware offers (>= 1 even when unknown).
  [[nodiscard]] static int hardwareThreads();

 private:
  void workerLoop();
  /// Claim chunks from the cursor and run them until it passes n_.
  void drain();
  /// body(i), keeping the lowest-index exception for parallelFor.
  void run(const std::function<void(std::size_t)>& body, std::size_t i);

  const int threads_;

  std::mutex m_;
  std::condition_variable cv_;      // workers wait for an open batch
  std::condition_variable doneCv_;  // caller waits for active_ == 0
  // The batch, written by the caller under m_ only while active_ == 0 and
  // read by workers only after they joined under m_.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::uint64_t epoch_ = 0;  // batches opened so far
  bool open_ = false;        // workers may still join the current batch
  int active_ = 0;           // workers inside drain() for this batch
  bool stop_ = false;
  std::atomic<std::size_t> cursor_{0};
  // Lowest-index exception of the current call, also guarded by m_.
  std::size_t errIndex_ = 0;
  std::exception_ptr firstError_;

  std::vector<std::thread> workers_;  // last: joined before members die
};

}  // namespace stcg
