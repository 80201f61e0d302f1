#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace stcg {

int ThreadPool::hardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(threads, 1)) {
  // The caller of parallelFor is one lane; only the others get threads.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int lane = 1; lane < threads_; ++lane) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(const std::function<void(std::size_t)>& body,
                     std::size_t i) {
  try {
    body(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(m_);
    if (firstError_ == nullptr || i < errIndex_) {
      firstError_ = std::current_exception();
      errIndex_ = i;
    }
  }
}

void ThreadPool::drain() {
  for (;;) {
    const std::size_t begin =
        cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= n_) return;
    const std::size_t end = std::min(begin + chunk_, n_);
    for (std::size_t i = begin; i < end; ++i) run(*body_, i);
  }
}

void ThreadPool::workerLoop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || (open_ && epoch_ != seen); });
    if (stop_) return;
    seen = epoch_;
    ++active_;
    lock.unlock();
    drain();
    lock.lock();
    if (--active_ == 0 && !open_) doneCv_.notify_one();
  }
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_ <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(body, i);
  } else {
    {
      // active_ is 0 here: the previous call waited for it before
      // returning, so no worker still reads the batch being replaced.
      std::lock_guard<std::mutex> lock(m_);
      body_ = &body;
      n_ = n;
      chunk_ = std::max<std::size_t>(
          n / (8 * static_cast<std::size_t>(threads_)), 1);
      cursor_.store(0, std::memory_order_relaxed);
      open_ = true;
      ++epoch_;
    }
    cv_.notify_all();
    drain();
    // The cursor is exhausted; close the batch so no late worker joins,
    // then wait for the ones that did to finish their claimed chunks.
    {
      std::unique_lock<std::mutex> lock(m_);
      open_ = false;
      doneCv_.wait(lock, [&] { return active_ == 0; });
    }
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(m_);
    err = std::exchange(firstError_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace stcg
