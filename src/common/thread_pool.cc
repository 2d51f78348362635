#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace harmony {

thread_local bool ThreadPool::in_worker_ = false;

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    tasks_.push(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  in_worker_ = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      active_++;
    }
    task();
    {
      std::unique_lock<std::mutex> lk(mu_);
      active_--;
      if (active_ == 0 && tasks_.empty()) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return active_ == 0 && tasks_.empty(); });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (in_worker_ || n == 1 || workers_.size() == 1) {
    for (size_t i = 0; i < n; i++) fn(i);
    return;
  }
  const size_t chunks = std::min(n, workers_.size() * 4);
  const size_t per = (n + chunks - 1) / chunks;
  // Chunks are claimed from a shared counter by the pool's helpers *and* by
  // the caller, so a caller whose helpers sit queued behind other work (a
  // commit step while the next block simulates) still makes progress on its
  // own. The state is shared-owned: a helper dequeued after the caller
  // returned finds no chunk left and never touches `fn` or this frame.
  struct Progress {
    std::atomic<size_t> next{0};
    size_t done = 0;  // chunks finished, guarded by mu
    std::mutex mu;
    std::condition_variable cv;
  };
  auto progress = std::make_shared<Progress>();
  auto run = [progress, &fn, chunks, per, n] {
    size_t ran = 0;
    for (size_t c; (c = progress->next.fetch_add(1)) < chunks; ran++) {
      const size_t hi = std::min(n, (c + 1) * per);
      for (size_t i = c * per; i < hi; i++) fn(i);
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lk(progress->mu);
    progress->done += ran;
    if (progress->done == chunks) progress->cv.notify_all();
  };
  const size_t helpers = std::min(chunks, workers_.size());
  for (size_t h = 0; h < helpers; h++) Submit(run);
  run();
  std::unique_lock<std::mutex> lk(progress->mu);
  progress->cv.wait(lk, [&] { return progress->done == chunks; });
}

void ThreadPool::ParallelShards(size_t shards,
                                const std::function<void(size_t)>& fn) {
  if (shards == 0) return;
  if (in_worker_ || shards == 1 || workers_.size() == 1) {
    for (size_t s = 0; s < shards; s++) fn(s);
    return;
  }
  // Same stack-lifetime discipline as ParallelFor: increment under the
  // mutex so no worker touches this frame after the wait can return.
  size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t s = 0; s < shards; s++) {
    Submit([&, s] {
      fn(s);
      std::lock_guard<std::mutex> lk(done_mu);
      if (++done == shards) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(done_mu);
  done_cv.wait(lk, [&] { return done == shards; });
}

}  // namespace harmony
