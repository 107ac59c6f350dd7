#include "common/thread_pool.hpp"

namespace cops {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { stop(); }

bool ThreadPool::submit(std::function<void()> task) {
  return tasks_.push(std::move(task));
}

void ThreadPool::stop() {
  tasks_.shutdown();
  std::lock_guard lock(mutex_);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::worker_loop() {
  while (auto task = tasks_.pop()) (*task)();  // empty: shut down + drained
}

}  // namespace cops
