// Fixed-size worker thread pool.
//
// Runs the proactor-emulation file I/O service's blocking reads (option O4,
// asynchronous completions).  The EventProcessor has its own workers.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"

namespace cops {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; returns false after stop().
  bool submit(std::function<void()> task);

  // Stops accepting tasks, drains the queue, joins all workers.
  void stop();

  [[nodiscard]] size_t queue_depth() const { return tasks_.size(); }

 private:
  void worker_loop();

  MpmcQueue<std::function<void()>> tasks_;
  std::mutex mutex_;  // serializes stop()'s joins
  std::vector<std::thread> workers_;
};

}  // namespace cops
