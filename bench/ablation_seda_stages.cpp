// Ablation: the paper's SEDA critique (Section III), quantified.
//
// "SEDA's staged design ... suffers from additional thread
// switching/scheduling overheads ... This happens when there are more
// stages used than available processors, so that threads belonging to
// different stages contend for processors."
//
// Model: a request passes through S units of work.  The N-Server shape runs
// all S units inside ONE Event Processor event (one queue hop per request);
// the SEDA shape gives every unit its own stage — a queue + its own thread —
// so a request makes S queue hops and its work migrates across S threads.
// We measure end-to-end requests/s for S = 1, 2, 4, 8 stages.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/quota_priority_queue.hpp"

namespace {

// The Event Processor's queue as it runs without event scheduling (O8): one
// FIFO level whose quota never runs out.
using EventQueue = cops::QuotaPriorityQueue<uint64_t>;
const std::vector<size_t> kOneLevel = {SIZE_MAX};

// One unit of CPU work (~small parse/encode step).
inline uint64_t work_unit(uint64_t x) {
  for (int i = 0; i < 40; ++i) x = x * 0x9e3779b97f4a7c15ull + 1;
  return x;
}

// SEDA shape: `stages` queues, one thread each, requests hop through all.
double run_seda(int stages, int requests) {
  struct Stage {
    EventQueue queue{kOneLevel};
    std::thread thread;
  };
  std::vector<std::unique_ptr<Stage>> pipeline;
  std::atomic<int> completed{0};
  for (int s = 0; s < stages; ++s) {
    pipeline.push_back(std::make_unique<Stage>());
  }
  for (int s = 0; s < stages; ++s) {
    Stage* stage = pipeline[static_cast<size_t>(s)].get();
    Stage* next =
        s + 1 < stages ? pipeline[static_cast<size_t>(s) + 1].get() : nullptr;
    stage->thread = std::thread([stage, next, &completed] {
      while (auto item = stage->queue.pop()) {
        const uint64_t value = work_unit(*item);
        if (next != nullptr) {
          next->queue.push(value, 0);
        } else {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto start = cops::now();
  for (int i = 0; i < requests; ++i) {
    pipeline[0]->queue.push(static_cast<uint64_t>(i), 0);
  }
  while (completed.load() < requests) std::this_thread::yield();
  const double seconds = cops::to_seconds(cops::now() - start);
  for (auto& stage : pipeline) stage->queue.shutdown();
  for (auto& stage : pipeline) stage->thread.join();
  return requests / seconds;
}

// N-Server shape: one queue, one worker, all S units fused per event.
double run_fused(int stages, int requests) {
  EventQueue queue{kOneLevel};
  std::atomic<int> completed{0};
  std::thread worker([&] {
    while (auto item = queue.pop()) {
      uint64_t value = *item;
      for (int s = 0; s < stages; ++s) value = work_unit(value);
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto start = cops::now();
  for (int i = 0; i < requests; ++i) queue.push(static_cast<uint64_t>(i), 0);
  while (completed.load() < requests) std::this_thread::yield();
  const double seconds = cops::to_seconds(cops::now() - start);
  queue.shutdown();
  worker.join();
  return requests / seconds;
}

}  // namespace

int main() {
  using namespace cops;
  bench::print_header(
      "ABLATION — SEDA staging overhead (the paper's Section III critique)",
      "Same total work per request; SEDA gives each unit its own stage "
      "(queue + thread),\nthe N-Server fuses all units into one event.  "
      "More stages than CPUs → switching overhead.");

  const auto env = bench::bench_env();
  const int requests = env.quick ? 30'000 : 150'000;
  const unsigned cpus = std::thread::hardware_concurrency();

  std::printf("(host has %u hardware thread(s))\n\n", cpus);
  std::printf("%8s %18s %18s %14s\n", "stages", "SEDA req/s",
              "N-Server req/s", "SEDA penalty");
  for (int stages : {1, 2, 4, 8}) {
    const double seda = run_seda(stages, requests);
    const double fused = run_fused(stages, requests);
    std::printf("%8d %18.0f %18.0f %13.2fx\n", stages, seda, fused,
                fused / seda);
  }
  std::printf(
      "\nWith stages > CPUs every request migrates across contending "
      "threads; the fused (generated) pipeline pays one queue hop total — "
      "the reason the N-Server runs hooks in a single Event Processor "
      "rather than a stage per step.\n");
  return 0;
}
