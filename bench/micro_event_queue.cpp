// Micro-benchmark: the Event Processor's queue in its two shapes — one FIFO
// level (scheduling off) vs two quota levels (option O8).  Quantifies the
// cost of the structural variation the template generates.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/quota_priority_queue.hpp"
#include "nserver/event.hpp"
#include "nserver/event_processor.hpp"

namespace {

using cops::QuotaPriorityQueue;
using cops::nserver::Event;
using cops::nserver::EventProcessor;
using cops::nserver::EventProcessorConfig;

void fifo_queue_ops(benchmark::State& state) {
  QuotaPriorityQueue<int> queue({SIZE_MAX});  // the processor without O8
  int i = 0;
  for (auto _ : state) {
    queue.push(i++, 0);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(fifo_queue_ops);

void quota_priority_queue_ops(benchmark::State& state) {
  QuotaPriorityQueue<int> queue({8, 1});
  int i = 0;
  for (auto _ : state) {
    queue.push(i, i % 2);
    ++i;
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(quota_priority_queue_ops);

void processor_throughput(benchmark::State& state) {
  const bool scheduling = state.range(0) != 0;
  EventProcessorConfig config;
  config.name = "bench";
  config.threads = 2;
  config.scheduling = scheduling;
  EventProcessor processor(config);
  std::atomic<uint64_t> done{0};
  uint64_t submitted = 0;
  for (auto _ : state) {
    Event event;
    event.priority = static_cast<int>(submitted % 2);
    event.action = [&done] { done.fetch_add(1, std::memory_order_relaxed); };
    processor.submit(std::move(event));
    ++submitted;
  }
  while (done.load() < submitted) {
    std::this_thread::yield();
  }
  state.SetItemsProcessed(static_cast<int64_t>(submitted));
}
BENCHMARK(processor_throughput)->Arg(0)->Arg(1)->ArgName("scheduling");

void inline_processor_dispatch(benchmark::State& state) {
  // Option O2 = No: zero-thread processor runs events inline (SPED).
  EventProcessorConfig config;
  config.name = "inline";
  config.threads = 0;
  EventProcessor processor(config);
  uint64_t count = 0;
  for (auto _ : state) {
    Event event;
    event.action = [&count] { ++count; };
    processor.submit(std::move(event));
  }
  benchmark::DoNotOptimize(count);
  state.SetItemsProcessed(static_cast<int64_t>(count));
}
BENCHMARK(inline_processor_dispatch);

}  // namespace

BENCHMARK_MAIN();
