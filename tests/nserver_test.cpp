// Unit tests for the N-Server framework components.
#include <gtest/gtest.h>

#include <future>
#include <set>
#include <thread>

#include "nserver/debug_trace.hpp"
#include "nserver/event_processor.hpp"
#include "nserver/file_cache.hpp"
#include "nserver/file_io_service.hpp"
#include "nserver/options.hpp"
#include "nserver/processor_controller.hpp"
#include "nserver/profiler.hpp"
#include "tests/test_util.hpp"
#include "tests/watermark_gate.hpp"

namespace cops::nserver {
namespace {

Event make_event(std::function<void()> fn, int priority = 0) {
  Event e;
  e.priority = priority;
  e.action = std::move(fn);
  return e;
}

// ---------- EventProcessor ---------------------------------------------------

TEST(EventProcessor, ProcessesSubmittedEvents) {
  EventProcessor processor({.name = "t", .threads = 2});
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    processor.submit(make_event([&] { count.fetch_add(1); }));
  }
  processor.stop();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(processor.processed(), 200u);
}

TEST(EventProcessor, InlineModeRunsOnCaller) {
  EventProcessor processor({.name = "inline", .threads = 0});
  EXPECT_TRUE(processor.inline_mode());
  std::thread::id runner;
  processor.submit(make_event([&] { runner = std::this_thread::get_id(); }));
  EXPECT_EQ(runner, std::this_thread::get_id());
}

TEST(EventProcessor, SubmitAfterStopFails) {
  EventProcessor processor({.name = "t", .threads = 1});
  processor.stop();
  EXPECT_FALSE(processor.submit(make_event([] {})));
}

TEST(EventProcessor, SchedulingModeRespectsPriorities) {
  // Single thread, scheduling on: queue several events while the worker is
  // blocked, then check the high-priority ones run first.
  EventProcessor processor(
      {.name = "sched", .threads = 1, .scheduling = true,
       .priority_quotas = {100, 1}});
  std::mutex gate;
  gate.lock();
  std::vector<int> order;
  std::mutex order_mutex;
  processor.submit(make_event([&] { std::lock_guard hold(gate); }));  // block
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 3; ++i) {
    processor.submit(make_event(
        [&order, &order_mutex, i] {
          std::lock_guard lock(order_mutex);
          order.push_back(100 + i);
        },
        /*priority=*/1));
  }
  for (int i = 0; i < 3; ++i) {
    processor.submit(make_event(
        [&order, &order_mutex, i] {
          std::lock_guard lock(order_mutex);
          order.push_back(i);
        },
        /*priority=*/0));
  }
  gate.unlock();
  processor.stop();
  ASSERT_EQ(order.size(), 6u);
  // With quota 100 for level 0, all three high-priority events precede the
  // low-priority ones.
  EXPECT_LT(order[0], 100);
  EXPECT_LT(order[1], 100);
  EXPECT_LT(order[2], 100);
}

TEST(EventProcessor, ResizeGrowsAndShrinks) {
  EventProcessor processor({.name = "r", .threads = 1});
  processor.resize(4);
  EXPECT_EQ(processor.num_threads(), 4u);
  processor.resize(2);
  for (int i = 0; i < 200 && processor.num_threads() > 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(processor.num_threads(), 2u);
  processor.stop();
}

TEST(EventProcessor, QueueDepthVisible) {
  EventProcessor processor({.name = "d", .threads = 1});
  std::mutex gate;
  gate.lock();
  processor.submit(make_event([&] { std::lock_guard hold(gate); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int i = 0; i < 5; ++i) processor.submit(make_event([] {}));
  EXPECT_GE(processor.queue_depth(), 4u);
  gate.unlock();
  processor.stop();
  EXPECT_EQ(processor.queue_depth(), 0u);
}

TEST(EventProcessor, ShrunkPoolRunsEventsOnTheSurvivorOnly) {
  // Once num_threads() reports the smaller pool, the retired workers must
  // have stopped taking events: only the survivor may run what follows.
  for (int round = 0; round < 20; ++round) {
    EventProcessor processor({.name = "s", .threads = 4});
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // all parked
    processor.resize(1);
    for (int i = 0; i < 1000 && processor.num_threads() > 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(processor.num_threads(), 1u);
    std::mutex runners_mutex;
    std::set<std::thread::id> runners;
    for (int i = 0; i < 400; ++i) {
      processor.submit(make_event([&] {
        std::lock_guard lock(runners_mutex);
        runners.insert(std::this_thread::get_id());
      }));
    }
    processor.stop();
    EXPECT_EQ(runners.size(), 1u) << "round " << round;
  }
}

TEST(EventProcessor, ShrinkingTwiceThenDestroyingJoinsEveryWorker) {
  // A retired worker may still be parked in the queue when the next resize()
  // runs; the processor must join it rather than free the queue under it
  // (ThreadSanitizer reports the latter as a race with the queue's wait).
  for (int round = 0; round < 20; ++round) {
    auto processor =
        std::make_unique<EventProcessor>(EventProcessorConfig{
            .name = "s2", .threads = 4});
    processor->resize(2);
    processor->resize(1);
    processor.reset();
  }
}

// ---------- ProcessorController ----------------------------------------------

TEST(ProcessorController, GrowsUnderBacklog) {
  EventProcessor processor({.name = "c", .threads = 1});
  ProcessorController controller(processor,
                                 {.min_threads = 1,
                                  .max_threads = 4,
                                  .grow_threshold = 2,
                                  .shrink_after_ticks = 3});
  std::mutex gate;
  gate.lock();
  processor.submit(make_event([&] { std::lock_guard hold(gate); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int i = 0; i < 10; ++i) processor.submit(make_event([] {}));
  EXPECT_EQ(controller.tick(), 1);  // grew
  EXPECT_EQ(processor.num_threads(), 2u);
  gate.unlock();
  processor.stop();
}

TEST(ProcessorController, ShrinksAfterIdleTicks) {
  EventProcessor processor({.name = "c2", .threads = 3});
  ProcessorController controller(processor,
                                 {.min_threads = 1,
                                  .max_threads = 4,
                                  .grow_threshold = 2,
                                  .shrink_after_ticks = 2});
  EXPECT_EQ(controller.tick(), 0);   // idle tick 1
  EXPECT_EQ(controller.tick(), -1);  // idle tick 2 → shrink
  EXPECT_EQ(controller.shrink_count(), 1u);
  processor.stop();
}

TEST(ProcessorController, RespectsMinimum) {
  EventProcessor processor({.name = "c3", .threads = 1});
  ProcessorController controller(
      processor,
      {.min_threads = 1, .max_threads = 4, .grow_threshold = 2,
       .shrink_after_ticks = 1});
  EXPECT_EQ(controller.tick(), 0);
  EXPECT_EQ(controller.tick(), 0);  // never below min
  processor.stop();
}

// ---------- FileIoService ----------------------------------------------------

TEST(FileIoService, SyncReadReturnsContents) {
  test::TempDir dir;
  dir.write_file("f.txt", "file-contents");
  auto result = FileIoService::read_file(dir.str() + "/f.txt");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()->bytes, "file-contents");
  EXPECT_EQ(result.value()->size(), 13u);
  EXPECT_GT(result.value()->mtime_seconds, 0);
}

TEST(FileIoService, SyncReadMissingFileIsNotFound) {
  auto result = FileIoService::read_file("/nonexistent/nope");
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FileIoService, SyncReadDirectoryIsError) {
  test::TempDir dir;
  auto result = FileIoService::read_file(dir.str());
  EXPECT_FALSE(result.is_ok());
}

TEST(FileIoService, AsyncReadCompletesThroughExecutor) {
  test::TempDir dir;
  dir.write_file("a.txt", "async");
  FileIoService service(2);
  std::atomic<bool> done{false};
  std::atomic<bool> executor_used{false};
  service.async_read(
      dir.str() + "/a.txt",
      [&](Result<FileDataPtr> result) {
        ASSERT_TRUE(result.is_ok());
        EXPECT_EQ(result.value()->bytes, "async");
        done = true;
      },
      [&](std::function<void()> fn) {
        executor_used = true;
        fn();
      });
  for (int i = 0; i < 400 && !done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done.load());
  EXPECT_TRUE(executor_used.load());
  EXPECT_EQ(service.completed(), 1u);
  service.stop();
}

TEST(FileIoService, ManyConcurrentAsyncReads) {
  test::TempDir dir;
  for (int i = 0; i < 10; ++i) {
    dir.write_file("f" + std::to_string(i), std::string(100, 'a' + i % 26));
  }
  FileIoService service(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    service.async_read(
        dir.str() + "/f" + std::to_string(i % 10),
        [&](Result<FileDataPtr> result) {
          EXPECT_TRUE(result.is_ok());
          done.fetch_add(1);
        },
        [](std::function<void()> fn) { fn(); });
  }
  for (int i = 0; i < 1000 && done < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), 50);
  service.stop();
}

// pending() is the overload manager's "file-io" watched queue: the loads
// queued behind busy workers, which stop() still runs.
TEST(FileIoService, PendingCountsQueuedLoadsAndStopDrainsThem) {
  test::TempDir dir;
  dir.write_file("p.txt", "queued");
  const std::string path = dir.str() + "/p.txt";
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  FileIoService::set_test_pre_open_hook([&](const std::string& opened) {
    if (opened != path) return;
    entered.fetch_add(1);
    released.wait();
  });
  FileIoService service(2);
  std::atomic<int> done{0};
  auto load = [&] {
    service.async_read(
        path,
        [&done](Result<FileDataPtr> result) {
          EXPECT_TRUE(result.is_ok());
          done.fetch_add(1);
        },
        [](std::function<void()> fn) { fn(); });
  };
  load();
  load();
  for (int i = 0; i < 2000 && entered.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(entered.load(), 2);  // both workers are held in the hook
  EXPECT_EQ(service.pending(), 0u);
  for (int i = 0; i < 3; ++i) load();
  EXPECT_EQ(service.pending(), 3u);
  EXPECT_EQ(service.completed(), 0u);

  release.set_value();
  service.stop();
  FileIoService::set_test_pre_open_hook(nullptr);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.completed(), 5u);
  EXPECT_EQ(done.load(), 5);
}

// ---------- ThreadPool -------------------------------------------------------
// The proactor-emulation pool: FileIoService's own "file-io" EventProcessor.

TEST(ThreadPool, ExecutesSubmittedTasks) {
  test::TempDir dir;
  dir.write_file("t.txt", "task");
  FileIoService service(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    service.async_read(
        dir.str() + "/t.txt",
        [&count](Result<FileDataPtr> result) {
          if (result.is_ok()) count.fetch_add(1);
        },
        [](std::function<void()> fn) { fn(); });
  }
  service.stop();  // drains the queue, then joins
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(service.completed(), 100u);
}

TEST(ThreadPool, SubmitAfterStopFails) {
  FileIoService service(1);
  service.stop();
  bool ran = false;
  service.async_read(
      "/nonexistent/nope", [&ran](Result<FileDataPtr>) { ran = true; },
      [](std::function<void()> fn) { fn(); });
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.completed(), 0u);
  EXPECT_FALSE(ran);
}

// ---------- Options validation ------------------------------------------------

TEST(Options, DefaultsAreValid) {
  ServerOptions options;
  EXPECT_EQ(options.validate(), "");
}

TEST(Options, SchedulingRequiresPool) {
  ServerOptions options;
  options.separate_processor_pool = false;
  options.completion = CompletionMode::kAsynchronous;
  options.event_scheduling = true;
  EXPECT_NE(options.validate(), "");
}

TEST(Options, SyncCompletionRequiresPool) {
  ServerOptions options;
  options.separate_processor_pool = false;
  options.completion = CompletionMode::kSynchronous;
  EXPECT_NE(options.validate(), "");
}

TEST(Options, WatermarksMustBeOrdered) {
  ServerOptions options;
  options.overload_control = true;
  options.queue_high_watermark = 5;
  options.queue_low_watermark = 5;
  EXPECT_NE(options.validate(), "");
}

TEST(Options, ZeroLowWatermarkRejected) {
  // Accept resumes only when every queue drops *below* the low watermark,
  // which no length can do for 0: the first trip would never end.
  ServerOptions options;
  options.overload_control = true;
  options.queue_low_watermark = 0;
  const std::string problem = options.validate();
  EXPECT_EQ(problem.rfind("O9:", 0), 0u) << problem;
  options.queue_low_watermark = 1;
  EXPECT_EQ(options.validate(), "");
}

TEST(Options, DynamicNeedsSaneBounds) {
  ServerOptions options;
  options.thread_allocation = ThreadAllocation::kDynamic;
  options.min_processor_threads = 9;
  options.max_processor_threads = 2;
  EXPECT_NE(options.validate(), "");
}

TEST(Options, ZeroDispatchersInvalid) {
  ServerOptions options;
  options.dispatcher_threads = 0;
  EXPECT_NE(options.validate(), "");
}

TEST(Options, EnumToString) {
  EXPECT_STREQ(to_string(IoBackend::kEpoll), "Epoll");
}

// ---------- O9 watermark gate ------------------------------------------------
// The paper's watermark gate, run as the OverloadManager configuration the
// Server builds for overload = watermark.  The suite keeps the name of the
// class this configuration replaced.

using test::Flip;
using test::WatermarkGate;

TEST(OverloadController, SuspendsAboveHighWatermark) {
  size_t depth = 0;
  WatermarkGate gate(20, 5, {{"q", [&] { return depth; }}});
  EXPECT_EQ(gate.tick(), Flip::kNone);
  depth = 21;
  EXPECT_EQ(gate.tick(), Flip::kSuspend);
  EXPECT_TRUE(gate.suspended());
}

TEST(OverloadController, ResumesBelowLowWatermark) {
  size_t depth = 25;
  WatermarkGate gate(20, 5, {{"q", [&] { return depth; }}});
  gate.tick();  // suspend
  depth = 10;   // between watermarks: hysteresis holds
  EXPECT_EQ(gate.tick(), Flip::kNone);
  depth = 4;
  EXPECT_EQ(gate.tick(), Flip::kResume);
  EXPECT_FALSE(gate.suspended());
}

TEST(OverloadController, AnyOfMultipleQueuesTrips) {
  size_t cpu = 0;
  size_t disk = 0;
  WatermarkGate gate(20, 5, {{"cpu", [&] { return cpu; }},
                             {"disk", [&] { return disk; }}});
  disk = 30;  // the disk bottleneck alone triggers suspension
  EXPECT_EQ(gate.tick(), Flip::kSuspend);
  disk = 0;
  cpu = 30;  // still overloaded via the other queue
  EXPECT_EQ(gate.tick(), Flip::kNone);
  cpu = 0;
  EXPECT_EQ(gate.tick(), Flip::kResume);
  EXPECT_EQ(gate.suspensions(), 1u);
}

// ---------- Profiler -----------------------------------------------------------

TEST(Profiler, CountersAccumulate) {
  Profiler profiler;
  profiler.count_accept();
  profiler.count_accept();
  profiler.count_bytes_read(100);
  profiler.count_bytes_sent(250);
  profiler.count_request();
  profiler.count_reply();
  auto snap = profiler.snapshot(7, 0.5);
  EXPECT_EQ(snap.connections_accepted, 2u);
  EXPECT_EQ(snap.bytes_read, 100u);
  EXPECT_EQ(snap.bytes_sent, 250u);
  EXPECT_EQ(snap.requests_decoded, 1u);
  EXPECT_EQ(snap.replies_sent, 1u);
  EXPECT_EQ(snap.events_processed, 7u);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate, 0.5);
}

// ---------- DebugTracer ---------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(DebugTracer, RecordsAndDumps) {
  test::TempDir dir;
  const std::string path = dir.str() + "/trace.log";
  {
    DebugTracer tracer(path, 100);
    tracer.record(EventKind::kAccept, 1, "accepted");
    tracer.record(EventKind::kDecode, 1, "queued");
    tracer.dump();
    // dump() emptied the ring: neither a second dump nor the destructor's
    // writes the two events again.
    tracer.dump();
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("Accept"), std::string::npos);
  EXPECT_NE(lines[1].find("Decode"), std::string::npos);
  EXPECT_NE(lines[0].find("conn=1"), std::string::npos);
}

TEST(DebugTracer, RingDropsOldest) {
  test::TempDir dir;
  const std::string path = dir.str() + "/t.log";
  DebugTracer tracer(path, 4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(EventKind::kUser, static_cast<uint64_t>(i), "e");
  }
  EXPECT_EQ(tracer.total_recorded(), 10u);
  tracer.dump();
  // The ring kept the newest four; the six oldest are reported as dropped.
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "# 6 earlier events dropped (ring full)");
  EXPECT_NE(lines[1].find("conn=6 "), std::string::npos);
  EXPECT_NE(lines[4].find("conn=9 "), std::string::npos);
}

}  // namespace
}  // namespace cops::nserver
