// TimerQueue cancel-under-fire tests on the *simulated* clock — no real
// sleeps anywhere (a 10-minute timer storm runs in microseconds of wall
// time) — and the O9 watermark configuration's admission edges.
#include <chrono>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "net/timer_queue.hpp"
#include "simnet/sim_engine.hpp"
#include "tests/watermark_gate.hpp"

namespace cops {
namespace {

using std::chrono::milliseconds;
using std::chrono::minutes;
using std::chrono::seconds;

// RAII virtual clock for tests that need no channels: SimEngine installs
// both seams; we only use the clock and advance().
class SimClockFixture : public ::testing::Test {
 protected:
  simnet::SimEngine engine_{99};
};

// ---- TimerQueue on the virtual clock ---------------------------------------

TEST_F(SimClockFixture, TimersFireInDeadlineOrderAcrossClockAdvances) {
  net::TimerQueue timers;
  std::vector<int> fired;
  timers.schedule_after(milliseconds(30), [&] { fired.push_back(3); });
  timers.schedule_after(milliseconds(10), [&] { fired.push_back(1); });
  timers.schedule_after(milliseconds(20), [&] { fired.push_back(2); });

  engine_.advance(milliseconds(15));
  timers.run_due();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  engine_.advance(milliseconds(100));
  timers.run_due();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(timers.pending(), 0u);
}

TEST_F(SimClockFixture, CancelUnderFire) {
  // A timer callback cancels a sibling due in the same batch: the sibling
  // must not fire even though it was already due when run_due() started.
  net::TimerQueue timers;
  std::vector<int> fired;
  net::TimerQueue::TimerId victim = 0;
  timers.schedule_after(milliseconds(10), [&] {
    fired.push_back(1);
    timers.cancel(victim);
  });
  victim = timers.schedule_after(milliseconds(20), [&] { fired.push_back(2); });
  timers.schedule_after(milliseconds(30), [&] { fired.push_back(3); });

  engine_.advance(milliseconds(60));
  timers.run_due();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(timers.pending(), 0u);
}

TEST_F(SimClockFixture, CallbackReschedulesItselfWithoutLivelock) {
  // A periodic timer re-arming from its own callback must fire once per
  // run_due batch, not loop forever on an already-passed deadline.
  net::TimerQueue timers;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    timers.schedule_after(milliseconds(10), tick);
  };
  timers.schedule_after(milliseconds(10), tick);
  for (int i = 0; i < 5; ++i) {
    engine_.advance(milliseconds(10));
    timers.run_due();
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(timers.pending(), 1u);
}

TEST_F(SimClockFixture, ClockJumpFiresEverythingDue) {
  // A large forward clock jump (NTP step, suspended VM) must fire every
  // timer exactly once, in order.
  net::TimerQueue timers;
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    timers.schedule_after(seconds(i + 1), [&fired, i] { fired.push_back(i); });
  }
  engine_.advance(minutes(10));  // jump past all deadlines at once
  EXPECT_EQ(timers.run_due(), 100u);
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[i], i);
}

TEST_F(SimClockFixture, CancelStormDoesNotGrowHeapUnboundedly) {
  // Schedule/cancel churn (every request under O7 re-arms an idle timer):
  // tombstones must be compacted, keeping heap_size < 2x pending.
  net::TimerQueue timers;
  std::mt19937_64 rng(7);
  std::vector<net::TimerQueue::TimerId> live;
  for (int round = 0; round < 2000; ++round) {
    live.push_back(
        timers.schedule_after(milliseconds(1 + rng() % 1000), [] {}));
    if (live.size() > 1 && rng() % 2 == 0) {
      const size_t idx = rng() % live.size();
      timers.cancel(live[idx]);
      live.erase(live.begin() + static_cast<long>(idx));
    }
  }
  EXPECT_LT(timers.heap_size(), 2 * timers.pending() + 2)
      << "tombstones were not compacted";
  // And exactly the survivors fire.
  engine_.advance(seconds(2));
  EXPECT_EQ(timers.run_due(), live.size());
  EXPECT_EQ(timers.pending(), 0u);
}

TEST_F(SimClockFixture, NextTimeoutNeverRoundsToZeroEarly) {
  // next_timeout_ms rounds *up*: a timer 1ns in the future must yield a
  // strictly positive timeout, or a poll loop would spin on CPU.
  net::TimerQueue timers;
  timers.schedule_at(now() + std::chrono::microseconds(1500), [] {});
  const int ms = timers.next_timeout_ms(500);
  EXPECT_GE(ms, 1);
  EXPECT_LE(ms, 2);
  // Cancelled timer at the top must not cause a spurious early wakeup.
  net::TimerQueue timers2;
  auto id = timers2.schedule_after(milliseconds(5), [] {});
  timers2.schedule_after(milliseconds(400), [] {});
  timers2.cancel(id);
  const int ms2 = timers2.next_timeout_ms(500);
  EXPECT_GE(ms2, 399);
}

// ---- O9 watermark admission edges ------------------------------------------
// The OverloadManager configuration the Server builds for overload =
// watermark must keep the paper's exact integer edges.

using test::Flip;
using test::WatermarkGate;

TEST(OverloadControlEdgeTest, ExactlyAtHighWatermarkDoesNotSuspend) {
  // The paper says "exceeds its specified high watermark": depth == high is
  // not overload.
  size_t depth = 20;
  WatermarkGate gate(/*high=*/20, /*low=*/5, {{"q", [&] { return depth; }}});
  EXPECT_EQ(gate.tick(), Flip::kNone);
  depth = 21;
  EXPECT_EQ(gate.tick(), Flip::kSuspend);
  EXPECT_TRUE(gate.suspended());
}

TEST(OverloadControlEdgeTest, ExactlyAtLowWatermarkDoesNotResume) {
  // "drops below a specified low watermark": depth == low keeps suspended.
  size_t depth = 25;
  WatermarkGate gate(/*high=*/20, /*low=*/5, {{"q", [&] { return depth; }}});
  EXPECT_EQ(gate.tick(), Flip::kSuspend);
  depth = 5;
  EXPECT_EQ(gate.tick(), Flip::kNone);
  EXPECT_TRUE(gate.suspended());
  depth = 4;
  EXPECT_EQ(gate.tick(), Flip::kResume);
  EXPECT_FALSE(gate.suspended());
}

TEST(OverloadControlEdgeTest, HysteresisBandNeverFlaps) {
  // Depths oscillating inside (low, high] must produce no decisions at all
  // in either state — that band is the hysteresis.
  size_t depth = 10;
  WatermarkGate gate(/*high=*/20, /*low=*/5, {{"q", [&] { return depth; }}});
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100; ++i) {
    depth = 6 + rng() % 15;  // 6..20 inclusive
    EXPECT_EQ(gate.tick(), Flip::kNone);
  }
  // Enter overload, then oscillate in the band again: still no decisions.
  depth = 100;
  EXPECT_EQ(gate.tick(), Flip::kSuspend);
  for (int i = 0; i < 100; ++i) {
    depth = 5 + rng() % 16;  // 5..20 inclusive
    EXPECT_EQ(gate.tick(), Flip::kNone);
  }
  EXPECT_EQ(gate.suspensions(), 1u);
}

TEST(OverloadControlEdgeTest, WorstQueueGoverns) {
  // Multiple watched queues: the *max* depth drives both edges, and resume
  // requires every queue below low.
  size_t cpu = 0;
  size_t disk = 0;
  WatermarkGate gate(/*high=*/10, /*low=*/3,
                     {{"cpu", [&] { return cpu; }},
                      {"disk", [&] { return disk; }}});
  cpu = 2;
  disk = 11;
  EXPECT_EQ(gate.tick(), Flip::kSuspend);
  disk = 0;
  cpu = 3;  // still not below low
  EXPECT_EQ(gate.tick(), Flip::kNone);
  cpu = 2;
  EXPECT_EQ(gate.tick(), Flip::kResume);
}

}  // namespace
}  // namespace cops
