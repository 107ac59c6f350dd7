// Adaptive overload manager (overload = adaptive) — unit and scenario tests.
//
// Unit layers: the CoDel sliding-minimum queue-delay monitor, the graduated
// tier latches (engage ascending / release descending, with hysteresis),
// the pressure-decay-derived Retry-After bounds, the watermark configuration
// judged tick by tick against a reference model of the paper's rule, and
// the quota-queue pause floor behind the tier-2 action.
//
// Scenario layer (simnet, `chaos` label): a seeded 10× arrival spike into
// COPS-HTTP with a modeled per-request CPU cost.  The adaptive manager must
// bound the p99 latency of *admitted* requests by shedding the rest with
// 503 + Retry-After, then release every action once the spike drains; the
// classical watermark controller — which watches queue *length*, always
// zero in the inline SPED pipeline — admits everything and lets the backlog
// latency grow unbounded.  Same seed, same trace, twice.
#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/quota_priority_queue.hpp"
#include "http/http_server.hpp"
#include "nserver/event_processor.hpp"
#include "nserver/overload_manager.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops::nserver {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// ---- QueueDelayMonitor (CoDel sliding minimum) -------------------------------

TEST(QueueDelayMonitorTest, BurstForgivenStandingQueueFlagged) {
  QueueDelayMonitor monitor("q", milliseconds(5), milliseconds(100));
  const auto t = now();

  // A burst: one terrible sample next to one near-zero sample.  The sliding
  // *minimum* sees the good sample, so pressure stays low.
  monitor.record_delay(milliseconds(50));
  monitor.record_delay(milliseconds(0));
  auto reading = monitor.sample(t + milliseconds(1));
  EXPECT_LT(reading.pressure, 0.1) << "burst must be forgiven";

  // A standing queue: every sample in the window is above 2x target.
  monitor.record_delay(milliseconds(20));
  monitor.record_delay(milliseconds(30));
  monitor.record_delay(milliseconds(25));
  reading = monitor.sample(t + milliseconds(1));
  // The old near-zero sample is still inside the window, so min wins...
  EXPECT_LT(reading.pressure, 0.1);
  // ...until the window slides past it.
  reading = monitor.sample(t + milliseconds(300));
  EXPECT_DOUBLE_EQ(reading.pressure, 0.0) << "empty window means idle";

  monitor.record_delay(milliseconds(20));
  monitor.record_delay(milliseconds(30));
  reading = monitor.sample(now() + milliseconds(1));
  EXPECT_DOUBLE_EQ(reading.pressure, 1.0) << "standing queue at 2x target";
  EXPECT_NEAR(reading.raw, 0.020, 1e-9);
}

TEST(QueueDelayMonitorTest, PressureIsHalfAtTarget) {
  QueueDelayMonitor monitor("q", milliseconds(10), milliseconds(100));
  monitor.record_delay(milliseconds(10));
  const auto reading = monitor.sample(now() + milliseconds(1));
  // delay == target maps to 0.5, exactly the tier-1 engage threshold.
  EXPECT_DOUBLE_EQ(reading.pressure, 0.5);
}

// ---- graduated tiers ---------------------------------------------------------

// Drives the manager with a single externally-controlled gauge (alpha 1.0:
// no smoothing, the level IS the pressure) and logs every action
// transition.
struct TierHarness {
  explicit TierHarness(OverloadManagerConfig config) : manager(config) {
    level = std::make_shared<double>(0.0);
    auto value = [lvl = level] { return *lvl; };
    manager.add_monitor(
        std::make_unique<GaugeMonitor>("load", value, 1.0));
    OverloadActions actions;
    actions.conserve = [this](bool on) {
      log.push_back(on ? "+conserve" : "-conserve");
    };
    actions.pause_low_priority = [this](bool on) {
      log.push_back(on ? "+pause" : "-pause");
    };
    actions.shed = [this](bool on) { log.push_back(on ? "+shed" : "-shed"); };
    actions.stop_accept = [this](bool on) {
      log.push_back(on ? "+stop" : "-stop");
    };
    manager.set_actions(std::move(actions));
  }

  void step(double pressure) {
    *level = pressure;
    t += seconds(1);
    manager.tick(t);
  }

  OverloadManager manager;
  std::shared_ptr<double> level;
  std::vector<std::string> log;
  TimePoint t = now();
};

OverloadManagerConfig no_smoothing_config() {
  OverloadManagerConfig config;
  config.ewma_alpha = 1.0;
  return config;
}

std::vector<std::string> run_ramp(const std::vector<double>& levels) {
  TierHarness harness(no_smoothing_config());
  for (double level : levels) harness.step(level);
  return harness.log;
}

TEST(OverloadManagerTest, TiersEngageAscendingReleaseDescending) {
  // Rising ramp engages in severity order; falling ramp releases in exact
  // reverse — the quota-class pause engages before shedding and releases
  // after shedding ends, with hysteresis gaps (release at threshold - 0.10).
  const std::vector<double> ramp = {0.30, 0.55, 0.70, 0.85, 0.95,
                                    0.80, 0.68, 0.54, 0.35};
  const std::vector<std::string> expected = {
      "+conserve", "+pause", "+shed", "+stop",
      "-stop", "-shed", "-pause", "-conserve"};
  EXPECT_EQ(run_ramp(ramp), expected);
  // Deterministic: the same ramp yields the identical transition log.
  EXPECT_EQ(run_ramp(ramp), run_ramp(ramp));
}

TEST(OverloadManagerTest, HysteresisHoldsTierAcrossSmallDips) {
  TierHarness harness(no_smoothing_config());
  harness.step(0.85);  // engage conserve+pause+shed
  EXPECT_EQ(harness.manager.tier(), OverloadTier::kShed);
  harness.step(0.75);  // inside the hysteresis band (release at 0.70)
  EXPECT_EQ(harness.manager.tier(), OverloadTier::kShed)
      << "a dip inside the hysteresis band must not flap the tier";
  harness.step(0.69);  // below 0.70: shed releases, pause (0.55) holds
  EXPECT_EQ(harness.manager.tier(), OverloadTier::kPauseLowPriority);
}

TEST(OverloadManagerTest, SnapshotReportsMonitorsAndTier) {
  TierHarness harness(no_smoothing_config());
  harness.step(0.85);
  const auto snap = harness.manager.snapshot();
  ASSERT_EQ(snap.monitors.size(), 1u);
  EXPECT_EQ(snap.monitors[0].name, "load");
  EXPECT_DOUBLE_EQ(snap.monitors[0].smoothed, 0.85);
  EXPECT_DOUBLE_EQ(snap.pressure, 0.85);
  EXPECT_EQ(snap.tier, OverloadTier::kShed);
  EXPECT_TRUE(snap.conserving);
  EXPECT_TRUE(snap.low_priority_paused);
  EXPECT_TRUE(snap.shedding);
  EXPECT_FALSE(snap.accept_stopped);
  EXPECT_EQ(snap.ticks, 1u);
}

// ---- Retry-After derivation (satellite: bounds) ------------------------------

TEST(OverloadManagerTest, RetryAfterDerivedFromDecayAndClamped) {
  OverloadManagerConfig config = no_smoothing_config();
  config.retry_after_min = seconds(2);
  config.retry_after_max = seconds(20);
  TierHarness harness(config);

  // First tick under pressure: no decay history yet — advertise the max.
  harness.step(0.90);
  EXPECT_EQ(harness.manager.retry_after_hint(), seconds(20));

  // Flat pressure: still no measurable decay — max.
  harness.step(0.90);
  EXPECT_EQ(harness.manager.retry_after_hint(), seconds(20));

  // Decaying 0.05/s from 0.85 toward the shed-release point 0.70:
  // (0.85 - 0.70) / 0.05 = 3 seconds.
  harness.step(0.85);
  EXPECT_EQ(harness.manager.retry_after_hint(), seconds(3));

  // A glacial decay estimate clamps to the max...
  harness.step(0.849);
  EXPECT_EQ(harness.manager.retry_after_hint(), seconds(20));

  // ...a cliff clamps to the min...
  harness.step(0.71);
  EXPECT_EQ(harness.manager.retry_after_hint(), seconds(2));

  // ...and at/below the release point the hint floors at the min.
  harness.step(0.50);
  EXPECT_EQ(harness.manager.retry_after_hint(), seconds(2));

  // Rising pressure never advertises a short retry.
  harness.step(0.95);
  EXPECT_EQ(harness.manager.retry_after_hint(), seconds(20));
}

// ---- watermark configuration vs the paper's rule -----------------------------

// Reference model of O9 as the paper states it: "If there is a queue whose
// length exceeds its specified high watermark, then new connection requests
// are postponed until the length drops below a specified low watermark."
struct PaperWatermarkModel {
  size_t high;
  size_t low;
  bool overloaded = false;
  void step(size_t max_depth) {
    overloaded = overloaded ? !(max_depth < low) : max_depth > high;
  }
};

TEST(WatermarkModelTest, ManagerMatchesPaperRuleOnRandomDepthTraces) {
  constexpr int kTicks = 10000;
  const seconds retry_after(3);
  const std::pair<size_t, size_t> watermarks[] = {
      {20, 5}, {10, 3}, {3, 1}, {2, 1}};
  for (const auto& [high, low] : watermarks) {
    for (const bool shed : {false, true}) {
      SCOPED_TRACE("high=" + std::to_string(high) + " low=" +
                   std::to_string(low) + " shed=" + std::to_string(shed));
      std::mt19937_64 rng(high * 100 + low * 10 + shed);
      size_t depths[2] = {0, 0};
      auto manager = make_watermark_manager(
          high, low, shed, retry_after,
          {{"cpu", [&] { return depths[0]; }},
           {"disk", [&] { return depths[1]; }}});
      PaperWatermarkModel model{high, low};
      int suspends = 0;
      int resumes = 0;
      for (int tick = 0; tick < kTicks; ++tick) {
        // Mostly a ±1 random walk (long stays inside the band and exact
        // hits on both edges), sometimes a jump anywhere in [0, high + 3].
        for (size_t& depth : depths) {
          if (rng() % 4 == 0) {
            depth = rng() % (high + 4);
          } else {
            const int step = static_cast<int>(rng() % 3) - 1;
            if (step < 0 && depth > 0) --depth;
            if (step > 0 && depth < high + 3) ++depth;
          }
        }
        const bool was = model.overloaded;
        model.step(std::max(depths[0], depths[1]));
        suspends += !was && model.overloaded;
        resumes += was && !model.overloaded;

        manager->tick(now());
        const auto snap = manager->snapshot();
        ASSERT_EQ(snap.accept_stopped, model.overloaded)
            << "tick " << tick << " depths " << depths[0] << "," << depths[1];
        ASSERT_EQ(manager->shedding(), model.overloaded && shed)
            << "tick " << tick;
        ASSERT_EQ(manager->retry_after_hint(), retry_after) << "tick " << tick;
      }
      // The trace must have exercised both edges, not idled on one side.
      EXPECT_GT(suspends, 50);
      EXPECT_GT(resumes, 50);
      EXPECT_EQ(manager->accept_suspensions(), static_cast<uint64_t>(suspends));
    }
  }
}

// ---- quota-queue pause floor (tier-2 mechanism) ------------------------------

TEST(QuotaPriorityQueueTest, PausedFloorParksLowerLevels) {
  QuotaPriorityQueue<int> queue({2, 1});
  ASSERT_TRUE(queue.push(1, 0));
  ASSERT_TRUE(queue.push(2, 1));
  ASSERT_TRUE(queue.push(3, 1));

  queue.set_paused_floor(1);  // only level 0 drains
  auto popped = queue.try_pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 1);
  EXPECT_FALSE(queue.try_pop().has_value()) << "level 1 is paused";
  EXPECT_EQ(queue.size(), 2u) << "paused items stay queued";

  // Pushes are still accepted while paused.
  ASSERT_TRUE(queue.push(4, 1));

  queue.set_paused_floor(static_cast<size_t>(-1));
  std::vector<int> drained;
  while (auto item = queue.try_pop()) drained.push_back(*item);
  EXPECT_EQ(drained, (std::vector<int>{2, 3, 4}));
}

TEST(QuotaPriorityQueueTest, ShutdownDrainsThroughPause) {
  QuotaPriorityQueue<int> queue({1, 1});
  ASSERT_TRUE(queue.push(7, 1));
  queue.set_paused_floor(1);
  queue.shutdown();
  // stop() must still drain parked events — pause never deadlocks
  // shutdown.
  auto popped = queue.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 7);
}

TEST(EventProcessorTest, PauseLowPriorityParksQuotaLevels) {
  EventProcessorConfig config;
  config.name = "test";
  config.threads = 1;
  config.scheduling = true;
  config.priority_quotas = {8, 1};
  EventProcessor processor(config);

  processor.pause_low_priority(true);
  EXPECT_TRUE(processor.low_priority_paused());

  std::atomic<int> low_runs{0};
  std::atomic<int> high_runs{0};
  for (int i = 0; i < 3; ++i) {
    Event event;
    event.priority = 1;
    event.action = [&low_runs] { low_runs.fetch_add(1); };
    ASSERT_TRUE(processor.submit(std::move(event)));
  }
  Event high;
  high.priority = 0;
  high.action = [&high_runs] { high_runs.fetch_add(1); };
  ASSERT_TRUE(processor.submit(std::move(high)));

  // The high-priority event drains while the low levels stay parked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (high_runs.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(high_runs.load(), 1);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(low_runs.load(), 0) << "paused levels must not drain";
  EXPECT_EQ(processor.queue_depth(), 3u);

  processor.pause_low_priority(false);
  while (low_runs.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(low_runs.load(), 3);
  processor.stop();
}

}  // namespace
}  // namespace cops::nserver

// ---- simnet spike scenarios --------------------------------------------------

namespace cops::simnet {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;
using std::chrono::seconds;

struct SpikeOutcome {
  int admitted = 0;             // 200 responses
  int shed = 0;                 // 503 responses
  int no_response = 0;
  double p99_admitted_ms = 0.0;
  long retry_after_lo = 1 << 30;  // observed Retry-After bounds on 503s
  long retry_after_hi = 0;
  bool late_probe_admitted = false;
  nserver::OverloadSnapshot final_state;
  std::vector<std::string> trace;
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

// One seeded spike run: a modest baseline arrival rate, a 10x spike, then
// silence and a late probe request that must be admitted after recovery.
// Every request carries Connection: close, so each client maps to exactly
// one response and the server closes the connection.
SpikeOutcome run_spike(uint64_t seed, nserver::OverloadMode mode) {
  SimEngine engine(seed, FaultPlan::none());
  test::TempDir dir;
  dir.write_file("a.txt", "spike fixture\n");

  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8090;
  options.overload_control = true;
  options.overload_mode = mode;
  options.overload_target_delay = milliseconds(5);
  options.overload_interval = milliseconds(50);
  options.overload_ewma_alpha = 0.5;
  options.overload_retry_after = seconds(1);
  options.overload_retry_after_max = seconds(30);
  options.housekeeping_interval = milliseconds(10);
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  // The modeled bottleneck: 20ms of (virtual) CPU per admitted request —
  // 50 req/s of capacity.  Shed 503s skip this cost by design.
  config.handle_delay = milliseconds(20);
  http::CopsHttpServer server(std::move(options), config);
  EXPECT_TRUE(server.start().is_ok());

  const std::string request =
      "GET /a.txt HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n";

  struct Probe {
    SimClient* client = nullptr;
    std::shared_ptr<double> sent_ms;       // virtual send time
    std::shared_ptr<double> first_byte_ms;  // virtual first-byte time
  };
  std::vector<Probe> probes;
  auto launch = [&](microseconds when) {
    Probe probe;
    probe.client = engine.new_client();
    probe.sent_ms = std::make_shared<double>(-1.0);
    probe.first_byte_ms = std::make_shared<double>(-1.0);
    auto sent = probe.sent_ms;
    auto mark = probe.first_byte_ms;
    probe.client->on_data = [mark](std::string_view) {
      if (*mark < 0.0) {
        *mark = to_seconds(now().time_since_epoch()) * 1000.0;
      }
    };
    auto* client = probe.client;
    engine.at(when, [client, request, sent] {
      *sent = to_seconds(now().time_since_epoch()) * 1000.0;
      client->connect(8090);
      client->send(request);
    });
    probes.push_back(std::move(probe));
  };

  // Baseline: ~33 req/s (utilization 0.66) for 300ms.
  for (int i = 0; i < 10; ++i) {
    launch(microseconds(100000 + i * 30000));
  }
  // Spike: 10x the baseline arrival rate (400 req/s) for 250ms.
  const size_t spike_begin = probes.size();
  for (int i = 0; i < 100; ++i) {
    launch(microseconds(400000 + i * 2500));
  }
  (void)spike_begin;
  // Late probe, well after the spike drains: recovery must admit it.
  const size_t late_index = probes.size();
  launch(microseconds(8000000));

  EXPECT_TRUE(engine.run(seconds(120))) << "spike did not quiesce";

  SpikeOutcome outcome;
  std::vector<double> admitted_latencies;
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto& probe = probes[i];
    const std::string& received = probe.client->received();
    if (received.rfind("HTTP/1.1 200", 0) == 0) {
      ++outcome.admitted;
      if (*probe.first_byte_ms >= 0.0 && *probe.sent_ms >= 0.0) {
        admitted_latencies.push_back(*probe.first_byte_ms - *probe.sent_ms);
      }
      if (i == late_index) outcome.late_probe_admitted = true;
    } else if (received.rfind("HTTP/1.1 503", 0) == 0) {
      ++outcome.shed;
      const size_t at = received.find("Retry-After: ");
      if (at != std::string::npos) {
        const long value = std::stol(received.substr(at + 13));
        outcome.retry_after_lo = std::min(outcome.retry_after_lo, value);
        outcome.retry_after_hi = std::max(outcome.retry_after_hi, value);
      } else {
        engine.fail("503 without Retry-After");
      }
    } else {
      ++outcome.no_response;
    }
  }
  outcome.p99_admitted_ms = percentile(admitted_latencies, 0.99);
  if (auto* manager = server.server().overload_manager()) {
    outcome.final_state = manager->snapshot();
  }
  outcome.trace = engine.trace();
  EXPECT_TRUE(engine.failures().empty()) << engine.trace_text();
  server.stop();
  return outcome;
}

TEST(OverloadSpikeTest, AdaptiveBoundsAdmittedP99WatermarkDoesNot) {
  const auto adaptive = run_spike(777, nserver::OverloadMode::kAdaptive);
  const auto watermark = run_spike(777, nserver::OverloadMode::kWatermark);

  // The watermark controller watches queue *length* — identically zero in
  // the inline SPED pipeline — so it admits the whole spike and the backlog
  // latency grows with it.  Everything gets a response, nothing is shed.
  EXPECT_EQ(watermark.shed, 0);
  EXPECT_EQ(watermark.no_response, 0);
  EXPECT_EQ(watermark.admitted, 111);
  EXPECT_GT(watermark.p99_admitted_ms, 1000.0)
      << "the spike is supposed to build a >1s backlog under watermark";

  // The adaptive manager sheds the excess and keeps the admitted tail
  // bounded.
  EXPECT_GT(adaptive.shed, 10) << "adaptive run must shed part of the spike";
  EXPECT_EQ(adaptive.no_response, 0);
  EXPECT_GT(adaptive.admitted, 10);
  EXPECT_LT(adaptive.p99_admitted_ms, watermark.p99_admitted_ms / 2.0);
  EXPECT_LT(adaptive.p99_admitted_ms, 1500.0);

  // Shed 503s advertise a Retry-After inside the configured clamp.
  EXPECT_GE(adaptive.retry_after_lo, 1);
  EXPECT_LE(adaptive.retry_after_hi, 30);

  // Steady state again: the spike drained long before the late probe, so
  // every action released and the probe was admitted.
  EXPECT_TRUE(adaptive.late_probe_admitted);
  EXPECT_EQ(adaptive.final_state.tier, nserver::OverloadTier::kNone);
  EXPECT_FALSE(adaptive.final_state.conserving);
  EXPECT_FALSE(adaptive.final_state.low_priority_paused);
  EXPECT_FALSE(adaptive.final_state.shedding);
  EXPECT_FALSE(adaptive.final_state.accept_stopped);
}

TEST(OverloadSpikeTest, SameSeedSameTrace) {
  const auto first = run_spike(424242, nserver::OverloadMode::kAdaptive);
  const auto second = run_spike(424242, nserver::OverloadMode::kAdaptive);
  ASSERT_FALSE(first.trace.empty());
  ASSERT_EQ(first.trace.size(), second.trace.size())
      << "trace lengths diverged across identical runs";
  for (size_t i = 0; i < first.trace.size(); ++i) {
    ASSERT_EQ(first.trace[i], second.trace[i])
        << "first divergence at trace line " << i;
  }
  EXPECT_EQ(first.admitted, second.admitted);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.p99_admitted_ms, second.p99_admitted_ms);
}

}  // namespace
}  // namespace cops::simnet
