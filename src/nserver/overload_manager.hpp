// OverloadManager — the one control loop behind option O9.
//
// Pluggable resource monitors (event-queue delay, connection count,
// pool-miss rate, heap bytes — and, in the proxy tier, upstream waiter
// depth and 502/504 rate) each map their raw signal to a 0–1 pressure
// score, smoothed with an EWMA.  The overall pressure (worst monitor
// governs) drives graduated actions in severity order:
//
//   tier 1  conserve        shrink keep-alive idle timeouts
//   tier 2  pause-low-prio  stop draining low-priority quota classes (O8)
//   tier 3  shed            answer new requests 503 + Retry-After
//   tier 4  stop-accept     suspend the Acceptor entirely
//
// Each tier latches independently with hysteresis (engage at its
// threshold, release at threshold − hysteresis).  With monotone thresholds
// actions engage in severity order and release in reverse as pressure
// falls; a threshold above 1 leaves its tier out.
//
// Two configurations drive a Server (S5):
//
//   adaptive   the monitors above, with every tier;
//   watermark  the paper's gate (make_watermark_manager): one queue-length
//              monitor per watched queue, stop-accept above the high
//              watermark until every queue is below the low one, and
//              with overload_shed the shed tier on the same edges.
//
// The queue-delay monitor is CoDel-shaped (Nichols & Jacobson): the signal
// is the *sliding minimum* queue delay over an interval, compared against a
// target delay.  A transient burst leaves at least one low-delay sample in
// the window and is forgiven; a *standing* queue keeps the minimum above
// target and raises pressure.  Delay samples come from timestamped sentinel
// probes on cops::now(), so the same control loop runs in virtual time
// under simnet, bit-identical per seed.
//
// Threading: tick() and snapshot() are serialized by a mutex (housekeeping
// cadence, not per-request); the request path reads only relaxed atomics
// (tier, shed latch, retry-after hint).  QueueDelayMonitor::record_delay is
// safe from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace cops::nserver {

// One monitor's reading at a tick: the raw measured value (units vary per
// monitor — seconds, connections, a ratio) and its 0–1 pressure mapping.
struct MonitorReading {
  double raw = 0.0;
  double pressure = 0.0;
};

class ResourceMonitor {
 public:
  virtual ~ResourceMonitor() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  // Called once per manager tick, under the manager's lock.
  virtual MonitorReading sample(TimePoint now) = 0;
};

// CoDel-style queue-delay monitor.  Feed it timestamped delay observations
// (sentinel events enqueued with their cops::now() and measured on
// execution); sample() reports the minimum delay over the trailing
// `interval`, mapped so pressure 0.5 == delay at target (the tier-1
// threshold) and pressure 1.0 == delay at 2× target.
class QueueDelayMonitor : public ResourceMonitor {
 public:
  QueueDelayMonitor(std::string name, Duration target, Duration interval);

  // Thread-safe; called by the probe when it finally runs.
  void record_delay(Duration delay);

  // Optional: a callback returning the delay (seconds) of a probe that is
  // currently *overdue* — launched but not yet run.  sample() folds a
  // positive return into the window as a synthetic observation, so a loop
  // pass long enough to starve its own probes still raises pressure.
  void set_overdue_hint(std::function<double()> hint);

  [[nodiscard]] const std::string& name() const override { return name_; }
  MonitorReading sample(TimePoint now) override;

 private:
  const std::string name_;
  const double target_seconds_;
  const Duration interval_;
  std::mutex mutex_;
  std::function<double()> overdue_hint_;
  // (observation time, delay) pairs inside the sliding window.
  std::deque<std::pair<TimePoint, double>> samples_;
};

// Instantaneous gauge vs a fixed capacity (connection count, heap bytes):
// pressure = value / capacity, clamped.
class GaugeMonitor : public ResourceMonitor {
 public:
  GaugeMonitor(std::string name, std::function<double()> value,
               double capacity);

  [[nodiscard]] const std::string& name() const override { return name_; }
  MonitorReading sample(TimePoint now) override;

 private:
  const std::string name_;
  const std::function<double()> value_;
  const double capacity_;
};

// Windowed event-fraction monitor over two monotone counters (pool misses
// over pool requests, proxy 502/504s over proxied requests): pressure is
// the fraction observed since the previous tick, scaled so `full_scale`
// (e.g. 0.5 = half the events bad) maps to pressure 1.0.
class RateMonitor : public ResourceMonitor {
 public:
  RateMonitor(std::string name, std::function<uint64_t()> numerator,
              std::function<uint64_t()> denominator, double full_scale);

  [[nodiscard]] const std::string& name() const override { return name_; }
  MonitorReading sample(TimePoint now) override;

 private:
  const std::string name_;
  const std::function<uint64_t()> numerator_;
  const std::function<uint64_t()> denominator_;
  const double full_scale_;
  uint64_t last_numerator_ = 0;
  uint64_t last_denominator_ = 0;
};

// The graduated actions, in severity order.  kNone < kConserve < ... —
// the integer value is also the exported `cops_overload_tier` gauge.
enum class OverloadTier : int {
  kNone = 0,
  kConserve = 1,
  kPauseLowPriority = 2,
  kShed = 3,
  kStopAccept = 4,
};

[[nodiscard]] const char* to_string(OverloadTier tier);

// Engage/release callbacks the owning server wires up; each is invoked
// with `true` when its tier engages and `false` when it releases, from
// tick() (the housekeeping thread).  Unset callbacks are skipped.
struct OverloadActions {
  std::function<void(bool)> conserve;
  std::function<void(bool)> pause_low_priority;
  std::function<void(bool)> shed;
  std::function<void(bool)> stop_accept;
};

struct OverloadManagerConfig {
  // CoDel parameters for queue-delay monitors created via
  // add_queue_delay_monitor().
  Duration target_delay = std::chrono::milliseconds(5);
  Duration interval = std::chrono::milliseconds(100);
  // Per-monitor EWMA: smoothed += alpha * (sample - smoothed).
  double ewma_alpha = 0.3;
  // Engage thresholds per tier (monotone); each releases at
  // threshold - hysteresis.
  double conserve_threshold = 0.50;
  double pause_threshold = 0.65;
  double shed_threshold = 0.80;
  double stop_accept_threshold = 0.92;
  double hysteresis = 0.10;
  // Retry-After derivation bounds (see retry_after_hint()).
  std::chrono::seconds retry_after_min{1};
  std::chrono::seconds retry_after_max{30};
};

// Per-tick observable state, for the admin endpoint and tests.
struct OverloadSnapshot {
  struct MonitorState {
    std::string name;
    double raw = 0.0;
    double pressure = 0.0;   // instantaneous
    double smoothed = 0.0;   // EWMA
  };
  std::vector<MonitorState> monitors;
  double pressure = 0.0;  // overall = max smoothed
  OverloadTier tier = OverloadTier::kNone;
  bool conserving = false;
  bool low_priority_paused = false;
  bool shedding = false;
  bool accept_stopped = false;
  std::chrono::seconds retry_after{1};
  uint64_t ticks = 0;
};

class OverloadManager {
 public:
  explicit OverloadManager(OverloadManagerConfig config = {});

  // Registration (before the first tick).
  void add_monitor(std::unique_ptr<ResourceMonitor> monitor);
  // Convenience: creates a QueueDelayMonitor with the config's CoDel
  // parameters and returns it (owned by the manager) so the server can
  // feed it probe delays.
  QueueDelayMonitor* add_queue_delay_monitor(std::string name);
  void set_actions(OverloadActions actions);

  // One control-loop step: sample every monitor, fold the EWMAs, update
  // tier latches, and fire the engage/release callbacks that changed.
  void tick(TimePoint now);

  // Opportunistic tick from the request path: runs tick(now) only if at
  // least a quarter of the CoDel interval has passed since the last tick
  // (from any caller).  A single-threaded (SPED) loop digesting a long
  // backlog never returns to its housekeeping timer, so the control law
  // must get a chance to run *between requests* of the same pass.
  bool maybe_tick(TimePoint now);

  // ---- request-path reads (relaxed atomics, no lock) ---------------------
  [[nodiscard]] OverloadTier tier() const {
    return static_cast<OverloadTier>(tier_.load(std::memory_order_relaxed));
  }
  // The shed latch itself: a configuration may leave the shed tier out
  // while a higher tier engages.
  [[nodiscard]] bool shedding() const {
    return shedding_.load(std::memory_order_relaxed);
  }
  // Retry-After for 503s, derived from the measured pressure decay: the
  // estimated time for pressure to fall below the shed-release threshold
  // at its current decay rate, clamped to [retry_after_min,
  // retry_after_max].  Rising or flat pressure advertises the max.
  [[nodiscard]] std::chrono::seconds retry_after_hint() const {
    return std::chrono::seconds(
        retry_after_s_.load(std::memory_order_relaxed));
  }

  [[nodiscard]] uint64_t accept_suspensions() const {
    return accept_suspensions_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] OverloadSnapshot snapshot() const;
  [[nodiscard]] const OverloadManagerConfig& config() const { return config_; }

 private:
  struct MonitorSlot {
    std::unique_ptr<ResourceMonitor> monitor;
    MonitorReading last;
    double smoothed = 0.0;
  };

  void update_retry_after_locked(TimePoint now, double pressure);

  const OverloadManagerConfig config_;
  // Engage thresholds indexed by tier-1 (kConserve..kStopAccept).
  double thresholds_[4];

  mutable std::mutex mutex_;
  std::vector<MonitorSlot> monitors_;
  OverloadActions actions_;
  bool engaged_[4] = {false, false, false, false};
  double pressure_ = 0.0;
  // Pressure decay tracking for the Retry-After derivation.
  TimePoint last_tick_{};
  double last_pressure_ = 0.0;
  uint64_t ticks_ = 0;

  std::atomic<int> tier_{0};
  std::atomic<bool> shedding_{false};
  std::atomic<int64_t> retry_after_s_;
  std::atomic<uint64_t> accept_suspensions_{0};
  // Cheap gate for maybe_tick(), updated by every tick().
  std::atomic<int64_t> last_tick_ns_{0};
};

// A queue the watermark configuration watches, by name and current length.
struct WatchedQueue {
  std::string name;
  std::function<size_t()> depth;
};

// The paper's O9 rule as a manager configuration (overload = watermark):
// "if there is a queue whose length exceeds its specified high watermark,
// then new connection requests are postponed until the length drops below
// a specified low watermark."  Each queue's monitor reports its length as
// the raw value and pressure 1.0 above `high_watermark`, 0.0 below
// `low_watermark` and 0.5 in between; with threshold 1.0, hysteresis 0.75
// and EWMA alpha 1 the latch reproduces the integer edges exactly.
// Stop-accept always engages; shed only when `shed`; conserve and pause
// never do.  Retry-After is the fixed `retry_after`.
[[nodiscard]] std::unique_ptr<OverloadManager> make_watermark_manager(
    size_t high_watermark, size_t low_watermark, bool shed,
    std::chrono::seconds retry_after, std::vector<WatchedQueue> queues);

}  // namespace cops::nserver
