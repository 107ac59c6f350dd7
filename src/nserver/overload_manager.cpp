#include "nserver/overload_manager.hpp"

#include <algorithm>
#include <limits>

namespace cops::nserver {

namespace {

[[nodiscard]] double clamp01(double v) {
  return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
}

// One queue's length against the paper's two watermarks.
class WatermarkMonitor : public ResourceMonitor {
 public:
  WatermarkMonitor(WatchedQueue queue, size_t high, size_t low)
      : queue_(std::move(queue)), high_(high), low_(low) {}

  [[nodiscard]] const std::string& name() const override {
    return queue_.name;
  }
  MonitorReading sample(TimePoint) override {
    const size_t depth = queue_.depth();
    return {static_cast<double>(depth),
            depth > high_ ? 1.0 : (depth < low_ ? 0.0 : 0.5)};
  }

 private:
  const WatchedQueue queue_;
  const size_t high_;
  const size_t low_;
};

}  // namespace

const char* to_string(OverloadTier tier) {
  switch (tier) {
    case OverloadTier::kNone: return "none";
    case OverloadTier::kConserve: return "conserve";
    case OverloadTier::kPauseLowPriority: return "pause-low-priority";
    case OverloadTier::kShed: return "shed";
    case OverloadTier::kStopAccept: return "stop-accept";
  }
  return "?";
}

// ---- QueueDelayMonitor -------------------------------------------------------

QueueDelayMonitor::QueueDelayMonitor(std::string name, Duration target,
                                     Duration interval)
    : name_(std::move(name)),
      target_seconds_(to_seconds(target)),
      interval_(interval) {}

void QueueDelayMonitor::record_delay(Duration delay) {
  const double seconds = std::max(0.0, to_seconds(delay));
  std::lock_guard lock(mutex_);
  samples_.emplace_back(now(), seconds);
}

void QueueDelayMonitor::set_overdue_hint(std::function<double()> hint) {
  std::lock_guard lock(mutex_);
  overdue_hint_ = std::move(hint);
}

MonitorReading QueueDelayMonitor::sample(TimePoint now) {
  std::lock_guard lock(mutex_);
  if (overdue_hint_) {
    // A probe that should have run by now but hasn't is itself a delay
    // observation — without it, a saturated loop would look *idle* here
    // (it is too busy to deliver any samples).
    const double overdue = overdue_hint_();
    if (overdue > 0.0) samples_.emplace_back(now, overdue);
  }
  const TimePoint cutoff = now - interval_;
  while (!samples_.empty() && samples_.front().first < cutoff) {
    samples_.pop_front();
  }
  MonitorReading reading;
  if (samples_.empty()) return reading;  // idle: no standing queue
  double min_delay = samples_.front().second;
  for (const auto& [when, delay] : samples_) {
    min_delay = std::min(min_delay, delay);
  }
  reading.raw = min_delay;
  // delay == target → 0.5 (tier-1 threshold); delay == 2×target → 1.0.
  reading.pressure =
      target_seconds_ > 0.0 ? clamp01(min_delay / (2.0 * target_seconds_))
                            : (min_delay > 0.0 ? 1.0 : 0.0);
  return reading;
}

// ---- GaugeMonitor ------------------------------------------------------------

GaugeMonitor::GaugeMonitor(std::string name, std::function<double()> value,
                           double capacity)
    : name_(std::move(name)), value_(std::move(value)), capacity_(capacity) {}

MonitorReading GaugeMonitor::sample(TimePoint) {
  MonitorReading reading;
  reading.raw = value_();
  reading.pressure = capacity_ > 0.0 ? clamp01(reading.raw / capacity_) : 0.0;
  return reading;
}

// ---- RateMonitor -------------------------------------------------------------

RateMonitor::RateMonitor(std::string name, std::function<uint64_t()> numerator,
                         std::function<uint64_t()> denominator,
                         double full_scale)
    : name_(std::move(name)),
      numerator_(std::move(numerator)),
      denominator_(std::move(denominator)),
      full_scale_(full_scale) {}

MonitorReading RateMonitor::sample(TimePoint) {
  const uint64_t num = numerator_();
  const uint64_t den = denominator_();
  // Counters are monotone; guard against restarts anyway.
  const uint64_t dn = num >= last_numerator_ ? num - last_numerator_ : 0;
  const uint64_t dd = den >= last_denominator_ ? den - last_denominator_ : 0;
  last_numerator_ = num;
  last_denominator_ = den;
  MonitorReading reading;
  reading.raw = dd > 0 ? static_cast<double>(dn) / static_cast<double>(dd)
                       : 0.0;
  reading.pressure =
      full_scale_ > 0.0 ? clamp01(reading.raw / full_scale_) : 0.0;
  return reading;
}

// ---- OverloadManager ---------------------------------------------------------

OverloadManager::OverloadManager(OverloadManagerConfig config)
    : config_(config),
      thresholds_{config.conserve_threshold, config.pause_threshold,
                  config.shed_threshold, config.stop_accept_threshold},
      retry_after_s_(config.retry_after_min.count()) {}

void OverloadManager::add_monitor(std::unique_ptr<ResourceMonitor> monitor) {
  std::lock_guard lock(mutex_);
  monitors_.push_back({std::move(monitor), {}, 0.0});
}

QueueDelayMonitor* OverloadManager::add_queue_delay_monitor(std::string name) {
  auto monitor = std::make_unique<QueueDelayMonitor>(
      std::move(name), config_.target_delay, config_.interval);
  auto* raw = monitor.get();
  add_monitor(std::move(monitor));
  return raw;
}

void OverloadManager::set_actions(OverloadActions actions) {
  std::lock_guard lock(mutex_);
  actions_ = std::move(actions);
}

void OverloadManager::tick(TimePoint now) {
  // Callbacks collected under the lock, fired after release: an action
  // (e.g. acceptor suspend) may re-enter observable state.
  std::vector<std::function<void()>> fire;
  {
    std::lock_guard lock(mutex_);
    double pressure = 0.0;
    for (auto& slot : monitors_) {
      slot.last = slot.monitor->sample(now);
      slot.smoothed +=
          config_.ewma_alpha * (slot.last.pressure - slot.smoothed);
      pressure = std::max(pressure, slot.smoothed);
    }
    pressure_ = pressure;
    ++ticks_;

    // Tier latches: engage at threshold, release at threshold − hysteresis.
    // Thresholds are monotone, so a rising pressure engages tiers in
    // severity order and a falling one releases them in reverse.
    const std::function<void(bool)>* callbacks[4] = {
        &actions_.conserve, &actions_.pause_low_priority, &actions_.shed,
        &actions_.stop_accept};
    for (int i = 0; i < 4; ++i) {
      const bool was = engaged_[i];
      if (!was && pressure >= thresholds_[i]) {
        engaged_[i] = true;
      } else if (was && pressure <= thresholds_[i] - config_.hysteresis) {
        engaged_[i] = false;
      }
      if (engaged_[i] != was) {
        if (i == 3 && engaged_[i]) {
          accept_suspensions_.fetch_add(1, std::memory_order_relaxed);
        }
        if (*callbacks[i]) {
          auto cb = *callbacks[i];
          const bool on = engaged_[i];
          fire.push_back([cb, on] { cb(on); });
        }
      }
    }

    int tier = 0;
    for (int i = 0; i < 4; ++i) {
      if (engaged_[i]) tier = i + 1;
    }
    tier_.store(tier, std::memory_order_relaxed);
    shedding_.store(engaged_[2], std::memory_order_relaxed);

    update_retry_after_locked(now, pressure);
    last_tick_ = now;
    last_pressure_ = pressure;
    last_tick_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            now.time_since_epoch())
                            .count(),
                        std::memory_order_relaxed);
  }
  for (auto& fn : fire) fn();
}

bool OverloadManager::maybe_tick(TimePoint now) {
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             now.time_since_epoch())
                             .count();
  const int64_t spacing = std::max<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(config_.interval)
              .count() /
          4,
      1'000'000);
  int64_t last = last_tick_ns_.load(std::memory_order_relaxed);
  if (now_ns - last < spacing) return false;
  // One caller wins the race; tick() re-stores the stamp under the lock.
  if (!last_tick_ns_.compare_exchange_strong(last, now_ns,
                                             std::memory_order_relaxed)) {
    return false;
  }
  tick(now);
  return true;
}

void OverloadManager::update_retry_after_locked(TimePoint now,
                                                double pressure) {
  const double release =
      config_.shed_threshold - config_.hysteresis;  // shed ends here
  const int64_t min_s = config_.retry_after_min.count();
  const int64_t max_s = config_.retry_after_max.count();
  int64_t hint = max_s;
  if (pressure <= release) {
    hint = min_s;
  } else if (last_tick_ != TimePoint{} && now > last_tick_) {
    const double dt = to_seconds(now - last_tick_);
    const double decay = (last_pressure_ - pressure) / dt;  // per second
    if (decay > 0.0) {
      hint = static_cast<int64_t>((pressure - release) / decay + 0.999);
    }
  }
  hint = std::clamp(hint, min_s, max_s);
  retry_after_s_.store(hint, std::memory_order_relaxed);
}

OverloadSnapshot OverloadManager::snapshot() const {
  std::lock_guard lock(mutex_);
  OverloadSnapshot snap;
  snap.monitors.reserve(monitors_.size());
  for (const auto& slot : monitors_) {
    snap.monitors.push_back({slot.monitor->name(), slot.last.raw,
                             slot.last.pressure, slot.smoothed});
  }
  snap.pressure = pressure_;
  snap.tier = static_cast<OverloadTier>(tier_.load(std::memory_order_relaxed));
  snap.conserving = engaged_[0];
  snap.low_priority_paused = engaged_[1];
  snap.shedding = engaged_[2];
  snap.accept_stopped = engaged_[3];
  snap.retry_after =
      std::chrono::seconds(retry_after_s_.load(std::memory_order_relaxed));
  snap.ticks = ticks_;
  return snap;
}

// ---- watermark configuration -------------------------------------------------

std::unique_ptr<OverloadManager> make_watermark_manager(
    size_t high_watermark, size_t low_watermark, bool shed,
    std::chrono::seconds retry_after, std::vector<WatchedQueue> queues) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  OverloadManagerConfig config;
  config.ewma_alpha = 1.0;
  config.conserve_threshold = kNever;
  config.pause_threshold = kNever;
  config.shed_threshold = shed ? 1.0 : kNever;
  config.stop_accept_threshold = 1.0;
  config.hysteresis = 0.75;  // release at 0.25: only when every queue is 0.0
  config.retry_after_min = retry_after;
  config.retry_after_max = retry_after;
  auto manager = std::make_unique<OverloadManager>(config);
  for (auto& queue : queues) {
    manager->add_monitor(std::make_unique<WatermarkMonitor>(
        std::move(queue), high_watermark, low_watermark));
  }
  return manager;
}

}  // namespace cops::nserver
