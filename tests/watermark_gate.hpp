// The Server's watermark overload configuration (make_watermark_manager),
// driven one housekeeping tick at a time for the O9 admission-edge tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "nserver/overload_manager.hpp"

namespace cops::test {

// What one tick did to the acceptor.
enum class Flip { kNone, kSuspend, kResume };

class WatermarkGate {
 public:
  WatermarkGate(size_t high, size_t low,
                std::vector<nserver::WatchedQueue> queues)
      : manager_(nserver::make_watermark_manager(
            high, low, /*shed=*/false, std::chrono::seconds(1),
            std::move(queues))) {
    nserver::OverloadActions actions;
    actions.stop_accept = [this](bool on) {
      flip_ = on ? Flip::kSuspend : Flip::kResume;
    };
    manager_->set_actions(std::move(actions));
  }
  WatermarkGate(const WatermarkGate&) = delete;
  WatermarkGate& operator=(const WatermarkGate&) = delete;

  // One control-loop step, as Server::housekeeping() runs it.
  Flip tick() {
    flip_ = Flip::kNone;
    manager_->tick(now());
    return flip_;
  }
  [[nodiscard]] bool suspended() const {
    return manager_->tier() == nserver::OverloadTier::kStopAccept;
  }
  [[nodiscard]] uint64_t suspensions() const {
    return manager_->accept_suspensions();
  }

 private:
  std::unique_ptr<nserver::OverloadManager> manager_;
  Flip flip_ = Flip::kNone;
};

}  // namespace cops::test
