// TraceContext — per-request stage timestamps for the observability layer
// (option O11 and the O11+ admin export).
//
// One trace accompanies the single in-flight request of a connection (the
// pipeline-token invariant guarantees at most one).  Stages are stamped by
// whichever thread runs the step — dispatcher for read, processor for
// decode/handle/encode, either for the write — so the fields are relaxed
// atomics: a stamp is a single store, a stage duration a single load, and
// no stamp synchronizes with another (the pipeline's own hand-offs already
// order them).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/clock.hpp"

namespace cops::nserver {

// Monotonic microsecond stamp used throughout the trace.
[[nodiscard]] inline int64_t trace_now_us() {
  return to_micros(now().time_since_epoch());
}

struct TraceContext {
  // Request bytes arrived and the pipeline token left the socket.
  std::atomic<int64_t> read_done_us{0};
  // Decode hook produced a complete request.
  std::atomic<int64_t> decode_done_us{0};
  // Handle hook invoked.
  std::atomic<int64_t> handle_start_us{0};
  // Handle resolved (reply()/reply_raw()) — the Encode step begins.
  std::atomic<int64_t> resolve_us{0};
  // Encode hook produced wire bytes.
  std::atomic<int64_t> encode_done_us{0};

  static constexpr auto kRelaxed = std::memory_order_relaxed;

  void begin_request(int64_t now_us) {
    read_done_us.store(now_us, kRelaxed);
    decode_done_us.store(0, kRelaxed);
    handle_start_us.store(0, kRelaxed);
    resolve_us.store(0, kRelaxed);
    encode_done_us.store(0, kRelaxed);
  }

  // Elapsed micros from `since` to `until`, or -1 when either stamp is
  // missing (stage skipped, e.g. O3 = No removes Encode).
  [[nodiscard]] static int64_t elapsed(const std::atomic<int64_t>& since,
                                       int64_t until_us) {
    return elapsed(since.load(kRelaxed), until_us);
  }
  [[nodiscard]] static int64_t elapsed(int64_t since_us, int64_t until_us) {
    if (since_us == 0 || until_us == 0 || until_us < since_us) return -1;
    return until_us - since_us;
  }
};

}  // namespace cops::nserver
