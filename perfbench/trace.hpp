// Per-layer instrumentation for the traced run, all from outside the server:
//
//  * libc-call counters — this executable defines epoll_wait, read, sendmsg,
//    ... and forwards each to libc, so every call the server libraries make
//    passes through a counter first.  Only threads other than the client's
//    are counted, and only while counting is switched on.
//  * allocation counters — a replacement global operator new, same gating.
//  * thread CPU time — per-thread CPU clocks of /proc/self/task entries.
//  * TracingHooks — a decorator over http::HttpAppHooks that stamps each
//    public hook call into a per-request span table shared with the client.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "http/http_server.hpp"
#include "nserver/hooks.hpp"

namespace perfbench {

// Nanoseconds on the steady clock shared by client and server threads.
int64_t now_ns();

// ---- libc-call and allocation counters -------------------------------------

enum SysCounter : int {
  kEpollWait,
  kEpollCtl,
  kRecv,         // read/recv on a socket
  kRecvEagain,   // ... that returned EAGAIN
  kSend,         // send/sendmsg on a socket
  kSendPartial,  // ... that moved fewer bytes than asked (EAGAIN included)
  kWakeup,       // write to an eventfd: a cross-thread post
  kAccept,
  kAllocCount,
  kAllocBytes,
  kNumCounters,
};

struct CounterTotals {
  uint64_t v[kNumCounters] = {};
  CounterTotals operator-(const CounterTotals& o) const;
};

// Calls made on this thread are never counted (the load generator's).
void mark_client_thread();
void set_counting(bool on);
CounterTotals counter_totals();

// ---- thread CPU time -------------------------------------------------------

struct ThreadSample {
  pid_t tid = 0;
  std::string name;
  int64_t cpu_ns = 0;
};

pid_t current_tid();
std::vector<ThreadSample> sample_threads();
// CPU consumed between two samples by the threads `pick` accepts; a thread
// absent from `before` counts from zero.
template <typename Pick>
int64_t cpu_between(const std::vector<ThreadSample>& before,
                    const std::vector<ThreadSample>& after, Pick pick) {
  int64_t total = 0;
  for (const auto& a : after) {
    if (!pick(a)) continue;
    int64_t base = 0;
    for (const auto& b : before) {
      if (b.tid == a.tid) base = b.cpu_ns;
    }
    total += a.cpu_ns - base;
  }
  return total;
}

// ---- per-request spans -----------------------------------------------------

// Hook-boundary stamps of one request, indexed by the request id the client
// puts in its X-Req header.  Written by server threads, read by the client
// after the reply's last byte, hence relaxed atomics.
struct SpanSlot {
  std::atomic<int64_t> decode_entry{0};
  std::atomic<int64_t> decode_exit{0};
  std::atomic<int64_t> handle_entry{0};
  std::atomic<int64_t> encode_entry{0};
  std::atomic<int64_t> encode_exit{0};
};

class SpanTable {
 public:
  static constexpr size_t kSlots = 1 << 16;  // > requests ever in flight
  SpanSlot& slot(uint64_t request_id) { return slots_[request_id % kSlots]; }

 private:
  std::unique_ptr<SpanSlot[]> slots_{new SpanSlot[kSlots]};
};

// Decorator over the COPS-HTTP hooks: forwards every call and records its
// boundaries.  Handle runs from handle() entry to the encode_reply() call it
// eventually causes (cache lookup and file I/O wait included).
class TracingHooks final : public cops::nserver::AppHooks {
 public:
  TracingHooks(std::shared_ptr<cops::http::HttpAppHooks> inner,
               SpanTable& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void on_connect(cops::nserver::RequestContext& ctx) override {
    inner_->on_connect(ctx);
  }
  void on_close(uint64_t connection_id) override {
    inner_->on_close(connection_id);
  }
  cops::nserver::DecodeResult decode(cops::nserver::RequestContext& ctx,
                                     cops::ByteBuffer& in) override;
  void handle(cops::nserver::RequestContext& ctx,
              std::any request) override;
  std::string encode(cops::nserver::RequestContext& ctx,
                     std::any response) override {
    return inner_->encode(ctx, std::move(response));
  }
  cops::EncodedReply encode_reply(cops::nserver::RequestContext& ctx,
                                  std::any response) override;

  uint64_t decode_calls() const { return decode_calls_.load(); }
  uint64_t decode_completions() const { return decode_done_.load(); }
  uint64_t encode_calls() const { return encode_calls_.load(); }
  uint64_t bytes_copied() const { return bytes_copied_.load(); }
  // Threads that ran a hook: the event processor's pool.
  std::vector<pid_t> hook_threads() const;

 private:
  void note_thread();
  std::atomic<uint64_t>& conn_request(uint64_t connection_id) {
    return conn_request_[connection_id % kConnSlots];
  }

  std::shared_ptr<cops::http::HttpAppHooks> inner_;
  SpanTable& spans_;
  // Request id in flight on each connection: the framework runs at most one
  // pipeline step per connection, so decode -> handle -> encode of one
  // request never interleaves with the next on the same connection.
  static constexpr size_t kConnSlots = 4096;
  std::unique_ptr<std::atomic<uint64_t>[]> conn_request_{
      new std::atomic<uint64_t>[kConnSlots]()};
  std::atomic<uint64_t> decode_calls_{0};
  std::atomic<uint64_t> decode_done_{0};
  std::atomic<uint64_t> encode_calls_{0};
  std::atomic<uint64_t> bytes_copied_{0};
  mutable std::mutex threads_mutex_;
  std::vector<pid_t> threads_;
};

}  // namespace perfbench
