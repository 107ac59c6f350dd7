// Connection — the Communicator Component of the N-Server.
//
// Owns one accepted socket and drives the generated halves of the five-step
// request cycle: Read Request (socket → in buffer) and Send Reply (out
// buffer → socket).  The application-dependent steps in between run on
// Event Processor threads; this class is only ever mutated on its reactor
// (dispatcher) thread — worker threads reach it exclusively through
// Reactor::post, which is what makes the hook code lock-free.
//
// Pipeline token invariant: per connection exactly one of these holds —
//   (a) read interest is armed (waiting for request bytes),
//   (b) an event for this connection is queued/executing in a processor, or
//   (c) a reply is draining through the out buffer.
// The token passes (a)→(b) on read, (b)→(c) on reply, (c)→(b) after the
// reply drains (pipelined requests) or (c)→(a) when the in-buffer is empty.
// Both moves out of (c) happen on the dispatcher, so a keep-alive request
// costs one dispatcher→processor→dispatcher round trip.
//
// "Armed" means want_read_, not the epoll mask: (a)→(b) leaves read
// interest registered, and handle_event() drops it only if bytes arrive
// while the token is away (lazy disarm).  With level-triggered epoll those
// bytes are reported again once (c)→(a) re-arms, so no Read happens while
// a request is in the processor, and a request cycle with no early bytes
// costs no epoll_ctl at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/buffer_pool.hpp"
#include "common/byte_buffer.hpp"
#include "common/clock.hpp"
#include "common/send_queue.hpp"
#include "net/event_handler.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "nserver/trace_context.hpp"

namespace cops::nserver {

class Server;

class Connection : public net::EventHandler,
                   public std::enable_shared_from_this<Connection> {
 public:
  Connection(Server& server, net::Reactor& reactor, net::TcpSocket socket,
             uint64_t id, size_t shard_index);
  ~Connection() override;

  // Registers read interest and fires the on_connect hook.  Reactor thread.
  void start();

  // net::EventHandler — invoked by the Event Dispatcher.
  void handle_event(int fd, uint32_t readiness) override;

  // ---- reactor-thread operations (workers invoke via Reactor::post) -----
  // Moves the reply's segments into the send queue and starts draining.
  // When `completes_request` is true the pipeline continues after the
  // drain.
  void queue_send(EncodedReply reply, bool completes_request);
  // Thin forwarding overload for callers holding flat bytes (greetings,
  // raw sends); the string is moved, never copied, into the queue.
  void queue_send(std::string bytes, bool completes_request);
  // Re-arms read interest (decode needs more data, or a drained reply left
  // the in-buffer empty).
  void resume_reading();
  // Continues the pipeline without sending (finish()-style resolutions).
  void continue_pipeline();
  void close(const std::string& reason);

  // ---- accessors ---------------------------------------------------------
  [[nodiscard]] uint64_t id() const { return id_; }
  [[nodiscard]] uint64_t generation() const { return generation_; }
  [[nodiscard]] size_t shard_index() const { return shard_index_; }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] net::Reactor& reactor() { return reactor_; }
  [[nodiscard]] const std::string& peer() const { return peer_; }
  [[nodiscard]] TimePoint last_activity() const { return last_activity_; }
  [[nodiscard]] bool pipeline_active() const { return pipeline_active_; }
  // When the connection is stuck mid-request (bytes buffered, nothing the
  // decoder could parse), the instant the partial request *started* —
  // deliberately not refreshed as more bytes trickle in, so a slowloris
  // peer cannot stay under the header_read_timeout by drip-feeding.
  // TimePoint{} = not mid-request.  Reactor thread only.
  [[nodiscard]] TimePoint partial_since() const { return partial_since_; }

  // Request-scheduling priority (option O8).  Written only inside the
  // single active pipeline step; the Event/Communicator priority crosscut
  // from Table 2.
  [[nodiscard]] int priority() const { return priority_; }
  void set_priority(int priority) { priority_ = priority; }

  // Per-connection application state (the hooks' session object).
  std::shared_ptr<void>& app_state() { return app_state_; }

  // Per-request stage timeline (O11+).  The pipeline token invariant means
  // exactly one request is in flight per connection, so one TraceContext per
  // connection suffices; stamps are written by whichever thread holds the
  // token and read at the next stage boundary.
  [[nodiscard]] TraceContext& trace() { return trace_; }

  // Lifetime byte/request totals for this connection (admin /stats.json
  // gauges).  Relaxed atomics: written on the hot path, read on scrape.
  [[nodiscard]] uint64_t bytes_read_total() const {
    return bytes_read_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t bytes_sent_total() const {
    return bytes_sent_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }
  void note_request() {
    requests_total_.fetch_add(1, std::memory_order_relaxed);
  }

  // The decode buffer; touched by the reactor only while the pipeline is
  // inactive, and by the worker only while it is active.
  ByteBuffer& in_buffer() { return in_; }

  void set_close_after_reply() { close_after_reply_ = true; }

 private:
  friend class Server;

  void on_readable();
  void on_writable();
  void profiler_bytes_read(size_t n);
  // Moves the pipeline token from socket to processor.
  void start_pipeline();
  // A completed reply finished draining: continue or close.
  void after_reply_sent();
  void flush_out();
  void update_interest();

  Server& server_;
  net::Reactor& reactor_;
  net::TcpSocket socket_;
  const uint64_t id_;
  const uint64_t generation_;
  const size_t shard_index_;
  std::string peer_;

  ByteBuffer in_;
  // Where in_'s backing store came from and returns to
  // (in ~Connection — never earlier, a worker may still be decoding from
  // in_ when close() runs).  The connection holds its own reference so the
  // return outlives any Server teardown ordering.
  std::shared_ptr<BufferPool> buffer_pool_;
  SendQueue out_;
  std::shared_ptr<void> app_state_;
  TraceContext trace_;
  std::atomic<uint64_t> bytes_read_total_{0};
  std::atomic<uint64_t> bytes_sent_total_{0};
  std::atomic<uint64_t> requests_total_{0};

  std::atomic<bool> closed_{false};
  bool want_read_ = false;
  bool want_write_ = false;
  bool registered_ = false;
  bool pipeline_active_ = false;
  bool reply_pending_drain_ = false;  // a completed reply is in out_
  bool close_after_reply_ = false;
  int priority_ = 0;
  TimePoint last_activity_;
  TimePoint partial_since_{};  // slowloris clock (see partial_since())
  // Per-IP accounting key (empty = not counted, e.g. outbound connections);
  // Server::remove_connection releases the slot.
  std::string ip_key_;

  static std::atomic<uint64_t> next_generation_;
};

}  // namespace cops::nserver
