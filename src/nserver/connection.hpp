// Connection — the Communicator Component of the N-Server.
//
// Owns one accepted socket and drives the generated halves of the five-step
// request cycle: Read Request (socket → in buffer) and Send Reply (out
// buffer → socket).  The application-dependent steps in between run on
// Event Processor threads, or on the dispatcher itself under O2 = No.
// Reading, epoll interest, closing and the connection maps are confined to
// the reactor (dispatcher) thread; the thread that produced reply bytes
// writes them (send_reply(), send()), whatever the O2 value.  Hooks stay
// lock-free either way.
//
// The pipeline token is split into a read side and a write side.
//
// Read side — read_state_, an atomic word:
//   kReading       the socket holds the token: read interest is armed and
//                  the dispatcher may read into in_ and start a request.
//   kAway          a pipeline step holds it (a processor event, or a reply
//                  draining on the dispatcher).  Read interest is still
//                  registered in epoll (lazy disarm).
//   kAwayDisarmed  as kAway, but the dispatcher has dropped read interest,
//                  so handing the token back needs update_interest() on the
//                  dispatcher.
// Only the dispatcher leaves kReading (start_pipeline(), a CAS), except in
// one case below, and only the holder leaves kAway/kAwayDisarmed.  Whoever
// holds the token owns in_, partial_since_ and trace_; the CAS or the post
// that hands the token over orders those fields.  pipeline_active() is
// read_state_ != kReading, so the reaper needs no second flag.
//   * Lazy disarm: update_interest() turns kAway into kAwayDisarmed by CAS
//     before it writes a mask without EPOLLIN.  Bytes that arrive while a
//     request is away are then reported again, level-triggered, once
//     resume_reading() re-arms; a cycle with no early bytes costs no
//     epoll_ctl at all.
//   * Early return: a reply that completes a request with an empty in_, no
//     close pending and nothing queued ahead of it returns the token by CAS
//     kAway→kReading *before* its write, so a peer that sends its next
//     request the instant the reply lands finds the socket armed.  If the
//     CAS fails (kAwayDisarmed: bytes arrived first), the reply is still
//     written by its thread and resume_reading() is posted.
//   * Backpressure: if that early-returned reply cannot drain, the writer
//     takes the token back by CAS kReading→kAway — the one exception above.
//     The dispatcher then reads no further request until the drain ends
//     (after_reply_sent()).  If the dispatcher's start_pipeline() won the
//     race instead, one more request runs, and its reply queues behind the
//     backlog, so a peer that never reads gets at most two requests served.
//   * Pipelined bytes: a reply that leaves a next request in in_ keeps the
//     token and queues that request's Decode.  Under O2 = No the Decode is
//     posted to the dispatcher instead of called, so a pipelined burst does
//     not recurse Decode → Send → Decode on one stack, and a reply written
//     on a file-I/O thread (an async completion) does not run the next
//     Decode there.
//
// Write side — send_mutex_ guards out_, reply_pending_drain_ and every
// write to the socket; close() takes the socket out under it and closes
// the descriptor after, so no thread writes to a closed or reused one.
// Every thread drains out_ through drain_locked(), the one writev/sendfile
// loop.  Invariant: a non-empty out_ always has a dispatcher drain pending
// — either EPOLLOUT is armed or on_writable() is posted.  A writer that
// finds out_ empty writes itself, and posts on_writable() if its write
// blocks; a writer that finds bytes queued pushes behind them and leaves
// them to that drain, so bytes leave in the order the hooks produced them.
// A completed reply queued that way sets reply_pending_drain_, and the
// drain continues the pipeline.
//
// A keep-alive request therefore costs one readable event on the
// dispatcher and no post: Read → Decode/Handle/Encode → Send.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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

  // ---- sending (any thread) ---------------------------------------------
  // Sends the reply that completes the current request.  Called by the
  // thread that resolved it, which holds the pipeline token and writes the
  // reply itself (see the ownership notes above).  Dropped if closed.
  void send_reply(EncodedReply reply);
  // Sends bytes that complete no request (greetings, intermediate
  // replies, server push), written by the calling thread behind anything
  // already queued.  Dropped if closed.
  void send(EncodedReply bytes);

  // ---- reactor-thread operations (workers invoke via Reactor::post) -----
  // Re-arms read interest (decode needs more data, or a drained reply left
  // the in-buffer empty).
  void resume_reading();
  // Continues the pipeline without sending (finish()-style resolutions).
  void continue_pipeline();
  void close(const std::string& reason);

  // ---- accessors ---------------------------------------------------------
  [[nodiscard]] uint64_t id() const { return id_; }
  [[nodiscard]] size_t shard_index() const { return shard_index_; }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] net::Reactor& reactor() { return reactor_; }
  // "host:port" of the peer, formatted on demand; empty if unknown.
  [[nodiscard]] std::string peer() const;
  [[nodiscard]] TimePoint last_activity() const {
    return last_activity_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool pipeline_active() const {
    return read_state_.load(std::memory_order_acquire) != ReadState::kReading;
  }
  // True while reply bytes wait in the out buffer.  Takes the write lock.
  [[nodiscard]] bool send_pending();
  // When the connection is stuck mid-request (bytes buffered, nothing the
  // decoder could parse), the instant the partial request *started* —
  // deliberately not refreshed as more bytes trickle in, so a slowloris
  // peer cannot stay under the header_read_timeout by drip-feeding.
  // TimePoint{} = not mid-request.  Written by the token holder; read on
  // the reactor thread while pipeline_active() is false.
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

  // Written in place by the token holder, like set_priority().
  void set_close_after_reply() {
    close_after_reply_.store(true, std::memory_order_relaxed);
  }

 private:
  friend class Server;

  enum class ReadState : uint8_t { kReading, kAway, kAwayDisarmed };
  enum class DrainResult { kDrained, kBlocked, kError };

  void on_readable();
  // Returns in_'s block to the pool if in_ is empty; the token holder.
  void release_idle_read_block();
  void profiler_bytes_read(size_t n);
  // Moves the pipeline token from socket to processor.
  void start_pipeline();
  // Queues the next Decode; the caller holds the token.
  void decode_next();
  void count_reply_copies(const EncodedReply& reply);
  // A completed reply finished draining: continue or close.
  void after_reply_sent();
  void note_reply_sent(int64_t read_done_us, int64_t encode_done_us);
  // The one writev/sendfile loop; the caller holds send_mutex_.
  DrainResult drain_locked();
  // After a write off the dispatcher's drain: a blocked write posts
  // on_writable(), a failed one posts close().
  void post_drain_result(DrainResult result);
  // Dispatcher: drains out_, then arms write interest or finishes the
  // reply.
  void on_writable();
  void update_interest();

  Server& server_;
  net::Reactor& reactor_;
  net::TcpSocket socket_;
  const uint64_t id_;
  const size_t shard_index_;
  std::optional<net::InetAddress> peer_address_;

  // The read buffer.  Its block comes from buffer_pool_ only while a
  // request is in flight: on_readable() acquires one when in_ has no
  // storage, and the read-token holder returns it whenever it finds in_
  // empty between requests — in send_reply() before the CAS that hands
  // the token back, and in resume_reading().  An idle connection therefore
  // holds no block.  close() never returns it, because a processor may
  // still be decoding from in_; ~Connection returns whatever is left.
  ByteBuffer in_;
  // Held by the connection itself so the return outlives any Server
  // teardown ordering.  The connection is one of the pool's users for its
  // lifetime, so the pool keeps a free block for it between requests.
  std::shared_ptr<BufferPool> buffer_pool_;
  // Guards out_ and reply_pending_drain_ (a completed reply is in out_).
  std::mutex send_mutex_;
  SendQueue out_;
  bool reply_pending_drain_ = false;
  std::shared_ptr<void> app_state_;
  TraceContext trace_;
  std::atomic<uint64_t> bytes_read_total_{0};
  std::atomic<uint64_t> bytes_sent_total_{0};
  std::atomic<uint64_t> requests_total_{0};

  std::atomic<bool> closed_{false};
  std::atomic<ReadState> read_state_{ReadState::kReading};
  bool want_write_ = false;  // reactor thread
  bool registered_ = false;  // reactor thread
  std::atomic<bool> close_after_reply_{false};
  int priority_ = 0;
  std::atomic<TimePoint> last_activity_;
  TimePoint partial_since_{};  // slowloris clock (see partial_since())
  // Per-IP accounting key (empty = not counted, e.g. outbound connections);
  // Server::remove_connection releases the slot.
  std::string ip_key_;
};

}  // namespace cops::nserver
