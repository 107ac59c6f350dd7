#include "nserver/connection.hpp"

#include "common/logging.hpp"
#include "nserver/server.hpp"

namespace cops::nserver {

Connection::Connection(Server& server, net::Reactor& reactor,
                       net::TcpSocket socket, uint64_t id, size_t shard_index)
    : server_(server),
      reactor_(reactor),
      socket_(std::move(socket)),
      id_(id),
      shard_index_(shard_index),
      last_activity_(now()) {
  // Known from accept4 on an accepted socket: no syscall.  TCP_NODELAY
  // came from the listener (or Server::connect_peer set it).
  if (auto addr = socket_.peer_address(); addr.is_ok()) {
    peer_address_ = addr.value();
  }
  // The read block is acquired when bytes arrive (on_readable()), not
  // here: a connection that never sends holds none.  Registering as a user
  // lets the pool keep a free block for every connection of the shard.
  buffer_pool_ = server_.shards_[shard_index_]->read_buffer_pool;
  buffer_pool_->add_user();
}

Connection::~Connection() {
  buffer_pool_->release(in_.release_storage());
  buffer_pool_->remove_user();
}

std::string Connection::peer() const {
  return peer_address_ ? peer_address_->to_string() : std::string();
}

void Connection::release_idle_read_block() {
  if (in_.empty()) buffer_pool_->release(in_.release_storage());
}

void Connection::start() {
  auto status = reactor_.register_handler(socket_.fd(), this, net::kReadable);
  if (!status.is_ok()) {
    COPS_WARN("connection " << id_ << ": register failed: "
                            << status.to_string());
    close("register-failed");
    return;
  }
  registered_ = true;
  // on_connect hook: greeting etc.  Runs on the dispatcher, which writes
  // any send() it performs before a request can start.
  auto ctx = server_.make_context(shared_from_this());
  server_.hooks_->on_connect(*ctx);
}

void Connection::handle_event(int /*fd*/, uint32_t readiness) {
  // Keep *this alive across user-triggered close() paths.
  auto self = shared_from_this();
  if (closed()) return;
  if ((readiness & net::kErrored) != 0) {
    close("socket-error");
    return;
  }
  if ((readiness & net::kWritable) != 0) on_writable();
  if (closed()) return;
  if ((readiness & net::kReadable) == 0) return;
  if (read_state_.load(std::memory_order_acquire) != ReadState::kReading) {
    // Lazy disarm: start_pipeline() left read interest armed, and bytes
    // arrived while the request is away.  update_interest() drops the
    // interest so level-triggered epoll does not report them on every
    // pass; resume_reading() re-arms it and they are read then.  If a
    // processor handed the token back meanwhile, reading stays armed and
    // the bytes are read now.
    update_interest();
  }
  if (read_state_.load(std::memory_order_acquire) == ReadState::kReading) {
    on_readable();
  }
}

void Connection::on_readable() {
  if (in_.capacity() == 0) in_.adopt_storage(buffer_pool_->acquire());
  auto n = socket_.read(in_);
  if (!n.is_ok()) {
    if (n.status().code() == StatusCode::kWouldBlock) {
      release_idle_read_block();
      return;
    }
    // Orderly EOF or reset: the peer is gone.
    close(n.status().code() == StatusCode::kClosed ? "peer-closed"
                                                   : "read-error");
    return;
  }
  last_activity_.store(now(), std::memory_order_relaxed);
  server_.note_event(EventKind::kRead, id_, "bytes");
  bytes_read_total_.fetch_add(n.value(), std::memory_order_relaxed);
  if (server_.options_.profiling) profiler_bytes_read(n.value());
  start_pipeline();
}

void Connection::profiler_bytes_read(size_t n) {  // small indirection helper
  server_.profiler_.count_bytes_read(n);
}

void Connection::start_pipeline() {
  // Pipeline token moves from the socket to the Event Processor: stop
  // reading until this request cycle resolves.  Read interest stays armed
  // in epoll; handle_event() drops it only if bytes arrive meanwhile.
  ReadState reading = ReadState::kReading;
  if (!read_state_.compare_exchange_strong(reading, ReadState::kAway,
                                           std::memory_order_acq_rel)) {
    // A reply whose write blocked took the token back (send_reply()); the
    // bytes just read wait in in_ until its drain continues the pipeline.
    return;
  }
  decode_next();
}

void Connection::decode_next() {
  if (server_.options_.profiling) trace_.begin_request(trace_now_us());
  server_.submit_decode(shared_from_this());
}

void Connection::resume_reading() {
  if (closed()) return;
  // Decode said "need more".  A non-empty in-buffer means the peer is mid-
  // request: start the slowloris clock (once — see partial_since()).  An
  // empty buffer means we are cleanly between requests, and the read block
  // goes back to the pool.
  if (in_.empty()) {
    partial_since_ = TimePoint{};
    release_idle_read_block();
  } else if (partial_since_ == TimePoint{}) {
    partial_since_ = now();
  }
  // Data may already be buffered in the kernel; with level-triggered epoll
  // re-arming read interest (a no-op unless it was dropped) is sufficient
  // to get a new readable event.
  read_state_.store(ReadState::kReading, std::memory_order_release);
  update_interest();
  last_activity_.store(now(), std::memory_order_relaxed);
}

void Connection::continue_pipeline() {
  if (closed()) return;
  if (close_after_reply_.load(std::memory_order_relaxed)) {
    close("close-after-reply");
    return;
  }
  // A request completed: whatever remains buffered is the *next* request,
  // which deserves a fresh slowloris window.
  partial_since_ = TimePoint{};
  // Nothing buffered: the token goes straight back to the socket, without
  // a Decode round trip that could only answer "need more".
  if (in_.empty()) {
    resume_reading();
    return;
  }
  // More pipelined requests sit in the in-buffer; go around the Decode loop
  // again before re-arming the socket.
  decode_next();
}

void Connection::send_reply(EncodedReply reply) {
  std::unique_lock lock(send_mutex_);
  if (closed()) return;
  count_reply_copies(reply);
  if (out_.readable() > 0) {
    // The pending dispatcher drain sends it after the bytes ahead of it
    // and continues the pipeline.
    out_.push(std::move(reply));
    reply_pending_drain_ = true;
    return;
  }
  out_.push(std::move(reply));
  // The stamps belong to this request only while the token is held.
  const int64_t read_done_us = trace_.read_done_us.load(TraceContext::kRelaxed);
  const int64_t encode_done_us =
      trace_.encode_done_us.load(TraceContext::kRelaxed);
  const bool closing = close_after_reply_.load(std::memory_order_relaxed);
  const bool pipelined = !in_.empty();
  bool returned = false;
  if (!closing && !pipelined) {
    // Hand the read token back before the write, so the peer's next
    // request finds reading armed however soon it follows the reply.  The
    // empty in_ returns its block first: after the CAS it is not ours.
    partial_since_ = TimePoint{};
    release_idle_read_block();
    ReadState away = ReadState::kAway;
    returned = read_state_.compare_exchange_strong(
        away, ReadState::kReading, std::memory_order_acq_rel);
  }
  const DrainResult result = drain_locked();
  if (result == DrainResult::kBlocked) {
    // The dispatcher finishes the drain on writable.  A returned token is
    // taken back so no further request is read meanwhile.  If the
    // dispatcher already started the next request, that request's reply
    // ends the drain, so this one is counted now.
    ReadState reading = ReadState::kReading;
    const bool holds_token =
        !returned || read_state_.compare_exchange_strong(
                         reading, ReadState::kAway, std::memory_order_acq_rel);
    if (holds_token) {
      reply_pending_drain_ = true;
    } else {
      note_reply_sent(read_done_us, encode_done_us);
    }
  }
  lock.unlock();
  if (result != DrainResult::kDrained) {
    post_drain_result(result);
    return;
  }
  note_reply_sent(read_done_us, encode_done_us);
  if (returned) return;
  if (closing) {
    reactor_.post(
        [self = shared_from_this()] { self->close("close-after-reply"); });
  } else if (pipelined) {
    // The next request is already buffered: this thread still holds the
    // token and queues its Decode, as continue_pipeline() would.  Under
    // O2 = No that Decode would run inline, so it goes through the
    // dispatcher (see the ownership notes in the header).
    partial_since_ = TimePoint{};
    if (server_.processor_->inline_mode()) {
      reactor_.post([self = shared_from_this()] { self->decode_next(); });
    } else {
      decode_next();
    }
  } else {
    // Bytes arrived before the send and read interest was dropped; only
    // the dispatcher can re-arm it.
    reactor_.post([self = shared_from_this()] { self->resume_reading(); });
  }
}

void Connection::send(EncodedReply bytes) {
  std::unique_lock lock(send_mutex_);
  if (closed()) return;
  count_reply_copies(bytes);
  const bool drain_pending = out_.readable() > 0;
  out_.push(std::move(bytes));
  if (drain_pending) return;
  const DrainResult result = drain_locked();
  lock.unlock();
  post_drain_result(result);
}

void Connection::post_drain_result(DrainResult result) {
  if (result == DrainResult::kBlocked) {
    reactor_.post([self = shared_from_this()] { self->on_writable(); });
  } else if (result == DrainResult::kError) {
    reactor_.post([self = shared_from_this()] { self->close("write-error"); });
  }
}

void Connection::count_reply_copies(const EncodedReply& reply) {
  if (!server_.options_.profiling) return;
  if (reply.copied_bytes > 0) {
    server_.profiler_.count_send_copied(reply.copied_bytes);
  }
}

bool Connection::send_pending() {
  std::lock_guard lock(send_mutex_);
  return out_.readable() > 0;
}

namespace {
// Gather batch per writev: enough for several pipelined header+body replies
// in one syscall, small enough to sit on the stack.
constexpr int kSendIovBatch = 16;
}  // namespace

Connection::DrainResult Connection::drain_locked() {
  // Drain loop: scatter-gather the leading memory segments into one writev
  // per round; a leading file segment goes out via sendfile instead.  Stop
  // on would-block or error.
  while (out_.readable() > 0) {
    const Result<size_t> n = [&]() -> Result<size_t> {
      if (out_.front_is_file()) {
        auto sent = socket_.sendfile_from(out_.front_file_fd(),
                                          out_.front_file_offset(),
                                          out_.front_file_remaining());
        if (sent.is_ok()) {
          out_.consume_file(sent.value());
          if (server_.options_.profiling) {
            server_.profiler_.count_send_sendfile(sent.value());
          }
        }
        return sent;
      }
      struct iovec iov[kSendIovBatch];
      const int iovcnt = out_.fill_iovec(iov, kSendIovBatch);
      auto sent = socket_.writev(iov, iovcnt);
      if (sent.is_ok()) {
        out_.consume(sent.value());
        if (server_.options_.profiling) server_.profiler_.count_send_writev();
      }
      return sent;
    }();
    if (!n.is_ok()) {
      return n.status().code() == StatusCode::kWouldBlock
                 ? DrainResult::kBlocked
                 : DrainResult::kError;
    }
    bytes_sent_total_.fetch_add(n.value(), std::memory_order_relaxed);
    if (server_.options_.profiling) {
      server_.profiler_.count_bytes_sent(n.value());
    }
    last_activity_.store(now(), std::memory_order_relaxed);
  }
  return DrainResult::kDrained;
}

void Connection::on_writable() {
  std::unique_lock lock(send_mutex_);
  if (closed()) return;
  const DrainResult result = drain_locked();
  const bool completed = result == DrainResult::kDrained &&
                         std::exchange(reply_pending_drain_, false);
  lock.unlock();
  if (result == DrainResult::kError) {
    close("write-error");
    return;
  }
  if (completed) {
    after_reply_sent();
    if (closed()) return;
  }
  const bool need_write = result == DrainResult::kBlocked;
  if (need_write != want_write_) {
    want_write_ = need_write;
    update_interest();
  }
}

void Connection::after_reply_sent() {
  note_reply_sent(trace_.read_done_us.load(TraceContext::kRelaxed),
                  trace_.encode_done_us.load(TraceContext::kRelaxed));
  continue_pipeline();
}

void Connection::note_reply_sent(int64_t read_done_us,
                                 int64_t encode_done_us) {
  server_.note_event(EventKind::kSend, id_, "reply-drained");
  if (!server_.options_.profiling) return;
  server_.profiler_.count_reply();
  const int64_t now_us = trace_now_us();
  server_.profiler_.record_stage(
      Stage::kWrite, TraceContext::elapsed(encode_done_us, now_us));
  server_.profiler_.record_stage(
      Stage::kTotal, TraceContext::elapsed(read_done_us, now_us));
}

void Connection::update_interest() {
  if (!registered_ || closed()) return;
  // A mask without EPOLLIN must be visible to a processor about to hand
  // the token back: kAway→kAwayDisarmed, unless it is back already.
  ReadState state = ReadState::kAway;
  read_state_.compare_exchange_strong(state, ReadState::kAwayDisarmed,
                                      std::memory_order_acq_rel);
  uint32_t interest = 0;
  if (state == ReadState::kReading) interest |= net::kReadable;
  if (want_write_) interest |= net::kWritable;
  reactor_.update_interest(socket_.fd(), interest);
}

void Connection::close(const std::string& reason) {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true)) return;
  if (registered_) {
    // The close below takes the socket out of the epoll set.
    reactor_.forget(socket_.fd());
    registered_ = false;
  }
  net::TcpSocket doomed;
  {
    // Another thread may be inside drain_locked() on this socket: take it
    // out under the write lock, so every later writer finds it gone, and
    // close it after.  A simnet-scripted action can take send_mutex_ inside
    // the engine lock that a simulated close takes, so the close must not
    // run under send_mutex_.
    std::lock_guard lock(send_mutex_);
    doomed = std::move(socket_);
  }
  doomed.close();
  server_.note_event(EventKind::kShutdown, id_, reason.c_str());
  server_.remove_connection(*this);
}

}  // namespace cops::nserver
