#include "nserver/connection.hpp"

#include "common/logging.hpp"
#include "nserver/server.hpp"

namespace cops::nserver {

std::atomic<uint64_t> Connection::next_generation_{1};

Connection::Connection(Server& server, net::Reactor& reactor,
                       net::TcpSocket socket, uint64_t id, size_t shard_index)
    : server_(server),
      reactor_(reactor),
      socket_(std::move(socket)),
      id_(id),
      generation_(next_generation_.fetch_add(1)),
      shard_index_(shard_index),
      last_activity_(now()) {
  socket_.set_nodelay(true);
  if (auto addr = socket_.peer_address(); addr.is_ok()) {
    peer_ = addr.value().to_string();
  }
  // Adopt a recycled read-buffer backing store instead of growing a fresh
  // vector from nothing.
  buffer_pool_ = server_.shards_[shard_index_]->read_buffer_pool;
  in_.adopt_storage(buffer_pool_->acquire());
}

Connection::~Connection() { buffer_pool_->release(in_.release_storage()); }

void Connection::start() {
  want_read_ = true;
  auto status = reactor_.register_handler(socket_.fd(), this, net::kReadable);
  if (!status.is_ok()) {
    COPS_WARN("connection " << id_ << ": register failed: "
                            << status.to_string());
    close("register-failed");
    return;
  }
  registered_ = true;
  // on_connect hook: greeting etc.  Runs on the dispatcher; any send() it
  // performs is posted back to this reactor and ordered before request
  // replies.
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
  if (want_read_) {
    on_readable();
  } else {
    // Lazy disarm: start_pipeline() left read interest armed, and bytes
    // arrived while the request is in the processor.  Drop the interest
    // now so level-triggered epoll does not report them on every pass;
    // resume_reading() re-arms it and they are read then.
    update_interest();
  }
}

void Connection::on_readable() {
  auto n = socket_.read(in_);
  if (!n.is_ok()) {
    if (n.status().code() == StatusCode::kWouldBlock) return;
    // Orderly EOF or reset: the peer is gone.
    close(n.status().code() == StatusCode::kClosed ? "peer-closed"
                                                   : "read-error");
    return;
  }
  last_activity_ = now();
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
  want_read_ = false;
  pipeline_active_ = true;
  if (server_.options_.profiling) trace_.begin_request(trace_now_us());
  server_.submit_decode(shared_from_this());
}

void Connection::resume_reading() {
  if (closed()) return;
  pipeline_active_ = false;
  // Decode said "need more".  A non-empty in-buffer means the peer is mid-
  // request: start the slowloris clock (once — see partial_since()).  An
  // empty buffer means we are cleanly between requests.
  if (in_.empty()) {
    partial_since_ = TimePoint{};
  } else if (partial_since_ == TimePoint{}) {
    partial_since_ = now();
  }
  // Data may already be buffered in the kernel; with level-triggered epoll
  // re-arming read interest (a no-op unless handle_event() dropped it) is
  // sufficient to get a new readable event.
  want_read_ = true;
  update_interest();
  last_activity_ = now();
}

void Connection::continue_pipeline() {
  if (closed()) return;
  if (close_after_reply_) {
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
  pipeline_active_ = true;
  if (server_.options_.profiling) trace_.begin_request(trace_now_us());
  server_.submit_decode(shared_from_this());
}

void Connection::queue_send(EncodedReply reply, bool completes_request) {
  if (closed()) return;
  if (server_.options_.profiling && reply.copied_bytes > 0) {
    server_.profiler_.count_send_copied(reply.copied_bytes);
  }
  // Chunk-framed replies (body_framing=chunked) are counted here — the one
  // spot every encode path funnels through — not in the Encode hooks.
  if (server_.options_.profiling && reply.chunked_framed) {
    server_.profiler_.count_send_chunked();
  }
  out_.push(std::move(reply));
  if (completes_request) reply_pending_drain_ = true;
  flush_out();
}

void Connection::queue_send(std::string bytes, bool completes_request) {
  queue_send(EncodedReply::from_string(std::move(bytes)), completes_request);
}

namespace {
// Gather batch per writev: enough for several pipelined header+body replies
// in one syscall, small enough to sit on the stack.
constexpr int kSendIovBatch = 16;
}  // namespace

void Connection::flush_out() {
  // Drain loop: scatter-gather the leading memory segments into one writev
  // per round; a leading file segment goes out via sendfile instead.  Stop
  // on would-block (write interest re-arms below) or error.
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
      if (n.status().code() != StatusCode::kWouldBlock) {
        close("write-error");
        return;
      }
      break;
    }
    bytes_sent_total_.fetch_add(n.value(), std::memory_order_relaxed);
    if (server_.options_.profiling) {
      server_.profiler_.count_bytes_sent(n.value());
    }
    last_activity_ = now();
  }
  const bool drained = out_.readable() == 0;
  if (drained && reply_pending_drain_) {
    reply_pending_drain_ = false;
    after_reply_sent();
    if (closed()) return;
  }
  const bool need_write = out_.readable() > 0;
  if (need_write != want_write_) {
    want_write_ = need_write;
    update_interest();
  }
}

void Connection::on_writable() { flush_out(); }

void Connection::after_reply_sent() {
  server_.note_event(EventKind::kSend, id_, "reply-drained");
  if (server_.options_.profiling) {
    server_.profiler_.count_reply();
    const int64_t now_us = trace_now_us();
    server_.profiler_.record_stage(
        Stage::kWrite, TraceContext::elapsed(trace_.encode_done_us, now_us));
    server_.profiler_.record_stage(
        Stage::kTotal, TraceContext::elapsed(trace_.read_done_us, now_us));
  }
  continue_pipeline();
}

void Connection::update_interest() {
  if (!registered_ || closed()) return;
  uint32_t interest = 0;
  if (want_read_) interest |= net::kReadable;
  if (want_write_) interest |= net::kWritable;
  reactor_.update_interest(socket_.fd(), interest);
}

void Connection::close(const std::string& reason) {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true)) return;
  if (registered_) {
    reactor_.deregister(socket_.fd());
    registered_ = false;
  }
  socket_.close();
  server_.note_event(EventKind::kShutdown, id_, reason.c_str());
  server_.remove_connection(*this);
}

}  // namespace cops::nserver
