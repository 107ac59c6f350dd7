#include "proxy/proxy_session.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "http/response.hpp"
#include "net/transport.hpp"
#include "proxy/proxy_server.hpp"

namespace cops::proxy {

namespace {
constexpr int kMaxIovPerRound = 16;
// Interim (1xx) response heads are consumed and dropped at this hop; a
// backend streaming them forever is treated as malformed.
constexpr int kMaxInterimHeads = 4;
}  // namespace

ProxySession::ProxySession(uint64_t id, ProxyServer& server,
                           net::TcpSocket client)
    : id_(id),
      server_(server),
      client_(std::move(client)),
      client_read_gate_(server.config_.low_watermark,
                        server.config_.high_watermark),
      upstream_read_gate_(server.config_.low_watermark,
                          server.config_.high_watermark) {}

ProxySession::~ProxySession() = default;

Status ProxySession::start() {
  return server_.reactor_.register_handler(client_.fd(), this, net::kReadable);
}

void ProxySession::abort(const char* reason) {
  if (closed_) return;
  emit(reason);
  close_session();
}

void ProxySession::handle_event(int fd, uint32_t readiness) {
  // close_session() drops the server's reference mid-dispatch.
  auto self = shared_from_this();
  if (closed_) return;
  if (fd == client_.fd()) {
    if ((readiness & net::kErrored) != 0) {
      abort("proxy-client-error");
      return;
    }
    if ((readiness & net::kWritable) != 0 && !flush_client()) return;
    if ((readiness & net::kReadable) != 0) on_client_readable();
  } else if (upstream_registered_ && fd == upstream_.fd()) {
    if ((readiness & net::kErrored) != 0) {
      upstream_gone(/*reset=*/true);
    } else {
      if ((readiness & net::kWritable) != 0) on_upstream_writable();
      if (!closed_ && upstream_registered_ &&
          (readiness & net::kReadable) != 0) {
        on_upstream_readable();
      }
    }
  }
  if (!closed_) update_interest();
}

// ---- client side ----------------------------------------------------------

void ProxySession::on_client_readable() {
  auto n = client_.read(client_in_);
  if (!n.is_ok()) {
    const auto code = n.status().code();
    if (code == StatusCode::kWouldBlock) return;
    if (code == StatusCode::kClosed) {
      client_eof_ = true;
      if (resp_state_ == RespState::kNone &&
          (req_state_ == ReqState::kIdle || req_state_ == ReqState::kHead)) {
        // Between exchanges (a trailing partial head is the client's
        // problem): orderly close.
        close_session();
      } else if (req_state_ == ReqState::kBody) {
        // The request can never complete; the upstream got a partial
        // message, so neither side survives.
        abort("proxy-client-eof-mid-request");
      } else {
        // Half-close: the request is fully relayed, finish the response.
        client_keep_alive_ = false;
      }
      return;
    }
    abort("proxy-client-reset");
    return;
  }
  process_client();
}

void ProxySession::process_client() {
  while (!closed_) {
    if (req_state_ == ReqState::kIdle) {
      if (client_in_.empty()) break;
      req_state_ = ReqState::kHead;
    }
    if (req_state_ == ReqState::kHead) {
      http::StatusCode reject = http::StatusCode::kBadRequest;
      const auto parsed = http::parse_request_head(
          client_in_, req_head_, server_.config_.limits, &reject);
      if (parsed == http::HeadParseStatus::kNeedMore) break;
      if (parsed == http::HeadParseStatus::kMalformed) {
        send_error(reject);
        return;
      }
      if (!begin_request()) return;
      continue;
    }
    if (req_state_ == ReqState::kBody) {
      relay_request_body();
      break;
    }
    // kSent: pipelined bytes wait for the exchange to complete.
    break;
  }
  if (!closed_) flush_upstream();
}

bool ProxySession::begin_request() {
  server_.counters_.requests.fetch_add(1, std::memory_order_relaxed);
  client_keep_alive_ = req_head_.keep_alive;

  // Adaptive overload (overload_adaptive): at the shed tier new request
  // heads are answered 503 + Retry-After instead of being parked at the
  // pool cap — the queue the waiter-depth monitor watches must not absorb
  // the demand that trips it.
  if (server_.overload_ && server_.overload_->shedding()) {
    server_.counters_.shed.fetch_add(1, std::memory_order_relaxed);
    emit("proxy-shed-503");
    auto resp = http::make_error_response(http::StatusCode::kServiceUnavailable,
                                          /*keep_alive=*/false);
    resp.set_header(
        "Retry-After",
        std::to_string(server_.overload_->retry_after_hint().count()));
    client_out_.push_owned(resp.serialize());
    client_committed_ = true;
    client_keep_alive_ = false;
    closing_after_flush_ = true;
    if (flush_client()) update_interest();
    return false;
  }

  const size_t backend = server_.select_backend(req_head_.target);
  backend_ = static_cast<int>(backend);
  server_.backends_.add_load(backend);
  in_flight_counted_ = true;

  // Forward the head: original casing, hop-by-hop stripped, Via appended.
  // Transfer-Encoding counts as hop-by-hop and is re-added by this relay
  // when the body is chunked, so the framing is always ours to assert.
  std::string head;
  head.reserve(256);
  head += req_head_.method;
  head += ' ';
  head += req_head_.target;
  head += " HTTP/1.1\r\n";
  for (const auto& field : req_head_.headers) {
    if (http::is_hop_by_hop(field.lname, req_head_)) continue;
    if (field.lname == "expect") continue;  // answered at this hop
    head += field.name;
    head += ": ";
    head += field.value;
    head += "\r\n";
  }
  if (req_head_.delim == http::BodyDelim::kChunked) {
    head += "Transfer-Encoding: chunked\r\n";
  }
  head += "Via: 1.1 ";
  head += server_.config_.via_pseudonym;
  head += "\r\n\r\n";

  // 100-continue is answered here: the upstream sees no Expect header, the
  // client gets its interim reply as soon as the head lands (only when no
  // body bytes arrived with it — an eager client needs no invitation).
  if (req_head_.expect_continue && client_in_.empty() &&
      req_head_.delim != http::BodyDelim::kNone) {
    client_out_.push_owned("HTTP/1.1 100 Continue\r\n\r\n");
  }

  replay_buffer_.clear();
  replay_armed_ = server_.config_.retry_buffer_limit > 0;
  retry_used_ = false;
  response_bytes_seen_ = false;
  interim_heads_ = 0;
  upstream_poisoned_ = false;
  append_upstream(head);

  switch (req_head_.delim) {
    case http::BodyDelim::kContentLength:
      req_body_remaining_ = req_head_.content_length;
      req_state_ =
          req_body_remaining_ > 0 ? ReqState::kBody : ReqState::kSent;
      break;
    case http::BodyDelim::kChunked:
      req_chunks_.reset();
      req_state_ = ReqState::kBody;
      break;
    default:
      req_state_ = ReqState::kSent;
      break;
  }
  resp_state_ = RespState::kHead;

  waiting_for_upstream_ = true;
  server_.request_upstream(shared_from_this(), static_cast<size_t>(backend));
  return !closed_;
}

void ProxySession::relay_request_body() {
  if (req_state_ != ReqState::kBody || client_in_.empty()) return;
  if (req_head_.delim == http::BodyDelim::kContentLength) {
    const size_t take = static_cast<size_t>(std::min<uint64_t>(
        req_body_remaining_, client_in_.readable()));
    if (take > 0) {
      append_upstream(client_in_.view().substr(0, take));
      client_in_.consume(take);
      req_body_remaining_ -= take;
    }
    if (req_body_remaining_ == 0) request_sent();
    return;
  }
  // Chunked: validate framing, forward the raw bytes verbatim.
  size_t consumed = 0;
  const auto status = req_chunks_.feed(client_in_.view(), &consumed);
  if (consumed > 0) {
    append_upstream(client_in_.view().substr(0, consumed));
    client_in_.consume(consumed);
  }
  switch (status) {
    case http::ChunkedDecoder::Status::kNeedMore:
      return;
    case http::ChunkedDecoder::Status::kDone:
      request_sent();
      return;
    default:
      // The client broke its own framing mid-stream; the upstream holds a
      // partial message, so the reply closes both sides.
      send_error(http::StatusCode::kBadRequest);
      return;
  }
}

void ProxySession::request_sent() {
  req_state_ = ReqState::kSent;
  // The header timer arms once the queued bytes actually reach the wire
  // (flush_upstream checks the same condition after every drain).
}

// ---- upstream side --------------------------------------------------------

void ProxySession::upstream_ready(net::TcpSocket socket, bool reused) {
  if (closed_) {
    // The session died while the acquisition was in flight; hand the
    // connection straight back so the pool accounting stays balanced.
    if (backend_ >= 0) {
      server_.release_upstream(static_cast<size_t>(backend_),
                               std::move(socket), /*reusable=*/false);
    } else {
      socket.close();
    }
    return;
  }
  waiting_for_upstream_ = false;
  upstream_ = std::move(socket);
  upstream_reused_ = reused;
  auto status = server_.reactor_.register_handler(
      upstream_.fd(), this, net::kReadable | net::kWritable);
  if (!status.is_ok()) {
    if (backend_ >= 0) {
      server_.release_upstream(static_cast<size_t>(backend_),
                               std::move(upstream_), /*reusable=*/false);
    }
    send_error(http::StatusCode::kBadGateway);
    return;
  }
  upstream_registered_ = true;
  flush_upstream();
  if (!closed_) update_interest();
}

void ProxySession::upstream_failed() {
  if (closed_) return;
  waiting_for_upstream_ = false;
  send_error(http::StatusCode::kBadGateway);
}

void ProxySession::on_upstream_readable() {
  auto n = upstream_.read(upstream_in_);
  if (!n.is_ok()) {
    const auto code = n.status().code();
    if (code == StatusCode::kWouldBlock) return;
    upstream_gone(/*reset=*/code != StatusCode::kClosed);
    return;
  }
  if (!response_bytes_seen_ && n.value() > 0) {
    // First response byte: the exchange is no longer replayable.
    response_bytes_seen_ = true;
    replay_armed_ = false;
    replay_buffer_.clear();
  }
  process_upstream();
}

void ProxySession::process_upstream() {
  while (!closed_) {
    if (resp_state_ == RespState::kHead) {
      const auto parsed = http::parse_response_head(
          upstream_in_, resp_head_, server_.config_.limits,
          req_head_.method == "HEAD");
      if (parsed == http::HeadParseStatus::kNeedMore) break;
      if (parsed == http::HeadParseStatus::kMalformed) {
        malformed_upstream();
        return;
      }
      if (resp_head_.status >= 100 && resp_head_.status <= 199) {
        if (++interim_heads_ > kMaxInterimHeads) {
          malformed_upstream();
          return;
        }
        continue;
      }
      if (!begin_response()) return;
      continue;
    }
    if (resp_state_ == RespState::kBody) {
      relay_response_body();
      break;
    }
    break;
  }
  if (!closed_) (void)flush_client();
}

bool ProxySession::begin_response() {
  cancel_header_timer();
  upstream_keep_alive_ = resp_head_.keep_alive &&
                         resp_head_.delim != http::BodyDelim::kToClose;
  // A close-delimited upstream body leaves this hop no way to mark the end
  // towards the client either.
  if (resp_head_.delim == http::BodyDelim::kToClose) {
    client_keep_alive_ = false;
  }

  std::string head;
  head.reserve(256);
  head += resp_head_.status_line;
  head += "\r\n";
  for (const auto& field : resp_head_.headers) {
    if (http::is_hop_by_hop(field.lname, resp_head_)) continue;
    head += field.name;
    head += ": ";
    head += field.value;
    head += "\r\n";
  }
  if (resp_head_.delim == http::BodyDelim::kChunked) {
    head += "Transfer-Encoding: chunked\r\n";
  }
  head += "Via: 1.1 ";
  head += server_.config_.via_pseudonym;
  head += "\r\nConnection: ";
  head += client_keep_alive_ ? "keep-alive" : "close";
  head += "\r\n\r\n";
  client_out_.push_owned(std::move(head));
  client_committed_ = true;

  switch (resp_head_.delim) {
    case http::BodyDelim::kContentLength:
      resp_body_remaining_ = resp_head_.content_length;
      if (resp_body_remaining_ == 0) {
        finish_response();
        return !closed_;
      }
      resp_state_ = RespState::kBody;
      break;
    case http::BodyDelim::kChunked:
      resp_chunks_.reset();
      resp_state_ = RespState::kBody;
      break;
    case http::BodyDelim::kToClose:
      resp_state_ = RespState::kBody;
      break;
    case http::BodyDelim::kNone:
      finish_response();
      return !closed_;
  }
  return true;
}

void ProxySession::relay_response_body() {
  if (upstream_in_.empty()) return;
  const auto view = upstream_in_.view();
  switch (resp_head_.delim) {
    case http::BodyDelim::kContentLength: {
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(resp_body_remaining_,
                                                 view.size()));
      client_out_.push_owned(std::string(view.substr(0, take)));
      upstream_in_.consume(take);
      resp_body_remaining_ -= take;
      if (resp_body_remaining_ == 0) finish_response();
      return;
    }
    case http::BodyDelim::kChunked: {
      size_t consumed = 0;
      const auto status = resp_chunks_.feed(view, &consumed);
      if (consumed > 0) {
        client_out_.push_owned(std::string(view.substr(0, consumed)));
        upstream_in_.consume(consumed);
      }
      if (status == http::ChunkedDecoder::Status::kDone) {
        finish_response();
      } else if (status != http::ChunkedDecoder::Status::kNeedMore) {
        malformed_upstream();
      }
      return;
    }
    case http::BodyDelim::kToClose:
      client_out_.push_owned(std::string(view));
      upstream_in_.consume(view.size());
      return;
    default:
      return;
  }
}

void ProxySession::finish_response() {
  resp_state_ = RespState::kDone;
  server_.counters_.responses.fetch_add(1, std::memory_order_relaxed);
  // An early response (the upstream replied before reading the whole
  // request) leaves both connections holding partial messages.
  if (req_state_ != ReqState::kSent) client_keep_alive_ = false;
  const bool reusable = upstream_keep_alive_ && !upstream_poisoned_ &&
                        req_state_ == ReqState::kSent && upstream_in_.empty();
  detach_upstream(reusable);
  if (!closed_ && client_out_.empty()) complete_exchange();
}

void ProxySession::on_upstream_writable() { flush_upstream(); }

void ProxySession::flush_upstream() {
  if (!upstream_registered_ || closed_) return;
  while (!upstream_out_.empty()) {
    struct iovec iov[kMaxIovPerRound];
    const int iovcnt = upstream_out_.fill_iovec(iov, kMaxIovPerRound);
    if (iovcnt == 0) break;  // unreachable: the relay queues no file slices
    auto sent = upstream_.writev(iov, iovcnt);
    if (!sent.is_ok()) {
      if (sent.status().code() == StatusCode::kWouldBlock) break;
      upstream_gone(/*reset=*/true);
      return;
    }
    upstream_out_.consume(sent.value());
  }
  if (req_state_ == ReqState::kSent && upstream_out_.empty()) {
    maybe_arm_header_timer();
  }
}

void ProxySession::upstream_gone(bool reset) {
  if (closed_) return;
  if (resp_state_ == RespState::kNone || resp_state_ == RespState::kDone) {
    // Nothing owed on this connection.
    detach_upstream(/*reusable=*/false);
    if (!closed_) update_interest();
    return;
  }
  if (resp_state_ == RespState::kBody &&
      resp_head_.delim == http::BodyDelim::kToClose && !reset) {
    // Orderly EOF *is* the end of a close-delimited body.
    upstream_keep_alive_ = false;
    finish_response();
    if (!closed_ && flush_client()) update_interest();
    return;
  }
  if (resp_state_ == RespState::kHead && !response_bytes_seen_) {
    // Died before a single response byte.  A *reused* pool connection may
    // have gone stale between exchanges — retried exactly once on a fresh
    // connection with the buffered request bytes replayed.
    if (upstream_reused_ && !retry_used_ && replay_armed_ &&
        try_stale_retry()) {
      return;
    }
    send_error(http::StatusCode::kBadGateway);
    return;
  }
  if (!client_committed_) {
    send_error(http::StatusCode::kBadGateway);
    return;
  }
  // Mid-body death with the head already relayed: never fabricate a clean
  // ending — the client sees incomplete framing and a close.
  abort("proxy-upstream-died-mid-body");
}

void ProxySession::malformed_upstream() {
  server_.counters_.poisoned.fetch_add(1, std::memory_order_relaxed);
  upstream_poisoned_ = true;
  emit("proxy-upstream-poisoned");
  if (client_committed_) {
    abort("proxy-malformed-upstream");
    return;
  }
  send_error(http::StatusCode::kBadGateway);
}

void ProxySession::header_timeout_fired() {
  if (closed_ || resp_state_ != RespState::kHead || response_bytes_seen_) {
    return;
  }
  upstream_poisoned_ = true;  // too slow to trust with another exchange
  send_error(http::StatusCode::kGatewayTimeout);
}

void ProxySession::maybe_arm_header_timer() {
  if (header_timer_armed_ || closed_) return;
  if (resp_state_ != RespState::kHead || response_bytes_seen_) return;
  if (!upstream_registered_) return;
  if (server_.config_.upstream_header_timeout <= Duration::zero()) return;
  auto self = shared_from_this();
  header_timer_ = server_.reactor_.run_after(
      server_.config_.upstream_header_timeout, [self] {
        self->header_timer_armed_ = false;
        self->header_timeout_fired();
      });
  header_timer_armed_ = true;
}

void ProxySession::cancel_header_timer() {
  if (!header_timer_armed_) return;
  server_.reactor_.cancel_timer(header_timer_);
  header_timer_armed_ = false;
}

bool ProxySession::try_stale_retry() {
  if (backend_ < 0 || replay_buffer_.empty()) return false;
  retry_used_ = true;
  emit("proxy-stale-retry");
  detach_upstream(/*reusable=*/false);
  // Replay everything relayed so far; the buffer stays armed so body bytes
  // still streaming in keep accumulating for the fresh connection.
  upstream_out_.push_owned(replay_buffer_);
  resp_state_ = RespState::kHead;
  interim_heads_ = 0;
  waiting_for_upstream_ = true;
  server_.request_upstream_fresh(shared_from_this(),
                                 static_cast<size_t>(backend_));
  return !closed_;
}

void ProxySession::detach_upstream(bool reusable) {
  cancel_header_timer();
  if (upstream_registered_) {
    (void)server_.reactor_.deregister(upstream_.fd());
    upstream_registered_ = false;
  }
  if (upstream_.valid()) {
    if (backend_ >= 0) {
      server_.release_upstream(static_cast<size_t>(backend_),
                               std::move(upstream_), reusable);
    } else {
      upstream_.close();
    }
  }
  upstream_in_.clear();
  upstream_out_.clear();
  upstream_reused_ = false;
}

// ---- exchange lifecycle ---------------------------------------------------

void ProxySession::complete_exchange() {
  release_in_flight();
  if (!client_keep_alive_ || client_eof_) {
    close_session();
    return;
  }
  reset_exchange_state();
  if (!client_in_.empty()) process_client();
}

void ProxySession::release_in_flight() {
  if (!in_flight_counted_ || backend_ < 0) return;
  server_.backends_.release_load(static_cast<size_t>(backend_));
  in_flight_counted_ = false;
}

void ProxySession::reset_exchange_state() {
  req_head_.reset();
  resp_head_.reset();
  req_state_ = ReqState::kIdle;
  resp_state_ = RespState::kNone;
  req_body_remaining_ = 0;
  resp_body_remaining_ = 0;
  backend_ = -1;
  replay_buffer_.clear();
  replay_armed_ = false;
  retry_used_ = false;
  response_bytes_seen_ = false;
  interim_heads_ = 0;
  client_committed_ = false;
  upstream_poisoned_ = false;
  upstream_reused_ = false;
  waiting_for_upstream_ = false;
}

void ProxySession::send_error(http::StatusCode status) {
  if (closed_) return;
  if (client_committed_) {
    // The head is already on the wire; a late error page would smuggle.
    abort("proxy-error-after-commit");
    return;
  }
  waiting_for_upstream_ = false;
  detach_upstream(/*reusable=*/false);
  switch (status) {
    case http::StatusCode::kBadGateway:
      server_.counters_.bad_gateway.fetch_add(1, std::memory_order_relaxed);
      emit("proxy-502");
      break;
    case http::StatusCode::kGatewayTimeout:
      server_.counters_.gateway_timeout.fetch_add(1,
                                                  std::memory_order_relaxed);
      emit("proxy-504");
      break;
    default:
      emit("proxy-reject");
      break;
  }
  release_in_flight();
  client_out_.push_owned(http::make_error_response(status, false).serialize());
  client_committed_ = true;
  client_keep_alive_ = false;
  closing_after_flush_ = true;
  if (flush_client()) update_interest();
}

void ProxySession::close_session() {
  if (closed_) return;
  closed_ = true;
  cancel_header_timer();
  detach_upstream(/*reusable=*/false);
  if (client_.valid()) {
    (void)server_.reactor_.deregister(client_.fd());
    client_.close();
  }
  release_in_flight();
  server_.session_done(id_);
}

// ---- plumbing -------------------------------------------------------------

void ProxySession::append_upstream(std::string_view bytes) {
  if (bytes.empty()) return;
  if (replay_armed_) {
    if (replay_buffer_.size() + bytes.size() >
        server_.config_.retry_buffer_limit) {
      // Past the replay cap the retry disarms; a stale-connection failure
      // now surfaces as 502 rather than replaying a truncated request.
      replay_armed_ = false;
      replay_buffer_.clear();
    } else {
      replay_buffer_.append(bytes);
    }
  }
  upstream_out_.push_owned(std::string(bytes));
}

void ProxySession::update_interest() {
  if (closed_) return;
  if (client_read_gate_.update(upstream_out_.readable()) &&
      client_read_gate_.paused()) {
    server_.counters_.backpressure.fetch_add(1, std::memory_order_relaxed);
    emit("proxy-backpressure dir=request");
  }
  if (upstream_read_gate_.update(client_out_.readable()) &&
      upstream_read_gate_.paused()) {
    server_.counters_.backpressure.fetch_add(1, std::memory_order_relaxed);
    emit("proxy-backpressure dir=response");
  }
  uint32_t client_interest = 0;
  const bool consuming_client = req_state_ == ReqState::kIdle ||
                                req_state_ == ReqState::kHead ||
                                req_state_ == ReqState::kBody;
  if (consuming_client && !client_eof_ && !closing_after_flush_ &&
      !client_read_gate_.paused()) {
    client_interest |= net::kReadable;
  }
  if (!client_out_.empty()) client_interest |= net::kWritable;
  (void)server_.reactor_.update_interest(client_.fd(), client_interest);
  if (upstream_registered_) {
    uint32_t upstream_interest = 0;
    const bool consuming_upstream = resp_state_ == RespState::kHead ||
                                    resp_state_ == RespState::kBody;
    if (consuming_upstream && !upstream_read_gate_.paused()) {
      upstream_interest |= net::kReadable;
    }
    if (!upstream_out_.empty()) upstream_interest |= net::kWritable;
    (void)server_.reactor_.update_interest(upstream_.fd(), upstream_interest);
  }
}

bool ProxySession::flush_client() {
  if (closed_) return false;
  while (!client_out_.empty()) {
    struct iovec iov[kMaxIovPerRound];
    const int iovcnt = client_out_.fill_iovec(iov, kMaxIovPerRound);
    if (iovcnt == 0) break;  // unreachable: the relay queues no file slices
    auto sent = client_.writev(iov, iovcnt);
    if (!sent.is_ok()) {
      if (sent.status().code() == StatusCode::kWouldBlock) break;
      close_session();
      return false;
    }
    client_out_.consume(sent.value());
  }
  if (client_out_.empty()) {
    if (closing_after_flush_) {
      close_session();
      return false;
    }
    if (resp_state_ == RespState::kDone) complete_exchange();
  }
  return !closed_;
}

void ProxySession::emit(const char* what) {
  server_.emit(std::string(what) + " session=" + std::to_string(id_));
}

}  // namespace cops::proxy
