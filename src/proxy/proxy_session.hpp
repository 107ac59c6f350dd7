// ProxySession — one client connection's streaming relay state machine.
//
// The session is an EventHandler over (up to) two fds — the client socket
// and the current upstream socket — and relays one HTTP/1.x exchange at a
// time, keep-alive on both sides:
//
//   client ──request head──▶ [strip hop-by-hop, add Via] ──▶ upstream
//          ──body bytes────▶ [CL countdown / ChunkPassthrough] ─▶
//          ◀──response head─ [validate untrusted head, 502 on junk]
//          ◀──body bytes──── [raw pass-through, framing validated]
//
// No full-body buffering anywhere: body bytes move read-window by
// read-window through the two SendQueues, and a Watermark on each queue
// stops reading the producing side when the consuming side falls behind
// (resumed below the low mark).  Chunked bodies are forwarded *verbatim* —
// the ChunkPassthrough validates framing and finds the message boundary,
// but the wire bytes are the origin's, which is what makes the proxied
// stream byte-identical to a direct fetch (tests/differential_test.cpp).
//
// Error model (tests/model_proxy_test.cpp):
//   upstream connect failure        → 502, close
//   upstream header timeout         → 504, close
//   malformed upstream response     → 502, upstream poisoned (never pooled)
//   upstream death before any
//     response byte, reused socket  → one retry on a fresh connection
//     (request bytes replayed from a bounded buffer), else 502
//   upstream death mid-body         → abort: the client sees a framing-
//     incomplete stream + close, never a well-formed truncated reply.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/byte_buffer.hpp"
#include "common/send_queue.hpp"
#include "http/response_parser.hpp"
#include "net/event_handler.hpp"
#include "net/socket.hpp"

namespace cops::proxy {

class ProxyServer;

class ProxySession : public net::EventHandler,
                     public std::enable_shared_from_this<ProxySession> {
 public:
  ProxySession(uint64_t id, ProxyServer& server, net::TcpSocket client);
  ~ProxySession() override;

  Status start();
  // Hard teardown (server stop): close both sides, no reply owed.
  void abort(const char* reason);

  // ProxyServer callbacks (reactor thread; may run synchronously from
  // request_upstream):
  void upstream_ready(net::TcpSocket socket, bool reused);
  void upstream_failed();

  void handle_event(int fd, uint32_t readiness) override;

  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  enum class ReqState {
    kIdle,  // between exchanges (keep-alive) / before the first head
    kHead,  // head bytes accumulating
    kBody,  // streaming body towards upstream
    kSent,  // request fully queued upstream
  };
  enum class RespState {
    kNone,  // no upstream yet / between exchanges
    kHead,  // awaiting or accumulating the response head
    kBody,  // streaming body towards the client
    kDone,  // response fully queued to the client
  };

  // --- client side -------------------------------------------------------
  void on_client_readable();
  void process_client();
  bool begin_request();             // request head parsed
  void relay_request_body();
  void request_sent();

  // --- upstream side -----------------------------------------------------
  void on_upstream_readable();
  void process_upstream();
  bool begin_response();            // final response head parsed
  void relay_response_body();
  void finish_response();
  void on_upstream_writable();
  void flush_upstream();
  void upstream_gone(bool reset);   // EOF or RST from upstream
  void malformed_upstream();
  void header_timeout_fired();
  void maybe_arm_header_timer();
  void cancel_header_timer();
  bool try_stale_retry();
  void detach_upstream(bool reusable);  // release/close + deregister

  // --- exchange lifecycle ------------------------------------------------
  void complete_exchange();
  void release_in_flight();  // the exchange's unit of backend load
  void reset_exchange_state();
  void send_error(http::StatusCode status);
  void close_session();

  // --- plumbing ----------------------------------------------------------
  void append_upstream(std::string_view bytes);  // + replay buffer capture
  void update_interest();
  bool flush_client();  // false: session closed
  void emit(const char* what);

  uint64_t id_;
  ProxyServer& server_;
  net::TcpSocket client_;
  net::TcpSocket upstream_;

  ByteBuffer client_in_;
  ByteBuffer upstream_in_;
  SendQueue client_out_;    // towards the client
  SendQueue upstream_out_;  // towards the upstream

  // Watermarks: reading the client pauses on upstream_out_'s depth, reading
  // the upstream pauses on client_out_'s depth.
  Watermark client_read_gate_;
  Watermark upstream_read_gate_;

  http::MessageHead req_head_;
  http::MessageHead resp_head_;
  http::ChunkPassthrough req_chunks_;
  http::ChunkPassthrough resp_chunks_;

  ReqState req_state_ = ReqState::kIdle;
  RespState resp_state_ = RespState::kNone;
  uint64_t req_body_remaining_ = 0;   // CL mode
  uint64_t resp_body_remaining_ = 0;  // CL mode

  int backend_ = -1;
  bool in_flight_counted_ = false;
  bool upstream_registered_ = false;
  bool upstream_reused_ = false;
  bool upstream_poisoned_ = false;
  bool waiting_for_upstream_ = false;  // acquisition in flight / parked

  // Stale retry: exact request bytes sent so far, retained until the first
  // response byte (bounded by retry_buffer_limit).
  std::string replay_buffer_;
  bool replay_armed_ = false;
  bool retry_used_ = false;
  bool response_bytes_seen_ = false;
  int interim_heads_ = 0;  // 1xx responses skipped (bounded)

  bool client_committed_ = false;  // response head already sent clientward
  bool client_keep_alive_ = false;
  bool upstream_keep_alive_ = false;
  bool client_eof_ = false;
  bool closing_after_flush_ = false;
  bool closed_ = false;

  uint64_t header_timer_ = 0;
  bool header_timer_armed_ = false;
};

}  // namespace cops::proxy
