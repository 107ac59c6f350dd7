// RequestContext — the hooks' window into the framework.
//
// One context accompanies each hook invocation.  It exposes (a) connection
// identity and per-connection application state, (b) the framework services
// a Handle step may need — transparent file cache, proactor-emulated file
// reads — and (c) the resolution verbs that end a request: reply, finish,
// close.
//
// Contexts are shared_ptr-managed so a fetch_file() continuation can carry
// the context across an asynchronous completion (the Asynchronous Completion
// Token in object form).
#pragma once

#include <any>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "common/send_queue.hpp"
#include "common/status.hpp"
#include "nserver/file_io_service.hpp"
#include "nserver/options.hpp"
#include "nserver/trace_context.hpp"

namespace cops::nserver {

class Server;
class Connection;

class RequestContext : public std::enable_shared_from_this<RequestContext> {
 public:
  RequestContext(Server& server, std::shared_ptr<Connection> conn);

  // ---- identity ----------------------------------------------------------
  [[nodiscard]] uint64_t connection_id() const;
  // Arbitrary per-connection session state owned by the application.
  [[nodiscard]] std::shared_ptr<void>& app_state();
  [[nodiscard]] bool connection_closed() const;

  // Scheduling priority of the current request (O8).
  [[nodiscard]] int priority() const { return priority_; }

  // ---- services ----------------------------------------------------------
  // Cache-aware file fetch.  On a cache hit `done` runs immediately on the
  // calling thread; on a miss the read happens per option O4 — emulated
  // non-blocking I/O with a completion event (Asynchronous), or a blocking
  // read on this worker thread (Synchronous) — and `done` runs when it
  // finishes.  Exactly the paper's transparent-caching contract: the hook
  // code is identical with caching on or off.
  using FetchCallback =
      std::function<void(RequestContext& ctx, Result<FileDataPtr> file)>;
  void fetch_file(std::string path, FetchCallback done);

  // O9 shed tier: true while the server is overloaded and `overload_shed`
  // is on — the Handle hook should answer with a cheap rejection (HTTP:
  // 503 + Retry-After of shed_retry_after()) instead of doing the work,
  // then call note_shed() so the rejection is counted.  Cheap (one relaxed
  // atomic read); always false when shedding is not configured.
  [[nodiscard]] bool should_shed() const;
  [[nodiscard]] std::chrono::seconds shed_retry_after() const;
  void note_shed();


  // ---- output ------------------------------------------------------------
  // Sends bytes without completing the request (multi-part replies,
  // greetings, FTP intermediate responses).  The calling thread writes
  // them, behind any bytes of this connection still queued; a write that
  // would block is finished by the dispatcher.
  void send(std::string bytes);
  // Completes the request: response → Encode Reply hook (O3) → Send Reply.
  void reply(std::any response);
  // Completes the request with pre-encoded bytes (skips the Encode hook).
  void reply_raw(std::string bytes);
  // Completes the request without sending anything.
  void finish();
  // After the (next) completed reply drains, close the connection.
  void close_after_reply();
  // Closes the connection immediately.
  void close();

  [[nodiscard]] bool resolved() const { return resolved_.load(); }

  // Creates an independent, long-lived handle to the same connection for
  // server-initiated sends outside any request (e.g. chat broadcasts,
  // server push).  send()/close() on the handle stay valid for the
  // connection's lifetime; after the connection closes they are no-ops.
  [[nodiscard]] std::shared_ptr<RequestContext> make_handle() const;

 private:
  friend class Server;
  bool mark_resolved();  // false if already resolved (double resolution)

  Server& server_;
  std::shared_ptr<Connection> conn_;
  int priority_ = 0;
  std::atomic<bool> resolved_{false};
};

using RequestContextPtr = std::shared_ptr<RequestContext>;

}  // namespace cops::nserver
