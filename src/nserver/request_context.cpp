#include "nserver/request_context.hpp"

#include "common/logging.hpp"
#include "nserver/connection.hpp"
#include "nserver/server.hpp"

namespace cops::nserver {

RequestContext::RequestContext(Server& server, std::shared_ptr<Connection> conn)
    : server_(server), conn_(std::move(conn)) {}

uint64_t RequestContext::connection_id() const { return conn_->id(); }

std::string RequestContext::peer() const { return conn_->peer(); }

std::shared_ptr<void>& RequestContext::app_state() {
  return conn_->app_state();
}

bool RequestContext::connection_closed() const { return conn_->closed(); }

void RequestContext::set_priority(int priority) {
  priority_ = priority;
  conn_->set_priority(priority);
}

void RequestContext::fetch_file(std::string path, FetchCallback done) {
  server_.fetch_file(shared_from_this(), std::move(path), std::move(done));
}

bool RequestContext::should_shed() const {
  OverloadManager* overload = server_.overload_.get();
  if (!overload) return false;
  // Adaptive O9, SPED mode: the dispatcher loop IS the worker, so a long
  // ready-batch starves the housekeeping timer that normally runs the
  // control loop.  Give the manager a chance to tick between requests of
  // the same pass; it rate-limits itself and this is the dispatcher
  // thread, so the graduated actions stay on their home thread.
  if (server_.processor_->inline_mode() && !server_.delay_monitors_.empty()) {
    overload->maybe_tick(now());
  }
  return overload->shedding();
}

std::chrono::seconds RequestContext::shed_retry_after() const {
  // The manager's hint: under adaptive it tracks the measured pressure
  // decay, clamped to [overload_retry_after, overload_retry_after_max];
  // under watermark both clamps are overload_retry_after.
  const OverloadManager* overload = server_.overload_.get();
  return overload ? overload->retry_after_hint()
                  : server_.options_.overload_retry_after;
}

void RequestContext::note_shed() {
  if (server_.options_.profiling) server_.profiler_.count_shed();
}

TraceContext& RequestContext::trace() { return conn_->trace(); }

std::shared_ptr<RequestContext> RequestContext::make_handle() const {
  return server_.make_context(conn_);
}

bool RequestContext::mark_resolved() {
  bool expected = false;
  if (!resolved_.compare_exchange_strong(expected, true)) {
    COPS_WARN("request on connection " << conn_->id()
                                       << " resolved more than once");
    return false;
  }
  return true;
}

void RequestContext::send(std::string bytes) {
  conn_->send(EncodedReply::from_string(std::move(bytes)));
}

void RequestContext::reply(std::any response) {
  server_.resolve_with_reply(*this, std::move(response));
}

void RequestContext::reply_raw(std::string bytes) {
  if (!mark_resolved()) return;
  conn_->send_reply(EncodedReply::from_string(std::move(bytes)));
}

void RequestContext::finish() {
  if (!mark_resolved()) return;
  auto conn = conn_;
  conn->reactor().post([conn] { conn->continue_pipeline(); });
}

void RequestContext::close_after_reply() { conn_->set_close_after_reply(); }

void RequestContext::close() {
  mark_resolved();
  auto conn = conn_;
  conn->reactor().post([conn] { conn->close("hook-close"); });
}

}  // namespace cops::nserver
