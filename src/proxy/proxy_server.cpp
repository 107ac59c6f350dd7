#include "proxy/proxy_server.hpp"

#include <cstdio>
#include <utility>

#include "cluster/lb_policy.hpp"
#include "common/clock.hpp"
#include "nserver/admin_server.hpp"
#include "nserver/stats.hpp"
#include "proxy/proxy_session.hpp"

namespace cops::proxy {

ProxyServer::ProxyServer(ProxyConfig config)
    : config_(std::move(config)),
      backends_(config_.policy, config_.seed),
      pool_(0, {.max_per_backend = config_.pool_max_per_backend,
                .max_idle_per_backend = config_.pool_max_idle_per_backend}) {}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::add_backend(const net::InetAddress& addr) {
  backends_.add(addr);
  pool_.add_backend();
}

Status ProxyServer::start() {
  if (started_.exchange(true)) {
    return Status::invalid_argument("already started");
  }
  if (backends_.size() == 0) {
    return Status::invalid_argument("proxy: no backends configured");
  }
  if (config_.low_watermark >= config_.high_watermark) {
    return Status::invalid_argument(
        "proxy: low_watermark must be below high_watermark");
  }
  if (config_.pool_max_per_backend == 0) {
    return Status::invalid_argument("proxy: upstream needs a positive pool cap");
  }
  waiters_.assign(backends_.size(), {});
  connector_ = std::make_unique<net::Connector>(reactor_);
  acceptor_ = std::make_unique<net::Acceptor>(
      reactor_, [this](net::TcpSocket client) { on_accept(std::move(client)); });
  auto bound = acceptor_->open(config_.listen_host, config_.listen_port,
                               config_.listen_backlog);
  if (!bound.is_ok()) return bound.status();
  port_ = bound.value();
  if (config_.admin_enabled) {
    nserver::AdminRoutes routes;
    routes.unhealthy = [this]() -> const char* {
      return stopping_.load() ? "stopping\n" : nullptr;
    };
    routes.metrics = [this](nserver::MetricsWriter& w) { write_stats(w); };
    routes.banner = "cops-proxy admin";
    admin_ = std::make_unique<nserver::AdminServer>(reactor_,
                                                    std::move(routes));
    auto admin_bound = admin_->open(config_.admin_host, config_.admin_port);
    if (!admin_bound.is_ok()) return admin_bound.status();
    admin_port_ = admin_bound.value();
  }
  if (config_.overload_adaptive) {
    build_overload_manager();
    reactor_.run_after(config_.overload_tick_interval,
                       [this] { overload_tick(); });
  }
  reactor_.start_thread("proxy");
  return Status::ok();
}

// ---- adaptive overload ----------------------------------------------------

void ProxyServer::build_overload_manager() {
  overload_ = std::make_unique<nserver::OverloadManager>(config_.overload);
  // Pool waiter depth: sessions parked at per-backend connection caps are
  // exactly the demand the upstreams cannot absorb.  The lambda runs inside
  // tick(), which only ever executes on the reactor thread — the same
  // thread that mutates waiters_ — so no lock is needed.
  const double capacity = static_cast<double>(backends_.size()) *
                          static_cast<double>(config_.pool_max_per_backend);
  overload_->add_monitor(std::make_unique<nserver::GaugeMonitor>(
      "pool_waiters",
      [this] {
        size_t total = 0;
        for (const auto& queue : waiters_) total += queue.size();
        return static_cast<double>(total);
      },
      capacity));
  // Upstream failure fraction over the tick window: 502s + 504s per request
  // head.  A quarter of traffic failing upstream reads as full pressure.
  overload_->add_monitor(std::make_unique<nserver::RateMonitor>(
      "upstream_5xx",
      [this] {
        return counters_.bad_gateway.load(std::memory_order_relaxed) +
               counters_.gateway_timeout.load(std::memory_order_relaxed);
      },
      [this] { return counters_.requests.load(std::memory_order_relaxed); },
      /*full_scale=*/0.25));
  nserver::OverloadActions actions;
  // Shed is read directly by sessions via overload_->shedding(); the action
  // only narrates the transition.
  actions.shed = [this](bool engaged) {
    emit(engaged ? "proxy-shed-on" : "proxy-shed-off");
  };
  actions.stop_accept = [this](bool engaged) {
    if (!acceptor_) return;
    if (engaged) {
      acceptor_->suspend();
    } else {
      acceptor_->resume();
    }
    emit(engaged ? "proxy-accept-suspend" : "proxy-accept-resume");
  };
  overload_->set_actions(std::move(actions));
}

void ProxyServer::overload_tick() {
  if (stopping_.load() || !overload_) return;
  overload_->tick(now());
  reactor_.run_after(config_.overload_tick_interval,
                     [this] { overload_tick(); });
}

void ProxyServer::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Inline when a failed start() never launched the reactor thread.
  reactor_.run_sync([this] {
    if (acceptor_) acceptor_->close();
    if (admin_) admin_->close();
    // Abort active sessions (copy: abort mutates the map via session_done).
    std::vector<std::shared_ptr<ProxySession>> sessions;
    sessions.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) sessions.push_back(session);
    for (auto& session : sessions) session->abort("proxy-stop");
    pool_.close_all();
  });
  reactor_.stop();
  reactor_.join();
}

// ---- accept / selection ---------------------------------------------------

void ProxyServer::on_accept(net::TcpSocket client) {
  if (stopping_.load()) {
    client.close();
    return;
  }
  const uint64_t id = next_session_id_++;
  auto session = std::make_shared<ProxySession>(id, *this, std::move(client));
  if (!session->start().is_ok()) return;  // socket closes via RAII
  sessions_.emplace(id, std::move(session));
}

size_t ProxyServer::select_backend(std::string_view affinity_key) {
  backends_.admit();
  return backends_.order(affinity_key).front();
}

// ---- upstream acquisition -------------------------------------------------

void ProxyServer::request_upstream(const std::shared_ptr<ProxySession>& session,
                                   size_t backend) {
  net::TcpSocket socket;
  switch (pool_.acquire(backend, &socket)) {
    case UpstreamPool::Acquire::kReused:
      emit("proxy-pool-reuse backend=" + std::to_string(backend));
      session->upstream_ready(std::move(socket), /*reused=*/true);
      return;
    case UpstreamPool::Acquire::kConnect:
      emit("proxy-pool-miss backend=" + std::to_string(backend));
      start_connect(session, backend);
      return;
    case UpstreamPool::Acquire::kAtCapacity:
      emit("proxy-pool-wait backend=" + std::to_string(backend));
      waiters_[backend].push_back(session->id());
      return;
  }
}

void ProxyServer::request_upstream_fresh(
    const std::shared_ptr<ProxySession>& session, size_t backend) {
  switch (pool_.acquire_fresh(backend)) {
    case UpstreamPool::Acquire::kConnect:
      start_connect(session, backend);
      return;
    case UpstreamPool::Acquire::kAtCapacity:
      // The retry jumps the queue: its client already waited one full
      // upstream lifetime.
      waiters_[backend].push_front(session->id());
      return;
    default:
      return;  // kReused is impossible on the fresh path
  }
}

void ProxyServer::start_connect(const std::shared_ptr<ProxySession>& session,
                                size_t backend) {
  auto on_done = [this, session, backend](Result<net::TcpSocket> result) {
    if (!result.is_ok()) {
      abandon_upstream(backend);
      emit("proxy-connect-fail backend=" + std::to_string(backend));
      session->upstream_failed();
      wake_waiter(backend);
      return;
    }
    session->upstream_ready(std::move(result).take(), /*reused=*/false);
  };
  const auto& addr = backends_.address(backend);
  Status status =
      config_.connect_timeout > Duration::zero()
          ? connector_->connect(addr, config_.connect_timeout,
                                std::move(on_done))
          : connector_->connect(addr, std::move(on_done));
  // A synchronous refusal (no listener / simnet killed port) returns here
  // without invoking the callback.
  if (!status.is_ok()) {
    abandon_upstream(backend);
    emit("proxy-connect-fail backend=" + std::to_string(backend));
    session->upstream_failed();
    wake_waiter(backend);
  }
}

void ProxyServer::release_upstream(size_t backend, net::TcpSocket socket,
                                   bool reusable) {
  if (stopping_.load()) {
    socket.close();
    return;
  }
  pool_.release(backend, std::move(socket), reusable);
  wake_waiter(backend);
}

void ProxyServer::abandon_upstream(size_t backend) { pool_.abandon(backend); }

void ProxyServer::wake_waiter(size_t backend) {
  if (backend >= waiters_.size() || stopping_.load()) return;
  auto& queue = waiters_[backend];
  while (!queue.empty()) {
    const uint64_t id = queue.front();
    queue.pop_front();
    auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;  // waiter died while parked
    request_upstream(it->second, backend);
    return;
  }
}

// ---- bookkeeping ----------------------------------------------------------

void ProxyServer::session_done(uint64_t id) {
  for (auto& queue : waiters_) {
    for (auto it = queue.begin(); it != queue.end();) {
      it = (*it == id) ? queue.erase(it) : std::next(it);
    }
  }
  // Deleting the session inside its own callback would free the object
  // mid-call; defer the erase to the next loop turn.
  reactor_.post([this, id] { sessions_.erase(id); });
}

void ProxyServer::emit(const std::string& event) {
  if (config_.event_listener) config_.event_listener(event);
}

// ---- admin endpoint -------------------------------------------------------

void ProxyServer::write_stats(nserver::MetricsWriter& w) const {
  w.counter("cops_proxy_requests_total", "requests",
            "Request heads accepted.", counters_.requests.load());
  w.counter("cops_proxy_responses_total", "responses",
            "Upstream responses relayed.", counters_.responses.load());
  w.counter("cops_proxy_bad_gateway_total", "bad_gateway", "502s issued.",
            counters_.bad_gateway.load());
  w.counter("cops_proxy_gateway_timeout_total", "gateway_timeout",
            "504s issued.", counters_.gateway_timeout.load());
  w.counter("cops_proxy_poisoned_upstreams_total", "poisoned_upstreams",
            "Upstream connections poisoned.", counters_.poisoned.load());
  w.counter("cops_proxy_backpressure_events_total", "backpressure_events",
            "Watermark pause transitions.", counters_.backpressure.load());
  w.counter("cops_proxy_shed_total", "shed",
            "503s from the overload manager.", counters_.shed.load());
  if (overload_) {
    nserver::write_overload(w, "cops_proxy_overload_", overload_->snapshot());
  }
  w.begin_object("pool");
  w.counter("cops_proxy_pool_reuse_total", "reuse",
            "Idle pooled connections reused.", pool_reuse_total());
  w.counter("cops_proxy_pool_miss_total", "miss",
            "Upstream connections opened.", pool_miss_total());
  w.counter("cops_proxy_pool_stale_retry_total", "stale_retry",
            "Stale reuses retried on a fresh connection.",
            pool_stale_retry_total());
  w.end_object();
  w.begin_table("backends", "backend", "index");
  for (size_t i = 0; i < backends_.size(); ++i) {
    w.row(i);
    w.json_string("address", backends_.address(i).to_string());
    w.gauge("cops_proxy_backend_in_flight", "in_flight",
            "Requests in flight to the backend.",
            static_cast<uint64_t>(backends_.load(i)));
    w.json("pool_in_use", static_cast<uint64_t>(pool_.in_use(i)));
    w.json("pool_idle", static_cast<uint64_t>(pool_.idle(i)));
  }
  w.end_table();
}

}  // namespace cops::proxy
