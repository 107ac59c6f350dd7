#include "proxy/proxy_server.hpp"

#include <cstdio>
#include <future>
#include <utility>

#include "cluster/lb_policy.hpp"
#include "common/clock.hpp"
#include "nserver/admin_server.hpp"
#include "proxy/proxy_session.hpp"

namespace cops::proxy {

ProxyServer::ProxyServer(ProxyConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::add_backend(const net::InetAddress& addr) {
  backends_.push_back(Backend{addr, false});
}

Status ProxyServer::start() {
  if (started_.exchange(true)) {
    return Status::invalid_argument("already started");
  }
  if (backends_.empty()) {
    return Status::invalid_argument("proxy: no backends configured");
  }
  if (config_.low_watermark >= config_.high_watermark) {
    return Status::invalid_argument(
        "proxy: low_watermark must be below high_watermark");
  }
  in_flight_ = std::vector<std::atomic<size_t>>(backends_.size());
  waiters_.assign(backends_.size(), {});
  if (config_.upstream_mode == nserver::UpstreamMode::kPooled) {
    if (config_.pool_max_per_backend == 0) {
      return Status::invalid_argument(
          "proxy: pooled upstream_mode needs a positive pool cap");
    }
    UpstreamPool::Config pool_config;
    pool_config.max_per_backend = config_.pool_max_per_backend;
    pool_config.max_idle_per_backend = config_.pool_max_idle_per_backend;
    pool_ = std::make_unique<UpstreamPool>(backends_.size(), pool_config);
  }
  if (config_.policy == cluster::BalancePolicy::kRingHash) {
    ring_.build(backends_.size());
  }
  connector_ = std::make_unique<net::Connector>(reactor_);
  acceptor_ = std::make_unique<net::Acceptor>(
      reactor_, [this](net::TcpSocket client) { on_accept(std::move(client)); });
  auto addr = net::InetAddress::parse(config_.listen_host, config_.listen_port);
  if (!addr.is_ok()) return addr.status();
  auto status = acceptor_->open(addr.value(), config_.listen_backlog);
  if (!status.is_ok()) return status;
  auto bound = acceptor_->local_address();
  if (!bound.is_ok()) return bound.status();
  port_ = bound.value().port();
  if (config_.admin_enabled) {
    nserver::AdminRoutes routes;
    routes.unhealthy = [this]() -> const char* {
      return stopping_.load() ? "stopping\n" : nullptr;
    };
    routes.prometheus = [this] { return render_stats_prometheus(); };
    routes.json = [this] { return render_stats_json(); };
    routes.banner = "cops-proxy admin";
    admin_ = std::make_unique<nserver::AdminServer>(reactor_,
                                                    std::move(routes));
    auto admin_addr =
        net::InetAddress::parse(config_.admin_host, config_.admin_port);
    if (!admin_addr.is_ok()) return admin_addr.status();
    auto admin_status = admin_->open(admin_addr.value());
    if (!admin_status.is_ok()) return admin_status;
    admin_port_ = admin_->port();
  }
  if (config_.overload_adaptive) {
    build_overload_manager();
    reactor_.run_after(config_.overload_tick_interval,
                       [this] { overload_tick(); });
  }
  reactor_.start_thread("proxy");
  launched_.store(true);
  return Status::ok();
}

// ---- adaptive overload ----------------------------------------------------

void ProxyServer::build_overload_manager() {
  overload_ = std::make_unique<nserver::OverloadManager>(config_.overload);
  // Pool waiter depth: sessions parked at per-backend connection caps are
  // exactly the demand the upstreams cannot absorb.  The lambda runs inside
  // tick(), which only ever executes on the reactor thread — the same
  // thread that mutates waiters_ — so no lock is needed.
  if (pool_) {
    const double capacity =
        static_cast<double>(backends_.size()) *
        static_cast<double>(config_.pool_max_per_backend);
    overload_->add_monitor(std::make_unique<nserver::GaugeMonitor>(
        "pool_waiters",
        [this] {
          size_t total = 0;
          for (const auto& queue : waiters_) total += queue.size();
          return static_cast<double>(total);
        },
        capacity));
  }
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
  // A failed start() never launched the reactor thread; posting to it and
  // waiting would deadlock.
  if (!launched_.load() || stopping_.exchange(true)) return;
  std::promise<void> done;
  auto fut = done.get_future();
  reactor_.post([this, &done] {
    if (acceptor_) acceptor_->close();
    if (admin_) admin_->close();
    // Abort active sessions (copy: abort mutates the map via session_done).
    std::vector<std::shared_ptr<ProxySession>> sessions;
    sessions.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) sessions.push_back(session);
    for (auto& session : sessions) session->abort("proxy-stop");
    if (pool_) pool_->close_all();
    done.set_value();
  });
  fut.wait();
  reactor_.stop();
  reactor_.join();
}

void ProxyServer::drain_backend(size_t index, bool draining) {
  auto apply = [this, index, draining] {
    if (index >= backends_.size()) return;
    if (backends_[index].draining == draining) return;
    backends_[index].draining = draining;
    if (pool_) pool_->drain(index, draining);
    emit(std::string(draining ? "proxy-drain" : "proxy-undrain") +
         " backend=" + std::to_string(index));
  };
  if (!launched_.load()) {
    apply();
    return;
  }
  reactor_.post(apply);
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

int ProxyServer::select_backend(std::string_view affinity_key) {
  const size_t count = backends_.size();
  if (count == 0) return -1;
  auto eligible = [this](size_t index) { return !backends_[index].draining; };
  auto least_loaded_eligible = [&]() -> int {
    int best = -1;
    for (size_t i = 0; i < count; ++i) {
      if (!eligible(i)) continue;
      if (best < 0 ||
          in_flight_[i].load(std::memory_order_relaxed) <
              in_flight_[static_cast<size_t>(best)].load(
                  std::memory_order_relaxed)) {
        best = static_cast<int>(i);
      }
    }
    return best;
  };
  switch (config_.policy) {
    case cluster::BalancePolicy::kRoundRobin: {
      // Free-running cursor, reduced modulo the *live* count at pick time
      // (the shrink-safety contract shared with the LoadBalancer).
      const uint64_t cursor = round_robin_next_++;
      for (size_t step = 0; step < count; ++step) {
        const size_t index = cluster::pick_round_robin(cursor + step, count);
        if (eligible(index)) return static_cast<int>(index);
      }
      return -1;
    }
    case cluster::BalancePolicy::kLeastConnections:
      return least_loaded_eligible();
    case cluster::BalancePolicy::kPowerOfTwoChoices: {
      std::vector<size_t> loads(count);
      for (size_t i = 0; i < count; ++i) {
        loads[i] = in_flight_[i].load(std::memory_order_relaxed);
      }
      const size_t pick = cluster::pick_p2c(rng_, loads);
      if (eligible(pick)) return static_cast<int>(pick);
      return least_loaded_eligible();
    }
    case cluster::BalancePolicy::kRingHash: {
      for (size_t index : ring_.pick_order(affinity_key)) {
        if (eligible(index)) return static_cast<int>(index);
      }
      return -1;
    }
  }
  return -1;
}

// ---- upstream acquisition -------------------------------------------------

void ProxyServer::request_upstream(const std::shared_ptr<ProxySession>& session,
                                   size_t backend) {
  if (!pool_) {
    start_connect(session, backend);
    return;
  }
  net::TcpSocket socket;
  switch (pool_->acquire(backend, &socket)) {
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
  if (!pool_) {
    start_connect(session, backend);
    return;
  }
  switch (pool_->acquire_fresh(backend)) {
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
  const auto& addr = backends_[backend].addr;
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
  if (!pool_ || stopping_.load()) {
    socket.close();
    return;
  }
  pool_->release(backend, std::move(socket), reusable);
  wake_waiter(backend);
}

void ProxyServer::abandon_upstream(size_t backend) {
  if (pool_) pool_->abandon(backend);
}

void ProxyServer::wake_waiter(size_t backend) {
  if (!pool_ || backend >= waiters_.size() || stopping_.load()) return;
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

void ProxyServer::note_request_start(size_t backend) {
  in_flight_[backend].fetch_add(1, std::memory_order_relaxed);
}

void ProxyServer::note_request_end(size_t backend) {
  auto& gauge = in_flight_[backend];
  if (gauge.load(std::memory_order_relaxed) > 0) {
    gauge.fetch_sub(1, std::memory_order_relaxed);
  }
}

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

namespace {

void append_metric(std::string& out, const char* name, const char* type,
                   uint64_t value) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

std::string format_fraction(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

}  // namespace

std::string ProxyServer::render_stats_prometheus() const {
  std::string out;
  out.reserve(1024);
  append_metric(out, "cops_proxy_requests_total", "counter",
                counters_.requests.load(std::memory_order_relaxed));
  append_metric(out, "cops_proxy_responses_total", "counter",
                counters_.responses.load(std::memory_order_relaxed));
  append_metric(out, "cops_proxy_bad_gateway_total", "counter",
                counters_.bad_gateway.load(std::memory_order_relaxed));
  append_metric(out, "cops_proxy_gateway_timeout_total", "counter",
                counters_.gateway_timeout.load(std::memory_order_relaxed));
  append_metric(out, "cops_proxy_poisoned_upstreams_total", "counter",
                counters_.poisoned.load(std::memory_order_relaxed));
  append_metric(out, "cops_proxy_backpressure_events_total", "counter",
                counters_.backpressure.load(std::memory_order_relaxed));
  append_metric(out, "cops_proxy_shed_total", "counter",
                counters_.shed.load(std::memory_order_relaxed));
  append_metric(out, "cops_proxy_pool_reuse_total", "counter",
                pool_reuse_total());
  append_metric(out, "cops_proxy_pool_miss_total", "counter",
                pool_miss_total());
  append_metric(out, "cops_proxy_pool_stale_retry_total", "counter",
                pool_stale_retry_total());
  out += "# TYPE cops_proxy_backend_in_flight gauge\n";
  for (size_t i = 0; i < backends_.size(); ++i) {
    out += "cops_proxy_backend_in_flight{backend=\"";
    out += std::to_string(i);
    out += "\"} ";
    out += std::to_string(in_flight_[i].load(std::memory_order_relaxed));
    out += '\n';
  }
  out += "# TYPE cops_proxy_backend_draining gauge\n";
  for (size_t i = 0; i < backends_.size(); ++i) {
    out += "cops_proxy_backend_draining{backend=\"";
    out += std::to_string(i);
    out += "\"} ";
    out += backends_[i].draining ? '1' : '0';
    out += '\n';
  }
  if (overload_) {
    const auto snap = overload_->snapshot();
    out += "# TYPE cops_proxy_overload_pressure gauge\n";
    for (const auto& monitor : snap.monitors) {
      out += "cops_proxy_overload_pressure{monitor=\"";
      out += monitor.name;
      out += "\"} ";
      out += format_fraction(monitor.smoothed);
      out += '\n';
    }
    out += "cops_proxy_overload_pressure{monitor=\"overall\"} ";
    out += format_fraction(snap.pressure);
    out += '\n';
    append_metric(out, "cops_proxy_overload_tier", "gauge",
                  static_cast<uint64_t>(snap.tier));
    append_metric(out, "cops_proxy_overload_retry_after_seconds", "gauge",
                  static_cast<uint64_t>(snap.retry_after.count()));
    append_metric(out, "cops_proxy_overload_accept_stopped", "gauge",
                  snap.accept_stopped ? 1 : 0);
  }
  return out;
}

std::string ProxyServer::render_stats_json() const {
  std::string out = "{";
  out += "\"requests\":" +
         std::to_string(counters_.requests.load(std::memory_order_relaxed));
  out += ",\"responses\":" +
         std::to_string(counters_.responses.load(std::memory_order_relaxed));
  out += ",\"bad_gateway\":" +
         std::to_string(counters_.bad_gateway.load(std::memory_order_relaxed));
  out += ",\"gateway_timeout\":" +
         std::to_string(
             counters_.gateway_timeout.load(std::memory_order_relaxed));
  out += ",\"poisoned_upstreams\":" +
         std::to_string(counters_.poisoned.load(std::memory_order_relaxed));
  out += ",\"backpressure_events\":" +
         std::to_string(
             counters_.backpressure.load(std::memory_order_relaxed));
  out += ",\"shed\":" +
         std::to_string(counters_.shed.load(std::memory_order_relaxed));
  if (overload_) {
    const auto snap = overload_->snapshot();
    out += ",\"overload\":{\"pressure\":" + format_fraction(snap.pressure);
    out += ",\"tier\":" + std::to_string(static_cast<int>(snap.tier));
    out += ",\"tier_name\":\"";
    out += nserver::to_string(snap.tier);
    out += "\",\"retry_after_s\":" + std::to_string(snap.retry_after.count());
    out += std::string(",\"shedding\":") + (snap.shedding ? "true" : "false");
    out += std::string(",\"accept_stopped\":") +
           (snap.accept_stopped ? "true" : "false");
    out += ",\"monitors\":[";
    for (size_t i = 0; i < snap.monitors.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"name\":\"" + snap.monitors[i].name + "\"";
      out += ",\"raw\":" + format_fraction(snap.monitors[i].raw);
      out += ",\"pressure\":" + format_fraction(snap.monitors[i].pressure);
      out += ",\"smoothed\":" + format_fraction(snap.monitors[i].smoothed);
      out += "}";
    }
    out += "]}";
  }
  out += ",\"pool\":{\"reuse\":" + std::to_string(pool_reuse_total());
  out += ",\"miss\":" + std::to_string(pool_miss_total());
  out += ",\"stale_retry\":" + std::to_string(pool_stale_retry_total());
  out += "},\"backends\":[";
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"index\":" + std::to_string(i);
    out += ",\"address\":\"" + backends_[i].addr.to_string() + "\"";
    out += std::string(",\"draining\":") +
           (backends_[i].draining ? "true" : "false");
    out += ",\"in_flight\":" +
           std::to_string(in_flight_[i].load(std::memory_order_relaxed));
    if (pool_) {
      out += ",\"pool_in_use\":" + std::to_string(pool_->in_use(i));
      out += ",\"pool_idle\":" + std::to_string(pool_->idle(i));
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace cops::proxy
