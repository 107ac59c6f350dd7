#include "cluster/load_balancer.hpp"

#include <algorithm>
#include <random>

#include "common/logging.hpp"
#include "nserver/admin_server.hpp"
#include "nserver/stats.hpp"

namespace cops::cluster {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

// One in-flight HTTP health probe: send GET /healthz, read the status line,
// report 200 as success.  Lives on the balancer's reactor thread; bounded
// by its own deadline timer.
class HealthProbe : public net::EventHandler,
                    public std::enable_shared_from_this<HealthProbe> {
 public:
  HealthProbe(LoadBalancer& owner, size_t index, net::TcpSocket socket)
      : owner_(owner), index_(index), socket_(std::move(socket)) {}

  void start() {
    out_.append(
        "GET /healthz HTTP/1.1\r\nHost: backend\r\nConnection: close\r\n\r\n");
    auto status = owner_.reactor_.register_handler(
        socket_.fd(), this, net::kReadable | net::kWritable);
    if (!status.is_ok()) {
      finish(false);
      return;
    }
    registered_ = true;
    timer_ = owner_.reactor_.run_after(
        owner_.config_.resilience.health_timeout, [this] { finish(false); });
    has_timer_ = true;
  }

  // Teardown without reporting a result (balancer stop).
  void cancel() {
    if (done_) return;
    done_ = true;
    cleanup();
  }

  void handle_event(int /*fd*/, uint32_t readiness) override {
    auto self = shared_from_this();  // finish() drops the owner's reference
    if (done_) return;
    if ((readiness & net::kErrored) != 0) {
      finish(false);
      return;
    }
    if ((readiness & net::kWritable) != 0) flush();
    if (done_) return;
    if ((readiness & net::kReadable) != 0) on_readable();
  }

 private:
  void flush() {
    if (out_.empty()) return;
    auto n = socket_.write(out_);
    if (!n.is_ok() && n.status().code() != StatusCode::kWouldBlock) {
      finish(false);
    }
  }

  void on_readable() {
    auto n = socket_.read(in_);
    if (!n.is_ok() && n.status().code() != StatusCode::kWouldBlock) {
      finish(false);
      return;
    }
    const size_t line_end = in_.find("\r\n");
    if (line_end == std::string::npos) {
      if (n.is_ok() && n.value() == 0) finish(false);  // EOF before status
      return;
    }
    // "HTTP/1.x NNN ..." — success is exactly 200.
    std::string_view line = in_.view().substr(0, line_end);
    const size_t sp = line.find(' ');
    const bool ok = sp != std::string_view::npos && line.size() >= sp + 4 &&
                    line.substr(sp + 1, 3) == "200";
    finish(ok);
  }

  void finish(bool ok) {
    if (done_) return;
    done_ = true;
    auto self = shared_from_this();
    cleanup();
    owner_.finish_probe(index_, ok);
  }

  void cleanup() {
    if (has_timer_) {
      owner_.reactor_.cancel_timer(timer_);
      has_timer_ = false;
    }
    if (registered_) {
      (void)owner_.reactor_.deregister(socket_.fd());
      registered_ = false;
    }
    socket_.close();
  }

  LoadBalancer& owner_;
  size_t index_;
  net::TcpSocket socket_;
  ByteBuffer in_;
  ByteBuffer out_;
  net::TimerQueue::TimerId timer_ = 0;
  bool has_timer_ = false;
  bool registered_ = false;
  bool done_ = false;
};

LoadBalancer::LoadBalancer(LoadBalancerConfig config)
    : config_(std::move(config)),
      set_(config_.policy, config_.resilience.seed) {}

LoadBalancer::~LoadBalancer() { stop(); }

void LoadBalancer::add_backend(const net::InetAddress& addr) {
  add_backend(addr, addr);
}

void LoadBalancer::add_backend(const net::InetAddress& addr,
                               const net::InetAddress& health_addr) {
  set_.add(addr);
  Backend backend;
  backend.health_addr = health_addr;
  backends_.push_back(std::move(backend));
}

Status LoadBalancer::start() {
  if (started_.exchange(true)) {
    return Status::invalid_argument("already started");
  }
  if (backends_.empty()) {
    return Status::invalid_argument("no backends configured");
  }
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
    routes.banner = "cops-cluster admin";
    admin_ = std::make_unique<nserver::AdminServer>(reactor_,
                                                    std::move(routes));
    auto admin_bound = admin_->open(config_.admin_host, config_.admin_port);
    if (!admin_bound.is_ok()) return admin_bound.status();
    admin_port_ = admin_bound.value();
  }
  if (config_.resilience.enabled && config_.resilience.health_checks) {
    // Same convention as the N-Server's housekeeping timer: armed before the
    // reactor thread starts, rescheduled from the reactor thread after.
    health_timer_ =
        reactor_.run_after(config_.resilience.health_interval,
                           [this] { health_tick(); });
    health_timer_armed_ = true;
  }
  reactor_.start_thread("balancer");
  return Status::ok();
}

void LoadBalancer::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Inline when a failed start() never launched the reactor thread.
  reactor_.run_sync([this] {
    if (acceptor_) acceptor_->close();
    if (admin_) admin_->close();
    if (health_timer_armed_) {
      reactor_.cancel_timer(health_timer_);
      health_timer_armed_ = false;
    }
    auto probes = std::move(probes_);
    probes_.clear();
    for (auto& [index, probe] : probes) probe->cancel();
    // Abort active relays (copy: abort mutates the map via session_done).
    std::vector<std::shared_ptr<RelaySession>> sessions;
    sessions.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) sessions.push_back(session);
    for (auto& session : sessions) session->abort("balancer-stop");
  });
  reactor_.stop();
  reactor_.join();
}

void LoadBalancer::emit(const std::string& event) {
  if (config_.event_listener) config_.event_listener(event);
}

// ---- admission ---------------------------------------------------------------

void LoadBalancer::on_accept(net::TcpSocket client) {
  auto admission = std::make_shared<Admission>();
  admission->client = std::make_shared<net::TcpSocket>(std::move(client));
  admission->tried.assign(backends_.size(), false);
  if (config_.policy == BalancePolicy::kRingHash) {
    // Affinity by client IP: reconnects from the same host land on the same
    // backend for as long as it is in the set.
    auto peer = admission->client->peer_address();
    if (peer.is_ok()) admission->affinity_key = peer.value().host();
  }
  set_.admit();
  if (!attempt_next(admission)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    admission->client->close();
  }
}

bool LoadBalancer::backend_eligible(size_t index) {
  if (!config_.resilience.enabled) return true;
  auto& backend = backends_[index];
  if (config_.resilience.health_checks && !backend.stats.healthy) return false;
  switch (backend.stats.breaker) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now() >= backend.open_until) {
        // Backoff expired: probation — the next connect is the trial.
        backend.stats.breaker = BreakerState::kHalfOpen;
        emit("breaker-halfopen backend=" + std::to_string(index));
        return true;
      }
      return false;
    case BreakerState::kHalfOpen:
      return !backend.half_open_inflight;
  }
  return true;
}

bool LoadBalancer::passes_slow_start(size_t index) {
  const auto window = config_.resilience.slow_start_window;
  if (!config_.resilience.enabled || window <= Duration::zero()) return true;
  auto& backend = backends_[index];
  if (backend.recovered_at == TimePoint{}) return true;
  const auto elapsed = now() - backend.recovered_at;
  if (elapsed >= window) return true;
  // Linear ramp: admit with probability elapsed/window, so a recovered
  // backend takes load gradually instead of absorbing a thundering herd.
  const double weight = to_seconds(elapsed) / to_seconds(window);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(set_.rng()) < weight;
}

int LoadBalancer::choose_candidate(const Admission& admission) {
  const std::vector<size_t> order = set_.order(admission.affinity_key);
  // Pass 1: eligible, honouring slow-start weighting.
  for (size_t index : order) {
    if (admission.tried[index] || !backend_eligible(index)) continue;
    if (passes_slow_start(index)) return static_cast<int>(index);
  }
  // Pass 2: eligible (the slow-start gate deferred everyone).
  for (size_t index : order) {
    if (!admission.tried[index] && backend_eligible(index)) {
      return static_cast<int>(index);
    }
  }
  // Last resort: any untried backend — a fast failure there beats dropping
  // the client without trying.
  for (size_t index : order) {
    if (!admission.tried[index]) return static_cast<int>(index);
  }
  return -1;
}

bool LoadBalancer::attempt_next(const std::shared_ptr<Admission>& admission) {
  if (stopping_.load()) return false;
  const size_t budget = config_.resilience.enabled
                            ? config_.resilience.retry_budget
                            : backends_.size();
  if (admission->attempts >= budget) return false;
  const int choice = choose_candidate(*admission);
  if (choice < 0) return false;
  const auto index = static_cast<size_t>(choice);
  admission->tried[index] = true;
  admission->attempts += 1;
  if (backends_[index].stats.breaker == BreakerState::kHalfOpen) {
    backends_[index].half_open_inflight = true;
  }
  auto on_result = [this, admission, index](Result<net::TcpSocket> backend_sock) {
    if (stopping_.load()) return;
    if (!backend_sock.is_ok()) {
      note_backend_failure(index);
      if (attempt_next(admission)) {
        backends_[index].stats.retries += 1;
        retries_.fetch_add(1, std::memory_order_relaxed);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        admission->client->close();
      }
      return;
    }
    note_backend_success(index);
    const uint64_t id = next_session_id_++;
    auto session = std::make_shared<RelaySession>(
        id, reactor_, std::move(*admission->client),
        std::move(backend_sock).take(),
        [this](uint64_t done_id) { session_done(done_id); },
        config_.relay_buffer_bytes);
    auto start_status = session->start();
    if (!start_status.is_ok()) {
      COPS_WARN("relay start failed: " << start_status.to_string());
      return;
    }
    sessions_.emplace(id, std::move(session));
    session_backend_.emplace(id, index);
    backends_[index].stats.connections += 1;
    set_.add_load(index);
    active_.fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
  };
  Status status;
  const auto timeout = config_.resilience.connect_timeout;
  if (config_.resilience.enabled && timeout > Duration::zero()) {
    status = connector_->connect(set_.address(index), timeout,
                                 std::move(on_result));
  } else {
    status = connector_->connect(set_.address(index), std::move(on_result));
  }
  if (!status.is_ok()) {
    // Synchronous refusal (dead local port): count it and keep going.
    note_backend_failure(index);
    if (attempt_next(admission)) {
      backends_[index].stats.retries += 1;
      retries_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  return true;
}

// ---- circuit breaker ----------------------------------------------------------

Duration LoadBalancer::breaker_backoff(int exponent) {
  const auto& resilience = config_.resilience;
  const int shift = std::min(exponent, 20);
  Duration backoff = resilience.breaker_base_backoff * (1LL << shift);
  if (backoff > resilience.breaker_max_backoff) {
    backoff = resilience.breaker_max_backoff;
  }
  if (resilience.breaker_jitter > 0.0) {
    std::uniform_real_distribution<double> dist(-resilience.breaker_jitter,
                                                resilience.breaker_jitter);
    backoff = std::chrono::duration_cast<Duration>(
        backoff * (1.0 + dist(set_.rng())));
  }
  return backoff;
}

void LoadBalancer::open_breaker(size_t index) {
  auto& backend = backends_[index];
  backend.stats.breaker = BreakerState::kOpen;
  backend.stats.ejections += 1;
  backend.open_until = now() + breaker_backoff(backend.backoff_exponent);
  emit("breaker-open backend=" + std::to_string(index));
}

void LoadBalancer::note_backend_failure(size_t index) {
  auto& backend = backends_[index];
  backend.stats.connect_failures += 1;
  backend.consecutive_failures += 1;
  if (!config_.resilience.enabled) return;
  if (backend.stats.breaker == BreakerState::kHalfOpen) {
    // Probation connect failed: back to open with a longer backoff.
    backend.half_open_inflight = false;
    backend.backoff_exponent += 1;
    open_breaker(index);
    return;
  }
  if (backend.stats.breaker == BreakerState::kClosed &&
      backend.consecutive_failures >=
          config_.resilience.breaker_failure_threshold) {
    open_breaker(index);
  }
}

void LoadBalancer::note_backend_success(size_t index) {
  auto& backend = backends_[index];
  backend.consecutive_failures = 0;
  if (!config_.resilience.enabled) return;
  if (backend.stats.breaker == BreakerState::kHalfOpen) {
    backend.half_open_inflight = false;
    backend.stats.breaker = BreakerState::kClosed;
    backend.backoff_exponent = 0;
    backend.recovered_at = now();
    emit("breaker-close backend=" + std::to_string(index));
  }
}

// ---- active health checks ------------------------------------------------------

void LoadBalancer::health_tick() {
  if (stopping_.load()) return;
  for (size_t index = 0; index < backends_.size(); ++index) {
    start_probe(index);
  }
  health_timer_ = reactor_.run_after(config_.resilience.health_interval,
                                     [this] { health_tick(); });
  health_timer_armed_ = true;
}

void LoadBalancer::start_probe(size_t index) {
  auto& backend = backends_[index];
  if (backend.probe_inflight) return;
  backend.probe_inflight = true;
  backend.stats.probes += 1;
  auto status = connector_->connect(
      backend.health_addr, config_.resilience.health_timeout,
      [this, index](Result<net::TcpSocket> sock) {
        if (stopping_.load()) return;
        if (!sock.is_ok()) {
          finish_probe(index, false);
          return;
        }
        if (!config_.resilience.health_http) {
          // TCP mode: a completed connect is the health signal.
          auto socket = std::move(sock).take();
          socket.close();
          finish_probe(index, true);
          return;
        }
        auto probe = std::make_shared<HealthProbe>(*this, index,
                                                   std::move(sock).take());
        probes_[index] = probe;
        probe->start();
      });
  if (!status.is_ok()) finish_probe(index, false);
}

void LoadBalancer::finish_probe(size_t index, bool ok) {
  auto& backend = backends_[index];
  backend.probe_inflight = false;
  probes_.erase(index);
  if (ok) {
    backend.probe_failure_streak = 0;
    backend.probe_success_streak += 1;
    if (!backend.stats.healthy &&
        backend.probe_success_streak >= config_.resilience.health_rise) {
      backend.stats.healthy = true;
      backend.recovered_at = now();
      emit("health-up backend=" + std::to_string(index));
    }
  } else {
    backend.stats.probe_failures += 1;
    backend.probe_success_streak = 0;
    backend.probe_failure_streak += 1;
    if (backend.stats.healthy &&
        backend.probe_failure_streak >= config_.resilience.health_fall) {
      backend.stats.healthy = false;
      emit("health-down backend=" + std::to_string(index));
    }
  }
}

// ---- sessions -----------------------------------------------------------------

void LoadBalancer::session_done(uint64_t id) {
  auto backend_it = session_backend_.find(id);
  if (backend_it != session_backend_.end()) {
    set_.release_load(backend_it->second);
    session_backend_.erase(backend_it);
  }
  // Deleting the session inside its own callback would free the object
  // mid-call; defer the erase to the next loop turn.
  reactor_.post([this, id] { sessions_.erase(id); });
  if (active_.load() > 0) active_.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<BackendStats> LoadBalancer::backend_stats() {
  return reactor_.run_sync([this] {
    std::vector<BackendStats> stats;
    stats.reserve(backends_.size());
    for (size_t i = 0; i < backends_.size(); ++i) {
      stats.push_back(backends_[i].stats);
      stats.back().active = set_.load(i);
    }
    return stats;
  });
}

// ---- admin endpoint -------------------------------------------------------------

void LoadBalancer::write_stats(nserver::MetricsWriter& w) const {
  w.counter("cops_cluster_sessions_total", "sessions_total",
            "Client sessions accepted.", total_.load());
  w.gauge("cops_cluster_sessions_active", "sessions_active",
          "Client sessions open now.", static_cast<uint64_t>(active_.load()));
  w.counter("cops_cluster_dropped_clients_total", "dropped_clients",
            "Clients dropped with no backend to take them.", dropped_.load());
  w.counter("cops_cluster_retries_total", "retries_total",
            "Attempts retried on another backend.", retries_.load());
  w.begin_table("backends", "backend", "index");
  for (size_t i = 0; i < backends_.size(); ++i) {
    const BackendStats& s = backends_[i].stats;
    w.row(i);
    w.json_string("address", set_.address(i).to_string());
    w.flag("cops_cluster_backend_healthy", "healthy",
           "1 while active health checks pass.", s.healthy);
    w.json_string("breaker", to_string(s.breaker));
    w.gauge("cops_cluster_backend_breaker_state", "breaker_state",
            "Circuit breaker (0=closed 1=open 2=half-open).",
            static_cast<uint64_t>(s.breaker));
    w.gauge("cops_cluster_backend_active", "active", "Open relays.",
            static_cast<uint64_t>(set_.load(i)));
    w.counter("cops_cluster_backend_connections_total", "connections",
              "Relays opened.", s.connections);
    w.counter("cops_cluster_backend_connect_failures_total", "connect_failures",
              "Failed upstream connects.", s.connect_failures);
    w.counter("cops_cluster_backend_ejections_total", "ejections",
              "Breaker closed-to-open transitions.", s.ejections);
    w.counter("cops_cluster_backend_retries_total", "retries",
              "Failures here retried on another backend.", s.retries);
    w.counter("cops_cluster_backend_probes_total", "probes",
              "Health probes sent.", s.probes);
    w.counter("cops_cluster_backend_probe_failures_total", "probe_failures",
              "Health probes failed.", s.probe_failures);
  }
  w.end_table();
}

}  // namespace cops::cluster
