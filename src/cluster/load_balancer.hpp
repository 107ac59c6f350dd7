// LoadBalancer — the control plane of the distributed N-Server front end
// (paper, Section VI future work).
//
// An event-driven TCP load balancer assembled from the same substrate as
// the N-Server itself: a Reactor, an Acceptor for the client side, a
// Connector for the backend side, and RelaySessions as the data plane.
// Connections are spread over the backend pool round-robin or by least
// active sessions.
//
// The resilience layer (opt-in via ResilienceConfig::enabled) keeps the
// cluster serving through backend failure:
//
//   * active health checks — a periodic reactor-timer probe per backend
//     (TCP connect, or HTTP GET /healthz against the backend's admin port)
//     with rise/fall thresholds;
//   * passive outlier ejection — a per-backend circuit breaker: closed →
//     open after `breaker_failure_threshold` consecutive connect failures,
//     half-open after an exponential backoff with jitter from the seeded
//     PRNG, closed again once a trial connect succeeds;
//   * bounded retry — a failed backend connect retries the next healthy
//     candidate under `retry_budget` total attempts, each guarded by a
//     per-attempt connect deadline (net::Connector's timeout path);
//   * lifecycle — a worker drains itself: its N-Server's Server::drain()
//     closes its listener at once and answers /healthz with 503 while
//     in-flight requests finish.  New connects to it are refused, so
//     bounded retry moves them to the next candidate (and the breaker
//     counts the failures); the HTTP health check marks the worker down
//     after `health_fall` failed probes.  A backend returning to service
//     is reintroduced gradually (slow-start weighting over
//     `slow_start_window`).  The backend set is fixed at start().
//
// All of it is observable: per-backend health/breaker/counter state is
// served over the nserver admin machinery (/stats, /stats.json) when
// admin_enabled is set, and every state transition is reported through
// `event_listener` (the deterministic chaos tests feed these lines into
// the simnet trace).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/lb_policy.hpp"
#include "cluster/tcp_relay.hpp"
#include "net/acceptor.hpp"
#include "net/connector.hpp"
#include "net/reactor.hpp"

namespace cops::nserver {
class AdminServer;
class MetricsWriter;
}  // namespace cops::nserver

namespace cops::cluster {

enum class BreakerState {
  kClosed,    // healthy: requests flow
  kOpen,      // ejected: no requests until the backoff expires
  kHalfOpen,  // probation: one trial connect decides open vs closed
};

[[nodiscard]] const char* to_string(BreakerState state);

// Tuning for the cluster resilience layer; `enabled = false` preserves the
// original skip-on-refusal behaviour exactly.
struct ResilienceConfig {
  bool enabled = false;

  // --- active health checking (off unless health_checks) -----------------
  bool health_checks = false;
  // Probe via HTTP GET /healthz (against the backend's health address,
  // typically its admin port) instead of a bare TCP connect.
  bool health_http = false;
  Duration health_interval = std::chrono::seconds(2);
  Duration health_timeout = std::chrono::milliseconds(500);
  int health_rise = 2;  // consecutive successes to mark a backend up
  int health_fall = 2;  // consecutive failures to mark it down

  // --- circuit breaker ----------------------------------------------------
  int breaker_failure_threshold = 3;  // consecutive connect failures → open
  Duration breaker_base_backoff = std::chrono::milliseconds(500);
  Duration breaker_max_backoff = std::chrono::seconds(30);
  double breaker_jitter = 0.2;  // ± fraction of the backoff, seeded PRNG

  // --- bounded retry --------------------------------------------------------
  size_t retry_budget = 3;  // max connect attempts per client session
  Duration connect_timeout = std::chrono::seconds(1);  // 0 = no deadline

  // --- slow start -----------------------------------------------------------
  // After recovery a backend's admission weight ramps linearly from 0 to 1
  // over this window (0 = disabled).
  Duration slow_start_window = std::chrono::seconds(0);

  uint64_t seed = 0x5eedu;  // jitter + slow-start PRNG
};

struct LoadBalancerConfig {
  std::string listen_host = "127.0.0.1";
  uint16_t listen_port = 0;  // 0 = kernel-assigned
  int listen_backlog = 512;
  BalancePolicy policy = BalancePolicy::kRoundRobin;
  size_t relay_buffer_bytes = 256 * 1024;
  ResilienceConfig resilience;
  // Admin/stats endpoint (nserver machinery) on the balancer's reactor.
  bool admin_enabled = false;
  std::string admin_host = "127.0.0.1";
  uint16_t admin_port = 0;  // 0 = kernel-assigned
  // Observability hook for resilience state transitions ("breaker-open
  // backend=1", "health-down backend=2", ...).  Runs on the reactor thread;
  // must not block.
  std::function<void(const std::string&)> event_listener;
};

struct BackendStats {
  uint64_t connections = 0;  // relays ever opened
  uint64_t connect_failures = 0;
  size_t active = 0;  // currently open relays
  // --- resilience ---------------------------------------------------------
  bool healthy = true;  // active-health verdict (true when checks off)
  BreakerState breaker = BreakerState::kClosed;
  uint64_t ejections = 0;       // closed → open transitions
  uint64_t retries = 0;         // failures here that were retried elsewhere
  uint64_t probes = 0;          // health probes sent
  uint64_t probe_failures = 0;  // health probes failed
};

class LoadBalancer {
 public:
  explicit LoadBalancer(LoadBalancerConfig config);
  ~LoadBalancer();

  // Must be called before start().  `health_addr` is where active health
  // probes go (e.g. the backend's admin endpoint); defaults to `addr`.
  void add_backend(const net::InetAddress& addr);
  void add_backend(const net::InetAddress& addr,
                   const net::InetAddress& health_addr);

  Status start();
  void stop();

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] uint16_t admin_port() const { return admin_port_; }
  [[nodiscard]] size_t active_sessions() const { return active_.load(); }
  [[nodiscard]] uint64_t total_sessions() const { return total_.load(); }
  [[nodiscard]] uint64_t dropped_clients() const { return dropped_.load(); }
  [[nodiscard]] uint64_t total_retries() const { return retries_.load(); }
  // Snapshot of per-backend stats (thread-safe; net::Reactor::run_sync hops
  // to the reactor while its loop runs, and reads inline otherwise).
  [[nodiscard]] std::vector<BackendStats> backend_stats();

 private:
  friend class HealthProbe;

  struct Backend {
    net::InetAddress health_addr;
    // `active` lives in set_; backend_stats() fills it in.
    BackendStats stats;
    // Breaker + health runtime (reactor thread only).
    int consecutive_failures = 0;
    int probe_success_streak = 0;
    int probe_failure_streak = 0;
    int backoff_exponent = 0;
    TimePoint open_until{};
    bool half_open_inflight = false;  // one probation connect at a time
    bool probe_inflight = false;
    TimePoint recovered_at{};  // slow-start ramp origin
  };

  // One client admission: which backends were tried, under what budget.
  struct Admission {
    std::shared_ptr<net::TcpSocket> client;
    std::vector<bool> tried;  // one slot per backend
    size_t attempts = 0;
    std::string affinity_key;  // ring-hash input (client IP)
  };

  // All on the reactor thread:
  void on_accept(net::TcpSocket client);
  // Launches the next connect attempt; returns false when the admission is
  // out of candidates or budget (client dropped).
  bool attempt_next(const std::shared_ptr<Admission>& admission);
  [[nodiscard]] int choose_candidate(const Admission& admission);
  [[nodiscard]] bool backend_eligible(size_t index);
  [[nodiscard]] bool passes_slow_start(size_t index);
  void note_backend_failure(size_t index);
  void note_backend_success(size_t index);
  void open_breaker(size_t index);
  [[nodiscard]] Duration breaker_backoff(int exponent);
  void session_done(uint64_t id);
  void emit(const std::string& event);
  // Active health checking.
  void schedule_health_tick();
  void health_tick();
  void start_probe(size_t index);
  void finish_probe(size_t index, bool ok);
  // The admin endpoint's metrics walk.  Reactor thread.
  void write_stats(nserver::MetricsWriter& w) const;

  LoadBalancerConfig config_;
  // Addresses, active-relay loads and the policy order; its
  // PRNG also draws the breaker jitter and the slow-start admissions.
  BackendSet set_;
  std::vector<Backend> backends_;  // parallel to set_
  net::Reactor reactor_;
  std::unique_ptr<net::Acceptor> acceptor_;
  std::unique_ptr<net::Connector> connector_;
  std::unique_ptr<nserver::AdminServer> admin_;
  std::unordered_map<uint64_t, std::shared_ptr<RelaySession>> sessions_;
  std::unordered_map<uint64_t, size_t> session_backend_;
  std::unordered_map<size_t, std::shared_ptr<class HealthProbe>> probes_;
  uint64_t next_session_id_ = 1;
  uint64_t health_timer_ = 0;
  bool health_timer_armed_ = false;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> retries_{0};
};

}  // namespace cops::cluster
