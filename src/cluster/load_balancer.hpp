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
//   * lifecycle — drain_backend() stops new sessions while active relays
//     finish; a backend returning to service is reintroduced gradually
//     (slow-start weighting over `slow_start_window`).
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
#include <random>
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
}  // namespace cops::nserver

namespace cops::cluster {

enum class BalancePolicy {
  kRoundRobin,
  kLeastConnections,
  // Power of two choices: two seeded-PRNG candidates, keep the less loaded
  // (near-least-loaded balance without global-argmin herding).
  kPowerOfTwoChoices,
  // Consistent-hash affinity: a per-admission key (client IP here; request
  // path in the L7 proxy) owns a stable backend via lb_policy's HashRing.
  kRingHash,
};

[[nodiscard]] const char* to_string(BalancePolicy policy);

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
  bool healthy = true;      // active-health verdict (true when checks off)
  bool draining = false;    // drain_backend(): no new sessions
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

  // Lifecycle: stop (or resume) routing new sessions to backend `index`
  // while active relays finish.  Thread-safe; applied on the reactor.
  void drain_backend(size_t index, bool draining = true);

  // Removes backend `index` from the set entirely (a decommission, not a
  // drain): in-flight relays to it keep running, but no new admission can
  // pick it and its stats slot disappears.  Selection state is re-anchored
  // against the shrunk set — the round-robin cursor keeps free-running and
  // is reduced modulo the live count at pick time (see lb_policy.hpp), the
  // hash ring is rebuilt, and admissions whose `tried` vector was sized
  // before the shrink are index-guarded.  Thread-safe; applied on the
  // reactor.
  void remove_backend(size_t index);

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] uint16_t admin_port() const { return admin_port_; }
  [[nodiscard]] size_t active_sessions() const { return active_.load(); }
  [[nodiscard]] uint64_t total_sessions() const { return total_.load(); }
  [[nodiscard]] uint64_t dropped_clients() const { return dropped_.load(); }
  [[nodiscard]] uint64_t total_retries() const { return retries_.load(); }
  // Snapshot of per-backend stats (thread-safe; hops to the reactor).
  [[nodiscard]] std::vector<BackendStats> backend_stats();

 private:
  friend class HealthProbe;

  struct Backend {
    net::InetAddress addr;
    net::InetAddress health_addr;
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
  // `tried` is sized at accept time; the backend set may shrink while the
  // admission is in flight, so every read goes through was_tried() and the
  // write in attempt_next() resizes on demand.
  struct Admission {
    std::shared_ptr<net::TcpSocket> client;
    std::vector<bool> tried;
    size_t attempts = 0;
    std::string affinity_key;  // ring-hash input (client IP)

    [[nodiscard]] bool was_tried(size_t index) const {
      return index < tried.size() && tried[index];
    }
  };

  // All on the reactor thread:
  void on_accept(net::TcpSocket client);
  // Launches the next connect attempt; returns false when the admission is
  // out of candidates or budget (client dropped).
  bool attempt_next(const std::shared_ptr<Admission>& admission);
  [[nodiscard]] int choose_candidate(const Admission& admission);
  // Candidate visit order for the active policy (all live backends).
  [[nodiscard]] std::vector<size_t> candidate_order(const Admission& admission);
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
  // Admin endpoint rendering.
  [[nodiscard]] std::string render_stats_prometheus() const;
  [[nodiscard]] std::string render_stats_json() const;

  LoadBalancerConfig config_;
  std::vector<Backend> backends_;
  net::Reactor reactor_;
  std::unique_ptr<net::Acceptor> acceptor_;
  std::unique_ptr<net::Connector> connector_;
  std::unique_ptr<nserver::AdminServer> admin_;
  std::unordered_map<uint64_t, std::shared_ptr<RelaySession>> sessions_;
  std::unordered_map<uint64_t, size_t> session_backend_;
  std::unordered_map<size_t, std::shared_ptr<class HealthProbe>> probes_;
  std::mt19937_64 rng_;  // reactor thread only
  HashRing ring_;        // kRingHash: rebuilt when the backend set changes
  uint64_t next_session_id_ = 1;
  // Free-running admission counter; reduced modulo the *live* backend count
  // at selection time (pick_round_robin), never stored reduced — so a
  // backend-set shrink cannot leave it pointing past the end.
  uint64_t round_robin_next_ = 0;
  uint64_t health_timer_ = 0;
  bool health_timer_armed_ = false;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> launched_{false};  // reactor thread is running
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> retries_{0};
};

}  // namespace cops::cluster
