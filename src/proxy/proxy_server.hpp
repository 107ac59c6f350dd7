// ProxyServer — the streaming L7 reverse-proxy data plane.
//
// One reactor hosts everything: the client-side Acceptor, every
// ProxySession (a per-client-connection state machine relaying streamed
// HTTP/1.x both directions), the upstream Connector, and the admin
// endpoint.  The server owns what spans sessions:
//
//   * backend set + pluggable selection (round-robin / least-loaded / P2C /
//     ring-hash over the request target, via cluster/lb_policy);
//   * the UpstreamPool (generative option proxy_upstream=pooled) plus the
//     per-backend waiter queues that park sessions at the connection cap;
//   * drain lifecycle: drain_backend() stops selection and empties the
//     pool's idle side without killing in-flight streams (PR-3 shape);
//   * counters (`cops_proxy_*`) and per-backend in-flight gauges, served
//     over the nserver admin machinery and mirrored into relaxed atomics
//     for test inspection.
//
// Determinism: with one reactor and the seeded P2C PRNG, a simnet run of
// the proxy replays bit-identically per seed (tests/model_proxy_test.cpp).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/acceptor.hpp"
#include "net/connector.hpp"
#include "net/reactor.hpp"
#include "nserver/overload_manager.hpp"
#include "proxy/proxy_config.hpp"
#include "proxy/upstream_pool.hpp"

namespace cops::nserver {
class AdminServer;
}  // namespace cops::nserver

namespace cops::proxy {

class ProxySession;

// Cross-thread-readable snapshot counters (relaxed atomics).
struct ProxyCounters {
  std::atomic<uint64_t> requests{0};         // request heads accepted
  std::atomic<uint64_t> responses{0};        // upstream responses relayed
  std::atomic<uint64_t> bad_gateway{0};      // 502s issued
  std::atomic<uint64_t> gateway_timeout{0};  // 504s issued
  std::atomic<uint64_t> poisoned{0};         // upstream connections poisoned
  std::atomic<uint64_t> backpressure{0};     // watermark pause transitions
  std::atomic<uint64_t> shed{0};             // 503s from the overload manager
};

class ProxyServer {
 public:
  explicit ProxyServer(ProxyConfig config);
  ~ProxyServer();

  // Must be called before start().
  void add_backend(const net::InetAddress& addr);

  Status start();
  void stop();

  // Lifecycle: stop (or resume) selecting backend `index` and drain its
  // pool's idle connections; in-flight streams finish normally.
  // Thread-safe; applied on the reactor.
  void drain_backend(size_t index, bool draining = true);

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] uint16_t admin_port() const { return admin_port_; }

  [[nodiscard]] const ProxyCounters& counters() const { return counters_; }
  [[nodiscard]] uint64_t pool_reuse_total() const {
    return pool_ ? pool_->reuse_total() : 0;
  }
  [[nodiscard]] uint64_t pool_miss_total() const {
    return pool_ ? pool_->miss_total() : 0;
  }
  [[nodiscard]] uint64_t pool_stale_retry_total() const {
    return pool_ ? pool_->stale_retry_total() : 0;
  }
  [[nodiscard]] size_t backend_in_flight(size_t index) const {
    return in_flight_.at(index).load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t backend_count() const { return backends_.size(); }

  // Adaptive overload manager over upstream pressure (overload_adaptive);
  // null when disabled.
  [[nodiscard]] nserver::OverloadManager* overload_manager() {
    return overload_.get();
  }

 private:
  friend class ProxySession;

  struct Backend {
    net::InetAddress addr;
    bool draining = false;
  };

  // All on the reactor thread:
  void on_accept(net::TcpSocket client);
  // Backend for one request under the configured policy; -1 when every
  // backend is draining or the set is empty.
  [[nodiscard]] int select_backend(std::string_view affinity_key);
  // Upstream acquisition for `session` (pool or direct connect); calls the
  // session's upstream_ready/upstream_failed, possibly synchronously.
  void request_upstream(const std::shared_ptr<ProxySession>& session,
                        size_t backend);
  // The stale-retry path: always a brand-new connection.
  void request_upstream_fresh(const std::shared_ptr<ProxySession>& session,
                              size_t backend);
  void start_connect(const std::shared_ptr<ProxySession>& session,
                     size_t backend);
  // Connection ownership returns; wakes the first waiter at the cap.
  void release_upstream(size_t backend, net::TcpSocket socket, bool reusable);
  void abandon_upstream(size_t backend);
  void wake_waiter(size_t backend);

  // Adaptive overload: monitor/action wiring and the periodic reactor-side
  // control-loop tick (reschedules itself).
  void build_overload_manager();
  void overload_tick();

  void note_request_start(size_t backend);
  void note_request_end(size_t backend);
  void session_done(uint64_t id);
  void emit(const std::string& event);

  [[nodiscard]] std::string render_stats_prometheus() const;
  [[nodiscard]] std::string render_stats_json() const;

  ProxyConfig config_;
  std::vector<Backend> backends_;
  net::Reactor reactor_;
  std::unique_ptr<net::Acceptor> acceptor_;
  std::unique_ptr<net::Connector> connector_;
  std::unique_ptr<nserver::AdminServer> admin_;
  std::unique_ptr<UpstreamPool> pool_;
  std::unique_ptr<nserver::OverloadManager> overload_;
  cluster::HashRing ring_;
  std::mt19937_64 rng_;  // reactor thread only (P2C)
  std::unordered_map<uint64_t, std::shared_ptr<ProxySession>> sessions_;
  // Sessions parked at a backend's connection cap, FIFO per backend.
  std::vector<std::deque<uint64_t>> waiters_;
  // Per-backend in-flight request gauges (sized at start()).
  std::vector<std::atomic<size_t>> in_flight_;
  ProxyCounters counters_;
  uint64_t next_session_id_ = 1;
  uint64_t round_robin_next_ = 0;  // free-running; modulo-guarded at pick
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> launched_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace cops::proxy
