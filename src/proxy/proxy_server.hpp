// ProxyServer — the streaming L7 reverse-proxy data plane.
//
// One reactor hosts everything: the client-side Acceptor, every
// ProxySession (a per-client-connection state machine relaying streamed
// HTTP/1.x both directions), the upstream Connector, and the admin
// endpoint.  The server owns what spans sessions:
//
//   * the cluster::BackendSet the L4 balancer also uses: addresses,
//     per-backend in-flight loads and the policy order (round-robin /
//     least-loaded / P2C / ring-hash over the request target); the proxy
//     takes the first backend in that order;
//   * the UpstreamPool plus the per-backend waiter queues that park
//     sessions at the connection cap;
//   * counters (`cops_proxy_*`), served over the nserver admin machinery
//     and mirrored into relaxed atomics for test inspection.
//
// Determinism: with one reactor and the seeded P2C PRNG, a simnet run of
// the proxy replays bit-identically per seed (tests/model_proxy_test.cpp).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
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
class MetricsWriter;
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

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] uint16_t admin_port() const { return admin_port_; }

  [[nodiscard]] const ProxyCounters& counters() const { return counters_; }
  [[nodiscard]] uint64_t pool_reuse_total() const {
    return pool_.reuse_total();
  }
  [[nodiscard]] uint64_t pool_miss_total() const { return pool_.miss_total(); }
  [[nodiscard]] uint64_t pool_stale_retry_total() const {
    return pool_.stale_retry_total();
  }

  // Adaptive overload manager over upstream pressure (overload_adaptive);
  // null when disabled.
  [[nodiscard]] nserver::OverloadManager* overload_manager() {
    return overload_.get();
  }

 private:
  friend class ProxySession;

  // All on the reactor thread:
  void on_accept(net::TcpSocket client);
  // Backend for one request: the first in the policy order.
  [[nodiscard]] size_t select_backend(std::string_view affinity_key);
  // Upstream acquisition for `session` (idle reuse or a new connect); calls
  // the session's upstream_ready/upstream_failed, possibly synchronously.
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

  void session_done(uint64_t id);
  void emit(const std::string& event);

  // The admin endpoint's metrics walk.  Reactor thread.
  void write_stats(nserver::MetricsWriter& w) const;

  ProxyConfig config_;
  // Reactor thread once started; the load is requests in flight.
  cluster::BackendSet backends_;
  net::Reactor reactor_;
  std::unique_ptr<net::Acceptor> acceptor_;
  std::unique_ptr<net::Connector> connector_;
  std::unique_ptr<nserver::AdminServer> admin_;
  UpstreamPool pool_;  // one slot per backend
  std::unique_ptr<nserver::OverloadManager> overload_;
  std::unordered_map<uint64_t, std::shared_ptr<ProxySession>> sessions_;
  // Sessions parked at a backend's connection cap, FIFO per backend.
  std::vector<std::deque<uint64_t>> waiters_;
  ProxyCounters counters_;
  uint64_t next_session_id_ = 1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace cops::proxy
