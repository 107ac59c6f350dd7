// Configuration for the streaming L7 reverse-proxy data plane (src/proxy).
//
// The proxy is the promotion of examples/http_proxy from a blocking,
// buffer-everything, connection-per-request demo into a production-shaped
// tier on the cluster substrate: one reactor, an Acceptor for the client
// side, a Connector + per-backend keep-alive pools for the upstream side,
// and streamed bodies with watermark backpressure in between.  Upstream
// connections are always pooled.  Most knobs mirror an existing subsystem's
// vocabulary on purpose: the balance policy comes from src/cluster (the
// same BackendSet orders the L4 balancer's backends), the overload knobs
// from the core server, and header limits from the HTTP parse layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "cluster/lb_policy.hpp"
#include "common/clock.hpp"
#include "http/request_parser.hpp"
#include "nserver/overload_manager.hpp"

namespace cops::proxy {

struct ProxyConfig {
  std::string listen_host = "127.0.0.1";
  uint16_t listen_port = 0;  // 0 = kernel-assigned
  int listen_backlog = 512;

  // Upstream keep-alive pools: per-backend connection cap (in-flight +
  // idle; must be positive) and idle list bound.  Idle reuse is LIFO.
  size_t pool_max_per_backend = 8;
  size_t pool_max_idle_per_backend = 8;

  // Backend selection.  Ring-hash affinity keys on the request target, so
  // a path consistently lands on the same backend (cache locality).
  cluster::BalancePolicy policy = cluster::BalancePolicy::kRoundRobin;
  uint64_t seed = 0x5eedu;  // the BackendSet's PRNG (P2C candidates)

  // Upstream deadlines: per-attempt connect (0 = none) and time allowed
  // between the request being fully relayed and the response head arriving
  // (504 on expiry).
  Duration connect_timeout = std::chrono::seconds(1);
  Duration upstream_header_timeout = std::chrono::seconds(5);

  // Backpressure watermarks on each direction's send queue: when the
  // consuming side's queue exceeds `high_watermark` the proxy stops reading
  // the producing side, resuming below `low_watermark` — so neither a slow
  // client nor a slow backend can make the proxy buffer a body.
  size_t high_watermark = 256 * 1024;
  size_t low_watermark = 64 * 1024;

  // Stale-connection retry: request bytes are retained until the
  // first response byte, up to this cap.  A *reused* connection that dies
  // with zero response bytes is retried exactly once on a fresh connection;
  // past the cap the retry disarms and the failure surfaces as 502.
  size_t retry_buffer_limit = 64 * 1024;

  // Header-block bounds, both directions (body limits do not apply to the
  // streamed pass-through; see http::ChunkPassthrough).
  http::ParseLimits limits;

  // Received-by token in the Via headers this proxy adds ("1.1 <pseudonym>").
  std::string via_pseudonym = "cops-proxy";

  // Adaptive overload manager (the same control loop as overload=adaptive
  // in the core server) fed by *upstream* pressure: pool waiter depth and
  // the 502/504 fraction.  Under pressure the proxy answers new request
  // heads 503 + Retry-After instead of queueing them at the pool cap, and
  // at the top tier suspends accept.
  bool overload_adaptive = false;
  nserver::OverloadManagerConfig overload;
  Duration overload_tick_interval = std::chrono::milliseconds(100);

  // Admin/stats endpoint (nserver machinery) on the proxy's reactor.
  bool admin_enabled = false;
  std::string admin_host = "127.0.0.1";
  uint16_t admin_port = 0;

  // Observability hook ("proxy-pool-reuse backend=0", "proxy-502", ...).
  // Runs on the reactor thread; must not block.  The deterministic chaos
  // tests feed these lines into the simnet trace.
  std::function<void(const std::string&)> event_listener;
};

}  // namespace cops::proxy
