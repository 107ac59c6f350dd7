// AdminServer — the O11+ observability endpoint (Envoy-admin style).
//
// A second, independent listener that serves its owner's statistics over
// HTTP, with one route table shared by the N-Server, the proxy and the
// load balancer:
//
//   GET /healthz     liveness probe ("ok", or 503 with the owner's reason)
//   GET /stats       Prometheus text exposition format
//   GET /stats.json  the same data as one JSON object
//   GET /            index: the owner's banner line plus the routes
//
// The owner supplies one metrics walk; the path picks the MetricsWriter's
// format (nserver/stats.hpp).
//
// The listener and every admin connection live on the owner's reactor (the
// shard-0 dispatcher in the N-Server; no extra thread); request handling is
// a route match plus a snapshot of relaxed atomics, so scrapes never
// contend with the serving hot path.
// The protocol handling is deliberately minimal — one GET per connection,
// response, close — so the nserver library does not depend on the HTTP
// protocol library layered above it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/acceptor.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"

namespace cops::nserver {

class AdminConnection;
class MetricsWriter;

// What an owner serves through the route table.  The callbacks run on the
// owning reactor's thread.
struct AdminRoutes {
  // The 503 body while unhealthy (e.g. "draining\n"); nullptr while healthy.
  std::function<const char*()> unhealthy;
  // GET /stats and /stats.json: declares every metric to the writer.
  std::function<void(MetricsWriter&)> metrics;
  std::string banner;  // first line of GET /
};

class AdminServer {
 public:
  // `reactor` must be the reactor whose thread will run the listener
  // (shard 0 in the N-Server); open() must run before that reactor's loop
  // starts, or on its thread.
  AdminServer(net::Reactor& reactor, AdminRoutes routes);
  ~AdminServer();

  // Binds host:port and returns the bound port (see net::Acceptor::open).
  Result<uint16_t> open(const std::string& host, uint16_t port,
                        int backlog = 16);

  // Closes the listener and every admin connection.  Reactor thread.
  void close();

 private:
  friend class AdminConnection;

  void on_accept(net::TcpSocket socket);
  void remove(uint64_t id);
  // Routes a request to a complete HTTP response.
  [[nodiscard]] std::string respond(const std::string& method,
                                    const std::string& path) const;

  AdminRoutes routes_;
  net::Reactor& reactor_;
  std::unique_ptr<net::Acceptor> acceptor_;
  std::unordered_map<uint64_t, std::shared_ptr<AdminConnection>> connections_;
  uint64_t next_id_ = 1;
};

}  // namespace cops::nserver
