// Streaming HTTP reverse proxy on the src/proxy data plane.
//
// This used to be a blocking, buffer-everything, connection-per-request
// demo riding the N-Server's worker pool; it is now the front end of the
// streaming L7 tier: one reactor, keep-alive upstream pools, streamed
// request/response bodies in both directions, watermark backpressure, and
// pluggable backend selection.
//
//   $ ./http_proxy 8888 127.0.0.1 8080 [127.0.0.1 8081 ...]
//         [--policy round_robin|...] [--admin-port N] [--once]
//   $ curl -s http://127.0.0.1:8888/index.html
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "proxy/proxy_server.hpp"

namespace {

int usage() {
  std::puts(
      "http_proxy LISTEN_PORT BACKEND_HOST BACKEND_PORT "
      "[BACKEND_HOST BACKEND_PORT ...]\n"
      "  [--policy round_robin|least_connections|p2c|ring_hash]\n"
      "  [--pool-cap N] [--admin-port N] [--once]");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  cops::proxy::ProxyConfig config;
  config.listen_port = static_cast<uint16_t>(std::atoi(argv[1]));

  std::vector<cops::net::InetAddress> backends;
  int arg = 2;
  bool once = false;
  while (arg < argc) {
    const std::string token = argv[arg];
    if (token == "--policy") {
      if (++arg >= argc) break;
      const auto policy = cops::cluster::parse_balance_policy(argv[arg++]);
      if (!policy) return usage();
      config.policy = *policy;
    } else if (token == "--pool-cap") {
      if (++arg >= argc) break;
      config.pool_max_per_backend = static_cast<size_t>(std::atoi(argv[arg++]));
      config.pool_max_idle_per_backend = config.pool_max_per_backend;
    } else if (token == "--admin-port") {
      if (++arg >= argc) break;
      config.admin_enabled = true;
      config.admin_port = static_cast<uint16_t>(std::atoi(argv[arg++]));
    } else if (token == "--once") {
      once = true;
      ++arg;
    } else {
      if (arg + 1 >= argc) {
        std::fprintf(stderr, "backend %s needs a port\n", token.c_str());
        return 2;
      }
      auto addr = cops::net::InetAddress::parse(
          token, static_cast<uint16_t>(std::atoi(argv[arg + 1])));
      if (!addr.is_ok()) {
        std::fprintf(stderr, "bad backend address %s\n", token.c_str());
        return 2;
      }
      backends.push_back(addr.value());
      arg += 2;
    }
  }
  if (backends.empty()) {
    std::fprintf(stderr, "no backends given\n");
    return 2;
  }

  cops::proxy::ProxyServer proxy(config);
  for (const auto& addr : backends) proxy.add_backend(addr);
  auto status = proxy.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("HTTP proxy on 127.0.0.1:%u -> %zu backend(s), %s policy\n",
              proxy.port(), backends.size(),
              cops::cluster::to_string(config.policy));
  if (config.admin_enabled) {
    std::printf("admin endpoint (/stats, /stats.json, /healthz) on port %u\n",
                proxy.admin_port());
  }
  // Flush now: when stdout is a file the start-up lines would otherwise sit
  // in the stdio buffer and be lost if a signal ends the process.
  std::fflush(stdout);
  if (once) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    proxy.stop();
    return 0;
  }
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}
