// Distributed COPS-HTTP — the paper's future work (Section VI) running on
// loopback: an event-driven load balancer in front of N worker Web servers,
// with the cluster resilience layer (health checks, circuit breaking,
// bounded retry, graceful drain) switchable from the command line.
//
//   $ ./http_cluster --root ./htdocs --workers 3 --port 8080 --resilient
//   $ curl http://127.0.0.1:8080/index.html
//   $ curl http://127.0.0.1:9090/stats        # balancer admin endpoint
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "http/http_server.hpp"

int main(int argc, char** argv) {
  std::string doc_root = ".";
  int workers = 2;
  uint16_t port = 0;
  uint16_t admin_port = 0;
  int run_seconds = 0;
  bool resilient = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--root") {
      doc_root = next();
    } else if (arg == "--workers") {
      workers = std::atoi(next());
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--admin-port") {
      admin_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--resilient") {
      resilient = true;
    } else if (arg == "--run-seconds") {
      run_seconds = std::atoi(next());
    } else {
      std::puts("http_cluster [--root DIR] [--workers N] [--port N] "
                "[--admin-port N] [--resilient] [--run-seconds N]");
      return arg == "--help" ? 0 : 2;
    }
  }

  // Worker fleet (each its own N-Server instance; on real hardware these
  // would be separate workstations).  With --resilient each worker exposes
  // its admin endpoint so the balancer's HTTP health probes have a /healthz
  // to hit — the same endpoint that flips to 503 during drain or overload.
  std::vector<std::unique_ptr<cops::http::CopsHttpServer>> fleet;
  cops::http::HttpServerConfig config;
  config.doc_root = doc_root;
  for (int i = 0; i < workers; ++i) {
    auto options = cops::http::CopsHttpServer::default_options();
    if (resilient) {
      options.profiling = true;
      options.stats_export = cops::nserver::StatsExport::kAdminHttp;
      options.admin_port = 0;  // kernel-assigned
      options.overload_control = true;
      options.overload_shed = true;  // 503 + Retry-After instead of hanging
    }
    fleet.push_back(std::make_unique<cops::http::CopsHttpServer>(
        std::move(options), config));
    auto status = fleet.back()->start();
    if (!status.is_ok()) {
      std::fprintf(stderr, "worker %d failed: %s\n", i,
                   status.to_string().c_str());
      return 1;
    }
  }

  cops::cluster::LoadBalancerConfig balancer_config;
  balancer_config.listen_port = port;
  balancer_config.policy = cops::cluster::BalancePolicy::kLeastConnections;
  if (resilient) {
    auto& r = balancer_config.resilience;
    r.enabled = true;
    r.health_checks = true;
    r.health_http = true;  // GET /healthz against each worker's admin port
    r.health_interval = std::chrono::seconds(2);
    r.slow_start_window = std::chrono::seconds(5);
    balancer_config.admin_enabled = true;
    balancer_config.admin_port = admin_port;
    balancer_config.event_listener = [](const std::string& event) {
      std::printf("[resilience] %s\n", event.c_str());
    };
  }
  cops::cluster::LoadBalancer balancer(balancer_config);
  for (auto& worker : fleet) {
    if (resilient) {
      balancer.add_backend(
          cops::net::InetAddress::loopback(worker->port()),
          cops::net::InetAddress::loopback(worker->admin_port()));
    } else {
      balancer.add_backend(cops::net::InetAddress::loopback(worker->port()));
    }
  }
  auto status = balancer.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "balancer failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("distributed COPS-HTTP: %d workers behind 127.0.0.1:%u\n",
              workers, balancer.port());
  if (resilient) {
    std::printf("balancer admin: http://127.0.0.1:%u/stats\n",
                balancer.admin_port());
  }
  std::fflush(stdout);  // a file or pipe would hold the line back

  auto report = [&] {
    const auto stats = balancer.backend_stats();
    for (size_t i = 0; i < stats.size(); ++i) {
      std::printf(
          "  worker %zu: %llu connections (%zu active, %llu refused)%s%s\n",
          i, static_cast<unsigned long long>(stats[i].connections),
          stats[i].active,
          static_cast<unsigned long long>(stats[i].connect_failures),
          stats[i].healthy ? "" : " UNHEALTHY",
          stats[i].breaker == cops::cluster::BreakerState::kClosed
              ? ""
              : " BREAKER-TRIPPED");
    }
  };
  if (run_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(run_seconds));
    report();
    balancer.stop();
    for (auto& worker : fleet) worker->stop();
    return 0;
  }
  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(10));
    report();
  }
}
