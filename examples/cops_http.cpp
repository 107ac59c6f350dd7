// COPS-HTTP — the paper's Web server as a runnable binary.
//
//   $ ./cops_http --root ./htdocs --port 8080
//   $ ./cops_http --root ./htdocs --port 8080 --cache lfu --profiling
//
// SIGINT or SIGTERM drains the server (/healthz answers 503 at once, new
// connections are refused, in-flight requests finish for up to 5 s) and
// the process exits 0.
//
// All twelve Table 1 options are reachable from the command line; the
// defaults are the paper's COPS-HTTP settings (one dispatcher, separate
// pool, async completions, static threads, 20 MB LRU cache).
#include <signal.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "http/http_server.hpp"
#include "nserver/stats.hpp"

namespace {

void usage() {
  std::puts(
      "cops_http --root DIR [--port N] [--dispatchers N] [--no-pool]\n"
      "          [--threads N] [--sync-completion] [--dynamic-threads]\n"
      "          [--cache lru|lfu|lru-min|lru-threshold|hyper-g|none]\n"
      "          [--cache-mb N] [--scheduling] [--overload] [--idle-ms N]\n"
      "          [--overload-mode watermark|adaptive] [--overload-target-ms N]\n"
      "          [--auto-index] [--debug] [--profiling] [--logging]\n"
      "          [--backlog N]\n"
      "          [--admin] [--admin-port N] [--run-seconds N] [--version]");
}

cops::nserver::CachePolicyKind parse_cache(const std::string& name) {
  using cops::nserver::CachePolicyKind;
  if (name == "lru") return CachePolicyKind::kLru;
  if (name == "lfu") return CachePolicyKind::kLfu;
  if (name == "lru-min") return CachePolicyKind::kLruMin;
  if (name == "lru-threshold") return CachePolicyKind::kLruThreshold;
  if (name == "hyper-g") return CachePolicyKind::kHyperG;
  return CachePolicyKind::kNone;
}

// Waits up to `timeout` for one of `signals` (blocked in every thread);
// true when one arrived.
bool wait_for_signal(const sigset_t& signals, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) return false;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec wait{static_cast<time_t>(ns / 1000000000),
                        static_cast<long>(ns % 1000000000)};
    if (sigtimedwait(&signals, nullptr, &wait) > 0) return true;
    if (errno != EINTR && errno != EAGAIN) return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto options = cops::http::CopsHttpServer::default_options();
  cops::http::HttpServerConfig config;
  int run_seconds = 0;  // 0 = run forever

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--root") {
      config.doc_root = next();
    } else if (arg == "--port") {
      options.listen_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--dispatchers") {
      options.dispatcher_threads = std::atoi(next());
    } else if (arg == "--no-pool") {
      options.separate_processor_pool = false;
    } else if (arg == "--threads") {
      options.processor_threads = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--sync-completion") {
      options.completion = cops::nserver::CompletionMode::kSynchronous;
    } else if (arg == "--dynamic-threads") {
      options.thread_allocation = cops::nserver::ThreadAllocation::kDynamic;
    } else if (arg == "--cache") {
      options.cache_policy = parse_cache(next());
    } else if (arg == "--cache-mb") {
      options.cache_capacity_bytes =
          static_cast<size_t>(std::atol(next())) * 1024 * 1024;
    } else if (arg == "--scheduling") {
      options.event_scheduling = true;
    } else if (arg == "--overload") {
      options.overload_control = true;
    } else if (arg == "--overload-mode") {
      // S5: adaptive is a refinement of O9, so it implies overload_control.
      options.overload_control = true;
      options.overload_mode = std::string(next()) == "adaptive"
                                  ? cops::nserver::OverloadMode::kAdaptive
                                  : cops::nserver::OverloadMode::kWatermark;
    } else if (arg == "--overload-target-ms") {
      options.overload_target_delay =
          std::chrono::milliseconds(std::atoi(next()));
    } else if (arg == "--idle-ms") {
      options.shutdown_long_idle = true;
      options.idle_timeout = std::chrono::milliseconds(std::atoi(next()));
    } else if (arg == "--auto-index") {
      config.auto_index = true;
    } else if (arg == "--debug") {
      options.mode = cops::nserver::ServerMode::kDebug;
    } else if (arg == "--profiling") {
      options.profiling = true;
    } else if (arg == "--admin") {
      // O11+: admin/metrics endpoint; requires the profiler, so turn it on.
      options.profiling = true;
      options.stats_export = cops::nserver::StatsExport::kAdminHttp;
    } else if (arg == "--admin-port") {
      options.profiling = true;
      options.stats_export = cops::nserver::StatsExport::kAdminHttp;
      options.admin_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--version") {
      std::puts("cops_http (N-Server pattern instance)");
      return 0;
    } else if (arg == "--backlog") {
      options.listen_backlog = std::atoi(next());
    } else if (arg == "--logging") {
      options.logging = true;
    } else if (arg == "--run-seconds") {
      run_seconds = std::atoi(next());
    } else {
      usage();
      return arg == "--help" ? 0 : 2;
    }
  }
  if (config.doc_root == ".") {
    std::fprintf(stderr, "note: serving the current directory; use --root\n");
  }

  // Blocked before start(), so every server thread inherits the mask and
  // only wait_for_signal() below receives them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  cops::http::CopsHttpServer server(options, config);
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("COPS-HTTP listening on 127.0.0.1:%u (doc root %s)\n",
              server.port(), config.doc_root.c_str());
  if (server.admin_port() != 0) {
    std::printf("admin endpoint at http://%s:%u/stats\n",
                options.admin_host.c_str(), server.admin_port());
  }
  std::fflush(stdout);  // a file or pipe would hold the line back

  const auto report = [&] {
    if (!options.profiling) return;
    const auto text =
        cops::nserver::render_prometheus(server.server().stats_snapshot());
    std::fputs(text.c_str(), stdout);
  };
  const auto drain = [&] {
    std::printf("signal: draining\n");
    std::fflush(stdout);
    const bool idle = server.server().drain(std::chrono::seconds(5));
    std::printf("drained%s\n", idle ? "" : " (timed out)");
    return 0;
  };
  if (run_seconds > 0) {
    if (wait_for_signal(stop_signals, std::chrono::seconds(run_seconds))) {
      return drain();
    }
    report();
    server.stop();
    return 0;
  }
  while (!wait_for_signal(stop_signals, std::chrono::seconds(10))) report();
  return drain();
}
