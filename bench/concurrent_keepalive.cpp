// Many concurrent keep-alive connections on one shard.
//
// The COPS-HTTP preset (one dispatcher, so one shard) with adaptive overload
// control on, serving one small file to a single client thread that keeps
// every one of its connections busy: a closed loop in which a connection
// sends its next GET as soon as the previous reply is complete, so up to
// --connections requests are in flight at once.
//
//   concurrent_keepalive [--connections N] [--seconds S] [--warmup S]
//
// Prints one JSON object over the measured window (after the warm-up):
//   requests, throughput_rps
//   server_cpu_us_per_req   process CPU minus the client thread's
//   pool_misses_per_req     recycler misses (request contexts and read
//                           blocks) per request
//   pool_alloc_bytes        bytes the recyclers took from the heap
//   max_tier                highest overload tier sampled (0 = none)
//   max_pool_miss_pressure  highest smoothed pool_miss_rate pressure
// The exit code is nonzero when a reply was not a 200.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "http/http_server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void raise_descriptor_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

int connect_to(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Client {
  int fd = -1;
  std::string in;
};

const std::string kRequest = "GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n";

// Consumes every complete reply at the front of `in`; returns how many, or
// -1 when one was not a 200.
int take_replies(std::string& in) {
  int replies = 0;
  for (;;) {
    const size_t head_end = in.find("\r\n\r\n");
    if (head_end == std::string::npos) return replies;
    const size_t cl = in.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) return -1;
    const size_t body = std::strtoul(in.c_str() + cl + 16, nullptr, 10);
    if (in.size() < head_end + 4 + body) return replies;
    if (in.rfind("HTTP/1.1 200", 0) != 0) return -1;
    in.erase(0, head_end + 4 + body);
    ++replies;
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t connections = 512;
  double seconds = 10;
  double warmup = 2;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--connections") {
      connections = std::strtoul(argv[i + 1], nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (key == "--warmup") {
      warmup = std::strtod(argv[i + 1], nullptr);
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  raise_descriptor_limit();

  const auto root = std::filesystem::temp_directory_path() /
                    ("concurrent_keepalive_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  std::ofstream(root / "index.html") << std::string(1024, 'x');

  cops::http::HttpServerConfig config;
  config.doc_root = root.string();
  auto options = cops::http::CopsHttpServer::default_options();
  options.listen_port = 0;
  options.overload_control = true;
  options.overload_mode = cops::nserver::OverloadMode::kAdaptive;
  cops::http::CopsHttpServer server(options, config);
  if (!server.start().is_ok()) return 1;
  auto& core = server.server();

  std::vector<Client> clients(connections);
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (size_t i = 0; i < connections; ++i) {
    clients[i].fd = connect_to(server.port());
    if (clients[i].fd < 0) return 1;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, clients[i].fd, &ev);
    // Keep the acceptor's backlog short of overflowing.
    if (i % 64 == 63) {
      for (int w = 0; w < 1000 && core.connection_count() <= i; ++w) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  for (auto& c : clients) {
    ::send(c.fd, kRequest.data(), kRequest.size(), MSG_NOSIGNAL);
  }

  const auto start = Clock::now();
  const auto measure_from = start + std::chrono::duration<double>(warmup);
  const auto stop_at = measure_from + std::chrono::duration<double>(seconds);
  bool measuring = false;
  bool failed = false;
  uint64_t requests = 0;
  double cpu0 = 0, client_cpu0 = 0;
  cops::nserver::ProfilerSnapshot pool0;
  int max_tier = 0;
  double max_pool_pressure = 0;
  auto last_sample = start;
  std::vector<epoll_event> events(256);
  char buf[16 * 1024];

  for (;;) {
    const auto now = Clock::now();
    if (!measuring && now >= measure_from) {
      measuring = true;
      requests = 0;
      cpu0 = process_cpu_seconds();
      client_cpu0 = thread_cpu_seconds();
      pool0 = core.profile();
    }
    if (now >= stop_at) break;
    if (measuring && now - last_sample >= std::chrono::milliseconds(20)) {
      last_sample = now;
      const auto snap = core.overload_manager()->snapshot();
      max_tier = std::max(max_tier, static_cast<int>(snap.tier));
      for (const auto& m : snap.monitors) {
        if (m.name == "pool_miss_rate") {
          max_pool_pressure = std::max(max_pool_pressure, m.smoothed);
        }
      }
    }
    const int n = ::epoll_wait(ep, events.data(),
                               static_cast<int>(events.size()), 10);
    for (int e = 0; e < n; ++e) {
      Client& c = clients[events[e].data.u64];
      for (;;) {
        const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
        if (got <= 0) break;
        c.in.append(buf, static_cast<size_t>(got));
      }
      const int replies = take_replies(c.in);
      if (replies < 0) {
        failed = true;
        break;
      }
      requests += static_cast<uint64_t>(replies);
      for (int r = 0; r < replies; ++r) {
        ::send(c.fd, kRequest.data(), kRequest.size(), MSG_NOSIGNAL);
      }
    }
    if (failed) break;
  }

  const double client_cpu = thread_cpu_seconds() - client_cpu0;
  const double server_cpu = process_cpu_seconds() - cpu0 - client_cpu;
  const auto pool1 = core.profile();
  const double per_req = requests > 0 ? 1.0 / requests : 0;
  std::printf(
      "{\"connections\": %zu, \"seconds\": %.1f, \"requests\": %llu, "
      "\"throughput_rps\": %.0f, \"server_cpu_us_per_req\": %.2f, "
      "\"client_cpu_us_per_req\": %.2f, \"pool_misses_per_req\": %.4f, "
      "\"pool_alloc_bytes\": %llu, \"max_tier\": %d, "
      "\"max_pool_miss_pressure\": %.3f, \"failed\": %s}\n",
      connections, seconds, static_cast<unsigned long long>(requests),
      requests / seconds, server_cpu * 1e6 * per_req,
      client_cpu * 1e6 * per_req,
      static_cast<double>(pool1.pool_misses - pool0.pool_misses) * per_req,
      static_cast<unsigned long long>(pool1.pool_alloc_bytes -
                                      pool0.pool_alloc_bytes),
      max_tier, max_pool_pressure, failed ? "true" : "false");

  for (auto& c : clients) ::close(c.fd);
  ::close(ep);
  server.stop();
  std::filesystem::remove_all(root);
  return failed ? 1 : 0;
}
