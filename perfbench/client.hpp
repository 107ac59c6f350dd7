// The benchmark's load generator: one thread, a few keep-alive connections
// over loopback, raw non-blocking sockets and epoll.
//
//  * Closed loop: each connection sends its next GET as soon as the previous
//    reply's last byte arrives; optionally it reconnects after N replies.
//  * Open loop: Poisson arrivals at a fixed rate, timed by an absolute-
//    deadline timerfd, each sent on the connection with the fewest
//    outstanding requests (HTTP/1.1 pipelining when all are busy).  Latency
//    runs from the scheduled arrival, so generator stalls are charged.
//
// Every reply's status and Content-Length are checked against the fixture;
// a seeded sample of bodies is kept and compared byte for byte afterwards.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common/zipf.hpp"
#include "trace.hpp"

namespace perfbench {

// One servable file: its URL and its size on disk.
struct Target {
  std::string url;
  uint32_t size = 0;
};

// The SpecWeb99-style fileset (loadgen::generate_fileset layout) and the
// request mix drawn over it.
class Fixture {
 public:
  enum class Mix { kHot, kSpecweb };
  Fixture(std::string root, size_t directories, Mix mix);

  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] const Target& target(uint32_t i) const { return targets_[i]; }
  // Index of the next requested target.
  [[nodiscard]] uint32_t draw(std::mt19937_64& rng) const;

 private:
  std::string root_;
  Mix mix_;
  std::vector<Target> targets_;  // dir * 36 + class * 9 + file
  cops::ZipfDistribution dir_zipf_;
  cops::ZipfDistribution file_zipf_;
};

struct LoadConfig {
  uint16_t port = 0;
  size_t connections = 1;  // keep-alive connections the client holds
  int requests_per_connection = 0;  // closed loop: reconnect after N (0 = never)
  double arrival_rate = 0;          // > 0 selects the open loop (requests/s)
  double warmup_seconds = 1;
  double window_seconds = 10;
  uint64_t seed = 1;
  // Traced runs: the span table the server decorator writes, and a callback
  // the client invokes about every 100 us inside the window.
  SpanTable* spans = nullptr;
  std::function<void()> on_tick;
  // The window is cut into this many equal slices, each reported apart, so
  // a caller can take medians over slices.
  int slices = 1;
  // Called on the client thread at each slice boundary: 0 as the window
  // opens, `slices` as it closes.
  std::function<void(int)> on_boundary;
};

// What the client saw in one slice of the window.  A reply belongs to the
// slice its last byte arrived in (closed loop) or it was due in (open loop).
struct SliceStats {
  uint64_t replies = 0;     // verified replies
  uint64_t failed = 0;      // wrong or missing replies
  uint64_t body_bytes = 0;  // body bytes of the verified replies
  std::vector<float> latency_us;   // one per verified reply
  std::vector<float> lateness_us;  // open loop: send - due; closed: turnaround
};

// Per-request span durations (us) of the window's replies, traced runs only.
struct SpanSamples {
  std::vector<float> pre_decode, decode, handle, encode, post_encode;
  double span_sum_us = 0;      // sum of the five spans over all requests
  double send_to_reply_us = 0; // sum of client send -> last byte
  uint64_t missing = 0;        // replies whose stamps were absent
};

struct LoadResult {
  double slice_seconds = 0;
  std::vector<SliceStats> slices;
  uint64_t replies_total = 0;  // every verified reply, warm-up and drain too
  uint64_t failed_total = 0;
  int64_t client_cpu_ns = 0;   // client thread CPU inside the window
  uint64_t bodies_compared = 0;
  uint64_t body_mismatches = 0;
  SpanSamples spans;
  std::string first_error;

  [[nodiscard]] uint64_t replies() const;
  [[nodiscard]] uint64_t failed() const;  // body mismatches included
  [[nodiscard]] std::vector<float> latency_us() const;
  [[nodiscard]] std::vector<float> lateness_us() const;
};

LoadResult run_load(const Fixture& fixture, const LoadConfig& config);

// One blocking GET of `url` on a fresh connection; true when a 200 with a
// body of `expected_size` bytes came back.
bool fetch_once(uint16_t port, const std::string& url, uint32_t expected_size);

}  // namespace perfbench
