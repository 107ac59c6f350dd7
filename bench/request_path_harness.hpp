// Shared machinery for the request-path benchmark (BENCH_request_path.json).
//
// Models the receive/decode half of the five-step cycle for one keep-alive
// connection, with heap allocations counted by the alloc_counter
// interposer, in two rows:
//
//   pooled      — what the server does: per-connection scratch HttpRequest
//     reused across requests, a pointer through the std::any, context
//     allocated from a slab free-list, read buffer adopted from a
//     BufferPool;
//   fresh_parse — the harness's own comparator, not a server mode: a fresh
//     HttpRequest per request moved through the std::any, context via
//     make_shared.
//
// The pooled loop is exactly what Server::run_decode does per request:
// append the request bytes to the connection's ByteBuffer (the socket
// read), parse one request out of it, wrap it for Handle, allocate the
// RequestContext stand-in.  The gate the committed baseline rests on:
// pooled performs ZERO steady-state allocations per keep-alive request,
// and at least 50% fewer allocated bytes than fresh_parse.
//
// Used by both the committed-baseline runner (micro_request_path) and the
// allocation-counting perf-smoke ctest (alloc_count_test); both define
// COPS_ALLOC_COUNTER_IMPLEMENT in their own TU.
#pragma once

#include <any>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"  // sibling header: resolves from this file's dir
#include "common/buffer_pool.hpp"
#include "common/byte_buffer.hpp"
#include "http/request.hpp"
#include "http/request_parser.hpp"

namespace cops::bench {

struct RequestPathRow {
  std::string mode;
  uint64_t requests = 0;        // measured-window iterations
  uint64_t steady_allocs = 0;   // operator-new calls in the window
  uint64_t steady_alloc_bytes = 0;
  double allocs_per_request = 0.0;
  double alloc_bytes_per_request = 0.0;
  double rps = 0.0;             // single-threaded decode throughput
};

struct RequestPathBenchConfig {
  uint64_t warmup_requests = 256;
  uint64_t measured_requests = 20000;
};

inline RequestPathBenchConfig request_path_quick_config() {
  RequestPathBenchConfig config;
  config.warmup_requests = 64;
  config.measured_requests = 2000;
  return config;
}

// The keep-alive cache-hit request every iteration replays — a typical
// browser GET with a handful of headers.
inline const std::string& request_path_wire() {
  static const std::string wire =
      "GET /assets/app.css?v=3 HTTP/1.1\r\n"
      "Host: bench.example\r\n"
      "User-Agent: cops-bench/1.0\r\n"
      "Accept: text/css,*/*;q=0.1\r\n"
      "Accept-Encoding: identity\r\n"
      "Connection: keep-alive\r\n"
      "\r\n";
  return wire;
}

// Stand-in for RequestContext: same allocation shape (control block +
// object through make_shared / allocate_shared) without dragging a whole
// Server into a single-threaded micro-benchmark.
struct CtxStandIn {
  void* server = nullptr;
  std::shared_ptr<void> conn;
  int priority = 0;
  bool resolved = false;
};

// One decode iteration's observable result — folded into a checksum so the
// compiler cannot dead-code the loop.
inline uint64_t fold_request(const http::HttpRequest& req,
                             const std::shared_ptr<CtxStandIn>& ctx) {
  return req.path.size() + req.headers.size() +
         static_cast<uint64_t>(req.keep_alive()) +
         static_cast<uint64_t>(ctx->priority);
}

inline RequestPathRow run_request_path_mode(
    const RequestPathBenchConfig& config, const std::string& mode,
    uint64_t* checksum_out = nullptr) {
  const bool pooled = mode == "pooled";
  const std::string& wire = request_path_wire();

  auto ctx_pool =
      std::make_shared<SlabPool>(sizeof(CtxStandIn) + 128, 64);
  auto buffer_pool = std::make_shared<BufferPool>(16 * 1024);

  ByteBuffer in;
  if (pooled) in.adopt_storage(buffer_pool->acquire());

  http::HttpRequest scratch;  // pooled: the per-connection scratch request
  uint64_t checksum = 0;

  auto one_request = [&]() {
    in.append(wire.data(), wire.size());
    http::StatusCode reject_status = http::StatusCode::kBadRequest;
    std::shared_ptr<CtxStandIn> ctx;
    if (pooled) {
      if (http::parse_request(in, scratch, http::ParseLimits{},
                              &reject_status) !=
          http::ParseOutcome::kComplete) {
        return false;
      }
      std::any request(&scratch);
      ctx = std::allocate_shared<CtxStandIn>(
          PoolAllocator<CtxStandIn>(ctx_pool));
      checksum += fold_request(**std::any_cast<http::HttpRequest*>(&request),
                               ctx);
    } else {
      http::HttpRequest fresh;
      if (http::parse_request(in, fresh, http::ParseLimits{},
                              &reject_status) !=
          http::ParseOutcome::kComplete) {
        return false;
      }
      std::any request(std::move(fresh));
      ctx = std::make_shared<CtxStandIn>();
      checksum +=
          fold_request(*std::any_cast<http::HttpRequest>(&request), ctx);
    }
    return true;
  };

  RequestPathRow row;
  row.mode = mode;
  for (uint64_t i = 0; i < config.warmup_requests; ++i) {
    if (!one_request()) return row;
  }

  reset_alloc_counters();
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < config.measured_requests; ++i) {
    if (!one_request()) return row;
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const AllocCounters counters = alloc_counters();

  if (pooled) buffer_pool->release(in.release_storage());

  row.requests = config.measured_requests;
  row.steady_allocs = counters.count;
  row.steady_alloc_bytes = counters.bytes;
  row.allocs_per_request =
      static_cast<double>(counters.count) /
      static_cast<double>(config.measured_requests);
  row.alloc_bytes_per_request =
      static_cast<double>(counters.bytes) /
      static_cast<double>(config.measured_requests);
  row.rps = elapsed > 0 ? static_cast<double>(config.measured_requests) /
                              elapsed
                        : 0.0;
  if (checksum_out != nullptr) *checksum_out = checksum;
  return row;
}

inline std::string request_path_rows_to_json(
    const std::vector<RequestPathRow>& rows, bool quick) {
  std::string out = "{\n  \"benchmark\": \"request_path\",\n  \"quick\": ";
  out += quick ? "true" : "false";
  out += ",\n  \"rows\": [\n";
  char buf[320];
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mode\": \"%s\", \"requests\": %llu, "
        "\"steady_allocs\": %llu, \"steady_alloc_bytes\": %llu, "
        "\"allocs_per_request\": %.4f, "
        "\"alloc_bytes_per_request\": %.1f, \"rps\": %.0f}%s\n",
        row.mode.c_str(), static_cast<unsigned long long>(row.requests),
        static_cast<unsigned long long>(row.steady_allocs),
        static_cast<unsigned long long>(row.steady_alloc_bytes),
        row.allocs_per_request, row.alloc_bytes_per_request, row.rps,
        i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

// Structural validation of the emitted JSON — the perf-smoke gate fails on
// a malformed file rather than committing garbage.
inline bool validate_request_path_json(const std::string& text,
                                       std::string* error) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    if (braces < 0 || brackets < 0) {
      if (error) *error = "unbalanced close at offset " + std::to_string(i);
      return false;
    }
  }
  if (braces != 0 || brackets != 0 || in_string) {
    if (error) *error = "unbalanced braces/brackets/quotes";
    return false;
  }
  for (const char* key :
       {"\"benchmark\": \"request_path\"", "\"rows\"",
        "\"mode\": \"fresh_parse\"", "\"mode\": \"pooled\"",
        "\"steady_allocs\"", "\"steady_alloc_bytes\"",
        "\"allocs_per_request\"", "\"alloc_bytes_per_request\"", "\"rps\""}) {
    if (text.find(key) == std::string::npos) {
      if (error) *error = std::string("missing key ") + key;
      return false;
    }
  }
  return true;
}

}  // namespace cops::bench
