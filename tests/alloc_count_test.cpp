// perf-smoke: the allocation-counting gate behind BENCH_request_path.json.
//
// This TU provides the operator-new interposer (COPS_ALLOC_COUNTER_IMPLEMENT
// — tests only, never linked into the shipped libraries) and replays the
// request-path harness in its quick configuration.  Guards the invariant the
// committed baseline rests on: the pooled steady-state keep-alive decode
// loop performs ZERO heap allocations per request, and at least 50% fewer
// allocated bytes than a fresh parse per request.
#define COPS_ALLOC_COUNTER_IMPLEMENT
#include "bench/alloc_counter.hpp"

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/request_path_harness.hpp"
#include "common/byte_buffer.hpp"
#include "http/request_parser.hpp"

namespace cops::bench {
namespace {

TEST(AllocCountTest, InterposerCountsThisThreadsAllocations) {
  reset_alloc_counters();
  {
    auto* p = new std::string(1024, 'x');  // forces a real heap block
    delete p;
  }
  const AllocCounters counters = alloc_counters();
  EXPECT_GE(counters.count, 1u);
  EXPECT_GE(counters.bytes, sizeof(std::string));
  reset_alloc_counters();
  EXPECT_EQ(alloc_counters().count, 0u);
}

TEST(AllocCountTest, PooledRequestPathIsAllocationFree) {
  const auto config = request_path_quick_config();
  uint64_t checksum_fresh_parse = 0;
  uint64_t checksum_pooled = 0;
  const RequestPathRow fresh_parse =
      run_request_path_mode(config, "fresh_parse", &checksum_fresh_parse);
  const RequestPathRow pooled =
      run_request_path_mode(config, "pooled", &checksum_pooled);

  ASSERT_EQ(fresh_parse.requests, config.measured_requests);
  ASSERT_EQ(pooled.requests, config.measured_requests);
  // Both modes decoded the identical request stream identically.
  EXPECT_EQ(checksum_fresh_parse, checksum_pooled);

  // The interposer is alive: the classical path must allocate.
  ASSERT_GT(fresh_parse.steady_allocs, 0u)
      << "fresh_parse counted zero allocations — interposer inactive";

  // Gate 1: pooled steady state is allocation-free.
  EXPECT_EQ(pooled.steady_allocs, 0u)
      << pooled.steady_allocs << " allocations ("
      << pooled.steady_alloc_bytes << " bytes) leaked into the pooled "
      << "keep-alive decode loop";
  // Gate 2: >= 50% fewer bytes than fresh_parse.
  EXPECT_LE(pooled.alloc_bytes_per_request,
            0.5 * fresh_parse.alloc_bytes_per_request);
}

TEST(AllocCountTest, ChunkedDecodeOnWarmScratchIsAllocationFree) {
  // The chunked decoder must ride the same zero-allocation pooled path as
  // Content-Length bodies: after warm-up the scratch request's body string
  // and header map have the capacity they need, the ChunkedDecoder itself
  // lives on the stack, and the in-buffer is recycled — so a steady-state
  // chunked request decodes without touching the heap.
  http::HttpRequest scratch;
  ByteBuffer in;
  const std::string wire =
      "POST /upload HTTP/1.1\r\n"
      "Host: bench\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "10\r\n0123456789abcdef\r\n"
      "8;ext=tok\r\nGHIJKLMN\r\n"
      "0\r\n"
      "X-Checksum: ignored\r\n"
      "\r\n";
  for (int i = 0; i < 32; ++i) {  // warm every capacity in the cycle
    in.append(wire);
    ASSERT_EQ(http::parse_request(in, scratch),
              http::ParseOutcome::kComplete);
    ASSERT_EQ(scratch.body, "0123456789abcdefGHIJKLMN");
  }
  ASSERT_TRUE(in.empty());

  reset_alloc_counters();
  for (int i = 0; i < 256; ++i) {
    in.append(wire);
    ASSERT_EQ(http::parse_request(in, scratch),
              http::ParseOutcome::kComplete);
  }
  const AllocCounters counters = alloc_counters();
  EXPECT_EQ(counters.count, 0u)
      << counters.count << " allocations (" << counters.bytes
      << " bytes) leaked into the steady-state chunked decode loop";
}

TEST(AllocCountTest, QuickRunEmitsValidJson) {
  const auto config = request_path_quick_config();
  std::vector<RequestPathRow> rows;
  rows.push_back(run_request_path_mode(config, "fresh_parse"));
  rows.push_back(run_request_path_mode(config, "pooled"));

  const std::string json = request_path_rows_to_json(rows, /*quick=*/true);
  std::string error;
  EXPECT_TRUE(validate_request_path_json(json, &error)) << error;

  const std::string path =
      std::string(COPS_BINARY_DIR) + "/BENCH_request_path_smoke.json";
  std::ofstream out(path, std::ios::trunc);
  out << json;
  ASSERT_TRUE(out.good());
}

TEST(AllocCountTest, ValidatorRejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(validate_request_path_json("{\"rows\": [", &error));
  EXPECT_FALSE(validate_request_path_json("{}", &error));
  // Drop a required key from an otherwise-valid document.
  std::vector<RequestPathRow> rows(2);
  rows[0].mode = "fresh_parse";
  rows[1].mode = "pooled";
  std::string json = request_path_rows_to_json(rows, true);
  size_t pos = 0;
  size_t hits = 0;
  while ((pos = json.find("\"steady_allocs\"", pos)) != std::string::npos) {
    json.replace(pos, 15, "\"steady_allocz\"");
    ++hits;
  }
  ASSERT_EQ(hits, 2u);  // one per row
  EXPECT_FALSE(validate_request_path_json(json, &error));
}

}  // namespace
}  // namespace cops::bench
