// perf-smoke: the allocation-counting gate behind BENCH_request_path.json.
//
// This TU provides the operator-new interposer (COPS_ALLOC_COUNTER_IMPLEMENT
// — tests only, never linked into the shipped libraries) and replays the
// request-path harness in its quick configuration.  Guards the invariant the
// committed baseline rests on: with buffer_mgmt=pooled, the steady-state
// keep-alive decode loop performs ZERO heap allocations per request, and at
// least 50% fewer allocated bytes than per_request.
#define COPS_ALLOC_COUNTER_IMPLEMENT
#include "bench/alloc_counter.hpp"

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/request_path_harness.hpp"
#include "common/byte_buffer.hpp"
#include "http/request_parser.hpp"
#include "nserver/l1_cache.hpp"

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
  uint64_t checksum_per_request = 0;
  uint64_t checksum_pooled = 0;
  const RequestPathRow per_request =
      run_request_path_mode(config, "per_request", &checksum_per_request);
  const RequestPathRow pooled =
      run_request_path_mode(config, "pooled", &checksum_pooled);

  ASSERT_EQ(per_request.requests, config.measured_requests);
  ASSERT_EQ(pooled.requests, config.measured_requests);
  // Both modes decoded the identical request stream identically.
  EXPECT_EQ(checksum_per_request, checksum_pooled);

  // The interposer is alive: the classical path must allocate.
  ASSERT_GT(per_request.steady_allocs, 0u)
      << "per_request counted zero allocations — interposer inactive";

  // Gate 1: pooled steady state is allocation-free.
  EXPECT_EQ(pooled.steady_allocs, 0u)
      << pooled.steady_allocs << " allocations ("
      << pooled.steady_alloc_bytes << " bytes) leaked into the pooled "
      << "keep-alive decode loop";
  // Gate 2: >= 50% fewer bytes than per_request.
  EXPECT_LE(pooled.alloc_bytes_per_request,
            0.5 * per_request.alloc_bytes_per_request);
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

TEST(AllocCountTest, L1CacheHitPathIsAllocationFree) {
  // The scale-out design leans on the per-shard L1 hit being a hash, one
  // atomic<shared_ptr> load, a key compare, and two stamp checks — no heap.
  // A regression here (say, a string copy or a logging allocation sneaking
  // into lookup()) would put an allocator hot spot back on every cached
  // reply of every shard.
  nserver::L1FileCache l1(128, 256 * 1024,
                          std::chrono::milliseconds(60000));
  auto data = std::make_shared<nserver::FileData>();
  data->path = "/hot.txt";
  data->bytes.assign(4096, 'h');
  const std::string key = "/hot.txt";
  constexpr uint64_t kEpoch = 1;
  l1.promote(key, data, kEpoch);
  for (int i = 0; i < 16; ++i) {  // warm-up: the hit path, not first touch
    ASSERT_NE(l1.lookup(key, kEpoch), nullptr);
  }

  reset_alloc_counters();
  size_t served = 0;
  for (int i = 0; i < 4096; ++i) {
    auto hit = l1.lookup(key, kEpoch);
    if (hit != nullptr && hit->bytes.size() == 4096) ++served;
  }
  const AllocCounters counters = alloc_counters();
  EXPECT_EQ(served, 4096u);
  EXPECT_EQ(counters.count, 0u)
      << counters.count << " allocations (" << counters.bytes
      << " bytes) leaked into the L1 hit path";
}

TEST(AllocCountTest, QuickRunEmitsValidJson) {
  const auto config = request_path_quick_config();
  std::vector<RequestPathRow> rows;
  rows.push_back(run_request_path_mode(config, "per_request"));
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
  rows[0].mode = "per_request";
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
