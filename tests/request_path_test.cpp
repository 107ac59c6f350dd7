// Request-path pooling tests.
//
// Four layers:
//   1. Unit coverage of the slab/pool layer (SlabPool, BufferPool) and of
//      ByteBuffer storage adoption + HeaderMap arena reuse.
//   2. Pool behaviour under pressure: exhaustion grows the pool (counted as
//      misses), recycling turns subsequent traffic into hits.
//   3. Scratch-vs-fresh parsing: every HTTP and FTP corpus entry parses
//      into a recycled scratch object exactly as into a fresh one.
//   4. Full-stack simnet differentials: the same seeded scenario replayed
//      under a chaos fault plan must produce the byte stream of the
//      fault-free replay — the recycled buffers never leak state between
//      requests, however the bytes arrive.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_pool.hpp"
#include "common/byte_buffer.hpp"
#include "ftp/command.hpp"
#include "http/http_server.hpp"
#include "http/request.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

using std::chrono::milliseconds;

// ---- SlabPool ------------------------------------------------------------

TEST(SlabPoolTest, RecyclesBlocksAsHits) {
  SlabPool pool(256, /*blocks_per_chunk=*/1);
  void* a = pool.allocate(100);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool.misses(), 1u);  // first allocation grew the pool
  EXPECT_EQ(pool.hits(), 0u);

  // The one-block chunk is in use, so only the returned block can serve
  // the next allocation.
  pool.deallocate(a, 100);
  void* b = pool.allocate(256);
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  pool.deallocate(b, 256);
}

TEST(SlabPoolTest, ExhaustionGrowsByWholeChunks) {
  SlabPool pool(64, /*blocks_per_chunk=*/2);
  std::vector<void*> blocks;
  for (int i = 0; i < 7; ++i) blocks.push_back(pool.allocate(64));
  // 7 live blocks from 2-block chunks: four growth steps, 8 blocks total.
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_EQ(pool.hits(), 3u);  // the second block of each grown chunk
  // The last chunk's second block is still free: the eighth is a hit.
  blocks.push_back(pool.allocate(64));
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_EQ(pool.hits(), 4u);
  const uint64_t grown_bytes = pool.heap_bytes();
  EXPECT_GE(grown_bytes, 8u * 64u);

  for (void* b : blocks) pool.deallocate(b, 64);
  // Steady state: everything recycles, the heap footprint stays flat.
  for (int round = 0; round < 3; ++round) {
    std::vector<void*> again;
    for (int i = 0; i < 8; ++i) again.push_back(pool.allocate(64));
    for (void* b : again) pool.deallocate(b, 64);
  }
  EXPECT_EQ(pool.heap_bytes(), grown_bytes);
  EXPECT_EQ(pool.misses(), 4u);
}

TEST(SlabPoolTest, OversizeRequestsFallBackToHeap) {
  SlabPool pool(64);
  void* big = pool.allocate(1024);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(pool.misses(), 1u);
  std::memset(big, 0xab, 1024);  // really is 1024 usable bytes
  pool.deallocate(big, 1024);
  // The oversize block never entered the freelist: a small allocation
  // still has to grow the pool.
  void* small = pool.allocate(64);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 0u);
  pool.deallocate(small, 64);
}

TEST(PoolAllocatorTest, AllocateSharedUsesTheSlab) {
  auto pool = std::make_shared<SlabPool>(256, 4);
  struct Payload {
    uint64_t a = 1;
    uint64_t b = 2;
  };
  {
    auto p = std::allocate_shared<Payload>(PoolAllocator<Payload>(pool));
    EXPECT_EQ(p->a + p->b, 3u);
    EXPECT_EQ(pool->misses() + pool->hits(), 1u);
  }
  // Destroyed object's block is recycled: the next one is a hit.
  auto q = std::allocate_shared<Payload>(PoolAllocator<Payload>(pool));
  EXPECT_GE(pool->hits(), 1u);
}

// ---- BufferPool ----------------------------------------------------------

TEST(BufferPoolTest, AcquireReleaseRecyclesCapacity) {
  BufferPool pool(4096, /*max_free=*/2);
  auto a = pool.acquire();
  EXPECT_GE(a.capacity(), 4096u);
  EXPECT_EQ(pool.misses(), 1u);
  // A buffer that grew while in use returns with its larger capacity.
  a.resize(64 * 1024);
  const size_t grown = a.capacity();
  pool.release(std::move(a));
  auto b = pool.acquire();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_GE(b.capacity(), grown);
  EXPECT_TRUE(b.empty());  // recycled buffers come back cleared
}

TEST(BufferPoolTest, FreeListIsBoundedAndUndersizedRejected) {
  BufferPool pool(4096, /*max_free=*/2);
  pool.release(ByteStorage(8192));
  pool.release(ByteStorage(8192));
  pool.release(ByteStorage(8192));  // over max_free: dropped
  pool.release(ByteStorage(16));    // under block size: dropped
  // Two buffers were kept: two acquires hit, the third allocates.
  std::vector<ByteStorage> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_GE(held[0].capacity(), 8192u);
  EXPECT_GE(held[1].capacity(), 8192u);
}

// Registered users raise the free-list cap to one block per user, and a
// departing user trims one surplus block.
TEST(BufferPoolTest, FreeListKeepsABlockPerUser) {
  BufferPool pool(4096, /*max_free=*/2);
  for (int i = 0; i < 5; ++i) pool.add_user();
  std::vector<ByteStorage> held;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
    for (auto& storage : held) pool.release(std::move(storage));
    held.clear();
  }
  EXPECT_EQ(pool.misses(), 5u);  // all five were kept: the second burst hits
  EXPECT_EQ(pool.hits(), 5u);
  EXPECT_EQ(pool.heap_bytes(), 5u * 4096);
  for (int i = 0; i < 4; ++i) pool.remove_user();
  // Back to max_free: two acquires hit, the third allocates.
  for (int i = 0; i < 3; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.hits(), 7u);
  EXPECT_EQ(pool.misses(), 6u);
}

// ---- ByteBuffer storage adoption -----------------------------------------

TEST(ByteBufferAdoptTest, AdoptedStorageRoundTrips) {
  BufferPool pool(4096);
  ByteBuffer buffer;
  buffer.adopt_storage(pool.acquire());
  const char msg[] = "hello pooled world";
  buffer.append(msg, sizeof(msg) - 1);
  EXPECT_EQ(buffer.view(), "hello pooled world");
  buffer.consume(6);
  EXPECT_EQ(buffer.view(), "pooled world");

  auto storage = buffer.release_storage();
  EXPECT_GE(storage.capacity(), 4096u);
  EXPECT_EQ(buffer.readable(), 0u);  // buffer is reusable after release
  buffer.append("x", 1);
  EXPECT_EQ(buffer.view(), "x");
  pool.release(std::move(storage));
  EXPECT_EQ(pool.hits(), 0u);
  (void)pool.acquire();
  EXPECT_EQ(pool.hits(), 1u);  // the released storage was recycled
}

// ---- HeaderMap -----------------------------------------------------------

TEST(HeaderMapTest, LowercasesNamesAndLooksUpCaseInsensitively) {
  http::HeaderMap map;
  map.add("Content-Type", "text/html");
  map.add("X-MiXeD", "v");
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(0).name, "content-type");
  ASSERT_TRUE(map.get("CONTENT-TYPE").has_value());
  EXPECT_EQ(*map.get("content-type"), "text/html");
  EXPECT_EQ(*map.get("x-mixed"), "v");
  EXPECT_FALSE(map.get("missing").has_value());
}

TEST(HeaderMapTest, AppendToValueJoinsWithCommaSpace) {
  http::HeaderMap map;
  map.add("Accept", "text/html");
  map.append_to_value(0, "text/plain");
  EXPECT_EQ(*map.get("accept"), "text/html, text/plain");
}

TEST(HeaderMapTest, ResetKeepsNoEntriesAndEqualityIsOrdered) {
  http::HeaderMap a;
  http::HeaderMap b;
  a.add("One", "1");
  a.add("Two", "2");
  b.add("one", "1");
  b.add("two", "2");
  EXPECT_TRUE(a == b);
  b.reset();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(a == b);
  b.add("two", "2");
  b.add("one", "1");
  EXPECT_FALSE(a == b);  // same pairs, different wire order
}

// ---- scratch vs fresh parse over the fuzz corpus -------------------------

std::vector<std::string> load_corpus(const std::string& subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(COPS_SOURCE_DIR) / "tests" / "corpus" / subdir;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // deterministic order
  std::vector<std::string> corpus;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

// One scratch request parses every entry of the corpus in turn (carrying
// capacity and any stale state from the previous parse); each result must
// equal a parse into a fresh HttpRequest.
TEST(ScratchParseTest, HttpScratchRequestParsesLikeAFreshOne) {
  const auto corpus = load_corpus("http");
  ASSERT_GE(corpus.size(), 10u) << "HTTP corpus went missing";
  http::HttpRequest scratch;
  size_t requests = 0;
  for (const auto& input : corpus) {
    ByteBuffer scratch_in{std::string_view(input)};
    ByteBuffer fresh_in{std::string_view(input)};
    // Pipelined entries hold several requests: walk them all.
    for (int i = 0; i < 16; ++i) {
      http::HttpRequest fresh;
      http::ParseEvents scratch_events;
      http::ParseEvents fresh_events;
      const auto outcome = http::parse_request(
          scratch_in, scratch, http::ParseLimits{}, scratch_events);
      ASSERT_EQ(outcome, http::parse_request(fresh_in, fresh,
                                             http::ParseLimits{},
                                             fresh_events))
          << input;
      EXPECT_EQ(scratch_in.readable(), fresh_in.readable()) << input;
      EXPECT_EQ(scratch_events.reject_status, fresh_events.reject_status);
      EXPECT_EQ(scratch_events.needs_continue, fresh_events.needs_continue);
      if (outcome != http::ParseOutcome::kComplete) break;
      ++requests;
      EXPECT_EQ(scratch.method, fresh.method) << input;
      EXPECT_EQ(scratch.target, fresh.target) << input;
      EXPECT_EQ(scratch.path, fresh.path) << input;
      EXPECT_EQ(scratch.query, fresh.query) << input;
      EXPECT_EQ(scratch.version_major, fresh.version_major) << input;
      EXPECT_EQ(scratch.version_minor, fresh.version_minor) << input;
      EXPECT_TRUE(scratch.headers == fresh.headers) << input;
      EXPECT_EQ(scratch.body, fresh.body) << input;
      EXPECT_EQ(scratch.keep_alive(), fresh.keep_alive()) << input;
    }
  }
  EXPECT_GT(requests, 5u);
}

TEST(ScratchParseTest, FtpScratchCommandParsesLikeAFreshOne) {
  const auto corpus = load_corpus("ftp");
  ASSERT_GE(corpus.size(), 5u) << "FTP corpus went missing";
  ftp::FtpCommand scratch;
  size_t lines = 0;
  for (const auto& entry : corpus) {
    size_t pos = 0;
    while (pos < entry.size()) {
      size_t eol = entry.find('\n', pos);
      if (eol == std::string::npos) eol = entry.size();
      std::string_view line(entry.data() + pos, eol - pos);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      pos = eol + 1;
      ++lines;
      ftp::FtpCommand fresh;
      const bool ok = ftp::parse_command_into(line, fresh);
      ASSERT_EQ(ftp::parse_command_into(line, scratch), ok) << line;
      if (!ok) continue;
      EXPECT_EQ(scratch.verb, fresh.verb) << line;
      EXPECT_EQ(scratch.arg, fresh.arg) << line;
    }
  }
  EXPECT_GT(lines, 10u);
}

// ---- full-stack simnet differential --------------------------------------

// The default scenario: keep-alive GETs, a HEAD and a 404, then a closing
// GET.
const std::string& default_wire() {
  static const std::string wire =
      "GET /a.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
      "GET /b.bin HTTP/1.1\r\nHost: sim\r\n\r\n"
      "HEAD /a.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
      "GET /missing.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
      "GET /a.txt HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n";
  return wire;
}

// Replays a multi-request keep-alive scenario (its first request line
// delivered byte-by-byte — the short-read split case) through the full
// COPS-HTTP stack over the simulated network and returns the client's
// received byte stream.
std::string run_scenario(uint64_t seed, const simnet::FaultPlan& plan,
                         bool* closed_out = nullptr,
                         const std::string& wire = default_wire()) {
  simnet::SimEngine engine(seed, plan);

  test::TempDir dir;
  dir.write_file("a.txt", "alpha file: the quick brown fox\n");
  std::string big;
  for (int i = 0; i < 2000; ++i) big += static_cast<char>('A' + (i * 7) % 26);
  dir.write_file("b.bin", big);
  // Pin the docroot mtimes: Last-Modified must not depend on which
  // wall-clock second this run created its files in, or the chaos and
  // fault-free runs can straddle a second boundary.
  const auto fixed_mtime = std::chrono::file_clock::from_sys(
      std::chrono::sys_seconds(std::chrono::seconds(784111777)));
  std::filesystem::last_write_time(dir.path() / "a.txt", fixed_mtime);
  std::filesystem::last_write_time(dir.path() / "b.bin", fixed_mtime);

  auto options = http::CopsHttpServer::default_options();
  simnet::make_deterministic(options);
  options.listen_port = 8090;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();

  auto* client = engine.new_client();
  engine.at(milliseconds(1), [client] { client->connect(8090); });
  // Deliver the first request line one byte at a time (every parse sees an
  // incomplete request and must re-examine the buffer), then the rest in
  // seeded random segments.
  const size_t drip = std::strlen("GET /a.txt HTTP/1.1\r\n");
  int when_ms = 2;
  for (size_t i = 0; i < drip; ++i) {
    const std::string piece(1, wire[i]);
    engine.at(milliseconds(when_ms++), [client, piece] {
      client->send(piece);
    });
  }
  std::mt19937_64 rng(seed);
  size_t pos = drip;
  while (pos < wire.size()) {
    const size_t chunk = 1 + rng() % (wire.size() - pos);
    const std::string piece = wire.substr(pos, chunk);
    engine.at(milliseconds(when_ms), [client, piece] { client->send(piece); });
    pos += chunk;
    when_ms += static_cast<int>(rng() % 3);
  }

  EXPECT_TRUE(engine.run(std::chrono::seconds(120)))
      << "scenario did not quiesce\n"
      << engine.trace_text();
  server.stop();
  EXPECT_TRUE(engine.failures().empty());
  if (closed_out != nullptr) *closed_out = client->peer_closed();
  return client->received();
}

class RequestPathDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RequestPathDifferentialTest, PooledRepliesAreByteIdentical) {
  const auto seed = static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(seed));
  bool chaos_closed = false;
  bool clean_closed = false;
  const std::string chaos =
      run_scenario(seed, simnet::FaultPlan::chaos(), &chaos_closed);
  const std::string clean =
      run_scenario(seed, simnet::FaultPlan::none(), &clean_closed);
  ASSERT_FALSE(chaos.empty());
  EXPECT_EQ(chaos, clean) << "faults must not change a single reply byte";
  EXPECT_TRUE(chaos_closed);
  EXPECT_TRUE(clean_closed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestPathDifferentialTest,
                         ::testing::Range(1, 7),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// A request larger than the 16 KiB pooled read-buffer block — a POST with
// a 20 KiB body, which draws the 405 — forces the adopted storage to grow
// mid-request under chaos segmentation: the pool-miss growth path.  The
// replies around it must match the fault-free run.
TEST(RequestPathDifferentialTest, TinyPooledBlocksGrowAndStayCorrect) {
  const std::string body(20 * 1024, 'p');
  const std::string wire =
      "GET /a.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
      "POST /a.txt HTTP/1.1\r\nHost: sim\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body +
      "GET /b.bin HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n";
  bool closed = false;
  const std::string chaos =
      run_scenario(99, simnet::FaultPlan::chaos(), &closed, wire);
  const std::string clean =
      run_scenario(99, simnet::FaultPlan::none(), nullptr, wire);
  ASSERT_NE(clean.find("HTTP/1.1 405"), std::string::npos) << clean;
  EXPECT_EQ(chaos, clean);
  EXPECT_TRUE(closed);
}

// Pool counters actually move on the live server: serve traffic pooled and
// expect hits + misses > 0 via the profiler aggregation.
TEST(RequestPathPoolCountersTest, ProfileAggregatesPoolTraffic) {
  simnet::SimEngine engine(7, simnet::FaultPlan::none());
  test::TempDir dir;
  dir.write_file("a.txt", "alpha\n");

  auto options = http::CopsHttpServer::default_options();
  simnet::make_deterministic(options);
  options.listen_port = 8090;
  options.profiling = true;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  ASSERT_TRUE(server.start().is_ok());

  auto* client = engine.new_client();
  engine.at(milliseconds(1), [client] { client->connect(8090); });
  engine.at(milliseconds(2), [client] {
    client->send("GET /a.txt HTTP/1.1\r\nHost: sim\r\n\r\n");
  });
  engine.at(milliseconds(5), [client] {
    client->send(
        "GET /a.txt HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n");
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(120)));

  const auto profile = server.server().profile();
  server.stop();
  // The connection's read buffer and each request's context came from the
  // shard pools.
  EXPECT_GT(profile.pool_hits + profile.pool_misses, 0u);
  EXPECT_GT(profile.pool_alloc_bytes, 0u);
}

}  // namespace
}  // namespace cops
