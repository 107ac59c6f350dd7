// Tests for the file cache and the five replacement policies (option O6).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>

#include "nserver/cache_policy.hpp"
#include "nserver/file_cache.hpp"
#include "tests/test_util.hpp"

namespace cops::nserver {
namespace {

FileDataPtr make_file(const std::string& path, size_t size) {
  auto data = std::make_shared<FileData>();
  data->path = path;
  data->bytes.assign(size, 'x');
  return data;
}

// Snapshot a real on-disk file the way FileIoService does (contents + mtime),
// so revalidation's stat() comparison is meaningful.
FileDataPtr snapshot_disk_file(const std::string& path) {
  auto data = std::make_shared<FileData>();
  data->path = path;
  std::ifstream in(path, std::ios::binary);
  data->bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  data->mtime_seconds = static_cast<int64_t>(st.st_mtime);
  return data;
}

FileCache make_cache(CachePolicyKind kind, size_t capacity,
                     size_t threshold = 64 * 1024,
                     CustomEvictionHook hook = nullptr) {
  return FileCache(make_cache_policy(kind, threshold, std::move(hook)),
                   capacity);
}

// ---------- basic cache behaviour ---------------------------------------------

TEST(FileCache, HitAfterInsert) {
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  EXPECT_TRUE(cache.insert("/a", make_file("/a", 100)));
  auto hit = cache.lookup("/a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(FileCache, MissCounts) {
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  EXPECT_EQ(cache.lookup("/nope"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(FileCache, HitRateComputed) {
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  cache.insert("/a", make_file("/a", 10));
  (void)cache.lookup("/a");
  (void)cache.lookup("/a");
  (void)cache.lookup("/b");
  EXPECT_NEAR(cache.hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(FileCache, ObjectLargerThanCapacityRefused) {
  auto cache = make_cache(CachePolicyKind::kLru, 100);
  EXPECT_FALSE(cache.insert("/big", make_file("/big", 200)));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(FileCache, ReplaceSameKeyUpdatesBytes) {
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  cache.insert("/a", make_file("/a", 100));
  cache.insert("/a", make_file("/a", 300));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.size_bytes(), 300u);
}

TEST(FileCache, EraseRemoves) {
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  cache.insert("/a", make_file("/a", 100));
  cache.erase("/a");
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.lookup("/a"), nullptr);
}

TEST(FileCache, ClearEmptiesEverything) {
  auto cache = make_cache(CachePolicyKind::kLfu, 1000);
  cache.insert("/a", make_file("/a", 100));
  cache.insert("/b", make_file("/b", 100));
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  // Reinsertions after clear work.
  EXPECT_TRUE(cache.insert("/c", make_file("/c", 100)));
}

// ---------- stale-entry revalidation ------------------------------------------

TEST(FileCache, ChangedFileInvalidatedOnLookup) {
  test::TempDir dir;
  dir.write_file("f.txt", "one");
  const std::string path = (dir.path() / "f.txt").string();
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  cache.set_revalidate_interval(std::chrono::milliseconds(0));
  ASSERT_TRUE(cache.insert(path, snapshot_disk_file(path)));

  // Unchanged on disk: still a hit.
  ASSERT_NE(cache.lookup(path), nullptr);
  EXPECT_EQ(cache.invalidations(), 0u);

  // Rewrite with a different size (mtime alone has 1 s granularity).
  dir.write_file("f.txt", "something longer");
  EXPECT_EQ(cache.lookup(path), nullptr);  // stale entry dropped, not served
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entry_count(), 0u);

  // The caller re-reads and re-inserts; the fresh entry hits again.
  ASSERT_TRUE(cache.insert(path, snapshot_disk_file(path)));
  auto fresh = cache.lookup(path);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->bytes, "something longer");
}

TEST(FileCache, VanishedFileInvalidatedOnLookup) {
  test::TempDir dir;
  dir.write_file("gone.txt", "data");
  const std::string path = (dir.path() / "gone.txt").string();
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  cache.set_revalidate_interval(std::chrono::milliseconds(0));
  ASSERT_TRUE(cache.insert(path, snapshot_disk_file(path)));
  std::filesystem::remove(path);
  EXPECT_EQ(cache.lookup(path), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(FileCache, RevalidationThrottledByInterval) {
  test::TempDir dir;
  dir.write_file("f.txt", "one");
  const std::string path = (dir.path() / "f.txt").string();
  auto cache = make_cache(CachePolicyKind::kLru, 1000);
  cache.set_revalidate_interval(std::chrono::hours(1));
  ASSERT_TRUE(cache.insert(path, snapshot_disk_file(path)));
  dir.write_file("f.txt", "something longer");
  // Within the interval the stat() is skipped: the stale entry is served
  // (the O6 trade-off: bounded staleness in exchange for no stat per hit).
  EXPECT_NE(cache.lookup(path), nullptr);
  EXPECT_EQ(cache.invalidations(), 0u);
}

TEST(FileCache, DisabledPolicyRefusesInserts) {
  FileCache cache(nullptr, 1000);
  EXPECT_FALSE(cache.insert("/a", make_file("/a", 10)));
  EXPECT_STREQ(cache.policy_name(), "None");
}

// ---------- LRU -----------------------------------------------------------------

TEST(LruPolicy, EvictsLeastRecentlyUsed) {
  auto cache = make_cache(CachePolicyKind::kLru, 300);
  cache.insert("/a", make_file("/a", 100));
  cache.insert("/b", make_file("/b", 100));
  cache.insert("/c", make_file("/c", 100));
  (void)cache.lookup("/a");  // refresh a; b is now LRU
  cache.insert("/d", make_file("/d", 100));
  EXPECT_EQ(cache.lookup("/b"), nullptr);
  EXPECT_NE(cache.lookup("/a"), nullptr);
  EXPECT_NE(cache.lookup("/d"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruPolicy, EvictsMultipleForLargeInsert) {
  auto cache = make_cache(CachePolicyKind::kLru, 300);
  cache.insert("/a", make_file("/a", 100));
  cache.insert("/b", make_file("/b", 100));
  cache.insert("/c", make_file("/c", 100));
  cache.insert("/big", make_file("/big", 250));
  EXPECT_EQ(cache.lookup("/a"), nullptr);
  EXPECT_EQ(cache.lookup("/b"), nullptr);
  EXPECT_EQ(cache.lookup("/c"), nullptr);
  EXPECT_NE(cache.lookup("/big"), nullptr);
  EXPECT_EQ(cache.evictions(), 3u);
}

// ---------- LFU -----------------------------------------------------------------

TEST(LfuPolicy, EvictsLeastFrequentlyUsed) {
  auto cache = make_cache(CachePolicyKind::kLfu, 300);
  cache.insert("/a", make_file("/a", 100));
  cache.insert("/b", make_file("/b", 100));
  cache.insert("/c", make_file("/c", 100));
  (void)cache.lookup("/a");
  (void)cache.lookup("/a");
  (void)cache.lookup("/c");
  // /b has the lowest access count.
  cache.insert("/d", make_file("/d", 100));
  EXPECT_EQ(cache.lookup("/b"), nullptr);
  EXPECT_NE(cache.lookup("/a"), nullptr);
}

TEST(LfuPolicy, TieBrokenByRecency) {
  auto cache = make_cache(CachePolicyKind::kLfu, 200);
  cache.insert("/old", make_file("/old", 100));
  cache.insert("/new", make_file("/new", 100));
  // Equal frequency (1 each): the older entry goes.
  cache.insert("/x", make_file("/x", 100));
  EXPECT_EQ(cache.lookup("/old"), nullptr);
  EXPECT_NE(cache.lookup("/new"), nullptr);
}

// ---------- LRU-MIN -------------------------------------------------------------

TEST(LruMinPolicy, PrefersEvictingLargeFiles) {
  auto cache = make_cache(CachePolicyKind::kLruMin, 1000);
  cache.insert("/small1", make_file("/small1", 50));
  cache.insert("/large", make_file("/large", 800));
  cache.insert("/small2", make_file("/small2", 100));
  // Incoming 100-byte object: LRU-MIN evicts an entry >= 100 bytes (the
  // large one), not the least-recently-used small one.
  cache.insert("/new", make_file("/new", 100));
  EXPECT_EQ(cache.lookup("/large"), nullptr);
  EXPECT_NE(cache.lookup("/small1"), nullptr);
  EXPECT_NE(cache.lookup("/small2"), nullptr);
}

TEST(LruMinPolicy, HalvesThresholdWhenNoLargeCandidate) {
  auto cache = make_cache(CachePolicyKind::kLruMin, 200);
  cache.insert("/a", make_file("/a", 60));
  cache.insert("/b", make_file("/b", 60));
  cache.insert("/c", make_file("/c", 60));
  // Incoming 150 > any entry: threshold halves (150→75→37) until the LRU
  // small file qualifies.
  cache.insert("/incoming", make_file("/incoming", 150));
  EXPECT_NE(cache.lookup("/incoming"), nullptr);
  EXPECT_LE(cache.size_bytes(), 200u);
}

// ---------- LRU-Threshold --------------------------------------------------------

TEST(LruThresholdPolicy, RefusesOversizedObjects) {
  auto cache = make_cache(CachePolicyKind::kLruThreshold, 10000,
                          /*threshold=*/500);
  EXPECT_FALSE(cache.insert("/big", make_file("/big", 501)));
  EXPECT_TRUE(cache.insert("/ok", make_file("/ok", 500)));
}

TEST(LruThresholdPolicy, EvictsLikeLruBelowThreshold) {
  auto cache = make_cache(CachePolicyKind::kLruThreshold, 250,
                          /*threshold=*/500);
  cache.insert("/a", make_file("/a", 100));
  cache.insert("/b", make_file("/b", 100));
  (void)cache.lookup("/a");
  cache.insert("/c", make_file("/c", 100));
  EXPECT_EQ(cache.lookup("/b"), nullptr);
  EXPECT_NE(cache.lookup("/a"), nullptr);
}

// ---------- Hyper-G ---------------------------------------------------------------

TEST(HyperGPolicy, FrequencyFirst) {
  auto cache = make_cache(CachePolicyKind::kHyperG, 300);
  cache.insert("/hot", make_file("/hot", 100));
  cache.insert("/cold", make_file("/cold", 100));
  cache.insert("/warm", make_file("/warm", 100));
  (void)cache.lookup("/hot");
  (void)cache.lookup("/hot");
  (void)cache.lookup("/warm");
  cache.insert("/new", make_file("/new", 100));
  EXPECT_EQ(cache.lookup("/cold"), nullptr);
  EXPECT_NE(cache.lookup("/hot"), nullptr);
}

TEST(HyperGPolicy, FrequencyTieBrokenByRecency) {
  auto cache = make_cache(CachePolicyKind::kHyperG, 200);
  cache.insert("/first", make_file("/first", 100));
  cache.insert("/second", make_file("/second", 100));
  cache.insert("/third", make_file("/third", 100));
  EXPECT_EQ(cache.lookup("/first"), nullptr);
  EXPECT_NE(cache.lookup("/second"), nullptr);
}

// ---------- Custom hook -------------------------------------------------------------

TEST(CustomPolicy, HookChoosesVictim) {
  // Evict the largest entry, whatever the recency (a user-supplied policy).
  CustomEvictionHook hook =
      [](const std::unordered_map<std::string, CacheEntryInfo>& entries,
         size_t) -> std::optional<std::string> {
    const CacheEntryInfo* victim = nullptr;
    for (const auto& [key, info] : entries) {
      if (victim == nullptr || info.size > victim->size) victim = &info;
    }
    return victim == nullptr ? std::nullopt
                             : std::optional<std::string>(victim->key);
  };
  auto cache =
      make_cache(CachePolicyKind::kCustom, 1000, 64 * 1024, std::move(hook));
  cache.insert("/small", make_file("/small", 100));
  cache.insert("/large", make_file("/large", 850));
  cache.insert("/x", make_file("/x", 100));
  EXPECT_EQ(cache.lookup("/large"), nullptr);
  EXPECT_NE(cache.lookup("/small"), nullptr);
}

TEST(CustomPolicy, MissingHookRefusesInsertWhenFull) {
  auto cache = make_cache(CachePolicyKind::kCustom, 150);
  EXPECT_TRUE(cache.insert("/a", make_file("/a", 100)));
  EXPECT_FALSE(cache.insert("/b", make_file("/b", 100)));  // cannot evict
}

// ---------- capacity property across policies ---------------------------------------

class CachePolicyParamTest
    : public ::testing::TestWithParam<CachePolicyKind> {};

TEST_P(CachePolicyParamTest, NeverExceedsCapacity) {
  auto cache = make_cache(GetParam(), 1500, /*threshold=*/400);
  std::mt19937 rng(3);
  std::uniform_int_distribution<size_t> size_dist(10, 390);
  for (int i = 0; i < 300; ++i) {
    const std::string key = "/f" + std::to_string(i % 40);
    if (i % 3 == 0) {
      (void)cache.lookup(key);
    } else {
      cache.insert(key, make_file(key, size_dist(rng)));
    }
    ASSERT_LE(cache.size_bytes(), 1500u) << "policy violated capacity";
  }
  EXPECT_GT(cache.entry_count(), 0u);
}

TEST_P(CachePolicyParamTest, LookupAfterManyEvictionsStillConsistent) {
  auto cache = make_cache(GetParam(), 800, /*threshold=*/400);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "/k" + std::to_string(i);
    cache.insert(key, make_file(key, 100));
  }
  // Entry count must match the bytes accounting (8 × 100 fits).
  EXPECT_LE(cache.entry_count(), 8u);
  EXPECT_EQ(cache.size_bytes(), cache.entry_count() * 100);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CachePolicyParamTest,
                         ::testing::Values(CachePolicyKind::kLru,
                                           CachePolicyKind::kLfu,
                                           CachePolicyKind::kLruMin,
                                           CachePolicyKind::kLruThreshold,
                                           CachePolicyKind::kHyperG));

}  // namespace
}  // namespace cops::nserver
