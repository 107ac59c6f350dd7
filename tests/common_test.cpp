// Unit tests for src/common utilities.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "common/byte_buffer.hpp"
#include "common/config_file.hpp"
#include "common/histogram.hpp"
#include "common/jain.hpp"
#include "common/quota_priority_queue.hpp"
#include "common/source_stats.hpp"
#include "common/string_util.hpp"
#include "common/zipf.hpp"

namespace cops {
namespace {

// ---------- ByteBuffer -------------------------------------------------------

TEST(ByteBuffer, AppendAndView) {
  ByteBuffer buf;
  EXPECT_TRUE(buf.empty());
  buf.append("hello ");
  buf.append("world");
  EXPECT_EQ(buf.view(), "hello world");
  EXPECT_EQ(buf.readable(), 11u);
}

TEST(ByteBuffer, ConsumeAdvancesReadCursor) {
  ByteBuffer buf{std::string_view("abcdef")};
  buf.consume(3);
  EXPECT_EQ(buf.view(), "def");
  buf.consume(3);
  EXPECT_TRUE(buf.empty());
}

TEST(ByteBuffer, ConsumePastEndClamps) {
  ByteBuffer buf{std::string_view("xy")};
  buf.consume(10);
  EXPECT_TRUE(buf.empty());
}

TEST(ByteBuffer, PrepareCommitPartial) {
  ByteBuffer buf;
  uint8_t* dst = buf.prepare(100);
  std::memcpy(dst, "1234", 4);
  buf.commit(4);
  EXPECT_EQ(buf.view(), "1234");
}

TEST(ByteBuffer, CommitZeroLeavesBufferUnchanged) {
  ByteBuffer buf{std::string_view("keep")};
  buf.prepare(64);
  buf.commit(0);
  EXPECT_EQ(buf.view(), "keep");
}

TEST(ByteBuffer, FindLocatesNeedle) {
  ByteBuffer buf{std::string_view("GET / HTTP/1.1\r\n\r\nrest")};
  EXPECT_EQ(buf.find("\r\n\r\n"), 14u);
  EXPECT_EQ(buf.find("zzz"), std::string_view::npos);
}

TEST(ByteBuffer, FindAfterConsumeIsRelative) {
  ByteBuffer buf{std::string_view("aaaaXbbbbX")};
  buf.consume(5);
  EXPECT_EQ(buf.find("X"), 4u);
}

TEST(ByteBuffer, ReadCopiesAndConsumes) {
  ByteBuffer buf{std::string_view("abcdef")};
  char out[4] = {};
  EXPECT_EQ(buf.read(out, 3), 3u);
  EXPECT_EQ(std::string(out, 3), "abc");
  EXPECT_EQ(buf.view(), "def");
}

TEST(ByteBuffer, TakeStringDrains) {
  ByteBuffer buf{std::string_view("payload")};
  EXPECT_EQ(buf.take_string(), "payload");
  EXPECT_TRUE(buf.empty());
}

TEST(ByteBuffer, CompactionPreservesContent) {
  ByteBuffer buf;
  const std::string big(10000, 'a');
  buf.append(big);
  buf.consume(6000);
  buf.append("tail");
  EXPECT_EQ(buf.readable(), 4004u);
  EXPECT_EQ(buf.view().substr(4000), "tail");
}

// ---------- MpmcQueue --------------------------------------------------------
// The multi-producer multi-consumer FIFO the Event Processor runs on without
// event scheduling (O8): a QuotaPriorityQueue of one level whose quota never
// runs out.

std::vector<size_t> one_level() { return {SIZE_MAX}; }

TEST(MpmcQueue, FifoOrder) {
  QuotaPriorityQueue<int> q(one_level());
  q.push(1, 0);
  q.push(2, 0);
  q.push(3, 0);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
}

TEST(MpmcQueue, TryPopEmptyReturnsNullopt) {
  QuotaPriorityQueue<int> q(one_level());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, ShutdownDrainsThenReturnsNullopt) {
  QuotaPriorityQueue<int> q(one_level());
  q.push(42, 0);
  q.shutdown();
  EXPECT_FALSE(q.push(43, 0));
  EXPECT_EQ(*q.pop(), 42);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, ShutdownWakesBlockedConsumer) {
  QuotaPriorityQueue<int> q(one_level());
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.shutdown();
  consumer.join();
}

TEST(MpmcQueue, ConcurrentProducersConsumersDeliverAll) {
  QuotaPriorityQueue<int> q(one_level());
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  std::atomic<int> consumed{0};
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 0; i < kPerProducer; ++i) q.push(i, 0);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (true) {
        auto v = q.pop();
        if (!v) return;
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  q.shutdown();
  for (size_t c = kProducers; c < threads.size(); ++c) threads[c].join();
  EXPECT_EQ(consumed.load(), kPerProducer * kProducers);
  EXPECT_EQ(sum.load(),
            static_cast<long>(kProducers) * kPerProducer * (kPerProducer - 1) / 2);
}

// ---------- QuotaPriorityQueue ----------------------------------------------

TEST(QuotaPriorityQueue, HighPriorityFirst) {
  QuotaPriorityQueue<int> q({8, 1});
  q.push(100, 1);
  q.push(1, 0);
  q.push(2, 0);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 100);
}

TEST(QuotaPriorityQueue, QuotaPreventsStarvation) {
  // Quota 2 for level 0, 1 for level 1: out of every 3 dequeues under
  // saturation, one must come from the low-priority level.
  QuotaPriorityQueue<int> q({2, 1});
  for (int i = 0; i < 6; ++i) q.push(i, 0);       // high
  for (int i = 100; i < 103; ++i) q.push(i, 1);   // low
  std::vector<int> order;
  for (int i = 0; i < 9; ++i) order.push_back(*q.pop());
  // Pattern: 2 high, 1 low, repeated.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 100);
  EXPECT_EQ(order[3], 2);
  EXPECT_EQ(order[4], 3);
  EXPECT_EQ(order[5], 101);
}

TEST(QuotaPriorityQueue, PriorityClampedToLastLevel) {
  QuotaPriorityQueue<int> q({1, 1});
  q.push(7, 99);  // clamped to level 1
  EXPECT_EQ(q.level_size(1), 1u);
  EXPECT_EQ(*q.pop(), 7);
}

TEST(QuotaPriorityQueue, ShutdownUnblocksPop) {
  QuotaPriorityQueue<int> q({1});
  std::thread t([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.shutdown();
  t.join();
}

TEST(QuotaPriorityQueue, DrainsAfterQuotaRounds) {
  QuotaPriorityQueue<int> q({1, 1});
  for (int i = 0; i < 50; ++i) q.push(i, i % 2);
  int count = 0;
  while (q.try_pop()) ++count;
  EXPECT_EQ(count, 50);
}

// Property: with quotas {qh, ql} and saturated queues, the long-run ratio of
// dequeues approaches qh:ql.
class QuotaRatioTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QuotaRatioTest, LongRunRatioMatchesQuotas) {
  const auto [qh, ql] = GetParam();
  QuotaPriorityQueue<int> q(
      {static_cast<size_t>(qh), static_cast<size_t>(ql)});
  const int total = 600;
  for (int i = 0; i < total; ++i) q.push(0, 0);
  for (int i = 0; i < total; ++i) q.push(1, 1);
  int high = 0;
  int low = 0;
  // Sample the steady-state mix while both levels stay non-empty.
  for (int i = 0; i < total; ++i) {
    const int level = *q.pop();
    (level == 0 ? high : low) += 1;
  }
  const double expected = static_cast<double>(qh) / (qh + ql);
  const double actual = static_cast<double>(high) / (high + low);
  EXPECT_NEAR(actual, expected, 0.02) << "qh=" << qh << " ql=" << ql;
}

INSTANTIATE_TEST_SUITE_P(Ratios, QuotaRatioTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{4, 1}, std::pair{8, 1},
                                           std::pair{3, 2}));

// ---------- Histogram --------------------------------------------------------

TEST(Histogram, MeanAndCount) {
  Histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean_micros(), 200.0);
  EXPECT_EQ(h.max_micros(), 300);
}

TEST(Histogram, QuantileBounds) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(10);
  h.record(100000);
  EXPECT_LE(h.quantile_micros(0.5), 16);
  EXPECT_GE(h.quantile_micros(0.999), 100000 / 2);
}

// A log2 bucket's upper bound can exceed every sample in it: 40 lands in
// the (32, 64] bucket, but no quantile may report more than the maximum.
TEST(Histogram, QuantilesNeverExceedTheMaximum) {
  Histogram h;
  h.record(3);
  h.record(40);
  h.record(40);
  EXPECT_EQ(h.max_micros(), 40);
  EXPECT_LE(h.quantile_micros(0.5), 40);
  EXPECT_LE(h.quantile_micros(0.99), 40);
  EXPECT_EQ(h.quantile_micros(1.0), 40);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.record(10);
  b.record(30);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_micros(), 20.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_micros(), 0.0);
  EXPECT_EQ(h.quantile_micros(0.99), 0);
}

TEST(Histogram, ConcurrentRecording) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; ++i) h.record(i % 1000);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 40000u);
}

// ---------- Jain fairness ----------------------------------------------------

TEST(Jain, EqualAllocationIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<int>{5, 5, 5, 5}), 1.0);
}

TEST(Jain, KOfNServedGivesKOverN) {
  // 2 of 4 clients equally served, 2 starved → 0.5 (paper's k/N property).
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<int>{7, 7, 0, 0}), 0.5);
}

TEST(Jain, AllZeroIsFair) {
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<int>{0, 0}), 1.0);
}

TEST(Jain, SkewReducesIndex) {
  const double skewed = jain_fairness(std::vector<int>{100, 1, 1, 1});
  EXPECT_LT(skewed, 0.4);
  EXPECT_GT(skewed, 0.25);  // floor is 1/N = 0.25
}

// ---------- Zipf -------------------------------------------------------------

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfDistribution z(100, 1.0);
  double total = 0;
  for (size_t i = 0; i < 100; ++i) total += z.probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankZeroMostPopular) {
  ZipfDistribution z(50, 1.0);
  EXPECT_GT(z.probability(0), z.probability(1));
  EXPECT_GT(z.probability(1), z.probability(10));
}

TEST(Zipf, SampleDeterministicByU) {
  ZipfDistribution z(10, 1.0);
  EXPECT_EQ(z.sample(0.0), 0u);
  EXPECT_EQ(z.sample(0.999999), 9u);
}

TEST(Zipf, EmpiricalFrequencyMatchesTheory) {
  ZipfDistribution z(20, 1.0);
  std::mt19937 rng(1);
  std::vector<int> counts(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[z(rng)]++;
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.probability(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[5]) / n, z.probability(5), 0.01);
}

// ---------- string_util ------------------------------------------------------

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtil, SplitKeepsEmpties) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtil, SplitTrimmedDropsEmpties) {
  auto parts = split_trimmed(" a , , b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringUtil, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
}

TEST(StringUtil, ParseNonNegative) {
  EXPECT_EQ(parse_non_negative("0"), 0);
  EXPECT_EQ(parse_non_negative("12345"), 12345);
  EXPECT_EQ(parse_non_negative("-1"), -1);
  EXPECT_EQ(parse_non_negative("12x"), -1);
  EXPECT_EQ(parse_non_negative(""), -1);
}

TEST(StringUtil, ReplaceAll) {
  EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

// ---------- ConfigFile -------------------------------------------------------

TEST(ConfigFile, ParsesKeyValues) {
  auto cfg = ConfigFile::parse("# comment\nname = value\nnum=42\n");
  ASSERT_TRUE(cfg.is_ok());
  const std::map<std::string, std::string> expected = {{"name", "value"},
                                                        {"num", "42"}};
  EXPECT_EQ(cfg.value().entries(), expected);
}

TEST(ConfigFile, RejectsMalformedLine) {
  EXPECT_FALSE(ConfigFile::parse("this is not a kv pair\n").is_ok());
}

TEST(ConfigFile, LaterAssignmentWins) {
  auto cfg = ConfigFile::parse("k=1\nk=2\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg.value().entries().at("k"), "2");
}

TEST(ConfigFile, MissingKeyIsNullopt) {
  auto cfg = ConfigFile::parse("k=1\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg.value().entries().count("absent"), 0u);
  EXPECT_EQ(cfg.value().entries().count("k2"), 0u);
}

// ---------- SourceStats ------------------------------------------------------

TEST(SourceStats, CountsClassesMethodsNcss) {
  const char* source = R"cpp(
// a comment that mentions class Fake
/* block comment; with a semicolon */
class Widget {
 public:
  void draw() { count_ = 1; render(); }
 private:
  int count_ = 0;
};
struct Point { int x; int y; };
)cpp";
  const auto stats = analyze_source(source);
  EXPECT_EQ(stats.classes, 2);
  EXPECT_GE(stats.methods, 1);
  EXPECT_GT(stats.ncss, 5);
}

TEST(SourceStats, IgnoresStringLiteralContents) {
  const auto stats = analyze_source(R"cpp(
const char* s = "class NotAClass { void fake() {;;;} }";
)cpp");
  EXPECT_EQ(stats.classes, 0);
  EXPECT_EQ(stats.methods, 0);
}

TEST(SourceStats, ForwardDeclarationNotCounted) {
  const auto stats = analyze_source("class Fwd;\nstruct G;\n");
  EXPECT_EQ(stats.classes, 0);
}

TEST(SourceStats, KeywordsNotMethods) {
  const auto stats = analyze_source(R"cpp(
void f() {
  if (x) { y(); }
  for (int i = 0; i < 3; ++i) { z(); }
  while (cond) { w(); }
}
)cpp");
  EXPECT_EQ(stats.methods, 1);  // only f itself
}

TEST(SourceStats, AccumulateOperator) {
  SourceStats a{1, 2, 3};
  SourceStats b{4, 5, 6};
  a += b;
  EXPECT_EQ(a.classes, 5);
  EXPECT_EQ(a.methods, 7);
  EXPECT_EQ(a.ncss, 9);
}

}  // namespace
}  // namespace cops
