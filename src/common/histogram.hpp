// Fixed-bucket latency histogram (log2 buckets over microseconds).
//
// Used by the load generator and the profiler to report response-time
// distributions (Fig. 6 reports mean response times; percentiles are kept
// for diagnostics).  Thread-safe recording via per-bucket atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace cops {

class Histogram {
 public:
  Histogram();
  // Atomics are neither copyable nor movable; snapshot-copy instead.
  Histogram(const Histogram& other) : Histogram() { merge(other); }
  Histogram& operator=(const Histogram& other) {
    if (this != &other) {
      reset();
      merge(other);
    }
    return *this;
  }
  Histogram(Histogram&& other) noexcept : Histogram() { merge(other); }
  Histogram& operator=(Histogram&& other) noexcept {
    if (this != &other) {
      reset();
      merge(other);
    }
    return *this;
  }

  void record(int64_t micros);
  void merge(const Histogram& other);

  [[nodiscard]] uint64_t count() const { return count_.load(); }
  [[nodiscard]] int64_t sum_micros() const { return sum_.load(); }
  // Per-bucket sample count and the bucket's inclusive upper bound — the
  // raw material for Prometheus-style cumulative bucket export.
  [[nodiscard]] uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<size_t>(bucket)].load();
  }
  [[nodiscard]] static int64_t bucket_upper_micros(int bucket);
  [[nodiscard]] double mean_micros() const;
  // q in [0,1]; returns the upper bound of the bucket containing the
  // q-quantile sample, clamped to max_micros() (0 when empty).
  [[nodiscard]] int64_t quantile_micros(double q) const;
  [[nodiscard]] int64_t max_micros() const { return max_.load(); }

  void reset();

  static constexpr int kNumBuckets = 40;  // covers [1us, ~2^39us ≈ 6 days]

 private:
  static int bucket_for(int64_t micros);
  static int64_t bucket_upper(int bucket);

  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

}  // namespace cops
