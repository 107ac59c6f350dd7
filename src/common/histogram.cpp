#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace cops {

Histogram::Histogram() : buckets_(kNumBuckets) {}

int Histogram::bucket_for(int64_t micros) {
  if (micros <= 1) return 0;
  int b = 64 - __builtin_clzll(static_cast<uint64_t>(micros) - 1);
  return std::min(b, kNumBuckets - 1);
}

int64_t Histogram::bucket_upper(int bucket) { return int64_t{1} << bucket; }

int64_t Histogram::bucket_upper_micros(int bucket) {
  return bucket_upper(bucket);
}

void Histogram::record(int64_t micros) {
  if (micros < 0) micros = 0;
  buckets_[static_cast<size_t>(bucket_for(micros))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (micros > prev &&
         !max_.compare_exchange_weak(prev, micros, std::memory_order_relaxed)) {
  }
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<size_t>(i)].fetch_add(
        other.buckets_[static_cast<size_t>(i)].load());
  }
  count_.fetch_add(other.count_.load());
  sum_.fetch_add(other.sum_.load());
  int64_t om = other.max_.load();
  int64_t prev = max_.load();
  while (om > prev && !max_.compare_exchange_weak(prev, om)) {
  }
}

double Histogram::mean_micros() const {
  const uint64_t n = count_.load();
  return n == 0 ? 0.0 : static_cast<double>(sum_.load()) / static_cast<double>(n);
}

int64_t Histogram::quantile_micros(double q) const {
  const uint64_t n = count_.load();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  // A bucket's upper bound can lie above every recorded sample; no quantile
  // exceeds the maximum.
  const int64_t max = max_.load();
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[static_cast<size_t>(i)].load();
    if (cumulative >= target) return std::min(bucket_upper(i), max);
  }
  return max;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0);
  count_.store(0);
  sum_.store(0);
  max_.store(0);
}

}  // namespace cops
