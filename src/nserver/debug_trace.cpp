#include "nserver/debug_trace.hpp"

#include <cstdio>

namespace cops::nserver {

DebugTracer::~DebugTracer() { dump(); }

void DebugTracer::record(EventKind kind, uint64_t connection_id,
                         std::string detail) {
  std::lock_guard lock(mutex_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back({now(), kind, connection_id, std::move(detail)});
  ++total_;
}

void DebugTracer::dump() {
  std::deque<TraceRecord> records;
  uint64_t dropped = 0;
  {
    std::lock_guard lock(mutex_);
    records.swap(ring_);
    dropped = dropped_;
    dropped_ = 0;
  }
  if (records.empty() && dropped == 0) return;
  FILE* out = std::fopen(path_.c_str(), "a");
  if (out == nullptr) return;
  if (dropped > 0) {
    std::fprintf(out, "# %llu earlier events dropped (ring full)\n",
                 static_cast<unsigned long long>(dropped));
  }
  const TimePoint epoch = records.empty() ? now() : records.front().at;
  for (const auto& r : records) {
    std::fprintf(out, "%+10lldus conn=%llu %-10s %s\n",
                 static_cast<long long>(to_micros(r.at - epoch)),
                 static_cast<unsigned long long>(r.connection_id),
                 to_string(r.kind), r.detail.c_str());
  }
  std::fclose(out);
}

}  // namespace cops::nserver
