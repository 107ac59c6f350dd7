// DebugTracer — debug-mode internal event trace (option O10).
//
// "If the server is generated in debug mode, then all internal events that
// are triggered in the server are written into a file.  The user can trace
// this file to get a snapshot of what happened during the time an error
// condition occurred" (paper, Section IV).
//
// Events are buffered in a bounded ring (so tracing a long run cannot
// exhaust memory) and flushed to the trace file on dump() or destruction.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "common/clock.hpp"
#include "nserver/event.hpp"

namespace cops::nserver {

class DebugTracer {
 public:
  explicit DebugTracer(std::string path, size_t ring_capacity = 65536)
      : path_(std::move(path)), capacity_(ring_capacity) {}
  ~DebugTracer();

  void record(EventKind kind, uint64_t connection_id, std::string detail);

  // Writes the ring contents (oldest first) to the trace file; clears it.
  void dump();

  [[nodiscard]] uint64_t total_recorded() const { return total_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct TraceRecord {
    TimePoint at;
    EventKind kind;
    uint64_t connection_id;
    std::string detail;
  };

  std::string path_;
  size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<TraceRecord> ring_;
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace cops::nserver
