// Segment-based send queue — the Send Reply step's output representation.
//
// The single-string reply path copied every response body twice: once in
// the Encode step (serialize() appends the cached file bytes) and once more
// into the connection's out ByteBuffer.  A SendQueue instead holds a short
// run of *segments* — small owned byte blocks (status line + headers) and
// refcounted slices of shared storage (a cache entry's bytes, pinned by a
// keepalive shared_ptr) — and the Send Reply step drains them with one
// scatter-gather writev() per round.  A segment may also name an open file
// descriptor, which the connection drains with sendfile() (large uncached
// files never transit user space at all).
//
// This header is protocol- and framework-agnostic: the keepalive is a
// type-erased shared_ptr<const void>, so common/ does not depend on the
// nserver cache types that typically own the pinned bytes.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace cops {

struct SendSegment {
  // Exactly one of three shapes:
  //   owned bytes   — `owned` holds them (keepalive empty, file_fd < 0);
  //   shared bytes  — `ext_data`/`len` point into storage pinned by
  //                   `keepalive` for the segment's lifetime;
  //   file slice    — `file_fd` + `file_start`/`len`, drained via
  //                   sendfile(); `keepalive` pins whatever owns the fd.
  std::string owned;
  std::shared_ptr<const void> keepalive;
  const char* ext_data = nullptr;
  size_t offset = 0;  // bytes of this segment already sent
  size_t len = 0;     // total segment length
  int file_fd = -1;
  uint64_t file_start = 0;

  [[nodiscard]] bool is_file() const { return file_fd >= 0; }
  // Remaining in-memory bytes (memory segments only).  Indexing through
  // `owned` by offset — never caching a pointer into it — keeps the segment
  // safely movable despite std::string's SSO.
  [[nodiscard]] const char* data() const {
    return (ext_data != nullptr ? ext_data : owned.data()) + offset;
  }
  [[nodiscard]] size_t remaining() const { return len - offset; }
};

// One encoded reply: the Encode step's product, moved intact into the
// connection's SendQueue.  `copied_bytes` counts bytes that were
// materialised into owned storage on the way here (headers always; bodies
// only when inline or flattened) — the profiler's bytes-copied-per-reply
// metric.
struct EncodedReply {
  std::vector<SendSegment> segments;
  size_t copied_bytes = 0;

  void add_owned(std::string bytes);
  void add_shared(std::shared_ptr<const void> keepalive, const char* data,
                  size_t len);
  void add_file(std::shared_ptr<const void> keepalive, int fd, uint64_t offset,
                size_t len);

  [[nodiscard]] bool empty() const { return segments.empty(); }

  static EncodedReply from_string(std::string bytes);
};

// Flow-control hysteresis over a SendQueue's depth (or any byte count).
// A relay pumping bytes between two sockets stops reading the producing
// side once the consuming side's queue crosses `high`, and resumes only
// after it drains below `low` — the gap prevents interest-toggle flapping
// at the boundary.  update() returns true when the paused state changed
// (the caller re-arms read interest / counts a backpressure event).
class Watermark {
 public:
  Watermark(size_t low, size_t high) : low_(low), high_(high) {}

  bool update(size_t queued) {
    const bool was_paused = paused_;
    if (paused_) {
      if (queued <= low_) paused_ = false;
    } else if (queued >= high_) {
      paused_ = true;
    }
    return paused_ != was_paused;
  }

  [[nodiscard]] bool paused() const { return paused_; }

 private:
  size_t low_;
  size_t high_;
  bool paused_ = false;
};

class SendQueue {
 public:
  // Empty segments are dropped at the door so empty()/readable() stay the
  // drain conditions.
  void push(SendSegment segment);
  void push(EncodedReply&& reply);
  void push_owned(std::string bytes);

  [[nodiscard]] bool empty() const { return segments_.empty(); }
  [[nodiscard]] size_t readable() const { return total_; }

  // Gathers the leading run of in-memory segments into `iov` (up to
  // `max_iov` entries); returns the count.  0 means the front segment is a
  // file slice — drain it with the sendfile accessors instead.
  int fill_iovec(struct iovec* iov, int max_iov) const;
  // Consumes `n` bytes across the leading memory segments (a writev result).
  void consume(size_t n);

  [[nodiscard]] bool front_is_file() const {
    return !segments_.empty() && segments_.front().is_file();
  }
  [[nodiscard]] int front_file_fd() const { return segments_.front().file_fd; }
  [[nodiscard]] uint64_t front_file_offset() const {
    const auto& front = segments_.front();
    return front.file_start + front.offset;
  }
  [[nodiscard]] size_t front_file_remaining() const {
    return segments_.front().remaining();
  }
  // Consumes `n` bytes of the front file segment (a sendfile result).
  void consume_file(size_t n);

  void clear();

 private:
  std::deque<SendSegment> segments_;
  size_t total_ = 0;
};

}  // namespace cops
