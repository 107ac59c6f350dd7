#include "common/send_queue.hpp"

#include <algorithm>
#include <cassert>

namespace cops {

void EncodedReply::add_owned(std::string bytes) {
  if (bytes.empty()) return;
  SendSegment seg;
  seg.len = bytes.size();
  seg.owned = std::move(bytes);
  copied_bytes += seg.len;
  segments.push_back(std::move(seg));
}

void EncodedReply::add_shared(std::shared_ptr<const void> keepalive,
                              const char* data, size_t len) {
  if (len == 0) return;
  SendSegment seg;
  seg.keepalive = std::move(keepalive);
  seg.ext_data = data;
  seg.len = len;
  segments.push_back(std::move(seg));
}

void EncodedReply::add_file(std::shared_ptr<const void> keepalive, int fd,
                            uint64_t offset, size_t len) {
  if (len == 0) return;
  SendSegment seg;
  seg.keepalive = std::move(keepalive);
  seg.file_fd = fd;
  seg.file_start = offset;
  seg.len = len;
  segments.push_back(std::move(seg));
}

EncodedReply EncodedReply::from_string(std::string bytes) {
  EncodedReply reply;
  reply.add_owned(std::move(bytes));
  return reply;
}

void SendQueue::push(SendSegment segment) {
  if (segment.remaining() == 0) return;
  total_ += segment.remaining();
  segments_.push_back(std::move(segment));
}

void SendQueue::push(EncodedReply&& reply) {
  for (auto& seg : reply.segments) push(std::move(seg));
  reply.segments.clear();
}

void SendQueue::push_owned(std::string bytes) {
  SendSegment seg;
  seg.len = bytes.size();
  seg.owned = std::move(bytes);
  push(std::move(seg));
}

int SendQueue::fill_iovec(struct iovec* iov, int max_iov) const {
  int count = 0;
  for (const auto& seg : segments_) {
    if (seg.is_file() || count == max_iov) break;
    iov[count].iov_base = const_cast<char*>(seg.data());
    iov[count].iov_len = seg.remaining();
    ++count;
  }
  return count;
}

void SendQueue::consume(size_t n) {
  assert(n <= total_);
  total_ -= n;
  while (n > 0) {
    auto& front = segments_.front();
    assert(!front.is_file());
    const size_t take = std::min(n, front.remaining());
    front.offset += take;
    n -= take;
    if (front.remaining() == 0) segments_.pop_front();
  }
}

void SendQueue::consume_file(size_t n) {
  auto& front = segments_.front();
  assert(front.is_file() && n <= front.remaining() && n <= total_);
  front.offset += n;
  total_ -= n;
  if (front.remaining() == 0) segments_.pop_front();
}

void SendQueue::clear() {
  segments_.clear();
  total_ = 0;
}

}  // namespace cops
