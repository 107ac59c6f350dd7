#include "common/byte_buffer.hpp"

#include <cassert>
#include <cstring>

namespace cops {

void ByteStorage::reserve(size_t n) {
  if (n <= capacity_) return;
  // make_unique_for_overwrite: the new bytes are left uninitialised.
  auto bytes = std::make_unique_for_overwrite<uint8_t[]>(n);
  if (size_ > 0) std::memcpy(bytes.get(), bytes_.get(), size_);
  bytes_ = std::move(bytes);
  capacity_ = n;
}

void ByteBuffer::append(const void* bytes, size_t len) {
  assert(prepared_ == 0 && "append during an open prepare/commit window");
  if (len == 0) return;
  const size_t at = data_.size();
  data_.resize(at + len);
  std::memcpy(data_.data() + at, bytes, len);
}

uint8_t* ByteBuffer::prepare(size_t len) {
  assert(prepared_ == 0 && "nested prepare() without commit()");
  prepared_ = len;
  data_.resize(data_.size() + len);
  return data_.data() + data_.size() - len;
}

void ByteBuffer::commit(size_t len) {
  assert(len <= prepared_ && "commit larger than prepared span");
  data_.resize(data_.size() - (prepared_ - len));
  prepared_ = 0;
}

void ByteBuffer::consume(size_t len) {
  read_pos_ += len;
  if (read_pos_ > data_.size()) read_pos_ = data_.size();
  maybe_compact();
}

size_t ByteBuffer::read(void* out, size_t len) {
  const size_t n = len < readable() ? len : readable();
  std::memcpy(out, read_ptr(), n);
  consume(n);
  return n;
}

size_t ByteBuffer::find(std::string_view needle) const {
  return view().find(needle);
}

void ByteBuffer::clear() {
  data_.clear();
  read_pos_ = 0;
  prepared_ = 0;
}

void ByteBuffer::adopt_storage(ByteStorage&& storage) {
  data_ = std::move(storage);
  data_.clear();
  read_pos_ = 0;
  prepared_ = 0;
}

ByteStorage ByteBuffer::release_storage() {
  ByteStorage storage = std::move(data_);
  data_ = ByteStorage();
  read_pos_ = 0;
  prepared_ = 0;
  return storage;
}

std::string ByteBuffer::take_string() {
  std::string out(view());
  clear();
  return out;
}

void ByteBuffer::maybe_compact() {
  if (read_pos_ == data_.size()) {
    data_.clear();
    read_pos_ = 0;
  } else if (read_pos_ > 4096 && read_pos_ > data_.size() / 2) {
    const size_t left = data_.size() - read_pos_;
    std::memmove(data_.data(), data_.data() + read_pos_, left);
    data_.resize(left);
    read_pos_ = 0;
  }
}

}  // namespace cops
