// Growable byte buffer with independent read/write cursors.
//
// This is the unit of data exchange between the Read Request / Send Reply
// steps and the application hook methods (Decode / Handle / Encode).  It is
// modelled on Java NIO's ByteBuffer, which the paper's generated servers use,
// over one contiguous backing store (ByteStorage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace cops {

// Backing store of a ByteBuffer and of the BufferPool blocks it adopts: a
// byte array with a size and a capacity, like std::vector<uint8_t>, except
// that resize() and clear() never touch the bytes.  A read window of 64 KiB
// therefore costs nothing per byte in any build; a vector constructs and
// destroys each byte, which an unoptimised build runs as a loop.
class ByteStorage {
 public:
  ByteStorage() = default;
  explicit ByteStorage(size_t size) { resize(size); }
  ByteStorage(ByteStorage&& other) noexcept
      : bytes_(std::move(other.bytes_)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  ByteStorage& operator=(ByteStorage&& other) noexcept {
    bytes_ = std::move(other.bytes_);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  [[nodiscard]] uint8_t* data() { return bytes_.get(); }
  [[nodiscard]] const uint8_t* data() const { return bytes_.get(); }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Grows the capacity to at least `n`, keeping the first size() bytes.
  void reserve(size_t n);
  // New bytes are uninitialised.  Growth at least doubles the capacity.
  void resize(size_t n) {
    if (n > capacity_) reserve(n > 2 * capacity_ ? n : 2 * capacity_);
    size_ = n;
  }
  void clear() { size_ = 0; }

 private:
  std::unique_ptr<uint8_t[]> bytes_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(size_t reserve) { data_.reserve(reserve); }
  explicit ByteBuffer(std::string_view initial) { append(initial); }

  // ---- write side -----------------------------------------------------
  void append(const void* bytes, size_t len);
  void append(std::string_view text) { append(text.data(), text.size()); }
  void append_byte(uint8_t b) { append(&b, 1); }
  // Reserves `len` writable bytes at the end and returns a pointer to them;
  // the caller must follow with commit(n), n <= len, giving the number of
  // bytes actually written (e.g. by ::read()).  The bytes are not
  // initialised, so preparing a large window costs nothing per byte.
  uint8_t* prepare(size_t len);
  void commit(size_t len);

  // ---- read side ------------------------------------------------------
  [[nodiscard]] size_t readable() const { return data_.size() - read_pos_; }
  [[nodiscard]] const uint8_t* read_ptr() const { return data_.data() + read_pos_; }
  [[nodiscard]] std::string_view view() const {
    return {reinterpret_cast<const char*>(read_ptr()), readable()};
  }
  // Advances the read cursor; compacts the buffer when fully consumed.
  void consume(size_t len);
  // Copies up to `len` readable bytes into `out`, consuming them.
  size_t read(void* out, size_t len);
  // Finds `needle` in the readable region; npos when absent.
  [[nodiscard]] size_t find(std::string_view needle) const;

  [[nodiscard]] bool empty() const { return readable() == 0; }
  [[nodiscard]] size_t capacity() const { return data_.capacity(); }
  // Bytes prepare() can hand out without growing the backing store.
  [[nodiscard]] size_t tail_room() const {
    return data_.capacity() - data_.size();
  }
  void clear();

  // ---- storage recycling (pooled read buffers) -------------------------
  // Replaces the backing store with a (typically pre-reserved, pooled)
  // vector; any buffered bytes are discarded.
  void adopt_storage(ByteStorage&& storage);
  // Surrenders the backing store (for return to a BufferPool), leaving the
  // buffer empty with no capacity.
  [[nodiscard]] ByteStorage release_storage();

  // Extracts everything readable as a string (consuming it).
  std::string take_string();

 private:
  void maybe_compact();

  ByteStorage data_;
  size_t read_pos_ = 0;
  size_t prepared_ = 0;  // bytes grown by prepare() awaiting commit()
};

}  // namespace cops
