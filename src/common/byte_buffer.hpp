// Growable byte buffer with independent read/write cursors.
//
// This is the unit of data exchange between the Read Request / Send Reply
// steps and the application hook methods (Decode / Handle / Encode).  It is
// modelled on Java NIO's ByteBuffer, which the paper's generated servers use,
// but with the usual C++ idiom of a contiguous std::vector backing store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cops {

// Allocator whose no-argument construct() default-initialises, so
// resize() on a vector of bytes leaves the new bytes unwritten instead of
// zero-filling them.  Construction from a value has no member here, so
// std::allocator_traits constructs it as it would for std::allocator.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
};

// Backing store of a ByteBuffer and of the BufferPool blocks it adopts.
using ByteStorage = std::vector<uint8_t, DefaultInitAllocator<uint8_t>>;

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(size_t reserve) { data_.reserve(reserve); }
  explicit ByteBuffer(std::string_view initial)
      : data_(initial.begin(), initial.end()) {}

  // ---- write side -----------------------------------------------------
  void append(const void* bytes, size_t len);
  void append(std::string_view text) { append(text.data(), text.size()); }
  void append_byte(uint8_t b) { data_.push_back(b); }
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
