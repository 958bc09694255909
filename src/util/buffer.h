#ifndef FCBENCH_UTIL_BUFFER_H_
#define FCBENCH_UTIL_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/mem_tracker.h"

namespace fcbench {

/// Read-only view over raw bytes.
using ByteSpan = std::span<const uint8_t>;
/// Mutable view over raw bytes.
using MutableByteSpan = std::span<uint8_t>;

/// Growable byte buffer whose allocations are reported to the global
/// MemTracker, so benchmark code can report peak memory footprints
/// (paper Figure 10) without OS-level instrumentation.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(size_t n) { Resize(n); }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept { *this = std::move(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }
  ~Buffer() { Release(); }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  ByteSpan span() const { return ByteSpan(data_, size_); }
  MutableByteSpan mutable_span() { return MutableByteSpan(data_, size_); }

  /// Resizes to `n` bytes; contents up to min(old, new) size preserved.
  void Resize(size_t n) {
    if (n > capacity_) Reserve(GrowCapacity(n));
    size_ = n;
  }

  /// Ensures capacity of at least `n` bytes without changing size.
  void Reserve(size_t n) {
    if (n <= capacity_) return;
    uint8_t* p = static_cast<uint8_t*>(::operator new(n));
    size_t old_size = size_;
    if (old_size > 0) std::memcpy(p, data_, old_size);
    MemTracker::Global().OnAlloc(n);
    Release();
    data_ = p;
    size_ = old_size;
    capacity_ = n;
  }

  /// Appends raw bytes.
  void Append(const void* src, size_t n) {
    if (n == 0) return;  // memcpy with a null src/dst is UB even for n==0
    std::memcpy(ExtendUninit(n), src, n);
  }

  /// Grows by `n` bytes and returns a pointer to the (uninitialized) new
  /// region, which the caller must fill completely. This is the fast path
  /// for hot append loops (bit I/O word spills): one capacity check, no
  /// intermediate zeroing or per-byte calls.
  uint8_t* ExtendUninit(size_t n) {
    size_t old = size_;
    if (old + n > capacity_) Reserve(GrowCapacity(old + n));
    size_ = old + n;
    return data_ + old;
  }

  void Append(ByteSpan bytes) { Append(bytes.data(), bytes.size()); }

  /// Appends a single byte.
  void PushBack(uint8_t b) {
    if (size_ == capacity_) Reserve(GrowCapacity(size_ + 1));
    data_[size_++] = b;
  }

  void Clear() { size_ = 0; }

  /// Copies contents into a std::vector (convenience for tests).
  std::vector<uint8_t> ToVector() const {
    return std::vector<uint8_t>(data_, data_ + size_);
  }

  /// Builds a Buffer from arbitrary bytes.
  static Buffer FromBytes(const void* src, size_t n) {
    Buffer b;
    b.Append(src, n);  // Append skips the null-pointer memcpy when n == 0
    return b;
  }

  static Buffer FromSpan(ByteSpan s) { return FromBytes(s.data(), s.size()); }

 private:
  static size_t GrowCapacity(size_t need) {
    size_t cap = 64;
    while (cap < need) cap += cap / 2 + 64;
    return cap;
  }

  void Release() {
    if (data_ != nullptr) {
      MemTracker::Global().OnFree(capacity_);
      ::operator delete(data_);
      data_ = nullptr;
    }
    size_ = 0;
    capacity_ = 0;
  }

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// Reinterprets a typed array as a byte span.
template <typename T>
ByteSpan AsBytes(const T* data, size_t count) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(data), count * sizeof(T));
}

template <typename T>
ByteSpan AsBytes(const std::vector<T>& v) {
  return AsBytes(v.data(), v.size());
}

}  // namespace fcbench

#endif  // FCBENCH_UTIL_BUFFER_H_
