// A vector of trivially copyable elements with inline storage.
//
// The symbolic and polyhedral core keeps its per-variable arrays (the
// factors of a monomial, the terms of an affine expression) in one, and a
// machine instruction keeps its operands in one. Nearly all of them hold a
// few elements, so building or copying one is a memcpy with no
// allocation; past the inline capacity the elements move to the heap, so
// a larger array still works (there is no fixed cap).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>

namespace mira {

template <class T, std::uint32_t N> class InlineVector {
  // Default member initializers are fine (the inline slots are never
  // default-constructed); copying and dropping elements must be memcpy and
  // nothing.
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "elements are moved with memcpy");
  static_assert(N > 0, "inline capacity must be positive");

public:
  InlineVector() {}
  InlineVector(std::initializer_list<T> values) {
    append(values.begin(), static_cast<std::uint32_t>(values.size()));
  }
  InlineVector(const InlineVector &other) { append(other.data(), other.size_); }
  InlineVector(InlineVector &&other) noexcept { steal(other); }
  InlineVector &operator=(const InlineVector &other) {
    if (this != &other) {
      size_ = 0;
      append(other.data(), other.size_);
    }
    return *this;
  }
  InlineVector &operator=(InlineVector &&other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~InlineVector() { release(); }

  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T *data() { return onHeap() ? heap_ : inline_; }
  const T *data() const { return onHeap() ? heap_ : inline_; }
  T *begin() { return data(); }
  T *end() { return data() + size_; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + size_; }
  T &operator[](std::uint32_t i) { return data()[i]; }
  const T &operator[](std::uint32_t i) const { return data()[i]; }

  void clear() { size_ = 0; }
  void push_back(const T &value) {
    if (size_ == capacity_)
      grow(size_ + 1);
    data()[size_++] = value;
  }
  /// Removes the element at index `at` (at < size()).
  void erase(std::uint32_t at) {
    T *d = data();
    std::memmove(d + at, d + at + 1, (size_ - at - 1) * sizeof(T));
    --size_;
  }

  friend bool operator==(const InlineVector &a, const InlineVector &b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  /// Lexicographic, by the elements' own operator<.
  friend bool operator<(const InlineVector &a, const InlineVector &b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

private:
  bool onHeap() const { return capacity_ > N; }

  void append(const T *src, std::uint32_t count) {
    if (size_ + count > capacity_)
      grow(size_ + count);
    std::memcpy(data() + size_, src, count * sizeof(T));
    size_ += count;
  }

  void grow(std::uint32_t atLeast) {
    const std::uint32_t capacity = std::max(atLeast, capacity_ * 2);
    T *fresh = new T[capacity];
    std::memcpy(fresh, data(), size_ * sizeof(T));
    release();
    heap_ = fresh;
    capacity_ = capacity;
  }

  void release() {
    if (onHeap())
      delete[] heap_;
    capacity_ = N;
  }

  // Leaves `other` empty and inline; `this` holds no heap block on entry.
  void steal(InlineVector &other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.onHeap())
      heap_ = other.heap_;
    else
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    other.size_ = 0;
    other.capacity_ = N;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N; // > N exactly when the elements are on heap_
  union {
    T inline_[N];
    T *heap_;
  };
};

} // namespace mira
