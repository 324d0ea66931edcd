// A vector with inline storage.
//
// The symbolic and polyhedral core keeps its small arrays (the factors of
// a monomial, the terms of an affine expression or a polynomial, a loop
// level's bounds) in one, a machine instruction keeps its operands in one,
// and a model's count step its opcode histogram. Nearly all of them hold a
// few elements, so building or copying one makes no allocation; past the
// inline capacity the elements move to the heap, so a larger array still
// works (there is no fixed cap). Trivially copyable elements are copied
// with memcpy; others are constructed, moved and destroyed one by one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mira {

template <class T, std::uint32_t N> class InlineVector {
  static_assert(N > 0, "inline capacity must be positive");
  static constexpr bool kTrivial = std::is_trivially_copyable_v<T> &&
                                   std::is_trivially_destructible_v<T>;

public:
  InlineVector() {}
  InlineVector(std::initializer_list<T> values) {
    append(values.begin(), static_cast<std::uint32_t>(values.size()));
  }
  InlineVector(const InlineVector &other) { append(other.data(), other.size_); }
  InlineVector(InlineVector &&other) noexcept { steal(other); }
  InlineVector &operator=(const InlineVector &other) {
    if (this != &other) {
      clear();
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
  T *data() { return onHeap() ? heap_ : inlineData(); }
  const T *data() const {
    return onHeap() ? heap_ : const_cast<InlineVector *>(this)->inlineData();
  }
  T *begin() { return data(); }
  T *end() { return data() + size_; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + size_; }
  T &operator[](std::uint32_t i) { return data()[i]; }
  const T &operator[](std::uint32_t i) const { return data()[i]; }
  T &front() { return data()[0]; }
  const T &front() const { return data()[0]; }
  T &back() { return data()[size_ - 1]; }
  const T &back() const { return data()[size_ - 1]; }

  void clear() {
    std::destroy_n(data(), size_);
    size_ = 0;
  }
  void reserve(std::uint32_t capacity) {
    if (capacity > capacity_)
      grow(capacity);
  }
  void push_back(const T &value) { emplace_back(value); }
  void push_back(T &&value) { emplace_back(std::move(value)); }
  template <class... Args> T &emplace_back(Args &&...args) {
    if (size_ == capacity_) {
      // Built before growing: an argument may refer to an element.
      T value(std::forward<Args>(args)...);
      grow(size_ + 1);
      return *::new (data() + size_++) T(std::move(value));
    }
    return *::new (data() + size_++) T(std::forward<Args>(args)...);
  }
  /// Inserts before `pos` (within this vector or its end); returns the
  /// new element.
  template <class... Args> T *emplace(T *pos, Args &&...args) {
    const auto at = static_cast<std::uint32_t>(pos - begin());
    T value(std::forward<Args>(args)...);
    if (at == size_)
      return &emplace_back(std::move(value));
    emplace_back(std::move(back()));
    T *d = data();
    std::move_backward(d + at, d + size_ - 2, d + size_ - 1);
    d[at] = std::move(value);
    return d + at;
  }
  void pop_back() { std::destroy_at(data() + --size_); }
  /// Removes the element at `pos` (within this vector).
  void erase(T *pos) { erase(pos, pos + 1); }
  /// Removes [first, last), both within this vector.
  void erase(T *first, T *last) {
    if (first == last)
      return;
    T *const stop = end();
    if constexpr (kTrivial)
      std::memmove(first, last, (stop - last) * sizeof(T));
    else
      std::move(last, stop, first);
    const auto removed = static_cast<std::uint32_t>(last - first);
    std::destroy(stop - removed, stop);
    size_ -= removed;
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
  T *inlineData() { return std::launder(reinterpret_cast<T *>(inline_)); }

  /// Copies src[0, count) to the end; `src` is not inside this vector.
  void append(const T *src, std::uint32_t count) {
    if (size_ + count > capacity_)
      grow(size_ + count);
    if constexpr (kTrivial)
      std::memcpy(static_cast<void *>(data() + size_), src,
                  count * sizeof(T));
    else
      std::uninitialized_copy_n(src, count, data() + size_);
    size_ += count;
  }

  /// Moves the elements to a heap block of at least `atLeast` slots.
  void grow(std::uint32_t atLeast) {
    const std::uint32_t capacity = std::max(atLeast, capacity_ * 2);
    T *fresh = std::allocator<T>().allocate(capacity);
    T *old = data();
    if constexpr (kTrivial) {
      std::memcpy(static_cast<void *>(fresh), old, size_ * sizeof(T));
    } else {
      std::uninitialized_move_n(old, size_, fresh);
      std::destroy_n(old, size_);
    }
    freeHeap();
    heap_ = fresh;
    capacity_ = capacity;
  }

  /// Destroys the elements and frees any heap block; leaves the vector
  /// empty and inline.
  void release() {
    std::destroy_n(data(), size_);
    size_ = 0;
    freeHeap();
  }

  void freeHeap() {
    if (onHeap())
      std::allocator<T>().deallocate(heap_, capacity_);
    capacity_ = N;
  }

  // Leaves `other` empty and inline; `this` holds no element and no heap
  // block on entry.
  void steal(InlineVector &other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.onHeap()) {
      heap_ = other.heap_;
    } else if constexpr (kTrivial) {
      std::memcpy(static_cast<void *>(inline_), other.inline_,
                  size_ * sizeof(T));
    } else {
      std::uninitialized_move_n(other.inlineData(), size_, inlineData());
      std::destroy_n(other.inlineData(), size_);
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N; // > N exactly when the elements are on heap_
  union {
    alignas(T) unsigned char inline_[N * sizeof(T)];
    T *heap_;
  };
};

} // namespace mira
