#pragma once

// Exact integer vectors.
//
// IntVec is the workhorse for iteration vectors, dependence distance vectors,
// reuse vectors and offset vectors.  Arithmetic is overflow-checked.
// Vectors of up to IntVec::kInline entries -- every nest lmre sees in
// practice is at most a few loops deep -- live inline, with no heap
// allocation; longer ones spill to the heap.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/checked.h"
#include "support/error.h"

namespace lmre {

/// A fixed-length run of Ints: up to N inline, on the heap past that.  The
/// storage behind IntVec and IntMat.  The inline buffer and the heap
/// pointer share one union, so the object is the length plus N Ints.
template <size_t N>
class InlineInts {
 public:
  InlineInts() noexcept : n_(0) {}
  /// n zeros.
  explicit InlineInts(size_t n) : n_(n) { std::fill_n(acquire(), n, Int{0}); }
  InlineInts(const Int* src, size_t n) : n_(n) { std::copy_n(src, n, acquire()); }
  InlineInts(const InlineInts& o) : InlineInts(o.data(), o.n_) {}
  InlineInts(InlineInts&& o) noexcept : n_(o.n_) {
    if (o.on_heap()) {
      heap_ = o.heap_;
    } else {
      std::copy_n(o.buf_, n_, buf_);
    }
    o.n_ = 0;
  }
  ~InlineInts() { release(); }

  InlineInts& operator=(const InlineInts& o) {
    if (this == &o) return *this;
    if (n_ == o.n_) {
      std::copy_n(o.data(), n_, data());  // same length: no reallocation
      return *this;
    }
    return *this = InlineInts(o);
  }
  InlineInts& operator=(InlineInts&& o) noexcept {
    if (this == &o) return *this;
    release();
    n_ = o.n_;
    if (o.on_heap()) {
      heap_ = o.heap_;
    } else {
      std::copy_n(o.buf_, n_, buf_);
    }
    o.n_ = 0;
    return *this;
  }

  size_t size() const { return n_; }
  Int* data() { return on_heap() ? heap_ : buf_; }
  const Int* data() const { return on_heap() ? heap_ : buf_; }

  bool operator==(const InlineInts& o) const {
    return n_ == o.n_ && std::equal(data(), data() + n_, o.data());
  }

 private:
  bool on_heap() const { return n_ > N; }
  // Points the storage at n_ Ints (uninitialized).
  Int* acquire() {
    if (!on_heap()) return buf_;
    heap_ = new Int[n_];
    return heap_;
  }
  void release() {
    if (on_heap()) delete[] heap_;
  }

  size_t n_;
  union {
    Int buf_[N];
    Int* heap_;
  };
};

class IntVec {
 public:
  /// Entries kept inline; longer vectors allocate.
  static constexpr size_t kInline = 8;

  IntVec() = default;
  explicit IntVec(size_t n) : v_(n) {}
  IntVec(std::initializer_list<Int> init) : v_(init.begin(), init.size()) {}
  explicit IntVec(const std::vector<Int>& v) : v_(v.data(), v.size()) {}

  size_t size() const { return v_.size(); }
  bool empty() const { return v_.size() == 0; }

  Int& operator[](size_t i) { return v_.data()[i]; }
  Int operator[](size_t i) const { return v_.data()[i]; }

  /// Bounds-checked access (throws InvalidArgument out of range).
  Int at(size_t i) const {
    require(i < v_.size(), "IntVec index out of range");
    return v_.data()[i];
  }

  const Int* begin() const { return v_.data(); }
  const Int* end() const { return v_.data() + v_.size(); }

  /// An explicit copy of the entries.
  std::vector<Int> to_vector() const { return std::vector<Int>(begin(), end()); }

  IntVec operator+(const IntVec& o) const;
  IntVec operator-(const IntVec& o) const;
  IntVec operator-() const;
  IntVec operator*(Int s) const;

  bool operator==(const IntVec& o) const { return v_ == o.v_; }
  bool operator!=(const IntVec& o) const { return !(v_ == o.v_); }
  /// std::vector<Int>'s order (lexicographic, a proper prefix first), so a
  /// container keyed on IntVec iterates as one keyed on std::vector<Int>.
  bool operator<(const IntVec& o) const {
    return std::lexicographical_compare(begin(), end(), o.begin(), o.end());
  }

  /// Dot product (overflow-checked).
  Int dot(const IntVec& o) const;

  bool is_zero() const;

  /// Index (0-based) of the first nonzero entry, or size() if all zero.
  /// The paper's "level" of a dependence/reuse vector is this index + 1.
  size_t first_nonzero() const;

  /// 1-based level of the vector: index of first nonzero entry, or 0 if
  /// the vector is zero (a loop-independent dependence).
  int level() const;

  /// True when the first nonzero entry is positive (lexicographically
  /// positive); false for the zero vector.
  bool lex_positive() const;

  /// True when this vector is lexicographically smaller than `o`.
  bool lex_less(const IntVec& o) const;

  /// gcd of all entries (0 for the zero vector).
  Int content() const;

  /// Divides every entry by the content; zero vector unchanged.  The result
  /// is the primitive vector in the same direction.
  IntVec primitive() const;

  /// "(a, b, c)" rendering.
  std::string str() const;

 private:
  InlineInts<kInline> v_;
};

std::ostream& operator<<(std::ostream& os, const IntVec& v);

}  // namespace lmre

template <>
struct std::hash<lmre::IntVec> {
  size_t operator()(const lmre::IntVec& v) const noexcept {
    size_t h = v.size();
    for (lmre::Int x : v) {
      h ^= std::hash<lmre::Int>()(x) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};
