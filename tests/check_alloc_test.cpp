// A check that passes must not allocate.  require/ensure with a literal
// message, the checked_* arithmetic, floor_div/ceil_div and the
// bounds-checked IntVec::at / IntBox::range run tens of millions of times
// per cold request, so their success path has to stay one compare -- no
// std::string built for a message that is never thrown.  Likewise the
// small integer vectors and matrices of every nest lmre sees live inline,
// and the payload writer appends into its response string, so neither
// touches the heap.
//
// This binary replaces the global operator new with a counting one that
// only counts while a test holds an AllocCounter.  It is not run under
// ASan, which installs its own operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "linalg/mat.h"
#include "linalg/vec.h"
#include "polyhedra/box.h"
#include "support/checked.h"
#include "support/error.h"
#include "support/json_writer.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line so the compiler never pairs an inlined free() with a
// visible operator new and warns about a mismatched deallocation.
[[gnu::noinline]] void release(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace lmre {
namespace {

/// Counts global operator new calls from construction to count().
class AllocCounter {
 public:
  AllocCounter() {
    g_allocations.store(0);
    g_armed.store(true);
  }
  ~AllocCounter() { g_armed.store(false); }
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;

  long count() const { return g_allocations.load(); }
};

constexpr Int kIterations = 100000;

// Stores that the optimizer must keep, so the checked loops stay live.
const void* volatile g_sink_ptr = nullptr;
volatile Int g_sink = 0;

TEST(CheckAlloc, CounterSeesAnAllocation) {
  // The harness itself: a heap string inside the armed region is counted.
  long seen = 0;
  {
    AllocCounter counter;
    std::string s(64, 'x');
    g_sink_ptr = s.data();  // keep the allocation observable
    seen = counter.count();
  }
  EXPECT_GE(seen, 1);
}

TEST(CheckAlloc, PassingRequireAndEnsureDoNotAllocate) {
  // Messages longer than the 15-char small-string buffer: building one as
  // a std::string would heap-allocate.
  volatile Int limit = kIterations;
  long seen = 0;
  {
    AllocCounter counter;
    for (Int i = 0; i < limit; ++i) {
      require(i < limit, "require message longer than fifteen characters");
      ensure(i >= 0, "transformed scan left the iteration space");
    }
    seen = counter.count();
  }
  EXPECT_EQ(seen, 0);
}

TEST(CheckAlloc, CheckedArithmeticAndAccessorsDoNotAllocate) {
  const IntVec v{3, -5, 7};
  const IntBox box({Range{-4, 4}, Range{1, 16}});
  volatile Int seed = 3;
  long seen = 0;
  {
    AllocCounter counter;
    for (Int i = 0; i < kIterations; ++i) {
      const Int x = checked_mul(seed, v.at(static_cast<size_t>(i % 3)));
      const Range& r = box.range(static_cast<size_t>(i % 2));
      Int t = checked_add(x, r.trip_count());
      t = checked_sub(t, checked_abs(checked_neg(r.lo)));
      t = checked_add(t, floor_div(t, 4));
      t = checked_sub(t, ceil_div(t, -3));
      g_sink = t;
    }
    seen = counter.count();
  }
  EXPECT_EQ(seen, 0);
}

TEST(CheckAlloc, InlineVectorAndMatrixArithmeticDoesNotAllocate) {
  // Every size up to the inline capacities: 8-entry vectors, 4 x 4
  // matrices.
  const IntVec v{3, -5, 7, 1, 0, 2, -1, 4};
  const IntMat t{{1, 2, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 3}, {0, 0, 0, 1}};
  volatile Int seed = 2;
  long seen = 0;
  {
    AllocCounter counter;
    for (Int i = 0; i < kIterations / 10; ++i) {
      IntVec a = v * seed;
      IntVec b = a - v;
      IntVec c = -(a + b);
      const IntVec copy = c;
      c = b;  // equal lengths: copied in place
      IntVec d(4);
      d[static_cast<size_t>(i % 4)] = c.dot(copy);
      IntVec u = t * d;
      IntMat m = t * t;
      m = m + t;
      IntMat moved = std::move(m);
      const bool less = copy < c;
      g_sink = u[0] + moved(3, 3) + (less ? 1 : 0) + IntMat::identity(3)(2, 2) +
               moved.transposed()(0, 1) + t.inverse_unimodular()(0, 1);
    }
    seen = counter.count();
  }
  EXPECT_EQ(seen, 0);
}

TEST(CheckAlloc, WriterIntoAReservedStringDoesNotAllocate) {
  const std::string text(200, 'x');  // longer than the small-string buffer
  const std::vector<Int> ints{1, -2, INT64_MIN};
  std::string out;
  out.reserve(1 << 16);
  long seen = 0;
  {
    AllocCounter counter;
    for (int i = 0; i < 100; ++i) {
      out.clear();
      JsonWriter w(out);
      w.begin_object()
          .field("a", Int{i})
          .field("b", true)
          .field("c", 0.25 * i)
          .field("d", "quote \" and \\ and \n")
          .field("e", text)
          .key("f")
          .int_array(ints)
          .key("g")
          .matrix(IntMat{{1, 2}, {3, 4}})
          .key("h")
          .raw("{}")
          .end_object();
    }
    g_sink_ptr = out.data();
    seen = counter.count();
  }
  EXPECT_EQ(seen, 0);
}

}  // namespace
}  // namespace lmre
