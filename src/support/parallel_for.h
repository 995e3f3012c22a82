#pragma once

// The batch fan-out: an ordered parallel map over independent requests.
//
// Every request runs on one thread; the only parallelism in lmre is across
// requests (`lmre batch` here, and the `lmre serve` worker pool).  Results
// are positional, so output order never depends on scheduling -- see the
// "Determinism contract" section of DESIGN.md.
//
// threads semantics everywhere in lmre:
//   0  -> std::thread::hardware_concurrency()
//   1  -> serial: everything runs inline on the caller's thread
//   n  -> at most n threads

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "support/checked.h"

namespace lmre {

/// Resolves a user-facing thread count: 0 means hardware concurrency
/// (at least 1), anything else is clamped to >= 1.
int resolve_threads(int requested);

/// Ordered map: results[i] = fn(i) for i in [0, n).  Spawns at most
/// resolve_threads(threads) threads, each owning a contiguous slice of the
/// indices, and joins them before returning; with one thread the map runs
/// inline on the caller's thread.  `fn` must be safe to call concurrently
/// on distinct indices.  When calls throw, the exception of the lowest
/// failing index is rethrown -- where a serial loop would have stopped.
template <class T, class Fn>
std::vector<T> parallel_map(Int n, int threads, const Fn& fn) {
  std::vector<T> results(static_cast<size_t>(std::max<Int>(n, 0)));
  const Int workers = std::min<Int>(resolve_threads(threads), n);
  auto run_slice = [&](Int begin, Int end) {
    for (Int i = begin; i < end; ++i) results[static_cast<size_t>(i)] = fn(i);
  };
  if (workers <= 1) {
    run_slice(0, n);
    return results;
  }
  // Slice w owns [w*n/workers, (w+1)*n/workers) and stops at its first
  // failure, so the lowest failing slice holds the lowest failing index.
  std::vector<std::exception_ptr> errors(static_cast<size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  auto join_all = [&] {
    for (std::thread& t : pool) t.join();
  };
  try {
    for (Int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          run_slice(n * w / workers, n * (w + 1) / workers);
        } catch (...) {
          errors[static_cast<size_t>(w)] = std::current_exception();
        }
      });
    }
  } catch (...) {
    join_all();  // a thread failed to start: finish the started ones first
    throw;
  }
  join_all();
  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return results;
}

}  // namespace lmre
