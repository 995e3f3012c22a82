#pragma once

// The sort-based tiled order: every transformed point collected by the
// polyhedral scanner, tiles anchored at the points' per-axis minimum, then
// a stable sort by (tile coordinates, point) in lexicographic order.
// tiled_order computed this before it moved onto scan_tiled_rows; the
// tiling and trace-engine suites pin the shared scanner to it.  Exact but
// O(P log P) with a heap vector per comparison, so only fit for small
// nests.

#include <algorithm>
#include <vector>

#include "polyhedra/scanner.h"
#include "support/checked.h"
#include "support/error.h"
#include "transform/transformed.h"

namespace lmre::test {

inline std::vector<IntVec> tiled_order_reference(const LoopNest& nest, const IntMat& t,
                                                 const std::vector<Int>& tile_sizes) {
  require(tile_sizes.size() == nest.depth(), "tiled_order: tile rank mismatch");
  for (Int s : tile_sizes) require(s >= 1, "tiled_order: tile sizes must be >= 1");

  TransformedNest tn(nest, t);
  std::vector<IntVec> points;
  scan(tn.space(), [&](const IntVec& u) { points.push_back(u); });
  if (points.empty()) return {};
  IntVec base = points.front();
  for (const auto& u : points) {
    for (size_t k = 0; k < u.size(); ++k) base[k] = std::min(base[k], u[k]);
  }

  // Tile coordinates of a transformed point: floor((u_k - base_k) / s_k).
  auto tile_of = [&](const IntVec& u) {
    IntVec tau(u.size());
    for (size_t k = 0; k < u.size(); ++k) {
      tau[k] = floor_div(checked_sub(u[k], base[k]), tile_sizes[k]);
    }
    return tau;
  };
  std::stable_sort(points.begin(), points.end(), [&](const IntVec& a, const IntVec& b) {
    IntVec ta = tile_of(a);
    IntVec tb = tile_of(b);
    if (ta != tb) return ta.lex_less(tb);
    return a.lex_less(b);
  });

  std::vector<IntVec> order;
  order.reserve(points.size());
  const IntMat& inv = tn.inverse();
  for (const auto& u : points) order.push_back(inv * u);
  return order;
}

// The transforms the tiled-order differentials run on a depth-n nest:
// identity, reversal of the outer loop and, from depth 2, interchange of
// the two outer loops and a skew of the second loop by the first.
inline std::vector<IntMat> tiling_transforms(size_t n) {
  std::vector<IntMat> out{IntMat::identity(n), IntMat::identity(n)};
  out[1](0, 0) = -1;
  if (n >= 2) {
    IntMat swap = IntMat::identity(n);
    swap(0, 0) = swap(1, 1) = 0;
    swap(0, 1) = swap(1, 0) = 1;
    IntMat skew = IntMat::identity(n);
    skew(1, 0) = 1;
    out.push_back(swap);
    out.push_back(skew);
  }
  return out;
}

// Tile sizes for T * box: all 1, 2..4 cycling over the axes, and one past
// the transformed extent on every axis (a single tile).
inline std::vector<std::vector<Int>> tiling_sizes(const LoopNest& nest, const IntMat& t) {
  const size_t n = nest.depth();
  const IntBox hull = nest.bounds().image_hull(t);
  std::vector<std::vector<Int>> out(3, std::vector<Int>(n, 1));
  for (size_t k = 0; k < n; ++k) {
    out[1][k] = 2 + static_cast<Int>(k % 3);
    out[2][k] = hull.range(k).trip_count() + 1;
  }
  return out;
}

}  // namespace lmre::test
