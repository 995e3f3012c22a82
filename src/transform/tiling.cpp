#include "transform/tiling.h"

#include <algorithm>
#include <optional>
#include <set>

#include "polyhedra/scanner.h"
#include "support/error.h"
#include "transform/transformed.h"

namespace lmre {

namespace {

// Tile coordinates of a transformed point: floor((u_k - base_k) / s_k).
IntVec tile_of(const IntVec& u, const IntVec& base, const std::vector<Int>& sizes) {
  IntVec tau(u.size());
  for (size_t k = 0; k < u.size(); ++k) {
    tau[k] = floor_div(checked_sub(u[k], base[k]), sizes[k]);
  }
  return tau;
}

}  // namespace

std::vector<IntVec> tiled_order(const LoopNest& nest, const IntMat& t,
                                const std::vector<Int>& tile_sizes) {
  require(tile_sizes.size() == nest.depth(), "tiled_order: tile rank mismatch");
  for (Int s : tile_sizes) require(s >= 1, "tiled_order: tile sizes must be >= 1");

  TransformedNest tn(nest, t);
  const IntMat& inv = tn.inverse();
  std::vector<IntVec> order;
  scan_tiled_rows(tn.bounds(), nest.bounds().image_hull(t), tile_sizes,
                  [&](IntVec& u, Int lo, Int hi) {
                    for (Int v = lo; v <= hi; ++v) {
                      u[u.size() - 1] = v;
                      order.push_back(inv * u);
                    }
                  });
  return order;
}

TilingReport analyze_tiling(const LoopNest& nest, const IntMat& t,
                            const std::vector<Int>& tile_sizes) {
  TilingReport rep;
  std::vector<IntVec> order = tiled_order(nest, t, tile_sizes);
  rep.stats = simulate_order(nest, order);
  rep.mws_tiled = rep.stats.mws_total;

  // Per-tile populations and footprints: replay the order, cutting at tile
  // boundaries (tiles are anchored where scan_tiled_rows anchors them).
  IntVec base(nest.depth());
  const IntBox hull = nest.bounds().image_hull(t);
  for (size_t k = 0; k < base.size(); ++k) base[k] = hull.range(k).lo;

  std::optional<IntVec> current_tile;
  Int tile_iters = 0;
  std::set<std::pair<ArrayId, IntVec>> footprint;
  auto close_tile = [&]() {
    if (!current_tile) return;
    rep.tiles += 1;
    rep.max_tile_iterations = std::max(rep.max_tile_iterations, tile_iters);
    rep.max_tile_footprint =
        std::max(rep.max_tile_footprint, static_cast<Int>(footprint.size()));
    tile_iters = 0;
    footprint.clear();
  };
  for (const IntVec& iter : order) {
    IntVec u = t * iter;
    IntVec tau = tile_of(u, base, tile_sizes);
    if (!current_tile || !(tau == *current_tile)) {
      close_tile();
      current_tile = tau;
    }
    ++tile_iters;
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        footprint.emplace(ref.array, ref.index_at(iter));
      }
    }
  }
  close_tile();
  return rep;
}

}  // namespace lmre
