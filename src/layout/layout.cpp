#include "layout/layout.h"

#include <sstream>

#include "ir/nest.h"
#include "support/error.h"

namespace lmre {

std::string to_string(LayoutKind k) {
  switch (k) {
    case LayoutKind::kRowMajor: return "row-major";
    case LayoutKind::kColMajor: return "col-major";
    case LayoutKind::kBlocked: return "blocked";
  }
  return "?";
}

LayoutSpec::LayoutSpec(LayoutKind kind, IntVec origin, std::vector<Int> extents,
                       std::vector<Int> block)
    : kind_(kind),
      origin_(std::move(origin)),
      extents_(std::move(extents)),
      block_(std::move(block)) {
  require(origin_.size() == extents_.size(), "LayoutSpec: origin/extent mismatch");
  for (Int e : extents_) require(e >= 1, "LayoutSpec: extents must be >= 1");
  if (kind_ == LayoutKind::kBlocked) {
    require(block_.size() == extents_.size(), "LayoutSpec: block rank mismatch");
    for (Int b : block_) require(b >= 1, "LayoutSpec: block sizes must be >= 1");
  }
}

LayoutSpec LayoutSpec::row_major(IntVec origin, std::vector<Int> extents) {
  return LayoutSpec(LayoutKind::kRowMajor, std::move(origin), std::move(extents), {});
}

LayoutSpec LayoutSpec::col_major(IntVec origin, std::vector<Int> extents) {
  return LayoutSpec(LayoutKind::kColMajor, std::move(origin), std::move(extents), {});
}

LayoutSpec LayoutSpec::blocked(IntVec origin, std::vector<Int> extents,
                               std::vector<Int> block) {
  return LayoutSpec(LayoutKind::kBlocked, std::move(origin), std::move(extents),
                    std::move(block));
}

LayoutSpec LayoutSpec::fit(const LoopNest& nest, ArrayId array, LayoutKind kind,
                           std::vector<Int> block) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  require(!refs.empty(), "LayoutSpec::fit: array is not referenced");
  const size_t d = nest.array(array).dims();
  IntVec origin(d);
  std::vector<Int> extents(d, 1);
  for (size_t dim = 0; dim < d; ++dim) {
    bool first = true;
    Int lo = 0, hi = 0;
    for (const auto& r : refs) {
      auto [rl, rh] = subscript_range(r.access.row(dim), r.offset[dim], nest.bounds());
      lo = first ? rl : std::min(lo, rl);
      hi = first ? rh : std::max(hi, rh);
      first = false;
    }
    origin[dim] = lo;
    extents[dim] = checked_add(checked_sub(hi, lo), 1);
  }
  switch (kind) {
    case LayoutKind::kRowMajor:
      return row_major(std::move(origin), std::move(extents));
    case LayoutKind::kColMajor:
      return col_major(std::move(origin), std::move(extents));
    case LayoutKind::kBlocked:
      if (block.empty()) block.assign(d, 4);
      return blocked(std::move(origin), std::move(extents), std::move(block));
  }
  throw InvalidArgument("LayoutSpec::fit: unknown kind");
}

Int LayoutSpec::size() const {
  Int s = 1;
  for (Int e : extents_) s = checked_mul(s, e);
  return s;
}

Int LayoutSpec::address(const IntVec& index) const {
  require(index.size() == extents_.size(), "LayoutSpec::address rank mismatch");
  const size_t d = extents_.size();
  IntVec rel(d);
  for (size_t k = 0; k < d; ++k) {
    rel[k] = checked_sub(index[k], origin_[k]);
    require(rel[k] >= 0 && rel[k] < extents_[k],
            "LayoutSpec::address: index outside the layout region");
  }
  switch (kind_) {
    case LayoutKind::kRowMajor: {
      Int addr = 0;
      for (size_t k = 0; k < d; ++k) {
        addr = checked_add(checked_mul(addr, extents_[k]), rel[k]);
      }
      return addr;
    }
    case LayoutKind::kColMajor: {
      Int addr = 0;
      for (size_t k = d; k-- > 0;) {
        addr = checked_add(checked_mul(addr, extents_[k]), rel[k]);
      }
      return addr;
    }
    case LayoutKind::kBlocked: {
      // Address = (block row-major index) * block_volume + in-block
      // row-major index.  Edge blocks are padded (addresses stay unique).
      Int block_index = 0, in_block = 0, block_volume = 1;
      for (size_t k = 0; k < d; ++k) {
        Int blocks_k = ceil_div(extents_[k], block_[k]);
        block_index = checked_add(checked_mul(block_index, blocks_k),
                                  floor_div(rel[k], block_[k]));
        in_block = checked_add(checked_mul(in_block, block_[k]),
                               mod_floor(rel[k], block_[k]));
        block_volume = checked_mul(block_volume, block_[k]);
      }
      return checked_add(checked_mul(block_index, block_volume), in_block);
    }
  }
  throw InternalError("LayoutSpec::address: unknown kind");
}

std::string LayoutSpec::str() const {
  std::ostringstream os;
  os << to_string(kind_) << ' ';
  for (size_t k = 0; k < extents_.size(); ++k) {
    if (k) os << 'x';
    os << extents_[k];
  }
  os << " @ " << origin_.str();
  if (kind_ == LayoutKind::kBlocked) {
    os << " blocks ";
    for (size_t k = 0; k < block_.size(); ++k) {
      if (k) os << 'x';
      os << block_[k];
    }
  }
  return os.str();
}

}  // namespace lmre
