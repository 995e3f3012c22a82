#include "related/ferrante.h"

#include <algorithm>

#include "ir/nest.h"
#include "support/error.h"

namespace lmre {

FerranteEstimate ferrante_estimate(const LoopNest& nest, ArrayId array) {
  std::vector<ArrayRef> refs = nest.refs_to(array);
  require(!refs.empty(), "ferrante_estimate: array is not referenced");
  const IntBox& box = nest.bounds();
  const size_t d = nest.array(array).dims();

  FerranteEstimate est;
  // Per dimension: merge the references' value ranges, then divide by the
  // coarsest common stride.
  Int product = 1;
  for (size_t dim = 0; dim < d; ++dim) {
    Int lo = 0, hi = 0, stride = 0;
    bool first = true;
    for (const auto& r : refs) {
      auto [rl, rh] = subscript_range(r.access.row(dim), r.offset[dim], box);
      lo = first ? rl : std::min(lo, rl);
      hi = first ? rh : std::max(hi, rh);
      stride = gcd(stride, r.access.row(dim).content());
      first = false;
      int nonzero = 0;
      for (size_t k = 0; k < nest.depth(); ++k) {
        if (r.access(dim, k) != 0) ++nonzero;
      }
      if (nonzero > 1) est.coupled = true;
    }
    Int count = stride == 0 ? 1 : checked_add(checked_sub(hi, lo) / stride, 1);
    product = checked_mul(product, count);
  }
  est.distinct = product;
  return est;
}

}  // namespace lmre
