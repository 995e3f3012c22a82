#include "analysis/lifetime.h"

#include "dependence/dependence.h"
#include "dependence/lattice.h"
#include "linalg/kernel.h"
#include "support/error.h"

namespace lmre {

Int ordinal_distance(const IntVec& v, const IntBox& box) {
  require(v.size() == box.dims(), "ordinal_distance: dimension mismatch");
  IntVec d = v;
  if (!d.lex_positive()) d = -d;
  Int total = 0;
  Int weight = 1;
  // Horner-style accumulation from the innermost level outward.
  for (size_t k = d.size(); k-- > 0;) {
    total = checked_add(total, checked_mul(d[k], weight));
    weight = checked_mul(weight, box.range(k).trip_count());
  }
  return total;
}

namespace {

// Dominant (lex-max) reuse distance for the array, plus the maximum number
// of times a single element can be touched along that chain.
struct ReuseChain {
  IntVec step;
  Int max_accesses = 1;
};

std::optional<ReuseChain> dominant_chain(const LoopNest& nest, ArrayId array) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  if (refs.empty()) return std::nullopt;
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].uniformly_generated_with(refs[0])) return std::nullopt;
  }
  DependenceInfo info = analyze_dependences(nest);
  const std::vector<ArrayRef>& all = nest.all_refs();
  std::optional<IntVec> best;
  for (const auto& dep : info.deps) {
    if (all[dep.src_ref].array != array) continue;
    if (!best || best->lex_less(dep.distance)) best = dep.distance;
  }
  if (!best) return std::nullopt;

  ReuseChain chain;
  chain.step = *best;
  // Chain length along the step direction: how many multiples of the step
  // stay inside the iteration box (plus one for the first access).
  Int hops = 0;
  for (;;) {
    IntVec multiple = chain.step * (hops + 1);
    bool realizable = true;
    for (size_t k = 0; k < multiple.size(); ++k) {
      if (checked_abs(multiple[k]) > nest.bounds().range(k).trip_count() - 1) {
        realizable = false;
        break;
      }
    }
    if (!realizable) break;
    ++hops;
  }
  chain.max_accesses = hops + 1;
  return chain;
}

}  // namespace

std::optional<Int> estimate_max_lifetime(const LoopNest& nest, ArrayId array) {
  auto chain = dominant_chain(nest, array);
  if (!chain) return std::nullopt;
  return checked_mul(chain->max_accesses - 1,
                     ordinal_distance(chain->step, nest.bounds()));
}

std::optional<Int> lifetime_window_cap(const LoopNest& nest, ArrayId array) {
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  if (refs.size() != 1) return std::nullopt;
  auto v = reuse_direction(refs[0].access);
  if (!v) return std::nullopt;
  return checked_add(ordinal_distance(*v, nest.bounds()), 1);
}

}  // namespace lmre
