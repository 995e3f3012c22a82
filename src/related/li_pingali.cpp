#include "related/li_pingali.h"

#include "dependence/dependence.h"
#include "support/error.h"
#include "transform/unimodular.h"

namespace lmre {

std::optional<LiPingaliResult> li_pingali_transform(const LoopNest& nest,
                                                    ArrayId array) {
  if (nest.depth() != 2) return std::nullopt;  // the paper's comparison scope
  const std::vector<ArrayRef>& refs = nest.refs_to(array);
  if (refs.empty() || nest.array(array).dims() != 1) return std::nullopt;
  for (size_t i = 1; i < refs.size(); ++i) {
    if (!refs[i].uniformly_generated_with(refs[0])) return std::nullopt;
  }
  IntVec alpha = refs[0].access.row(0).primitive();
  if (alpha.is_zero()) return std::nullopt;

  DependenceInfo info = analyze_dependences(nest);
  std::vector<IntVec> memory = info.distance_vectors(/*include_input=*/false);

  for (IntVec row : {alpha, -alpha}) {
    // The seeded row must not send any memory dependence lex-negative.
    bool feasible = true;
    bool any_zero = false;
    for (const auto& d : memory) {
      Int dot = row.dot(d);
      if (dot < 0) {
        feasible = false;
        break;
      }
      if (dot == 0) any_zero = true;
    }
    if (!feasible) continue;

    // Complete: a*d0 - b*c0 == +/-1; for dependences the first row zeroes,
    // the second row's sign decides legality, so try both determinants.
    Int x, y;
    if (extended_gcd(row[0], row[1], x, y) != 1) continue;
    for (auto base : {std::pair<Int, Int>{-y, x}, std::pair<Int, Int>{y, -x}}) {
      IntMat t{{row[0], row[1]}, {base.first, base.second}};
      ensure(t.is_unimodular(), "li_pingali completion not unimodular");
      if (is_legal(t, memory)) {
        (void)any_zero;
        return LiPingaliResult{t, row};
      }
    }
  }
  return std::nullopt;
}

}  // namespace lmre
