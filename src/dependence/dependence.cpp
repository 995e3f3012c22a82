#include "dependence/dependence.h"

#include <algorithm>
#include <map>
#include <set>

#include "dependence/lattice.h"
#include "linalg/kernel.h"
#include "support/error.h"

namespace lmre {

std::string to_string(DepKind k) {
  switch (k) {
    case DepKind::kFlow: return "flow";
    case DepKind::kAnti: return "anti";
    case DepKind::kOutput: return "output";
    case DepKind::kInput: return "input";
  }
  return "?";
}

std::string direction_string(const IntVec& distance) {
  std::string out = "(";
  for (size_t k = 0; k < distance.size(); ++k) {
    if (k) out += ", ";
    out += distance[k] > 0 ? '<' : (distance[k] < 0 ? '>' : '=');
  }
  out += ')';
  return out;
}

DepKind classify(AccessKind src, AccessKind dst) {
  if (src == AccessKind::kWrite) {
    return dst == AccessKind::kRead ? DepKind::kFlow : DepKind::kOutput;
  }
  return dst == AccessKind::kWrite ? DepKind::kAnti : DepKind::kInput;
}

std::vector<IntVec> DependenceInfo::distance_vectors(bool include_input) const {
  std::vector<IntVec> out;
  for (const auto& d : deps) {
    if (!include_input && d.kind == DepKind::kInput) continue;
    if (std::find(out.begin(), out.end(), d.distance) == out.end())
      out.push_back(d.distance);
  }
  return out;
}

std::string summarize_dependences(const DependenceInfo& info) {
  std::string out;
  for (const auto& d : info.deps) {
    out += to_string(d.kind) + " " + d.distance.str() + " " +
           direction_string(d.distance) + " level " + std::to_string(d.level()) +
           "\n";
  }
  if (info.has_nonuniform()) {
    out += "(some references are non-uniformly generated)\n";
  }
  return out;
}

DependenceInfo analyze_dependences(const LoopNest& nest) {
  DependenceInfo info;
  const std::vector<ArrayRef>& refs = nest.all_refs();
  const IntBox& box = nest.bounds();

  // Group reference indices by array.
  std::map<ArrayId, std::vector<size_t>> by_array;
  for (size_t i = 0; i < refs.size(); ++i) by_array[refs[i].array].push_back(i);

  std::set<std::tuple<size_t, size_t, int, IntVec>> seen;
  auto add_edge = [&](size_t src, size_t dst, DepKind kind, const IntVec& dist) {
    ensure(dist.lex_positive(), "dependence distance must be lex-positive");
    auto key = std::make_tuple(src, dst, static_cast<int>(kind), dist);
    if (seen.insert(key).second) info.deps.push_back(Dependence{src, dst, kind, dist});
  };

  for (const auto& [array, members] : by_array) {
    // Uniformity check: the paper's constant-distance machinery applies only
    // when every pair of references to the array shares one access matrix.
    bool uniform = true;
    for (size_t a = 0; a + 1 < members.size() && uniform; ++a) {
      if (!(refs[members[a]].access == refs[members[a + 1]].access)) uniform = false;
    }
    if (!uniform) {
      info.nonuniform_arrays.push_back(array);
      continue;
    }
    if (members.empty()) continue;
    const IntMat& acc = refs[members.front()].access;

    // Self-reuse: primitive kernel generators (realizable, lex-positive).
    std::vector<IntVec> generators;
    for (const IntVec& k : integer_kernel_basis(acc)) {
      IntVec g = k.primitive();
      if (!g.lex_positive()) g = -g;
      bool realizable = true;
      for (size_t lev = 0; lev < box.dims(); ++lev) {
        if (checked_abs(g[lev]) > box.range(lev).trip_count() - 1) realizable = false;
      }
      if (realizable) generators.push_back(g);
    }
    for (size_t i : members) {
      for (const IntVec& g : generators) {
        add_edge(i, i, classify(refs[i].kind, refs[i].kind), g);
      }
    }

    // Cross-reference dependences: lex-min positive distance per orientation.
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        size_t i = members[a], j = members[b];
        IntVec cij = refs[i].offset - refs[j].offset;
        // ref_i at the earlier iteration, ref_j at the later: A d == c_ij;
        // the backward orientation (A d == -c_ij) swaps their roles.
        LexminPair d = lexmin_positive_solutions(acc, cij, box);
        if (d.forward) {
          add_edge(i, j, classify(refs[i].kind, refs[j].kind), *d.forward);
        }
        if (d.backward) {
          add_edge(j, i, classify(refs[j].kind, refs[i].kind), *d.backward);
        }
      }
    }
  }
  return info;
}

}  // namespace lmre
