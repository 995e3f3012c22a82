#include "verify/checker.h"

#include <sstream>

#include "support/checked.h"
#include "support/error.h"

namespace lmre {

namespace {

std::string edge_tag(size_t index, const DepVerdict& v) {
  std::ostringstream os;
  os << "edge " << index << " (" << to_string(v.kind) << " #" << v.src_ref
     << " -> #" << v.dst_ref << ")";
  return os.str();
}

bool in_box(const IntVec& p, const IntBox& box) {
  if (p.size() != box.dims()) return false;
  for (size_t k = 0; k < p.size(); ++k) {
    if (p[k] < box.range(k).lo || p[k] > box.range(k).hi) return false;
  }
  return true;
}

// Interval of (T d)_r over all differences admitted by the direction
// vector; mirrors the prover's cone but is recomputed here from scratch.
struct Interval {
  Int lo = 0, hi = 0;
};

Interval dir_row_interval(const IntMat& t, size_t r, const std::vector<Dir>& dirs,
                          const IntBox& box) {
  Interval acc;
  for (size_t k = 0; k < dirs.size(); ++k) {
    Int spread = checked_sub(box.range(k).hi, box.range(k).lo);
    Int lo = 0, hi = 0;
    switch (dirs[k]) {
      case Dir::kLt: lo = 1; hi = spread; break;
      case Dir::kEq: lo = 0; hi = 0; break;
      case Dir::kGt: lo = checked_neg(spread); hi = -1; break;
      case Dir::kAny: lo = checked_neg(spread); hi = spread; break;
    }
    Int c = t(r, k);
    acc.lo = checked_add(acc.lo, checked_mul(c, c >= 0 ? lo : hi));
    acc.hi = checked_add(acc.hi, checked_mul(c, c >= 0 ? hi : lo));
  }
  return acc;
}

bool cone_proves_positive(const IntMat& t, const std::vector<Dir>& dirs,
                          const IntBox& box) {
  try {
    for (size_t r = 0; r < t.rows(); ++r) {
      Interval iv = dir_row_interval(t, r, dirs, box);
      if (iv.lo >= 1) return true;
      if (!(iv.lo == 0 && iv.hi == 0)) return false;
    }
  } catch (const OverflowError&) {
    return false;
  }
  return false;
}

bool matches_directions(const IntVec& i, const IntVec& j,
                        const std::vector<Dir>& dirs) {
  for (size_t k = 0; k < dirs.size(); ++k) {
    Int d = j[k] - i[k];
    switch (dirs[k]) {
      case Dir::kLt: if (d < 1) return false; break;
      case Dir::kEq: if (d != 0) return false; break;
      case Dir::kGt: if (d > -1) return false; break;
      case Dir::kAny: break;
    }
  }
  return true;
}

}  // namespace

CertificateCheck check_certificate(const LoopNest& nest, const VerifyResult& res) {
  CertificateCheck check;
  const size_t n = nest.depth();
  const IntBox& box = nest.bounds();
  const std::vector<ArrayRef>& refs = nest.all_refs();

  if (!res.structure_error.empty()) {
    // A structurally rejected plan certifies nothing; only the flag matters.
    if (res.certified) check.fail("structure error but certified flag set");
    return check;
  }

  // Plan structure: steps unimodular, product equals the combined matrix.
  if (res.combined.rows() != n || res.combined.cols() != n) {
    check.fail("combined matrix does not match the nest depth");
    return check;
  }
  IntMat product = IntMat::identity(n);
  for (size_t s = 0; s < res.plan.steps.size(); ++s) {
    const IntMat& step = res.plan.steps[s];
    if (step.rows() != n || step.cols() != n || !step.is_unimodular()) {
      check.fail("plan step " + std::to_string(s + 1) +
                 " is not a unimodular n x n matrix");
      return check;
    }
    product = step * product;
  }
  if (product != res.combined) {
    check.fail("combined matrix is not the product of the plan steps");
    return check;
  }
  if (res.plan.has_tiling() && res.plan.tile_sizes.size() != n) {
    check.fail("tile sizes do not match the nest depth");
  }
  const IntMat& t = res.combined;

  auto check_witness = [&](size_t index, const DepVerdict& v,
                           const IterationWitness& w, bool tiling) {
    const std::string tag = edge_tag(index, v);
    if (v.src_ref >= refs.size() || v.dst_ref >= refs.size()) {
      check.fail(tag + ": reference index out of range");
      return;
    }
    const ArrayRef& src = refs[v.src_ref];
    const ArrayRef& dst = refs[v.dst_ref];
    if (!in_box(w.src_iter, box) || !in_box(w.dst_iter, box)) {
      check.fail(tag + ": witness iteration outside the loop bounds");
      return;
    }
    if (src.index_at(w.src_iter) != w.element ||
        dst.index_at(w.dst_iter) != w.element) {
      check.fail(tag + ": witness iterations do not touch the claimed element");
      return;
    }
    if (!w.src_iter.lex_less(w.dst_iter)) {
      check.fail(tag + ": witness source does not precede the destination"
                       " in the original order");
      return;
    }
    if (t * w.src_iter != w.src_time || t * w.dst_iter != w.dst_time) {
      check.fail(tag + ": witness times do not match combined * iteration");
      return;
    }
    if (!tiling && !w.dst_time.lex_less(w.src_time)) {
      check.fail(tag + ": witness is not reversed by the transformed order");
      return;
    }
    if (tiling && !w.tiled) {
      // A plain negative-component pair: the transformed difference must be
      // negative at the claimed row (the tiled reversal itself is replayed
      // by the trace-engine tests, not re-derived here).
      if (v.negative_component < 1 ||
          static_cast<size_t>(v.negative_component) > n) {
        check.fail(tag + ": negative_component out of range");
        return;
      }
      IntVec diff = w.dst_time - w.src_time;
      if (diff[static_cast<size_t>(v.negative_component) - 1] >= 0) {
        check.fail(tag + ": tile witness has no negative transformed"
                         " component at the claimed row");
        return;
      }
    }
    ++check.checked_witnesses;
  };

  bool memory_reversed = false, memory_unproven = false, any_untileable = false;
  size_t memory_count = 0;
  for (size_t index = 0; index < res.verdicts.size(); ++index) {
    const DepVerdict& v = res.verdicts[index];
    const std::string tag = edge_tag(index, v);
    if (v.src_ref >= refs.size() || v.dst_ref >= refs.size()) {
      check.fail(tag + ": reference index out of range");
      continue;
    }
    const ArrayRef& src = refs[v.src_ref];
    const ArrayRef& dst = refs[v.dst_ref];
    if (src.array != v.array || dst.array != v.array) {
      check.fail(tag + ": endpoints reference a different array");
      continue;
    }
    if (classify(src.kind, dst.kind) != v.kind) {
      check.fail(tag + ": kind does not match the endpoint access kinds");
      continue;
    }
    const bool memory = v.kind != DepKind::kInput;
    if (memory) ++memory_count;

    if (v.basis == DepBasis::kDistance) {
      if (v.distance.size() != n) {
        check.fail(tag + ": distance rank mismatch");
        continue;
      }
      if (!v.distance.lex_positive()) {
        check.fail(tag + ": distance is not lexicographically positive");
        continue;
      }
      bool realizable = true;
      for (size_t k = 0; k < n; ++k) {
        Int spread = box.range(k).hi - box.range(k).lo;
        Int mag = v.distance[k] < 0 ? -v.distance[k] : v.distance[k];
        realizable = realizable && mag <= spread;
      }
      if (!realizable) {
        check.fail(tag + ": distance is not realizable in the bounds");
        continue;
      }
      // The distance must connect the two references: uniform generation
      // and access * d == offset_src - offset_dst.
      if (src.access != dst.access) {
        check.fail(tag + ": distance edge between non-uniform references");
        continue;
      }
      IntVec image = src.access * v.distance;
      IntVec want = src.offset - dst.offset;
      if (image != want) {
        check.fail(tag + ": access * distance != offset difference");
        continue;
      }
      if (t * v.distance != v.transformed) {
        check.fail(tag + ": transformed != combined * distance");
        continue;
      }
      if (v.status == DepStatus::kPreserved) {
        if (memory) {
          if (v.proof == ProofKind::kPivot) {
            if (v.proof_level < 1 || static_cast<size_t>(v.proof_level) > n) {
              check.fail(tag + ": pivot level out of range");
              continue;
            }
            bool pivot_ok = v.transformed[v.proof_level - 1] > 0;
            for (int k = 0; k + 1 < v.proof_level; ++k) {
              pivot_ok = pivot_ok && v.transformed[static_cast<size_t>(k)] == 0;
            }
            if (!pivot_ok) {
              check.fail(tag + ": pivot proof term does not hold");
              continue;
            }
            ++check.checked_proofs;
          } else {
            check.fail(tag + ": preserved memory distance edge lacks a"
                             " pivot proof");
            continue;
          }
        }
      } else if (v.status == DepStatus::kReversed) {
        if (memory) memory_reversed = true;
        if (v.transformed.lex_positive()) {
          check.fail(tag + ": reversed status but transformed distance is"
                           " lexicographically positive");
          continue;
        }
        if (v.witness.has_value()) {
          check_witness(index, v, *v.witness, /*tiling=*/false);
        } else {
          check.fail(tag + ": reversed distance edge lacks a witness");
          continue;
        }
      } else if (memory) {
        memory_unproven = true;
      }
      // Per-edge tiling claim.
      bool has_negative = false;
      for (size_t k = 0; k < n; ++k) has_negative = has_negative || v.transformed[k] < 0;
      if (v.tileable && has_negative) {
        check.fail(tag + ": tileable claim contradicts a negative component");
        continue;
      }
      if (!v.tileable) {
        any_untileable = true;
        if (v.tile_witness.has_value()) {
          check_witness(index, v, *v.tile_witness, /*tiling=*/true);
        }
      }
    } else {  // direction basis
      if (v.directions.size() != n) {
        check.fail(tag + ": direction vector rank mismatch");
        continue;
      }
      bool source_first = false;
      for (Dir d : v.directions) {
        if (d == Dir::kEq) continue;
        source_first = d == Dir::kLt || d == Dir::kAny;
        break;
      }
      if (!source_first) {
        check.fail(tag + ": direction vector is not source-first");
        continue;
      }
      if (v.status == DepStatus::kPreserved) {
        if (v.proof == ProofKind::kCone) {
          if (!cone_proves_positive(t, v.directions, box)) {
            check.fail(tag + ": cone proof does not hold");
            continue;
          }
          ++check.checked_proofs;
        } else if (v.proof == ProofKind::kExhaustive) {
          ++check.trusted;  // absence claims are differential-tested
        } else if (memory) {
          check.fail(tag + ": preserved direction edge lacks a proof term");
          continue;
        }
      } else if (v.status == DepStatus::kReversed) {
        if (memory) memory_reversed = true;
        if (v.witness.has_value()) {
          if (!matches_directions(v.witness->src_iter, v.witness->dst_iter,
                                  v.directions)) {
            check.fail(tag + ": witness does not realize the direction vector");
            continue;
          }
          check_witness(index, v, *v.witness, /*tiling=*/false);
        } else {
          check.fail(tag + ": reversed direction edge lacks a witness");
          continue;
        }
      } else if (memory) {
        memory_unproven = true;
      }
      if (!v.tileable) {
        any_untileable = true;
        if (v.tile_witness.has_value()) {
          if (v.tile_witness->tiled || !v.tile_witness->src_time.empty()) {
            check_witness(index, v, *v.tile_witness, /*tiling=*/true);
          }
        }
      }
    }
  }

  // Roll-up consistency.
  if (res.memory_deps != memory_count) {
    check.fail("memory dependence count does not match the edge list");
  }
  if (res.total_deps != res.verdicts.size()) {
    check.fail("total dependence count does not match the edge list");
  }
  if (res.legal && (memory_reversed || memory_unproven)) {
    check.fail("legal claim contradicts a reversed or unproven memory edge");
  }
  if (res.tileable && any_untileable) {
    check.fail("tileable claim contradicts an untileable edge");
  }
  if (res.certified &&
      (!res.legal || (res.plan.has_tiling() && !res.tileable))) {
    check.fail("certified claim is inconsistent with legal/tileable flags");
  }

  // Level claims: a preserved memory distance edge carried at level L
  // refutes a DOALL claim for L, original and transformed alike.  The
  // wavefront race-free claim additionally pins every carry to level 1.
  auto check_levels = [&](const std::vector<LevelClass>& levels,
                          bool transformed, const char* which) {
    if (levels.size() != n) {
      check.fail(std::string(which) + " level list does not match the depth");
      return;
    }
    for (size_t index = 0; index < res.verdicts.size(); ++index) {
      const DepVerdict& v = res.verdicts[index];
      if (v.kind == DepKind::kInput || v.basis != DepBasis::kDistance) continue;
      if (v.status != DepStatus::kPreserved) continue;
      const IntVec& d = transformed ? v.transformed : v.distance;
      if (!d.lex_positive()) continue;
      size_t level = static_cast<size_t>(d.level());
      if (levels[level - 1].doall) {
        check.fail(edge_tag(index, v) + ": carried at " + which + " level " +
                   std::to_string(level) + " which is marked DOALL");
      }
      if (transformed && res.wavefront_race_free && level != 1) {
        check.fail(edge_tag(index, v) +
                   ": wavefront race-free claim but the edge is carried at"
                   " inner level " + std::to_string(level));
      }
    }
  };
  check_levels(res.original_levels, /*transformed=*/false, "original");
  check_levels(res.transformed_levels, /*transformed=*/true, "transformed");

  if (res.wavefront_race_free) {
    if (n < 2) check.fail("wavefront race-free claim on a depth-1 nest");
    if (!res.legal) check.fail("wavefront race-free claim on an illegal plan");
    for (size_t l = 1; l < res.transformed_levels.size(); ++l) {
      if (!res.transformed_levels[l].doall) {
        check.fail("wavefront race-free claim but inner transformed level " +
                   std::to_string(l + 1) + " is not DOALL");
      }
    }
    // Direction-granular memory edges: level-1 carry must be forced by the
    // cone (row 1 strictly positive over the whole cone); otherwise the
    // claim rests on the prover's exhaustive level search.
    for (const DepVerdict& v : res.verdicts) {
      if (v.basis != DepBasis::kDirection || v.kind == DepKind::kInput) continue;
      if (v.status != DepStatus::kPreserved) continue;
      try {
        Interval iv = dir_row_interval(t, 0, v.directions, box);
        if (iv.lo >= 1) continue;
      } catch (const OverflowError&) {
      }
      ++check.trusted;
    }
  }
  return check;
}

}  // namespace lmre
