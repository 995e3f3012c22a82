#include "verify/verify.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "support/checked.h"
#include "support/error.h"
#include "transform/tiling.h"
#include "transform/unimodular.h"
#include "verify/search.h"

namespace lmre {

namespace {

// ---------------------------------------------------------------------------
// Plan parsing and rendering

std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

bool parse_int(const std::string& tok, Int* out) {
  if (tok.empty()) return false;
  size_t pos = 0;
  try {
    *out = std::stoll(tok, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == tok.size();
}

// Numeric tokens of a row: entries separated by spaces and/or commas.
bool parse_row(const std::string& text, std::vector<Int>* out) {
  std::string norm = text;
  std::replace(norm.begin(), norm.end(), ',', ' ');
  std::istringstream is(norm);
  std::string tok;
  while (is >> tok) {
    Int v = 0;
    if (!parse_int(tok, &v)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

}  // namespace

std::optional<IntMat> parse_matrix_chunk(const std::string& chunk,
                                         std::string* error) {
  std::string body = trim(chunk);
  if (!body.empty() && body.front() == '[' && body.back() == ']') {
    body = body.substr(1, body.size() - 2);
  }
  std::vector<IntVec> rows;
  for (const std::string& row_text : split(body, ';')) {
    std::vector<Int> row;
    if (!parse_row(row_text, &row)) {
      if (error != nullptr) *error = "malformed matrix row '" + trim(row_text) + "'";
      return std::nullopt;
    }
    rows.emplace_back(std::move(row));
  }
  for (const IntVec& r : rows) {
    if (r.size() != rows[0].size()) {
      if (error != nullptr) *error = "matrix rows have unequal lengths";
      return std::nullopt;
    }
  }
  return IntMat::from_rows(rows);
}

namespace {

// ---------------------------------------------------------------------------
// Cone test: interval of (T d)_r over all d admitted by a direction vector
// within the box.  '<' confines d_k to [1, spread_k], '=' to {0}, '>' to
// [-spread_k, -1]; interval arithmetic on the row then proves lex-positivity
// ("every admitted pair is preserved") or lex-negativity without
// enumerating pairs -- the classic conservative direction-vector argument.

struct ConeInterval {
  Int lo = 0;
  Int hi = 0;
};

// Per-level interval of d_k under the direction vector.
ConeInterval delta_interval(Dir d, Int spread) {
  switch (d) {
    case Dir::kLt: return {1, spread};
    case Dir::kEq: return {0, 0};
    case Dir::kGt: return {checked_neg(spread), -1};
    case Dir::kAny: break;
  }
  return {checked_neg(spread), spread};
}

// Interval of (T d)_r; throws OverflowError on blow-up (caller treats that
// as "unknown").
ConeInterval row_interval(const IntMat& t, size_t r, const std::vector<Dir>& dirs,
                          const IntBox& box) {
  ConeInterval acc{0, 0};
  for (size_t k = 0; k < dirs.size(); ++k) {
    Int spread = checked_sub(box.range(k).hi, box.range(k).lo);
    ConeInterval dk = delta_interval(dirs[k], spread);
    Int c = t(r, k);
    Int a = checked_mul(c, c >= 0 ? dk.lo : dk.hi);
    Int b = checked_mul(c, c >= 0 ? dk.hi : dk.lo);
    acc.lo = checked_add(acc.lo, a);
    acc.hi = checked_add(acc.hi, b);
  }
  return acc;
}

// +1 when the cone proves T d lex-positive for every admitted d, -1 when it
// proves lex-negative, 0 when inconclusive.
int cone_lex_sign(const IntMat& t, const std::vector<Dir>& dirs,
                  const IntBox& box) {
  try {
    for (size_t r = 0; r < t.rows(); ++r) {
      ConeInterval iv = row_interval(t, r, dirs, box);
      if (iv.lo >= 1) return 1;
      if (iv.hi <= -1) return -1;
      if (!(iv.lo == 0 && iv.hi == 0)) return 0;
    }
  } catch (const OverflowError&) {
    return 0;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Witness construction

IterationWitness make_witness(const ArrayRef& src, const IntMat& t,
                              const IntVec& i, const IntVec& j, bool tiled) {
  IterationWitness w;
  w.src_iter = i;
  w.dst_iter = j;
  w.element = src.index_at(i);
  w.src_time = t * i;
  w.dst_time = t * j;
  w.tiled = tiled;
  return w;
}

bool is_memory(DepKind k) { return k != DepKind::kInput; }

std::string dirs_str(const std::vector<Dir>& dirs) {
  return direction_vector_string(dirs);
}

}  // namespace

// ---------------------------------------------------------------------------
// VerifyPlan

IntMat VerifyPlan::combined(size_t n) const { return compose_transforms(steps, n); }

std::string VerifyPlan::str() const {
  std::ostringstream os;
  for (size_t s = 0; s < steps.size(); ++s) {
    if (s) os << " | ";
    os << steps[s].str();
  }
  if (has_tiling()) {
    if (!steps.empty()) os << " | ";
    os << "tile:";
    for (size_t k = 0; k < tile_sizes.size(); ++k) {
      if (k) os << ',';
      os << tile_sizes[k];
    }
  }
  if (steps.empty() && !has_tiling()) os << "identity";
  return os.str();
}

std::optional<VerifyPlan> parse_plan_spec(const std::string& spec,
                                          std::string* error) {
  VerifyPlan plan;
  if (trim(spec).empty()) {
    if (error != nullptr) *error = "empty plan spec";
    return std::nullopt;
  }
  std::vector<std::string> chunks = split(spec, '|');
  for (size_t c = 0; c < chunks.size(); ++c) {
    std::string chunk = trim(chunks[c]);
    if (chunk.rfind("tile", 0) == 0) {
      if (c + 1 != chunks.size()) {
        if (error != nullptr) *error = "tile step must be the last plan step";
        return std::nullopt;
      }
      std::string rest = trim(chunk.substr(4));
      if (!rest.empty() && (rest.front() == ':' || rest.front() == '='))
        rest = rest.substr(1);
      std::vector<Int> sizes;
      if (!parse_row(rest, &sizes)) {
        if (error != nullptr) *error = "malformed tile sizes '" + rest + "'";
        return std::nullopt;
      }
      plan.tile_sizes = std::move(sizes);
      continue;
    }
    std::optional<IntMat> m = parse_matrix_chunk(chunk, error);
    if (!m.has_value()) return std::nullopt;
    plan.steps.push_back(std::move(*m));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// The prover

VerifyResult verify_plan(const LoopNest& nest, const VerifyPlan& plan,
                         const VerifyOptions& opts) {
  VerifyResult res;
  res.plan = plan;
  const size_t n = nest.depth();
  const IntBox& box = nest.bounds();

  // Structural validation: every step square and unimodular, tile sizes
  // positive and matching the depth.
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const IntMat& t = plan.steps[s];
    if (t.rows() != n || t.cols() != n) {
      std::ostringstream os;
      os << "step " << s + 1 << " is " << t.rows() << " x " << t.cols()
         << " but the nest has depth " << n;
      res.structure_error = os.str();
      return res;
    }
    if (!t.is_unimodular()) {
      std::ostringstream os;
      os << "step " << s + 1 << " " << t.str()
         << " is not unimodular (determinant != +/-1); it does not map the"
            " iteration lattice bijectively";
      res.structure_error = os.str();
      return res;
    }
  }
  res.combined = plan.combined(n);
  if (plan.has_tiling()) {
    if (plan.tile_sizes.size() != n) {
      std::ostringstream os;
      os << "tile step has " << plan.tile_sizes.size()
         << " sizes but the nest has depth " << n;
      res.structure_error = os.str();
      return res;
    }
    for (Int s : plan.tile_sizes) {
      if (s >= 1) continue;
      res.structure_error = "tile sizes must be positive";
      return res;
    }
  }
  const IntMat& t = res.combined;
  const IntMat identity = IntMat::identity(n);

  const std::vector<ArrayRef>& refs = nest.all_refs();
  // Analyzed here, when the caller has no analysis, only once the plan is
  // known to be structurally sound.
  std::optional<DependenceInfo> own;
  const DependenceInfo& info =
      opts.deps ? *opts.deps : own.emplace(analyze_dependences(nest));
  const std::set<ArrayId> nonuniform(info.nonuniform_arrays.begin(),
                                     info.nonuniform_arrays.end());

  // Global reference indices grouped per array.
  std::map<ArrayId, std::vector<size_t>> by_array;
  for (size_t i = 0; i < refs.size(); ++i) by_array[refs[i].array].push_back(i);

  // --- 1. Listed verdicts for uniformly generated pairs: the analyzer's
  // representative edges (lex-min distance per orientation plus the reuse
  // generators), each judged directly through the combined matrix.
  std::set<std::tuple<size_t, size_t, IntVec>> listed;
  for (const Dependence& dep : info.deps) {
    DepVerdict v;
    v.src_ref = dep.src_ref;
    v.dst_ref = dep.dst_ref;
    v.array = refs[dep.src_ref].array;
    v.kind = dep.kind;
    v.basis = DepBasis::kDistance;
    v.distance = dep.distance;
    v.transformed = t * dep.distance;
    if (v.transformed.lex_positive()) {
      v.status = DepStatus::kPreserved;
      v.proof = is_memory(v.kind) ? ProofKind::kPivot : ProofKind::kNone;
      v.proof_level = v.transformed.level();
    } else {
      v.status = DepStatus::kReversed;
      auto [i, j] = corner_pair(dep.distance, box);
      v.witness = make_witness(refs[dep.src_ref], t, i, j, /*tiled=*/false);
    }
    for (size_t r = 0; r < n; ++r) {
      if (v.transformed[r] >= 0) continue;
      v.tileable = false;
      v.negative_component = static_cast<int>(r) + 1;
      auto [i, j] = corner_pair(dep.distance, box);
      v.tile_witness = make_witness(refs[dep.src_ref], t, i, j, /*tiled=*/false);
      break;
    }
    listed.insert({v.src_ref, v.dst_ref, v.distance});
    res.verdicts.push_back(std::move(v));
  }

  bool all_searches_complete = true;

  // One search space per ordered same-array pair, built on first use and
  // shared by every search of this call: the reversal and tiling-row
  // searches and both DOALL classifications.
  std::map<std::pair<size_t, size_t>, SearchSpace> spaces;
  auto space_of = [&](size_t src, size_t dst) -> const SearchSpace& {
    auto it = spaces.find({src, dst});
    if (it == spaces.end()) {
      it = spaces
               .emplace(std::make_pair(src, dst),
                        nonuniform.count(refs[src].array) != 0
                            ? pair_space(refs[src], refs[dst], box)
                            : lattice_space(refs[src], refs[dst], box))
               .first;
    }
    return it->second;
  };

  // Appends a synthesized distance verdict for a witness pair the
  // representative set did not cover.
  auto append_found = [&](size_t src, size_t dst, const IntVec& i,
                          const IntVec& j, bool reversed) -> DepVerdict& {
    DepVerdict v;
    v.src_ref = src;
    v.dst_ref = dst;
    v.array = refs[src].array;
    v.kind = classify(refs[src].kind, refs[dst].kind);
    v.basis = DepBasis::kDistance;
    v.distance = j - i;
    v.transformed = t * v.distance;
    if (reversed) {
      v.status = DepStatus::kReversed;
      v.witness = make_witness(refs[src], t, i, j, /*tiled=*/false);
    } else {
      v.status = DepStatus::kPreserved;
      v.proof = is_memory(v.kind) ? ProofKind::kPivot : ProofKind::kNone;
      v.proof_level = v.transformed.level();
    }
    for (size_t r = 0; r < n; ++r) {
      if (v.transformed[r] >= 0) continue;
      v.tileable = false;
      v.negative_component = static_cast<int>(r) + 1;
      v.tile_witness = make_witness(refs[src], t, i, j, /*tiled=*/false);
      break;
    }
    listed.insert({src, dst, v.distance});
    res.verdicts.push_back(std::move(v));
    return res.verdicts.back();
  };

  // --- 2. Exact per-pair searches for uniform pairs.  The representatives
  // alone are unsound for legality (the full solution set is a lattice coset
  // p + H t); a Fourier-Motzkin reversal search over the kernel coordinates
  // t settles every pair exactly.
  for (const auto& [array_id, members] : by_array) {
    if (nonuniform.count(array_id) != 0) continue;
    for (size_t src : members) {
      for (size_t dst : members) {
        DepKind kind = classify(refs[src].kind, refs[dst].kind);
        const SearchSpace& space = space_of(src, dst);

        if (is_memory(kind)) {
          bool already_reversed = std::any_of(
              res.verdicts.begin(), res.verdicts.end(), [&](const DepVerdict& v) {
                return v.src_ref == src && v.dst_ref == dst &&
                       v.status == DepStatus::kReversed;
              });
          if (!already_reversed) {
            SearchOutcome out = find_reversal(space, t, box, opts.search_budget);
            if (out.witness.has_value()) {
              auto [i, j] = *out.witness;
              if (listed.count({src, dst, j - i}) == 0) {
                append_found(src, dst, i, j, /*reversed=*/true);
              }
            } else if (!out.complete) {
              all_searches_complete = false;
            }
          }
        }

        // Tiling: search each row unless a listed verdict already refutes it.
        bool already_untileable = std::any_of(
            res.verdicts.begin(), res.verdicts.end(), [&](const DepVerdict& v) {
              return v.src_ref == src && v.dst_ref == dst && !v.tileable;
            });
        if (!already_untileable) {
          for (size_t r = 0; r < n; ++r) {
            SearchOutcome out =
                find_negative_component(space, t, r, box, opts.search_budget);
            if (out.witness.has_value()) {
              auto [i, j] = *out.witness;
              if (listed.count({src, dst, j - i}) == 0) {
                append_found(src, dst, i, j, /*reversed=*/false);
              }
              break;
            }
            if (!out.complete) all_searches_complete = false;
          }
        }
      }
    }
  }

  // --- 3. Non-uniform pairs: one verdict per feasible source-first
  // direction vector.  The cheap cone test runs first (its positive verdict
  // is the genuinely direction-granular one, LMRE-W020); inconclusive cones
  // fall through to the exact pairwise search.
  for (const auto& [array_id, members] : by_array) {
    if (nonuniform.count(array_id) == 0) continue;
    for (size_t src : members) {
      for (size_t dst : members) {
        DepKind kind = classify(refs[src].kind, refs[dst].kind);
        std::vector<std::vector<Dir>> dirs_list =
            source_first_directions(refs[src], refs[dst], box);
        const SearchSpace& space = space_of(src, dst);
        for (std::vector<Dir>& dirs : dirs_list) {
          DepVerdict v;
          v.src_ref = src;
          v.dst_ref = dst;
          v.array = array_id;
          v.kind = kind;
          v.basis = DepBasis::kDirection;
          v.directions = dirs;

          int cone = cone_lex_sign(t, dirs, box);
          if (cone > 0) {
            v.status = DepStatus::kPreserved;
            v.proof = ProofKind::kCone;
          } else if (cone < 0) {
            v.status = DepStatus::kReversed;
            SearchOutcome out =
                find_any_pair_dirs(space, dirs, box, opts.search_budget);
            if (out.witness.has_value()) {
              auto [i, j] = *out.witness;
              v.witness = make_witness(refs[src], t, i, j, /*tiled=*/false);
            } else {
              // The vector is feasible by construction; only a budget blowup
              // can leave the witness unmaterialized.
              v.status = DepStatus::kUnproven;
              all_searches_complete = false;
            }
          } else {
            SearchOutcome out =
                find_reversal_dirs(space, t, dirs, box, opts.search_budget);
            if (out.witness.has_value()) {
              auto [i, j] = *out.witness;
              v.status = DepStatus::kReversed;
              v.witness = make_witness(refs[src], t, i, j, /*tiled=*/false);
            } else if (out.complete) {
              v.status = DepStatus::kPreserved;
              v.proof = ProofKind::kExhaustive;
            } else {
              v.status = DepStatus::kUnproven;
              all_searches_complete = false;
            }
          }

          // Tiling per row: cone first, exact search on unknowns.
          for (size_t r = 0; r < n && v.tileable; ++r) {
            ConeInterval iv{};
            bool iv_ok = true;
            try {
              iv = row_interval(t, r, dirs, box);
            } catch (const OverflowError&) {
              iv_ok = false;
            }
            if (iv_ok && iv.lo >= 0) continue;
            SearchOutcome out = find_negative_component_dirs(
                space, t, dirs, r, box, opts.search_budget);
            if (out.witness.has_value()) {
              auto [i, j] = *out.witness;
              v.tileable = false;
              v.negative_component = static_cast<int>(r) + 1;
              v.tile_witness = make_witness(refs[src], t, i, j, /*tiled=*/false);
            } else if (!out.complete) {
              v.tileable = false;  // conservative: could not prove the row
              v.negative_component = static_cast<int>(r) + 1;
              all_searches_complete = false;
            }
          }

          res.verdicts.push_back(std::move(v));
        }
      }
    }
  }

  // --- Verdict roll-up.
  bool any_memory_reversed = false, any_memory_unproven = false;
  res.tileable = true;
  for (const DepVerdict& v : res.verdicts) {
    res.total_deps++;
    if (is_memory(v.kind)) {
      res.memory_deps++;
      if (v.status == DepStatus::kReversed) any_memory_reversed = true;
      if (v.status == DepStatus::kUnproven) any_memory_unproven = true;
    }
    if (!v.tileable) res.tileable = false;
    if (v.basis == DepBasis::kDirection &&
        (v.proof == ProofKind::kCone || v.status == DepStatus::kUnproven)) {
      res.direction_only = true;
    }
  }
  res.exact = all_searches_complete;
  res.legal = !any_memory_reversed && !any_memory_unproven;
  res.certified = res.legal && (!plan.has_tiling() || res.tileable);

  // --- 4. Tiling plans whose tile-shape precondition failed: try to
  // upgrade the negative-component pair into a concrete order reversal
  // under the actual tiled execution (small nests only).
  if (plan.has_tiling() && !res.tileable &&
      nest.iteration_count() <= opts.tiled_replay_limit) {
    try {
      std::vector<IntVec> order = tiled_order(nest, t, plan.tile_sizes);
      std::map<IntVec, size_t> position;
      for (size_t p = 0; p < order.size(); ++p) position[order[p]] = p;
      for (DepVerdict& v : res.verdicts) {
        if (v.tileable || !v.tile_witness.has_value()) continue;
        if (v.basis == DepBasis::kDistance) {
          // The recorded corner pair may share a tile (order preserved
          // there); any in-box pair separated by the constant distance
          // realizes this edge, so scan the tiled order for one the
          // schedule visits destination-first.
          for (size_t p = 0; p < order.size(); ++p) {
            IntVec dst = order[p] + v.distance;
            auto di = position.find(dst);
            if (di != position.end() && di->second < p) {
              v.tile_witness =
                  make_witness(refs[v.src_ref], t, order[p], dst, /*tiled=*/true);
              break;
            }
          }
          continue;
        }
        auto si = position.find(v.tile_witness->src_iter);
        auto di = position.find(v.tile_witness->dst_iter);
        if (si != position.end() && di != position.end() &&
            di->second < si->second) {
          v.tile_witness->tiled = true;
        }
      }
    } catch (const Error&) {
      // Replay is best-effort; the negative component already refutes.
    }
  }

  // --- 5. DOALL classification of every level, original and transformed.
  // A level is DOALL iff NO memory dependence is carried there; listed
  // preserved verdicts provide fast "carried" facts, and exact per-pair
  // searches prove absence for the rest.
  auto classify_levels = [&](const IntMat& schedule) {
    std::vector<LevelClass> levels(n);
    for (size_t l = 0; l < n; ++l) {
      LevelClass& lc = levels[l];
      lc.level = static_cast<int>(l) + 1;
      bool carried = false;
      for (size_t vi = 0; vi < res.verdicts.size(); ++vi) {
        const DepVerdict& v = res.verdicts[vi];
        if (!is_memory(v.kind) || v.basis != DepBasis::kDistance) continue;
        IntVec sd = schedule * v.distance;
        if (sd.lex_positive() && static_cast<size_t>(sd.level()) == l + 1) {
          carried = true;
          lc.carriers.push_back(static_cast<Int>(vi));
        }
      }
      if (!carried) {
        // Prove absence per ordered memory pair.
        bool possibly_carried = false;
        for (const auto& group : by_array) {
          for (size_t src : group.second) {
            for (size_t dst : group.second) {
              if (!is_memory(classify(refs[src].kind, refs[dst].kind))) continue;
              SearchOutcome out = find_carried(space_of(src, dst), schedule, l,
                                               box, opts.search_budget);
              if (out.witness.has_value()) {
                possibly_carried = true;
              } else if (!out.complete) {
                possibly_carried = true;  // conservative
                lc.exact = false;
              }
              if (possibly_carried) break;
            }
            if (possibly_carried) break;
          }
          if (possibly_carried) break;
        }
        carried = possibly_carried;
      }
      lc.doall = !carried;
    }
    return levels;
  };
  res.original_levels = classify_levels(identity);
  res.transformed_levels = classify_levels(t);

  // --- 6. Wavefront race analysis: the schedule's inner levels run in
  // parallel without races exactly when every memory dependence is carried
  // by the outermost transformed loop.
  res.wavefront_race_free = res.legal && n >= 2;
  for (size_t l = 1; l < n && res.wavefront_race_free; ++l) {
    if (!res.transformed_levels[l].doall || !res.transformed_levels[l].exact) {
      res.wavefront_race_free = false;
    }
  }

  return res;
}

// ---------------------------------------------------------------------------
// Diagnostics

void emit_verify_diagnostics(const LoopNest& nest, const VerifyResult& res,
                             const std::string& origin, bool parallel_notes,
                             DiagnosticEngine& out) {
  if (!res.structure_error.empty()) {
    out.error("LMRE-E013", origin + " " + res.structure_error);
    return;
  }
  const std::string plan_str = res.combined.str();

  // Reversals: the legacy E013 summary on the first one, then a concrete
  // E019 witness per reversed memory dependence (capped to stay readable).
  bool summarized = false;
  size_t witnesses = 0;
  for (const DepVerdict& v : res.verdicts) {
    if (!is_memory(v.kind) || v.status != DepStatus::kReversed) continue;
    if (!summarized) {
      summarized = true;
      std::ostringstream msg;
      if (v.basis == DepBasis::kDistance) {
        msg << origin << " " << plan_str << " reorders dependence "
            << v.distance.str() << ": transformed distance "
            << v.transformed.str()
            << " is lexicographically negative (Section 4 legality)";
      } else {
        msg << origin << " " << plan_str << " reorders a dependence of '"
            << nest.array(v.array).name << "' with direction vector "
            << dirs_str(v.directions) << " (Section 4 legality)";
      }
      out.error("LMRE-E013", msg.str());
    }
    if (v.witness.has_value() && witnesses < 4) {
      ++witnesses;
      const IterationWitness& w = *v.witness;
      std::ostringstream msg;
      msg << "dependence reversal witness: " << to_string(v.kind)
          << " dependence of '" << nest.array(v.array).name << "' on element "
          << w.element.str() << ", source iteration " << w.src_iter.str()
          << " must precede " << w.dst_iter.str()
          << ", but the plan schedules time " << w.dst_time.str()
          << " before " << w.src_time.str();
      out.error("LMRE-E019", msg.str());
    }
  }

  bool unproven = false;
  for (const DepVerdict& v : res.verdicts) {
    if (!is_memory(v.kind) || v.status != DepStatus::kUnproven) continue;
    if (!unproven) {
      unproven = true;
      std::ostringstream msg;
      msg << origin << " " << plan_str
          << " cannot be certified: the dependence-preservation search for '"
          << nest.array(v.array).name
          << "' exhausted its budget; the verdict is withheld, not legal";
      out.error("LMRE-E013", msg.str());
    }
  }

  // Tiling plan whose tile-shape precondition failed.
  if (res.legal && res.plan.has_tiling() && !res.tileable) {
    for (const DepVerdict& v : res.verdicts) {
      if (v.tileable) continue;
      std::ostringstream msg;
      msg << origin << " tiling step of " << res.plan.str()
          << " is not certified: ";
      if (v.basis == DepBasis::kDistance) {
        msg << "dependence " << v.distance.str() << " transforms to "
            << v.transformed.str();
      } else {
        msg << "a dependence of '" << nest.array(v.array).name
            << "' with direction vector " << dirs_str(v.directions);
      }
      msg << " with a negative component " << v.negative_component
          << " (Irigoin/Triolet, Section 4.1)";
      out.error("LMRE-E013", msg.str());
      if (v.tile_witness.has_value() && v.tile_witness->tiled) {
        const IterationWitness& w = *v.tile_witness;
        std::ostringstream wmsg;
        wmsg << "dependence reversal witness: " << to_string(v.kind)
             << " dependence of '" << nest.array(v.array).name
             << "' on element " << w.element.str() << ", source iteration "
             << w.src_iter.str() << " must precede " << w.dst_iter.str()
             << ", but tiled execution visits the destination first";
        out.error("LMRE-E019", wmsg.str());
      }
      break;
    }
  }

  // Direction-vector granularity warning (non-uniform pairs whose verdicts
  // rest on the cone argument, not exact distances).
  if (res.direction_only) {
    std::set<std::string> names;
    for (const DepVerdict& v : res.verdicts) {
      if (v.basis == DepBasis::kDirection &&
          (v.proof == ProofKind::kCone || v.status == DepStatus::kUnproven)) {
        names.insert(nest.array(v.array).name);
      }
    }
    std::ostringstream msg;
    msg << "dependences of ";
    bool first = true;
    for (const std::string& name : names) {
      if (!first) msg << ", ";
      first = false;
      msg << "'" << name << "'";
    }
    msg << " are analyzed at direction-vector granularity (references are"
           " not uniformly generated); the verdict uses the conservative"
           " cone test, not exact distances";
    out.warning("LMRE-W020", msg.str());
  }

  if (!res.certified) return;

  // Legal but untileable (only a warning when the plan itself does not tile).
  if (!res.tileable && !res.plan.has_tiling()) {
    for (const DepVerdict& v : res.verdicts) {
      if (v.tileable) continue;
      std::ostringstream msg;
      msg << origin << " " << plan_str << " is legal but not tileable: ";
      if (v.basis == DepBasis::kDistance) {
        msg << v.distance.str() << " transforms to " << v.transformed.str();
      } else {
        msg << "a dependence of '" << nest.array(v.array).name
            << "' with direction vector " << dirs_str(v.directions);
      }
      msg << " with a negative component (Irigoin/Triolet, Section 4.1)";
      out.warning("LMRE-W014", msg.str());
      break;
    }
  }

  std::ostringstream cert;
  cert << origin << " " << plan_str << " re-certified legal"
       << (res.tileable ? " and tileable" : "") << " against "
       << res.memory_deps << " memory / " << res.total_deps
       << " total dependence edges";
  out.note("LMRE-N016", cert.str());

  if (!parallel_notes) return;

  std::vector<int> doall;
  for (const LevelClass& lc : res.transformed_levels) {
    if (lc.doall && lc.exact) doall.push_back(lc.level);
  }
  if (!doall.empty()) {
    std::ostringstream msg;
    msg << "transformed level" << (doall.size() > 1 ? "s " : " ");
    for (size_t k = 0; k < doall.size(); ++k) {
      if (k) msg << ", ";
      msg << doall[k];
    }
    msg << (doall.size() > 1 ? " are" : " is")
        << " DOALL-parallel: no memory dependence is carried there";
    out.note("LMRE-N021", msg.str());
  }
  if (res.wavefront_race_free) {
    out.note("LMRE-N022",
             "wavefront schedule is race-free: every memory dependence is"
             " carried by the outermost transformed loop; inner levels are"
             " DOALL");
  }
}

}  // namespace lmre
