#include "codegen/codegen.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "exact/trace_engine.h"
#include "layout/layout.h"
#include "polyhedra/scanner.h"
#include "support/error.h"
#include "support/text.h"
#include "transform/transformed.h"

namespace lmre {

namespace {

using U64 = std::uint64_t;

// splitmix64: the seed mixer both the host (salt derivation) and the
// emitted C (array initialization) use.  Fixed constants, no host state,
// so emission is byte-deterministic.
U64 mix64(U64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string u64_lit(U64 v) { return std::to_string(v) + "ull"; }

std::string c_ident(const std::string& s) {
  std::string out;
  for (char c : s) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "k" + out;
  return out;
}

// Renders coeffs . vars + c0 as a C expression ("3*u0 - u1 + 7").
std::string affine_c(const IntVec& coeffs, Int c0,
                     const std::vector<std::string>& names) {
  std::string out;
  for (size_t k = 0; k < coeffs.size(); ++k) {
    Int c = coeffs[k];
    if (c == 0) continue;
    if (out.empty()) {
      if (c == -1) out += "-";
      else if (c != 1) out += std::to_string(c) + "*";
    } else {
      out += c > 0 ? " + " : " - ";
      Int a = c > 0 ? c : checked_neg(c);
      if (a != 1) out += std::to_string(a) + "*";
    }
    out += names[k];
  }
  if (out.empty()) return std::to_string(c0);
  if (c0 > 0) out += " + " + std::to_string(c0);
  if (c0 < 0) out += " - " + std::to_string(checked_neg(c0));
  return out;
}

// One Fourier-Motzkin bound as C: ceil/floor division only when needed.
std::string bound_c(const Bound& b, const std::vector<std::string>& names,
                    bool lower) {
  std::string e = affine_c(b.expr.coeffs(), b.expr.constant(), names);
  if (b.divisor == 1) return e;
  return std::string(lower ? "lm_cdiv(" : "lm_fdiv(") + e + ", " +
         std::to_string(b.divisor) + ")";
}

// max/min fold of a bound list (lm_max(lm_max(a, b), c)).
std::string bounds_c(const std::vector<Bound>& bs,
                     const std::vector<std::string>& names, bool lower) {
  std::string out = bound_c(bs.at(0), names, lower);
  for (size_t i = 1; i < bs.size(); ++i) {
    out = std::string(lower ? "lm_max(" : "lm_min(") + out + ", " +
          bound_c(bs[i], names, lower) + ")";
  }
  return out;
}

// Per-element access history from the host walk of the emitted order.
// Times are access ordinals (t), iterations are point ordinals (it).
struct ElemInfo {
  Int addr = 0;
  Int first_t = 0, last_t = 0;
  Int first_it = 0, last_it = 0;
  bool first_read = false;
  bool written = false;
};

struct ArrayPlan {
  ArrayId id;
  std::string cname;
  LayoutSpec layout;
  Int region;
  // addr -> elems slot: a slot per region address when the trace engine
  // would keep this array's store dense, a hash map otherwise (so a sparse
  // nest over a huge region allocates only what it touches).
  bool dense = false;
  std::vector<std::uint32_t> slot = {};
  std::unordered_map<Int, size_t> index = {};
  std::vector<ElemInfo> elems = {};  // first-access order
  BufferPlan out = {};

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  // The element at `addr`: its slot, and whether this access is its first.
  std::pair<size_t, bool> find_or_add(Int addr) {
    if (dense) {
      std::uint32_t& s = slot[static_cast<size_t>(addr)];
      if (s != kNoSlot) return {s, false};
      s = static_cast<std::uint32_t>(elems.size());
      return {s, true};
    }
    auto ins = index.emplace(addr, elems.size());
    return {ins.first->second, ins.second};
  }
};

// Linearized reference: position in the body plus address forms over the
// original iteration vector (coef_i) and the transformed one (coef_u).
struct RefPlan {
  size_t arr_slot = 0;  // index into the ArrayPlan vector
  bool write = false;
  IntVec coef_i;
  Int c0 = 0;
  IntVec coef_u;
};

bool collision_free(const std::vector<ElemInfo>& elems, Int m) {
  std::vector<Int> last(static_cast<size_t>(m), -1);
  for (const ElemInfo& e : elems) {
    size_t r = static_cast<size_t>(mod_floor(e.addr, m));
    if (last[r] >= e.first_t) return false;
    last[r] = e.last_t;
  }
  return true;
}

}  // namespace

double CodegenResult::footprint_ratio() const {
  if (original_cells <= 0) return 0.0;
  return static_cast<double>(window_cells) / static_cast<double>(original_cells);
}

CodegenResult emit_c(const LoopNest& nest, const VerifyPlan& plan,
                     const CodegenOptions& opts) {
  const size_t n = nest.depth();

  // --- structural gates ------------------------------------------------
  for (size_t k = 0; k < plan.steps.size(); ++k) {
    const IntMat& s = plan.steps[k];
    if (s.rows() != n || s.cols() != n || !s.is_unimodular()) {
      throw UnsupportedError("codegen: plan step " + std::to_string(k + 1) +
                             " is not an n x n unimodular matrix");
    }
  }
  const std::vector<Int>& tiles = plan.tile_sizes;
  if (!tiles.empty()) {
    if (tiles.size() != n) throw UnsupportedError("codegen: tile rank mismatch");
    for (Int s : tiles) {
      if (s < 1) throw UnsupportedError("codegen: tile sizes must be >= 1");
    }
  }
  if (nest.iteration_count() <= 0) {
    throw UnsupportedError("codegen: empty iteration space");
  }
  if (nest.iteration_count() > opts.trace_limit) {
    throw UnsupportedError(
        "codegen: iteration volume " + std::to_string(nest.iteration_count()) +
        " exceeds the trace limit " + std::to_string(opts.trace_limit));
  }

  CodegenResult res;
  res.combined = plan.combined(n);
  res.tile_sizes = tiles;

  TransformedNest tn(nest, res.combined);
  const IntMat& t_inv = tn.inverse();
  LoopBounds fm = tn.bounds();

  // --- referenced arrays and linearized references ---------------------
  std::vector<ArrayPlan> arrays;
  std::unordered_map<ArrayId, size_t> arr_slot;
  for (const Statement& stmt : nest.statements()) {
    for (const ArrayRef& ref : stmt.refs) {
      if (arr_slot.count(ref.array)) continue;
      arr_slot[ref.array] = arrays.size();
      LayoutSpec layout = LayoutSpec::fit(nest, ref.array);
      const Int region = layout.size();
      ArrayPlan& ap = arrays.emplace_back(ArrayPlan{
          ref.array, c_ident(nest.array(ref.array).name), std::move(layout), region});
      Int accesses = 0;  // saturates: it only steers the index choice
      if (__builtin_mul_overflow(static_cast<Int>(nest.refs_to(ref.array).size()),
                                 nest.iteration_count(), &accesses)) {
        accesses = INT64_MAX;
      }
      ap.dense = dense_store(ap.region, accesses);
      if (ap.dense) ap.slot.assign(static_cast<size_t>(ap.region), ArrayPlan::kNoSlot);
    }
  }
  // Deterministic emission order: by ArrayId.
  std::sort(arrays.begin(), arrays.end(),
            [](const ArrayPlan& a, const ArrayPlan& b) { return a.id < b.id; });
  for (size_t s = 0; s < arrays.size(); ++s) arr_slot[arrays[s].id] = s;

  // refs[stmt] split into emitted access order: reads first, then writes.
  std::vector<std::vector<RefPlan>> reads(nest.statements().size());
  std::vector<std::vector<RefPlan>> writes(nest.statements().size());
  for (size_t si = 0; si < nest.statements().size(); ++si) {
    for (const ArrayRef& ref : nest.statements()[si].refs) {
      const ArrayPlan& ap = arrays[arr_slot[ref.array]];
      std::vector<Int> lo = ap.layout.origin().to_vector();
      std::vector<Int> stride(ap.layout.extents().size(), 1);
      for (size_t d = stride.size(); d-- > 1;) {
        stride[d - 1] = checked_mul(stride[d], ap.layout.extents()[d]);
      }
      RefPlan rp;
      rp.arr_slot = arr_slot[ref.array];
      rp.write = ref.is_write();
      ref.linearize(lo, stride, &rp.coef_i, &rp.c0);
      rp.coef_u = IntVec(n);
      for (size_t k = 0; k < n; ++k) {
        Int acc = 0;
        for (size_t d = 0; d < n; ++d) {
          acc = checked_add(acc, checked_mul(rp.coef_i[d], t_inv(d, k)));
        }
        rp.coef_u[k] = acc;
      }
      (rp.write ? writes[si] : reads[si]).push_back(std::move(rp));
    }
  }

  // --- host walk of the emitted execution order ------------------------
  // Pass 1: transformed-space extent (tile anchor) and iteration count.
  bool any = false;
  IntVec base(n), umax(n);
  Int iters = 0;
  scan(fm, [&](const IntVec& u) {
    if (!any) {
      base = u;
      umax = u;
      any = true;
    } else {
      for (size_t k = 0; k < n; ++k) {
        base[k] = std::min(base[k], u[k]);
        umax[k] = std::max(umax[k], u[k]);
      }
    }
    ++iters;
  });
  if (!any) throw UnsupportedError("codegen: empty iteration space");
  res.iterations = iters;

  // The emitted order: plain lexicographic scan of the FM bounds, or --
  // with tiling -- tiles (anchored at the space's per-axis minimum) in
  // lexicographic order, lexicographic within each tile.  The generated C
  // loops below mirror this walk shape for shape.
  auto for_each_point = [&](const std::function<void(const IntVec&)>& fn) {
    if (tiles.empty()) {
      scan(fm, fn);
      return;
    }
    IntVec u(n), tau(n);
    std::function<void(size_t)> point = [&](size_t k) {
      if (k == n) {
        fn(u);
        return;
      }
      Int lo, hi;
      if (!fm.range(k, u, lo, hi)) return;
      Int tb = checked_add(base[k], checked_mul(tau[k], tiles[k]));
      Int plo = std::max(lo, tb);
      Int phi = std::min(hi, checked_add(tb, tiles[k] - 1));
      for (Int v = plo; v <= phi; ++v) {
        u[k] = v;
        point(k + 1);
      }
      u[k] = 0;
    };
    std::function<void(size_t)> tile = [&](size_t k) {
      if (k == n) {
        point(0);
        return;
      }
      Int tmax = floor_div(checked_sub(umax[k], base[k]), tiles[k]);
      for (Int tv = 0; tv <= tmax; ++tv) {
        tau[k] = tv;
        tile(k + 1);
      }
    };
    tile(0);
  };

  // Pass 2: per-element first/last access times in that order.
  Int it = 0, t = 0;
  auto touch = [&](const RefPlan& rp, const IntVec& u) {
    Int addr = rp.c0;
    for (size_t k = 0; k < n; ++k) {
      addr = checked_add(addr, checked_mul(rp.coef_u[k], u[k]));
    }
    ArrayPlan& ap = arrays[rp.arr_slot];
    require(addr >= 0 && addr < ap.region, "codegen: address out of region");
    auto [slot, first] = ap.find_or_add(addr);
    if (first) {
      ElemInfo e;
      e.addr = addr;
      e.first_t = e.last_t = t;
      e.first_it = e.last_it = it;
      e.first_read = !rp.write;
      e.written = rp.write;
      ap.elems.push_back(e);
    } else {
      ElemInfo& e = ap.elems[slot];
      e.last_t = t;
      e.last_it = it;
      e.written = e.written || rp.write;
    }
    ++t;
  };
  for_each_point([&](const IntVec& u) {
    for (size_t si = 0; si < nest.statements().size(); ++si) {
      for (const RefPlan& rp : reads[si]) touch(rp, u);
      for (const RefPlan& rp : writes[si]) touch(rp, u);
    }
    ++it;
  });

  // --- window sweep, traffic prediction, modulus search ----------------
  std::vector<Int> total_delta(static_cast<size_t>(iters) + 1, 0);
  for (ArrayPlan& ap : arrays) {
    std::vector<Int> delta(static_cast<size_t>(iters) + 1, 0);
    for (const ElemInfo& e : ap.elems) {
      if (e.first_read) ap.out.cold_loads++;
      if (e.written) ap.out.writebacks++;
      if (e.last_it > e.first_it) {
        delta[static_cast<size_t>(e.first_it)]++;
        delta[static_cast<size_t>(e.last_it)]--;
        total_delta[static_cast<size_t>(e.first_it)]++;
        total_delta[static_cast<size_t>(e.last_it)]--;
      }
    }
    Int cur = 0, peak = 0;
    for (Int d : delta) {
      cur += d;
      peak = std::max(peak, cur);
    }
    ap.out.array = ap.id;
    ap.out.name = nest.array(ap.id).name;
    ap.out.declared = nest.array(ap.id).declared_size();
    ap.out.region = ap.region;
    ap.out.mws = peak;

    // Smallest modulus >= the window with no two live elements sharing a
    // slot (closed access-time spans per residue class must be disjoint).
    // The touched-region size is always collision free (addresses are
    // distinct), so the search is bounded; past the probe window we take
    // the region directly.
    Int lo_m = std::max<Int>(ap.out.mws, 1);
    Int best = ap.region;
    Int cap = std::min<Int>(std::min<Int>(ap.region - 1, opts.modulus_limit),
                            checked_add(lo_m, 4096));
    for (Int m = lo_m; m <= cap; ++m) {
      if (collision_free(ap.elems, m)) {
        best = m;
        break;
      }
    }
    ap.out.modulus = std::max<Int>(best, 1);
    ap.out.collision_free = true;

    res.original_cells = checked_add(res.original_cells, ap.out.declared);
    res.window_cells = checked_add(res.window_cells, ap.out.modulus);
  }
  {
    Int cur = 0, peak = 0;
    for (Int d : total_delta) {
      cur += d;
      peak = std::max(peak, cur);
    }
    res.mws_total = peak;
  }

  Int pred_loads = 0, pred_stores = 0;
  for (const ArrayPlan& ap : arrays) {
    pred_loads = checked_add(pred_loads, ap.out.cold_loads);
    pred_stores = checked_add(pred_stores, ap.out.writebacks);
  }

  // --- emission ---------------------------------------------------------
  const std::string stem = "lm_" + c_ident(opts.stem);
  std::vector<std::string> vnames, unames;
  for (size_t k = 0; k < n; ++k) {
    vnames.push_back("v" + std::to_string(k));
    unames.push_back("u" + std::to_string(k));
  }
  auto g = [&](const std::string& suffix) { return stem + "_" + suffix; };

  std::ostringstream os;
  if (opts.standalone) {
    os << "/* generated by lmre codegen -- deterministic output, do not edit */\n";
  }
  // Shared runtime helpers, concatenation-safe for batched translation
  // units that append several non-standalone emissions.
  os << "#ifndef LMRE_RT\n#define LMRE_RT\n"
     << "#include <stdint.h>\n#include <stdio.h>\n"
     << "static inline uint64_t lm_mix64(uint64_t x) {\n"
     << "  x += 0x9E3779B97F4A7C15ull;\n"
     << "  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;\n"
     << "  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;\n"
     << "  return x ^ (x >> 31);\n}\n"
     << "static inline int64_t lm_fdiv(int64_t a, int64_t b) {\n"
     << "  int64_t q = a / b, r = a % b;\n"
     << "  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;\n}\n"
     << "static inline int64_t lm_cdiv(int64_t a, int64_t b) { return -lm_fdiv(-a, b); }\n"
     << "static inline int64_t lm_max(int64_t a, int64_t b) { return a > b ? a : b; }\n"
     << "static inline int64_t lm_min(int64_t a, int64_t b) { return a < b ? a : b; }\n"
     << "#endif /* LMRE_RT */\n\n";

  os << "/* kernel '" << opts.stem << "': depth " << n << ", plan "
     << plan.str() << ", " << iters << " iterations */\n";

  // Globals.
  for (const ArrayPlan& ap : arrays) {
    os << "static uint64_t " << g("orig_" + ap.cname) << "[" << ap.region
       << "];\n"
       << "static uint64_t " << g("back_" + ap.cname) << "[" << ap.region
       << "];\n"
       << "static uint64_t " << g("buf_" + ap.cname) << "[" << ap.out.modulus
       << "];\n"
       << "static int64_t " << g("tag_" + ap.cname) << "[" << ap.out.modulus
       << "];\n"
       << "static uint8_t " << g("dirty_" + ap.cname) << "[" << ap.out.modulus
       << "];\n"
       << "static uint8_t " << g("seen_" + ap.cname) << "[" << ap.region
       << "];\n"
       << "static int64_t " << g("fst_" + ap.cname) << "[" << ap.region
       << "];\n"
       << "static int64_t " << g("lst_" + ap.cname) << "[" << ap.region
       << "];\n";
  }
  os << "static int64_t " << g("delta") << "[" << (iters + 1) << "];\n"
     << "static int64_t " << g("delta_tot") << "[" << (iters + 1) << "];\n"
     << "static uint64_t " << g("loads") << ", " << g("stores") << ", "
     << g("reloads") << ", " << g("occ") << ";\n"
     << "static uint64_t " << g("sink_o") << ", " << g("sink_w") << ";\n\n";

  // init(): seed both copies identically, reset bookkeeping.
  os << "static void " << g("init") << "(void) {\n  int64_t i;\n";
  for (const ArrayPlan& ap : arrays) {
    U64 salt = mix64(0xA77Aull + static_cast<U64>(ap.id));
    os << "  for (i = 0; i < " << ap.region << "; ++i) {\n"
       << "    uint64_t v = lm_mix64(" << u64_lit(salt)
       << " + (uint64_t)i);\n"
       << "    " << g("orig_" + ap.cname) << "[i] = v;\n"
       << "    " << g("back_" + ap.cname) << "[i] = v;\n"
       << "    " << g("seen_" + ap.cname) << "[i] = 0;\n"
       << "    " << g("fst_" + ap.cname) << "[i] = -1;\n"
       << "    " << g("lst_" + ap.cname) << "[i] = -1;\n  }\n"
       << "  for (i = 0; i < " << ap.out.modulus << "; ++i) {\n"
       << "    " << g("tag_" + ap.cname) << "[i] = -1;\n"
       << "    " << g("dirty_" + ap.cname) << "[i] = 0;\n  }\n";
  }
  os << "}\n\n";

  // Value formula pieces shared by both versions: the statement salt, the
  // per-dimension iteration mixers and the per-read-slot coefficients (all
  // odd, so corruption propagates through the products).
  auto value_expr = [&](size_t si, const std::vector<std::string>& idx_names,
                        size_t read_count) {
    std::string e = u64_lit(mix64(0x51D0ull + static_cast<U64>(si)));
    for (size_t d = 0; d < n; ++d) {
      e += " + " +
           u64_lit(mix64(0xA1ull + 16 * static_cast<U64>(si) + d) | 1) +
           " * (uint64_t)" + idx_names[d];
    }
    for (size_t k = 0; k < read_count; ++k) {
      e += " + " +
           u64_lit(mix64(0xC0FFEEull + 64 * static_cast<U64>(si) + k) | 1) +
           " * lm_r" + std::to_string(k);
    }
    return e;
  };

  // original(): the untransformed nest over full arrays.
  os << "static void " << g("original") << "(void) {\n";
  {
    std::string ind = "  ";
    for (size_t k = 0; k < n; ++k) {
      const Range& r = nest.bounds().range(k);
      os << ind << "for (int64_t " << vnames[k] << " = " << r.lo << "; "
         << vnames[k] << " <= " << r.hi << "; ++" << vnames[k] << ") {\n";
      ind += "  ";
    }
    for (size_t si = 0; si < nest.statements().size(); ++si) {
      os << ind << "{\n";
      for (size_t k = 0; k < reads[si].size(); ++k) {
        const RefPlan& rp = reads[si][k];
        os << ind << "  uint64_t lm_r" << k << " = "
           << g("orig_" + arrays[rp.arr_slot].cname) << "["
           << affine_c(rp.coef_i, rp.c0, vnames) << "];\n";
      }
      os << ind << "  uint64_t lm_v = "
         << value_expr(si, vnames, reads[si].size()) << ";\n";
      if (writes[si].empty()) {
        os << ind << "  " << g("sink_o") << " += lm_v;\n";
      }
      for (const RefPlan& rp : writes[si]) {
        os << ind << "  " << g("orig_" + arrays[rp.arr_slot].cname) << "["
           << affine_c(rp.coef_i, rp.c0, vnames) << "] = lm_v;\n";
      }
      os << ind << "}\n";
    }
    for (size_t k = n; k-- > 0;) {
      ind = ind.substr(2);
      os << ind << "}\n";
    }
  }
  os << "}\n\n";

  // Loop headers of the transformed (optionally tiled) nest; returns the
  // body indent.  Mirrors for_each_point above exactly.
  auto emit_exec_loops = [&](std::ostringstream& o) {
    std::string ind = "  ";
    if (!tiles.empty()) {
      for (size_t k = 0; k < n; ++k) {
        Int tmax = floor_div(checked_sub(umax[k], base[k]), tiles[k]);
        o << ind << "for (int64_t t" << k << " = 0; t" << k << " <= " << tmax
          << "; ++t" << k << ") {\n";
        ind += "  ";
      }
    }
    for (size_t k = 0; k < n; ++k) {
      std::string lo = bounds_c(fm.lowers[k], unames, true);
      std::string hi = bounds_c(fm.uppers[k], unames, false);
      if (!tiles.empty()) {
        std::string tb = "(" + std::to_string(base[k]) + " + t" +
                         std::to_string(k) + "*" + std::to_string(tiles[k]) +
                         ")";
        std::string te = "(" +
                         std::to_string(checked_add(base[k], tiles[k] - 1)) +
                         " + t" + std::to_string(k) + "*" +
                         std::to_string(tiles[k]) + ")";
        lo = "lm_max(" + lo + ", " + tb + ")";
        hi = "lm_min(" + hi + ", " + te + ")";
      }
      o << ind << "for (int64_t " << unames[k] << " = " << lo << "; "
        << unames[k] << " <= " << hi << "; ++" << unames[k] << ") {\n";
      ind += "  ";
    }
    return ind;
  };
  auto close_exec_loops = [&](std::ostringstream& o, std::string ind) {
    size_t levels = n + (tiles.empty() ? 0 : n);
    for (size_t k = 0; k < levels; ++k) {
      ind = ind.substr(2);
      o << ind << "}\n";
    }
  };

  // record(): first/last iteration ordinal per element, in emitted order.
  // The buffered pass and the window sweep both consume this.
  os << "static void " << g("record") << "(void) {\n"
     << "  int64_t lm_it = 0;\n";
  {
    std::string ind = emit_exec_loops(os);
    for (size_t si = 0; si < nest.statements().size(); ++si) {
      auto rec = [&](const RefPlan& rp) {
        const ArrayPlan& ap = arrays[rp.arr_slot];
        os << ind << "{ int64_t lm_a = " << affine_c(rp.coef_u, rp.c0, unames)
           << "; if (" << g("fst_" + ap.cname) << "[lm_a] < 0) "
           << g("fst_" + ap.cname) << "[lm_a] = lm_it; "
           << g("lst_" + ap.cname) << "[lm_a] = lm_it; }\n";
      };
      for (const RefPlan& rp : reads[si]) rec(rp);
      for (const RefPlan& rp : writes[si]) rec(rp);
    }
    os << ind << "++lm_it;\n";
    close_exec_loops(os, ind);
  }
  os << "}\n\n";

  // window(): the transformed nest against the modulo buffers.  Direct-
  // mapped write-back staging: a read miss evicts (writing back a dirty
  // occupant), then fetches; a write claims the slot without a fetch.
  // Correct for ANY modulus; with the collision-free one no live element
  // ever loses its slot, which the reload counter proves at run time.
  os << "static void " << g("window") << "(void) {\n";
  {
    std::string ind = emit_exec_loops(os);
    auto miss_prologue = [&](const ArrayPlan& ap, const std::string& pad) {
      os << pad << "if (" << g("tag_" + ap.cname) << "[lm_s] != lm_a) {\n"
         << pad << "  if (" << g("tag_" + ap.cname) << "[lm_s] >= 0) {\n"
         << pad << "    if (" << g("dirty_" + ap.cname) << "[lm_s]) { "
         << g("back_" + ap.cname) << "[" << g("tag_" + ap.cname)
         << "[lm_s]] = " << g("buf_" + ap.cname) << "[lm_s]; "
         << g("dirty_" + ap.cname) << "[lm_s] = 0; ++" << g("stores")
         << "; }\n"
         << pad << "  } else { ++" << g("occ") << "; }\n"
         << pad << "  if (" << g("seen_" + ap.cname) << "[lm_a]) ++"
         << g("reloads") << ";\n"
         << pad << "  " << g("seen_" + ap.cname) << "[lm_a] = 1;\n";
    };
    for (size_t si = 0; si < nest.statements().size(); ++si) {
      os << ind << "{\n";
      std::string ind2 = ind + "  ";
      // Original-space indices feed the value formula in both versions.
      for (size_t d = 0; d < n; ++d) {
        os << ind2 << "int64_t li" << d << " = "
           << affine_c(t_inv.row(d), 0, unames) << ";\n";
      }
      std::vector<std::string> linames;
      for (size_t d = 0; d < n; ++d) linames.push_back("li" + std::to_string(d));
      for (size_t k = 0; k < reads[si].size(); ++k) {
        const RefPlan& rp = reads[si][k];
        const ArrayPlan& ap = arrays[rp.arr_slot];
        os << ind2 << "uint64_t lm_r" << k << ";\n"
           << ind2 << "{ int64_t lm_a = " << affine_c(rp.coef_u, rp.c0, unames)
           << "; int64_t lm_s = lm_a % " << ap.out.modulus << ";\n";
        miss_prologue(ap, ind2 + "  ");
        os << ind2 << "    " << g("buf_" + ap.cname) << "[lm_s] = "
           << g("back_" + ap.cname) << "[lm_a];\n"
           << ind2 << "    " << g("tag_" + ap.cname) << "[lm_s] = lm_a; ++"
           << g("loads") << ";\n"
           << ind2 << "  }\n"
           << ind2 << "  lm_r" << k << " = " << g("buf_" + ap.cname)
           << "[lm_s]; }\n";
      }
      os << ind2 << "uint64_t lm_v = "
         << value_expr(si, linames, reads[si].size()) << ";\n";
      if (writes[si].empty()) {
        os << ind2 << g("sink_w") << " += lm_v;\n";
      }
      for (const RefPlan& rp : writes[si]) {
        const ArrayPlan& ap = arrays[rp.arr_slot];
        os << ind2 << "{ int64_t lm_a = " << affine_c(rp.coef_u, rp.c0, unames)
           << "; int64_t lm_s = lm_a % " << ap.out.modulus << ";\n";
        miss_prologue(ap, ind2 + "  ");
        os << ind2 << "    " << g("tag_" + ap.cname) << "[lm_s] = lm_a;\n"
           << ind2 << "  }\n"
           << ind2 << "  " << g("buf_" + ap.cname) << "[lm_s] = lm_v; "
           << g("dirty_" + ap.cname) << "[lm_s] = 1; }\n";
      }
      os << ind << "}\n";
    }
    close_exec_loops(os, ind);
  }
  os << "}\n\n";

  // check(): run everything, drain, sweep the measured window, compare.
  // Returns a bitmask: 1 = array mismatch, 2 = sink mismatch, 4 = window
  // != prediction, 8 = traffic != prediction.
  os << "static int " << g("check") << "(void) {\n"
     << "  int64_t i; int status = 0;\n"
     << "  " << g("init") << "();\n"
     << "  " << g("original") << "();\n"
     << "  " << g("record") << "();\n"
     << "  " << g("window") << "();\n";
  for (const ArrayPlan& ap : arrays) {
    os << "  for (i = 0; i < " << ap.out.modulus << "; ++i) if ("
       << g("dirty_" + ap.cname) << "[i]) { " << g("back_" + ap.cname) << "["
       << g("tag_" + ap.cname) << "[i]] = " << g("buf_" + ap.cname)
       << "[i]; " << g("dirty_" + ap.cname) << "[i] = 0; ++" << g("stores")
       << "; }\n";
  }
  os << "  int64_t lm_bad = 0;\n";
  for (const ArrayPlan& ap : arrays) {
    os << "  for (i = 0; i < " << ap.region << "; ++i) if ("
       << g("orig_" + ap.cname) << "[i] != " << g("back_" + ap.cname)
       << "[i]) ++lm_bad;\n";
  }
  os << "  if (lm_bad) status |= 1;\n"
     << "  if (" << g("sink_o") << " != " << g("sink_w") << ") status |= 2;\n"
     << "  int lm_mws_ok = 1; int64_t lm_mws_meas = 0, lm_cur, lm_peak;\n"
     << "  for (i = 0; i <= " << iters << "; ++i) " << g("delta_tot")
     << "[i] = 0;\n";
  for (const ArrayPlan& ap : arrays) {
    os << "  for (i = 0; i <= " << iters << "; ++i) " << g("delta")
       << "[i] = 0;\n"
       << "  for (i = 0; i < " << ap.region << "; ++i)\n"
       << "    if (" << g("fst_" + ap.cname) << "[i] >= 0 && "
       << g("lst_" + ap.cname) << "[i] > " << g("fst_" + ap.cname)
       << "[i]) {\n"
       << "      ++" << g("delta") << "[" << g("fst_" + ap.cname) << "[i]]; --"
       << g("delta") << "[" << g("lst_" + ap.cname) << "[i]];\n"
       << "      ++" << g("delta_tot") << "[" << g("fst_" + ap.cname)
       << "[i]]; --" << g("delta_tot") << "[" << g("lst_" + ap.cname)
       << "[i]];\n    }\n"
       << "  lm_cur = 0; lm_peak = 0;\n"
       << "  for (i = 0; i <= " << iters << "; ++i) { lm_cur += " << g("delta")
       << "[i]; if (lm_cur > lm_peak) lm_peak = lm_cur; }\n"
       << "  if (lm_peak != " << ap.out.mws << ") lm_mws_ok = 0; /* "
       << ap.out.name << ": engine window " << ap.out.mws << ", buffer "
       << ap.out.modulus << " */\n";
  }
  os << "  lm_cur = 0;\n"
     << "  for (i = 0; i <= " << iters << "; ++i) { lm_cur += "
     << g("delta_tot")
     << "[i]; if (lm_cur > lm_mws_meas) lm_mws_meas = lm_cur; }\n"
     << "  if (lm_mws_meas != " << res.mws_total << ") lm_mws_ok = 0;\n"
     << "  if (!lm_mws_ok) status |= 4;\n"
     << "  int lm_traffic_ok = (" << g("loads") << " == " << pred_loads
     << "ull) && (" << g("stores") << " == " << pred_stores << "ull) && ("
     << g("reloads") << " == 0ull);\n"
     << "  if (!lm_traffic_ok) status |= 8;\n"
     << "  printf(\"{\\\"kernel\\\": \\\"" << opts.stem
     << "\\\", \\\"identical\\\": %d, \\\"sink_match\\\": %d, "
        "\\\"loads\\\": %llu, \\\"stores\\\": %llu, \\\"reloads\\\": %llu, "
        "\\\"occupied\\\": %llu, \\\"mws_measured\\\": %lld, "
        "\\\"mws_predicted\\\": %lld, \\\"window_cells\\\": %lld, "
        "\\\"mws_ok\\\": %d, \\\"traffic_ok\\\": %d, \\\"status\\\": %d}\\n\",\n"
     << "         lm_bad == 0, " << g("sink_o") << " == " << g("sink_w")
     << ", (unsigned long long)" << g("loads") << ", (unsigned long long)"
     << g("stores") << ", (unsigned long long)" << g("reloads")
     << ", (unsigned long long)" << g("occ")
     << ", (long long)lm_mws_meas, (long long)" << res.mws_total
     << ", (long long)" << res.window_cells
     << ", lm_mws_ok, lm_traffic_ok, status);\n"
     << "  return status;\n"
     << "}\n";

  if (opts.standalone) {
    os << "\nint main(void) { return " << g("check")
       << "() == 0 ? 0 : 1; }\n";
  }

  for (const ArrayPlan& ap : arrays) res.buffers.push_back(ap.out);
  res.c_source = os.str();
  return res;
}

}  // namespace lmre
