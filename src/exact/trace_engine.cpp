#include "exact/trace_engine.h"

#include <algorithm>

namespace lmre {

namespace {

// Address-space ceiling: volumes and per-level address coefficients are
// kept below 2^61 so the drivers' one-add innermost stepping (which may
// overshoot a row's last valid address by a single step) can never overflow
// int64.  Nests beyond this take the reference engine.
constexpr Int kAddrBound = Int{1} << 61;

// Dense-path policy: a store is dense when its box has at least a few
// thousand elements of headroom, is no larger than kDenseAccessFactor x the
// accesses that will be traced into it (so the reset cost stays
// proportional to the work), and it fits the flat budget.
constexpr Int kDenseMinElems = 4096;
constexpr Int kDenseAccessFactor = 8;
constexpr Int kDenseCapElems = Int{1} << 23;

// Affine range of one subscript row over the iteration box (interval
// arithmetic; exact for boxes).
void subscript_range(const IntVec& row, Int offset, const IntBox& box,
                     Int* lo, Int* hi) {
  Int l = offset, h = offset;
  for (size_t k = 0; k < box.dims(); ++k) {
    const Int a = row[k];
    if (a >= 0) {
      l = checked_add(l, checked_mul(a, box.range(k).lo));
      h = checked_add(h, checked_mul(a, box.range(k).hi));
    } else {
      l = checked_add(l, checked_mul(a, box.range(k).hi));
      h = checked_add(h, checked_mul(a, box.range(k).lo));
    }
  }
  *lo = l;
  *hi = h;
}

size_t next_pow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::optional<AddressPlan> AddressPlan::build(const LoopNest& nest,
                                              const IntMat* t_inv,
                                              bool liveness_order) {
  const IntBox& box = nest.bounds();
  const size_t n = nest.depth();
  AddressPlan plan;
  plan.depth = n;
  plan.iterations = n == 0 ? 0 : box.volume();
  const bool empty = plan.iterations == 0;

  // One store per referenced array, in ArrayId order.
  std::vector<int> store_of(nest.arrays().size(), -1);
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    store_of[id] = static_cast<int>(plan.stores.size());
    Store st;
    st.array = id;
    plan.stores.push_back(std::move(st));
  }

  try {
    // Pass 1: per-array bounding boxes (union of every subscript's affine
    // range over the iteration box) and traced-access counts.
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        Store& st = plan.stores[static_cast<size_t>(store_of[ref.array])];
        st.accesses = checked_add(st.accesses, plan.iterations);
        const size_t d = ref.access.rows();
        if (st.lo.empty()) {
          st.lo.assign(d, 0);
          st.stride.assign(d, 0);  // extents staged here until pass 1 ends
        }
        for (size_t r = 0; r < d; ++r) {
          Int lo = 0, hi = 0;
          if (!empty) subscript_range(ref.access.row(r), ref.offset[r], box, &lo, &hi);
          if (st.accesses == plan.iterations) {  // first ref to this array
            st.lo[r] = lo;
            st.stride[r] = hi;  // staged: per-dim hi
          } else {
            st.lo[r] = std::min(st.lo[r], lo);
            st.stride[r] = std::max(st.stride[r], hi);
          }
        }
      }
    }

    // Finalize boxes: staged his become extents, then row-major strides.
    for (Store& st : plan.stores) {
      const size_t d = st.lo.size();
      std::vector<Int> extent(d);
      for (size_t r = 0; r < d; ++r) {
        extent[r] = checked_add(checked_sub(st.stride[r], st.lo[r]), 1);
      }
      Int vol = 1;
      for (size_t r = d; r-- > 0;) {
        st.stride[r] = vol;
        vol = checked_mul(vol, extent[r]);
      }
      if (vol > kAddrBound) return std::nullopt;
      st.volume = empty ? 0 : vol;
      const Int budget =
          std::max(kDenseMinElems,
                   checked_mul(kDenseAccessFactor, st.accesses));
      st.dense = st.volume <= std::min(budget, kDenseCapElems);
    }

    // Pass 2: per-ref affine address coefficients in scan coordinates.
    for (const auto& stmt : nest.statements()) {
      auto add_ref = [&](const ArrayRef& ref) {
        const Store& st = plan.stores[static_cast<size_t>(store_of[ref.array])];
        Ref pr;
        pr.store = static_cast<size_t>(store_of[ref.array]);
        pr.is_write = ref.is_write();
        IntVec coef;
        ref.linearize(st.lo, st.stride, &coef, &pr.c0);
        if (t_inv != nullptr) {
          // Compose through T^-1: address(u) = coef . (T^-1 u) + c0.
          IntVec composed(n);
          for (size_t k = 0; k < n; ++k) {
            Int v = 0;
            for (size_t j = 0; j < n; ++j) {
              v = checked_add(v, checked_mul(coef[j], (*t_inv)(j, k)));
            }
            composed[k] = v;
          }
          coef = std::move(composed);
        }
        for (size_t k = 0; k < n; ++k) {
          if (checked_abs(coef[k]) > kAddrBound) throw OverflowError("coef");
        }
        pr.coef.assign(coef.data().begin(), coef.data().end());
        plan.refs.push_back(std::move(pr));
      };
      if (liveness_order) {
        // Reads before writes within a statement: the value-liveness order
        // ("A[i] = A[i] + ..." consumes the old value first).
        for (const auto& ref : stmt.refs) {
          if (!ref.is_write()) add_ref(ref);
        }
        for (const auto& ref : stmt.refs) {
          if (ref.is_write()) add_ref(ref);
        }
      } else {
        for (const auto& ref : stmt.refs) add_ref(ref);
      }
    }
  } catch (const OverflowError&) {
    return std::nullopt;
  }
  return plan;
}

namespace trace_detail {

void grow_table(TraceArena::StoreBuf& s) {
  const size_t old_cap = s.keys.size();
  const size_t cap = old_cap * 2;
  std::vector<std::uint64_t> keys(cap, 0);
  std::vector<Int> kfirst(cap), klast(cap);
  std::vector<unsigned char> ktag;
  if (s.with_state) ktag.assign(cap, 0);
  const std::uint64_t mask = cap - 1;
  for (size_t i = 0; i < old_cap; ++i) {
    if (s.keys[i] == 0) continue;
    std::uint64_t j = mix_addr(s.keys[i] - 1) & mask;
    while (keys[j] != 0) j = (j + 1) & mask;
    keys[j] = s.keys[i];
    kfirst[j] = s.kfirst[i];
    klast[j] = s.klast[i];
    if (s.with_state) ktag[j] = s.ktag[i];
  }
  s.keys = std::move(keys);
  s.kfirst = std::move(kfirst);
  s.klast = std::move(klast);
  s.ktag = std::move(ktag);
  s.mask = mask;
}

}  // namespace trace_detail

void TraceArena::prepare(const AddressPlan& plan, bool with_state) {
  if (stores_.size() < plan.stores.size()) stores_.resize(plan.stores.size());
  for (size_t si = 0; si < plan.stores.size(); ++si) {
    const AddressPlan::Store& ps = plan.stores[si];
    StoreBuf& s = stores_[si];
    s.dense = ps.dense;
    s.volume = ps.volume;
    s.with_state = with_state;
    s.touched = 0;
    s.probes = 0;
    s.probe_ops = 0;
    if (ps.dense) {
      s.first.assign(static_cast<size_t>(ps.volume), kUntouchedFirst);
      s.last.assign(static_cast<size_t>(ps.volume), kUntouchedLast);
      if (with_state) s.tag.assign(static_cast<size_t>(ps.volume), 0);
      s.keys.clear();
      s.kfirst.clear();
      s.klast.clear();
      s.ktag.clear();
      s.mask = 0;
    } else {
      // Start at twice the expected occupancy (capped by the box) so the
      // common case never rehashes; the table still grows on demand.
      const Int expect = std::min(ps.volume, ps.accesses);
      const size_t cap = next_pow2(static_cast<size_t>(
          std::min<Int>(std::max<Int>(Int{64}, expect * 2), kDenseCapElems)));
      s.keys.assign(cap, 0);
      s.kfirst.resize(cap);
      s.klast.resize(cap);
      if (with_state) {
        s.ktag.assign(cap, 0);
      } else {
        s.ktag.clear();
      }
      s.mask = cap - 1;
      s.first.clear();
      s.last.clear();
      s.tag.clear();
    }
  }
}

void TraceArena::finish_run(const AddressPlan& plan) {
  ++stats_.runs;
  Int bytes = 0;
  for (const StoreBuf& s : stores_) {
    bytes += static_cast<Int>(s.first.capacity() + s.last.capacity() +
                              s.kfirst.capacity() + s.klast.capacity()) *
             static_cast<Int>(sizeof(Int));
    bytes += static_cast<Int>(s.keys.capacity() * sizeof(std::uint64_t));
    bytes += static_cast<Int>(s.tag.capacity() + s.ktag.capacity());
  }
  stats_.arena_bytes = bytes;
  stats_.arena_high_water_bytes = std::max(stats_.arena_high_water_bytes, bytes);
  for (size_t si = 0; si < plan.stores.size(); ++si) {
    if (plan.stores[si].dense) {
      ++stats_.dense_stores;
    } else {
      ++stats_.sparse_stores;
    }
    const StoreBuf& s = stores_[si];
    stats_.elements += s.touched;
    stats_.accesses += plan.stores[si].accesses;
    stats_.sparse_probes += s.probes;
    stats_.sparse_ops += s.probe_ops;
    if (!s.dense && !s.keys.empty()) {
      stats_.table_occupancy_peak =
          std::max(stats_.table_occupancy_peak,
                   static_cast<double>(s.touched) /
                       static_cast<double>(s.keys.size()));
    }
  }
}

}  // namespace lmre
