#include "exact/trace_engine.h"

#include <algorithm>
#include <string>

namespace lmre {

namespace {

// Dense-path policy: a store is dense when its box has at least a few
// thousand elements of headroom, is no larger than kDenseAccessFactor x the
// accesses that will be traced into it (so the reset cost stays
// proportional to the work), and it fits the flat budget.
constexpr Int kDenseMinElems = 4096;
constexpr Int kDenseAccessFactor = 8;
constexpr Int kDenseCapElems = Int{1} << 23;

size_t next_pow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

// True when a store of `volume` elements, into which `accesses` accesses
// will be traced, is kept as flat vectors over its box rather than a
// linear-probe table.
bool dense_store(Int volume, Int accesses) {
  return volume <= kDenseCapElems &&
         (volume <= kDenseMinElems ||
          volume <= kDenseAccessFactor * std::min(accesses, kDenseCapElems));
}

}  // namespace

std::vector<AddressPlan::Store> shared_stores(
    const std::vector<const LoopNest*>& nests,
    std::vector<std::vector<size_t>>* store_of) {
  // One store per referenced name: its bounding box is the union of every
  // subscript's affine range over the iteration boxes, and its checked
  // volume is the plan's one bound (below 2^63, every in-box address is
  // exact as a residue mod 2^64).
  std::vector<AddressPlan::Store> stores;
  std::vector<const std::string*> names;
  std::vector<std::vector<Range>> boxes;  // per store, per dimension
  std::vector<bool> touched;              // per store: some nest iterates
  store_of->assign(nests.size(), {});
  for (size_t k = 0; k < nests.size(); ++k) {
    const LoopNest& nest = *nests[k];
    const IntBox& box = nest.bounds();
    const Int iterations = nest.depth() == 0 ? 0 : box.volume();
    (*store_of)[k].assign(nest.arrays().size(), SIZE_MAX);
    for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
      const std::vector<ArrayRef>& refs = nest.refs_to(id);
      if (refs.empty()) continue;
      const std::string& name = nest.array(id).name;
      const size_t si =
          std::find_if(names.begin(), names.end(),
                       [&](const std::string* n) { return *n == name; }) -
          names.begin();
      const size_t d = refs[0].access.rows();
      if (si == stores.size()) {
        stores.emplace_back().array = id;
        names.push_back(&name);
        boxes.emplace_back(d, Range{INT64_MAX, INT64_MIN});
        touched.push_back(false);
      }
      (*store_of)[k][id] = si;
      // Traced accesses only steer the dense/sparse choice and the table's
      // first size, so they saturate instead of throwing.
      Int& total = stores[si].accesses;
      Int accesses = 0;
      if (__builtin_mul_overflow(static_cast<Int>(refs.size()), iterations,
                                 &accesses) ||
          __builtin_add_overflow(total, accesses, &total)) {
        total = INT64_MAX;
      }
      if (iterations == 0) continue;
      touched[si] = true;
      for (size_t r = 0; r < d; ++r) {
        Range& b = boxes[si][r];
        for (const ArrayRef& ref : refs) {
          try {
            auto [l, h] = subscript_range(ref.access.row(r), ref.offset[r], box);
            b = Range{std::min(b.lo, l), std::max(b.hi, h)};
          } catch (const OverflowError&) {
            b = Range{INT64_MIN, INT64_MAX};  // its volume overflows below
          }
        }
      }
    }
  }
  for (size_t si = 0; si < stores.size(); ++si) {
    AddressPlan::Store& st = stores[si];
    const std::vector<Range>& b = boxes[si];
    st.lo.assign(b.size(), 0);
    st.stride.assign(b.size(), 0);
    if (touched[si]) {
      try {
        Int vol = 1;
        for (size_t r = b.size(); r-- > 0;) {
          st.lo[r] = b[r].lo;
          st.stride[r] = vol;  // row-major
          vol = checked_mul(vol, b[r].trip_count());
        }
        st.volume = vol;
      } catch (const OverflowError&) {
        throw OverflowError("reference box of '" + *names[si] +
                            "' overflows 64-bit arithmetic");
      }
    }
    st.dense = dense_store(st.volume, st.accesses);
  }
  return stores;
}

AddressPlan AddressPlan::build(const LoopNest& nest, const IntMat* t_inv,
                               bool liveness_order) {
  std::vector<std::vector<size_t>> store_of;
  std::vector<Store> stores = shared_stores({&nest}, &store_of);
  return build(nest, t_inv, liveness_order, std::move(stores), store_of[0]);
}

AddressPlan AddressPlan::build(const LoopNest& nest, const IntMat* t_inv,
                               bool liveness_order, std::vector<Store> stores,
                               const std::vector<size_t>& store_of) {
  const size_t n = nest.depth();
  AddressPlan plan;
  plan.depth = n;
  plan.iterations = n == 0 ? 0 : nest.bounds().volume();
  plan.stores = std::move(stores);

  // Per-ref affine address coefficients in scan coordinates,
  // address(i) = sum_d stride[d] * (access[d] . i + offset[d] - lo[d]),
  // composed through T^-1 when given, all modulo 2^64.
  for (const auto& stmt : nest.statements()) {
    auto add_ref = [&](const ArrayRef& ref) {
      const Store& st = plan.stores[store_of[ref.array]];
      Ref pr;
      pr.store = store_of[ref.array];
      pr.is_write = ref.is_write();
      const size_t d = ref.access.rows();
      std::vector<std::uint64_t> coef(n, 0);
      for (size_t r = 0; r < d; ++r) {
        const auto stride = static_cast<std::uint64_t>(st.stride[r]);
        for (size_t k = 0; k < n; ++k) {
          coef[k] += stride * static_cast<std::uint64_t>(ref.access(r, k));
        }
        pr.c0 += stride * (static_cast<std::uint64_t>(ref.offset[r]) -
                           static_cast<std::uint64_t>(st.lo[r]));
      }
      if (t_inv != nullptr) {
        // address(u) = coef . (T^-1 u) + c0.
        pr.coef.assign(n, 0);
        for (size_t k = 0; k < n; ++k) {
          for (size_t j = 0; j < n; ++j) {
            pr.coef[k] += coef[j] * static_cast<std::uint64_t>((*t_inv)(j, k));
          }
        }
      } else {
        pr.coef = std::move(coef);
      }
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
  return plan;
}

std::optional<IntMat> scan_inverse(const LoopNest& nest,
                                   const IntMat* transform) {
  if (transform == nullptr) return std::nullopt;
  require(transform->rows() == nest.depth() && transform->cols() == nest.depth(),
          "exact trace: transform shape mismatch");
  require(transform->is_unimodular(), "exact trace: transform not unimodular");
  return transform->inverse_unimodular();
}

TracePlan plan_trace(const LoopNest& nest, const IntMat* transform,
                     bool liveness_order, const std::vector<Int>& tile_sizes) {
  IntMat identity;
  if (!tile_sizes.empty()) {
    require(tile_sizes.size() == nest.depth(), "exact trace: tile rank mismatch");
    for (Int s : tile_sizes) require(s >= 1, "exact trace: tile sizes must be >= 1");
    if (transform == nullptr) {
      identity = IntMat::identity(nest.depth());
      transform = &identity;
    }
  }
  TracePlan plan;
  plan.nest = &nest;
  plan.t_inv = scan_inverse(nest, transform);
  plan.addr = AddressPlan::build(nest, plan.t_inv ? &*plan.t_inv : nullptr,
                                 liveness_order);
  if (!plan.t_inv) return plan;
  const bool box_image = is_signed_permutation(*transform);
  if (tile_sizes.empty() && !box_image) return plan;
  const IntBox& box = nest.bounds();
  IntBox hull = box.image_hull(*transform);
  if (box_image) {
    // The scan stays inside the iteration space iff T^-1 maps the corners
    // of u_box into the box (both are boxes, T^-1 is a signed
    // permutation): the one check that replaces the per-row endpoint
    // checks.
    IntVec lo(hull.dims()), hi(hull.dims());
    bool empty = false;
    for (size_t k = 0; k < hull.dims(); ++k) {
      lo[k] = hull.range(k).lo;
      hi[k] = hull.range(k).hi;
      empty = empty || lo[k] > hi[k];
    }
    if (!empty) {
      ensure(box.contains(*plan.t_inv * lo) && box.contains(*plan.t_inv * hi),
             "transformed scan left the iteration space");
    }
  }
  if (!tile_sizes.empty()) {
    plan.tiles = tile_sizes;
    plan.hull = hull;
  }
  if (box_image) plan.u_box = std::move(hull);
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
      const Int expect = std::min({ps.volume, ps.accesses, kDenseCapElems});
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
