#include "alloc/scratchpad.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "exact/oracle.h"
#include "support/error.h"

namespace lmre {

namespace {

struct Interval {
  Int first, last;  // live on [first, last] (ordinals); last > first
  ArrayId array;
  IntVec index;
};

// Collects the live intervals of every element touched in more than one
// iteration, in the chosen execution order.
std::vector<Interval> live_intervals(const LoopNest& nest, const IntMat* t) {
  struct Key {
    ArrayId array;
    IntVec index;
    bool operator==(const Key& o) const {
      return array == o.array && index == o.index;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = std::hash<size_t>()(k.array);
      for (Int v : k.index) {
        h ^= std::hash<Int>()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  std::unordered_map<Key, std::pair<Int, Int>, KeyHash> touch;
  visit_iterations(nest, t, [&](Int ordinal, const IntVec& iter) {
    for (const auto& stmt : nest.statements()) {
      for (const auto& ref : stmt.refs) {
        Key key{ref.array, ref.index_at(iter)};
        auto [it, inserted] = touch.try_emplace(key, std::make_pair(ordinal, ordinal));
        if (!inserted) it->second.second = ordinal;
      }
    }
  });
  std::vector<Interval> out;
  for (auto& [key, fl] : touch) {
    if (fl.second > fl.first) {
      out.push_back(Interval{fl.first, fl.second, key.array, key.index});
    }
  }
  std::sort(out.begin(), out.end(), [](const Interval& a, const Interval& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.last < b.last;
  });
  return out;
}

}  // namespace

Allocation allocate_scratchpad(const LoopNest& nest, const IntMat* transform) {
  std::vector<Interval> intervals = live_intervals(nest, transform);

  Allocation alloc;
  alloc.live_elements = static_cast<Int>(intervals.size());

  // Greedy linear scan: reuse the slot freed the earliest.  An element's
  // slot may be reassigned strictly after its last access (an element is in
  // the window up to, but excluding, its final use -- by then the consumer
  // has read it, matching the window definition).
  std::priority_queue<std::pair<Int, Int>, std::vector<std::pair<Int, Int>>,
                      std::greater<>>
      in_use;  // (last, slot)
  std::vector<Int> free_slots;
  std::vector<Int> assigned(intervals.size(), -1);
  Int next_slot = 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    while (!in_use.empty() && in_use.top().first <= intervals[i].first) {
      free_slots.push_back(in_use.top().second);
      in_use.pop();
    }
    Int slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else {
      slot = next_slot++;
    }
    assigned[i] = slot;
    in_use.emplace(intervals[i].last, slot);
  }
  alloc.slots = next_slot;

  // Verification: no two intervals sharing a slot may overlap in
  // [first, last).  Check per slot in start order.
  std::map<Int, Int> slot_last_end;  // slot -> previous interval's last
  alloc.verified = true;
  for (size_t i = 0; i < intervals.size(); ++i) {
    auto it = slot_last_end.find(assigned[i]);
    if (it != slot_last_end.end() && intervals[i].first < it->second) {
      alloc.verified = false;
      break;
    }
    slot_last_end[assigned[i]] = intervals[i].last;
  }
  return alloc;
}

ModuloBuffer min_modulo_buffer(const LoopNest& nest,
                               const std::map<ArrayId, LayoutSpec>& layouts,
                               const IntMat* transform, Int limit) {
  std::vector<Interval> intervals = live_intervals(nest, transform);
  TraceStats stats =
      transform ? simulate_transformed(nest, *transform) : simulate(nest);

  ModuloBuffer result;
  result.lower_bound = stats.mws_total;
  result.found = true;
  result.modulus = 0;

  // Per array: smallest M with no two same-residue overlapping intervals.
  std::map<ArrayId, std::vector<std::pair<std::pair<Int, Int>, Int>>> by_array;
  for (const auto& iv : intervals) {
    Int addr = layouts.at(iv.array).address(iv.index);
    by_array[iv.array].push_back({{iv.first, iv.last}, addr});
  }
  for (auto& [array, items] : by_array) {
    Int lower = stats.mws.count(array) ? stats.mws.at(array) : 1;
    bool found = false;
    for (Int m = std::max<Int>(lower, 1); m <= limit; ++m) {
      // Bucket by residue; conflict when two intervals in a bucket overlap.
      std::map<Int, std::vector<std::pair<Int, Int>>> buckets;
      for (const auto& [iv, addr] : items) {
        buckets[mod_floor(addr, m)].push_back(iv);
      }
      bool ok = true;
      for (auto& [res, ivs] : buckets) {
        (void)res;
        std::sort(ivs.begin(), ivs.end());
        for (size_t i = 1; i < ivs.size() && ok; ++i) {
          if (ivs[i].first < ivs[i - 1].second) ok = false;  // overlap in [f,l)
        }
        if (!ok) break;
      }
      if (ok) {
        result.modulus = checked_add(result.modulus, m);
        found = true;
        break;
      }
    }
    if (!found) {
      result.found = false;
      result.modulus = checked_add(result.modulus, layouts.at(array).size());
    }
  }
  return result;
}

}  // namespace lmre
