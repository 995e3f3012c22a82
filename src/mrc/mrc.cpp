#include "mrc/mrc.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "exact/stack_distance.h"
#include "exact/trace_engine.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre {

void MrcHistogram::add(Int distance, double weight) {
  if (distance == 0) {
    cold += weight;
  } else {
    bins[distance] += weight;
  }
}

double MrcHistogram::misses(Int capacity) const {
  require(capacity >= 0, "MrcHistogram::misses: negative capacity");
  double m = cold;
  // bins is ordered by distance: sum the tail strictly above the capacity.
  for (auto it = bins.upper_bound(capacity); it != bins.end(); ++it) {
    m += it->second;
  }
  // A miss count can never exceed the access count.  Exact histograms
  // satisfy this by construction; sampled ones rescale per-element weights
  // by 1/rate, and at low rates the estimate can overshoot the (always
  // exact) total.  Clamping keeps miss_ratio in [0, 1], so the sampled
  // curve honors the declared error bound even when that bound is 1.
  return total > 0 ? std::min(m, total) : m;
}

double MrcHistogram::miss_ratio(Int capacity) const {
  return total > 0 ? misses(capacity) / total : 0.0;
}

Int MrcHistogram::max_distance() const {
  return bins.empty() ? 0 : bins.rbegin()->first;
}

MrcResult compute_mrc(const LoopNest& nest, const MrcOptions& opts,
                      TraceArena& arena) {
  require(opts.sample_rate > 0.0 && opts.sample_rate <= 1.0,
          "compute_mrc: sample rate must be in (0, 1]");
  const std::vector<ArrayRef>& refs = nest.all_refs();

  MrcResult res;
  res.sample_rate = opts.sample_rate;

  // Referenced arrays in ArrayId order; slot_of maps a ref to its curve.
  std::vector<size_t> array_slot(nest.arrays().size(), SIZE_MAX);
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    array_slot[id] = res.arrays.size();
    res.arrays.push_back(MrcArrayCurve{nest.array(id).name, 0, {}});
  }
  std::vector<size_t> slot_of(refs.size());
  for (size_t r = 0; r < refs.size(); ++r) {
    slot_of[r] = array_slot[refs[r].array];
    ++res.arrays[slot_of[r]].refs;
  }

  const bool exact = opts.sample_rate >= 1.0;
  DistanceVisitOptions vopts;
  vopts.transform = opts.transform;
  vopts.sample_rate = opts.sample_rate;
  vopts.seed = opts.seed;
  Int sampled_elements = 0;
  if (exact) {
    // Exact mode counts each distance (0 = cold) in dense integer vectors,
    // one for the aggregate and one per array curve, grown to the largest
    // distance seen, and folds them into the bins once: every weight is 1,
    // so a bin's sum of ones is exactly its count.
    std::vector<std::vector<Int>> counts(res.arrays.size() + 1);
    std::vector<Int>& all = counts.back();
    visit_stack_distances(nest, vopts, arena, [&](size_t r, Int distance) {
      const auto d = static_cast<size_t>(distance);
      std::vector<Int>& mine = counts[slot_of[r]];
      if (d >= all.size()) all.resize(d + 1, 0);
      if (d >= mine.size()) mine.resize(all.size(), 0);
      ++all[d];
      ++mine[d];
    });
    auto fold = [](const std::vector<Int>& count, MrcHistogram& hist) {
      for (size_t d = 0; d < count.size(); ++d) {
        if (count[d] > 0) {
          hist.add(static_cast<Int>(d), static_cast<double>(count[d]));
        }
      }
    };
    for (size_t a = 0; a < res.arrays.size(); ++a) {
      fold(counts[a], res.arrays[a].hist);
    }
    fold(all, res.aggregate);
    sampled_elements = all.empty() ? 0 : all[0];
  } else {
    const double weight = 1.0 / opts.sample_rate;
    visit_stack_distances(nest, vopts, arena, [&](size_t r, Int distance) {
      if (distance == 0) ++sampled_elements;
      // SHARDS rescaling: a distance measured among a rate-R sample of the
      // elements estimates R times fewer distinct elements than the truth.
      const Int d = distance == 0
                        ? distance
                        : std::max<Int>(1, std::llround(
                                              static_cast<double>(distance) *
                                              (1.0 / opts.sample_rate)));
      res.aggregate.add(d, weight);
      res.arrays[slot_of[r]].hist.add(d, weight);
    });
  }

  // Totals are exact regardless of sampling: every iteration issues every
  // reference.
  const double iterations = static_cast<double>(nest.iteration_count());
  res.aggregate.total = iterations * static_cast<double>(refs.size());
  for (MrcArrayCurve& a : res.arrays) {
    a.hist.total = iterations * static_cast<double>(a.refs);
  }

  res.sampled_elements = sampled_elements;
  res.error_bound =
      exact ? 0.0
            : std::min(1.0, 2.5 / std::sqrt(static_cast<double>(
                                std::max<Int>(1, sampled_elements))));
  res.knee = res.aggregate.max_distance();
  return res;
}

MrcResult compute_mrc(const LoopNest& nest, const MrcOptions& opts) {
  TraceArena arena;
  return compute_mrc(nest, opts, arena);
}

std::vector<Int> default_mrc_capacities(const MrcResult& r) {
  std::vector<Int> caps;
  const Int knee = std::max<Int>(r.knee, 1);
  for (Int c = 1; c < checked_mul(knee, 2); c = checked_mul(c, 2)) {
    caps.push_back(c);
  }
  caps.push_back(caps.empty() ? 1 : checked_mul(caps.back(), 2));
  if (r.knee > 0) caps.push_back(r.knee);
  std::sort(caps.begin(), caps.end());
  caps.erase(std::unique(caps.begin(), caps.end()), caps.end());
  return caps;
}

namespace {

/// Integral weights in exact mode keep the envelopes byte-stable; sampled
/// weights stay doubles (shortest-round-trip emission is deterministic).
void weight_json(JsonWriter& w, double v, bool exact) {
  if (exact) {
    w.value(static_cast<Int>(std::llround(v)));
  } else {
    w.value(v);
  }
}

void histogram_json(JsonWriter& w, const MrcHistogram& h, bool exact) {
  w.begin_object().key("bins").begin_array();
  // Power-of-two buckets above the exact-bin knee: distance d > limit
  // lands in (2^k, 2^(k+1)] with 2^k < d <= 2^(k+1).
  std::map<Int, std::pair<Int, double>> coarse;  // lo -> (hi, weight)
  for (const auto& [d, wt] : h.bins) {
    if (d <= kMrcExactBinLimit) {
      w.begin_array().value(d);
      weight_json(w, wt, exact);
      w.end_array();
      continue;
    }
    const int k = std::bit_width(static_cast<std::uint64_t>(d - 1)) - 1;
    const Int lo = (Int{1} << k) + 1;
    auto& bucket = coarse[lo];
    bucket.first = Int{1} << (k + 1);
    bucket.second += wt;
  }
  w.end_array().key("buckets").begin_array();
  for (const auto& [lo, hw] : coarse) {
    w.begin_array().value(lo).value(hw.first);
    weight_json(w, hw.second, exact);
    w.end_array();
  }
  w.end_array().key("cold");
  weight_json(w, h.cold, exact);
  w.key("total");
  weight_json(w, h.total, /*exact=*/true);
  w.end_object();
}

}  // namespace

void mrc_json(JsonWriter& w, const MrcResult& r, const std::vector<Int>& capacities,
              const MrcOrder* order) {
  const bool exact = r.sample_rate >= 1.0;
  w.begin_object()
      .field("accesses", static_cast<Int>(std::llround(r.aggregate.total)))
      .key("arrays")
      .begin_array();
  for (const MrcArrayCurve& a : r.arrays) {
    w.begin_object()
        .field("accesses", static_cast<Int>(std::llround(a.hist.total)))
        .key("distinct");
    weight_json(w, a.hist.cold, exact);
    w.key("histogram");
    histogram_json(w, a.hist, exact);
    w.field("knee", a.hist.max_distance())
        .field("name", a.name)
        .field("refs", a.refs)
        .end_object();
  }
  w.end_array().key("cold_misses");
  weight_json(w, r.aggregate.cold, exact);
  w.key("curve").begin_array();
  for (Int c : capacities) {
    const double misses = r.aggregate.misses(c);
    w.begin_object().field("capacity", c).key("capacity_misses");
    weight_json(w, std::max(0.0, misses - r.aggregate.cold), exact);
    w.field("miss_ratio", r.aggregate.miss_ratio(c)).key("misses");
    weight_json(w, misses, exact);
    w.end_object();
  }
  w.end_array().key("distinct");
  weight_json(w, r.aggregate.cold, exact);
  if (!exact) w.field("error_bound", r.error_bound);
  w.field("exact", exact).key("histogram");
  histogram_json(w, r.aggregate, exact);
  w.field("knee", r.knee);
  if (order) {
    if (!order->method.empty()) w.field("method", order->method);
    w.field("plan", order->plan);
  }
  w.field("sample_rate", r.sample_rate);
  if (!exact) w.field("sampled_elements", r.sampled_elements);
  if (order) w.key("transform").matrix(*order->transform);
  w.end_object();
}

double mrc_curve_error(const MrcResult& sampled, const MrcResult& exact,
                       Int capacity) {
  require(capacity >= 0, "mrc_curve_error: negative capacity");
  const double rate = sampled.sample_rate;
  double half = 0.0;
  if (rate < 1.0) {
    // Binomial jitter of a rescaled distance near the capacity, floored at
    // one sampled unit (1/rate): the estimator cannot resolve capacities
    // below the sampling resolution at all.
    half = std::max(3.0 * std::sqrt(static_cast<double>(capacity) *
                                    (1.0 - rate) / rate),
                    1.0 / rate);
  }
  const Int lo = static_cast<Int>(
      std::max(0.0, std::floor(static_cast<double>(capacity) - half)));
  const Int hi =
      static_cast<Int>(std::ceil(static_cast<double>(capacity) + half));
  const double s = sampled.aggregate.miss_ratio(capacity);
  // The exact curve is non-increasing in capacity, so its range over the
  // corridor is [ratio(hi), ratio(lo)].
  const double top = exact.aggregate.miss_ratio(lo);
  const double bot = exact.aggregate.miss_ratio(hi);
  if (s > top) return s - top;
  if (s < bot) return bot - s;
  return 0.0;
}

std::optional<ObjectiveSpec> parse_objective_spec(const std::string& spec) {
  if (spec.empty() || spec == "mws") return ObjectiveSpec{};
  const std::string prefix = "miss-ratio:";
  if (spec.size() <= prefix.size() ||
      spec.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  const std::string digits = spec.substr(prefix.size());
  if (digits.size() > 15) return std::nullopt;
  Int capacity = 0;
  for (char ch : digits) {
    if (ch < '0' || ch > '9') return std::nullopt;
    capacity = capacity * 10 + (ch - '0');
  }
  return ObjectiveSpec{true, capacity};
}

std::optional<MissRatioPlan> optimize_miss_ratio(const LoopNest& nest,
                                                 Int capacity,
                                                 const MinimizerOptions& opts,
                                                 TraceArena& arena) {
  require(capacity >= 0, "optimize_miss_ratio: negative capacity");
  if (nest.iteration_count() > opts.verify_iteration_limit) {
    return std::nullopt;
  }
  std::vector<CandidatePlan> candidates = candidate_plans(nest, opts);
  const size_t k = std::min<size_t>(
      candidates.size(),
      static_cast<size_t>(std::max<Int>(opts.verify_top_k, 1)));
  // Top k plus the identity (the baseline must always be scored), deduped
  // keeping first occurrence, each gated by its own transformed scan
  // volume -- the same selection the MWS verify loop makes.
  std::vector<const CandidatePlan*> to_score;
  for (size_t i = 0; i < k; ++i) to_score.push_back(&candidates[i]);
  for (const auto& c : candidates) {
    if (c.method == "identity") {
      to_score.push_back(&c);
      break;
    }
  }
  std::vector<const CandidatePlan*> unique;
  std::vector<IntMat> seen;
  for (const CandidatePlan* c : to_score) {
    if (std::find(seen.begin(), seen.end(), c->t) != seen.end()) continue;
    seen.push_back(c->t);
    if (transformed_scan_volume(nest, c->t) > opts.verify_iteration_limit) {
      continue;
    }
    unique.push_back(c);
  }

  const IntMat identity = IntMat::identity(nest.depth());
  MrcOptions mo;  // exact mode: the objective is a measurement, not a guess
  const CandidatePlan* best = nullptr;
  double best_ratio = 0.0;
  double before = 0.0;
  for (const CandidatePlan* c : unique) {
    const bool ident = c->t == identity;
    mo.transform = ident ? nullptr : &c->t;
    MrcResult m = compute_mrc(nest, mo, arena);
    const double ratio = m.aggregate.miss_ratio(capacity);
    if (ident) before = ratio;
    // Strict < keeps the analytically better-ranked candidate on ties.
    if (best == nullptr || ratio < best_ratio) {
      best = c;
      best_ratio = ratio;
    }
  }
  ensure(best != nullptr, "miss-ratio re-scoring examined no candidate");

  MissRatioPlan plan;
  plan.transform = best->t;
  plan.method = best->method;
  plan.capacity = capacity;
  plan.miss_ratio_before = before;
  plan.miss_ratio_after = best_ratio;
  plan.candidates = static_cast<Int>(unique.size());
  return plan;
}

}  // namespace lmre
