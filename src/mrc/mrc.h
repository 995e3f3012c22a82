#pragma once

// Reuse-distance histograms and miss-ratio curves (MRC) as a first-class
// analysis product.
//
// The paper sizes a scratchpad from one number -- the minimum working-set
// window -- but the same exact trace machinery yields LRU stack distances,
// whose histogram answers EVERY fully-associative LRU capacity at once: a
// cache of C elements hits exactly the accesses with distance <= C.  This
// module turns the generalized distance pass (exact/stack_distance.h) into
// a product surface:
//
//   * compute_mrc    -- per-array + aggregate histograms for a nest under
//                       any unimodular execution order, exact or sampled.
//   * Sampling mode  -- deterministic SHARDS-style spatial sampling: an
//                       element is in the sample iff a fixed hash of its
//                       address falls under rate * 2^64, distances are
//                       measured among sampled elements and rescaled by
//                       1/rate, and every run with the same seed sees the
//                       same sample.  Each result carries a declared error
//                       bound on the miss-ratio curve (see DESIGN.md §14);
//                       the property suite measures the bound against the
//                       exact path.
//   * mrc_json       -- the envelope payload: exact bins up to a knee,
//                       log-spaced (power-of-two) buckets above it, the
//                       curve evaluated at a capacity list, and the
//                       cold/capacity miss split.
//   * optimize_miss_ratio -- the optimizer's second objective: re-score
//                       the analytically best candidate plans by exact
//                       miss ratio at a given capacity.
//
// MRC measures an execution order; it does not certify one.  Plans fed to
// compute_mrc should be validated with verify/verify.h when legality
// matters (the session and CLI do).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/nest.h"
#include "linalg/mat.h"
#include "support/json_writer.h"
#include "transform/minimizer.h"

namespace lmre {

class TraceArena;

/// Default sampling seed: fixed so sampled results are reproducible across
/// runs, threads, and hosts unless the caller chooses otherwise.
inline constexpr std::uint64_t kMrcDefaultSeed = 0x6c6d72652d6d7263ULL;

/// Exact JSON bins are kept for distances up to this; larger distances
/// compress into power-of-two buckets (DESIGN.md §14).
inline constexpr Int kMrcExactBinLimit = 128;

/// A reuse-distance histogram with (possibly rescaled) sample weights.
/// In exact mode every weight is an integral access count; in sampled mode
/// bins hold 1/rate per sampled access and `total` is still the TRUE
/// access count (known exactly: iterations x references).
struct MrcHistogram {
  std::map<Int, double> bins;  ///< distance (>= 1) -> access weight
  double cold = 0;   ///< first touches == distinct elements (estimate when sampled)
  double total = 0;  ///< all accesses, sampled or not (exact)

  void add(Int distance, double weight);  ///< distance 0 records a cold touch

  /// Expected misses of a fully-associative LRU cache of `capacity`
  /// elements: cold plus the weight of distances > capacity, clamped to
  /// `total` (rescaled sampled weights can overshoot; real misses cannot).
  double misses(Int capacity) const;
  double miss_ratio(Int capacity) const;  ///< misses / total (0 when empty)
  Int max_distance() const;  ///< largest finite distance (0 when none)
};

/// One referenced array's slice of the curve.
struct MrcArrayCurve {
  std::string name;
  Int refs = 0;  ///< references to this array per iteration
  MrcHistogram hist;
};

struct MrcOptions {
  const IntMat* transform = nullptr;  ///< execution order (unimodular) or null
  double sample_rate = 1.0;           ///< (0, 1]; 1 = exact
  std::uint64_t seed = kMrcDefaultSeed;
};

struct MrcResult {
  MrcHistogram aggregate;
  std::vector<MrcArrayCurve> arrays;  ///< referenced arrays, ArrayId order
  double sample_rate = 1.0;
  Int sampled_elements = 0;  ///< raw sampled distinct count (error-bound input)

  /// Declared bound on the displacement-aware curve error (see
  /// mrc_curve_error below): 0 in exact mode, else 2.5 /
  /// sqrt(sampled_elements) clamped to 1 -- the SHARDS-style
  /// rate-vs-population tradeoff, measured (not derived) by
  /// property_mrc_test and gated by bench_mrc --check.
  double error_bound = 0.0;

  /// Largest finite (rescaled) distance: the capacity at which the curve
  /// reaches the cold-miss floor.
  Int knee = 0;
};

/// Computes histograms + curve for the nest under `opts`.  The arena
/// carries the dense-engine storage and instrumentation across runs.
MrcResult compute_mrc(const LoopNest& nest, const MrcOptions& opts,
                      TraceArena& arena);
MrcResult compute_mrc(const LoopNest& nest, const MrcOptions& opts = {});

/// Default capacity sweep for emission: powers of two from 1 to past the
/// knee, plus the knee itself.
std::vector<Int> default_mrc_capacities(const MrcResult& r);

/// The execution order a curve was measured in, as the payload names it.
struct MrcOrder {
  std::string plan;           ///< the plan spec ("" = identity order)
  std::string method;         ///< the optimizer's method; omitted when empty
  const IntMat* transform{};  ///< the combined matrix
};

/// Writes the JSON payload shared by `lmre mrc --json`, the session's "mrc"
/// kind, and the goldens: histogram (exact bins <= kMrcExactBinLimit,
/// power-of-two buckets above), per-array slices, and the miss-ratio curve
/// at `capacities` with the cold/capacity split, plus the measured order's
/// plan, method and transform when `order` is given.  Exact-mode weights
/// are emitted as integers so envelopes stay byte-stable.
void mrc_json(JsonWriter& w, const MrcResult& r, const std::vector<Int>& capacities,
              const MrcOrder* order = nullptr);

/// The declared-accuracy contract for sampled curves (DESIGN.md §14), used
/// by property_mrc_test and gated by `bench_mrc --check`.  Spatial sampling
/// has two error sources:
///
///   * population error -- too few sampled elements to represent the
///     weight split; bounded vertically by MrcResult::error_bound.
///   * displacement error -- a reuse of true distance d is measured among
///     sampled elements and rescaled by 1/rate, landing at d plus binomial
///     jitter with relative std sqrt((1-R)/(d*R)).  Where the exact curve
///     steps, this shifts the step sideways; no element count shrinks it.
///
/// The metric therefore allows the capacity axis to flex by three jitter
/// stds -- floored at one sampled unit (1/R), the estimator's resolution
/// -- before measuring vertically: the returned value is the distance from
/// sampled.miss_ratio(capacity) to the interval of exact ratios over
/// [c - half, c + half], half = max(3*sqrt(c(1-R)/R), 1/R).  Zero when the
/// sampled point sits inside the corridor; callers compare the result
/// against sampled.error_bound.
double mrc_curve_error(const MrcResult& sampled, const MrcResult& exact,
                       Int capacity);

/// An optimize objective: the default MWS, or miss ratio at a capacity.
struct ObjectiveSpec {
  bool miss_ratio = false;
  Int capacity = 0;  ///< meaningful when miss_ratio

  const char* name() const { return miss_ratio ? "miss-ratio" : "mws"; }
};

/// Parses "":/"mws" (default objective) or "miss-ratio:<capacity>" with a
/// non-negative integer capacity.  nullopt on malformed input.
std::optional<ObjectiveSpec> parse_objective_spec(const std::string& spec);

/// Result of re-scoring the optimizer's candidates by miss ratio.
struct MissRatioPlan {
  IntMat transform;
  std::string method;  ///< CandidatePlan vocabulary
  Int capacity = 0;
  double miss_ratio_before = 0.0;  ///< identity order at `capacity`
  double miss_ratio_after = 0.0;   ///< chosen plan at `capacity`
  Int candidates = 0;              ///< plans re-scored exactly
};

/// Re-scores the top verify_top_k candidate plans (plus the identity) by
/// EXACT miss ratio at `capacity`, reusing `arena` across candidates like
/// the MWS verify loop does.  Ties keep the analytically better candidate.
/// Returns nullopt when the nest's iteration volume exceeds
/// opts.verify_iteration_limit (no exhaustive trace is affordable).
std::optional<MissRatioPlan> optimize_miss_ratio(const LoopNest& nest,
                                                 Int capacity,
                                                 const MinimizerOptions& opts,
                                                 TraceArena& arena);

}  // namespace lmre
