#pragma once

// The batch analysis runtime: one coherent entry point over the whole
// pipeline (parse -> lint -> estimate -> exact MWS -> optimize) with
// memoized results and structured metrics.
//
// An AnalysisSession owns a ResultCache and a Metrics registry and turns
// AnalysisRequests (DSL source + requested pipeline depth) into
// AnalysisResults (exit status + a compact-JSON payload).  Results are
// content-addressed: request_key() hashes the canonicalized source, the
// request kind, and every result-affecting option, so a warm re-run of a
// corpus -- same session, or a fresh process pointed at the same
// --cache-dir -- skips everything after hashing.  `threads` is explicitly
// NOT part of the key: it only sets run_batch's fan-out width and every
// request runs on one thread (DESIGN.md, "Determinism contract"), which is
// what makes cached and fresh results interchangeable at any --threads
// value.
//
// The payload is file-name independent (diagnostics carry line/column but
// no file), so identical sources under different names share one cache
// entry; callers attach the file name when rendering.
//
// Past parse and lint, a request runs its kind's handler
// (runtime/handlers.h) -- the same functions the CLI verbs render from.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "runtime/cache.h"
#include "runtime/metrics.h"
#include "support/error.h"
#include "support/json.h"
#include "support/options.h"

namespace lmre {

struct AnalysisRequest {
  /// How deep to run the pipeline.  Every kind parses and lints; kAnalyze
  /// adds estimates + exact measurements, kOptimize adds the transform
  /// search, kFull runs everything.  kSymbolic derives closed-form
  /// bound-parametric formulas (src/symbolic) and never touches the trace
  /// engine, so its cost is independent of the iteration volume.  kVerify
  /// runs the dependence-preservation prover (src/verify) and embeds the
  /// machine-checkable certificate.  kCodegen lowers the nest to a
  /// standalone C unit (src/codegen) -- original nest plus the plan's
  /// execution order against window-sized modulo buffers -- and optionally
  /// compiles and executes it.  kMrc computes reuse-distance histograms
  /// and the miss-ratio curve (src/mrc), exact or SHARDS-sampled.
  ///
  /// The numeric values are the indices of the matching Options
  /// alternatives (static_asserted below): the variant IS the kind.
  enum class Kind {
    kLint, kAnalyze, kOptimize, kFull, kSymbolic, kVerify, kCodegen, kMrc
  };

  // Per-kind option payloads.  A kind without knobs is an empty tag; only
  // result-affecting fields live here (request_key() hashes every one),
  // so adding a knob to one kind cannot widen or invalidate the others.
  struct Lint {};
  struct Analyze {};
  struct Optimize {
    /// Search objective: "" or "mws" = the paper's window objective;
    /// "miss-ratio:<capacity>" re-scores the top candidates by exact miss
    /// ratio at that LRU capacity (src/mrc).
    std::string objective{};
  };
  struct Full {};
  struct Symbolic {};
  struct Verify {
    /// Transform-plan spec in the verify grammar ("0 1; 1 0",
    /// "[..] | [..] | tile:4,4").  Empty = audit the optimizer's own plan.
    std::string plan{};
  };
  struct Codegen {
    /// Plan to emit: "" = identity order, "auto" = the optimizer's own
    /// (certified-gated) plan, anything else = a verify-grammar spec.
    /// Only certified plans are ever emitted.
    std::string plan{};
    bool run = false;  ///< also compile with `cc` and execute the verdict
    std::string cc{};  ///< compiler override; "" = `cc` from PATH
  };
  struct Mrc {
    /// Execution order to measure: "" = identity, "auto" = the optimizer's
    /// plan, anything else = a verify-grammar spec (unimodular steps only;
    /// tiling chunks are rejected -- MRC measures element traffic of an
    /// iteration reordering).
    std::string plan{};
    /// SHARDS spatial sampling rate in (0, 1]; 1 = exact.
    double sample_rate = 1.0;
    /// Capacities the emitted curve is evaluated at; empty = an automatic
    /// power-of-two sweep through the knee.
    std::vector<Int> capacities{};
  };

  /// One typed payload per kind, alternative index == Kind value.
  using Options =
      std::variant<Lint, Analyze, Optimize, Full, Symbolic, Verify, Codegen,
                   Mrc>;

  std::string source;            ///< DSL text (see ir/parser.h)
  std::string file = "<input>";  ///< display name only; never hashed
  Options options = Full{};

  AnalysisRequest() = default;
  AnalysisRequest(std::string source_, std::string file_, Options options_)
      : source(std::move(source_)),
        file(std::move(file_)),
        options(std::move(options_)) {}
  /// Kind-only construction (default options for that kind) -- keeps the
  /// ubiquitous {source, file, Kind::kX} call shape working.
  AnalysisRequest(std::string source_, std::string file_, Kind kind)
      : source(std::move(source_)), file(std::move(file_)) {
    set_kind(kind);
  }

  Kind kind() const { return static_cast<Kind>(options.index()); }

  /// Replaces options with the default payload of `kind`.
  void set_kind(Kind kind);

  /// The per-kind payloads, when active (nullptr otherwise).
  const Optimize* optimize() const { return std::get_if<Optimize>(&options); }
  const Verify* verify() const { return std::get_if<Verify>(&options); }
  const Codegen* codegen() const { return std::get_if<Codegen>(&options); }
  const Mrc* mrc() const { return std::get_if<Mrc>(&options); }

  /// The plan spec of a kVerify/kCodegen/kMrc request; "" for other kinds.
  const std::string& plan_spec() const;
};

/// One row of the analysis-kind registry.
struct AnalysisKindInfo {
  AnalysisRequest::Kind kind;
  const char* name;     ///< stable wire/CLI name
  const char* summary;  ///< one-liner for --help
};

/// Single source of truth for every request kind.  to_string, the wire
/// parser, the CLI usage text and the kind round-trip tests all read this
/// table; the static_asserts below make "added an enum value but missed a
/// switch" a compile error instead of a runtime surprise.
inline constexpr AnalysisKindInfo kAnalysisKinds[] = {
    {AnalysisRequest::Kind::kLint, "lint", "parse + static checks only"},
    {AnalysisRequest::Kind::kAnalyze, "analyze",
     "estimates + exact window measurement"},
    {AnalysisRequest::Kind::kOptimize, "optimize",
     "transform search with certification gate"},
    {AnalysisRequest::Kind::kFull, "full", "analyze + optimize"},
    {AnalysisRequest::Kind::kSymbolic, "symbolic",
     "closed-form bound-parametric windows"},
    {AnalysisRequest::Kind::kVerify, "verify",
     "dependence-preservation certificate for a plan"},
    {AnalysisRequest::Kind::kCodegen, "codegen",
     "emit (and optionally run) C with window-sized buffers"},
    {AnalysisRequest::Kind::kMrc, "mrc",
     "reuse-distance histogram + miss-ratio curve (exact or sampled)"},
};

inline constexpr size_t kAnalysisKindCount =
    sizeof(kAnalysisKinds) / sizeof(kAnalysisKinds[0]);

static_assert(std::variant_size_v<AnalysisRequest::Options> == kAnalysisKindCount,
              "every AnalysisRequest::Kind needs an Options alternative and "
              "a registry row");

namespace detail {
constexpr bool kind_registry_ordered() {
  for (size_t i = 0; i < kAnalysisKindCount; ++i) {
    if (static_cast<size_t>(kAnalysisKinds[i].kind) != i) return false;
  }
  return true;
}
}  // namespace detail
static_assert(detail::kind_registry_ordered(),
              "kAnalysisKinds rows must appear in enum order");

/// Stable lower-case name from the registry ("lint", ..., "codegen").
const char* to_string(AnalysisRequest::Kind kind);

/// Inverse lookup; nullopt for unknown names.
std::optional<AnalysisRequest::Kind> kind_from_string(std::string_view name);

/// All kind names joined with `sep` ("lint|analyze|...") for usage text
/// and error messages.
std::string kind_names_joined(const char* sep = "|");

/// A failed request's payload body: {"error": {"kind": KIND, "message":
/// M}}, plus "line" and "column" when `line` > 0 (parse errors).
Json error_json(const char* kind, const std::string& message, int line = 0,
                int column = 0);

struct AnalysisResult {
  ExitCode status = ExitCode::kSuccess;
  std::uint64_t key = 0;   ///< content hash the result was cached under
  bool cache_hit = false;  ///< served from the cache (memory or disk)
  /// Compact JSON object text describing the outcome: lint summary +
  /// diagnostics, per-array analysis, program stats, optimize plan, or an
  /// "error" object.  Deterministic for a given (source, kind, options):
  /// keys are sorted and no timing or host information is embedded.
  std::string payload;
};

struct SessionOptions {
  RunOptions run;              ///< batch width / verify_limit / strict
  size_t cache_capacity = 256; ///< in-memory LRU entries (across shards)
  std::string cache_dir;       ///< on-disk store; "" = memory only
  size_t cache_shards = 1;     ///< independently-locked cache shards
  double cache_ttl_seconds = 0;///< > 0: cached results expire after this
  size_t cache_byte_budget = 0;///< > 0: payload-byte cap across shards

  /// The residency policy these options describe (see runtime/cache.h).
  ResultCacheConfig cache_config() const {
    return ResultCacheConfig{cache_capacity, cache_dir, cache_shards,
                             cache_ttl_seconds, cache_byte_budget};
  }
};

class AnalysisSession {
 public:
  explicit AnalysisSession(SessionOptions opts = {});

  /// Shares a ResultCache and Metrics with other sessions -- the `lmre
  /// serve` worker pool runs one session per worker over one warm cache
  /// and one metrics registry.  A null handle falls back to a private
  /// instance built from `opts`; when a shared cache is passed, its
  /// capacity and disk dir win over opts.cache_capacity / opts.cache_dir.
  AnalysisSession(SessionOptions opts, std::shared_ptr<ResultCache> cache,
                  std::shared_ptr<Metrics> metrics);

  /// Runs (or recalls) one request.  Never throws for input-related
  /// failures -- parse errors, lint rejections, overflow all come back as
  /// a status + error payload, so batch drivers survive any corpus.
  AnalysisResult run(const AnalysisRequest& req);

  /// Fans a corpus out over options().run.threads workers
  /// (support/parallel_for); results[i] always corresponds to
  /// requests[i], independent of scheduling.  Each request runs on one
  /// thread.
  std::vector<AnalysisResult> run_batch(const std::vector<AnalysisRequest>& requests);

  /// Memory-only recall by content hash (request_key): the resident
  /// entry itself (shared, not copied), counted as one cached run exactly
  /// as run() counts it; otherwise null, with nothing counted, so a
  /// follow-up run() records the one cache miss.  Never reads the disk
  /// layer.  Thread-safe -- the serve admission path answers warm
  /// requests with it.
  std::shared_ptr<const CachedEntry> recall_resident(std::uint64_t key);

  /// The content hash `run` would use for this request (exposed so tests
  /// can assert invalidation rules).  The source enters in canonical
  /// form -- `#` comments stripped, whitespace runs collapsed to one
  /// space, none leading or trailing -- so formatting-only edits do not
  /// invalidate.
  std::uint64_t request_key(const AnalysisRequest& req) const;

  Metrics& metrics() { return *metrics_; }
  const SessionOptions& options() const { return opts_; }
  const ResultCache& cache() const { return *cache_; }

  /// The owning handles, for sharing with sibling sessions (serve pool).
  const std::shared_ptr<ResultCache>& shared_cache() const { return cache_; }
  const std::shared_ptr<Metrics>& shared_metrics() const { return metrics_; }

  /// Metrics snapshot with the cache counters folded in as gauges
  /// (cache.hits, cache.misses, cache.disk_hits, cache.evictions,
  /// cache.size, cache.hit_rate, plus the shard-policy aggregates
  /// cache.shards/bytes/expired/admission_rejects/shard_entries_max).
  Json metrics_json();

 private:
  std::string compute_payload(const AnalysisRequest& req, ExitCode* status);

  SessionOptions opts_;
  std::shared_ptr<ResultCache> cache_;
  std::shared_ptr<Metrics> metrics_;
  Metrics::Counter runs_total_;   ///< every run or recall
  Metrics::Counter runs_cached_;  ///< the ones a cache entry answered
};

/// Folds the cache counters and shard-policy aggregates into `metrics` as
/// gauges -- the shared shape behind AnalysisSession::metrics_json and the
/// serve snapshot.
void export_cache_gauges(Metrics& metrics, const ResultCache& cache);

}  // namespace lmre
