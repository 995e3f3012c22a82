#pragma once

// Memoized result store for the analysis runtime.
//
// Results are keyed by a 64-bit FNV-1a content hash of (canonicalized
// source, request kind, result-affecting options) -- see
// AnalysisSession::request_key for the exact recipe and DESIGN.md for the
// invalidation rules.  Two layers:
//
//  * an in-memory store sharded into N independently-locked shards (shard
//    selected by the low bits of the FNV-1a key), each with its own LRU
//    list, so concurrent serve workers do not serialize on one global
//    mutex, and
//  * an optional on-disk store (`--cache-dir`) holding one file per key,
//    so a warm re-run of a corpus in a fresh process skips everything
//    after hashing.
//
// Residency policy (in-memory layer): per-shard LRU under an entry-count
// capacity, plus an optional TTL and an optional global payload-byte
// budget (both split evenly across shards).  Results are content-addressed
// and immutable, so neither TTL nor the budget is a correctness mechanism
// -- they only bound how long and how much the warm layer retains under
// memory pressure.  An entry older than the TTL reads as a miss (and the
// disk copy expires by file mtime); an entry larger than a shard's whole
// byte budget is never admitted (counted in admission_rejects()).
//
// The cached value is the *serialized* result: the exit status plus the
// compact-JSON payload text the session produced.  Storing text (rather
// than a structure) makes the bit-identity contract trivial -- a hit
// returns byte-for-byte what the miss computed -- and lets the disk layer
// round-trip without a JSON parser (lmre only emits JSON).
//
// Disk file format (versioned, self-describing):
//   line 1:  "lmre-cache v1 status=<int>"   (parsed strictly: any extra
//            bytes on the header line, or a negative/non-numeric status,
//            invalidate the file)
//   rest:    the payload bytes, verbatim
// Unreadable, truncated, or version-mismatched files are treated as
// misses (never errors): the cache is an accelerator, not a source of
// truth.  Writes go through a per-thread temp file + atomic rename so
// concurrent workers racing on one key leave a complete file either way.
//
// All public methods are thread-safe.  Aggregate counters sum the shards
// without a global lock, so a snapshot taken under concurrent traffic is
// per-shard consistent rather than a single instant.

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/checked.h"

namespace lmre {

/// 64-bit FNV-1a over `data`, continuing from `seed` (chain calls to hash
/// multi-part keys without concatenating).
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// One memoized result: the exit status (ExitCode as int) and the
/// compact-JSON payload text.
struct CachedEntry {
  int status = 0;
  std::string payload;
};

/// Construction-time policy for a ResultCache.  (`CacheConfig` names the
/// cachesim hardware model; this is the runtime result store's policy.)
struct ResultCacheConfig {
  size_t capacity = 256;     ///< total in-memory entries across all shards
  std::string disk_dir{};    ///< persistent layer directory; "" disables it
  size_t shards = 1;         ///< rounded up to a power of two, clamped [1, 256]
  double ttl_seconds = 0.0;  ///< > 0: entries expire this long after insert
  size_t byte_budget = 0;    ///< > 0: total payload-byte cap across shards
};

class ResultCache {
 public:
  /// Single-shard cache (the pre-sharding shape): `capacity` in-memory
  /// entries, optional disk layer, no TTL, no byte budget.
  explicit ResultCache(size_t capacity, std::string disk_dir = "");

  /// Full policy control; see ResultCacheConfig.
  explicit ResultCache(ResultCacheConfig config);

  /// Lookup: memory first, then disk (a disk hit is promoted into
  /// memory).  Updates hit/miss counters.
  std::optional<CachedEntry> get(std::uint64_t key);

  /// Memory-only lookup: the resident, unexpired entry for `key`, shared
  /// rather than copied (it stays valid after an eviction), or null.
  /// Counts a hit (and drops an entry past its TTL, counting it expired)
  /// but never counts a miss and never touches the disk layer -- a caller
  /// that gets null is expected to follow up with get(), which records
  /// the one miss.  Cheap enough for the serve admission path.
  std::shared_ptr<const CachedEntry> get_resident(std::uint64_t key);

  /// Inserts (or refreshes) the entry, evicting the shard's LRU tail past
  /// its entry or byte limits, and writes through to disk when enabled.
  void put(std::uint64_t key, CachedEntry entry);

  /// Counters since construction (disk hits are counted in hits() too).
  Int hits() const;
  Int misses() const;
  Int disk_hits() const;
  Int evictions() const;
  /// In-memory entries dropped (and disk files removed) past the TTL.
  Int expired() const;
  /// Entries refused admission because they alone exceed a shard's byte
  /// budget (they still write through to disk).
  Int admission_rejects() const;

  /// Current in-memory entry count across all shards.
  size_t size() const;
  /// Current in-memory payload bytes across all shards.
  size_t bytes() const;
  /// Entry count of the fullest shard (load-imbalance indicator).
  size_t shard_entries_max() const;

  size_t shard_count() const { return shards_.size(); }
  const std::string& disk_dir() const { return config_.disk_dir; }
  const ResultCacheConfig& config() const { return config_; }

 private:
  struct Stored {
    std::shared_ptr<const CachedEntry> entry;  ///< immutable once stored
    std::chrono::steady_clock::time_point inserted;
  };
  using LruList = std::list<std::pair<std::uint64_t, Stored>>;

  struct Shard {
    mutable std::mutex mu;
    LruList lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, LruList::iterator> index;
    size_t capacity = 1;     ///< this shard's entry slice
    size_t byte_budget = 0;  ///< this shard's byte slice; 0 = none
    size_t bytes = 0;        ///< resident payload bytes
    Int hits = 0, misses = 0, disk_hits = 0, evictions = 0;
    Int expired = 0, admission_rejects = 0;
  };

  Shard& shard_for(std::uint64_t key) {
    return *shards_[key & (shards_.size() - 1)];
  }
  const Shard& shard_for(std::uint64_t key) const {
    return *shards_[key & (shards_.size() - 1)];
  }

  std::string disk_path(std::uint64_t key) const;
  std::optional<CachedEntry> disk_load(std::uint64_t key, Shard& shard) const;
  void disk_store(std::uint64_t key, const CachedEntry& entry);
  /// Inserts under the shard lock, applying admission and eviction policy.
  void insert_locked(Shard& shard, std::uint64_t key,
                     std::shared_ptr<const CachedEntry> entry);
  void erase_locked(Shard& shard,
                    std::unordered_map<std::uint64_t,
                                       LruList::iterator>::iterator it);
  bool expired_locked(const Shard& shard, const Stored& stored) const;

  ResultCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lmre
