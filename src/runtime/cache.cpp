#include "runtime/cache.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/error.h"

namespace lmre {

std::uint64_t fnv1a(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

ResultCacheConfig normalized(ResultCacheConfig config) {
  if (config.capacity == 0) config.capacity = 1;
  if (config.shards == 0) config.shards = 1;
  if (config.shards > 256) config.shards = 256;
  // Power-of-two shard count: shard selection is a mask over the FNV-1a
  // key, so every key maps without a division.
  size_t pow2 = 1;
  while (pow2 < config.shards) pow2 <<= 1;
  config.shards = pow2;
  if (config.ttl_seconds < 0) config.ttl_seconds = 0;
  return config;
}

}  // namespace

ResultCache::ResultCache(size_t capacity, std::string disk_dir)
    : ResultCache(ResultCacheConfig{capacity, std::move(disk_dir)}) {}

ResultCache::ResultCache(ResultCacheConfig config)
    : config_(normalized(std::move(config))) {
  shards_.reserve(config_.shards);
  const size_t base = config_.capacity / config_.shards;
  const size_t extra = config_.capacity % config_.shards;
  const size_t byte_base = config_.byte_budget / config_.shards;
  for (size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < extra ? 1 : 0);
    if (shard->capacity == 0) shard->capacity = 1;
    shard->byte_budget = config_.byte_budget == 0 ? 0 : byte_base;
    if (config_.byte_budget != 0 && shard->byte_budget == 0) {
      shard->byte_budget = 1;  // a degenerate budget still bounds, never frees
    }
    shards_.push_back(std::move(shard));
  }
}

std::string ResultCache::disk_path(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.lmre",
                static_cast<unsigned long long>(key));
  return config_.disk_dir + "/" + name;
}

namespace {

// Strict header parse: exactly "lmre-cache v1 status=<non-negative int>",
// nothing before, between, or after.  A permissive sscanf here once
// accepted trailing garbage after the status field, silently trusting
// half-corrupted files; any deviation is now a miss.
std::optional<int> parse_cache_header(const std::string& header) {
  constexpr std::string_view kPrefix = "lmre-cache v1 status=";
  if (header.size() <= kPrefix.size() || header.compare(0, kPrefix.size(), kPrefix) != 0) {
    return std::nullopt;
  }
  const char* first = header.data() + kPrefix.size();
  const char* last = header.data() + header.size();
  int status = 0;
  auto [ptr, ec] = std::from_chars(first, last, status);
  if (ec != std::errc() || ptr != last || status < 0) return std::nullopt;
  return status;
}

}  // namespace

std::optional<CachedEntry> ResultCache::disk_load(std::uint64_t key,
                                                  Shard& shard) const {
  const std::string path = disk_path(key);
  if (config_.ttl_seconds > 0) {
    // The disk layer expires by file mtime (rewritten on every put), so a
    // TTL bounds staleness across both layers, not just memory.
    std::error_code ec;
    auto mtime = std::filesystem::last_write_time(path, ec);
    if (!ec) {
      auto age = std::filesystem::file_time_type::clock::now() - mtime;
      if (std::chrono::duration<double>(age).count() > config_.ttl_seconds) {
        std::filesystem::remove(path, ec);
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.expired += 1;
        return std::nullopt;
      }
    }
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string header;
  if (!std::getline(in, header)) return std::nullopt;
  std::optional<int> status = parse_cache_header(header);
  if (!status) {
    return std::nullopt;  // wrong version or corrupted: a miss, not an error
  }
  std::ostringstream payload;
  payload << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return CachedEntry{*status, payload.str()};
}

void ResultCache::disk_store(std::uint64_t key, const CachedEntry& entry) {
  std::error_code ec;
  std::filesystem::create_directories(config_.disk_dir, ec);
  if (ec) return;  // best effort: no disk layer is never fatal
  // Unique temp name per writer thread, then atomic rename: a reader only
  // ever sees complete files, and same-key racers both leave a valid one.
  std::string path = disk_path(key);
  std::ostringstream tmp;
  tmp << path << ".tmp." << std::hash<std::thread::id>{}(std::this_thread::get_id());
  {
    std::ofstream out(tmp.str(), std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << "lmre-cache v1 status=" << entry.status << '\n' << entry.payload;
    if (!out) return;
  }
  std::filesystem::rename(tmp.str(), path, ec);
  if (ec) std::filesystem::remove(tmp.str(), ec);
}

bool ResultCache::expired_locked(const Shard&, const Stored& stored) const {
  if (config_.ttl_seconds <= 0) return false;
  auto age = std::chrono::steady_clock::now() - stored.inserted;
  return std::chrono::duration<double>(age).count() > config_.ttl_seconds;
}

void ResultCache::erase_locked(
    Shard& shard,
    std::unordered_map<std::uint64_t, LruList::iterator>::iterator it) {
  shard.bytes -= it->second->second.entry.payload.size();
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

std::optional<CachedEntry> ResultCache::get_resident(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  if (expired_locked(shard, it->second->second)) {
    // Past the TTL: drop the resident copy; get() goes on to the disk
    // probe / miss path.
    erase_locked(shard, it);
    shard.expired += 1;
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  shard.hits += 1;
  return it->second->second.entry;
}

std::optional<CachedEntry> ResultCache::get(std::uint64_t key) {
  if (std::optional<CachedEntry> entry = get_resident(key)) return entry;
  Shard& shard = shard_for(key);
  if (!config_.disk_dir.empty()) {
    // Disk probe outside the lock: file IO must not serialize the pool.
    if (std::optional<CachedEntry> entry = disk_load(key, shard)) {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.index.find(key) == shard.index.end()) {
        insert_locked(shard, key, *entry);
      }
      shard.hits += 1;
      shard.disk_hits += 1;
      return entry;
    }
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.misses += 1;
  return std::nullopt;
}

void ResultCache::insert_locked(Shard& shard, std::uint64_t key,
                                CachedEntry entry) {
  const size_t entry_bytes = entry.payload.size();
  if (shard.byte_budget != 0 && entry_bytes > shard.byte_budget) {
    // Admission policy: an entry that alone exceeds the shard's whole
    // byte slice would evict everything and still not fit durably.
    shard.admission_rejects += 1;
    return;
  }
  shard.lru.emplace_front(
      key, Stored{std::move(entry), std::chrono::steady_clock::now()});
  shard.index[key] = shard.lru.begin();
  shard.bytes += entry_bytes;
  while (shard.lru.size() > shard.capacity ||
         (shard.byte_budget != 0 && shard.bytes > shard.byte_budget)) {
    shard.bytes -= shard.lru.back().second.entry.payload.size();
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    shard.evictions += 1;
  }
}

void ResultCache::put(std::uint64_t key, CachedEntry entry) {
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: same key, possibly different bytes (and a fresh TTL
      // clock); re-run the policy through a clean re-insert.
      erase_locked(shard, it);
    }
    insert_locked(shard, key, entry);
  }
  if (!config_.disk_dir.empty()) disk_store(key, entry);
}

Int ResultCache::hits() const {
  Int total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->hits;
  }
  return total;
}

Int ResultCache::misses() const {
  Int total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->misses;
  }
  return total;
}

Int ResultCache::disk_hits() const {
  Int total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->disk_hits;
  }
  return total;
}

Int ResultCache::evictions() const {
  Int total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->evictions;
  }
  return total;
}

Int ResultCache::expired() const {
  Int total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->expired;
  }
  return total;
}

Int ResultCache::admission_rejects() const {
  Int total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->admission_rejects;
  }
  return total;
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->lru.size();
  }
  return total;
}

size_t ResultCache::bytes() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->bytes;
  }
  return total;
}

size_t ResultCache::shard_entries_max() const {
  size_t worst = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    worst = std::max(worst, s->lru.size());
  }
  return worst;
}

}  // namespace lmre
