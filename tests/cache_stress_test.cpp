// Concurrency stress for the shared ResultCache and the serve pool's
// single-flight table (satellites of the serve subsystem): many threads
// hammering overlapping keys through one cache with a live disk layer,
// the same traffic through a sharded/TTL/byte-budget configuration, the
// memory-only admission probe racing puts, evictions and expiry, and
// racing leaders on a SingleFlight.  Designed to run under TSan
// (scripts/tier1.sh TSan stage) to catch torn reads and counter races.
//
// Invariants checked:
//  * a get() either misses or returns a COMPLETE entry -- the payload is
//    always the exact canonical text for that key, never a torn mix of
//    two writers (each key has exactly one canonical value, so any
//    deviation is a torn read);
//  * hits() + misses() == total get() probes, exactly, across all threads;
//  * the in-memory layer never exceeds its capacity (entries or bytes);
//  * for every key, concurrent lead_or_wait races elect EXACTLY one
//    leader, and finish() hands that leader every parked waiter.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cache.h"
#include "server/coalesce.h"

namespace lmre {
namespace {

// One canonical value per key: torn reads become content mismatches.
std::string value_for(std::uint64_t key) {
  std::string payload = "{\"key\":" + std::to_string(key) + ",\"pad\":\"";
  payload.append(256 + static_cast<size_t>(key % 64),
                 static_cast<char>('a' + key % 26));
  payload += "\"}";
  return payload;
}

int status_for(std::uint64_t key) { return static_cast<int>(key % 5); }

TEST(ResultCacheStress, OverlappingKeysAcrossThreadsWithDiskLayer) {
  const std::string dir = ::testing::TempDir() + "lmre_cache_stress";
  std::filesystem::remove_all(dir);

  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  constexpr std::uint64_t kKeys = 32;  // << capacity * threads: heavy overlap
  constexpr size_t kCapacity = 16;     // < kKeys: eviction under contention

  ResultCache cache(kCapacity, dir);

  std::vector<long> probes(kThreads, 0);
  std::vector<int> torn(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread-specific stride so threads collide on keys in different
      // orders; every key is both read and written by several threads.
      for (int r = 0; r < kRounds; ++r) {
        std::uint64_t key =
            (static_cast<std::uint64_t>(r) * (2 * t + 1) + t) % kKeys;
        if (auto entry = cache.get(key)) {
          if (entry->payload != value_for(key) ||
              entry->status != status_for(key)) {
            torn[t] += 1;
          }
        } else {
          cache.put(key, {status_for(key), value_for(key)});
        }
        probes[t] += 1;
      }
    });
  }
  for (auto& th : threads) th.join();

  long total_probes = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_probes += probes[t];
    EXPECT_EQ(torn[t], 0) << "thread " << t << " saw torn/corrupt entries";
  }
  EXPECT_EQ(total_probes, static_cast<long>(kThreads) * kRounds);
  // Every probe is accounted as exactly one hit or one miss.
  EXPECT_EQ(cache.hits() + cache.misses(), total_probes);
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
  EXPECT_LE(cache.size(), kCapacity);

  // The disk layer holds only complete, strictly-parseable files: a fresh
  // cache over the same dir serves every key back intact.
  ResultCache reader(kKeys, dir);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    auto entry = reader.get(key);
    ASSERT_TRUE(entry.has_value()) << "key " << key << " lost on disk";
    EXPECT_EQ(entry->payload, value_for(key));
    EXPECT_EQ(entry->status, status_for(key));
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheStress, ShardedConfigKeepsInvariantsUnderContention) {
  // The same overlapping-key traffic through the fleet configuration:
  // many shards, a TTL that never fires inside the test, and a byte
  // budget tight enough to force byte-driven evictions.
  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  constexpr std::uint64_t kKeys = 64;

  ResultCacheConfig cfg;
  cfg.capacity = 48;
  cfg.shards = 8;
  cfg.ttl_seconds = 3600.0;       // armed, but nothing expires mid-test
  cfg.byte_budget = 48 * 200;     // ~half the working set's bytes
  ResultCache cache(cfg);
  ASSERT_EQ(cache.shard_count(), 8u);

  std::vector<long> probes(kThreads, 0);
  std::vector<int> torn(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::uint64_t key =
            (static_cast<std::uint64_t>(r) * (2 * t + 1) + t) % kKeys;
        if (auto entry = cache.get(key)) {
          if (entry->payload != value_for(key) ||
              entry->status != status_for(key)) {
            torn[t] += 1;
          }
        } else {
          cache.put(key, {status_for(key), value_for(key)});
        }
        probes[t] += 1;
      }
    });
  }
  for (auto& th : threads) th.join();

  long total_probes = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_probes += probes[t];
    EXPECT_EQ(torn[t], 0) << "thread " << t << " saw torn/corrupt entries";
  }
  EXPECT_EQ(cache.hits() + cache.misses(), total_probes);
  EXPECT_EQ(cache.expired(), 0);  // the armed TTL never fired
  EXPECT_LE(cache.size(), cfg.capacity);
  EXPECT_LE(cache.bytes(), cfg.byte_budget);
  EXPECT_LE(cache.shard_entries_max(), cfg.capacity / cfg.shards);
  EXPECT_GT(cache.evictions(), 0);  // the budget actually pushed back
}

TEST(ResultCacheStress, ResidentLookupRacesPutsUnderTinyCapacityAndTtl) {
  // The serve admission probe (get_resident) spins on hot keys for as long
  // as writers churn a cache small enough, and a TTL short enough, that
  // the probed entries are constantly evicted, expired and re-inserted
  // under it.
  constexpr int kWriters = 3;
  constexpr int kRounds = 2000;
  constexpr std::uint64_t kHotKeys = 4;
  constexpr std::uint64_t kKeys = 6;  // > capacity: evictions too

  ResultCacheConfig cfg;
  cfg.capacity = 4;
  cfg.ttl_seconds = 0.0001;
  ResultCache cache(cfg);

  std::atomic<bool> writers_done{false};
  long resident_hits = 0;
  int torn_reads = 0;
  std::vector<long> writer_hits(kWriters, 0), writer_misses(kWriters, 0);
  std::thread reader([&] {
    for (std::uint64_t r = 0; !writers_done.load(std::memory_order_acquire); ++r) {
      const std::uint64_t key = r % kHotKeys;
      if (auto entry = cache.get_resident(key)) {
        resident_hits += 1;
        if (entry->payload != value_for(key) ||
            entry->status != status_for(key)) {
          torn_reads += 1;
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::uint64_t key =
            (static_cast<std::uint64_t>(r) * (2 * t + 1) + t) % kKeys;
        if (cache.get(key)) {
          writer_hits[t] += 1;
        } else {
          writer_misses[t] += 1;
          cache.put(key, {status_for(key), value_for(key)});
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  writers_done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn_reads, 0);
  long hits = resident_hits, misses = 0;
  for (int t = 0; t < kWriters; ++t) {
    hits += writer_hits[t];
    misses += writer_misses[t];
  }
  // The resident probe counts its hits and nothing else.
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_LE(cache.size(), cfg.capacity);
}

TEST(SingleFlightStress, ExactlyOneLeaderPerKeyAndNoLostWaiters) {
  // kThreads threads race lead_or_wait on every key; exactly one thread
  // per key may win leadership, and its finish() must recover all
  // kThreads - 1 parked jobs.  Leaders spin until every racer for the
  // key has registered, mimicking a worker that computes while waiters
  // pile onto the flight.
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;

  SingleFlight<int> flights;
  std::vector<std::atomic<int>> leaders(kKeys);
  std::vector<std::atomic<int>> arrivals(kKeys);
  std::vector<std::atomic<int>> recovered(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    leaders[k] = 0;
    arrivals[k] = 0;
    recovered[k] = 0;
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kKeys; ++k) {
        int job = t;
        bool leader = flights.lead_or_wait(static_cast<std::uint64_t>(k), &job);
        arrivals[k].fetch_add(1);
        if (!leader) continue;  // parked: the leader answers for us
        leaders[k].fetch_add(1);
        // "Compute" until every thread has arrived at this key, so the
        // flight provably collects all kThreads - 1 waiters.
        while (arrivals[k].load() < kThreads) std::this_thread::yield();
        std::vector<int> waiters =
            flights.finish(static_cast<std::uint64_t>(k));
        recovered[k].fetch_add(static_cast<int>(waiters.size()));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(leaders[k].load(), 1) << "key " << k << " elected != 1 leader";
    EXPECT_EQ(recovered[k].load(), kThreads - 1)
        << "key " << k << " lost waiters";
  }
  EXPECT_EQ(flights.open(), 0u);
}

}  // namespace
}  // namespace lmre
