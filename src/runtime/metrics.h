#pragma once

// Lightweight instrumentation for the analysis runtime: named counters,
// accumulated wall-clock timers, gauges, and fixed-bucket latency
// histograms, rendered through support/json.h.
//
// Every pipeline stage the session runs is bracketed by a ScopedTimer and
// bumps counters (files seen, cache hits/misses, stage executions); `lmre
// batch --metrics=FILE` snapshots the registry into the versioned JSON
// envelope so perf trajectories (BENCH_runtime.json) are machine-readable.
// The serve subsystem records per-request latencies into a histogram whose
// snapshot carries p50/p95/p99 (BENCH_server.json, serve --metrics).
//
// All operations are thread-safe: batch fan-out updates one shared Metrics
// from every worker.  Counters and gauges are exact; timer totals are
// wall-clock sums over concurrent scopes (so a parallel batch's
// "stage.*_ms" can exceed elapsed time -- that is CPU-style accounting,
// documented in DESIGN.md).
//
// Hot paths (the serve admission hit) hold handles instead of names:
// counter_handle / latency_handle resolve a name once to its slot, and
// every later update is an atomic add on that slot -- no lookup, no lock,
// no std::string.  Slots live as long as the registry; the name-keyed
// calls (count, observe_latency) are thin lookups over the same slots.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "support/checked.h"
#include "support/json.h"

namespace lmre {

class Metrics {
  struct CounterSlot;
  struct HistogramSlot;

 public:
  /// A counter name resolved to its slot.  add() is one overflow-checked
  /// atomic add (OverflowError leaves the value unchanged).
  class Counter {
   public:
    void add(Int delta = 1) const;

   private:
    friend class Metrics;
    explicit Counter(CounterSlot* slot) : slot_(slot) {}
    CounterSlot* slot_;
  };

  /// A latency histogram name resolved to its slot; observe() is
  /// observe_latency without the lookup.
  class Latency {
   public:
    void observe(double ms) const;

   private:
    friend class Metrics;
    explicit Latency(HistogramSlot* slot) : slot_(slot) {}
    HistogramSlot* slot_;
  };

  /// The named counter's slot (created at 0).  A counter appears in
  /// to_json only once something was added to it, as with count().
  Counter counter_handle(const std::string& name);

  /// The named latency histogram's slot (created empty; listed in
  /// to_json after its first observation).
  Latency latency_handle(const std::string& name);

  /// Adds `delta` to the named counter (created at 0).
  void count(const std::string& name, Int delta = 1);

  /// Sets the named gauge to `value` (last write wins).
  void gauge(const std::string& name, double value);

  /// Raises the named gauge to `value` if larger (created at `value`);
  /// peak-style gauges (arena high-water, table occupancy) merge with this
  /// so concurrent sessions keep the true maximum.
  void gauge_max(const std::string& name, double value);

  /// Adds `ms` to the named timer's accumulated total and bumps its
  /// observation count.
  void observe_ms(const std::string& name, double ms);

  /// Fixed bucket upper bounds (milliseconds) shared by every latency
  /// histogram; observations above the last bound land in an overflow
  /// bucket.  Fixed buckets keep concurrent recording lock-cheap and make
  /// snapshots from different runs directly comparable.
  static constexpr std::array<double, 17> kLatencyBucketBoundsMs = {
      0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50,
      100,  250, 500, 1000, 2500, 5000, 10000};

  /// Records `ms` into the named fixed-bucket latency histogram (created
  /// empty on first use).
  void observe_latency(const std::string& name, double ms);

  /// Quantile estimate for a latency histogram, q in (0, 1]: linear
  /// interpolation inside the owning bucket; the overflow bucket reports
  /// the observed maximum.  0.0 for an empty or unknown histogram.
  double latency_quantile(const std::string& name, double q) const;

  /// Observation count of the named latency histogram (0 when unknown).
  Int latency_count(const std::string& name) const;

  /// RAII wall-clock scope: accumulates its lifetime into `name` via
  /// observe_ms on destruction.
  class ScopedTimer {
   public:
    ScopedTimer(Metrics& metrics, std::string name)
        : metrics_(&metrics),
          name_(std::move(name)),
          start_(std::chrono::steady_clock::now()) {}
    ~ScopedTimer() {
      std::chrono::duration<double, std::milli> dt =
          std::chrono::steady_clock::now() - start_;
      metrics_->observe_ms(name_, dt.count());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

   private:
    Metrics* metrics_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Starts a wall-clock scope accumulating into `name`.
  ScopedTimer time(std::string name) { return ScopedTimer(*this, std::move(name)); }

  /// Current counter value; 0 when never touched.
  Int counter(const std::string& name) const;

  /// Current gauge value; 0.0 when never set.
  double gauge_value(const std::string& name) const;

  /// Snapshot:
  ///   {"counters": {...}, "gauges": {...},
  ///    "timers_ms": {"<name>": {"total_ms": t, "count": n}, ...},
  ///    "histograms_ms": {"<name>": {"count": n, "total_ms": t,
  ///       "max_ms": m, "p50": ..., "p95": ..., "p99": ...,
  ///       "bounds_ms": [...], "buckets": [...]}, ...}}
  Json to_json() const;

 private:
  struct TimerStat {
    double total_ms = 0.0;
    Int count = 0;
  };
  struct CounterSlot {
    std::atomic<Int> value{0};
    std::atomic<bool> live{false};  ///< added to at least once
  };
  using Buckets = std::array<Int, kLatencyBucketBoundsMs.size() + 1>;
  /// buckets[i] counts observations <= kLatencyBucketBoundsMs[i]; the last
  /// slot is the overflow bucket.  The observation count is the bucket
  /// sum, so a snapshot's count and quantiles always agree.
  struct HistogramSlot {
    std::array<std::atomic<Int>, kLatencyBucketBoundsMs.size() + 1> buckets{};
    std::atomic<double> total_ms{0.0};
    std::atomic<double> max_ms{0.0};

    Buckets load(Int* count) const;
  };

  static double quantile(const Buckets& buckets, Int count, double max_ms,
                         double q);

  // Slots are created under mu_ and never move or die before the
  // registry (std::map nodes are stable); updates go through the atomics.
  mutable std::mutex mu_;
  std::map<std::string, CounterSlot> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, TimerStat> timers_;
  std::map<std::string, HistogramSlot> histograms_;
};

}  // namespace lmre
