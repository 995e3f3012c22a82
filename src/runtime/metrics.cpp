#include "runtime/metrics.h"

#include <algorithm>
#include <cmath>

#include "support/checked.h"

namespace lmre {

void Metrics::Counter::add(Int delta) const {
  Int old = slot_->value.load();
  // checked_add throws before the exchange: an overflow changes nothing.
  while (!slot_->value.compare_exchange_weak(old, checked_add(old, delta))) {
  }
  if (!slot_->live.load(std::memory_order_relaxed)) slot_->live.store(true);
}

void Metrics::Latency::observe(double ms) const {
  size_t b = 0;
  while (b < kLatencyBucketBoundsMs.size() && ms > kLatencyBucketBoundsMs[b]) {
    ++b;
  }
  slot_->total_ms.fetch_add(ms);
  double max = slot_->max_ms.load();
  while (ms > max && !slot_->max_ms.compare_exchange_weak(max, ms)) {
  }
  // The bucket last: an observation a snapshot counts has its total and
  // max in already.
  slot_->buckets[b].fetch_add(1);
}

Metrics::Buckets Metrics::HistogramSlot::load(Int* count) const {
  Buckets out{};
  *count = 0;
  for (size_t b = 0; b < out.size(); ++b) {
    out[b] = buckets[b].load();
    *count += out[b];
  }
  return out;
}

Metrics::Counter Metrics::counter_handle(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Counter(&counters_.try_emplace(name).first->second);
}

Metrics::Latency Metrics::latency_handle(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Latency(&histograms_.try_emplace(name).first->second);
}

void Metrics::count(const std::string& name, Int delta) {
  counter_handle(name).add(delta);
}

void Metrics::gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void Metrics::gauge_max(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void Metrics::observe_ms(const std::string& name, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  TimerStat& t = timers_[name];
  t.total_ms += ms;
  t.count += 1;
}

void Metrics::observe_latency(const std::string& name, double ms) {
  latency_handle(name).observe(ms);
}

double Metrics::quantile(const Buckets& buckets, Int count, double max_ms,
                         double q) {
  if (count == 0) return 0.0;
  Int rank = static_cast<Int>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<Int>(rank, 1, count);
  Int cum = 0;
  double lo = 0.0;
  for (size_t b = 0; b < kLatencyBucketBoundsMs.size(); ++b) {
    const double hi = kLatencyBucketBoundsMs[b];
    if (cum + buckets[b] >= rank) {
      // Linear interpolation inside the owning bucket, clamped to the
      // observed maximum: no quantile exceeds the largest observation.
      const double frac =
          static_cast<double>(rank - cum) / static_cast<double>(buckets[b]);
      return std::clamp(lo + (hi - lo) * frac, 0.0, max_ms);
    }
    cum += buckets[b];
    lo = hi;
  }
  return max_ms;  // overflow bucket: the best point estimate is the max
}

double Metrics::latency_quantile(const std::string& name, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return 0.0;
  Int count = 0;
  Buckets buckets = it->second.load(&count);
  return quantile(buckets, count, it->second.max_ms.load(), q);
}

Int Metrics::latency_count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  Int count = 0;
  if (it != histograms_.end()) it->second.load(&count);
  return count;
}

Int Metrics::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value.load();
}

double Metrics::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Json Metrics::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::object();
  for (const auto& [name, slot] : counters_) {
    if (slot.live.load()) counters.set(name, slot.value.load());
  }
  Json gauges = Json::object();
  for (const auto& [name, v] : gauges_) gauges.set(name, v);
  Json timers = Json::object();
  for (const auto& [name, t] : timers_) {
    timers.set(name,
               Json::object().set("total_ms", t.total_ms).set("count", t.count));
  }
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Int count = 0;
    const Buckets buckets = h.load(&count);
    if (count == 0) continue;  // resolved but never observed
    const double max_ms = h.max_ms.load();
    Json bounds = Json::array();
    for (double b : kLatencyBucketBoundsMs) bounds.push(Json::number(b));
    Json bucket_json = Json::array();
    for (Int c : buckets) bucket_json.push(c);
    histograms.set(name, Json::object()
                             .set("count", count)
                             .set("total_ms", h.total_ms.load())
                             .set("max_ms", max_ms)
                             .set("p50", quantile(buckets, count, max_ms, 0.50))
                             .set("p95", quantile(buckets, count, max_ms, 0.95))
                             .set("p99", quantile(buckets, count, max_ms, 0.99))
                             .set("bounds_ms", std::move(bounds))
                             .set("buckets", std::move(bucket_json)));
  }
  return Json::object()
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("timers_ms", std::move(timers))
      .set("histograms_ms", std::move(histograms));
}

}  // namespace lmre
