// Process-local metrics: counters, gauges, latency histograms.
//
// The monitored systems (kvs, minizk) export their health indicators here;
// signal-type watchdog checkers read them — exactly the "system health
// indicators" of Table 2's middle row.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wdg {

class Counter {
 public:
  void Increment(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Lock-free: readers (signal checkers, FindGauge callers, the driver's own
// lag gauge) never contend with the loop that sets it. Relaxed, like
// Counter: a gauge publishes one value and orders nothing else.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Fixed-size reservoir histogram; good enough for p50/p99 over bench runs.
class Histogram {
 public:
  explicit Histogram(size_t reservoir_capacity = 4096) : capacity_(reservoir_capacity) {
    reservoir_.reserve(capacity_);  // Record never reallocates after this
  }

  void Record(double value);

  int64_t count() const;
  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  // Nearest-rank percentile over the reservoir; 0 if empty. q in [0,100].
  double Percentile(double q) const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> reservoir_;
  uint64_t rng_state_ = 0x853c49e6748fea9bULL;
};

// Named registry. Instances are created on first use and live as long as the
// registry; returned pointers are stable.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Non-creating lookup: nullptr when the gauge was never published. Lets
  // monitors distinguish "metric reads 0" from "nobody is exporting this
  // metric" without materialising a permanently-zero gauge.
  Gauge* FindGauge(const std::string& name) const;

  // Counter and gauge values by name (histograms export count/mean/p99).
  std::map<std::string, double> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace wdg
