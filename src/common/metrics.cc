#include "src/common/metrics.h"

#include <algorithm>
#include <cmath>

namespace wdg {

void Histogram::Record(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(value);
  } else {
    // Vitter's algorithm R with a cheap xorshift.
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    const uint64_t slot = rng_state_ % static_cast<uint64_t>(count_);
    if (slot < reservoir_.size()) {
      reservoir_[slot] = value;
    }
  }
}

int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::Sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::Mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

double Histogram::Min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::Max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::Percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (reservoir_.empty()) {
    return 0;
  }
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t idx = static_cast<size_t>(std::lround(rank));
  return sorted[std::min(idx, sorted.size() - 1)];
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

std::map<std::string, double> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, counter] : counters_) {
    out[name] = static_cast<double>(counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    out[name + ".count"] = static_cast<double>(hist->count());
    out[name + ".mean"] = hist->Mean();
    out[name + ".p99"] = hist->Percentile(99);
  }
  return out;
}

}  // namespace wdg
