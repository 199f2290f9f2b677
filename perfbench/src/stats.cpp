#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::span<const double> values) {
  std::vector<double> copy(values.begin(), values.end());
  return percentile(copy, 50.0);
}

double quiet(std::span<const double> values) {
  std::vector<double> copy(values.begin(), values.end());
  return percentile(copy, 25.0);
}

double tail_percentile_for(std::size_t n, std::size_t beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double above = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (above + 1e-9 >= static_cast<double>(beyond)) return p;
  }
  return 0.0;
}

OpenLoopSchedule::OpenLoopSchedule(std::vector<double> phases,
                                   double rate_per_s, double start_s)
    : rate_(rate_per_s), start_(start_s) {
  if (phases.empty() || !(rate_per_s > 0.0)) {
    throw std::invalid_argument("OpenLoopSchedule: need slots and a rate");
  }
  order_.resize(phases.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return phases[a] < phases[b];
                   });
  sorted_phase_.reserve(phases.size());
  for (const std::uint32_t s : order_) {
    if (phases[s] < 0.0 || phases[s] >= 1.0) {
      throw std::invalid_argument("OpenLoopSchedule: phase outside [0, 1)");
    }
    sorted_phase_.push_back(phases[s]);
  }
  period_ = static_cast<double>(phases.size()) / rate_per_s;
}

double OpenLoopSchedule::due(std::uint64_t j) const {
  const std::uint64_t n = order_.size();
  const double round = static_cast<double>(j / n);
  return start_ + (round + sorted_phase_[j % n]) * period_;
}

std::uint64_t OpenLoopSchedule::events_due_by(double t) const {
  if (t < start_) return 0;
  const double periods = (t - start_) / period_;
  const double whole = std::floor(periods);
  const double frac = periods - whole;
  const auto in_round = static_cast<std::uint64_t>(
      std::upper_bound(sorted_phase_.begin(), sorted_phase_.end(), frac) -
      sorted_phase_.begin());
  return static_cast<std::uint64_t>(whole) * order_.size() + in_round;
}

namespace {

constexpr double kHistMinMs = 1e-4;
constexpr double kHistGrowth = 1.01;
const double kLogGrowth = std::log(kHistGrowth);
constexpr std::size_t kHistBuckets = 2100;  // 0.1 us .. ~120 s

}  // namespace

void LatencyHistogram::add(double ms) {
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  std::size_t b = 0;
  if (ms > kHistMinMs) {
    b = std::min(kHistBuckets - 1,
                 static_cast<std::size_t>(std::log(ms / kHistMinMs) / kLogGrowth));
  }
  ++buckets_[b];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  for (std::size_t b = 0; b < kHistBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (static_cast<double>(seen) > rank) {
      return kHistMinMs * std::pow(kHistGrowth, static_cast<double>(b) + 0.5);
    }
  }
  return kHistMinMs * std::pow(kHistGrowth, static_cast<double>(kHistBuckets));
}

OpenLoopAccount::OpenLoopAccount(std::uint64_t planned, std::size_t windows)
    : planned_(std::max<std::uint64_t>(planned, 1)),
      latency_(std::max<std::size_t>(windows, 1)) {}

void OpenLoopAccount::on_sent(double due_s, double sent_s) {
  ++sent_;
  late_.add(std::max(0.0, sent_s - due_s) * 1e3);
}

void OpenLoopAccount::on_answered(std::uint64_t index, double due_s,
                                  double answered_s, double limit_ms) {
  ++answered_;
  const double ms = (answered_s - due_s) * 1e3;
  const std::size_t window = std::min<std::size_t>(
      latency_.size() - 1, index * latency_.size() / planned_);
  latency_[window].add(ms);
  if (ms > limit_ms) ++over_limit_;
}

double OpenLoopAccount::phase_percentile(double p) const {
  LatencyHistogram pooled;
  for (const auto& h : latency_) pooled.merge(h);
  return pooled.percentile(p);
}

std::vector<double> OpenLoopAccount::window_percentiles(double p) const {
  std::vector<double> per_window;
  for (const auto& h : latency_) {
    if (h.count() > 0) per_window.push_back(h.percentile(p));
  }
  return per_window;
}

bool backlog_growing(std::span<const double> in_flight, double slack) {
  const std::size_t n = in_flight.size();
  if (n < 8) return false;
  const auto quarter_median = [&](std::size_t a, std::size_t b) {
    return median(in_flight.subspan(a, b - a));
  };
  const double second = quarter_median(n / 4, n / 2);
  const double last = quarter_median(n - n / 4, n);
  return last > 2.0 * second + slack;
}

}  // namespace perfbench
