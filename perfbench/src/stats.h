// Sample statistics and open-loop schedule arithmetic for the benchmark.
// Pure functions over plain vectors so tests/logic_test.cpp can pin them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
/// 0.0 for an empty sample. Sorts `values` in place.
[[nodiscard]] double percentile(std::vector<double>& values, double p);

/// Median of an unsorted sample (copies it).
[[nodiscard]] double median(std::span<const double> values);

/// Lower quartile of an unsorted sample (copies it). Latency figures take
/// it over per-window percentiles: a spell of interference from other
/// tenants of the machine that covers up to three quarters of the windows
/// does not move it, while a slower program moves every window.
[[nodiscard]] double quiet(std::span<const double> values);

/// The highest of the candidate tail percentiles (99.9, 99, 95, 90, 75, 50)
/// that has at least `beyond` samples above it in a sample of size n, or
/// 0.0 when not even the median qualifies. A timing is reported as its
/// median plus this percentile.
[[nodiscard]] double tail_percentile_for(std::size_t n,
                                         std::size_t beyond = 10);

/// Open-loop arrival schedule over a fleet of N sessions that all tick at
/// the same period but at seeded phases: session s ticks at
///   start + (round + phase[s]) * period,  period = N / rate.
/// Event j is the j-th arrival in due-time order, so the aggregate stream
/// has exactly `rate` arrivals per second and no burst larger than the
/// phase collisions the seed produced.
class OpenLoopSchedule {
 public:
  /// `phases` in [0, 1), one per session slot.
  OpenLoopSchedule(std::vector<double> phases, double rate_per_s,
                   double start_s);

  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] double period() const { return period_; }
  /// Session slot of event j.
  [[nodiscard]] std::uint32_t slot(std::uint64_t j) const {
    return order_[j % order_.size()];
  }
  /// Due time (seconds on the caller's clock) of event j.
  [[nodiscard]] double due(std::uint64_t j) const;
  /// Number of events due at or before time t.
  [[nodiscard]] std::uint64_t events_due_by(double t) const;

 private:
  std::vector<std::uint32_t> order_;  ///< slots sorted by phase
  std::vector<double> sorted_phase_;  ///< phase of order_[i]
  double rate_ = 0.0;
  double period_ = 0.0;
  double start_ = 0.0;
};

/// Log-bucketed latency histogram (1% relative resolution from 0.1 us to
/// 100 s) so an open-loop phase's memory does not grow with its rate.
class LatencyHistogram {
 public:
  void add(double ms);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  void merge(const LatencyHistogram& other);
  /// Percentile (p in [0, 100]) on the same rank rule as percentile(),
  /// read at the owning bucket's geometric centre; 0.0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Per-request accounting of an open-loop phase: latency runs from the
/// due time (so a stalled sender charges the wait to every request behind
/// it), lateness is how far behind schedule the generator sent. Latency is
/// kept per window of consecutive requests, so a figure can be read from
/// the quieter windows when the run shares its machine with other load.
class OpenLoopAccount {
 public:
  /// `planned` requests split into `windows` windows by request index.
  explicit OpenLoopAccount(std::uint64_t planned = 1, std::size_t windows = 1);

  void on_sent(double due_s, double sent_s);
  void on_answered(std::uint64_t index, double due_s, double answered_s,
                   double limit_ms);

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t answered() const { return answered_; }
  [[nodiscard]] std::uint64_t over_limit() const { return over_limit_; }
  /// Requests that failed: unanswered plus answered past the limit.
  [[nodiscard]] std::uint64_t failed() const {
    return (sent_ - answered_) + over_limit_;
  }
  /// The p-th percentile of each non-empty window, in window order.
  [[nodiscard]] std::vector<double> window_percentiles(double p) const;
  /// Lower quartile over non-empty windows of each window's p-th
  /// percentile: the phase as seen by its quieter windows.
  [[nodiscard]] double quiet_percentile(double p) const {
    return quiet(window_percentiles(p));
  }
  /// Percentile over the whole phase (all windows pooled).
  [[nodiscard]] double phase_percentile(double p) const;
  [[nodiscard]] double late_percentile(double p) const {
    return late_.percentile(p);
  }

 private:
  std::uint64_t planned_;
  std::uint64_t sent_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t over_limit_ = 0;
  std::vector<LatencyHistogram> latency_;
  LatencyHistogram late_;
};

/// True when a series of in-flight counts sampled at a fixed cadence
/// through a phase keeps growing: the median of the last quarter exceeds
/// twice the median of the second quarter plus `slack` requests. Medians,
/// so one short stall near the end does not count as a backlog.
[[nodiscard]] bool backlog_growing(std::span<const double> in_flight,
                                   double slack);

}  // namespace perfbench
