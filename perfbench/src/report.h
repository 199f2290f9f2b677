// Result collection shared by the workloads: named metrics with units,
// per-phase sent/succeeded/failed counts, correctness checks, the host and
// build stamp, and obs::Registry delta readers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct PhaseCount {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<PhaseCount> phases;
  std::map<std::string, std::string> stamp;
  std::map<std::string, double> notes;  ///< informational numbers

  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  [[nodiscard]] bool correct() const { return failed_checks.empty(); }
  /// Full JSON document (everything above).
  [[nodiscard]] std::string json() const;
  /// Human-readable summary lines.
  void print_summary() const;
};

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set of this process, in KB.
[[nodiscard]] double current_rss_kb();

/// Counter value of an existing series (0 when absent).
[[nodiscard]] double counter_value(const aps::obs::Registry& registry,
                                   const std::string& name,
                                   const aps::obs::Labels& labels = {});
/// Merged snapshot of a histogram series (empty when absent).
[[nodiscard]] aps::obs::HistogramSnapshot histogram_snapshot(
    const aps::obs::Registry& registry, const std::string& name,
    const aps::obs::Labels& labels = {});
/// Snapshots of every series of a histogram name, keyed by the value of
/// label `key`.
[[nodiscard]] std::map<std::string, aps::obs::HistogramSnapshot>
histogram_family(const aps::obs::Registry& registry, const std::string& name,
                 const std::string& key);
/// Add `delta`'s observations into `into` (same bucket layout, or empty).
void accumulate(aps::obs::HistogramSnapshot& into,
                const aps::obs::HistogramSnapshot& delta);
/// Observations added between two snapshots of one series.
[[nodiscard]] aps::obs::HistogramSnapshot histogram_delta(
    const aps::obs::HistogramSnapshot& before,
    const aps::obs::HistogramSnapshot& after);

}  // namespace perfbench
