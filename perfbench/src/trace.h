// In-memory span recorder for the traced benchmark run. Spans are
// recorded only by the benchmark itself, around its calls into the
// program's public functions; the program is never instrumented here.
// Each span carries a layer (a module name such as "net" or "core"), its
// parent span and the tick or run id it belongs to. At exit the spans are
// written as Chrome trace-event JSON and reduced to per-layer self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the benchmark's monotonic clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the recorder, -1 = root
  std::uint64_t id = 0;      ///< tick, feed or run id
  std::uint32_t thread = 0;  ///< lane in the trace viewer
};

/// Per-layer self time: a span's duration minus the part of it that its
/// children cover. Summed over a well-nested trace this equals the summed
/// duration of the root spans.
struct SelfTimes {
  std::map<std::string, double> by_layer_s;
  double self_sum_s = 0.0;
  double root_wall_s = 0.0;
  /// |self_sum - root_wall| / root_wall; nonzero only when spans overlap
  /// their siblings or stick out of their parent.
  [[nodiscard]] double relative_error() const;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled) : enabled_(enabled) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span; returns its index (parent handle), or -1
  /// when tracing is off.
  std::int32_t add(std::string name, std::string layer, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::uint64_t id = 0, std::uint32_t thread = 0);
  /// Open a span now; close it with end(). Returns -1 when tracing is off.
  std::int32_t begin(std::string name, std::string layer,
                     std::int32_t parent = -1, std::uint64_t id = 0,
                     std::uint32_t thread = 0);
  void end(std::int32_t span);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] SelfTimes self_times() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;  ///< guards spans_ (sender and receiver threads)
  std::vector<Span> spans_;
};

/// Self times of an explicit span list (exposed for the logic test).
[[nodiscard]] SelfTimes compute_self_times(const std::vector<Span>& spans);

/// RAII span for the sequential parts of a workload.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder& trace, std::string name, std::string layer,
             std::int32_t parent = -1, std::uint64_t id = 0)
      : trace_(trace),
        index_(trace.begin(std::move(name), std::move(layer), parent, id)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { trace_.end(index_); }
  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  TraceRecorder& trace_;
  std::int32_t index_;
};

}  // namespace perfbench
