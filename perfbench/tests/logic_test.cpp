// Tests for the benchmark's own logic: the percentile rule, open-loop
// due-time and lateness accounting, backlog detection and the self-time
// reduction. Plain checks (no test framework) so the benchmark builds
// without GTest; exits non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::abs(a - b) <= tol; }

void test_percentile() {
  using perfbench::percentile;
  std::vector<double> v = {5, 1, 4, 2, 3};
  expect(near(percentile(v, 50), 3), "median of 1..5 is 3");
  expect(near(percentile(v, 0), 1) && near(percentile(v, 100), 5), "p0/p100 are min/max");
  expect(near(percentile(v, 25), 2), "p25 interpolates on ranks");
  std::vector<double> empty;
  expect(percentile(empty, 99) == 0.0, "empty sample gives 0");
  const double m = perfbench::median(std::vector<double>{1, 2, 3, 10});
  expect(near(m, 2.5), "even-sized median averages the middle pair");
}

void test_tail_rule() {
  using perfbench::tail_percentile_for;
  // Ten samples beyond: p99.9 needs 10000, p99 1000, p95 200, p90 100.
  expect(tail_percentile_for(10000) == 99.9, "10000 samples support p99.9");
  expect(tail_percentile_for(9999) == 99.0, "9999 samples fall back to p99");
  expect(tail_percentile_for(1000) == 99.0, "1000 samples support p99");
  expect(tail_percentile_for(999) == 95.0, "999 samples fall back to p95");
  expect(tail_percentile_for(100) == 90.0, "100 samples support p90");
  expect(tail_percentile_for(99) == 75.0, "99 samples fall back to p75");
  expect(tail_percentile_for(19) == 0.0, "19 samples support no tail");
}

void test_schedule() {
  // Four sessions at phases 0.5, 0.0, 0.75, 0.25 and 8 ticks/s: period
  // 0.5 s, arrivals every 0.125 s in phase order.
  const perfbench::OpenLoopSchedule s({0.5, 0.0, 0.75, 0.25}, 8.0, 10.0);
  expect(near(s.period(), 0.5), "period is sessions / rate");
  expect(s.slot(0) == 1 && s.slot(1) == 3 && s.slot(2) == 0 && s.slot(3) == 2,
         "events visit slots in phase order");
  expect(s.slot(4) == 1, "the next round starts over");
  for (std::uint64_t j = 0; j < 16; ++j) {
    expect(near(s.due(j), 10.0 + 0.125 * static_cast<double>(j)),
           "due times are evenly spaced at 1/rate");
  }
  expect(s.events_due_by(9.9) == 0, "nothing due before the start");
  expect(s.events_due_by(10.0) == 1, "first event due at the start");
  expect(s.events_due_by(10.3) == 3, "three events due by 0.3 s");
  expect(s.events_due_by(11.0) == 9, "nine events due by one second");
  bool threw = false;
  try {
    perfbench::OpenLoopSchedule bad({1.0}, 1.0, 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "phase outside [0, 1) is rejected");
}

void test_open_loop_account() {
  perfbench::OpenLoopAccount account(4, 2);
  // Sender stalled: request due at 1.0 s went out at 1.2 s and came back
  // at 1.25 s. Latency counts from the due time, lateness is 200 ms.
  account.on_sent(1.0, 1.2);
  account.on_answered(0, 1.0, 1.25, 100.0);
  expect(near(account.quiet_percentile(50), 250.0, 2.5), "latency runs from the due time");
  expect(near(account.late_percentile(50), 200.0, 2.0), "lateness is send minus due");
  expect(account.over_limit() == 1, "a 250 ms answer misses a 100 ms limit");
  // On time: sent early is not negative lateness.
  account.on_sent(2.0, 1.999);
  expect(account.late_percentile(0) < 1e-3, "early sends count zero lateness");
  expect(account.failed() == 2, "unanswered plus over-limit are failures");
  account.on_answered(3, 2.0, 2.01, 100.0);
  expect(account.failed() == 1, "an answer within the limit is not a failure");
  // Two windows (requests 0-1 and 2-3): the lower quartile of their p50s.
  expect(near(account.quiet_percentile(50), 10.0 + 0.25 * (250.0 - 10.0), 2.0),
         "percentiles are lower quartiles over windows");
}

void test_quiet() {
  // Three slow windows out of ten do not move the lower quartile.
  std::vector<double> windows(10, 1.0);
  windows[2] = windows[5] = windows[9] = 50.0;
  expect(near(perfbench::quiet(windows), 1.0), "a minority of slow windows is ignored");
  std::vector<double> all_slow(10, 2.0);
  expect(near(perfbench::quiet(all_slow), 2.0), "a slower program moves every window");
}

void test_histogram() {
  perfbench::LatencyHistogram h;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    h.add(0.01 * i);
    v.push_back(0.01 * i);
  }
  for (const double p : {50.0, 90.0, 99.0}) {
    std::vector<double> copy = v;
    const double exact = perfbench::percentile(copy, p);
    expect(std::abs(h.percentile(p) - exact) <= 0.011 * exact,
           "histogram percentiles are within 1.1% of the exact ones");
  }
  expect(perfbench::LatencyHistogram{}.percentile(99) == 0.0, "empty histogram gives 0");
  perfbench::LatencyHistogram doubled = h;
  doubled.merge(h);
  expect(doubled.count() == 2000 && doubled.percentile(50) == h.percentile(50),
         "merging a histogram with itself keeps its percentiles");
}

void test_backlog() {
  std::vector<double> flat(40, 100.0);
  expect(!perfbench::backlog_growing(flat, 64.0), "flat in-flight count is not growing");
  std::vector<double> ramp;
  for (int i = 0; i < 40; ++i) ramp.push_back(100.0 * i);
  expect(perfbench::backlog_growing(ramp, 64.0), "a steady ramp is a growing backlog");
  std::vector<double> few = {1, 1000, 100000};
  expect(!perfbench::backlog_growing(few, 64.0), "too few samples never count as growing");
}

void test_self_times() {
  using perfbench::Span;
  // root [0,100] with children [10,30] and [30,50] and a child [60,70]
  // whose own child [62,64] belongs to another layer.
  const std::vector<Span> spans = {
      {"root", "bench", 0, 100, -1, 0, 0}, {"a", "net", 10, 30, 0, 0, 0},
      {"b", "net", 30, 50, 0, 0, 0},       {"c", "serve", 60, 70, 0, 0, 0},
      {"d", "ml", 62, 64, 3, 0, 0}};
  const auto self = perfbench::compute_self_times(spans);
  expect(near(self.by_layer_s.at("bench"), 50e-9), "root self excludes covered time");
  expect(near(self.by_layer_s.at("net"), 40e-9), "sibling self times add");
  expect(near(self.by_layer_s.at("serve"), 8e-9), "nested child time is subtracted");
  expect(near(self.relative_error(), 0.0), "well-nested spans sum to the wall");
  const std::vector<Span> overlapping = {{"root", "bench", 0, 100, -1, 0, 0},
                                         {"a", "net", 0, 80, 0, 0, 0},
                                         {"b", "net", 20, 100, 0, 0, 0}};
  expect(perfbench::compute_self_times(overlapping).relative_error() > 0.5,
         "overlapping siblings break the sum");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_schedule();
  test_open_loop_account();
  test_backlog();
  test_quiet();
  test_histogram();
  test_self_times();
  if (failures == 0) std::printf("perfbench logic tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
