// group_ml: closed-loop, in-process EngineGroup::feed of whole-fleet
// batches of ML-tier sessions (dt, mlp, lstm at the quick-mode layer
// sizes, f64, plus a cawt control slice). No net code runs, and the group
// hop is amortized over 8,192 sessions per feed, so this workload moves
// with monitor/ml kernel and engine chunking changes and should not move
// with net or hop changes.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "monitor/ml_monitor.h"
#include "serve/engine.h"
#include "serve/group.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kSessions = 8192;
constexpr std::size_t kReplicas = 4;
constexpr std::size_t kWarmupFeeds = 8;
constexpr std::size_t kTraces = 160;
constexpr double kTailPercentile = 90.0;
/// Measured feeds are split into this many windows of consecutive feeds;
/// figures are read from the quieter windows (see quiet() in stats.h).
constexpr std::size_t kWindows = 5;
/// Ten feeds beyond the p90 of every window.
constexpr std::size_t kMinFeeds = 100 * kWindows;

struct Session {
  std::string patient_id;
  const char* monitor = "";
  int patient_index = 0;
  std::uint32_t trace = 0;
  std::uint32_t offset = 0;
};

struct Setup {
  aps::core::ArtifactBundle bundle;
  std::vector<ObsTrace> traces;
  std::vector<Session> sessions;
  std::unique_ptr<aps::serve::EngineGroup> group;
  std::vector<aps::serve::SessionId> ids;
  std::vector<double> open_us;
  double rss_kb_per_session = 0.0;
};

Setup set_up(std::uint64_t seed, bool traced) {
  Setup s;
  {
    aps::ThreadPool pool(kThreads);
    s.bundle = build_serving_bundle(pool);
    s.traces = make_traces(s.bundle, seed, kTraces, pool);
  }
  aps::Rng rng(seed ^ 0x6d6c5f67726f7570ull);
  for (std::size_t i = 0; i < kSessions; ++i) {
    Session session;
    session.patient_id = "ml-" + std::to_string(i);
    session.monitor = monitor_for_slot(kMlMix, i);
    session.trace = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(s.traces.size()) - 1));
    session.patient_index = s.traces[session.trace].patient;
    session.offset = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<int>(s.traces[session.trace].obs.size()) - 1));
    s.sessions.push_back(std::move(session));
  }
  aps::serve::GroupConfig config;
  config.replicas = kReplicas;
  config.engine.threads = 1;
  // The engine samples its phase/chunk/drift telemetry on one tick in 256;
  // a traced run samples every tick so the per-layer histograms fill.
  if (traced) config.engine.drift.sample_every_ticks = 1;
  s.group = std::make_unique<aps::serve::EngineGroup>(config);
  s.group->register_bundle(s.bundle);
  const double rss_before = current_rss_kb();
  s.ids.reserve(kSessions);
  s.open_us.reserve(kSessions);
  for (const Session& session : s.sessions) {
    const std::int64_t t0 = now_ns();
    s.ids.push_back(s.group->open_session(session.patient_id, session.monitor,
                                          session.patient_index));
    s.open_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  s.rss_kb_per_session =
      (current_rss_kb() - rss_before) / static_cast<double>(kSessions);
  return s;
}

void fill_inputs(const Setup& s, std::uint64_t tick,
                 const std::vector<aps::serve::SessionId>& ids,
                 std::vector<aps::serve::SessionInput>& inputs) {
  for (std::size_t i = 0; i < s.sessions.size(); ++i) {
    const Session& session = s.sessions[i];
    const auto& obs = s.traces[session.trace].obs;
    inputs[i].session = ids[i];
    inputs[i].obs = obs[(session.offset + tick) % obs.size()];
  }
}

std::uint64_t decision_hash(const std::vector<aps::monitor::Decision>& d) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& decision : d) {
    mix(decision.alarm ? 1u : 0u);
    mix(static_cast<std::uint64_t>(decision.predicted));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(decision.rule_id)));
  }
  return h;
}

/// Multiply-add count of one forward pass, from the model's layer shapes
/// (computed, not measured).
double mlp_flops(const aps::ml::Mlp& mlp, int classes) {
  double flops = 0.0;
  std::size_t in = aps::monitor::kMlFeatureCount;
  for (const std::size_t units : mlp.config().hidden_units) {
    flops += 2.0 * static_cast<double>(in * units);
    in = units;
  }
  return flops + 2.0 * static_cast<double>(in) * classes;
}

double lstm_flops(const aps::ml::Lstm& lstm, int classes) {
  double per_step = 0.0;
  std::size_t in = aps::monitor::kMlFeatureCount;
  for (const std::size_t units : lstm.config().hidden_units) {
    per_step += 2.0 * 4.0 * static_cast<double>(units * (in + units));
    in = units;
  }
  return per_step * static_cast<double>(aps::monitor::kLstmWindow) +
         2.0 * static_cast<double>(in) * classes;
}

}  // namespace

void run_group_ml(const RunOptions& options, Result& result,
                  TraceRecorder& trace) {
  const std::int32_t root = trace.begin("group_ml", "bench", -1, options.seed);
  std::vector<double> setup_s;
  Setup s;
  double rss_kb_per_session = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};  // release the previous repetition first
    const ScopedSpan span(trace, "setup", "setup", root, static_cast<std::uint64_t>(rep));
    const std::int64_t t0 = now_ns();
    s = set_up(options.seed, options.trace);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    // Later repetitions reuse memory the allocator kept from earlier ones.
    if (rep == 0) rss_kb_per_session = s.rss_kb_per_session;
  }
  auto& group = *s.group;
  auto& registry = group.registry();
  result.stamp["threads.generator"] = "1";
  result.stamp["threads.replicas"] = std::to_string(kReplicas);
  result.stamp["threads.io"] = "0";
  result.stamp["threads.pool"] = std::to_string(kThreads) + " (set-up only)";
  result.stamp["sessions"] = std::to_string(kSessions);

  std::vector<aps::serve::SessionInput> inputs(kSessions);
  std::vector<aps::monitor::Decision> decisions(kSessions);
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t tick = 0; tick < kWarmupFeeds; ++tick) {
    fill_inputs(s, tick, s.ids, inputs);
    group.feed(inputs, decisions);
    hashes.push_back(decision_hash(decisions));
  }

  const auto phase_before = histogram_family(registry, "serve_phase_us", "phase");
  const auto chunk_before =
      histogram_family(registry, "serve_shard_tick_latency_us", "shard");
  const double drift_before = counter_value(registry, "drift_samples_total");

  std::vector<double> feed_ms;
  double hop_s = 0.0, feed_s = 0.0, imbalance_num = 0.0, imbalance_den = 0.0;
  std::vector<double> engine_before(kReplicas);
  const std::int32_t measure = trace.begin("measure", "bench", root);
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::uint64_t tick = kWarmupFeeds;
  while (now_ns() < deadline || feed_ms.size() < kMinFeeds) {
    const std::int64_t f0 = now_ns();
    fill_inputs(s, tick, s.ids, inputs);
    if (trace.enabled()) {
      trace.add("fill_inputs", "bench", f0, now_ns(), measure, tick);
      for (std::size_t r = 0; r < kReplicas; ++r) {
        engine_before[r] = group.replica(r).latency().seconds;
      }
    }
    const std::int64_t t0 = now_ns();
    group.feed(inputs, decisions);
    const std::int64_t t1 = now_ns();
    const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
    feed_ms.push_back(wall_s * 1e3);
    if (trace.enabled()) {
      double engine_max = 0.0, engine_sum = 0.0;
      for (std::size_t r = 0; r < kReplicas; ++r) {
        const double e = group.replica(r).latency().seconds - engine_before[r];
        engine_max = std::max(engine_max, e);
        engine_sum += e;
      }
      engine_max = std::min(engine_max, wall_s);
      hop_s += wall_s - engine_max;
      feed_s += wall_s;
      imbalance_num += engine_max;
      imbalance_den += engine_sum / static_cast<double>(kReplicas);
      const std::int32_t feed = trace.add("group.feed", "serve.group", t0, t1, measure, tick);
      // Only the slowest replica's engine time is observable from outside
      // the group, not its interval; it is centred inside the feed.
      const auto engine_ns = static_cast<std::int64_t>(engine_max * 1e9);
      const std::int64_t gap = ((t1 - t0) - engine_ns) / 2;
      trace.add("replica.engine", "serve.engine", t0 + gap, t0 + gap + engine_ns,
                feed, tick);
    }
    hashes.push_back(decision_hash(decisions));
    ++tick;
  }
  trace.end(measure);
  const double peak_rss = peak_rss_mb();

  const std::size_t feeds = feed_ms.size();
  const std::size_t per_window = feeds / kWindows;
  std::vector<double> window_rate, window_p50, window_tail;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto first = feed_ms.begin() + static_cast<std::ptrdiff_t>(w * per_window);
    std::vector<double> window(first, first + static_cast<std::ptrdiff_t>(per_window));
    double seconds = 0.0;
    for (const double ms : window) seconds += ms * 1e-3;
    window_rate.push_back(static_cast<double>(per_window * kSessions) / seconds);
    window_p50.push_back(percentile(window, 50.0));
    window_tail.push_back(percentile(window, kTailPercentile));
  }
  result.check(tail_percentile_for(per_window) >= kTailPercentile,
               "fewer than ten feeds beyond the p90 of a window");

  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("peak_rss_mb", peak_rss, "MB");
  // Throughput from the quieter windows is their upper quartile.
  result.e2e("cycles_per_s", percentile(window_rate, 75.0), "1/s");
  result.e2e("p50_ms", quiet(window_p50), "ms");
  result.e2e("tail_ms", quiet(window_tail), "ms");
  result.notes["tail_percentile"] = kTailPercentile;
  result.notes["feeds"] = static_cast<double>(feeds);

  if (trace.enabled()) {
    result.layer("serve.hop_frac", feed_s > 0 ? hop_s / feed_s : 0.0, "frac");
    result.layer("serve.replica_imbalance",
                 imbalance_den > 0 ? imbalance_num / imbalance_den : 0.0, "ratio");
    const auto phase_after = histogram_family(registry, "serve_phase_us", "phase");
    for (const char* phase : {"ingest", "dispatch", "predict", "merge"}) {
      const auto it_a = phase_after.find(phase);
      const auto it_b = phase_before.find(phase);
      double v = 0.0;
      if (it_a != phase_after.end()) {
        const auto d = it_b != phase_before.end()
                           ? histogram_delta(it_b->second, it_a->second)
                           : it_a->second;
        v = d.percentile(50.0);
      }
      result.layer(std::string("serve.phase_us.") + phase, v, "us");
    }
    // Per-kind chunk time and model throughput from the shard histograms
    // ("<monitor>@g<generation>").
    const auto chunk_after =
        histogram_family(registry, "serve_shard_tick_latency_us", "shard");
    std::map<std::string, aps::obs::HistogramSnapshot> by_kind;
    for (const auto& [shard, after] : chunk_after) {
      const std::string kind = shard.substr(0, shard.find('@'));
      const auto it = chunk_before.find(shard);
      const auto d = it != chunk_before.end() ? histogram_delta(it->second, after) : after;
      accumulate(by_kind[kind], d);
    }
    std::map<std::string, double> lanes_per_feed;
    for (const Session& session : s.sessions) lanes_per_feed[session.monitor] += 1.0;
    for (const char* kind : {"dt", "mlp", "lstm", "cawt"}) {
      const auto it = by_kind.find(kind);
      result.layer(std::string("serve.chunk_us.") + kind + ".p50",
                   it != by_kind.end() ? it->second.percentile(50.0) : 0.0, "us");
    }
    const auto gflops = [&](const char* kind, double flops_per_pred) {
      const auto it = by_kind.find(kind);
      if (it == by_kind.end() || it->second.sum <= 0.0) return 0.0;
      const double preds = lanes_per_feed[kind] * static_cast<double>(feeds);
      return flops_per_pred * preds / (it->second.sum * 1e-6) * 1e-9;
    };
    result.layer("ml.mlp_gflop_per_s",
                 gflops("mlp", mlp_flops(*s.bundle.mlp, s.bundle.ml_classes)), "GFLOP/s");
    result.layer("ml.lstm_gflop_per_s",
                 gflops("lstm", lstm_flops(*s.bundle.lstm, s.bundle.lstm_classes)),
                 "GFLOP/s");
    result.layer("obs.drift_samples",
                 counter_value(registry, "drift_samples_total") - drift_before, "count");
    result.layer("serve.rss_kb_per_session", rss_kb_per_session, "KB");
    std::vector<double> open_us = s.open_us;
    result.layer("serve.open_us.p50", percentile(open_us, 50.0), "us");
  }
  trace.end(root);

  // Reference: one engine fed the same stream, outside the timed window.
  {
    aps::serve::EngineConfig config;
    config.threads = kThreads;
    config.telemetry = false;
    aps::serve::MonitorEngine reference(config);
    reference.register_bundle(s.bundle);
    std::vector<aps::serve::SessionId> ref_ids;
    for (const Session& session : s.sessions) {
      ref_ids.push_back(reference.open_session(session.patient_id, session.monitor,
                                               session.patient_index));
    }
    std::uint64_t mismatched_feeds = 0;
    for (std::uint64_t t = 0; t < hashes.size(); ++t) {
      fill_inputs(s, t, ref_ids, inputs);
      reference.feed(inputs, decisions);
      if (decision_hash(decisions) != hashes[t]) ++mismatched_feeds;
    }
    result.check(mismatched_feeds == 0,
                 std::to_string(mismatched_feeds) +
                     " group feeds differ from the single-engine reference");
    result.attempted = hashes.size() * kSessions;
    result.failed = mismatched_feeds * kSessions;
  }
  result.phases.push_back({"feeds (warm-up and measured)", result.attempted,
                           result.attempted - result.failed, result.failed});
}

}  // namespace perfbench
