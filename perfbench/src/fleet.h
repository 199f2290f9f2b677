// Serving-workload inputs shared by wire_mixed and group_ml: the monitor
// bundle the fleet is served from, and observation streams cut from
// closed-loop simulator traces (faulty and fault-free) so alarm rates
// follow the campaign's hazard mix instead of uniform noise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/monitor_factory.h"
#include "monitor/monitor.h"

namespace perfbench {

/// One patient's observation stream (a whole closed-loop run).
struct ObsTrace {
  int patient = 0;
  std::vector<aps::monitor::Observation> obs;
};

/// Share of sessions running each monitor kind.
struct MixEntry {
  const char* monitor;
  double share;
};

/// The soak's realistic fleet: rule monitors dominate, thin ML tiers.
inline constexpr MixEntry kWireMix[] = {{"cawt", 0.40},
                                        {"guideline", 0.40},
                                        {"dt", 0.15},
                                        {"mlp", 0.04},
                                        {"lstm", 0.01}};
/// ML-tier fleet plus a cawt control slice.
inline constexpr MixEntry kMlMix[] = {
    {"dt", 0.30}, {"mlp", 0.30}, {"lstm", 0.30}, {"cawt", 0.10}};

/// Monitor kind for session slot `slot`. The assignment depends only on
/// the slot, never on the seed, so the mix is the same in every run.
[[nodiscard]] const char* monitor_for_slot(std::span<const MixEntry> mix,
                                           std::size_t slot);

/// Bundle served by both serving workloads: thresholds learned by the
/// quick-grid pipeline and ML monitors at the quick-mode layer sizes
/// (MLP 64-32, LSTM 32-16) trained on a capped reservoir. Built from a
/// fixed seed so model shapes and tree depth never vary with --seed.
[[nodiscard]] aps::core::ArtifactBundle build_serving_bundle(
    aps::ThreadPool& pool);

/// `count` observation streams: closed-loop runs of the Glucosym/OpenAPS
/// stack over seeded patients and quick-grid scenarios, one in five of
/// them fault-free.
[[nodiscard]] std::vector<ObsTrace> make_traces(
    const aps::core::ArtifactBundle& bundle, std::uint64_t seed,
    std::size_t count, aps::ThreadPool& pool);

}  // namespace perfbench
