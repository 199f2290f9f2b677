#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "core/experiment.h"
#include "fi/campaign.h"
#include "sim/closed_loop.h"
#include "sim/runner.h"
#include "sim/stack.h"

namespace perfbench {

const char* monitor_for_slot(std::span<const MixEntry> mix, std::size_t slot) {
  // Golden-ratio (Weyl) sequence: low discrepancy, so every prefix of the
  // fleet carries the mix to within a few sessions and kinds interleave
  // instead of forming contiguous blocks.
  const double u =
      std::fmod((static_cast<double>(slot) + 0.5) * 0.6180339887498949, 1.0);
  double acc = 0.0;
  for (const MixEntry& entry : mix) {
    acc += entry.share;
    if (u < acc) return entry.monitor;
  }
  return mix.back().monitor;
}

aps::core::ArtifactBundle build_serving_bundle(aps::ThreadPool& pool) {
  aps::core::ExperimentConfig config;
  config.full = false;
  config.train_ml = true;
  config.seed = 2021;
  config.ml_data.max_samples = 3000;
  config.lstm_data.max_samples = 600;
  const auto context = aps::core::prepare_experiment(
      aps::sim::glucosym_openaps_stack(), config, pool);
  return aps::core::bundle_from_context(context);
}

std::vector<ObsTrace> make_traces(const aps::core::ArtifactBundle& bundle,
                                  std::uint64_t seed, std::size_t count,
                                  aps::ThreadPool& pool) {
  const auto stack = aps::sim::glucosym_openaps_stack();
  const auto grid = aps::fi::CampaignGrid::quick();
  const auto faulty = aps::fi::enumerate_scenarios(grid);
  const auto fault_free = aps::fi::fault_free_scenarios(grid);
  aps::Rng rng(seed);

  // Four patients per trace set; scenarios split 4:1 faulty:fault-free.
  constexpr int kPatients = 4;
  std::vector<int> patients(static_cast<std::size_t>(stack.cohort_size));
  for (int p = 0; p < stack.cohort_size; ++p) patients[static_cast<std::size_t>(p)] = p;
  for (int i = 0; i < kPatients; ++i) {
    std::swap(patients[static_cast<std::size_t>(i)],
              patients[static_cast<std::size_t>(
                  rng.uniform_int(i, stack.cohort_size - 1))]);
  }
  patients.resize(kPatients);
  std::sort(patients.begin(), patients.end());

  const std::size_t per_patient =
      std::max<std::size_t>(1, (count + kPatients - 1) / kPatients);
  std::vector<aps::fi::Scenario> scenarios;
  for (std::size_t s = 0; s < per_patient; ++s) {
    if (s % 5 == 4) {
      scenarios.push_back(fault_free[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(fault_free.size()) - 1))]);
    } else {
      scenarios.push_back(faulty[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(faulty.size()) - 1))]);
    }
  }
  const auto campaign =
      aps::sim::run_campaign(stack, scenarios, aps::sim::null_monitor_factory(),
                             {}, &pool, patients);

  std::vector<ObsTrace> traces;
  for (std::size_t i = 0; i < campaign.by_patient.size(); ++i) {
    const int patient = patients[i];
    const auto& profile = bundle.artifacts.profiles.at(static_cast<std::size_t>(patient));
    for (const auto& run : campaign.by_patient[i]) {
      ObsTrace trace;
      trace.patient = patient;
      for (std::size_t k = 0; k < run.steps.size(); ++k) {
        trace.obs.push_back(aps::sim::observation_from_record(
            run, k, profile.basal_rate, profile.isf));
      }
      traces.push_back(std::move(trace));
      if (traces.size() == count) return traces;
    }
  }
  if (traces.empty()) throw std::runtime_error("make_traces: no traces");
  return traces;
}

}  // namespace perfbench
