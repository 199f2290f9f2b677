// The benchmark's three workloads. Each fills `result` with every
// end-to-end metric (and, when traced, every per-layer metric it measures)
// and records its correctness checks there.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  ///< listfiles and other run-local files
};

/// Machine threads the workloads size themselves to.
inline constexpr std::size_t kThreads = 4;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

void run_wire_mixed(const RunOptions& options, Result& result,
                    TraceRecorder& trace);
void run_group_ml(const RunOptions& options, Result& result,
                  TraceRecorder& trace);
void run_paper_tables(const RunOptions& options, Result& result,
                      TraceRecorder& trace);

}  // namespace perfbench
