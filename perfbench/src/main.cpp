// perfbench: runs one benchmark workload and writes its result document.
//
//   perfbench --workload <wire_mixed|group_ml|paper_tables> --seed <n>
//             --seconds <s> --trace <0|1> --out <result.json>
//             [--trace-file <chrome.json>] [--scratch <dir>] [--commit <id>]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage or set-up error. perfbench/run.py is the user-facing entry
// point; it builds this binary and turns the document into the one-line
// result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "ml/kernels/kernels.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Self times must add back up to the traced wall time within this share.
constexpr double kSelfTimeTolerance = 0.01;

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --name value pairs, got " + key);
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [k, v] : args) {
    static const char* known[] = {"workload", "seed",    "seconds", "trace",
                                  "out",      "trace-file", "scratch", "commit"};
    bool ok = false;
    for (const char* name : known) ok = ok || k == name;
    if (!ok) throw std::invalid_argument("unknown flag --" + k);
  }
  return args;
}

std::string get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  Result result;
  RunOptions options;
  std::string out_path, trace_path;
  try {
    const auto args = parse(argc, argv);
    result.workload = get(args, "workload", "");
    options.seed = std::stoull(get(args, "seed", "1"));
    options.seconds = std::stod(get(args, "seconds", "10"));
    options.trace = get(args, "trace", "0") == "1";
    options.scratch_dir = get(args, "scratch", ".");
    out_path = get(args, "out", "");
    trace_path = get(args, "trace-file", "");
    if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    result.seed = options.seed;
    result.traced = options.trace;
    result.stamp["commit"] = get(args, "commit", "unknown");
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 2;
  }
  result.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.stamp["kernels_backend"] = aps::ml::kernels::backend_name();
  result.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  result.stamp["compiler"] = PERFBENCH_COMPILER;
  result.stamp["seed"] = std::to_string(options.seed);
  result.stamp["seconds"] = std::to_string(options.seconds);

  TraceRecorder trace(options.trace);
  try {
    if (result.workload == "wire_mixed") {
      run_wire_mixed(options, result, trace);
    } else if (result.workload == "group_ml") {
      run_group_ml(options, result, trace);
    } else if (result.workload == "paper_tables") {
      run_paper_tables(options, result, trace);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", result.workload.c_str());
      return 2;
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", result.workload.c_str(), err.what());
    return 2;
  }

  if (trace.enabled()) {
    const SelfTimes self = trace.self_times();
    result.layer("trace.spans", static_cast<double>(trace.size()), "count");
    result.layer("trace.self_sum_err", self.relative_error(), "frac");
    for (const auto& [layer, seconds] : self.by_layer_s) {
      result.notes["self_s." + layer] = seconds;
    }
    result.notes["trace.root_wall_s"] = self.root_wall_s;
    result.check(self.relative_error() <= kSelfTimeTolerance,
                 "layer self times do not sum to the traced wall time");
    if (!trace_path.empty()) trace.write_chrome(trace_path);
  }

  result.print_summary();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << result.json() << '\n';
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  return result.correct() ? 0 : 1;
}
