#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (!ok) failed_checks.push_back(what);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out << ',';
    first = false;
    out << quoted(name) << ":{\"value\":" << number(metric.value)
        << ",\"unit\":" << quoted(metric.unit) << '}';
  }
  out << '}';
  return out.str();
}

}  // namespace

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"workload\":" << quoted(workload) << ",\"seed\":" << seed
      << ",\"traced\":" << (traced ? "true" : "false")
      << ",\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"failed_checks\":[";
  for (std::size_t i = 0; i < failed_checks.size(); ++i) {
    out << (i ? "," : "") << quoted(failed_checks[i]);
  }
  out << "],\"end_to_end\":" << metrics_json(end_to_end)
      << ",\"per_layer\":" << metrics_json(per_layer) << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseCount& p = phases[i];
    out << (i ? "," : "") << "{\"name\":" << quoted(p.name)
        << ",\"sent\":" << p.sent << ",\"succeeded\":" << p.succeeded
        << ",\"failed\":" << p.failed << '}';
  }
  out << "],\"stamp\":{";
  bool first = true;
  for (const auto& [k, v] : stamp) {
    out << (first ? "" : ",") << quoted(k) << ':' << quoted(v);
    first = false;
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : notes) {
    out << (first ? "" : ",") << quoted(k) << ':' << number(v);
    first = false;
  }
  out << "}}";
  return out.str();
}

void Result::print_summary() const {
  std::printf("== perfbench %s (seed %llu, trace %d) ==\n", workload.c_str(),
              static_cast<unsigned long long>(seed), traced ? 1 : 0);
  for (const auto& [k, v] : stamp) std::printf("stamp   %-28s %s\n", k.c_str(), v.c_str());
  for (const PhaseCount& p : phases) {
    std::printf("phase   %-28s sent %llu succeeded %llu failed %llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.succeeded),
                static_cast<unsigned long long>(p.failed));
  }
  for (const auto& [k, m] : end_to_end) {
    std::printf("e2e     %-28s %.6g %s\n", k.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [k, m] : per_layer) {
    std::printf("layer   %-28s %.6g %s\n", k.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [k, v] : notes) std::printf("note    %-28s %.6g\n", k.c_str(), v);
  for (const std::string& f : failed_checks) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct() ? "true" : "false");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double counter_value(const aps::obs::Registry& registry,
                     const std::string& name,
                     const aps::obs::Labels& labels) {
  return static_cast<double>(registry.counter_value(name, labels));
}

namespace {

bool same_labels(aps::obs::Labels a, aps::obs::Labels b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

aps::obs::HistogramSnapshot histogram_snapshot(
    const aps::obs::Registry& registry, const std::string& name,
    const aps::obs::Labels& labels) {
  for (const auto& sample : registry.scrape().samples) {
    if (sample.name == name && sample.kind == aps::obs::MetricKind::kHistogram &&
        same_labels(sample.labels, labels)) {
      return sample.histogram;
    }
  }
  return {};
}

std::map<std::string, aps::obs::HistogramSnapshot> histogram_family(
    const aps::obs::Registry& registry, const std::string& name,
    const std::string& key) {
  std::map<std::string, aps::obs::HistogramSnapshot> out;
  for (const auto& sample : registry.scrape().samples) {
    if (sample.name != name ||
        sample.kind != aps::obs::MetricKind::kHistogram) {
      continue;
    }
    for (const auto& [k, v] : sample.labels) {
      if (k == key) out[v] = sample.histogram;
    }
  }
  return out;
}

void accumulate(aps::obs::HistogramSnapshot& into,
                const aps::obs::HistogramSnapshot& delta) {
  if (into.counts.empty()) {
    into = delta;
    return;
  }
  if (delta.counts.size() != into.counts.size()) return;
  for (std::size_t i = 0; i < into.counts.size(); ++i) into.counts[i] += delta.counts[i];
  into.count += delta.count;
  into.sum += delta.sum;
  into.max = std::max(into.max, delta.max);
}

aps::obs::HistogramSnapshot histogram_delta(
    const aps::obs::HistogramSnapshot& before,
    const aps::obs::HistogramSnapshot& after) {
  aps::obs::HistogramSnapshot delta = after;
  if (before.counts.size() == after.counts.size()) {
    for (std::size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= before.counts[i];
    }
    delta.count -= before.count;
    delta.sum -= before.sum;
  }
  return delta;
}

}  // namespace perfbench
