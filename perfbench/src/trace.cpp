#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double SelfTimes::relative_error() const {
  if (root_wall_s <= 0.0) return 0.0;
  return std::abs(self_sum_s - root_wall_s) / root_wall_s;
}

std::int32_t TraceRecorder::add(std::string name, std::string layer,
                                std::int64_t start_ns, std::int64_t end_ns,
                                std::int32_t parent, std::uint64_t id,
                                std::uint32_t thread) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), std::move(layer), start_ns, end_ns,
                    parent, id, thread});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t TraceRecorder::begin(std::string name, std::string layer,
                                  std::int32_t parent, std::uint64_t id,
                                  std::uint32_t thread) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  return add(std::move(name), std::move(layer), t, t, parent, id, thread);
}

void TraceRecorder::end(std::int32_t span) {
  if (!enabled_ || span < 0) return;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
}

std::size_t TraceRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

SelfTimes TraceRecorder::self_times() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return compute_self_times(spans_);
}

SelfTimes compute_self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    if (parent >= 0) {
      children[static_cast<std::size_t>(parent)].push_back(
          static_cast<std::int32_t>(i));
    } else {
      out.root_wall_s +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::int32_t c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(child.start_ns, span.start_ns);
      const std::int64_t b = std::min(child.end_ns, span.end_ns);
      if (b > a) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : covered) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) union_ns += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) union_ns += run_b - run_a;
    const double self_s =
        static_cast<double>(span.end_ns - span.start_ns - union_ns) * 1e-9;
    out.by_layer_s[span.layer] += self_s;
    out.self_sum_s += self_s;
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void TraceRecorder::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin =
      spans_.empty() ? 0
                     : std::min_element(spans_.begin(), spans_.end(),
                                        [](const Span& a, const Span& b) {
                                          return a.start_ns < b.start_ns;
                                        })
                           ->start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":"
        << static_cast<double>(s.start_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
