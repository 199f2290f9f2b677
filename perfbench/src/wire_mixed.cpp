// wire_mixed: open-loop loopback TCP into net::IngestServer over an
// EngineGroup with listfile recording on. The fleet is the soak's mix
// (40% cawt, 40% guideline, 15% dt, 4% mlp, 1% lstm); every session ticks
// on the same period at its own seeded phase, and sessions are replaced
// over the wire at a fixed churn rate. Ticks reach the engine in small
// per-IO-loop batches, so the cost sits in net decode/encode, the
// per-connection queues and the group hop rather than in models.
//
// Rounds of three phases: a fixed light rate and a fixed heavy rate (open
// loop; latency runs from each tick's due time to the decision's arrival),
// then a saturation phase that keeps a fixed window of ticks in flight
// (closed loop; latency runs from the send), so the backlog is bounded by
// construction and the served rate is the rate the server sustains.
// Admission and the tick deadline are off, so the recorded listfile
// replays bit-identically through a fresh engine afterwards.
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fleet.h"
#include "net/listfile.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/group.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kSessions = 2048;
constexpr std::size_t kReplicas = 1;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kTraces = 96;
/// Fixed offered rates (session-cycles per second) and the p99 limit.
constexpr double kLightRate = 4000.0;
constexpr double kHeavyRate = 40000.0;
constexpr double kLimitMs = 50.0;
/// Sessions closed and reopened over the wire per second.
constexpr double kChurnPerS = 40.0;
/// Ticks in flight during a saturation phase. The sender tops the window
/// up only once half of it has been answered, so ticks reach the server in
/// batches of about kInFlight / 2 instead of in whatever sizes the answers
/// trickled back in; a tick waits about 10 ms at 100k/s.
constexpr std::uint64_t kInFlight = 1024;
/// Upper bound on the saturated rate, for sizing the event bookkeeping.
constexpr double kMaxRate = 1e6;
/// Send times kept per saturation phase (a ring; far above kInFlight).
constexpr std::size_t kSentRing = 1 << 16;
/// Latency and rate windows per phase.
constexpr std::size_t kWindows = 5;
/// Rounds of light, heavy and saturation phases.
constexpr int kRounds = 20;
/// One tick in this many carries trace spans.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::uint32_t kSlotBits = 16;
constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
constexpr std::size_t kMaxPhases = 128;

double seconds_now() { return static_cast<double>(now_ns()) * 1e-9; }

/// Restrict the calling thread (and the threads it creates from now on) to
/// CPUs [first, last]. No-op on fewer than 2 CPUs.
void pin_to(unsigned first, unsigned last) {
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = first; c <= std::min(last, cpus - 1); ++c) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

// CPU layout, as if server and generator ran on two machines. The server's
// IO thread and its replica share CPU 0: they take turns (the IO thread
// waits while the replica ticks a batch), and on one CPU the hop between
// them is a context switch instead of a wake-up of another virtual CPU,
// which is slow and uneven on a shared host. The generator's sender and
// receiver each get one of the last two CPUs (below 4 CPUs they share the
// last one), so neither waits for a CPU.
constexpr unsigned kServerCpu = 0;
unsigned cpu_count() { return std::max(2u, std::thread::hardware_concurrency()); }
unsigned receiver_cpu() { return cpu_count() - 1; }
unsigned sender_cpu() { return cpu_count() >= 4 ? cpu_count() - 2 : cpu_count() - 1; }

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the ingest server failed");
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send() to the ingest server failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

void append_frame(std::vector<std::uint8_t>& out, const aps::net::Frame& frame) {
  const auto bytes = aps::net::encode_frame(frame);
  out.insert(out.end(), bytes.begin(), bytes.end());
}

struct Slot {
  std::uint64_t token = 0;
  const char* monitor = "";
  std::uint32_t trace = 0;
  std::uint32_t offset = 0;
  std::uint64_t ticks = 0;  ///< ticks sent by the current incarnation
};

/// One phase: open loop at a fixed rate, or closed loop at saturation.
struct Phase {
  std::string name;
  bool fixed = false;  ///< light/heavy: failures count against the run
  /// Open loop: the due times. Closed loop: only the slot order (event j
  /// goes to slot(j)), and a tick is due when it is sent.
  std::unique_ptr<OpenLoopSchedule> schedule;
  std::unique_ptr<std::atomic<double>[]> sent_at;  ///< closed loop only
  [[nodiscard]] double due(std::uint64_t local) const {
    return sent_at ? sent_at[local % kSentRing].load(std::memory_order_relaxed)
                   : schedule->due(local);
  }
  std::uint64_t first_event = 0;
  std::uint64_t events = 0;  ///< final once the phase is closed
  /// The sender writes the sent/lateness half, the receiver the answered/
  /// latency half; the sender reads the latter only once `answered`
  /// shows the phase drained.
  OpenLoopAccount account;
  std::atomic<std::uint64_t> answered{0};
  std::vector<double> in_flight;  ///< sender-owned, sampled every 10 ms
  /// Sender-owned (time, ticks answered) samples every 10 ms of a closed
  /// phase, from which its window rates are read.
  std::vector<std::pair<double, double>> progress;
};

struct Sample {
  double due_s = 0.0;
  std::int64_t enc_begin = 0, enc_end = 0;
};

/// Everything built by one set-up repetition.
struct Setup {
  aps::core::ArtifactBundle bundle;
  std::vector<ObsTrace> traces;
  std::unique_ptr<aps::serve::EngineGroup> group;
  std::unique_ptr<aps::net::IngestServer> server;
  std::array<int, kConnections> fds{-1, -1};
  std::vector<Slot> slots;
  std::vector<double> open_rtt_ms;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
    if (server) server->stop();
  }
};

/// Read frames from `fd` until `want(frame)` has returned true `count`
/// times (the synchronous handshake/open path used during set-up).
template <typename Want>
void read_until(int fd, aps::net::FrameDecoder& decoder, std::size_t count, Want&& want) {
  std::vector<std::uint8_t> buf(64 * 1024);
  std::size_t got = 0;
  while (got < count) {
    while (auto frame = decoder.next()) {
      if (want(*frame)) ++got;
    }
    if (got >= count) break;
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) throw std::runtime_error("ingest server closed the connection");
    decoder.feed({buf.data(), static_cast<std::size_t>(n)});
  }
}

std::unique_ptr<Setup> set_up(std::uint64_t seed, const std::string& listfile) {
  auto s = std::make_unique<Setup>();
  {
    aps::ThreadPool pool(kThreads);
    s->bundle = build_serving_bundle(pool);
    s->traces = make_traces(s->bundle, seed, kTraces, pool);
  }
  aps::serve::GroupConfig config;
  config.replicas = kReplicas;
  config.engine.threads = 1;
  pin_to(kServerCpu, kServerCpu);
  s->group = std::make_unique<aps::serve::EngineGroup>(config);
  s->group->register_bundle(s->bundle);
  aps::net::ServerConfig server_config;
  server_config.listfile = listfile;
  s->server = std::make_unique<aps::net::IngestServer>(*s->group, server_config);
  s->server->start();
  pin_to(0, std::thread::hardware_concurrency() - 1);

  aps::Rng rng(seed ^ 0x776972655f6d6978ull);
  s->slots.resize(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    Slot& slot = s->slots[i];
    slot.token = (std::uint64_t{1} << kSlotBits) | i;  // incarnation 1
    slot.monitor = monitor_for_slot(kWireMix, i);
    slot.trace = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(s->traces.size()) - 1));
    slot.offset = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<int>(s->traces[slot.trace].obs.size()) - 1));
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    s->fds[c] = connect_loopback(s->server->port());
    aps::net::FrameDecoder decoder("server");
    std::vector<std::uint8_t> out;
    append_frame(out, aps::net::encode(aps::net::HelloMsg{
                          .protocol_version = aps::net::kNetVersion,
                          .client_name = "perfbench-" + std::to_string(c)}));
    std::unordered_map<std::uint64_t, std::int64_t> open_sent;
    for (std::size_t i = c; i < kSessions; i += kConnections) {
      const Slot& slot = s->slots[i];
      append_frame(out, aps::net::encode(aps::net::OpenSessionMsg{
                            .token = slot.token,
                            .patient_id = "w" + std::to_string(slot.token),
                            .monitor = slot.monitor,
                            .patient_index = s->traces[slot.trace].patient}));
      open_sent[slot.token] = now_ns();
    }
    send_all(s->fds[c], out);
    const std::size_t opens = open_sent.size();
    read_until(s->fds[c], decoder, 1 + opens, [&](const aps::net::Frame& f) {
      if (f.kind == aps::net::FrameKind::kHelloAck) return true;
      if (f.kind != aps::net::FrameKind::kOpenAck) {
        throw std::runtime_error("unexpected frame during set-up");
      }
      const auto ack = aps::net::decode_open_ack(f);
      if (!ack.ok) throw std::runtime_error("session open refused: " + ack.error);
      s->open_rtt_ms.push_back(static_cast<double>(now_ns() - open_sent.at(ack.token)) * 1e-6);
      return true;
    });
    if (decoder.buffered() != 0) throw std::runtime_error("stray bytes after set-up");
  }
  return s;
}

/// The load generator: this thread sends on schedule, a receiver thread
/// reads both connections and accounts every decision.
class Generator {
 public:
  Generator(Setup& s, bool trace_on, TraceRecorder& trace, std::uint64_t seed,
            double max_events)
      : s_(s),
        trace_on_(trace_on),
        trace_(trace),
        churn_rng_(seed ^ 0x636875726eull),
        answered_bits_(static_cast<std::size_t>(max_events / 64.0) + 1, 0),
        max_events_(static_cast<std::uint64_t>(max_events)) {
    phases_.reserve(kMaxPhases);  // the receiver reads it while we append
    open_sent_.reset(new std::atomic<std::int64_t>[kMaxIncarnations]);
    for (std::size_t i = 0; i < kMaxIncarnations; ++i) open_sent_[i].store(0);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  ~Generator() { stop_receiver(); }

  void start_receiver() {
    receiver_ = std::thread([this] { receive_loop(); });
  }
  void stop_receiver() {
    stop_.store(true);
    if (receiver_.joinable()) receiver_.join();
  }

  /// Run one open-loop phase at `rate` for `seconds`, then drain. Returns
  /// the phase (owned by the generator).
  Phase& run_phase(const std::string& name, bool fixed, double rate, double seconds);
  /// Run one closed-loop phase that keeps kInFlight ticks in flight for
  /// `seconds`, then drain.
  Phase& run_saturated(const std::string& name, double seconds);

  /// Close every live session over the wire and wait for the acks.
  void close_all();

  // Results read after the receiver stopped.
  std::uint64_t duplicates() const { return duplicates_.load(); }
  std::uint64_t mismatched() const { return mismatched_.load(); }
  std::uint64_t refused() const { return refused_.load(); }
  std::uint64_t unknown_frames() const { return unknown_frames_.load(); }
  std::uint64_t close_acks() const { return close_acks_.load(); }
  std::uint64_t answered_total() const { return answered_total_.load(); }
  std::uint64_t churned() const { return churned_; }
  double encode_us_per_frame() const {
    return encoded_frames_ > 0 ? encode_ns_ * 1e-3 / static_cast<double>(encoded_frames_) : 0.0;
  }
  double decode_us_per_frame() const {
    const auto frames = decoded_frames_.load();
    return frames > 0 ? static_cast<double>(decode_ns_.load()) * 1e-3 / static_cast<double>(frames)
                      : 0.0;
  }
  std::vector<double> churn_open_rtt_ms() {
    const std::lock_guard<std::mutex> lock(rtt_mu_);
    return churn_rtt_ms_;
  }
  const std::vector<std::unique_ptr<Phase>>& phases() const { return phases_; }

 private:
  static constexpr std::size_t kMaxIncarnations = 1 << 16;

  void receive_loop();
  void on_frame(const aps::net::Frame& frame, std::int64_t recv_ns);
  Phase* phase_of(std::uint64_t event);
  Phase& add_phase(const std::string& name, bool fixed, double rate, double start,
                   std::uint64_t planned);
  void encode_tick(Phase& ph, std::uint64_t local, double due, double now,
                   std::array<std::vector<std::uint8_t>, kConnections>& out);
  void churn_due(double now, std::array<std::vector<std::uint8_t>, kConnections>& out);
  void send_out(std::array<std::vector<std::uint8_t>, kConnections>& out);
  void drain(Phase& ph, double seconds);
  void churn_one(std::array<std::vector<std::uint8_t>, kConnections>& out);

  Setup& s_;
  bool trace_on_;
  TraceRecorder& trace_;
  aps::Rng churn_rng_;
  std::vector<std::uint64_t> answered_bits_;  ///< receiver-only
  std::uint64_t max_events_;
  std::vector<std::unique_ptr<Phase>> phases_;  ///< reserved, never moved
  std::atomic<std::size_t> phase_count_{0};
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> answered_total_{0};
  std::atomic<std::uint64_t> duplicates_{0}, mismatched_{0}, refused_{0},
      unknown_frames_{0}, close_acks_{0};
  std::atomic<std::uint64_t> decoded_frames_{0};
  std::atomic<std::int64_t> decode_ns_{0};
  double encode_ns_ = 0.0;
  std::uint64_t encoded_frames_ = 0;
  std::uint64_t next_incarnation_ = 2;
  std::uint64_t churned_ = 0;
  double next_churn_s_ = 0.0;
  std::unique_ptr<std::atomic<std::int64_t>[]> open_sent_;
  std::mutex rtt_mu_;
  std::vector<double> churn_rtt_ms_;
  std::mutex sample_mu_;
  std::unordered_map<std::uint64_t, Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread receiver_;
};

Phase* Generator::phase_of(std::uint64_t event) {
  const std::size_t n = phase_count_.load(std::memory_order_acquire);
  for (std::size_t p = n; p-- > 0;) {
    if (event >= phases_[p]->first_event) return phases_[p].get();
  }
  return nullptr;
}

void Generator::on_frame(const aps::net::Frame& frame, std::int64_t recv_ns) {
  using aps::net::FrameKind;
  switch (frame.kind) {
    case FrameKind::kDecision: {
      const std::int64_t d0 = now_ns();
      const auto msg = aps::net::decode_decision(frame);
      const std::int64_t d1 = now_ns();
      decode_ns_.fetch_add(d1 - d0, std::memory_order_relaxed);
      decoded_frames_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t event = msg.seq;
      Phase* phase = event < max_events_ ? phase_of(event) : nullptr;
      if (phase == nullptr) {
        mismatched_.fetch_add(1);
        return;
      }
      const std::uint64_t local = event - phase->first_event;
      if (phase->schedule->slot(local) != (msg.token & kSlotMask)) {
        mismatched_.fetch_add(1);
        return;
      }
      std::uint64_t& word = answered_bits_[event / 64];
      const std::uint64_t bit = std::uint64_t{1} << (event % 64);
      if (word & bit) {
        duplicates_.fetch_add(1);
        return;
      }
      word |= bit;
      phase->account.on_answered(local, phase->due(local),
                                 static_cast<double>(recv_ns) * 1e-9, kLimitMs);
      if (trace_on_ && event % kSampleEvery == 0) {
        Sample sample;
        {
          const std::lock_guard<std::mutex> lock(sample_mu_);
          const auto it = samples_.find(event);
          if (it != samples_.end()) {
            sample = it->second;
            samples_.erase(it);
          }
        }
        if (sample.enc_begin != 0) {
          const auto due_ns = static_cast<std::int64_t>(sample.due_s * 1e9);
          const std::int32_t tick = trace_.add("tick", "bench", due_ns, d1, -1, event, 1);
          trace_.add("gen.wait", "gen", due_ns, sample.enc_begin, tick, event, 1);
          trace_.add("client.encode", "net", sample.enc_begin, sample.enc_end, tick, event, 1);
          // The round trip through IngestServer, the group and the engine;
          // registry histograms split it (serve.engine_tick_us.*).
          trace_.add("server.roundtrip", "net", sample.enc_end, recv_ns, tick, event, 1);
          trace_.add("client.decode", "net", d0, d1, tick, event, 1);
        }
      }
      phase->answered.fetch_add(1, std::memory_order_release);
      answered_total_.fetch_add(1, std::memory_order_release);
      return;
    }
    case FrameKind::kOpenAck: {
      const auto ack = aps::net::decode_open_ack(frame);
      if (!ack.ok) {
        refused_.fetch_add(1);
        return;
      }
      const std::uint64_t incarnation = (ack.token >> kSlotBits) % kMaxIncarnations;
      const std::int64_t sent = open_sent_[incarnation].load();
      if (sent != 0) {
        const std::lock_guard<std::mutex> lock(rtt_mu_);
        churn_rtt_ms_.push_back(static_cast<double>(recv_ns - sent) * 1e-6);
      }
      return;
    }
    case FrameKind::kCloseAck:
      close_acks_.fetch_add(1);
      return;
    case FrameKind::kReject:
      refused_.fetch_add(1);
      return;
    default:
      unknown_frames_.fetch_add(1);
      return;
  }
}

void Generator::receive_loop() {
  std::array<aps::net::FrameDecoder, kConnections> decoders;
  std::array<pollfd, kConnections> pfds{};
  for (std::size_t c = 0; c < kConnections; ++c) pfds[c] = {s_.fds[c], POLLIN, 0};
  std::vector<std::uint8_t> buf(256 * 1024);
  pin_to(receiver_cpu(), receiver_cpu());
  // Busy-poll, yielding when nothing arrived (to the sender, when the two
  // share a CPU): a receiver that sleeps in poll() would add its own
  // wake-up delay to every measured latency.
  while (!stop_.load()) {
    const int ready = ::poll(pfds.data(), pfds.size(), 0);
    if (ready <= 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(pfds[c].fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        unknown_frames_.fetch_add(1);  // the server dropped us
        pfds[c].fd = -1;
        continue;
      }
      const std::int64_t recv_ns = now_ns();
      try {
        decoders[c].feed({buf.data(), static_cast<std::size_t>(n)});
        while (auto frame = decoders[c].next()) on_frame(*frame, recv_ns);
      } catch (const aps::net::ProtocolError&) {
        unknown_frames_.fetch_add(1);
        pfds[c].fd = -1;
      }
    }
  }
}

void Generator::churn_one(std::array<std::vector<std::uint8_t>, kConnections>& out) {
  const auto i = static_cast<std::size_t>(
      churn_rng_.uniform_int(0, static_cast<int>(kSessions) - 1));
  Slot& slot = s_.slots[i];
  auto& buf = out[i % kConnections];
  append_frame(buf, aps::net::encode(aps::net::CloseSessionMsg{.token = slot.token}));
  const std::uint64_t incarnation = next_incarnation_++;
  slot.token = (incarnation << kSlotBits) | i;
  slot.trace = static_cast<std::uint32_t>(
      churn_rng_.uniform_int(0, static_cast<int>(s_.traces.size()) - 1));
  slot.offset = static_cast<std::uint32_t>(churn_rng_.uniform_int(
      0, static_cast<int>(s_.traces[slot.trace].obs.size()) - 1));
  slot.ticks = 0;
  open_sent_[incarnation % kMaxIncarnations].store(now_ns());
  append_frame(buf, aps::net::encode(aps::net::OpenSessionMsg{
                        .token = slot.token,
                        .patient_id = "w" + std::to_string(slot.token),
                        .monitor = slot.monitor,
                        .patient_index = s_.traces[slot.trace].patient}));
  ++churned_;
}

Phase& Generator::add_phase(const std::string& name, bool fixed, double rate, double start,
                            std::uint64_t planned) {
  auto phase = std::make_unique<Phase>();
  phase->name = name;
  phase->fixed = fixed;
  phase->first_event = issued_.load();
  aps::Rng phase_rng(churn_rng_.split(phases_.size()));
  std::vector<double> phases(kSessions);
  for (double& p : phases) p = phase_rng.uniform(0.0, 1.0);
  phase->schedule = std::make_unique<OpenLoopSchedule>(std::move(phases), rate, start);
  phase->account = OpenLoopAccount(planned, kWindows);
  if (phase->first_event + planned > max_events_ || phases_.size() >= kMaxPhases) {
    throw std::runtime_error("wire_mixed: event capacity exceeded");
  }
  Phase& ph = *phase;
  phases_.push_back(std::move(phase));
  phase_count_.store(phases_.size(), std::memory_order_release);
  if (next_churn_s_ < start) next_churn_s_ = start;
  return ph;
}

void Generator::encode_tick(Phase& ph, std::uint64_t local, double due, double now,
                            std::array<std::vector<std::uint8_t>, kConnections>& out) {
  const std::uint64_t event = ph.first_event + local;
  const std::uint32_t slot_index = ph.schedule->slot(local);
  Slot& slot = s_.slots[slot_index];
  const auto& obs = s_.traces[slot.trace].obs;
  const std::int64_t t0 = trace_on_ && event % kSampleEvery == 0 ? now_ns() : 0;
  append_frame(out[slot_index % kConnections],
               aps::net::encode(aps::net::TickMsg{
                   .token = slot.token,
                   .seq = event,
                   .obs = obs[(slot.offset + slot.ticks) % obs.size()]}));
  ++slot.ticks;
  ++encoded_frames_;
  ph.account.on_sent(due, now);
  if (t0 != 0) {
    const std::lock_guard<std::mutex> lock(sample_mu_);
    samples_[event] = {due, t0, now_ns()};
  }
}

void Generator::churn_due(double now,
                          std::array<std::vector<std::uint8_t>, kConnections>& out) {
  while (next_churn_s_ <= now) {
    churn_one(out);
    next_churn_s_ += 1.0 / kChurnPerS;
  }
}

void Generator::send_out(std::array<std::vector<std::uint8_t>, kConnections>& out) {
  for (std::size_t c = 0; c < kConnections; ++c) {
    if (out[c].empty()) continue;
    send_all(s_.fds[c], out[c]);
    out[c].clear();
  }
}

void Generator::drain(Phase& ph, double seconds) {
  // Every tick of the phase answered, or give up after a bound.
  const double drain_deadline = seconds_now() + 5.0 + seconds;
  while (ph.answered.load(std::memory_order_acquire) < ph.events &&
         seconds_now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Phase& Generator::run_phase(const std::string& name, bool fixed, double rate,
                            double seconds) {
  const double start = seconds_now() + 0.002;
  const std::uint64_t planned = static_cast<std::uint64_t>(rate * seconds);
  Phase& ph = add_phase(name, fixed, rate, start, planned);

  std::array<std::vector<std::uint8_t>, kConnections> out;
  std::uint64_t next = 0;  // local event index
  double next_sample_s = start;
  while (next < planned) {
    double now = seconds_now();
    const double due = ph.schedule->due(next);
    if (due > now) {
      // Spin rather than sleep: a sleeping sender's timer wake-up was
      // seen to run milliseconds late on a shared VM, and latency is
      // charged from the due time.
      std::this_thread::yield();
      continue;
    }
    // Everything due by now goes out in one write per connection.
    const std::uint64_t due_by = std::min(planned, ph.schedule->events_due_by(now));
    const std::int64_t enc_begin = now_ns();
    const std::uint64_t batch_end = std::max(due_by, next + 1);
    for (; next < batch_end; ++next) encode_tick(ph, next, ph.schedule->due(next), now, out);
    churn_due(now, out);
    encode_ns_ += static_cast<double>(now_ns() - enc_begin);
    send_out(out);
    issued_.store(ph.first_event + next, std::memory_order_release);
    if (now >= next_sample_s) {
      ph.in_flight.push_back(static_cast<double>(
          ph.first_event + next - answered_total_.load(std::memory_order_acquire)));
      next_sample_s += 0.01;
    }
  }
  ph.events = next;
  drain(ph, seconds);
  return ph;
}

Phase& Generator::run_saturated(const std::string& name, double seconds) {
  const double start = seconds_now();
  const double end = start + seconds;
  const std::uint64_t planned = static_cast<std::uint64_t>(kMaxRate * seconds);
  // Ticks go out as answers come back; the schedule gives only the slot
  // order, and the phase's latency is read pooled, not per window.
  Phase& ph = add_phase(name, false, kMaxRate, start, planned);
  ph.sent_at.reset(new std::atomic<double>[kSentRing]);

  std::array<std::vector<std::uint8_t>, kConnections> out;
  std::uint64_t next = 0;
  double next_sample_s = start;
  for (double now = start; now < end; now = seconds_now()) {
    if (now >= next_sample_s) {
      ph.progress.emplace_back(now, static_cast<double>(ph.answered.load()));
      next_sample_s += 0.01;
    }
    const std::uint64_t answered = ph.answered.load(std::memory_order_acquire);
    if (next - answered > kInFlight / 2) {
      std::this_thread::yield();
      continue;
    }
    if (next + kInFlight > planned) {
      throw std::runtime_error("wire_mixed: saturation rate above the sizing bound");
    }
    const std::int64_t enc_begin = now_ns();
    for (const std::uint64_t batch_end = answered + kInFlight; next < batch_end; ++next) {
      ph.sent_at[next % kSentRing].store(now, std::memory_order_relaxed);
      encode_tick(ph, next, now, now, out);
    }
    churn_due(now, out);
    encode_ns_ += static_cast<double>(now_ns() - enc_begin);
    send_out(out);
    issued_.store(ph.first_event + next, std::memory_order_release);
  }
  ph.events = next;
  drain(ph, seconds);
  return ph;
}

void Generator::close_all() {
  std::array<std::vector<std::uint8_t>, kConnections> out;
  for (std::size_t i = 0; i < kSessions; ++i) {
    append_frame(out[i % kConnections],
                 aps::net::encode(aps::net::CloseSessionMsg{.token = s_.slots[i].token}));
  }
  for (std::size_t c = 0; c < kConnections; ++c) send_all(s_.fds[c], out[c]);
  const std::uint64_t want = churned_ + kSessions;
  const double deadline = seconds_now() + 10.0;
  while (close_acks_.load() < want && seconds_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Record an open-loop phase's latency figures and backlog in the notes.
void phase_notes(Phase& ph, Result& result) {
  // Receiver is done with this phase only when everything was answered;
  // otherwise read nothing it may still be writing.
  if (ph.answered.load(std::memory_order_acquire) < ph.events) return;
  const std::string key = "phase." + ph.name + ".";
  result.notes[key + "p50_ms"] = ph.account.quiet_percentile(50.0);
  result.notes[key + "p90_ms"] = ph.account.quiet_percentile(90.0);
  result.notes[key + "p99_ms"] = ph.account.quiet_percentile(99.0);
  result.notes[key + "late_p99_ms"] = ph.account.late_percentile(99.0);
  // Growth worth a quarter of the latency limit at this rate is a backlog;
  // less is noise in a count sampled every 10 ms.
  result.notes[key + "backlog"] =
      backlog_growing(ph.in_flight, ph.schedule->rate() * kLimitMs * 1e-3 / 4.0) ? 1.0 : 0.0;
}

/// Served rate (ticks answered per second) of each of kWindows equal
/// stretches of a saturation phase, after its first tenth, in which the
/// window of ticks in flight fills.
std::vector<double> window_rates(const Phase& ph) {
  const auto& pr = ph.progress;
  const std::size_t first = pr.size() / 10;
  std::vector<double> rates;
  if (pr.size() < first + kWindows + 1) return rates;
  const std::size_t span = (pr.size() - 1 - first) / kWindows;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto& a = pr[first + w * span];
    const auto& b = pr[first + (w + 1) * span];
    rates.push_back((b.second - a.second) / (b.first - a.first));
  }
  return rates;
}

}  // namespace

void run_wire_mixed(const RunOptions& options, Result& result,
                    TraceRecorder& trace) {
  const std::int32_t root = trace.begin("wire_mixed", "bench", -1, options.seed);
  const std::string listfile = options.scratch_dir + "/wire_mixed.listfile";
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const ScopedSpan span(trace, "setup", "setup", root, static_cast<std::uint64_t>(rep));
    const std::int64_t t0 = now_ns();
    s = set_up(options.seed, listfile);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  result.stamp["threads.generator"] = "2 (sender, receiver)";
  result.stamp["threads.io"] = "1";
  result.stamp["threads.replicas"] = std::to_string(kReplicas);
  result.stamp["threads.pool"] = std::to_string(kThreads) + " (set-up only)";
  result.stamp["sessions"] = std::to_string(kSessions);
  result.stamp["connections"] = std::to_string(kConnections);
  result.stamp["limit_ms"] = std::to_string(kLimitMs);
  result.stamp["cpus.server"] = std::to_string(kServerCpu) + " (IO, replica)";
  result.stamp["cpus.generator"] =
      std::to_string(sender_cpu()) + " (sender), " + std::to_string(receiver_cpu()) + " (receiver)";

  auto& registry = s->group->registry();
  // Floors keep ten ticks beyond every reported percentile on short runs.
  const double light_s = std::max(0.02 * options.seconds, 0.3);
  const double heavy_s = std::max(0.006 * options.seconds, 0.15);
  const double sat_s = 0.0125 * options.seconds;
  Generator gen(*s, trace.enabled(), trace, options.seed,
                (kRounds + 4) * kHeavyRate * heavy_s +
                    kRounds * (kLightRate * light_s + kMaxRate * sat_s) + 1024);
  pin_to(sender_cpu(), sender_cpu());
  gen.start_receiver();

  const auto engine_seconds = [&] {
    double sum = 0.0;
    for (std::size_t r = 0; r < kReplicas; ++r) sum += s->group->replica(r).latency().seconds;
    return sum;
  };
  const auto tick_hist = [&] { return histogram_snapshot(registry, "serve_tick_latency_us"); };
  const auto wire_bytes = [&] {
    return counter_value(registry, "net_bytes_in_total") +
           counter_value(registry, "net_bytes_out_total");
  };

  // Light, heavy and saturation phases alternate for kRounds rounds, so a
  // slow spell of the machine lands in some rounds only; latency figures
  // are the lower quartile over the windows or phases of every round
  // (quiet()), the served rate the lower quartile of its windows.
  const std::int32_t measure = trace.begin("measure", "bench", root);
  // Warm-up at the heavy rate (not scored): first-touch allocations in the
  // server and the generator happen here instead of in the first round.
  (void)gen.run_phase("warmup", false, kHeavyRate, 4 * heavy_s);
  std::vector<Phase*> light_phases, heavy_phases;
  std::vector<double> sat_rates, sat_p90, sat_p99;
  aps::obs::HistogramSnapshot light_engine, heavy_engine;
  double heavy_wall = 0.0, heavy_engine_s = 0.0, heavy_ticks = 0.0, heavy_batches = 0.0,
         heavy_bytes = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const auto light_before = tick_hist();
    Phase& light = gen.run_phase("light." + std::to_string(round), true, kLightRate, light_s);
    accumulate(light_engine, histogram_delta(light_before, tick_hist()));
    phase_notes(light, result);
    light_phases.push_back(&light);

    const auto heavy_before = tick_hist();
    const double ticks_before = counter_value(registry, "net_ticks_total");
    const double batches_before = counter_value(registry, "net_tick_batches_total");
    const double bytes_before = wire_bytes();
    const double engine_before = engine_seconds();
    const std::int64_t heavy_t0 = now_ns();
    Phase& heavy = gen.run_phase("heavy." + std::to_string(round), true, kHeavyRate, heavy_s);
    heavy_wall += static_cast<double>(now_ns() - heavy_t0) * 1e-9;
    heavy_engine_s += engine_seconds() - engine_before;
    accumulate(heavy_engine, histogram_delta(heavy_before, tick_hist()));
    heavy_ticks += counter_value(registry, "net_ticks_total") - ticks_before;
    heavy_batches += counter_value(registry, "net_tick_batches_total") - batches_before;
    heavy_bytes += wire_bytes() - bytes_before;
    phase_notes(heavy, result);
    heavy_phases.push_back(&heavy);

    Phase& sat = gen.run_saturated("saturated." + std::to_string(round), sat_s);
    const auto rates = window_rates(sat);
    sat_rates.insert(sat_rates.end(), rates.begin(), rates.end());
    if (sat.answered.load() == sat.events) {
      sat_p90.push_back(sat.account.phase_percentile(90.0));
      sat_p99.push_back(sat.account.phase_percentile(99.0));
      result.notes["phase." + sat.name + ".p90_ms"] = sat_p90.back();
      result.notes["phase." + sat.name + ".p99_ms"] = sat_p99.back();
    }
    result.notes["phase." + sat.name + ".served_per_s"] = median(rates);
  }
  gen.close_all();
  trace.end(measure);
  gen.stop_receiver();
  pin_to(0, std::thread::hardware_concurrency() - 1);
  const double peak_rss = peak_rss_mb();
  const auto server_stats = s->server->stats();
  s->server->stop();

  // Per-phase accounting.
  std::uint64_t attempted = 0, failed = 0, unanswered = 0;
  for (const auto& ph : gen.phases()) {
    unanswered += ph->events - ph->answered.load();
    const std::uint64_t ph_failed = ph->account.failed();
    result.phases.push_back({ph->name, ph->events, ph->events - ph_failed, ph_failed});
    if (ph->fixed) {
      attempted += ph->events;
      failed += ph_failed;
    }
  }
  failed += gen.duplicates() + gen.mismatched() + gen.refused();
  result.attempted = attempted;
  result.failed = failed;
  result.check(unanswered == 0, std::to_string(unanswered) + " ticks never answered");
  result.check(gen.duplicates() == 0, std::to_string(gen.duplicates()) + " ticks answered twice");
  result.check(gen.mismatched() == 0,
               std::to_string(gen.mismatched()) + " decisions for the wrong session");
  result.check(gen.refused() == 0, std::to_string(gen.refused()) + " opens or ticks refused");
  result.check(gen.unknown_frames() == 0, "unexpected frames or a dropped connection");
  result.check(server_stats.protocol_errors == 0, "server counted protocol errors");
  result.check(gen.close_acks() == gen.churned() + kSessions, "missing close acks");

  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("peak_rss_mb", peak_rss, "MB");
  // The window of ticks in flight bounds the backlog; the rate counts as
  // sustained only if the saturation phases also met the p99 limit.
  result.check(sat_rates.size() == kRounds * kWindows, "a saturation phase was too short");
  result.check(sat_p99.size() == kRounds && median(sat_p99) <= kLimitMs,
               "saturation phases missed the p99 limit");
  // The rate met in three windows out of four. On a shared VM some phases
  // ran up to ~35% faster than the rest, in no order from run to run; the
  // lower quartile moved least between runs of the same code (ahead of
  // the median, the mean and the upper quartile, which flipped between
  // the two levels).
  result.e2e("cycles_per_s", percentile(sat_rates, 25.0), "1/s");
  const auto window_quiet = [&](const std::vector<Phase*>& phases, double p) {
    std::vector<double> values;
    for (const Phase* ph : phases) {
      for (const double v : ph->account.window_percentiles(p)) values.push_back(v);
    }
    return quiet(values);
  };
  // The median is read at the light rate, the tail at saturation. The
  // light-rate p90 and every heavy-rate percentile hang on how fast the
  // server's threads wake, which the host's other tenants set: over
  // minutes the light-rate p90 moved from 0.05 to 0.08 ms and the
  // heavy-rate ones by ~40% between runs of the same code on a shared VM.
  // At saturation the server never sleeps, and a tick's wait tracks the
  // served rate. The wake-bound figures are per-layer metrics.
  const double light_p50 = window_quiet(light_phases, 50.0);
  result.e2e("p50_ms", light_p50, "ms");
  result.e2e("tail_ms", quiet(sat_p90), "ms");
  for (const Phase* light : light_phases) {
    result.check(tail_percentile_for(light->events / kWindows) >= 90.0 &&
                     tail_percentile_for(light->events) >= 99.0,
                 "too few light-rate ticks for ten beyond the reported percentiles");
  }
  for (const Phase* heavy : heavy_phases) {
    result.check(tail_percentile_for(heavy->events / kWindows) >= 99.0,
                 "fewer than ten heavy-phase ticks beyond the p99 of a window");
  }

  // Replay the listfile through a fresh single engine.
  {
    aps::serve::EngineConfig config;
    config.threads = kThreads;
    config.telemetry = false;
    aps::serve::MonitorEngine reference(config);
    reference.register_bundle(s->bundle);
    const auto replay = aps::net::replay_listfile(listfile, reference);
    result.check(replay.mismatches == 0,
                 std::to_string(replay.mismatches) + " replayed decisions differ");
    result.check(replay.unmatched == 0,
                 std::to_string(replay.unmatched) + " unmatched decisions in replay");
    result.check(replay.compared == gen.answered_total(),
                 "replay compared " + std::to_string(replay.compared) + " decisions, " +
                     std::to_string(gen.answered_total()) + " were answered");
    result.notes["replay.compared"] = static_cast<double>(replay.compared);
    const double listfile_bytes = static_cast<double>(std::filesystem::file_size(listfile));
    std::filesystem::remove(listfile);
    if (trace.enabled()) {
      result.layer("net.listfile_bytes_per_cycle",
                   replay.ticks > 0 ? listfile_bytes / static_cast<double>(replay.ticks) : 0.0,
                   "B");
    }
  }
  trace.end(root);

  if (trace.enabled()) {
    const double failed_frac =
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
    result.layer("failed_frac", failed_frac, "frac");
    // A light window holds too few ticks for a p99; each round pools its
    // windows instead.
    std::vector<double> light_p99;
    for (const Phase* ph : light_phases) light_p99.push_back(ph->account.phase_percentile(99.0));
    result.layer("wire.tick_p90_ms.light", window_quiet(light_phases, 90.0), "ms");
    result.layer("wire.tick_p99_ms.light", quiet(light_p99), "ms");
    result.layer("wire.tick_p50_ms.heavy", window_quiet(heavy_phases, 50.0), "ms");
    result.layer("wire.tick_p90_ms.heavy", window_quiet(heavy_phases, 90.0), "ms");
    result.layer("wire.tick_p99_ms.heavy", window_quiet(heavy_phases, 99.0), "ms");
    result.layer("net.ticks_per_batch", heavy_batches > 0 ? heavy_ticks / heavy_batches : 0.0,
                 "count");
    result.layer("net.bytes_per_cycle", heavy_ticks > 0 ? heavy_bytes / heavy_ticks : 0.0, "B");
    result.layer("serve.engine_busy_frac",
                 heavy_engine_s / (static_cast<double>(kReplicas) * heavy_wall), "frac");
    result.layer("net.backpressure_pauses",
                 static_cast<double>(server_stats.backpressure_pauses), "count");
    result.layer("serve.group_backpressure",
                 counter_value(registry, "serve_group_backpressure_total"), "count");
    result.layer("serve.engine_tick_us.p99", heavy_engine.percentile(99.0), "us");
    result.layer("serve.engine_tick_us.p50", light_engine.percentile(50.0), "us");
    result.layer("serve.outside_engine_us.p50",
                 light_p50 * 1e3 - light_engine.percentile(50.0), "us");
    result.layer("net.client_encode_us", gen.encode_us_per_frame(), "us");
    result.layer("net.client_decode_us", gen.decode_us_per_frame(), "us");
    result.layer("net.frames_dropped", static_cast<double>(server_stats.frames_dropped), "count");
    result.layer("net.protocol_errors", static_cast<double>(server_stats.protocol_errors),
                 "count");
    std::vector<double> rtt = gen.churn_open_rtt_ms();
    if (rtt.empty()) rtt = s->open_rtt_ms;
    result.layer("serve.open_rtt_ms.p50", percentile(rtt, 50.0), "ms");
    std::vector<double> late;
    for (const Phase* heavy : heavy_phases) late.push_back(heavy->account.late_percentile(99.0));
    result.layer("gen.late_ms.p99", median(late), "ms");
  }
}

}  // namespace perfbench
