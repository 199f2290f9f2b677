// Wire-protocol hardening suite, io_corruption_test style: every typed
// payload round-trips bit-exactly; the frame decoder survives truncation
// at every byte boundary, hundreds of random byte flips, and deliberately
// hostile length fields — always with a clean ProtocolError (or simply
// "need more bytes"), never a crash or a huge allocation. The ASan/UBSan
// CI job runs this with poisoned heap checks on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/listfile.h"
#include "net/protocol.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

/// One of every frame kind, payloads exercising strings, enums, floats.
std::vector<net::Frame> sample_frames() {
  Rng rng(17);
  const auto obs = testutil::synth_observation(rng, 35.0);
  monitor::Decision decision;
  decision.alarm = true;
  decision.predicted = HazardType::kH1TooMuchInsulin;
  decision.rule_id = 7;
  return {
      net::encode(net::HelloMsg{.protocol_version = net::kNetVersion,
                                .client_name = "fuzz client"}),
      net::encode(net::HelloAckMsg{.protocol_version = net::kNetVersion,
                                   .generation = 3,
                                   .server_name = "srv"}),
      net::encode(net::OpenSessionMsg{.token = 42,
                                      .patient_id = "patient/7",
                                      .monitor = "cawt",
                                      .patient_index = 7}),
      net::encode(net::OpenAckMsg{.token = 42, .ok = true, .error = ""}),
      net::encode(net::TickMsg{.token = 42, .seq = 9, .obs = obs}),
      net::encode(
          net::DecisionMsg{.token = 42, .seq = 9, .decision = decision}),
      net::encode(net::CloseSessionMsg{.token = 42}),
      net::encode(net::CloseAckMsg{.token = 42, .cycles = 10, .alarms = 2}),
      net::encode(net::ErrorMsg{.code = 5, .message = "went wrong"}),
      net::encode(net::RejectMsg{.token = 42,
                                 .seq = 9,
                                 .reason = 2,
                                 .retry_after_ms = 250,
                                 .message = "tenant over quota"}),
  };
}

std::vector<std::uint8_t> wire_bytes(const std::vector<net::Frame>& frames) {
  std::vector<std::uint8_t> bytes;
  for (const auto& frame : frames) {
    const auto encoded = net::encode_frame(frame);
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  return bytes;
}

bool frames_equal(const net::Frame& a, const net::Frame& b) {
  return a.kind == b.kind && a.payload == b.payload;
}

TEST(NetProtocol, AllFrameKindsRoundTripThroughTheDecoder) {
  const auto frames = sample_frames();
  net::FrameDecoder decoder("test");
  decoder.feed(wire_bytes(frames));
  for (const auto& expected : frames) {
    const auto got = decoder.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(frames_equal(*got, expected));
  }
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetProtocol, TypedFieldsSurviveTheRoundTrip) {
  Rng rng(23);
  const auto obs = testutil::synth_observation(rng, 120.0);
  const net::TickMsg tick{.token = 99, .seq = 123456789, .obs = obs};
  const auto decoded = net::decode_tick(net::encode(tick));
  EXPECT_EQ(decoded.token, tick.token);
  EXPECT_EQ(decoded.seq, tick.seq);
  EXPECT_EQ(decoded.obs.bg, obs.bg);
  EXPECT_EQ(decoded.obs.action, obs.action);
  EXPECT_EQ(decoded.obs.isf, obs.isf);

  const net::HelloAckMsg ack{.protocol_version = 1,
                             .generation = 77,
                             .server_name = "aps-ingest"};
  const auto ack2 = net::decode_hello_ack(net::encode(ack));
  EXPECT_EQ(ack2.generation, 77u);
  EXPECT_EQ(ack2.server_name, "aps-ingest");

  monitor::Decision d;
  d.alarm = true;
  d.predicted = HazardType::kH2TooLittleInsulin;
  d.rule_id = -1;
  const auto d2 =
      net::decode_decision(
          net::encode(net::DecisionMsg{.token = 5, .seq = 6, .decision = d}))
          .decision;
  EXPECT_EQ(d2.alarm, d.alarm);
  EXPECT_EQ(d2.predicted, d.predicted);
  EXPECT_EQ(d2.rule_id, d.rule_id);
}

TEST(NetProtocol, RejectFrameRoundTripsAndGuardsItsReason) {
  // Both wire-legal reasons survive the round trip with every field.
  for (const std::uint8_t reason : {1, 2}) {
    const net::RejectMsg msg{.token = 7,
                             .seq = reason == 1 ? 0u : 31u,
                             .reason = reason,
                             .retry_after_ms = 125,
                             .message = "busy"};
    const auto decoded = net::decode_reject(net::encode(msg));
    EXPECT_EQ(decoded.token, msg.token);
    EXPECT_EQ(decoded.seq, msg.seq);
    EXPECT_EQ(decoded.reason, reason);
    EXPECT_EQ(decoded.retry_after_ms, 125u);
    EXPECT_EQ(decoded.message, "busy");
  }
  // Reason 0 ("not rejected") and anything past the defined range are
  // hostile on the wire — rejected before the caller sees the message.
  for (const std::uint8_t reason : {0, 3, 200}) {
    io::BinaryWriter w;
    w.u64(7);
    w.u64(0);
    w.u8(reason);
    w.u32(125);
    w.u64(0);  // empty message
    const net::Frame frame{net::FrameKind::kReject, w.take()};
    EXPECT_THROW((void)net::decode_reject(frame), net::ProtocolError)
        << "reason " << static_cast<int>(reason);
  }
  // Trailing garbage after a valid reject body is refused too.
  {
    auto frame = net::encode(net::RejectMsg{
        .token = 1, .seq = 2, .reason = 1, .retry_after_ms = 3,
        .message = ""});
    frame.payload.push_back(0xAA);
    EXPECT_THROW((void)net::decode_reject(frame), net::ProtocolError);
  }
}

TEST(NetProtocol, ByteByByteDeliveryYieldsIdenticalFrames) {
  const auto frames = sample_frames();
  const auto bytes = wire_bytes(frames);
  net::FrameDecoder decoder("test");
  std::vector<net::Frame> got;
  for (const std::uint8_t byte : bytes) {
    decoder.feed({&byte, 1});
    while (auto frame = decoder.next()) got.push_back(*std::move(frame));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(frames_equal(got[i], frames[i])) << "frame " << i;
  }
}

// Truncation at EVERY byte boundary: a prefix must decode to exactly the
// frames that fit entirely, and never crash or throw — a short read is a
// normal condition, not corruption.
TEST(NetProtocol, TruncationAtEveryBoundaryYieldsOnlyCompleteFrames) {
  const auto frames = sample_frames();
  const auto bytes = wire_bytes(frames);
  // Frame start offsets, to know how many frames fit in a prefix.
  std::vector<std::size_t> ends;
  {
    std::size_t off = 0;
    for (const auto& frame : frames) {
      off += net::kFrameHeaderSize + frame.payload.size();
      ends.push_back(off);
    }
  }
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    net::FrameDecoder decoder("truncated");
    decoder.feed({bytes.data(), cut});
    std::size_t complete = 0;
    while (true) {
      const auto frame = decoder.next();  // must not throw on truncation
      if (!frame.has_value()) break;
      ASSERT_LT(complete, frames.size());
      EXPECT_TRUE(frames_equal(*frame, frames[complete]));
      ++complete;
    }
    std::size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    EXPECT_EQ(complete, expected) << "prefix of " << cut << " bytes";
  }
}

// Random corruption: flip one byte anywhere in the stream. Frames before
// the flipped one still decode bit-exactly; the flipped frame itself must
// surface as ProtocolError (every header field is covered by the header
// CRC, every payload byte by the payload CRC), after which the decoder
// stays poisoned. 600 trials cover all regions of the layout.
TEST(NetProtocol, RandomByteFlipsNeverCrashAndNeverYieldCorruptFrames) {
  const auto frames = sample_frames();
  const auto clean = wire_bytes(frames);
  std::vector<std::size_t> ends;
  {
    std::size_t off = 0;
    for (const auto& frame : frames) {
      off += net::kFrameHeaderSize + frame.payload.size();
      ends.push_back(off);
    }
  }
  Rng rng(4242);
  int errors_seen = 0;
  for (int trial = 0; trial < 600; ++trial) {
    auto bytes = clean;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
    const auto flip = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    bytes[pos] ^= flip;
    // Index of the frame containing the flipped byte.
    std::size_t flipped = 0;
    while (ends[flipped] <= pos) ++flipped;

    net::FrameDecoder decoder("fuzz");
    decoder.feed(bytes);
    std::size_t decoded = 0;
    bool threw = false;
    try {
      while (auto frame = decoder.next()) {
        ASSERT_LT(decoded, frames.size());
        EXPECT_TRUE(frames_equal(*frame, frames[decoded]))
            << "trial " << trial << ": corrupt frame surfaced";
        ++decoded;
      }
    } catch (const net::ProtocolError&) {
      threw = true;
      ++errors_seen;
      // Poisoned decoders keep throwing rather than resyncing into the
      // middle of hostile bytes.
      EXPECT_THROW((void)decoder.next(), net::ProtocolError);
    }
    EXPECT_EQ(decoded, flipped) << "trial " << trial;
    EXPECT_TRUE(threw) << "trial " << trial << ": flip at " << pos
                       << " went undetected";
  }
  EXPECT_EQ(errors_seen, 600);
}

// A length field of 4 GiB with a VALID header CRC (an attacker can
// compute CRCs too) must be rejected by the payload ceiling before any
// allocation happens.
TEST(NetProtocol, HostileLengthWithValidCrcIsRejectedUpFront) {
  std::vector<std::uint8_t> bytes;
  const auto put_u16 = [&](std::uint16_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  const auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u32(net::kNetMagic);
  put_u16(net::kNetVersion);
  put_u16(static_cast<std::uint16_t>(net::FrameKind::kTick));
  put_u32(0xFFFFFFFFu);                        // hostile payload length
  put_u32(io::crc32(bytes.data(), bytes.size()));  // valid header CRC
  put_u32(0);                                  // payload CRC (never reached)
  net::FrameDecoder decoder("hostile");
  decoder.feed(bytes);
  EXPECT_THROW((void)decoder.next(), net::ProtocolError);

  // Same attack one byte over the actual ceiling.
  bytes.clear();
  put_u32(net::kNetMagic);
  put_u16(net::kNetVersion);
  put_u16(static_cast<std::uint16_t>(net::FrameKind::kTick));
  put_u32(net::kMaxFramePayload + 1);
  put_u32(io::crc32(bytes.data(), bytes.size()));
  put_u32(0);
  net::FrameDecoder decoder2("hostile");
  decoder2.feed(bytes);
  EXPECT_THROW((void)decoder2.next(), net::ProtocolError);
}

TEST(NetProtocol, UnknownKindAndBadVersionAreRejected) {
  const auto craft = [](std::uint16_t version, std::uint16_t kind) {
    std::vector<std::uint8_t> bytes;
    const auto put_u16 = [&](std::uint16_t v) {
      bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
      bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    };
    const auto put_u32 = [&](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
      }
    };
    put_u32(net::kNetMagic);
    put_u16(version);
    put_u16(kind);
    put_u32(0);
    put_u32(io::crc32(bytes.data(), bytes.size()));
    put_u32(io::crc32(nullptr, 0));
    return bytes;
  };
  {
    net::FrameDecoder decoder("bad-kind");
    decoder.feed(craft(net::kNetVersion, net::kFrameKindMax + 1));
    EXPECT_THROW((void)decoder.next(), net::ProtocolError);
  }
  {
    net::FrameDecoder decoder("bad-kind");
    decoder.feed(craft(net::kNetVersion, 0));
    EXPECT_THROW((void)decoder.next(), net::ProtocolError);
  }
  {
    net::FrameDecoder decoder("bad-version");
    decoder.feed(craft(net::kNetVersion + 1, 1));
    EXPECT_THROW((void)decoder.next(), net::ProtocolError);
  }
}

// Payload-level hardening: trailing bytes, hostile string lengths inside
// a CRC-valid frame, and out-of-range enums all throw cleanly.
TEST(NetProtocol, PayloadDecodersRejectTrailingAndHostileBytes) {
  // Trailing byte after a valid close-session body.
  {
    io::BinaryWriter w;
    w.u64(42);
    w.u8(0xAA);
    const net::Frame frame{net::FrameKind::kCloseSession, w.take()};
    EXPECT_THROW((void)net::decode_close_session(frame), net::ProtocolError);
  }
  // String length claiming far more bytes than the payload holds.
  {
    io::BinaryWriter w;
    w.u32(net::kNetVersion);
    w.u64(0xFFFFFFFFFFFFull);  // hello client_name length
    const net::Frame frame{net::FrameKind::kHello, w.take()};
    EXPECT_THROW((void)net::decode_hello(frame), io::IoError);
  }
  // Wrong kind for the decoder.
  {
    const auto frame = net::encode(net::CloseSessionMsg{.token = 1});
    EXPECT_THROW((void)net::decode_tick(frame), net::ProtocolError);
  }
  // Out-of-range control action inside a tick.
  {
    io::BinaryWriter w;
    w.u64(1);
    w.u64(2);
    Rng rng(3);
    auto obs = testutil::synth_observation(rng, 0.0);
    obs.action = static_cast<ControlAction>(7);
    net::write_observation(w, obs);
    const net::Frame frame{net::FrameKind::kTick, w.take()};
    EXPECT_THROW((void)net::decode_tick(frame), net::ProtocolError);
  }
  // Out-of-range alarm flag and hazard class inside a decision.
  {
    io::BinaryWriter w;
    w.u64(1);
    w.u64(2);
    w.u8(2);  // alarm must be 0/1
    w.u8(0);
    w.i32(0);
    const net::Frame frame{net::FrameKind::kDecision, w.take()};
    EXPECT_THROW((void)net::decode_decision(frame), net::ProtocolError);
  }
  {
    io::BinaryWriter w;
    w.u64(1);
    w.u64(2);
    w.u8(1);
    w.u8(9);  // hazard classes stop at kH2TooLittleInsulin
    w.i32(0);
    const net::Frame frame{net::FrameKind::kDecision, w.take()};
    EXPECT_THROW((void)net::decode_decision(frame), net::ProtocolError);
  }
  // Truncated payload (body shorter than the fields claim).
  {
    io::BinaryWriter w;
    w.u32(net::kNetVersion);
    const net::Frame frame{net::FrameKind::kHelloAck, w.take()};
    EXPECT_THROW((void)net::decode_hello_ack(frame), io::IoError);
  }
}

TEST(NetProtocol, OversizedPayloadRefusesToEncode) {
  net::Frame frame;
  frame.kind = net::FrameKind::kError;
  frame.payload.assign(net::kMaxFramePayload + 1, 0);
  EXPECT_THROW((void)net::encode_frame(frame), net::ProtocolError);
}

// The in-place path (append_frame / next_view) is the same wire format as
// the owned one (encode + encode_frame / next), byte for byte.
TEST(NetProtocol, AppendFrameWritesTheBytesOfEncodeFrame) {
  Rng rng(31);
  const auto obs = testutil::synth_observation(rng, 50.0);
  monitor::Decision decision;
  decision.alarm = true;
  decision.predicted = HazardType::kH2TooLittleInsulin;
  decision.rule_id = 3;
  std::vector<std::uint8_t> appended = {0xEE};  // frames go after this
  std::vector<std::uint8_t> expected = {0xEE};
  const auto both = [&](const auto& msg) {
    const auto encoded = net::encode_frame(net::encode(msg));
    EXPECT_EQ(net::append_frame(appended, msg), encoded.size());
    expected.insert(expected.end(), encoded.begin(), encoded.end());
  };
  both(net::HelloMsg{.client_name = "c"});
  both(net::HelloAckMsg{.generation = 4, .server_name = "s"});
  both(net::OpenSessionMsg{.token = 1, .patient_id = "p", .monitor = "cawt"});
  both(net::OpenAckMsg{.token = 1, .ok = false, .error = "no"});
  both(net::TickMsg{.token = 1, .seq = 2, .obs = obs});
  both(net::DecisionMsg{.token = 1, .seq = 2, .decision = decision});
  both(net::CloseSessionMsg{.token = 1});
  both(net::CloseAckMsg{.token = 1, .cycles = 2, .alarms = 1});
  both(net::ErrorMsg{.code = 2, .message = "bad"});
  both(net::RejectMsg{.token = 1, .seq = 2, .reason = 2, .message = "shed"});
  EXPECT_EQ(appended, expected);

  const auto frames = sample_frames();
  net::FrameDecoder decoder("views");
  decoder.feed(wire_bytes(frames));
  for (const auto& frame : frames) {
    const auto view = decoder.next_view();
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->kind, frame.kind);
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           frame.payload.begin(), frame.payload.end()));
  }
  EXPECT_FALSE(decoder.next_view().has_value());
}

// A NaN or infinite observation field arrives in a frame whose CRCs are
// valid (the sender computed them over the hostile value); the tick
// decoder must refuse it, naming the field, for every field.
TEST(NetProtocol, NonFiniteObservationFieldsAreRejected) {
  const std::vector<std::pair<double monitor::Observation::*, const char*>>
      fields = {{&monitor::Observation::time_min, "time_min"},
                {&monitor::Observation::bg, "bg"},
                {&monitor::Observation::bg_rate, "bg_rate"},
                {&monitor::Observation::iob, "iob"},
                {&monitor::Observation::iob_rate, "iob_rate"},
                {&monitor::Observation::commanded_rate, "commanded_rate"},
                {&monitor::Observation::previous_rate, "previous_rate"},
                {&monitor::Observation::basal_rate, "basal_rate"},
                {&monitor::Observation::isf, "isf"}};
  const double hostile[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  Rng rng(41);
  const auto clean = testutil::synth_observation(rng, 10.0);
  for (const auto& [field, name] : fields) {
    for (const double value : hostile) {
      auto obs = clean;
      obs.*field = value;
      net::FrameDecoder decoder("non-finite");
      decoder.feed(net::encode_frame(
          net::encode(net::TickMsg{.token = 1, .seq = 2, .obs = obs})));
      const auto frame = decoder.next();  // CRCs are valid
      ASSERT_TRUE(frame.has_value());
      try {
        (void)net::decode_tick(*frame);
        ADD_FAILURE() << name << " = " << value << " was accepted";
      } catch (const net::ProtocolError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  }
  // The untouched observation still decodes.
  EXPECT_NO_THROW((void)net::decode_tick(
      net::encode(net::TickMsg{.token = 1, .seq = 2, .obs = clean})));
}

// Listfile tick records share read_observation: a recorded NaN is refused
// on read, after the records before it come back intact.
TEST(NetProtocol, ListfileTickRecordWithNanIsRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "aps_nan_tick.listfile")
          .string();
  Rng rng(43);
  const auto good = testutil::synth_observation(rng, 5.0);
  auto bad = testutil::synth_observation(rng, 10.0);
  bad.bg = std::numeric_limits<double>::quiet_NaN();
  {
    net::ListfileWriter writer(path);
    writer.record_open({.key = 1, .patient_id = "p", .monitor = "cawt"});
    writer.record_tick({.key = 1, .seq = 0, .obs = good});
    writer.record_tick({.key = 1, .seq = 1, .obs = bad});
    writer.finish();
  }
  net::ListfileReader reader(path);
  ASSERT_EQ(reader.next()->kind, net::RecordKind::kOpen);
  const auto tick = reader.next();
  ASSERT_EQ(tick->kind, net::RecordKind::kTick);
  EXPECT_EQ(tick->tick.obs.bg, good.bg);
  EXPECT_THROW((void)reader.next(), net::ProtocolError);
  std::remove(path.c_str());
}

}  // namespace
