// Length-prefixed, versioned binary wire protocol for the TCP ingest
// front door (mvme data-server style). Every frame is
//
//   u32 magic "APSN" | u16 version | u16 kind | u32 payload_len |
//   u32 header_crc (CRC-32 of the 12 bytes above) |
//   u32 payload_crc (CRC-32 of the payload) | payload bytes
//
// so a receiver can validate the header — including the length field —
// before trusting it, and the payload before decoding it. Payloads are
// encoded with the same hardened io::BinaryWriter/BinaryReader codec the
// artifact bundles use: hostile string lengths and element counts are
// rejected up front, and every decode must consume its payload exactly.
//
// Two ways in and out: encode(msg) / FrameDecoder::next() hand over owned
// Frame values, while append_frame(buf, msg) encodes header, CRCs and
// payload straight into a caller's buffer and next_view() lends the
// payload in place — the server's per-tick path, which allocates nothing
// per frame.
//
// Conversation shape (client -> server unless noted):
//   kHello        -> kHelloAck       version handshake, engine generation
//   kOpenSession  -> kOpenAck        client token -> serving session
//   kTick          : one observation for one session (server replies with
//   kDecision      : one decision per tick, fanned out at tick cadence)
//   kCloseSession -> kCloseAck       final per-session stats
//   kError         : either side; sender drops the connection after it
//
// Any malformed byte — bad magic/version/CRC, hostile length, trailing
// payload bytes, out-of-range enum — throws ProtocolError (an io::IoError),
// and the connection is dropped. Nothing here ever crashes on hostile
// input; the fuzz suite (tests/net_protocol_test.cpp) runs under ASan.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/serial.h"
#include "monitor/monitor.h"

namespace aps::net {

/// Malformed or hostile wire bytes. Derives from io::IoError so transport
/// and artifact corruption surface through one exception family.
class ProtocolError : public aps::io::IoError {
 public:
  explicit ProtocolError(const std::string& what) : IoError(what) {}
};

inline constexpr std::uint32_t kNetMagic = 0x4150534Eu;  // "APSN"
inline constexpr std::uint16_t kNetVersion = 1;
/// Hard ceiling for one frame's payload; anything larger in a header is
/// hostile, not a real frame (ticks are ~100 bytes).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;  // 1 MiB
inline constexpr std::size_t kFrameHeaderSize = 20;

enum class FrameKind : std::uint16_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenSession = 3,
  kOpenAck = 4,
  kTick = 5,
  kDecision = 6,
  kCloseSession = 7,
  kCloseAck = 8,
  kError = 9,
  kReject = 10,  ///< admission refused an open or a tick; back off
};
inline constexpr std::uint16_t kFrameKindMax = 10;

[[nodiscard]] const char* frame_kind_name(FrameKind kind);

/// A frame whose payload lives elsewhere (a decoder's buffer, a Frame).
struct FrameView {
  FrameKind kind = FrameKind::kError;
  std::span<const std::uint8_t> payload;
};

struct Frame {
  FrameKind kind = FrameKind::kError;
  std::vector<std::uint8_t> payload;

  /// Decoders take views; an owned frame converts implicitly.
  operator FrameView() const { return {kind, payload}; }
};

/// Serialize one frame (header + CRCs + payload) ready for the socket.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental frame parser for one connection: feed() whatever the socket
/// delivered, then pop complete frames with next(). Throws ProtocolError
/// on any malformed header or CRC mismatch — the connection is then
/// poisoned and must be dropped (the decoder stays throwing).
class FrameDecoder {
 public:
  /// `peer` names the connection in error messages.
  explicit FrameDecoder(std::string peer = "peer");

  void feed(std::span<const std::uint8_t> bytes);
  /// Next complete, CRC-verified frame; nullopt when more bytes are
  /// needed.
  [[nodiscard]] std::optional<Frame> next();
  /// next() without the copy: the payload points into the decoder's
  /// buffer and stays valid until the next feed().
  [[nodiscard]] std::optional<FrameView> next_view();
  /// Bytes buffered but not yet consumed by a complete frame.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string peer_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix (compacted on feed)
  bool poisoned_ = false;
};

// ---- Typed payloads --------------------------------------------------------

struct HelloMsg {
  std::uint32_t protocol_version = kNetVersion;
  std::string client_name;
};

struct HelloAckMsg {
  std::uint32_t protocol_version = kNetVersion;
  std::uint64_t generation = 0;  ///< serving engine model generation
  std::string server_name;
};

struct OpenSessionMsg {
  std::uint64_t token = 0;  ///< client-chosen id echoed in every reply
  std::string patient_id;
  std::string monitor;
  std::int32_t patient_index = 0;
};

struct OpenAckMsg {
  std::uint64_t token = 0;
  bool ok = false;
  std::string error;  ///< empty when ok
};

struct TickMsg {
  std::uint64_t token = 0;
  std::uint64_t seq = 0;  ///< client sequence, echoed in the decision
  aps::monitor::Observation obs;
};

struct DecisionMsg {
  std::uint64_t token = 0;
  std::uint64_t seq = 0;
  aps::monitor::Decision decision;
};

struct CloseSessionMsg {
  std::uint64_t token = 0;
};

struct CloseAckMsg {
  std::uint64_t token = 0;
  std::uint64_t cycles = 0;
  std::uint64_t alarms = 0;
};

struct ErrorMsg {
  std::uint32_t code = 0;
  std::string message;
};

/// Typed admission refusal (server -> client), unlike kError a NORMAL
/// overload outcome: the connection stays up and the client should back
/// off for retry_after_ms before retrying. Sent in place of kOpenAck when
/// a session open is shed, and in place of kDecision (seq echoed) when a
/// tick is dropped for an over-quota tenant. `reason` carries
/// serve::RejectReason values (1 = open shed, 2 = over-quota tick).
struct RejectMsg {
  std::uint64_t token = 0;
  std::uint64_t seq = 0;  ///< 0 for open rejections
  std::uint8_t reason = 0;
  std::uint32_t retry_after_ms = 0;
  std::string message;
};

[[nodiscard]] Frame encode(const HelloMsg& msg);
[[nodiscard]] Frame encode(const HelloAckMsg& msg);
[[nodiscard]] Frame encode(const OpenSessionMsg& msg);
[[nodiscard]] Frame encode(const OpenAckMsg& msg);
[[nodiscard]] Frame encode(const TickMsg& msg);
[[nodiscard]] Frame encode(const DecisionMsg& msg);
[[nodiscard]] Frame encode(const CloseSessionMsg& msg);
[[nodiscard]] Frame encode(const CloseAckMsg& msg);
[[nodiscard]] Frame encode(const ErrorMsg& msg);
[[nodiscard]] Frame encode(const RejectMsg& msg);

// Frame `msg` straight onto the end of `out` (header, CRCs, payload — the
// same bytes as encode_frame(encode(msg))); returns the bytes appended.
std::size_t append_frame(std::vector<std::uint8_t>& out, const HelloMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out,
                         const HelloAckMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out,
                         const OpenSessionMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out,
                         const OpenAckMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out, const TickMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out,
                         const DecisionMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out,
                         const CloseSessionMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out,
                         const CloseAckMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out, const ErrorMsg& msg);
std::size_t append_frame(std::vector<std::uint8_t>& out,
                         const RejectMsg& msg);

// Decoders validate the frame kind, every enum, and that the payload is
// consumed exactly; ProtocolError otherwise. A Frame converts to the view.
[[nodiscard]] HelloMsg decode_hello(FrameView frame);
[[nodiscard]] HelloAckMsg decode_hello_ack(FrameView frame);
[[nodiscard]] OpenSessionMsg decode_open_session(FrameView frame);
[[nodiscard]] OpenAckMsg decode_open_ack(FrameView frame);
[[nodiscard]] TickMsg decode_tick(FrameView frame);
[[nodiscard]] DecisionMsg decode_decision(FrameView frame);
[[nodiscard]] CloseSessionMsg decode_close_session(FrameView frame);
[[nodiscard]] CloseAckMsg decode_close_ack(FrameView frame);
[[nodiscard]] ErrorMsg decode_error(FrameView frame);
[[nodiscard]] RejectMsg decode_reject(FrameView frame);

// Observation/Decision body codecs, shared with the listfile record
// format so recorded streams and wire streams are one encoding.
// read_observation rejects a NaN or infinite field with ProtocolError:
// one NaN would poison a monitor's state and its shard's drift summary.
void write_observation(aps::io::BinaryWriter& out,
                       const aps::monitor::Observation& obs);
[[nodiscard]] aps::monitor::Observation read_observation(
    aps::io::BinaryReader& in);
void write_decision(aps::io::BinaryWriter& out,
                    const aps::monitor::Decision& decision);
[[nodiscard]] aps::monitor::Decision read_decision(aps::io::BinaryReader& in);

}  // namespace aps::net
