// Binary wire protocol of the socket serving tier (DESIGN.md §11).
//
// Framing grammar (all integers fixed little-endian, util/bytes.h):
//
//   stream  := frame*
//   frame   := len:u32 payload            -- len = |payload|, 9..kMaxFrame
//   payload := type:u8 seq:u64 body
//
//   HELLO    (0x01)  body := magic:4raw("EDB1") version:u16 mode:u8
//                            tenant:str16
//   HELLO_OK (0x02)  body := version:u16
//   QUERY    (0x03)  body := scenario protocols options       (below)
//   RESULT   (0x04)  body := key outcomes recommended quality (below)
//   ERROR    (0x05)  body := fatal:u8 code:u8 message:str32
//
// A binary connection opens with HELLO (magic first, so the server can
// reject a stray client after 4 bytes) and then pipelines QUERY frames;
// the server answers every QUERY seq with exactly one RESULT or ERROR
// frame carrying the same seq, in per-connection request order.  A
// connection whose first byte is '{' instead negotiates the
// newline-delimited JSON debug mode (one object per line — drivable from
// nc / bash /dev/tcp; see parse_json_request below).
//
// QUERY body (tenant travels in HELLO, not per query — the server stamps
// TuningQuery::tenant from the handshake):
//
//   scenario  := radio packet ring fs:f64 energy_epoch:f64 arrivals:u8
//                jitter_frac:f64 burst_factor:f64 model_version:u8
//                e_budget:f64 l_max:f64
//                -- after the radio's name, core::for_each_field's order
//   radio     := name:str16 p_tx p_rx p_sleep bitrate t_startup
//                t_turnaround t_cca                   (7 x f64)
//   packet    := payload header ack strobe ctrl sync  (6 x f64)
//   ring      := depth:i32 density:f64
//   protocols := n:u16 str16*n
//   options   := alpha:f64 eval_budget:i64
//
// RESULT body (SolveStats deliberately excluded — oracle_ns is wall
// clock, and the byte-identity gate compares streams bit for bit):
//
//   key       := hash:u64 canonical:str32
//   outcomes  := n:u16 outcome*n
//   outcome   := protocol:str16 feasible:u8
//                feasible=1 -> p1:point p2:point nbs:point nash:f64
//                feasible=0 -> code:u8 reason:str32
//   point     := nx:u16 f64*nx energy:f64 latency:f64
//   tail      := recommended:i32 quality:u8
//
// Determinism contract: doubles travel as raw IEEE-754 bit patterns, so
// encode(decode(encode(r))) == encode(r) byte for byte, and a wire-served
// result stream is bit-identical to encoding the in-process query_batch
// answers (the loadgen's fatal gate).  Decoders never trust the peer:
// every read is bounds-checked (ByteReader), enum bytes are
// range-checked, counts are capped, and a well-formed body must consume
// its frame exactly — anything else comes back kInvalidArgument instead
// of crashing (tests/server_wire_test.cpp's malformed corpus, under
// ASan in CI).
//
// Thread-safety: every function here is a pure function of its
// arguments.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/planner.h"
#include "util/bytes.h"
#include "util/error.h"

namespace edb::server {

inline constexpr char kMagic[4] = {'E', 'D', 'B', '1'};
inline constexpr std::uint16_t kWireVersion = 1;
// Ceiling on one frame's payload, for the server and the client alike.
// A QUERY is a few hundred bytes and a RESULT a few KiB, so 1 MiB is
// generous headroom, not a real workload size.
inline constexpr std::uint32_t kMaxFrame = 1u << 20;

enum class MsgType : std::uint8_t {
  kHello = 0x01,
  kHelloOk = 0x02,
  kQuery = 0x03,
  kResult = 0x04,
  kError = 0x05,
};

enum class WireMode : std::uint8_t { kBinary = 0, kJson = 1 };

struct Hello {
  std::uint16_t version = kWireVersion;
  WireMode mode = WireMode::kBinary;
  std::string tenant;  // empty = the default tenant (service/resilience.h)
};

// ERROR payload.  fatal=true means the server closes the connection after
// flushing (malformed frame, version mismatch); fatal=false answers one
// QUERY seq (shed, invalid scenario) and the connection lives on.
struct WireError {
  bool fatal = false;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ---------------------------------------------------------------- frames --

// Wraps a payload body into a full frame (len prefix + type + seq + body).
std::string frame(MsgType type, std::uint64_t seq, std::string_view body);

// Full-frame encoders (ready to append to an output ring).
std::string encode_hello(const Hello& hello);
std::string encode_hello_ok();
std::string encode_query(const service::TuningQuery& query,
                         std::uint64_t seq);
std::string encode_result(const service::TuningResult& result,
                          std::uint64_t seq);
std::string encode_error(const WireError& error, std::uint64_t seq);
// The server's answer to QUERY seq: RESULT when ok, non-fatal ERROR
// otherwise.  Also the reference encoder of the byte-identity gate.
std::string encode_response(const Expected<service::TuningResult>& result,
                            std::uint64_t seq);

// Body decoders.  kInvalidArgument on any malformed body (truncated,
// trailing bytes, out-of-range enum, oversized count).
Expected<Hello> decode_hello(std::string_view body);
Expected<service::TuningQuery> decode_query(std::string_view body);
Expected<service::TuningResult> decode_result(std::string_view body);
Expected<WireError> decode_error(std::string_view body);

// One parsed frame, body copied out of the ring.
struct FrameView {
  MsgType type = MsgType::kError;
  std::uint64_t seq = 0;
  std::string body;
};

enum class FrameStatus {
  kNeedMore,   // not enough buffered bytes yet
  kFrame,      // *out holds the next frame; its bytes were consumed
  kTooLarge,   // len exceeds max_frame: fatal protocol violation
  kMalformed,  // len < 9 (no room for type+seq) or unknown type byte
};

// Pulls the next frame off a connection's input ring.  Consumes bytes
// only on kFrame; the two error statuses leave the ring untouched so the
// caller can report and close.
FrameStatus next_frame(ByteRing& in, std::uint32_t max_frame,
                       FrameView* out);

// ------------------------------------------------- JSON debug mode -------
//
// One object per line.  Request schema (unknown keys are errors — debug
// clients should learn about typos, not get defaults):
//
//   {"hello":true,"tenant":"ops"}          -- optional, once, first line
//   {"seq":1,"lmax":2.5,"ebudget":0.05,"alpha":0.5,"depth":5,
//    "density":7,"fs":6.5e-5,"protocols":["X-MAC","LMAC"]}
//
// A query line reads the scenario through core::for_each_field, so its
// keys are the walk's names — the QUERY body's field list:
//
//   radio.p_tx radio.p_rx radio.p_sleep radio.bitrate radio.t_startup
//   radio.t_turnaround radio.t_cca packet.payload packet.header
//   packet.ack packet.strobe packet.ctrl packet.sync ring.depth
//   ring.density fs energy_epoch arrivals jitter_frac burst_factor
//   model_version req.e_budget req.l_max
//
// plus four short aliases (lmax = req.l_max, ebudget = req.e_budget,
// depth = ring.depth, density = ring.density) and the QUERY body's other
// fields: radio.name (a string), protocols (an array of at most 256
// names), alpha and eval_budget.  ring.depth, eval_budget and seq are
// integers (a fraction truncates toward zero; NaN, infinities and values
// outside the type are errors).  arrivals (0 periodic, 1 Poisson,
// 2 bursty) and model_version (0 kV1, 1 kV2Queueing) are integer codes,
// checked against the bounds the QUERY body checks.  hello takes true,
// false or a number (nonzero is true).
//
// Every field of the query line is optional and overrides
// core::Scenario::paper_default(); doubles are parsed with strtod, so
// hex-float spellings ("0x1.9p-5") round-trip exactly, and a line that
// sets every field asks exactly what a QUERY frame asks.  Responses
// mirror the binary RESULT/ERROR payloads with doubles printed as %.17g.

struct JsonRequest {
  bool hello = false;  // hello line: only tenant is meaningful
  std::string tenant;
  std::uint64_t seq = 0;
  service::TuningQuery query;
};

Expected<JsonRequest> parse_json_request(std::string_view line);

std::string json_hello_ok_line();
std::string json_response_line(const Expected<service::TuningResult>& result,
                               std::uint64_t seq);
std::string json_error_line(const WireError& error, std::uint64_t seq);

}  // namespace edb::server
