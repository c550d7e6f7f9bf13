#include "server/wire.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/scenario.h"

namespace edb::server {

namespace {

// Decode-side sanity caps: a peer that claims more than this is lying or
// corrupt, not a real workload (the registry holds six protocols).
constexpr std::size_t kMaxProtocols = 256;
constexpr std::size_t kMaxOutcomes = 256;
constexpr std::size_t kMaxParamDim = 4096;

constexpr std::uint8_t kMaxErrorCode =
    static_cast<std::uint8_t>(ErrorCode::kCancelled);

Error malformed(const char* what) {
  return make_error(ErrorCode::kInvalidArgument,
                    std::string("malformed frame: ") + what);
}

void write_point(ByteWriter& w, const core::OperatingPoint& p) {
  EDB_ASSERT(p.x.size() <= kMaxParamDim, "operating point dim over cap");
  w.u16(static_cast<std::uint16_t>(p.x.size()));
  for (double v : p.x) w.f64(v);
  w.f64(p.energy);
  w.f64(p.latency);
}

bool read_point(ByteReader& r, core::OperatingPoint* p) {
  const std::size_t nx = r.u16();
  if (r.failed() || nx > kMaxParamDim) return false;
  p->x.resize(nx);
  for (std::size_t i = 0; i < nx; ++i) p->x[i] = r.f64();
  p->energy = r.f64();
  p->latency = r.f64();
  return !r.failed();
}

}  // namespace

// ---------------------------------------------------------------- frames --

std::string frame(MsgType type, std::uint64_t seq, std::string_view body) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(1 + 8 + body.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(seq);
  w.bytes(body.data(), body.size());
  return w.take();
}

std::string encode_hello(const Hello& hello) {
  ByteWriter w;
  w.bytes(kMagic, sizeof kMagic);
  w.u16(hello.version);
  w.u8(static_cast<std::uint8_t>(hello.mode));
  w.str16(hello.tenant);
  return frame(MsgType::kHello, 0, w.buffer());
}

std::string encode_hello_ok() {
  ByteWriter w;
  w.u16(kWireVersion);
  return frame(MsgType::kHelloOk, 0, w.buffer());
}

std::string encode_query(const service::TuningQuery& query,
                         std::uint64_t seq) {
  const core::Scenario& s = query.scenario;
  const mac::ModelContext& c = s.context;
  ByteWriter w;
  w.str16(c.radio.name);
  w.f64(c.radio.p_tx);
  w.f64(c.radio.p_rx);
  w.f64(c.radio.p_sleep);
  w.f64(c.radio.bitrate);
  w.f64(c.radio.t_startup);
  w.f64(c.radio.t_turnaround);
  w.f64(c.radio.t_cca);
  w.f64(c.packet.payload_bytes);
  w.f64(c.packet.header_bytes);
  w.f64(c.packet.ack_bytes);
  w.f64(c.packet.strobe_bytes);
  w.f64(c.packet.ctrl_bytes);
  w.f64(c.packet.sync_bytes);
  w.i32(c.ring.depth);
  w.f64(c.ring.density);
  w.f64(c.fs);
  w.f64(c.energy_epoch);
  w.u8(static_cast<std::uint8_t>(c.arrivals));
  w.f64(c.jitter_frac);
  w.f64(c.burst_factor);
  w.u8(static_cast<std::uint8_t>(c.model_version));
  w.f64(s.requirements.e_budget);
  w.f64(s.requirements.l_max);
  EDB_ASSERT(query.protocols.size() <= kMaxProtocols,
             "protocol list over wire cap");
  w.u16(static_cast<std::uint16_t>(query.protocols.size()));
  for (const std::string& p : query.protocols) w.str16(p);
  w.f64(query.options.alpha);
  w.i64(query.options.eval_budget);
  return frame(MsgType::kQuery, seq, w.buffer());
}

std::string encode_result(const service::TuningResult& result,
                          std::uint64_t seq) {
  ByteWriter w;
  w.u64(result.key.hash);
  w.str32(result.key.canonical);
  EDB_ASSERT(result.per_protocol.size() <= kMaxOutcomes,
             "outcome list over wire cap");
  w.u16(static_cast<std::uint16_t>(result.per_protocol.size()));
  for (const service::ProtocolOutcome& o : result.per_protocol) {
    w.str16(o.protocol);
    w.u8(o.feasible() ? 1 : 0);
    if (o.feasible()) {
      write_point(w, o.outcome->p1);
      write_point(w, o.outcome->p2);
      write_point(w, o.outcome->nbs);
      w.f64(o.outcome->nash_product);
    } else {
      w.u8(static_cast<std::uint8_t>(o.infeasible_code));
      w.str32(o.infeasible_reason);
    }
  }
  w.i32(result.recommended);
  w.u8(static_cast<std::uint8_t>(result.quality));
  return frame(MsgType::kResult, seq, w.buffer());
}

std::string encode_error(const WireError& error, std::uint64_t seq) {
  ByteWriter w;
  w.u8(error.fatal ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(error.code));
  w.str32(error.message);
  return frame(MsgType::kError, seq, w.buffer());
}

std::string encode_response(const Expected<service::TuningResult>& result,
                            std::uint64_t seq) {
  if (result.ok()) return encode_result(*result, seq);
  return encode_error(WireError{false, result.error().code,
                                result.error().message},
                      seq);
}

Expected<Hello> decode_hello(std::string_view body) {
  ByteReader r(body);
  char magic[4] = {};
  magic[0] = static_cast<char>(r.u8());
  magic[1] = static_cast<char>(r.u8());
  magic[2] = static_cast<char>(r.u8());
  magic[3] = static_cast<char>(r.u8());
  if (r.failed() || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return malformed("bad magic");
  }
  Hello h;
  h.version = r.u16();
  const std::uint8_t mode = r.u8();
  h.tenant = r.str16();
  if (!r.exhausted()) return malformed("hello body");
  if (mode > static_cast<std::uint8_t>(WireMode::kJson)) {
    return malformed("unknown hello mode");
  }
  h.mode = static_cast<WireMode>(mode);
  return h;
}

Expected<service::TuningQuery> decode_query(std::string_view body) {
  ByteReader r(body);
  service::TuningQuery q;
  core::Scenario& s = q.scenario;
  mac::ModelContext& c = s.context;
  c.radio.name = r.str16();
  c.radio.p_tx = r.f64();
  c.radio.p_rx = r.f64();
  c.radio.p_sleep = r.f64();
  c.radio.bitrate = r.f64();
  c.radio.t_startup = r.f64();
  c.radio.t_turnaround = r.f64();
  c.radio.t_cca = r.f64();
  c.packet.payload_bytes = r.f64();
  c.packet.header_bytes = r.f64();
  c.packet.ack_bytes = r.f64();
  c.packet.strobe_bytes = r.f64();
  c.packet.ctrl_bytes = r.f64();
  c.packet.sync_bytes = r.f64();
  c.ring.depth = r.i32();
  c.ring.density = r.f64();
  c.fs = r.f64();
  c.energy_epoch = r.f64();
  const std::uint8_t arrivals = r.u8();
  c.jitter_frac = r.f64();
  c.burst_factor = r.f64();
  const std::uint8_t version = r.u8();
  s.requirements.e_budget = r.f64();
  s.requirements.l_max = r.f64();
  const std::size_t nproto = r.u16();
  if (r.failed() || nproto > kMaxProtocols) {
    return malformed("query protocols");
  }
  q.protocols.reserve(nproto);
  for (std::size_t i = 0; i < nproto; ++i) q.protocols.push_back(r.str16());
  q.options.alpha = r.f64();
  q.options.eval_budget = r.i64();
  if (!r.exhausted()) return malformed("query body");
  if (arrivals > static_cast<std::uint8_t>(net::ArrivalProcess::kBursty)) {
    return malformed("query arrival process");
  }
  c.arrivals = static_cast<net::ArrivalProcess>(arrivals);
  if (version > static_cast<std::uint8_t>(mac::ModelVersion::kV2Queueing)) {
    return malformed("query model version");
  }
  c.model_version = static_cast<mac::ModelVersion>(version);
  return q;
}

Expected<service::TuningResult> decode_result(std::string_view body) {
  ByteReader r(body);
  service::TuningResult out;
  out.key.hash = r.u64();
  out.key.canonical = r.str32();
  const std::size_t n = r.u16();
  if (r.failed() || n > kMaxOutcomes) return malformed("result outcomes");
  out.per_protocol.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    service::ProtocolOutcome o;
    o.protocol = r.str16();
    const std::uint8_t feasible = r.u8();
    if (r.failed() || feasible > 1) return malformed("result outcome flag");
    if (feasible) {
      core::BargainingOutcome b;
      if (!read_point(r, &b.p1) || !read_point(r, &b.p2) ||
          !read_point(r, &b.nbs)) {
        return malformed("result operating point");
      }
      b.nash_product = r.f64();
      o.outcome = std::move(b);
    } else {
      const std::uint8_t code = r.u8();
      o.infeasible_reason = r.str32();
      if (r.failed() || code > kMaxErrorCode) {
        return malformed("result infeasible code");
      }
      o.infeasible_code = static_cast<ErrorCode>(code);
    }
    out.per_protocol.push_back(std::move(o));
  }
  out.recommended = r.i32();
  const std::uint8_t quality = r.u8();
  if (!r.exhausted()) return malformed("result body");
  if (quality > static_cast<std::uint8_t>(service::ResultQuality::kCoarse)) {
    return malformed("result quality");
  }
  if (out.recommended < -1 ||
      out.recommended >= static_cast<int>(out.per_protocol.size())) {
    return malformed("result recommendation index");
  }
  out.quality = static_cast<service::ResultQuality>(quality);
  return out;
}

Expected<WireError> decode_error(std::string_view body) {
  ByteReader r(body);
  WireError e;
  const std::uint8_t fatal = r.u8();
  const std::uint8_t code = r.u8();
  e.message = r.str32();
  if (!r.exhausted() || fatal > 1 || code > kMaxErrorCode) {
    return malformed("error body");
  }
  e.fatal = fatal == 1;
  e.code = static_cast<ErrorCode>(code);
  return e;
}

FrameStatus next_frame(ByteRing& in, std::uint32_t max_frame,
                       FrameView* out) {
  if (in.size() < 4) return FrameStatus::kNeedMore;
  unsigned char len_bytes[4];
  in.copy_out(0, 4, len_bytes);
  const std::uint32_t len =
      static_cast<std::uint32_t>(len_bytes[0]) |
      (static_cast<std::uint32_t>(len_bytes[1]) << 8) |
      (static_cast<std::uint32_t>(len_bytes[2]) << 16) |
      (static_cast<std::uint32_t>(len_bytes[3]) << 24);
  if (len > max_frame) return FrameStatus::kTooLarge;
  if (len < 1 + 8) return FrameStatus::kMalformed;
  if (in.size() < 4 + static_cast<std::size_t>(len)) {
    return FrameStatus::kNeedMore;
  }
  std::string payload(len, '\0');
  in.copy_out(4, len, payload.data());
  ByteReader r(payload);
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kError)) {
    return FrameStatus::kMalformed;
  }
  out->type = static_cast<MsgType>(type);
  out->seq = r.u64();
  out->body.assign(payload, 9, payload.size() - 9);
  in.consume(4 + static_cast<std::size_t>(len));
  return FrameStatus::kFrame;
}

// ------------------------------------------------- JSON debug mode -------

namespace {

// Shortest %.17g-family spelling that round-trips the double exactly.
std::string json_double(double v) {
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void append_json_string(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char ch : s) {
    switch (ch) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(ch));
          *out += buf;
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

// Minimal cursor over one JSON line — just enough grammar for the flat
// request schema documented in wire.h (strings, numbers, string arrays).
struct JsonCursor {
  std::string_view s;
  std::size_t pos = 0;
  bool ok = true;

  void skip_ws() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  char peek() {
    skip_ws();
    return pos < s.size() ? s[pos] : '\0';
  }
  std::string string_token() {
    if (!eat('"')) {
      ok = false;
      return {};
    }
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      char ch = s[pos++];
      if (ch == '\\' && pos < s.size()) {
        const char esc = s[pos++];
        switch (esc) {
          case 'n': ch = '\n'; break;
          case 't': ch = '\t'; break;
          case 'r': ch = '\r'; break;
          case '"': ch = '"'; break;
          case '\\': ch = '\\'; break;
          case '/': ch = '/'; break;
          default: ok = false; return out;  // \uXXXX not needed here
        }
      }
      out.push_back(ch);
    }
    if (pos >= s.size()) {
      ok = false;
      return out;
    }
    ++pos;  // closing quote
    return out;
  }
  double number_token() {
    skip_ws();
    // strtod reads up to a terminator the view need not have: parse a
    // copy of the bytes before the next delimiter (npos - pos clamps).
    const std::string tok(
        s.substr(pos, s.find_first_of(",}] \t\r\n", pos) - pos));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str()) {
      ok = false;
      return 0;
    }
    pos += static_cast<std::size_t>(end - tok.c_str());
    return v;
  }
};

}  // namespace

Expected<JsonRequest> parse_json_request(std::string_view line) {
  JsonCursor c{line};
  if (!c.eat('{')) {
    return make_error(ErrorCode::kInvalidArgument,
                      "json request: expected '{'");
  }
  JsonRequest req;
  req.query.scenario = core::Scenario::paper_default();
  bool first = true;
  while (!c.eat('}')) {
    if (!first && !c.eat(',')) {
      return make_error(ErrorCode::kInvalidArgument,
                        "json request: expected ',' or '}'");
    }
    first = false;
    const std::string key = c.string_token();
    if (!c.ok || !c.eat(':')) {
      return make_error(ErrorCode::kInvalidArgument,
                        "json request: expected \"key\":");
    }
    if (key == "hello") {
      req.hello = c.number_token() != 0;
    } else if (key == "tenant") {
      req.tenant = c.string_token();
    } else if (key == "seq") {
      req.seq = static_cast<std::uint64_t>(c.number_token());
    } else if (key == "lmax") {
      req.query.scenario.requirements.l_max = c.number_token();
    } else if (key == "ebudget") {
      req.query.scenario.requirements.e_budget = c.number_token();
    } else if (key == "alpha") {
      req.query.options.alpha = c.number_token();
    } else if (key == "eval_budget") {
      req.query.options.eval_budget =
          static_cast<long long>(c.number_token());
    } else if (key == "depth") {
      req.query.scenario.context.ring.depth =
          static_cast<int>(c.number_token());
    } else if (key == "density") {
      req.query.scenario.context.ring.density = c.number_token();
    } else if (key == "fs") {
      req.query.scenario.context.fs = c.number_token();
    } else if (key == "protocols") {
      if (!c.eat('[')) {
        return make_error(ErrorCode::kInvalidArgument,
                          "json request: protocols expects an array");
      }
      if (!c.eat(']')) {
        do {
          req.query.protocols.push_back(c.string_token());
        } while (c.ok && c.eat(','));
        if (!c.ok || !c.eat(']')) {
          return make_error(ErrorCode::kInvalidArgument,
                            "json request: bad protocols array");
        }
      }
    } else {
      return make_error(ErrorCode::kInvalidArgument,
                        "json request: unknown key \"" + key + "\"");
    }
    if (!c.ok) {
      return make_error(ErrorCode::kInvalidArgument,
                        "json request: bad value for \"" + key + "\"");
    }
  }
  c.skip_ws();
  if (c.pos != line.size()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "json request: trailing bytes after '}'");
  }
  return req;
}

std::string json_hello_ok_line() {
  return std::string("{\"hello_ok\":") + std::to_string(kWireVersion) +
         "}\n";
}

std::string json_response_line(const Expected<service::TuningResult>& result,
                               std::uint64_t seq) {
  if (!result.ok()) {
    return json_error_line(
        WireError{false, result.error().code, result.error().message}, seq);
  }
  const service::TuningResult& r = *result;
  std::string out = "{\"seq\":" + std::to_string(seq) + ",\"ok\":true";
  out += ",\"key\":";
  append_json_string(&out, r.key.canonical);
  out += ",\"quality\":";
  append_json_string(&out, service::quality_name(r.quality));
  out += ",\"recommended\":";
  if (r.recommended >= 0) {
    append_json_string(
        &out, r.per_protocol[static_cast<std::size_t>(r.recommended)]
                  .protocol);
  } else {
    out += "null";
  }
  out += ",\"protocols\":[";
  for (std::size_t i = 0; i < r.per_protocol.size(); ++i) {
    const service::ProtocolOutcome& o = r.per_protocol[i];
    if (i) out += ",";
    out += "{\"name\":";
    append_json_string(&out, o.protocol);
    if (o.feasible()) {
      out += ",\"feasible\":true,\"energy\":" +
             json_double(o.outcome->nbs.energy) +
             ",\"latency\":" + json_double(o.outcome->nbs.latency) +
             ",\"nash_product\":" + json_double(o.outcome->nash_product);
      out += ",\"x\":[";
      for (std::size_t k = 0; k < o.outcome->nbs.x.size(); ++k) {
        if (k) out += ",";
        out += json_double(o.outcome->nbs.x[k]);
      }
      out += "]";
    } else {
      out += ",\"feasible\":false,\"code\":";
      append_json_string(&out, error_code_name(o.infeasible_code));
      out += ",\"reason\":";
      append_json_string(&out, o.infeasible_reason);
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

std::string json_error_line(const WireError& error, std::uint64_t seq) {
  std::string out = "{\"seq\":" + std::to_string(seq) + ",\"ok\":false";
  out += ",\"fatal\":";
  out += error.fatal ? "true" : "false";
  out += ",\"code\":";
  append_json_string(&out, error_code_name(error.code));
  out += ",\"message\":";
  append_json_string(&out, error.message);
  out += "}\n";
  return out;
}

}  // namespace edb::server
