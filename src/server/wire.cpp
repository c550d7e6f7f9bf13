#include "server/wire.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/scenario.h"

namespace edb::server {

namespace {

// Decode-side sanity caps: a peer that claims more than this is lying or
// corrupt, not a real workload (the registry holds six protocols).
constexpr std::size_t kMaxProtocols = 256;
constexpr std::size_t kMaxOutcomes = 256;
constexpr std::size_t kMaxParamDim = 4096;

Error malformed(const char* what) {
  return make_error(ErrorCode::kInvalidArgument,
                    std::string("malformed frame: ") + what);
}

// ------------------------------------------------------------ body walks --
//
// Each body is laid out once, as a walk over a BodyWriter (encoder) or a
// BodyReader (decoder, which runs the checks).  io.check(ok, label) stops
// the walk if the body is short or !ok; io.later(ok, label) reports !ok
// only once the body proved exact; io.u8(v, max) is ok when v <= max.

// kMagic read as one little-endian u32.
constexpr std::uint32_t kMagicWord =
    kMagic[0] | kMagic[1] << 8 | kMagic[2] << 16 | kMagic[3] << 24;

class BodyWriter : public ByteWriter {
 public:
  template <typename E>
  bool u8(E v, E) {
    ByteWriter::u8(static_cast<std::uint8_t>(v));
    return true;
  }
  template <typename T>
  bool count(const std::vector<T>& v, std::size_t cap, const char*) {
    EDB_ASSERT(v.size() <= cap, "list over wire cap");
    u16(static_cast<std::uint16_t>(v.size()));
    return true;
  }
  template <typename T>
  const T& engage(const std::optional<T>& o) {
    return *o;
  }
  bool check(bool, const char*) { return true; }
  void later(bool, const char*) {}
};

class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : r_(body) {}

  void u16(std::uint16_t& v) { v = r_.u16(); }
  void u32(std::uint32_t& v) { v = r_.u32(); }
  void u64(std::uint64_t& v) { v = r_.u64(); }
  void i32(int& v) { v = r_.i32(); }
  void i64(long long& v) { v = r_.i64(); }
  void f64(double& v) { v = r_.f64(); }
  void str16(std::string& s) { s = r_.str16(); }
  void str32(std::string& s) { s = r_.str32(); }
  template <typename E>
  bool u8(E& v, E max) {
    const std::uint8_t b = r_.u8();
    v = static_cast<E>(b);
    return b <= static_cast<std::uint8_t>(max);
  }
  template <typename T>
  bool count(std::vector<T>& v, std::size_t cap, const char* label) {
    const std::size_t n = r_.u16();
    if (!check(n <= cap, label)) return false;
    v.resize(n);
    return true;
  }
  template <typename T>
  T& engage(std::optional<T>& o) {
    return o.emplace();
  }
  bool check(bool ok, const char* label) {
    if (!r_.failed() && ok) return true;
    if (!error_) error_ = label;
    return false;
  }
  void later(bool ok, const char* label) {
    if (!ok && !late_) late_ = label;
  }

  // Decodes one body with `walk`: the first immediate failure, else
  // `label` when the body is short or long, else the first deferred one.
  template <typename T>
  static Expected<T> decode(std::string_view body, const char* label,
                            void (*walk)(BodyReader&, T&)) {
    BodyReader r(body);
    T value;
    walk(r, value);
    if (r.error_) return malformed(r.error_);
    if (!r.r_.exhausted()) return malformed(label);
    if (r.late_) return malformed(r.late_);
    return value;
  }

 private:
  ByteReader r_;
  const char* error_ = nullptr;
  const char* late_ = nullptr;
};

constexpr auto kMaxErrorCode = ErrorCode::kCancelled;

// The last code of each enum in the scenario walk, the bound both doors
// check: the QUERY body reads the code as a u8, a JSON line as an int.
constexpr auto max_code(net::ArrivalProcess) {
  return net::ArrivalProcess::kBursty;
}
constexpr auto max_code(mac::ModelVersion) {
  return mac::ModelVersion::kV2Queueing;
}

template <typename IO, typename H>
void hello_body(IO& io, H& h) {
  std::uint32_t magic = kMagicWord;
  io.u32(magic);
  if (!io.check(magic == kMagicWord, "bad magic")) return;
  io.u16(h.version);
  io.later(io.u8(h.mode, WireMode::kJson), "unknown hello mode");
  io.str16(h.tenant);
}

// The QUERY body: the radio's name, the scenario walk (the cache key's
// field list and order), then the protocols and the options.
template <typename IO, typename Q>
void query_body(IO& io, Q& q) {
  io.str16(q.scenario.context.radio.name);
  core::for_each_field(q.scenario, [&io](const char*, auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, net::ArrivalProcess>) {
      io.later(io.u8(v, max_code(v)), "query arrival process");
    } else if constexpr (std::is_same_v<T, mac::ModelVersion>) {
      io.later(io.u8(v, max_code(v)), "query model version");
    } else if constexpr (std::is_same_v<T, int>) {
      io.i32(v);
    } else {
      io.f64(v);
    }
  });
  if (!io.count(q.protocols, kMaxProtocols, "query protocols")) return;
  for (auto& p : q.protocols) io.str16(p);
  io.f64(q.options.alpha);
  io.i64(q.options.eval_budget);
}

template <typename IO, typename P>
bool point_body(IO& io, P& p) {
  if (!io.count(p.x, kMaxParamDim, "result operating point")) return false;
  for (auto& v : p.x) io.f64(v);
  io.f64(p.energy);
  io.f64(p.latency);
  return io.check(true, "result operating point");
}

template <typename IO, typename R>
void result_body(IO& io, R& r) {
  io.u64(r.key.hash);
  io.str32(r.key.canonical);
  if (!io.count(r.per_protocol, kMaxOutcomes, "result outcomes")) return;
  for (auto& o : r.per_protocol) {
    io.str16(o.protocol);
    bool feasible = o.feasible();
    if (!io.check(io.u8(feasible, true), "result outcome flag")) return;
    if (feasible) {
      auto& b = io.engage(o.outcome);
      if (!point_body(io, b.p1) || !point_body(io, b.p2) ||
          !point_body(io, b.nbs)) {
        return;
      }
      io.f64(b.nash_product);
    } else {
      const bool code_ok = io.u8(o.infeasible_code, kMaxErrorCode);
      io.str32(o.infeasible_reason);
      if (!io.check(code_ok, "result infeasible code")) return;
    }
  }
  io.i32(r.recommended);
  io.later(io.u8(r.quality, service::ResultQuality::kCoarse),
           "result quality");
  io.later(r.recommended >= -1 &&
               r.recommended < static_cast<int>(r.per_protocol.size()),
           "result recommendation index");
}

template <typename IO, typename E>
void error_body(IO& io, E& e) {
  io.later(io.u8(e.fatal, true), "error body");
  io.later(io.u8(e.code, kMaxErrorCode), "error body");
  io.str32(e.message);
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
  BodyWriter w;
  hello_body(w, hello);
  return frame(MsgType::kHello, 0, w.buffer());
}

std::string encode_hello_ok() {
  ByteWriter w;
  w.u16(kWireVersion);
  return frame(MsgType::kHelloOk, 0, w.buffer());
}

std::string encode_query(const service::TuningQuery& query,
                         std::uint64_t seq) {
  BodyWriter w;
  query_body(w, query);
  return frame(MsgType::kQuery, seq, w.buffer());
}

std::string encode_result(const service::TuningResult& result,
                          std::uint64_t seq) {
  BodyWriter w;
  result_body(w, result);
  return frame(MsgType::kResult, seq, w.buffer());
}

std::string encode_error(const WireError& error, std::uint64_t seq) {
  BodyWriter w;
  error_body(w, error);
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
  return BodyReader::decode(body, "hello body", hello_body<BodyReader, Hello>);
}

Expected<service::TuningQuery> decode_query(std::string_view body) {
  return BodyReader::decode(body, "query body",
                            query_body<BodyReader, service::TuningQuery>);
}

Expected<service::TuningResult> decode_result(std::string_view body) {
  return BodyReader::decode(body, "result body",
                            result_body<BodyReader, service::TuningResult>);
}

Expected<WireError> decode_error(std::string_view body) {
  return BodyReader::decode(body, "error body",
                            error_body<BodyReader, WireError>);
}

FrameStatus next_frame(ByteRing& in, std::uint32_t max_frame,
                       FrameView* out) {
  if (in.size() < 4) return FrameStatus::kNeedMore;
  unsigned char len_bytes[4];
  in.copy_out(0, 4, len_bytes);
  const std::uint32_t len = ByteReader(len_bytes, 4).u32();
  if (len > max_frame) return FrameStatus::kTooLarge;
  if (len < 1 + 8) return FrameStatus::kMalformed;
  if (in.size() < 4 + static_cast<std::size_t>(len)) {
    return FrameStatus::kNeedMore;
  }
  unsigned char head[1 + 8];
  in.copy_out(4, sizeof head, head);
  ByteReader r(head, sizeof head);
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kError)) {
    return FrameStatus::kMalformed;
  }
  out->type = static_cast<MsgType>(type);
  out->seq = r.u64();
  out->body.resize(len - sizeof head);
  in.copy_out(4 + sizeof head, out->body.size(), out->body.data());
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
    // Every string of a request is a str16 on the binary door.
    if (pos >= s.size() || out.size() > 0xffff) {
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
  // A number truncated toward zero into T.  Casting a double outside T's
  // range (NaN and infinities included) is undefined behaviour, so those
  // are bad values instead.  [min, 2 * (max / 2 + 1)) is exactly T's
  // range in doubles.
  template <typename T>
  T integer_token() {
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    const double t = std::trunc(number_token());
    if (!(t >= lo && t < hi)) {
      ok = false;
      return 0;
    }
    return static_cast<T>(t);
  }
  // The literal true or false, or a number (nonzero is true).
  bool bool_token() {
    skip_ws();
    for (const std::string_view word : {"true", "false"}) {
      if (s.substr(pos).starts_with(word)) {
        pos += word.size();
        return word == "true";
      }
    }
    return number_token() != 0;
  }
  // One value into a field of the scenario walk or a numeric query
  // option: an enum as its integer code, checked against the bound the
  // QUERY body checks, an integer truncated into its type, else a double.
  template <typename T>
  void read(T& v) {
    if constexpr (std::is_enum_v<T>) {
      const int code = integer_token<int>();
      ok = ok && code >= 0 && code <= static_cast<int>(max_code(v));
      if (ok) v = static_cast<T>(code);
    } else if constexpr (std::is_integral_v<T>) {
      v = integer_token<T>();
    } else {
      v = number_token();
    }
  }
};

// Short names a JSON line may use for a field of the scenario walk.
constexpr std::pair<std::string_view, std::string_view> kJsonAliases[] = {
    {"lmax", "req.l_max"},
    {"ebudget", "req.e_budget"},
    {"depth", "ring.depth"},
    {"density", "ring.density"},
};

}  // namespace

Expected<JsonRequest> parse_json_request(std::string_view line) {
  JsonCursor c{line};
  if (!c.eat('{')) {
    return make_error(ErrorCode::kInvalidArgument,
                      "json request: expected '{'");
  }
  JsonRequest req;
  service::TuningQuery& q = req.query;
  q.scenario = core::Scenario::paper_default();
  bool first = true, has_tenant = false;
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
      req.hello = c.bool_token();
    } else if (key == "tenant") {
      req.tenant = c.string_token();
      has_tenant = true;
    } else if (key == "seq") {
      c.read(req.seq);
    } else if (key == "radio.name") {
      q.scenario.context.radio.name = c.string_token();
    } else if (key == "alpha") {
      c.read(q.options.alpha);
    } else if (key == "eval_budget") {
      c.read(q.options.eval_budget);
    } else if (key == "protocols") {
      if (!c.eat('[')) {
        return make_error(ErrorCode::kInvalidArgument,
                          "json request: protocols expects an array");
      }
      if (!c.eat(']')) {
        do {
          q.protocols.push_back(c.string_token());
        } while (c.ok && q.protocols.size() <= kMaxProtocols && c.eat(','));
        if (!c.ok || q.protocols.size() > kMaxProtocols || !c.eat(']')) {
          return make_error(ErrorCode::kInvalidArgument,
                            "json request: bad protocols array");
        }
      }
    } else {
      std::string_view field = key;
      for (const auto& [alias, name] : kJsonAliases) {
        if (key == alias) field = name;
      }
      bool known = false;
      core::for_each_field(q.scenario, [&](const char* name, auto& v) {
        if (known || field != name) return;
        known = true;
        c.read(v);
      });
      if (!known) {
        return make_error(ErrorCode::kInvalidArgument,
                          "json request: unknown key \"" + key + "\"");
      }
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
  if (has_tenant && !req.hello) {
    // The server reads the tenant from the hello line only.
    return make_error(ErrorCode::kInvalidArgument,
                      "json request: \"tenant\" belongs on the hello line");
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
