// Wire protocol codec tests (server/wire.h): encode/decode round-trip
// properties over randomized messages, incremental frame extraction off
// a ByteRing, a malformed-frame corpus (truncations, oversized counts,
// out-of-range enum bytes, bad magic — every one must come back as a
// clean error, never a crash or over-read; CI runs this binary under
// ASan), the JSON debug-mode parser (which must read every catalog
// scenario into the query whose QUERY frame it came from), and a
// deterministic mutation loop that feeds byte-flipped, truncated and
// extended frames to every decoder.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/scenario.h"
#include "server/wire.h"
#include "service/key.h"
#include "service/resilience.h"
#include "util/rng.h"

namespace edb::server {
namespace {

// ---------------------------------------------------------- generators --

service::TuningQuery random_query(Rng& rng) {
  service::TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  auto& c = q.scenario.context;
  if (rng.uniform() < 0.3) c.radio.name = "custom radio \"x\"";
  c.radio.p_tx = rng.uniform(1e-3, 0.1);
  c.radio.t_startup = rng.uniform(1e-5, 2e-3);
  c.packet.payload_bytes = rng.uniform(8, 128);
  c.ring.depth = 1 + static_cast<int>(rng.uniform(0, 9));
  c.ring.density = rng.uniform(1, 20);
  c.fs = rng.uniform(1e-6, 1e-2);
  c.jitter_frac = rng.uniform(0, 0.5);
  c.burst_factor = rng.uniform(1, 4);
  c.arrivals = static_cast<net::ArrivalProcess>(
      static_cast<int>(rng.uniform(0, 2.999)));
  c.model_version = rng.uniform() < 0.5 ? mac::ModelVersion::kV1
                                        : mac::ModelVersion::kV2Queueing;
  q.scenario.requirements.e_budget = rng.uniform(0.01, 0.2);
  q.scenario.requirements.l_max = rng.uniform(0.5, 10);
  const char* names[] = {"X-MAC", "LMAC", "DMAC", "b-mac", "wisemac"};
  const int nproto = static_cast<int>(rng.uniform(0, 3.999));
  for (int i = 0; i < nproto; ++i) {
    q.protocols.push_back(names[static_cast<int>(rng.uniform(0, 4.999))]);
  }
  q.options.alpha = rng.uniform(0.05, 0.95);
  q.options.eval_budget =
      rng.uniform() < 0.5 ? 0 : static_cast<long long>(rng.uniform(1, 1e6));
  q.tenant = "never-on-the-wire";  // travels in HELLO, not QUERY
  return q;
}

core::OperatingPoint random_point(Rng& rng) {
  core::OperatingPoint p;
  const int nx = static_cast<int>(rng.uniform(0, 4.999));
  for (int i = 0; i < nx; ++i) p.x.push_back(rng.uniform(-1, 1));
  p.energy = rng.uniform(0, 0.1);
  p.latency = rng.uniform(0, 10);
  return p;
}

service::TuningResult random_result(Rng& rng) {
  service::TuningResult r;
  r.key.hash = static_cast<std::uint64_t>(rng.uniform(0, 1e18));
  r.key.canonical = "alpha=5.000000000e-01|lmax=6.000000000e+00";
  const int n = static_cast<int>(rng.uniform(1, 4.999));
  for (int i = 0; i < n; ++i) {
    service::ProtocolOutcome o;
    o.protocol = "P" + std::to_string(i);
    if (rng.uniform() < 0.7) {
      core::BargainingOutcome b;
      b.p1 = random_point(rng);
      b.p2 = random_point(rng);
      b.nbs = random_point(rng);
      b.nash_product = rng.uniform(0, 1);
      o.outcome = std::move(b);
    } else {
      o.infeasible_code = rng.uniform() < 0.5 ? ErrorCode::kInfeasible
                                              : ErrorCode::kDeadlineExceeded;
      o.infeasible_reason = "Lmax below the feasible latency floor";
    }
    r.per_protocol.push_back(std::move(o));
  }
  r.recommended = -1 + static_cast<int>(rng.uniform(0, n + 0.999));
  r.quality = static_cast<service::ResultQuality>(
      static_cast<int>(rng.uniform(0, 2.999)));
  return r;
}

// Runs one encoded frame through ring + next_frame.
FrameStatus parse(const std::string& bytes, FrameView* fv) {
  ByteRing ring(16);
  EXPECT_TRUE(ring.append(bytes.data(), bytes.size(), 1u << 22));
  return next_frame(ring, kMaxFrame, fv);
}

std::string body_of(const std::string& bytes) {
  return bytes.substr(13);  // len + type + seq
}

// ---------------------------------------------------------- round trips --

TEST(WireRoundTrip, QueryEncodeDecodeEncodeIsIdentity) {
  Rng rng(20260808);
  for (int it = 0; it < 100; ++it) {
    const service::TuningQuery q = random_query(rng);
    const std::uint64_t seq = static_cast<std::uint64_t>(it) * 7919;
    const std::string bytes = encode_query(q, seq);

    FrameView fv;
    ASSERT_EQ(parse(bytes, &fv), FrameStatus::kFrame);
    EXPECT_EQ(fv.type, MsgType::kQuery);
    EXPECT_EQ(fv.seq, seq);

    auto decoded = decode_query(fv.body);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    // The identity that matters downstream: re-encoding the decoded
    // query reproduces the frame byte for byte (doubles travel as raw
    // bit patterns).
    EXPECT_EQ(encode_query(*decoded, seq), bytes);
    // Tenant travels in HELLO only.
    EXPECT_TRUE(decoded->tenant.empty());
  }
}

TEST(WireRoundTrip, ResultEncodeDecodeEncodeIsIdentity) {
  Rng rng(20260809);
  for (int it = 0; it < 100; ++it) {
    const service::TuningResult r = random_result(rng);
    const std::string bytes = encode_result(r, static_cast<std::uint64_t>(it));

    FrameView fv;
    ASSERT_EQ(parse(bytes, &fv), FrameStatus::kFrame);
    EXPECT_EQ(fv.type, MsgType::kResult);

    auto decoded = decode_result(fv.body);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(encode_result(*decoded, static_cast<std::uint64_t>(it)), bytes);
    EXPECT_EQ(decoded->recommended, r.recommended);
    EXPECT_EQ(decoded->quality, r.quality);
    EXPECT_EQ(decoded->per_protocol.size(), r.per_protocol.size());
  }
}

TEST(WireRoundTrip, HelloAndError) {
  Hello h;
  h.mode = WireMode::kJson;
  h.tenant = "tenant with spaces \"quoted\"";
  FrameView fv;
  ASSERT_EQ(parse(encode_hello(h), &fv), FrameStatus::kFrame);
  ASSERT_EQ(fv.type, MsgType::kHello);
  auto dh = decode_hello(fv.body);
  ASSERT_TRUE(dh.ok());
  EXPECT_EQ(dh->version, kWireVersion);
  EXPECT_EQ(dh->mode, WireMode::kJson);
  EXPECT_EQ(dh->tenant, h.tenant);

  WireError e{true, ErrorCode::kResourceExhausted, "shed"};
  ASSERT_EQ(parse(encode_error(e, 42), &fv), FrameStatus::kFrame);
  ASSERT_EQ(fv.type, MsgType::kError);
  EXPECT_EQ(fv.seq, 42u);
  auto de = decode_error(fv.body);
  ASSERT_TRUE(de.ok());
  EXPECT_TRUE(de->fatal);
  EXPECT_EQ(de->code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(de->message, "shed");
}

// ----------------------------------------------------- golden frames --
//
// Differential pins of the byte layout: each frame's hex as the
// hand-written encoders produced it, before each body became one walk
// shared by its encoder and decoder.  Every frame must decode and
// re-encode to the same bytes.

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

TEST(WireGolden, QueryFrameIsPinned) {
  service::TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.protocols = {"X-MAC", "LMAC"};
  q.options.alpha = 0.75;
  q.options.eval_budget = 7;
  const std::string bytes = encode_query(q, 42);
  EXPECT_EQ(hex(bytes),
            "d6000000032a0000000000000006006363323432307dd0b359f5b9aa3fff21fd"
            "f675e0ac3f54e41071732ac93e0000000080840e41fca9f1d24d62403f2d431c"
            "ebe2362a3f613255302aa9333f00000000000040400000000000003040000000"
            "0000002440000000000000244000000000000028400000000000003040050000"
            "000000000000001c4043c5387f130a113f0000000000005940009a9999999999"
            "b93f000000000000f03f00b81e85eb51b8ae3f00000000000018400200050058"
            "2d4d414304004c4d4143000000000000e83f0700000000000000");
  auto decoded = decode_query(body_of(bytes));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(encode_query(*decoded, 42), bytes);
}

TEST(WireGolden, ResultFrameIsPinned) {
  service::TuningResult r;
  r.key.hash = 0x0123456789abcdefULL;
  r.key.canonical = "protocols=LMAC,X-MAC;";
  service::ProtocolOutcome feasible;
  feasible.protocol = "X-MAC";
  core::BargainingOutcome b;
  b.p1 = {{0.25}, 0.0125, 2.5};
  b.p2 = {{0.5}, 0.03, 0.75};
  b.nbs = {{0.375}, 0.017, 1.5};
  b.nash_product = 0.0625;
  feasible.outcome = b;
  service::ProtocolOutcome infeasible;
  infeasible.protocol = "LMAC";
  infeasible.infeasible_code = ErrorCode::kInfeasible;
  infeasible.infeasible_reason = "no slot";
  r.per_protocol = {feasible, infeasible};
  r.recommended = 0;
  r.quality = service::ResultQuality::kCoarse;
  const std::string bytes = encode_result(r, 43);
  EXPECT_EQ(hex(bytes),
            "a2000000042b00000000000000efcdab89674523011500000070726f746f636f"
            "6c733d4c4d41432c582d4d41433b02000500582d4d4143010100000000000000"
            "d03f9a9999999999893f00000000000004400100000000000000e03fb81e85eb"
            "51b89e3f000000000000e83f0100000000000000d83f9cc420b07268913f0000"
            "00000000f83f000000000000b03f04004c4d41430001070000006e6f20736c6f"
            "740000000002");
  auto decoded = decode_result(body_of(bytes));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(encode_result(*decoded, 43), bytes);
}

TEST(WireGolden, HelloAndErrorFramesArePinned) {
  Hello h;
  h.mode = WireMode::kJson;
  h.tenant = "ops";
  const std::string hello = encode_hello(h);
  EXPECT_EQ(hex(hello),
            "150000000100000000000000004544423101000103006f7073");
  auto dh = decode_hello(body_of(hello));
  ASSERT_TRUE(dh.ok()) << dh.error().to_string();
  EXPECT_EQ(encode_hello(*dh), hello);

  const std::string error = encode_error(
      WireError{true, ErrorCode::kResourceExhausted, "shed"}, 44);
  EXPECT_EQ(hex(error),
            "13000000052c0000000000000001080400000073686564");
  auto de = decode_error(body_of(error));
  ASSERT_TRUE(de.ok()) << de.error().to_string();
  EXPECT_EQ(encode_error(*de, 44), error);
}

// ------------------------------------------------------ frame extraction --

TEST(WireFraming, ByteAtATimeDelivery) {
  const std::string bytes = encode_hello_ok();
  ByteRing ring(4);
  FrameView fv;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_TRUE(ring.append(bytes.data() + i, 1, 1u << 20));
    ASSERT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kNeedMore)
        << "after byte " << i;
  }
  ASSERT_TRUE(ring.append(bytes.data() + bytes.size() - 1, 1, 1u << 20));
  ASSERT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kFrame);
  EXPECT_EQ(fv.type, MsgType::kHelloOk);
  EXPECT_EQ(ring.size(), 0u);  // fully consumed
}

TEST(WireFraming, PipelinedFramesComeBackInOrder) {
  Rng rng(7);
  const std::string a = encode_query(random_query(rng), 1);
  const std::string b = encode_hello_ok();
  const std::string c = encode_error(WireError{}, 3);
  ByteRing ring(16);
  const std::string all = a + b + c;
  ASSERT_TRUE(ring.append(all.data(), all.size(), 1u << 22));
  FrameView fv;
  ASSERT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kFrame);
  EXPECT_EQ(fv.type, MsgType::kQuery);
  ASSERT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kFrame);
  EXPECT_EQ(fv.type, MsgType::kHelloOk);
  ASSERT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kFrame);
  EXPECT_EQ(fv.type, MsgType::kError);
  EXPECT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kNeedMore);
}

TEST(WireFraming, OversizedAndShortAndUnknownType) {
  FrameView fv;
  {
    // len just over the cap: kTooLarge, ring untouched.
    ByteWriter w;
    w.u32(kMaxFrame + 1);
    ByteRing ring(8);
    const std::string bytes = w.take();
    ASSERT_TRUE(ring.append(bytes.data(), bytes.size(), 1u << 20));
    EXPECT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kTooLarge);
    EXPECT_EQ(ring.size(), bytes.size());
  }
  {
    // len < 9 cannot hold type+seq.
    ByteWriter w;
    w.u32(5);
    w.u8(0x03);
    w.u32(0);
    ByteRing ring(8);
    const std::string bytes = w.take();
    ASSERT_TRUE(ring.append(bytes.data(), bytes.size(), 1u << 20));
    EXPECT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kMalformed);
  }
  {
    // Unknown type byte 0x09.
    std::string bytes = frame(MsgType::kQuery, 0, "body");
    bytes[4] = 0x09;
    ByteRing ring(8);
    ASSERT_TRUE(ring.append(bytes.data(), bytes.size(), 1u << 20));
    EXPECT_EQ(next_frame(ring, kMaxFrame, &fv), FrameStatus::kMalformed);
  }
}

// ----------------------------------------------------- malformed corpus --

// Every strict prefix of a valid body must decode to a clean error (the
// ByteReader is bounds-checked and sticky), and so must one trailing
// byte too many (bodies must consume their frame exactly).
template <typename Decoder>
void expect_prefixes_fail(const std::string& body, Decoder decode) {
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    auto r = decode(std::string_view(body.data(), cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
    if (r.ok()) break;
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  }
  auto r = decode(body + '\0');
  EXPECT_FALSE(r.ok()) << "trailing byte accepted";
}

TEST(WireMalformed, TruncatedAndPaddedBodies) {
  Rng rng(20260810);
  expect_prefixes_fail(body_of(encode_query(random_query(rng), 0)),
                       [](std::string_view b) { return decode_query(b); });
  expect_prefixes_fail(body_of(encode_result(random_result(rng), 0)),
                       [](std::string_view b) { return decode_result(b); });
  expect_prefixes_fail(body_of(encode_hello(Hello{})),
                       [](std::string_view b) { return decode_hello(b); });
  expect_prefixes_fail(
      body_of(encode_error(WireError{false, ErrorCode::kInternal, "x"}, 0)),
      [](std::string_view b) { return decode_error(b); });
}

TEST(WireMalformed, BadMagicAndBadVersionByte) {
  std::string body = body_of(encode_hello(Hello{}));
  std::string bad = body;
  bad[0] = 'X';
  EXPECT_FALSE(decode_hello(bad).ok());

  // Mode byte out of range (offset: magic 4 + version 2).
  bad = body;
  bad[6] = 7;
  EXPECT_FALSE(decode_hello(bad).ok());
}

TEST(WireMalformed, OutOfRangeEnumBytes) {
  Rng rng(20260811);
  {
    service::TuningQuery q = random_query(rng);
    q.scenario.context.arrivals = static_cast<net::ArrivalProcess>(9);
    EXPECT_FALSE(decode_query(body_of(encode_query(q, 0))).ok());
    q = random_query(rng);
    q.scenario.context.model_version = static_cast<mac::ModelVersion>(200);
    EXPECT_FALSE(decode_query(body_of(encode_query(q, 0))).ok());
  }
  {
    service::TuningResult r = random_result(rng);
    r.quality = static_cast<service::ResultQuality>(17);
    EXPECT_FALSE(decode_result(body_of(encode_result(r, 0))).ok());
    r = random_result(rng);
    r.recommended = static_cast<int>(r.per_protocol.size());  // one past end
    EXPECT_FALSE(decode_result(body_of(encode_result(r, 0))).ok());
    r = random_result(rng);
    r.per_protocol[0].outcome.reset();
    r.per_protocol[0].infeasible_code = static_cast<ErrorCode>(250);
    r.recommended = -1;
    EXPECT_FALSE(decode_result(body_of(encode_result(r, 0))).ok());
  }
}

TEST(WireMalformed, OversizedProtocolCount) {
  service::TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  std::string body = body_of(encode_query(q, 0));
  // The protocol count u16 sits right before alpha:f64 eval_budget:i64
  // (the query had zero protocols), 18 bytes from the end.
  ASSERT_GE(body.size(), 18u);
  const std::size_t at = body.size() - 18;
  ASSERT_EQ(body[at], 0);
  ASSERT_EQ(body[at + 1], 0);
  body[at] = static_cast<char>(0xff);
  body[at + 1] = static_cast<char>(0xff);  // claims 65535 protocols
  auto r = decode_query(body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------- mutation loop --
//
// A deterministic stand-in for a coverage fuzzer: splitmix-seeded
// mutations (byte flips, boundary bytes, truncation, extension) of valid
// frames and of the malformed corpus, fed to next_frame and every
// decoder.  Each input sits in a heap block of exactly its size, so an
// over-read is an ASan report, not a silent read of a terminator.

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return state_ = splitmix64(state_); }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }

  std::string mutate(std::string s) {
    const std::size_t ops = 1 + below(3);
    for (std::size_t k = 0; k < ops; ++k) {
      switch (below(4)) {
        case 0:  // flip bits in one byte
          if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1 + below(255));
          break;
        case 1: {  // a boundary byte, where counts and enums live
          static constexpr unsigned char kEdges[] = {0x00, 0x01, 0x7f,
                                                     0x80, 0xfe, 0xff};
          if (!s.empty()) {
            s[below(s.size())] = static_cast<char>(kEdges[below(6)]);
          }
          break;
        }
        case 2:  // truncate
          s.resize(below(s.size() + 1));
          break;
        default:  // extend with random bytes
          for (std::size_t n = 1 + below(16); n > 0; --n) {
            s.push_back(static_cast<char>(next()));
          }
      }
    }
    return s;
  }

 private:
  std::uint64_t state_;
};

// Bytes in a block of exactly their size (no terminator to lean on).
struct ExactBuffer {
  explicit ExactBuffer(const std::string& s)
      : data(std::make_unique<char[]>(s.size() + !s.size())), size(s.size()) {
    std::memcpy(data.get(), s.data(), s.size());
  }
  std::string_view view() const { return {data.get(), size}; }
  std::unique_ptr<char[]> data;
  std::size_t size;
};

struct Outcomes {
  std::size_t ok = 0;
  std::size_t rejected = 0;
};

// Runs one decoder on `body`; a value must survive encode -> decode ->
// encode unchanged, an error must be the documented kInvalidArgument.
template <typename Decode, typename Encode>
void check_decoder(std::string_view body, Decode decode, Encode encode,
                   Outcomes* out) {
  auto r = decode(body);
  if (!r.ok()) {
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
    ++out->rejected;
    return;
  }
  ++out->ok;
  const std::string once = encode(*r);
  auto again = decode(std::string_view(once).substr(13));
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(encode(*again), once);
}

void feed_all_decoders(std::string_view body, Outcomes* out) {
  check_decoder(body, decode_hello, encode_hello, out);
  check_decoder(body, decode_query,
                [](const service::TuningQuery& q) { return encode_query(q, 0); },
                out);
  check_decoder(body, decode_result,
                [](const service::TuningResult& r) { return encode_result(r, 0); },
                out);
  check_decoder(body, decode_error,
                [](const WireError& e) { return encode_error(e, 0); }, out);
}

TEST(WireMutation, MutatedFramesDecodeCleanlyOrFailCleanly) {
  Rng rng(20260812);
  std::vector<std::string> corpus;
  for (int i = 0; i < 4; ++i) {
    corpus.push_back(encode_query(random_query(rng), i));
    corpus.push_back(encode_result(random_result(rng), i));
  }
  Hello json_hello;
  json_hello.mode = WireMode::kJson;
  json_hello.tenant = "t";
  corpus.push_back(encode_hello(Hello{}));
  corpus.push_back(encode_hello(json_hello));
  corpus.push_back(encode_hello_ok());
  corpus.push_back(encode_error(WireError{true, ErrorCode::kInternal, "x"}, 9));
  // The malformed corpus above: out-of-range enums, a 65535-protocol
  // count, bad magic, an unknown type byte, a short and an oversized len.
  {
    service::TuningQuery q = random_query(rng);
    q.scenario.context.arrivals = static_cast<net::ArrivalProcess>(9);
    corpus.push_back(encode_query(q, 0));
    service::TuningResult r = random_result(rng);
    r.quality = static_cast<service::ResultQuality>(17);
    corpus.push_back(encode_result(r, 0));
    service::TuningQuery empty;
    empty.scenario = core::Scenario::paper_default();
    std::string many = encode_query(empty, 0);
    many[many.size() - 18] = static_cast<char>(0xff);
    many[many.size() - 17] = static_cast<char>(0xff);
    corpus.push_back(many);
    std::string magic = encode_hello(Hello{});
    magic[13] = 'X';
    corpus.push_back(magic);
    std::string type = frame(MsgType::kQuery, 0, "body");
    type[4] = 0x09;
    corpus.push_back(type);
    ByteWriter shortw;
    shortw.u32(5);
    shortw.u8(0x03);
    shortw.u32(0);
    corpus.push_back(shortw.take());
    ByteWriter big;
    big.u32(kMaxFrame + 1);
    corpus.push_back(big.take());
  }

  Mutator m(0x5eed'f00dULL);
  Outcomes frames, bodies;
  std::size_t statuses[4] = {};
  for (int it = 0; it < 20000; ++it) {
    const std::string input = m.mutate(corpus[m.below(corpus.size())]);
    const ExactBuffer buf(input);

    // The frame layer: pull frames until it wants more or refuses.
    ByteRing ring(16);
    ASSERT_TRUE(ring.append(buf.data.get(), buf.size, 1u << 22));
    const std::uint32_t max_frame = m.below(4) == 0 ? 64 : kMaxFrame;
    for (;;) {
      FrameView fv;
      const FrameStatus st = next_frame(ring, max_frame, &fv);
      ++statuses[static_cast<int>(st)];
      if (st != FrameStatus::kFrame) {
        EXPECT_LE(ring.size(), buf.size);
        break;
      }
      const ExactBuffer body(fv.body);
      feed_all_decoders(body.view(), &frames);
    }
    // The decoders straight on the (possibly mis-framed) body bytes.
    if (buf.size >= 13) {
      feed_all_decoders(buf.view().substr(13), &bodies);
    }
    if (HasFatalFailure()) return;
  }
  // The loop reached every outcome, not just the first error branch.
  for (std::size_t n : statuses) EXPECT_GT(n, 0u);
  EXPECT_GT(frames.ok, 0u);
  EXPECT_GT(frames.rejected, 0u);
  EXPECT_GT(bodies.ok, 0u);
}

// One more than the protocol count a QUERY body may carry.
constexpr int kTooManyProtocols = 257;

// {"protocols": ["P0", ..., "P<n-1>"]}
std::string protocols_array(int n) {
  std::string line = "{\"protocols\": [";
  for (int i = 0; i < n; ++i) {
    line += (i ? ",\"P" : "\"P") + std::to_string(i) + "\"";
  }
  return line + "]}";
}

TEST(WireMutation, MutatedJsonLinesParseCleanlyOrFailCleanly) {
  const std::vector<std::string> corpus = {
      "{\"hello\": 1, \"tenant\": \"ops\"}",
      "{\"seq\": 9, \"lmax\": 3.25, \"ebudget\": 0.05, \"alpha\": 0.75, "
      "\"depth\": 4, \"density\": 9.5, \"fs\": 1e-4, \"eval_budget\": 7, "
      "\"protocols\": [\"X-MAC\", \"LMAC\"]}",
      "{\"lmax\": 0x1.9p-5, \"protocols\": []}",
      "{\"tenant\": \"a\\\"b\\\\c\\/d\\n\"}",
      "{\"lmaks\":3}",
      "{\"lmax\":3} extra",
      "{\"protocols\": 3}",
      "{\"lmax\": }",
      "{\"hello\": true, \"tenant\": \"ops\"}",
      "{\"radio.name\": \"cc2420\", \"radio.p_tx\": 0x1.9p-5, "
      "\"packet.payload\": 64, \"ring.depth\": 3, \"energy_epoch\": 50, "
      "\"arrivals\": 2, \"burst_factor\": 4, \"model_version\": 1, "
      "\"req.l_max\": 2.5, \"req.e_budget\": 0.05}",
      "{\"arrivals\": 3}",
      "{\"model_version\": -1}",
      "{\"arrivals\": 1e300}",
      protocols_array(kTooManyProtocols),
  };
  Mutator m(0x15'0a'11ULL);
  Outcomes out;
  for (int it = 0; it < 20000; ++it) {
    const ExactBuffer line(m.mutate(corpus[m.below(corpus.size())]));
    auto r = parse_json_request(line.view());
    if (r.ok()) {
      ++out.ok;
    } else {
      EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
      ++out.rejected;
    }
  }
  EXPECT_GT(out.ok, 0u);
  EXPECT_GT(out.rejected, 0u);
}

// ------------------------------------------------------- JSON debug mode --

TEST(WireJson, ParsesTheDocumentedRequestSchema) {
  auto hello = parse_json_request("{\"hello\":1,\"tenant\":\"ops\"}");
  ASSERT_TRUE(hello.ok()) << hello.error().to_string();
  EXPECT_TRUE(hello->hello);
  EXPECT_EQ(hello->tenant, "ops");

  auto req = parse_json_request(
      "{\"seq\": 9, \"lmax\": 3.25, \"ebudget\": 0.05, \"alpha\": 0.75, "
      "\"depth\": 4, \"density\": 9.5, \"fs\": 1e-4, "
      "\"protocols\": [\"X-MAC\", \"LMAC\"]}");
  ASSERT_TRUE(req.ok()) << req.error().to_string();
  EXPECT_FALSE(req->hello);
  EXPECT_EQ(req->seq, 9u);
  EXPECT_EQ(req->query.scenario.requirements.l_max, 3.25);
  EXPECT_EQ(req->query.scenario.requirements.e_budget, 0.05);
  EXPECT_EQ(req->query.options.alpha, 0.75);
  EXPECT_EQ(req->query.scenario.context.ring.depth, 4);
  EXPECT_EQ(req->query.scenario.context.ring.density, 9.5);
  EXPECT_EQ(req->query.scenario.context.fs, 1e-4);
  ASSERT_EQ(req->query.protocols.size(), 2u);
  EXPECT_EQ(req->query.protocols[0], "X-MAC");

  // Untouched fields keep the paper calibration.
  const core::Scenario def = core::Scenario::paper_default();
  EXPECT_EQ(req->query.scenario.context.energy_epoch,
            def.context.energy_epoch);
}

TEST(WireJson, RejectsTyposAndTrailingBytes) {
  EXPECT_FALSE(parse_json_request("{\"lmaks\":3}").ok());
  EXPECT_FALSE(parse_json_request("{\"lmax\":3} extra").ok());
  EXPECT_FALSE(parse_json_request("not json").ok());
  EXPECT_FALSE(parse_json_request("{\"protocols\": 3}").ok());
  EXPECT_FALSE(parse_json_request("{\"lmax\": }").ok());
  // Integer fields reject what no cast may hold (non-finite or out of
  // range) instead of casting it, and keep truncating in-range values.
  for (const char* line :
       {"{\"seq\":1e300}", "{\"seq\":-1}", "{\"seq\":nan}",
        "{\"seq\":inf}", "{\"seq\":18446744073709551616}",
        "{\"depth\":nan}", "{\"depth\":1e300}", "{\"depth\":-inf}",
        "{\"depth\":2147483648}", "{\"eval_budget\":1e300}",
        "{\"eval_budget\":-1e19}", "{\"eval_budget\":nan}"}) {
    auto r = parse_json_request(line);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument) << line;
  }
  auto truncated = parse_json_request(
      "{\"seq\":7.9,\"depth\":-2.5,\"eval_budget\":1e18}");
  ASSERT_TRUE(truncated.ok()) << truncated.error().to_string();
  EXPECT_EQ(truncated->seq, 7u);
  EXPECT_EQ(truncated->query.scenario.context.ring.depth, -2);
  EXPECT_EQ(truncated->query.options.eval_budget, 1000000000000000000LL);
}

TEST(WireJson, HelloTakesTrueFalseOrANumber) {
  for (const char* line : {"{\"hello\": true}", "{\"hello\":1}",
                           "{\"hello\": 0.5, \"tenant\": \"t\"}"}) {
    auto r = parse_json_request(line);
    ASSERT_TRUE(r.ok()) << line << ": " << r.error().to_string();
    EXPECT_TRUE(r->hello) << line;
  }
  for (const char* line : {"{\"hello\": false}", "{\"hello\": 0}"}) {
    auto r = parse_json_request(line);
    ASSERT_TRUE(r.ok()) << line << ": " << r.error().to_string();
    EXPECT_FALSE(r->hello) << line;
  }
  for (const char* line : {"{\"hello\": tru}", "{\"hello\": truex}",
                           "{\"hello\": \"true\"}", "{\"hello\": }"}) {
    auto r = parse_json_request(line);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument) << line;
  }
}

// Enum codes past the QUERY body's bounds, values no int holds, a
// protocol list past its cap and a string no str16 holds are refused, as
// the binary door refuses them.
TEST(WireJson, RejectsWhatTheQueryBodyRejects) {
  for (const std::string& line :
       {std::string("{\"arrivals\": 3}"), std::string("{\"arrivals\": -1}"),
        std::string("{\"model_version\": -1}"),
        std::string("{\"model_version\": 2}"),
        std::string("{\"arrivals\": 1e300}"),
        std::string("{\"model_version\": nan}"),
        std::string("{\"ring.depth\": 1e300}"),
        std::string("{\"radio.p_tx\": }"),
        std::string("{\"radio.name\": 3}"),
        std::string("{\"radio.p_txx\": 1}"),
        std::string("{\"l_max\": 1}"),
        protocols_array(kTooManyProtocols),
        "{\"radio.name\": \"" + std::string(0x10000, 'r') + "\"}"}) {
    auto r = parse_json_request(line);
    ASSERT_FALSE(r.ok()) << line.substr(0, 80);
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument)
        << line.substr(0, 80);
  }
  auto most = parse_json_request(protocols_array(kTooManyProtocols - 1));
  ASSERT_TRUE(most.ok()) << most.error().to_string();
  EXPECT_EQ(most->query.protocols.size(),
            static_cast<std::size_t>(kTooManyProtocols - 1));
  auto longest = parse_json_request("{\"radio.name\": \"" +
                                    std::string(0xffff, 'r') + "\"}");
  ASSERT_TRUE(longest.ok()) << longest.error().to_string();
  auto codes = parse_json_request(
      "{\"arrivals\": 2.9, \"model_version\": 1}");
  ASSERT_TRUE(codes.ok()) << codes.error().to_string();
  EXPECT_EQ(codes->query.scenario.context.arrivals,
            net::ArrivalProcess::kBursty);
  EXPECT_EQ(codes->query.scenario.context.model_version,
            mac::ModelVersion::kV2Queueing);
}

// A JSON string literal holding s.
std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

// The JSON line that asks everything the QUERY frame of q asks: every
// walk name (doubles as %a hex floats, enums as their codes), radio.name,
// protocols, alpha and eval_budget.
std::string json_line_for(const service::TuningQuery& q) {
  std::string line =
      "{\"radio.name\":" + json_string(q.scenario.context.radio.name);
  char buf[64];
  core::for_each_field(q.scenario, [&](const char* name, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_enum_v<T>) {
      std::snprintf(buf, sizeof buf, "%d", static_cast<int>(v));
    } else if constexpr (std::is_same_v<T, int>) {
      std::snprintf(buf, sizeof buf, "%d", v);
    } else {
      std::snprintf(buf, sizeof buf, "%a", v);
    }
    line += std::string(",\"") + name + "\":" + buf;
  });
  line += ",\"protocols\":[";
  for (std::size_t i = 0; i < q.protocols.size(); ++i) {
    line += (i ? "," : "") + json_string(q.protocols[i]);
  }
  std::snprintf(buf, sizeof buf, "%a", q.options.alpha);
  line += std::string("],\"alpha\":") + buf +
          ",\"eval_budget\":" + std::to_string(q.options.eval_budget) + "}";
  return line;
}

// The two doors read one field list: every catalog scenario, written as
// a JSON line, parses into the query whose QUERY frame and cache key it
// came from, byte for byte.
TEST(WireJson, EveryCatalogScenarioReadsAsItsQueryFrame) {
  const auto scenarios =
      catalog::Catalog::builtin().expand_all(catalog::kDefaultSeed);
  ASSERT_EQ(scenarios.size(), 252u);
  const std::vector<std::string> sets[] = {
      {"X-MAC", "DMAC", "LMAC"}, {"LMAC"}, {}, {"B-MAC", "X-MAC"}};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    service::TuningQuery q;
    q.scenario = scenarios[i].scenario;
    q.protocols = sets[i % 4];
    q.options.alpha = 0.25 + 0.0625 * static_cast<double>(i % 9);
    q.options.eval_budget = static_cast<long long>(i) * 1009;
    const std::string line = json_line_for(q);
    auto parsed = parse_json_request(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.error().to_string();
    EXPECT_EQ(encode_query(parsed->query, 0), encode_query(q, 0)) << line;
    const auto set = service::canonical_protocol_set(q.protocols).value();
    EXPECT_EQ(service::query_key(parsed->query.scenario, set,
                                 parsed->query.options),
              service::query_key(q.scenario, set, q.options))
        << line;
  }
}

TEST(WireJson, AliasesReadAsTheirWalkNames) {
  service::TuningQuery def;
  def.scenario = core::Scenario::paper_default();
  const std::string def_bytes = encode_query(def, 0);
  const std::pair<std::string, std::string> pairs[] = {
      {"lmax", "req.l_max"},
      {"ebudget", "req.e_budget"},
      {"depth", "ring.depth"},
      {"density", "ring.density"}};
  for (const auto& [alias, name] : pairs) {
    auto a = parse_json_request("{\"" + alias + "\": 3}");
    auto b = parse_json_request("{\"" + name + "\": 3}");
    ASSERT_TRUE(a.ok()) << alias << ": " << a.error().to_string();
    ASSERT_TRUE(b.ok()) << name << ": " << b.error().to_string();
    EXPECT_EQ(encode_query(a->query, 0), encode_query(b->query, 0)) << alias;
    EXPECT_NE(encode_query(a->query, 0), def_bytes) << alias;
  }
}

TEST(WireJson, ResponseLinesCarrySeqAndOutcome) {
  service::TuningResult r;
  r.key.canonical = "k";
  service::ProtocolOutcome o;
  o.protocol = "X-MAC";
  core::BargainingOutcome b;
  b.nbs.x = {0.03125};
  b.nbs.energy = 0.017;
  b.nbs.latency = 1.5;
  b.nash_product = 0.25;
  o.outcome = std::move(b);
  r.per_protocol.push_back(std::move(o));
  r.recommended = 0;

  const std::string line =
      json_response_line(Expected<service::TuningResult>(std::move(r)), 12);
  EXPECT_NE(line.find("\"seq\":12"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"recommended\":\"X-MAC\""), std::string::npos);
  EXPECT_NE(line.find("\"energy\":0.017"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');

  const std::string err = json_error_line(
      WireError{false, ErrorCode::kResourceExhausted, "shed"}, 13);
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(err.find("resource_exhausted"), std::string::npos);
}

}  // namespace
}  // namespace edb::server
