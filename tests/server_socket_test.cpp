// End-to-end socket tests for the serving tier (server/server.h): real
// TCP connections against an in-process TuningServer on an ephemeral
// localhost port.  Covers the handshake, the byte-identity contract
// (wire RESULT == encoded in-process ServiceCore answer), pipelined
// response ordering, admission shed on the wire (global bucket, tenant
// bucket, queue bound), the fatal path for malformed and oversized frames
// and JSON lines, the JSON debug mode over a raw socket (the daemon's
// documented lines, and the upgrade from a binary HELLO), and drain and
// no-drain shutdown; and, against a fake server, the client's refusal of
// a malformed frame.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "service/core.h"
#include "service/resilience.h"
#include "util/fault.h"

namespace edb::server {
namespace {

// Small eval budgets keep every solve in test time; identical options on
// the in-process reference core keep the bits comparable.
service::TuningQuery test_query(double l_max,
                                std::vector<std::string> protocols = {
                                    "X-MAC"}) {
  service::TuningQuery q;
  q.scenario = core::Scenario::paper_default();
  q.scenario.requirements.l_max = l_max;
  q.protocols = std::move(protocols);
  return q;
}

ServerOptions test_options(int workers = 1) {
  ServerOptions opts;
  opts.workers = workers;
  opts.engine.threads = 2;
  opts.engine.parallel = true;
  return opts;
}

service::CoreOptions reference_options(const ServerOptions& s) {
  service::CoreOptions opts;
  opts.engine = s.engine;
  opts.cache_capacity = s.cache_capacity;
  opts.cache_shards = s.cache_shards;
  return opts;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// A plain blocking TCP connection to the local server, for tests that
// speak raw bytes instead of going through WireClient; -1 on failure.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t r = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (r <= 0) return false;
    off += static_cast<std::size_t>(r);
  }
  return true;
}

// Reads until a newline arrives; empty if the server closed first.
std::string recv_line(int fd) {
  std::string got;
  char buf[4096];
  while (got.find('\n') == std::string::npos) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) return {};
    got.append(buf, static_cast<std::size_t>(r));
  }
  return got;
}

TEST(ServerSocket, ServesOneQueryBitIdenticalToInProcessCore) {
  const ServerOptions opts = test_options(1);
  TuningServer srv(opts);
  auto started = srv.start();
  ASSERT_TRUE(started.ok()) << started.error().to_string();

  WireClient client;
  auto connected = client.connect("127.0.0.1", srv.port());
  ASSERT_TRUE(connected.ok()) << connected.error().to_string();

  const service::TuningQuery q = test_query(4.0);
  client.queue_query(q, 7);
  ASSERT_TRUE(client.flush().ok());
  auto resp = client.next_response();
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp->seq, 7u);
  ASSERT_TRUE(resp->result.has_value());

  // The wire frame must be byte-identical to encoding the answer of a
  // fresh transport-free core over the same query.
  service::ServiceCore core(reference_options(opts));
  const auto reference = core.serve({q});
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_TRUE(reference[0].ok());
  EXPECT_EQ(resp->raw, encode_response(reference[0], 7));

  const auto stats = srv.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  srv.shutdown(/*drain=*/true);
}

TEST(ServerSocket, PipelinedResponsesKeepRequestOrderAcrossWorkers) {
  const ServerOptions opts = test_options(4);
  TuningServer srv(opts);
  ASSERT_TRUE(srv.start().ok());

  // Two distinct questions alternating; the response stream must come
  // back seq 0,1,2,... regardless of worker count or batch splits.
  std::vector<service::TuningQuery> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(test_query(i % 2 ? 3.0 : 5.0));
  }

  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    client.queue_query(queries[i], i);
  }
  ASSERT_TRUE(client.flush().ok());

  service::ServiceCore core(reference_options(opts));
  const auto reference = core.serve(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.next_response();
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    EXPECT_EQ(resp->seq, i) << "responses out of order";
    EXPECT_EQ(resp->raw, encode_response(reference[i], i));
  }
  srv.shutdown(/*drain=*/true);

  // The serve queue depth gauge saw the pipelined burst (high watermark
  // is process-wide, so only monotonicity is checkable here).
  EXPECT_GE(obs::Registry::global().gauge("service.queue.depth").max(), 1);
}

TEST(ServerSocket, PerTenantLimitShedsOnTheWire) {
  ServerOptions opts = test_options(1);
  service::TenantLimit limit;
  limit.tenant = "noisy";
  limit.qps = 1e-9;  // effectively: the burst and nothing more
  limit.burst = 1;
  opts.resilience.tenant_limits.push_back(limit);
  TuningServer srv(opts);
  ASSERT_TRUE(srv.start().ok());

  const std::uint64_t shed_before = counter_value("service.shed.noisy");

  WireClient noisy;
  ASSERT_TRUE(noisy.connect("127.0.0.1", srv.port(), "noisy").ok());
  auto first = noisy.query(test_query(4.0), 1);
  ASSERT_TRUE(first.ok()) << first.error().to_string();

  // Second query from the limited tenant: non-fatal shed ERROR, the
  // connection survives.
  noisy.queue_query(test_query(5.0), 2);
  ASSERT_TRUE(noisy.flush().ok());
  auto resp = noisy.next_response();
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp->seq, 2u);
  ASSERT_TRUE(resp->error.has_value());
  EXPECT_EQ(resp->error->code, ErrorCode::kResourceExhausted);
  EXPECT_FALSE(resp->error->fatal);
  EXPECT_TRUE(noisy.connected());

  // An unlimited tenant on the same server is unaffected.
  WireClient calm;
  ASSERT_TRUE(calm.connect("127.0.0.1", srv.port(), "calm").ok());
  auto ok = calm.query(test_query(5.0), 3);
  EXPECT_TRUE(ok.ok());

  EXPECT_GE(counter_value("service.shed.noisy"), shed_before + 1);
  EXPECT_EQ(srv.stats().shed, 1u);
  srv.shutdown(/*drain=*/true);
}

TEST(ServerSocket, GlobalTokenBucketShedsOnTheWire) {
  ServerOptions opts = test_options(1);
  opts.resilience.rate_limit_qps = 1e-9;  // the burst and nothing more
  opts.resilience.rate_burst = 1;
  TuningServer srv(opts);
  ASSERT_TRUE(srv.start().ok());

  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());
  ASSERT_TRUE(client.query(test_query(4.0), 1).ok());

  client.queue_query(test_query(5.0), 2);
  ASSERT_TRUE(client.flush().ok());
  auto resp = client.next_response();
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp->seq, 2u);
  ASSERT_TRUE(resp->error.has_value());
  EXPECT_EQ(resp->error->code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(resp->error->message, "admission rate limit exceeded");
  EXPECT_FALSE(resp->error->fatal);
  EXPECT_TRUE(client.connected());

  const auto stats = srv.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.shed, 1u);
  srv.shutdown(/*drain=*/true);
}

// Serializes the serve thread behind a stall on every query, so a
// pipelined burst outruns it; clears the plan on scope exit.
struct StallEveryDispatch {
  explicit StallEveryDispatch(const char* spec) {
    fault::install(fault::FaultPlan::parse(spec).take());
  }
  ~StallEveryDispatch() { fault::uninstall(); }
};

TEST(ServerSocket, QueueBoundShedsOnTheWire) {
  ServerOptions opts = test_options(1);
  opts.max_batch = 1;
  opts.resilience.max_queue = 1;
  TuningServer srv(opts);
  ASSERT_TRUE(srv.start().ok());
  const StallEveryDispatch stall("service.dispatch:stall=1@300ms");

  // One write of 6 queries: the worker admits them microseconds apart,
  // while the serve thread can hold at most one (stalled) in flight and
  // the bound one more in the queue — so at least 4 are shed.
  const int n = 6;
  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());
  for (int i = 0; i < n; ++i) {
    client.queue_query(test_query(3.0 + 0.5 * i), static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(client.flush().ok());

  std::size_t served = 0, shed = 0;
  for (int i = 0; i < n; ++i) {
    auto resp = client.next_response();
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    EXPECT_EQ(resp->seq, static_cast<std::uint64_t>(i));
    if (resp->result.has_value()) {
      ++served;
      continue;
    }
    ASSERT_TRUE(resp->error.has_value());
    EXPECT_EQ(resp->error->code, ErrorCode::kResourceExhausted);
    EXPECT_EQ(resp->error->message, "submit queue full");
    EXPECT_FALSE(resp->error->fatal);
    ++shed;
  }
  EXPECT_GE(served, 1u);
  EXPECT_GE(shed, static_cast<std::size_t>(n - 2));
  EXPECT_EQ(srv.stats().shed, shed);
  EXPECT_EQ(srv.stats().queries, served);
  srv.shutdown(/*drain=*/true);
}

TEST(ServerSocket, NoDrainShutdownUnderStallIsPromptAndClosesConnections) {
  ServerOptions opts = test_options(2);
  opts.max_batch = 1;
  TuningServer srv(opts);
  ASSERT_TRUE(srv.start().ok());
  const StallEveryDispatch stall("service.dispatch:stall=1@100ms");
  const std::uint64_t cancelled_before =
      counter_value("service.errors.cancelled");

  // 16 queries at >= 100 ms each: a drain would take >= 1.6 s.
  const int n = 16;
  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());
  for (int i = 0; i < n; ++i) {
    client.queue_query(test_query(2.0 + 0.25 * i), static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(client.flush().ok());
  for (int i = 0; i < 1000 && srv.stats().queries < static_cast<std::size_t>(n);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(srv.stats().queries, static_cast<std::size_t>(n));

  const auto t0 = std::chrono::steady_clock::now();
  srv.shutdown(/*drain=*/false);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(secs, 1.0) << "no-drain shutdown waited for queued work";
  EXPECT_EQ(srv.stats().connections, 0u);
  // Queued queries were cancelled, not served.
  EXPECT_GE(counter_value("service.errors.cancelled"), cancelled_before + 1);

  // The client sees an in-order prefix of answers (possibly empty), then
  // the close — never a frame for a cancelled query.
  int answered = 0;
  for (;;) {
    auto resp = client.next_response();
    if (!resp.ok()) {
      EXPECT_EQ(resp.error().code, ErrorCode::kUnavailable);
      break;
    }
    EXPECT_EQ(resp->seq, static_cast<std::uint64_t>(answered));
    EXPECT_TRUE(resp->result.has_value());
    ++answered;
  }
  EXPECT_LT(answered, n);
}

TEST(ServerSocket, MalformedFrameGetsFatalErrorAndClose) {
  TuningServer srv(test_options(1));
  ASSERT_TRUE(srv.start().ok());

  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());

  // A frame whose len cannot hold type+seq: fatal protocol violation.
  const unsigned char garbage[] = {0x03, 0x00, 0x00, 0x00, 0xaa, 0xbb,
                                   0xcc};
  ASSERT_EQ(::send(client.fd(), garbage, sizeof garbage, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof garbage));

  auto resp = client.next_response();
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  ASSERT_TRUE(resp->error.has_value());
  EXPECT_TRUE(resp->error->fatal);
  EXPECT_EQ(resp->error->code, ErrorCode::kInvalidArgument);

  // The server closed after flushing: the client saw the FIN and closed.
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(srv.stats().protocol_errors, 1u);
  // The worker closes its side right after the flushing writev; give it
  // a moment to run that line.
  for (int i = 0; i < 200 && srv.stats().connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(srv.stats().connections, 0u);
  srv.shutdown(/*drain=*/true);
}

// A fake server: accepts one connection, answers the HELLO with a valid
// HELLO_OK, sends `bytes` and ends its side of the stream, then waits for
// the client to close.  A client that misses the bad frame reads on and
// sees the end of the stream (kUnavailable), not kInternal.
void serve_fake(int listener, const std::string& bytes) {
  const int fd = ::accept(listener, nullptr, nullptr);
  if (fd < 0) return;
  char buf[256];
  if (::recv(fd, buf, sizeof buf, 0) > 0) {
    send_all(fd, encode_hello_ok() + bytes);
    ::shutdown(fd, SHUT_WR);
    while (::recv(fd, buf, sizeof buf, 0) > 0) {
    }
  }
  ::close(fd);
}

TEST(ClientFrames, BadLengthAndUnknownTypeAreInternalAndClose) {
  const std::string bad_length = {0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00};
  std::string unknown_type = frame(MsgType::kResult, 7, "");
  unknown_type[4] = 0x09;  // no such message type
  for (const std::string& bytes : {bad_length, unknown_type}) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    // Joins on scope exit, after the client below has closed its socket.
    std::jthread fake(serve_fake, listener, bytes);

    WireClient client;
    const auto connected = client.connect("127.0.0.1", ntohs(addr.sin_port));
    ASSERT_TRUE(connected.ok()) << connected.error().to_string();
    auto resp = client.next_response();
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.error().code, ErrorCode::kInternal);
    EXPECT_FALSE(client.connected());
    ::close(listener);
  }
}

TEST(ServerSocket, UndecodableQueryBodyIsFatal) {
  TuningServer srv(test_options(1));
  ASSERT_TRUE(srv.start().ok());

  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());

  // Well-formed frame, truncated QUERY body.
  const std::string bad = frame(MsgType::kQuery, 1, "short");
  ASSERT_EQ(::send(client.fd(), bad.data(), bad.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bad.size()));
  auto resp = client.next_response();
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  ASSERT_TRUE(resp->error.has_value());
  EXPECT_TRUE(resp->error->fatal);
  srv.shutdown(/*drain=*/true);
}

TEST(ServerSocket, OversizedFrameAndJsonLineGetFatalErrorAndClose) {
  TuningServer srv(test_options(1));
  ASSERT_TRUE(srv.start().ok());

  // Binary: a length prefix one past kMaxFrame is refused on sight,
  // before any payload arrives.
  {
    WireClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());
    const std::uint32_t len = kMaxFrame + 1;
    const std::string prefix = {static_cast<char>(len & 0xff),
                                static_cast<char>((len >> 8) & 0xff),
                                static_cast<char>((len >> 16) & 0xff),
                                static_cast<char>(len >> 24)};
    ASSERT_TRUE(send_all(client.fd(), prefix));
    auto resp = client.next_response();
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    ASSERT_TRUE(resp->error.has_value());
    EXPECT_TRUE(resp->error->fatal);
    EXPECT_EQ(resp->error->code, ErrorCode::kInvalidArgument);
    EXPECT_EQ(resp->error->message, "frame exceeds the negotiated maximum");
    EXPECT_FALSE(client.connected());
  }

  // JSON: a line that grows past kMaxFrame without a newline.  The
  // handshake goes first, so the oversized line is all the server holds
  // when it refuses — it has read every byte, and closes with a FIN.
  const int fd = connect_raw(srv.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "{\"hello\": 1, \"tenant\": \"t\"}\n"));
  const std::string hello_ok = recv_line(fd);
  EXPECT_NE(hello_ok.find("\"hello_ok\":1"), std::string::npos) << hello_ok;
  ASSERT_TRUE(send_all(fd, std::string(std::size_t{kMaxFrame} + 1, 'x')));
  const std::string err = recv_line(fd);
  EXPECT_NE(err.find("\"fatal\":true"), std::string::npos) << err;
  EXPECT_NE(err.find("\"code\":\"invalid_argument\""), std::string::npos)
      << err;
  EXPECT_NE(err.find("json line exceeds the frame limit"), std::string::npos)
      << err;
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);
  ::close(fd);

  EXPECT_EQ(srv.stats().protocol_errors, 2u);
  srv.shutdown(/*drain=*/true);
}

TEST(ServerSocket, VersionMismatchedHelloIsRefused) {
  TuningServer srv(test_options(1));
  ASSERT_TRUE(srv.start().ok());

  // WireClient always sends a well-formed v1 HELLO, so speak raw bytes:
  // the frame itself decodes fine, the server rejects the version field.
  const int fd = connect_raw(srv.port());
  ASSERT_GE(fd, 0);

  Hello hello;
  hello.version = kWireVersion + 1;
  const std::string bytes = encode_hello(hello);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  ByteRing in(1024);
  FrameView fv;
  char buf[1024];
  for (;;) {
    const FrameStatus st = next_frame(in, kMaxFrame, &fv);
    if (st == FrameStatus::kFrame) break;
    ASSERT_EQ(st, FrameStatus::kNeedMore);
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(r, 0) << "server closed without an ERROR frame";
    ASSERT_TRUE(in.append(buf, static_cast<std::size_t>(r), 1u << 20));
  }
  ASSERT_EQ(fv.type, MsgType::kError);
  auto err = decode_error(fv.body);
  ASSERT_TRUE(err.ok()) << err.error().to_string();
  EXPECT_TRUE(err->fatal);
  EXPECT_EQ(err->code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(err->message, "unsupported wire version");

  // Then the FIN: no HELLO_OK ever arrives.
  const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
  EXPECT_EQ(r, 0);
  ::close(fd);
  EXPECT_EQ(srv.stats().protocol_errors, 1u);
  srv.shutdown(/*drain=*/true);
}

TEST(ServerSocket, JsonDebugModeOverARawSocket) {
  TuningServer srv(test_options(1));
  ASSERT_TRUE(srv.start().ok());

  const int fd = connect_raw(srv.port());
  ASSERT_GE(fd, 0);

  const std::string lines =
      "{\"hello\": 1, \"tenant\": \"debug\"}\n"
      "{\"seq\": 3, \"lmax\": 4.0, \"protocols\": [\"X-MAC\"]}\n";
  ASSERT_EQ(::send(fd, lines.data(), lines.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(lines.size()));

  std::string got;
  char buf[4096];
  while (std::count(got.begin(), got.end(), '\n') < 2) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(r, 0) << "server closed before both response lines";
    got.append(buf, static_cast<std::size_t>(r));
  }
  EXPECT_NE(got.find("\"hello_ok\":1"), std::string::npos) << got;
  EXPECT_NE(got.find("\"seq\":3"), std::string::npos) << got;
  EXPECT_NE(got.find("\"ok\":true"), std::string::npos) << got;
  EXPECT_NE(got.find("\"recommended\":\"X-MAC\""), std::string::npos) << got;
  ::close(fd);
  srv.shutdown(/*drain=*/true);
}

// The example in tuning_serverd's header, byte for byte: a boolean hello,
// then a query that names no protocols.
TEST(ServerSocket, DaemonsDocumentedJsonLinesAreServed) {
  TuningServer srv(test_options(1));
  ASSERT_TRUE(srv.start().ok());
  const int fd = connect_raw(srv.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "{\"hello\": true}\n{\"seq\": 1, \"lmax\": 4.0}\n"));
  std::string got;
  char buf[4096];
  while (std::count(got.begin(), got.end(), '\n') < 2) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(r, 0) << "server closed before both response lines: " << got;
    got.append(buf, static_cast<std::size_t>(r));
  }
  EXPECT_EQ(got.substr(0, got.find('\n') + 1), json_hello_ok_line()) << got;
  EXPECT_NE(got.find("\"seq\":1,\"ok\":true"), std::string::npos) << got;
  ::close(fd);
  EXPECT_EQ(srv.stats().protocol_errors, 0u);
  srv.shutdown(/*drain=*/true);
}

// A binary HELLO asking for JSON mode: HELLO_OK comes back as a frame,
// and every byte after the HELLO, in the same send, is JSON both ways —
// answers and errors alike.
TEST(ServerSocket, BinaryHelloUpgradesTheConnectionToJson) {
  const ServerOptions opts = test_options(1);
  TuningServer srv(opts);
  ASSERT_TRUE(srv.start().ok());
  const int fd = connect_raw(srv.port());
  ASSERT_GE(fd, 0);

  Hello hello;
  hello.mode = WireMode::kJson;
  hello.tenant = "upgraded";
  ASSERT_TRUE(send_all(fd, encode_hello(hello) +
                               "{\"seq\": 5, \"lmax\": 4.0, "
                               "\"protocols\": [\"X-MAC\"]}\n"));
  const std::string hello_ok = encode_hello_ok();
  std::string got;
  char buf[4096];
  while (got.size() <= hello_ok.size() ||
         got.find('\n', hello_ok.size()) == std::string::npos) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(r, 0) << "server closed before the JSON answer";
    got.append(buf, static_cast<std::size_t>(r));
  }
  EXPECT_EQ(got.substr(0, hello_ok.size()), hello_ok);
  service::ServiceCore core(reference_options(opts));
  const auto reference = core.serve({test_query(4.0)});
  ASSERT_EQ(reference.size(), 1u);
  EXPECT_EQ(got.substr(hello_ok.size()), json_response_line(reference[0], 5));

  ASSERT_TRUE(send_all(fd, "{\"lmaks\": 3}\n"));
  const std::string err = recv_line(fd);
  EXPECT_NE(err.find("\"ok\":false,\"fatal\":true"), std::string::npos)
      << err;
  EXPECT_NE(err.find("unknown key \\\"lmaks\\\""), std::string::npos) << err;
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);
  ::close(fd);
  EXPECT_EQ(srv.stats().protocol_errors, 1u);
  srv.shutdown(/*drain=*/true);
}

TEST(ServerSocket, DrainShutdownAnswersEverythingThenFin) {
  TuningServer srv(test_options(2));
  ASSERT_TRUE(srv.start().ok());

  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    client.queue_query(test_query(3.0 + 0.5 * i), static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(client.flush().ok());

  // Let the worker decode and admit the burst (decode is microseconds;
  // the solves behind it are what drain must wait for), then shut down
  // with the whole pipeline in flight: every admitted query must still
  // answer, then the connection gets a graceful FIN.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  srv.shutdown(/*drain=*/true);

  for (int i = 0; i < n; ++i) {
    auto resp = client.next_response();
    ASSERT_TRUE(resp.ok())
        << "response " << i << " lost in drain: " << resp.error().to_string();
    EXPECT_EQ(resp->seq, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(resp->result.has_value());
  }
  auto eof = client.next_response();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.error().code, ErrorCode::kUnavailable);

  // A new connection after shutdown must be refused.
  WireClient late;
  EXPECT_FALSE(late.connect("127.0.0.1", srv.port()).ok());
}

TEST(ServerSocket, ServerLatencyHistogramRecordsServes) {
  TuningServer srv(test_options(1));
  ASSERT_TRUE(srv.start().ok());
  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv.port()).ok());
  const auto before =
      obs::Registry::global().histogram("service.latency").merged();
  ASSERT_TRUE(client.query(test_query(4.5), 1).ok());
  const auto after =
      obs::Registry::global().histogram("service.latency").merged();
  EXPECT_GE(after.count(), before.count() + 1);
  srv.shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace edb::server
