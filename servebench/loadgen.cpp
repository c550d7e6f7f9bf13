#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "common.h"
#include "util/bytes.h"

namespace servebench {
namespace {

namespace wire = edb::server;

// How long a phase may take to drain its in-flight requests before the
// rest count as lost.
constexpr double kDrainLimitS = 30.0;
// Input rings start at kRingBytes and grow to hold one whole frame.
constexpr std::size_t kRingBytes = std::size_t{1} << 16;
constexpr std::size_t kRingMax = 2 * (4 + std::size_t{wire::kMaxFrame});

struct Pending {
  std::size_t request = 0;
  double t_ref = 0;  // send time (closed loop) or due time (open loop)
};

struct Conn {
  int fd = -1;
  edb::ByteRing in{kRingBytes};  // received bytes not yet parsed
  std::deque<Pending> inflight;

  Conn() = default;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
};

using Conns = std::vector<std::unique_ptr<Conn>>;

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t r = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(r));
  }
  return true;
}

// Moves what the socket holds into c.in without blocking; false when the
// connection was closed by the server or failed.
bool fill(Conn& c) {
  for (;;) {
    if (c.in.free_space() == 0 &&
        !c.in.reserve(c.in.capacity() * 2, kRingMax)) {
      return false;
    }
    const std::size_t room = c.in.free_space();
    iovec iov[2];
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(c.in.fill_iovecs(iov));
    const ssize_t r = ::recvmsg(c.fd, &msg, MSG_DONTWAIT);
    if (r > 0) {
      c.in.commit_fill(static_cast<std::size_t>(r));
      if (static_cast<std::size_t>(r) < room) return true;
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

// Reads what the socket holds and hands every complete frame to
// on_reply; false when the connection failed or sent a malformed frame.
template <class F>
bool pump(Conn& c, F&& on_reply) {
  const bool open = fill(c);
  wire::FrameView frame;
  for (;;) {
    switch (wire::next_frame(c.in, wire::kMaxFrame, &frame)) {
      case wire::FrameStatus::kFrame:
        on_reply(frame);
        continue;
      case wire::FrameStatus::kNeedMore:
        return open;
      default:
        return false;
    }
  }
}

// Opens a binary-mode connection: TCP connect, HELLO, wait for HELLO_OK.
bool connect_binary(Conn& c, std::uint16_t port) {
  c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c.fd < 0) return false;
  const int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      !send_all(c.fd, wire::encode_hello(wire::Hello{}))) {
    return false;
  }
  std::optional<wire::MsgType> got;
  while (!got) {
    pollfd p{c.fd, POLLIN, 0};
    if (::poll(&p, 1, /*timeout_ms=*/10000) <= 0) return false;
    if (!pump(c, [&](const wire::FrameView& f) { got = f.type; })) {
      return false;
    }
  }
  return *got == wire::MsgType::kHelloOk;
}

Conns open_connections(std::uint16_t port, int connections,
                       PhaseResult* out) {
  Conns conns;
  for (int i = 0; i < std::max(1, connections); ++i) {
    conns.push_back(std::make_unique<Conn>());
    if (!connect_binary(*conns.back(), port)) out->transport_ok = false;
  }
  return conns;
}

// Fails whatever is still in flight on a broken connection.
void lose(Conn& c, PhaseResult& out) {
  out.failed += c.inflight.size();
  c.inflight.clear();
  out.transport_ok = false;
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
}

// Waits up to `timeout_s` for any live connection with requests in
// flight to become readable, then pumps every readable one.
template <class F>
void poll_and_pump(Conns& conns, double timeout_s, PhaseResult& out,
                   F&& on_reply) {
  std::vector<pollfd> fds;
  std::vector<Conn*> who;
  for (auto& c : conns) {
    if (c->fd < 0 || c->inflight.empty()) continue;
    fds.push_back(pollfd{c->fd, POLLIN, 0});
    who.push_back(c.get());
  }
  timespec ts{};
  timeout_s = std::max(0.0, timeout_s);
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9);
  if (fds.empty()) {
    ::nanosleep(&ts, nullptr);
    return;
  }
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    Conn& c = *who[i];
    if (!pump(c, [&](const wire::FrameView& r) { on_reply(c, r); })) {
      lose(c, out);
    }
  }
}

bool any_inflight(const Conns& conns) {
  for (const auto& c : conns) {
    if (c->fd >= 0 && !c->inflight.empty()) return true;
  }
  return false;
}

// Records one reply against the oldest request in flight on `c`.
void settle(Conn& c, const wire::FrameView& r, double t0, const Check& check,
            PhaseResult& out) {
  if (c.inflight.empty()) {  // a reply nobody asked for
    ++out.failed;
    return;
  }
  const Pending p = c.inflight.front();
  c.inflight.pop_front();
  const double now = now_s();
  if (check(p.request, r)) {
    ++out.answered;
    out.done_at.push_back(now - t0);
    out.latency_ms.push_back((now - p.t_ref) * 1e3);
  } else {
    ++out.failed;
  }
}

}  // namespace

std::string frame_body(std::string_view frame) {
  edb::ByteRing ring(kRingBytes);
  wire::FrameView view;
  if (!ring.append(frame.data(), frame.size(), kRingMax) ||
      wire::next_frame(ring, wire::kMaxFrame, &view) !=
          wire::FrameStatus::kFrame) {
    return {};
  }
  return std::move(view.body);
}

PhaseResult closed_loop(std::uint16_t port, int connections, int window,
                        const Source& source, std::size_t first,
                        double seconds, const Check& check) {
  PhaseResult out;
  Conns conns = open_connections(port, connections, &out);
  std::size_t next = first;
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  const auto send_next = [&](Conn& c) {
    const std::size_t k = next++;
    const std::string frame = source(k);
    c.inflight.push_back(Pending{k, now_s()});
    ++out.attempted;
    if (!send_all(c.fd, frame)) lose(c, out);
  };
  for (auto& c : conns) {
    for (int i = 0; i < window && c->fd >= 0; ++i) send_next(*c);
  }
  while (any_inflight(conns)) {
    if (now_s() > deadline + kDrainLimitS) {
      for (auto& c : conns) lose(*c, out);
      break;
    }
    poll_and_pump(conns, 0.05, out, [&](Conn& c, const wire::FrameView& r) {
      settle(c, r, t0, check, out);
      if (now_s() < deadline && c.fd >= 0) send_next(c);
    });
  }
  out.cpu_s = cpu_s() - cpu0;
  return out;
}

PhaseResult open_loop(std::uint16_t port, int connections, double rate,
                      const Source& source, std::size_t first, double seconds,
                      const Check& check) {
  PhaseResult out;
  Conns conns = open_connections(port, connections, &out);
  const std::size_t total =
      static_cast<std::size_t>(std::floor(seconds * rate));
  std::size_t k = 0;  // requests sent so far
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  for (;;) {
    double now = now_s() - t0;
    while (k < total && static_cast<double>(k) / rate <= now) {
      Conn& c = *conns[k % conns.size()];
      const double due = static_cast<double>(k) / rate;
      const std::size_t request = first + k++;
      ++out.attempted;
      out.lag_ms.push_back((now - due) * 1e3);
      if (c.fd < 0) {
        ++out.failed;
      } else {
        const std::string frame = source(request);
        c.inflight.push_back(Pending{request, t0 + due});
        if (!send_all(c.fd, frame)) lose(c, out);
      }
      now = now_s() - t0;
    }
    const bool more = k < total;
    if (!more && !any_inflight(conns)) break;
    if (now > seconds + kDrainLimitS) {
      for (auto& c : conns) lose(*c, out);
      out.attempted += total - k;
      out.failed += total - k;
      break;
    }
    const double wait = more ? static_cast<double>(k) / rate - now : 0.05;
    poll_and_pump(conns, wait, out, [&](Conn& c, const wire::FrameView& r) {
      settle(c, r, t0, check, out);
    });
  }
  out.cpu_s = cpu_s() - cpu0;
  return out;
}

}  // namespace servebench
