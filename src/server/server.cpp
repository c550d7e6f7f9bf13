#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/dispatcher.h"

namespace edb::server {

namespace {

constexpr std::size_t kInitialRing = 4096;
// Fixed listener and connection limits.  One frame's payload is at most
// kMaxFrame (server/wire.h) bytes, and so is a pending JSON line.
constexpr int kListenBacklog = 128;
constexpr std::size_t kMaxOutputBuffer = 8u << 20;  // per-connection out ring
constexpr std::size_t kMaxConnections = 1024;

// One client connection.  Owned by exactly one worker loop; only the
// `closed` flag is ever read from another thread (the serve thread
// checks it before building a completion, purely as a fast-path skip —
// the worker re-checks on delivery).
struct Connection {
  int fd = -1;
  int worker = 0;

  ByteRing in{kInitialRing};
  ByteRing out{kInitialRing};

  enum class Mode : std::uint8_t { kUndecided, kBinary, kJson };
  Mode mode = Mode::kUndecided;
  bool hello_done = false;
  std::string tenant;
  std::string json_line;  // partial line carried across reads (JSON mode)

  // Response-order bookkeeping: every request (admitted, shed or locally
  // answered) claims the next slot; slots flush to the output ring
  // strictly in order once the ready prefix is contiguous, so pipelined
  // responses always leave in request order.
  struct Slot {
    bool ready = false;
    std::string bytes;  // encoded frame / JSON line
  };
  std::deque<Slot> pending;
  std::uint64_t next_req = 0;   // request index the next slot will get
  std::uint64_t front_req = 0;  // request index of pending.front()

  bool close_after_flush = false;  // fatal error queued; FIN once drained
  bool peer_eof = false;           // client sent FIN; finish answering
  bool want_write = false;         // EPOLLOUT currently armed
  std::atomic<bool> closed{false};
};

using ConnPtr = std::shared_ptr<Connection>;

// The dispatcher's routing tag: the response slot a query's answer fills.
struct SlotRoute {
  ConnPtr conn;
  std::uint64_t req = 0;  // connection slot index
  std::uint64_t seq = 0;  // client sequence number, echoed back
};

using Dispatcher = service::Dispatcher<SlotRoute>;

struct Completion {
  SlotRoute route;
  Expected<service::TuningResult> result;
};

struct Worker {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;

  // Cross-thread inboxes (acceptor pushes connections, the serve thread
  // pushes completions); the worker swaps them out under the mutex.
  std::mutex mutex;
  std::vector<ConnPtr> incoming;
  std::vector<Completion> completions;

  // Worker-thread-only state.
  std::unordered_map<int, ConnPtr> conns;
};

void wake(Worker& w) {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the poller; ignore short writes.
  [[maybe_unused]] ssize_t r = ::write(w.event_fd, &one, sizeof one);
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

struct TuningServer::Impl {
  explicit Impl(const ServerOptions& o)
      : opts(o), dispatcher(o, std::bind_front(&Impl::complete, this)) {}

  ServerOptions opts;

  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  std::thread acceptor;
  std::vector<std::unique_ptr<Worker>> workers;

  std::atomic<bool> draining{false};      // workers: stop reading input
  std::atomic<bool> shutdown_now{false};  // workers: close immediately

  std::mutex lifecycle_mutex;
  bool started = false;
  bool stopped = false;

  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> open_conns{0};
  std::atomic<std::size_t> protocol_errors{0};

  // Last member: its serve thread calls complete(), which reads the
  // workers and flags above, so it is constructed last and destroyed
  // first.
  Dispatcher dispatcher;

  // ------------------------------------------------------------ accept --

  void acceptor_loop() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listener shut down (EINVAL) or broken: stop accepting
      }
      if (draining.load() || open_conns.load() >= kMaxConnections) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->worker = static_cast<int>(accepted.fetch_add(1) % workers.size());
      open_conns.fetch_add(1);
      Worker& w = *workers[static_cast<std::size_t>(conn->worker)];
      {
        std::lock_guard<std::mutex> lock(w.mutex);
        w.incoming.push_back(std::move(conn));
      }
      wake(w);
    }
  }

  // ------------------------------------------------------------- serve --

  // The dispatcher's completion callback (serve thread): groups a batch's
  // answers per worker — one lock + one wake per worker per batch, not
  // per query.
  void complete(std::vector<SlotRoute>& routes,
                std::vector<Expected<service::TuningResult>>& results) {
    if (shutdown_now.load()) return;  // connections are closing
    std::vector<std::vector<Completion>> per_worker(workers.size());
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (routes[i].conn->closed.load()) continue;
      const auto wi = static_cast<std::size_t>(routes[i].conn->worker);
      per_worker[wi].push_back(
          Completion{std::move(routes[i]), std::move(results[i])});
    }
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
      if (per_worker[wi].empty()) continue;
      Worker& w = *workers[wi];
      {
        std::lock_guard<std::mutex> lock(w.mutex);
        for (Completion& c : per_worker[wi]) {
          w.completions.push_back(std::move(c));
        }
      }
      wake(w);
    }
  }

  // ------------------------------------------------------------ worker --

  void worker_loop(Worker& w) {
    epoll_event events[64];
    for (;;) {
      const int n = ::epoll_wait(w.epoll_fd, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      bool woken = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == w.event_fd) {
          std::uint64_t drained;
          while (::read(w.event_fd, &drained, sizeof drained) > 0) {
          }
          woken = true;
          continue;
        }
        const auto it = w.conns.find(fd);
        if (it == w.conns.end()) continue;  // closed earlier this round
        // A copy, not the map's entry: closing erases that entry while
        // handle_io is still using the connection.
        const ConnPtr conn = it->second;
        handle_io(w, conn, events[i].events);
      }
      if (woken) {
        drain_inboxes(w);
      }
      if (shutdown_now.load()) {
        close_all(w);
        return;
      }
      if (draining.load()) {
        finish_draining_conns(w);
        if (w.conns.empty()) return;
      }
    }
  }

  void drain_inboxes(Worker& w) {
    std::vector<ConnPtr> incoming;
    std::vector<Completion> completions;
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      incoming.swap(w.incoming);
      completions.swap(w.completions);
    }
    for (ConnPtr& conn : incoming) {
      if (shutdown_now.load() || draining.load()) {
        ::close(conn->fd);
        conn->closed.store(true);
        open_conns.fetch_sub(1);
        continue;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn->fd;
      if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
        ::close(conn->fd);
        conn->closed.store(true);
        open_conns.fetch_sub(1);
        continue;
      }
      w.conns.emplace(conn->fd, std::move(conn));
    }
    // Deliver results, then flush each touched connection once.
    std::vector<ConnPtr> touched;
    for (Completion& c : completions) {
      const ConnPtr& conn = c.route.conn;
      if (conn->closed.load()) continue;
      fill_slot(c.route, conn->mode == Connection::Mode::kJson
                             ? json_response_line(c.result, c.route.seq)
                             : encode_response(c.result, c.route.seq));
      if (touched.empty() || touched.back() != conn) touched.push_back(conn);
    }
    for (ConnPtr& conn : touched) {
      if (!conn->closed.load()) flush_output(w, conn);
    }
  }

  void handle_io(Worker& w, const ConnPtr& conn, std::uint32_t events) {
    if (events & (EPOLLERR | EPOLLHUP)) {
      close_conn(w, conn);
      return;
    }
    if ((events & EPOLLIN) && !draining.load() && !conn->close_after_flush) {
      read_input(w, conn);
      if (conn->closed.load()) return;
    }
    if (events & EPOLLOUT) {
      flush_output(w, conn);
    }
  }

  void read_input(Worker& w, const ConnPtr& conn) {
    const std::size_t max_input = 4 + std::size_t{kMaxFrame};
    for (;;) {
      if (conn->in.free_space() == 0 &&
          !conn->in.reserve(conn->in.capacity() * 2, max_input * 2)) {
        fatal_error(w, conn, ErrorCode::kInvalidArgument,
                    "input buffer limit exceeded", 0);
        return;
      }
      iovec iov[2];
      const int cnt = conn->in.fill_iovecs(iov);
      const ssize_t r = ::readv(conn->fd, iov, cnt);
      if (r > 0) {
        conn->in.commit_fill(static_cast<std::size_t>(r));
        parse_input(w, conn);
        if (conn->closed.load() || conn->close_after_flush) return;
        continue;  // level-triggered: read until EAGAIN
      }
      if (r == 0) {
        // Client FIN: no more requests; finish what is in flight, then
        // close from flush_output once everything drained.
        conn->peer_eof = true;
        update_interest(w, *conn);
        flush_output(w, conn);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(w, conn);
      return;
    }
  }

  void parse_input(Worker& w, const ConnPtr& conn) {
    if (conn->mode == Connection::Mode::kUndecided) {
      if (conn->in.empty()) return;
      unsigned char first = 0;
      conn->in.copy_out(0, 1, &first);
      conn->mode = first == static_cast<unsigned char>('{')
                       ? Connection::Mode::kJson
                       : Connection::Mode::kBinary;
    }
    if (conn->mode == Connection::Mode::kJson) {
      parse_json_input(w, conn);
    } else {
      parse_binary_input(w, conn);
    }
    flush_output(w, conn);
  }

  void parse_binary_input(Worker& w, const ConnPtr& conn) {
    for (;;) {
      FrameView fv;
      switch (next_frame(conn->in, kMaxFrame, &fv)) {
        case FrameStatus::kNeedMore:
          return;
        case FrameStatus::kTooLarge:
          fatal_error(w, conn, ErrorCode::kInvalidArgument,
                      "frame exceeds the negotiated maximum", 0);
          return;
        case FrameStatus::kMalformed:
          fatal_error(w, conn, ErrorCode::kInvalidArgument,
                      "malformed frame header", 0);
          return;
        case FrameStatus::kFrame:
          break;
      }
      if (!conn->hello_done) {
        if (fv.type != MsgType::kHello) {
          fatal_error(w, conn, ErrorCode::kInvalidArgument,
                      "expected HELLO as the first frame", fv.seq);
          return;
        }
        auto hello = decode_hello(fv.body);
        if (!hello.ok()) {
          fatal_error(w, conn, hello.error().code, hello.error().message,
                      fv.seq);
          return;
        }
        if (hello->version != kWireVersion) {
          fatal_error(w, conn, ErrorCode::kInvalidArgument,
                      "unsupported wire version", fv.seq);
          return;
        }
        conn->tenant = hello->tenant;
        conn->hello_done = true;
        push_local_response(conn, encode_hello_ok());
        if (hello->mode == WireMode::kJson) {
          // Handshake upgrade: the HELLO/HELLO_OK exchange was binary,
          // everything after is newline-delimited JSON both ways.
          conn->mode = Connection::Mode::kJson;
          parse_json_input(w, conn);
          return;
        }
        continue;
      }
      if (fv.type != MsgType::kQuery) {
        fatal_error(w, conn, ErrorCode::kInvalidArgument,
                    "unexpected frame type", fv.seq);
        return;
      }
      auto query = decode_query(fv.body);
      if (!query.ok()) {
        fatal_error(w, conn, query.error().code, query.error().message,
                    fv.seq);
        return;
      }
      admit_query(conn, std::move(query).take(), fv.seq);
      if (conn->close_after_flush) return;
    }
  }

  void parse_json_input(Worker& w, const ConnPtr& conn) {
    // Pull everything buffered into the line accumulator; JSON mode is
    // the debug path, so simplicity beats zero-copy here.
    const std::size_t n = conn->in.size();
    if (n > 0) {
      const std::size_t old = conn->json_line.size();
      conn->json_line.resize(old + n);
      conn->in.copy_out(0, n, conn->json_line.data() + old);
      conn->in.consume(n);
    }
    if (conn->json_line.size() > kMaxFrame) {
      fatal_error(w, conn, ErrorCode::kInvalidArgument,
                  "json line exceeds the frame limit", 0);
      return;
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn->json_line.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line(conn->json_line.data() + start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      auto req = parse_json_request(line);
      if (!req.ok()) {
        conn->json_line.erase(0, start);
        fatal_error(w, conn, req.error().code, req.error().message, 0);
        return;
      }
      if (req->hello) {
        if (conn->next_req != 0) {
          conn->json_line.erase(0, start);
          fatal_error(w, conn, ErrorCode::kInvalidArgument,
                      "hello must be the first request", 0);
          return;
        }
        conn->tenant = req->tenant;
        conn->hello_done = true;
        push_local_response(conn, json_hello_ok_line());
        continue;
      }
      admit_query(conn, std::move(req->query), req->seq);
    }
    conn->json_line.erase(0, start);
  }

  // Claims the query's response slot, then admits it; a rejection fills
  // that slot in place (on this worker thread, inside admit()).
  void admit_query(const ConnPtr& conn, service::TuningQuery query,
                   std::uint64_t seq) {
    query.tenant = conn->tenant;
    const std::uint64_t req = conn->next_req++;
    conn->pending.push_back(Connection::Slot{});
    std::vector<Dispatcher::Job> jobs;
    jobs.push_back({std::move(query), SlotRoute{conn, req, seq}});
    dispatcher.admit(std::move(jobs), [this](SlotRoute& route, Error error) {
      fill_slot(route, error_frame(*route.conn,
                                   {false, error.code, std::move(error.message)},
                                   route.seq));
    });
  }

  // Fills a claimed response slot (worker thread only).
  void fill_slot(const SlotRoute& route, std::string bytes) {
    Connection& conn = *route.conn;
    const std::uint64_t idx = route.req - conn.front_req;
    EDB_ASSERT(idx < conn.pending.size(), "unknown response slot");
    Connection::Slot& slot = conn.pending[static_cast<std::size_t>(idx)];
    slot.bytes = std::move(bytes);
    slot.ready = true;
  }

  static std::string error_frame(const Connection& conn, const WireError& err,
                                 std::uint64_t seq) {
    return conn.mode == Connection::Mode::kJson ? json_error_line(err, seq)
                                                : encode_error(err, seq);
  }

  // Claims the next response slot and fills it immediately (HELLO_OK and
  // fatal errors — answers that never reach the dispatcher).
  void push_local_response(const ConnPtr& conn, std::string bytes) {
    conn->next_req++;
    conn->pending.push_back(Connection::Slot{true, std::move(bytes)});
  }

  // Queues a fatal protocol-violation answer: flushed after everything
  // already owed, then the connection closes with a clean FIN.
  void fatal_error(Worker& w, const ConnPtr& conn, ErrorCode code,
                   std::string message, std::uint64_t seq) {
    protocol_errors.fetch_add(1);
    service::count_service_error(code);
    push_local_response(conn,
                        error_frame(*conn, {true, code, std::move(message)}, seq));
    conn->close_after_flush = true;
    // Stop reading: nothing after a protocol violation can be relied on.
    update_interest(w, *conn);
    flush_output(w, conn);
  }

  // Moves the contiguous ready prefix of response slots into the output
  // ring and drains it with writev until EAGAIN — the write-coalescing
  // path: responses that are ready together leave in one syscall.
  void flush_output(Worker& w, const ConnPtr& conn) {
    if (conn->closed.load()) return;
    for (;;) {
      bool moved = false;
      while (!conn->pending.empty() && conn->pending.front().ready) {
        Connection::Slot& slot = conn->pending.front();
        if (slot.bytes.size() > kMaxOutputBuffer) {
          close_conn(w, conn);  // cannot ever fit: shed the connection
          return;
        }
        if (!conn->out.append(slot.bytes.data(), slot.bytes.size(),
                              kMaxOutputBuffer)) {
          break;  // ring at cap: drain first, then move the rest
        }
        conn->pending.pop_front();
        conn->front_req++;
        moved = true;
      }
      bool progressed = false;
      while (!conn->out.empty()) {
        iovec iov[2];
        const int cnt = conn->out.drain_iovecs(iov);
        const ssize_t r = ::writev(conn->fd, iov, cnt);
        if (r > 0) {
          conn->out.consume(static_cast<std::size_t>(r));
          progressed = true;
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        close_conn(w, conn);
        return;
      }
      if (!moved && !progressed) break;
      if (conn->out.empty() && (conn->pending.empty() ||
                                !conn->pending.front().ready)) {
        break;
      }
    }

    const bool backlog = !conn->out.empty();
    if (backlog != conn->want_write) {
      conn->want_write = backlog;
      update_interest(w, *conn);
    }

    const bool fully_drained = conn->out.empty() && conn->pending.empty();
    if (fully_drained &&
        (conn->close_after_flush || conn->peer_eof || draining.load())) {
      ::shutdown(conn->fd, SHUT_WR);  // graceful FIN before close
      close_conn(w, conn);
    }
  }

  // The one epoll-interest rule: read while the connection may still
  // bring requests (no fatal error queued, no client FIN, no drain), and
  // write while output is backlogged.
  void update_interest(Worker& w, const Connection& conn) {
    const bool reading =
        !conn.close_after_flush && !conn.peer_eof && !draining.load();
    epoll_event ev{};
    ev.events = (reading ? EPOLLIN : 0u) | (conn.want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void close_conn(Worker& w, const ConnPtr& conn) {
    if (conn->closed.exchange(true)) return;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    w.conns.erase(conn->fd);
    open_conns.fetch_sub(1);
  }

  void close_all(Worker& w) {
    std::vector<ConnPtr> all;
    all.reserve(w.conns.size());
    for (auto& [fd, conn] : w.conns) all.push_back(conn);
    for (const ConnPtr& conn : all) close_conn(w, conn);
  }

  void finish_draining_conns(Worker& w) {
    std::vector<ConnPtr> all;
    all.reserve(w.conns.size());
    for (auto& [fd, conn] : w.conns) all.push_back(conn);
    for (const ConnPtr& conn : all) {
      // Drop read interest: unread input would re-fire level-triggered
      // EPOLLIN forever once we stop consuming it.
      update_interest(w, *conn);
      flush_output(w, conn);
    }
  }

  // --------------------------------------------------------- lifecycle --

  Expected<bool> start() {
    {
      std::lock_guard<std::mutex> lock(lifecycle_mutex);
      EDB_ASSERT(!started, "TuningServer::start called twice");
      started = true;
    }
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) {
      return make_error(ErrorCode::kUnavailable, errno_message("socket"));
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.port);
    if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
      return make_error(ErrorCode::kInvalidArgument,
                        "bad listen address: " + opts.host);
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      return make_error(ErrorCode::kUnavailable, errno_message("bind"));
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);
    if (::listen(listen_fd, kListenBacklog) != 0) {
      return make_error(ErrorCode::kUnavailable, errno_message("listen"));
    }

    const int nworkers = std::max(1, opts.workers);
    workers.reserve(static_cast<std::size_t>(nworkers));
    for (int i = 0; i < nworkers; ++i) {
      auto w = std::make_unique<Worker>();
      w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      w->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (w->epoll_fd < 0 || w->event_fd < 0) {
        return make_error(ErrorCode::kUnavailable,
                          errno_message("epoll/eventfd"));
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = w->event_fd;
      ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &ev);
      workers.push_back(std::move(w));
    }
    for (auto& w : workers) {
      Worker* wp = w.get();
      wp->thread = std::thread([this, wp] { worker_loop(*wp); });
    }
    acceptor = std::thread([this] { acceptor_loop(); });
    return true;
  }

  void shutdown(bool drain) {
    {
      std::lock_guard<std::mutex> lock(lifecycle_mutex);
      if (!started || stopped) return;
      stopped = true;
    }
    if (!drain) shutdown_now.store(true);
    draining.store(true);
    ::shutdown(listen_fd, SHUT_RDWR);
    if (acceptor.joinable()) acceptor.join();
    dispatcher.shutdown(drain);

    for (auto& w : workers) wake(*w);
    for (auto& w : workers) {
      if (w->thread.joinable()) w->thread.join();
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
      if (w->event_fd >= 0) ::close(w->event_fd);
    }
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
  }
};

TuningServer::TuningServer(const ServerOptions& opts)
    : opts_(opts), impl_(std::make_unique<Impl>(opts)) {}

TuningServer::~TuningServer() {
  if (impl_) impl_->shutdown(/*drain=*/true);
}

Expected<bool> TuningServer::start() { return impl_->start(); }

void TuningServer::shutdown(bool drain) { impl_->shutdown(drain); }

std::uint16_t TuningServer::port() const { return impl_->bound_port; }

ServerStats TuningServer::stats() const {
  ServerStats s;
  s.accepted = impl_->accepted.load();
  s.connections = impl_->open_conns.load();
  const service::ServiceStats d = impl_->dispatcher.stats();
  s.queries = d.admitted;
  s.shed = d.shed;
  s.protocol_errors = impl_->protocol_errors.load();
  return s;
}

}  // namespace edb::server
