#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace edb::server {

namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

WireClient::~WireClient() { close(); }

void WireClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Expected<bool> WireClient::connect(const std::string& host,
                                   std::uint16_t port,
                                   const std::string& tenant) {
  EDB_ASSERT(fd_ < 0, "WireClient::connect on a connected client");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return make_error(ErrorCode::kUnavailable, errno_message("socket"));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return make_error(ErrorCode::kInvalidArgument, "bad host: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return make_error(ErrorCode::kUnavailable, errno_message("connect"));
  }
  Hello hello;
  hello.tenant = tenant;
  sendbuf_ += encode_hello(hello);
  if (auto sent = flush(); !sent.ok()) return sent;
  auto resp = next_response();
  if (!resp.ok()) return resp.error();
  if (resp->error.has_value()) {
    Error err{resp->error->code, resp->error->message};
    close();
    return err;
  }
  // next_response only surfaces RESULT/ERROR bodies; a HELLO_OK comes
  // back with neither set.
  if (resp->result.has_value()) {
    close();
    return make_error(ErrorCode::kInternal,
                      "unexpected RESULT before handshake completion");
  }
  return true;
}

void WireClient::queue_query(const service::TuningQuery& query,
                             std::uint64_t seq) {
  sendbuf_ += encode_query(query, seq);
}

Expected<bool> WireClient::flush() {
  std::size_t off = 0;
  while (off < sendbuf_.size()) {
    const ssize_t r =
        ::send(fd_, sendbuf_.data() + off, sendbuf_.size() - off,
               MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      close();
      return make_error(ErrorCode::kUnavailable, errno_message("send"));
    }
    off += static_cast<std::size_t>(r);
  }
  sendbuf_.clear();
  return true;
}

Expected<bool> WireClient::fill_until(std::size_t bytes) {
  while (in_.size() < bytes) {
    if (in_.free_space() == 0 &&
        !in_.reserve(in_.capacity() * 2, 2 * (4 + kMaxFrame))) {
      return make_error(ErrorCode::kInternal, "client buffer limit");
    }
    iovec iov[2];
    const int cnt = in_.fill_iovecs(iov);
    const ssize_t r = ::readv(fd_, iov, cnt);
    if (r > 0) {
      in_.commit_fill(static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    close();
    return make_error(ErrorCode::kUnavailable,
                      r == 0 ? "server closed the connection"
                             : errno_message("readv"));
  }
  return true;
}

Expected<WireClient::Response> WireClient::next_response() {
  if (fd_ < 0) {
    return make_error(ErrorCode::kUnavailable, "client not connected");
  }
  // The server's own frame reader (server/wire.h): a bad length or an
  // unknown type byte is a protocol violation, so the client gives up on
  // the connection.
  FrameView fv;
  for (;;) {
    const FrameStatus status = next_frame(in_, kMaxFrame, &fv);
    if (status == FrameStatus::kFrame) break;
    if (status != FrameStatus::kNeedMore) {
      close();
      return make_error(ErrorCode::kInternal, "malformed server frame");
    }
    if (auto got = fill_until(in_.size() + 1); !got.ok()) return got.error();
  }
  Response out;
  out.seq = fv.seq;
  // The frame grammar is fixed, so re-framing the parsed frame gives back
  // the received bytes exactly.
  out.raw = frame(fv.type, fv.seq, fv.body);
  switch (fv.type) {
    case MsgType::kHelloOk:
      return out;
    case MsgType::kResult: {
      auto result = decode_result(fv.body);
      if (!result.ok()) {
        close();
        return result.error();
      }
      out.result = std::move(result).take();
      return out;
    }
    case MsgType::kError: {
      auto err = decode_error(fv.body);
      if (!err.ok()) {
        close();
        return err.error();
      }
      out.error = std::move(err).take();
      if (out.error->fatal) close();
      return out;
    }
    default:
      close();
      return make_error(ErrorCode::kInternal,
                        "unexpected frame type from server");
  }
}

Expected<service::TuningResult> WireClient::query(
    const service::TuningQuery& query, std::uint64_t seq) {
  queue_query(query, seq);
  if (auto sent = flush(); !sent.ok()) return sent.error();
  auto resp = next_response();
  if (!resp.ok()) return resp.error();
  if (resp->error.has_value()) {
    return Error{resp->error->code, resp->error->message};
  }
  if (!resp->result.has_value()) {
    return make_error(ErrorCode::kInternal, "response carried no result");
  }
  return std::move(*resp->result);
}

}  // namespace edb::server
