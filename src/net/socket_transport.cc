#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/string_util.h"

namespace sprite::net {

namespace {

using Clock = std::chrono::steady_clock;

// Loopback datagrams comfortably carry ~64 KiB; leave header room.
constexpr size_t kMaxDatagramBytes = 60000;
// Bytes one readable event takes from an inbound connection; a larger
// frame arrives over several poll rounds.
constexpr size_t kReadChunkBytes = 64 * 1024;

Status MakeAddr(const std::string& host, uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  const char* h = host.empty() ? "127.0.0.1" : host.c_str();
  if (inet_pton(AF_INET, h, &out->sin_addr) != 1) {
    return Status::InvalidArgument("unparseable IPv4 host: " + host);
  }
  return Status::OK();
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

double RemainingMs(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

// Polls `fd` for `events` until the deadline. Returns OK when ready,
// DeadlineExceeded on timeout.
Status PollFor(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    double remaining = RemainingMs(deadline);
    if (remaining <= 0.0) return Status::DeadlineExceeded("socket wait");
    pollfd pfd{fd, events, 0};
    int rc = poll(&pfd, 1, static_cast<int>(remaining) + 1);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::DeadlineExceeded("socket wait");
    if (errno != EINTR) return Status::Internal("poll failed");
  }
}

Status WriteAll(int fd, const uint8_t* data, size_t size,
                Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SPRITE_RETURN_IF_ERROR(PollFor(fd, POLLOUT, deadline));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable("tcp write failed: connection lost");
  }
  return Status::OK();
}

Status ReadAll(int fd, uint8_t* data, size_t size, Clock::time_point deadline) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Status::Unavailable("tcp read failed: peer closed");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SPRITE_RETURN_IF_ERROR(PollFor(fd, POLLIN, deadline));
      continue;
    }
    if (errno == EINTR) continue;
    return Status::Unavailable("tcp read failed");
  }
  return Status::OK();
}

// Reads one length-prefixed frame from a connected (non-blocking) socket.
StatusOr<wire::Frame> ReadFrame(int fd, Clock::time_point deadline) {
  std::vector<uint8_t> buf(wire::kHeaderBytes);
  SPRITE_RETURN_IF_ERROR(ReadAll(fd, buf.data(), buf.size(), deadline));
  StatusOr<wire::FrameHeader> header =
      wire::DecodeHeader(buf.data(), buf.size());
  if (!header.ok()) return header.status();
  buf.resize(wire::kHeaderBytes + header->payload_length);
  SPRITE_RETURN_IF_ERROR(ReadAll(fd, buf.data() + wire::kHeaderBytes,
                                 header->payload_length, deadline));
  return wire::DecodeFrame(buf.data(), buf.size());
}

// Connects with a deadline; returns a non-blocking connected fd.
StatusOr<int> DialTcp(const sockaddr_in& addr, Clock::time_point deadline) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket(SOCK_STREAM) failed");
  Status s = SetNonBlocking(fd);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc < 0 && errno == EINPROGRESS) {
    s = PollFor(fd, POLLOUT, deadline);
    if (s.ok()) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        s = Status::Internal("getsockopt(SO_ERROR) failed");
      } else if (err != 0) {
        s = Status::Unavailable("tcp connect refused");
      }
    }
  } else if (rc < 0) {
    s = Status::Unavailable("tcp connect failed");
  }
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  SetNoDelay(fd);
  return fd;
}

// Writes what the socket takes of `out` without blocking and drops it from
// the front; false on a write error.
bool WritePending(int fd, std::vector<uint8_t>& out) {
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(sent));
  return true;
}

// True when a pooled connection can no longer carry a call. The peer never
// sends unsolicited bytes, so any readable state means EOF, a reset or
// garbage.
bool PeerClosed(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 0) != 0;
}

uint64_t PeerKey(const sockaddr_in& addr) {
  return (uint64_t{addr.sin_addr.s_addr} << 16) | addr.sin_port;
}

// Closes and removes the least recently used connection of `conns`.
template <typename Conn>
void CloseLeastRecentlyUsed(std::vector<Conn>& conns) {
  auto lru = std::min_element(
      conns.begin(), conns.end(),
      [](const Conn& a, const Conn& b) { return a.last_used < b.last_used; });
  ::close(lru->fd);
  conns.erase(lru);
}

double BackoffMs(const CallOptions& opts, size_t retry_index) {
  double wait = opts.backoff_ms;
  for (size_t i = 0; i < retry_index; ++i) wait *= 2.0;
  return wait;
}

Clock::time_point DeadlineAfterMs(double ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
}

double ElapsedUs(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

}  // namespace

bool SocketTransport::UsesUdp(p2p::MessageType type) {
  switch (type) {
    case p2p::MessageType::kJoinRequest:
    case p2p::MessageType::kJoinResponse:
    case p2p::MessageType::kLookupRequest:
    case p2p::MessageType::kLookupResponse:
    case p2p::MessageType::kLookupHop:
    case p2p::MessageType::kHeartbeat:
    case p2p::MessageType::kAdvisory:
      return true;
    default:
      return false;
  }
}

SocketTransport::~SocketTransport() { Close(); }

void SocketTransport::Close() {
  if (udp_fd_ >= 0) ::close(udp_fd_);
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  for (const IdleConn& conn : idle_) ::close(conn.fd);
  for (const InboundConn& conn : inbound_) ::close(conn.fd);
  idle_.clear();
  inbound_.clear();
  udp_fd_ = -1;
  tcp_listen_fd_ = -1;
  udp_port_ = 0;
  tcp_port_ = 0;
}

Status SocketTransport::Bind(const Options& options) {
  Close();
  sockaddr_in addr{};
  SPRITE_RETURN_IF_ERROR(MakeAddr(options.host, options.udp_port, &addr));

  udp_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (udp_fd_ < 0) return Status::Internal("socket(SOCK_DGRAM) failed");
  if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return Status::Unavailable("udp bind failed: " +
                               std::string(std::strerror(errno)));
  }
  SPRITE_RETURN_IF_ERROR(SetNonBlocking(udp_fd_));
  socklen_t len = sizeof(addr);
  getsockname(udp_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  udp_port_ = ntohs(addr.sin_port);

  SPRITE_RETURN_IF_ERROR(MakeAddr(options.host, options.tcp_port, &addr));
  tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_listen_fd_ < 0) {
    Close();
    return Status::Internal("socket(SOCK_STREAM) failed");
  }
  int one = 1;
  setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(tcp_listen_fd_, 32) < 0) {
    Close();
    return Status::Unavailable("tcp bind/listen failed: " +
                               std::string(std::strerror(errno)));
  }
  SPRITE_RETURN_IF_ERROR(SetNonBlocking(tcp_listen_fd_));
  len = sizeof(addr);
  getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  tcp_port_ = ntohs(addr.sin_port);
  return Status::OK();
}

void SocketTransport::OnUdpReadable() {
  if (udp_fd_ < 0) return;
  std::vector<uint8_t> buf(65536);
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t n = ::recvfrom(udp_fd_, buf.data(), buf.size(), 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    StatusOr<wire::Frame> req =
        wire::DecodeFrame(buf.data(), static_cast<size_t>(n));
    if (!req.ok() || !handler_) continue;  // drop malformed datagrams
    stats_.CountFrame(req->type, req->wire_size());
    StatusOr<wire::Frame> resp = Serve(*req);
    if (!resp.ok()) continue;  // silence: the caller times out and retries
    resp->src = self_;
    resp->dst = req->src;
    resp->request_id = req->request_id;
    std::vector<uint8_t> out = wire::EncodeFrame(*resp);
    if (out.size() > kMaxDatagramBytes) continue;
    (void)::sendto(udp_fd_, out.data(), out.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), from_len);
    stats_.CountFrame(resp->type, resp->wire_size());
  }
}

void SocketTransport::AppendPollFds(std::vector<pollfd>* fds) const {
  fds->push_back({udp_fd_, POLLIN, 0});
  fds->push_back({tcp_listen_fd_, POLLIN, 0});
  // A connection with a reply pending writes it before it reads again.
  for (const InboundConn& conn : inbound_) {
    fds->push_back(
        {conn.fd, static_cast<short>(conn.out.empty() ? POLLIN : POLLOUT), 0});
  }
}

void SocketTransport::OnPollEvents(const pollfd* fds, size_t count) {
  if (count < 2) return;
  if ((fds[0].revents & POLLIN) != 0) OnUdpReadable();
  // fds[2 + i] is inbound_[i]: this loop only marks connections closed, so
  // the indices hold until the sweep below.
  for (size_t i = 0; i + 2 < count && i < inbound_.size(); ++i) {
    const pollfd& pfd = fds[i + 2];
    InboundConn& conn = inbound_[i];
    if (pfd.revents == 0 || pfd.fd != conn.fd) continue;
    if (!ServeConnection(conn, pfd.revents)) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  std::erase_if(inbound_, [](const InboundConn& conn) { return conn.fd < 0; });
  if ((fds[1].revents & POLLIN) != 0) AcceptConnections();
}

void SocketTransport::AcceptConnections() {
  for (;;) {
    const int fd = ::accept4(tcp_listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    SetNoDelay(fd);
    if (inbound_.size() >= kMaxConnections) CloseLeastRecentlyUsed(inbound_);
    InboundConn conn;
    conn.fd = fd;
    conn.last_used = ++use_tick_;
    inbound_.push_back(std::move(conn));
  }
}

bool SocketTransport::ServeConnection(InboundConn& conn, short revents) {
  conn.last_used = ++use_tick_;
  if (!conn.out.empty()) {
    if (!WritePending(conn.fd, conn.out)) return false;
  } else if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    uint8_t buf[kReadChunkBytes];
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) return false;  // EOF
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    conn.in.insert(conn.in.end(), buf, buf + n);
  }
  // Serve each complete frame, with at most one reply pending.
  size_t used = 0;
  while (conn.out.empty() && conn.in.size() - used >= wire::kHeaderBytes) {
    const uint8_t* frame = conn.in.data() + used;
    StatusOr<wire::FrameHeader> header =
        wire::DecodeHeader(frame, wire::kHeaderBytes);
    if (!header.ok()) return false;
    const size_t size = wire::kHeaderBytes + header->payload_length;
    if (conn.in.size() - used < size) break;
    StatusOr<wire::Frame> req = wire::DecodeFrame(frame, size);
    used += size;
    if (!req.ok() || !handler_) return false;
    stats_.CountFrame(req->type, req->wire_size());
    StatusOr<wire::Frame> resp = Serve(*req);
    if (!resp.ok()) return false;
    resp->src = self_;
    resp->dst = req->src;
    resp->request_id = req->request_id;
    conn.out = wire::EncodeFrame(*resp);
    stats_.CountFrame(resp->type, resp->wire_size());
    if (!WritePending(conn.fd, conn.out)) return false;
  }
  conn.in.erase(conn.in.begin(),
                conn.in.begin() + static_cast<std::ptrdiff_t>(used));
  return true;
}

StatusOr<wire::Frame> SocketTransport::Serve(const wire::Frame& request) {
  if (tracer_ == nullptr || !tracer_->enabled() || !request.traced()) {
    return handler_(request);
  }
  // Adopt the caller's trace: this serve span's parent is the remote
  // net.call span, so merged per-daemon dumps stitch into one tree.
  tracer_->BeginRemoteSpan(
      "serve." + std::string(p2p::MessageTypeName(request.type)), trace_peer_,
      request.trace_id, request.parent_span);
  tracer_->Annotate("src", StrFormat("%llu", static_cast<unsigned long long>(
                                                 request.src)));
  StatusOr<wire::Frame> resp = handler_(request);
  tracer_->EndSpan();
  return resp;
}

StatusOr<wire::Frame> SocketTransport::CallUdp(const PeerAddress& to,
                                               const wire::Frame& request,
                                               const CallOptions& opts) {
  sockaddr_in addr{};
  SPRITE_RETURN_IF_ERROR(MakeAddr(to.host, to.udp_port, &addr));
  std::vector<uint8_t> out = wire::EncodeFrame(request);
  if (out.size() > kMaxDatagramBytes) {
    return Status::InvalidArgument("frame too large for a datagram");
  }
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return Status::Internal("socket(SOCK_DGRAM) failed");
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  std::vector<uint8_t> buf(65536);
  Status last = Status::DeadlineExceeded("udp call timed out");
  for (size_t attempt = 0; attempt <= opts.retries; ++attempt) {
    if (attempt > 0) {
      stats_.CountRetry(request.type);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          BackoffMs(opts, attempt - 1)));
    }
    const auto attempt_start = Clock::now();
    (void)::sendto(fd, out.data(), out.size(), 0,
                   reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    stats_.CountFrame(request.type, request.wire_size());
    auto deadline = DeadlineAfterMs(opts.timeout_ms);
    for (;;) {
      Status ready = PollFor(fd, POLLIN, deadline);
      if (!ready.ok()) {
        last = ready;
        break;  // next attempt
      }
      ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n < 0) continue;
      StatusOr<wire::Frame> resp =
          wire::DecodeFrame(buf.data(), static_cast<size_t>(n));
      // Stale retransmit replies carry an older request_id; keep draining.
      if (!resp.ok() || resp->request_id != request.request_id) continue;
      stats_.CountFrame(resp->type, resp->wire_size());
      stats_.ObserveRtt(request.type, ElapsedUs(attempt_start));
      ::close(fd);
      return resp;
    }
  }
  ::close(fd);
  stats_.CountTimeout(request.type);
  return last;
}

StatusOr<int> SocketTransport::TakeConnection(const sockaddr_in& addr,
                                              Clock::time_point deadline) {
  const uint64_t peer = PeerKey(addr);
  auto idle = std::find_if(idle_.begin(), idle_.end(),
                           [&](const IdleConn& c) { return c.peer == peer; });
  if (idle != idle_.end()) {
    const int fd = idle->fd;
    idle_.erase(idle);
    if (!PeerClosed(fd)) return fd;
    ::close(fd);
  }
  stats_.CountDial();
  return DialTcp(addr, deadline);
}

void SocketTransport::ReleaseConnection(const sockaddr_in& addr, int fd) {
  if (idle_.size() >= kMaxConnections) CloseLeastRecentlyUsed(idle_);
  idle_.push_back({PeerKey(addr), fd, ++use_tick_});
}

StatusOr<wire::Frame> SocketTransport::CallTcp(const PeerAddress& to,
                                               const wire::Frame& request,
                                               const CallOptions& opts) {
  sockaddr_in addr{};
  SPRITE_RETURN_IF_ERROR(MakeAddr(to.host, to.tcp_port, &addr));
  std::vector<uint8_t> out = wire::EncodeFrame(request);
  Status last = Status::DeadlineExceeded("tcp call timed out");
  for (size_t attempt = 0; attempt <= opts.retries; ++attempt) {
    if (attempt > 0) {
      stats_.CountRetry(request.type);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          BackoffMs(opts, attempt - 1)));
    }
    auto deadline = DeadlineAfterMs(opts.timeout_ms);
    const auto attempt_start = Clock::now();
    StatusOr<int> fd = TakeConnection(addr, deadline);
    if (!fd.ok()) {
      last = fd.status();
      continue;
    }
    stats_.CountFrame(request.type, request.wire_size());
    // The request is written once per attempt: a failure from here on ends
    // the attempt and closes the connection.
    Status sent = WriteAll(*fd, out.data(), out.size(), deadline);
    StatusOr<wire::Frame> resp =
        sent.ok() ? ReadFrame(*fd, deadline) : StatusOr<wire::Frame>(sent);
    if (resp.ok() && resp->request_id != request.request_id) {
      resp = Status::Corruption("tcp reply answers another request");
    }
    if (!resp.ok()) {
      ::close(*fd);
      last = resp.status();
      continue;
    }
    ReleaseConnection(addr, *fd);
    stats_.CountFrame(resp->type, resp->wire_size());
    stats_.ObserveRtt(request.type, ElapsedUs(attempt_start));
    return resp;
  }
  if (last.IsDeadlineExceeded()) stats_.CountTimeout(request.type);
  return last;
}

StatusOr<wire::Frame> SocketTransport::Call(const PeerAddress& to,
                                            const wire::Frame& request,
                                            const CallOptions& opts) {
  wire::Frame req = request;
  req.src = self_;
  req.dst = to.id;
  if (req.request_id == 0) req.request_id = next_request_id_++;
  // With live tracing on, the whole call (every attempt included) runs
  // under a net.call span and the outbound frame carries that span as the
  // remote parent, so the receiving daemon's serve span stitches under it.
  obs::ScopedSpan span(tracer_, "net.call", trace_peer_);
  if (span.context().valid()) {
    req.flags |= wire::kFlagTraced;
    req.trace_id = static_cast<uint32_t>(span.context().trace_id);
    req.parent_span = static_cast<uint32_t>(span.context().span_id);
    span.Annotate("type", std::string(p2p::MessageTypeName(req.type)));
    span.Annotate("dst",
                  StrFormat("%llu", static_cast<unsigned long long>(to.id)));
  }
  StatusOr<wire::Frame> resp =
      UsesUdp(req.type) ? CallUdp(to, req, opts) : CallTcp(to, req, opts);
  if (span.context().valid() && !resp.ok()) {
    span.Annotate("error", resp.status().ToString());
  }
  return resp;
}

}  // namespace sprite::net
