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
#include <cmath>
#include <cstring>
#include <optional>
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
// An outbound connection's reply buffer is released once empty past this.
constexpr size_t kKeptReadBufferBytes = 1024 * 1024;

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

// Polls `fd` for `events` until the deadline (the blocking UDP call).
// Returns OK when ready, DeadlineExceeded on timeout.
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

// Starts a non-blocking connect to `addr`. `*connecting` stays true until
// the socket turns writable and SO_ERROR tells how the connect ended.
StatusOr<int> StartDial(const sockaddr_in& addr, bool* connecting) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status::Internal("socket(SOCK_STREAM) failed");
  SetNoDelay(fd);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  *connecting = rc < 0 && errno == EINPROGRESS;
  if (rc < 0 && !*connecting) {
    ::close(fd);
    return Status::Unavailable("tcp connect failed");
  }
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

// True when a connection with no call pending can no longer carry one. The
// peer never sends unsolicited bytes, so any readable state means EOF, a
// reset or garbage.
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

Clock::duration Millis(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

Clock::time_point DeadlineAfterMs(double ms) {
  return Clock::now() + Millis(ms);
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
      return true;
    default:
      return false;
  }
}

SocketTransport::~SocketTransport() { Close(); }

void SocketTransport::Close() {
  if (udp_fd_ >= 0) ::close(udp_fd_);
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  for (const auto& conn : outbound_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  for (const InboundConn& conn : inbound_) ::close(conn.fd);
  outbound_.clear();
  backing_off_.clear();
  completions_.clear();
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
  for (const auto& conn : outbound_) {
    short events = POLLIN;
    if (conn->connecting || !conn->out.empty()) events |= POLLOUT;
    fds->push_back({conn->fd, events, 0});
  }
}

void SocketTransport::OnPollEvents(const pollfd* fds, size_t count) {
  const size_t inbound = inbound_.size();
  if (count >= 2 + inbound) {
    if ((fds[0].revents & POLLIN) != 0) OnUdpReadable();
    // fds[2 + i] is inbound_[i]: this loop only marks connections closed,
    // so the indices hold until the sweep below.
    for (size_t i = 0; i < inbound; ++i) {
      const pollfd& pfd = fds[i + 2];
      InboundConn& conn = inbound_[i];
      if (pfd.revents == 0 || pfd.fd != conn.fd) continue;
      if (!ServeConnection(conn, pfd.revents)) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    std::erase_if(inbound_,
                  [](const InboundConn& conn) { return conn.fd < 0; });
    // fds[2 + inbound + i] is outbound_[i]: handling an event only marks
    // connections closed, so the indices hold until RunTimers sweeps.
    const pollfd* out = fds + 2 + inbound;
    for (size_t i = 0; i < count - 2 - inbound && i < outbound_.size(); ++i) {
      if (out[i].revents == 0 || out[i].fd != outbound_[i]->fd) continue;
      OnOutboundEvent(*outbound_[i], out[i].revents);
    }
    if ((fds[1].revents & POLLIN) != 0) AcceptConnections();
  }
  RunTimers();
  RunCompletions();
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
  const obs::TraceContext span = tracer_->BeginSpanUnder(
      {request.trace_id, request.parent_span},
      "serve." + std::string(p2p::MessageTypeName(request.type)), trace_peer_);
  tracer_->AnnotateSpan(
      span.span_id, "src",
      StrFormat("%llu", static_cast<unsigned long long>(request.src)));
  StatusOr<wire::Frame> resp = handler_(request);
  tracer_->EndSpan(span);
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

size_t SocketTransport::idle_connections() const {
  return static_cast<size_t>(std::count_if(
      outbound_.begin(), outbound_.end(), [](const auto& conn) {
        return conn->fd >= 0 && !conn->connecting && conn->calls.empty();
      }));
}

void SocketTransport::CallAsync(const PeerAddress& to,
                                const wire::Frame& request,
                                const CallOptions& opts, CallDone done) {
  wire::Frame req = request;
  req.src = self_;
  req.dst = to.id;
  if (req.request_id == 0) req.request_id = next_request_id_++;
  // With live tracing on, the call (every attempt included) runs under a
  // net.call span opened under the context the frame carries, and the
  // frame then carries that span as the remote parent, so the receiving
  // daemon's serve span stitches under it.
  obs::TraceContext span;
  if (tracer_ != nullptr && tracer_->enabled()) {
    obs::TraceContext parent;
    if (req.traced()) parent = {req.trace_id, req.parent_span};
    span = tracer_->BeginSpanUnder(parent, "net.call", trace_peer_);
    req.flags |= wire::kFlagTraced;
    req.trace_id = static_cast<uint32_t>(span.trace_id);
    req.parent_span = static_cast<uint32_t>(span.span_id);
    tracer_->AnnotateSpan(span.span_id, "type",
                          std::string(p2p::MessageTypeName(req.type)));
    tracer_->AnnotateSpan(
        span.span_id, "dst",
        StrFormat("%llu", static_cast<unsigned long long>(to.id)));
  }
  auto call = std::make_unique<PendingCall>();
  call->type = req.type;
  call->request_id = req.request_id;
  call->opts = opts;
  call->span = span;
  call->done = std::move(done);
  if (UsesUdp(req.type)) {
    FinishCall(std::move(call), CallUdp(to, req, opts));
  } else if (Status addr = MakeAddr(to.host, to.tcp_port, &call->addr);
             !addr.ok()) {
    FinishCall(std::move(call), std::move(addr));
  } else {
    call->bytes = wire::EncodeFrame(req);
    StartAttempt(std::move(call));
  }
  RunCompletions();
}

StatusOr<wire::Frame> SocketTransport::Call(const PeerAddress& to,
                                            const wire::Frame& request,
                                            const CallOptions& opts) {
  if (!UsesUdp(request.type)) {
    return Status::InvalidArgument(
        "a blocking call takes UDP control frames; TCP goes by CallAsync");
  }
  StatusOr<wire::Frame> result = Status::Internal("unanswered");
  CallAsync(to, request, opts, [&result](StatusOr<wire::Frame> reply) {
    result = std::move(reply);
  });
  return result;  // a UDP call answers before CallAsync returns
}

void SocketTransport::StartAttempt(std::unique_ptr<PendingCall> call) {
  const uint64_t peer = PeerKey(call->addr);
  OutboundConn* conn = nullptr;
  for (const auto& c : outbound_) {
    if (c->fd >= 0 && c->peer == peer) conn = c.get();
  }
  if (conn != nullptr && !conn->connecting && conn->calls.empty() &&
      PeerClosed(conn->fd)) {
    ::close(conn->fd);
    conn->fd = -1;  // swept by RunTimers
    conn = nullptr;
  }
  if (conn == nullptr) {
    stats_.CountDial();
    bool connecting = false;
    StatusOr<int> fd = StartDial(call->addr, &connecting);
    if (!fd.ok()) {
      FailAttempt(std::move(call), fd.status());
      return;
    }
    auto fresh = std::make_unique<OutboundConn>();
    fresh->peer = peer;
    fresh->fd = *fd;
    fresh->connecting = connecting;
    conn = fresh.get();
    outbound_.push_back(std::move(fresh));
  }
  call->sent_at = Clock::now();
  // Checked only while the call is the oldest on its connection; a call
  // queued behind others starts its deadline anew when it gets there.
  call->deadline = call->sent_at + Millis(call->opts.timeout_ms);
  stats_.CountFrame(call->type, call->bytes.size());
  const bool was_empty = conn->out.empty();
  conn->out.insert(conn->out.end(), call->bytes.begin(), call->bytes.end());
  conn->calls.push_back(std::move(call));
  conn->last_used = ++use_tick_;
  // Write now rather than a poll round later; what the socket does not
  // take waits for POLLOUT.
  if (was_empty && !conn->connecting && !WritePending(conn->fd, conn->out)) {
    CloseOutbound(*conn, Status::Unavailable("tcp write failed"));
  }
}

void SocketTransport::FailAttempt(std::unique_ptr<PendingCall> call,
                                  Status status) {
  if (call->attempt < call->opts.retries) {
    stats_.CountRetry(call->type);
    call->retry_at =
        Clock::now() + Millis(BackoffMs(call->opts, call->attempt));
    ++call->attempt;
    backing_off_.push_back(std::move(call));
    return;
  }
  if (status.IsDeadlineExceeded()) stats_.CountTimeout(call->type);
  FinishCall(std::move(call), std::move(status));
}

void SocketTransport::FinishCall(std::unique_ptr<PendingCall> call,
                                 StatusOr<wire::Frame> result) {
  if (call->span.valid()) {
    if (!result.ok()) {
      tracer_->AnnotateSpan(call->span.span_id, "error",
                            result.status().ToString());
    }
    tracer_->EndSpan(call->span);
  }
  completions_.push_back({std::move(call->done), std::move(result)});
}

void SocketTransport::CloseOutbound(OutboundConn& conn, const Status& oldest) {
  ::close(conn.fd);
  conn.fd = -1;  // swept by RunTimers
  conn.out.clear();
  conn.in.clear();
  conn.in_len = 0;
  std::deque<std::unique_ptr<PendingCall>> calls = std::move(conn.calls);
  conn.calls.clear();
  const Clock::time_point now = Clock::now();
  for (size_t i = 0; i < calls.size(); ++i) {
    Status status = Status::Unavailable("tcp connection closed under the call");
    if (i == 0) {
      status = calls[0]->deadline <= now
                   ? Status::DeadlineExceeded("tcp call timed out")
                   : oldest;
    }
    FailAttempt(std::move(calls[i]), std::move(status));
  }
}

void SocketTransport::OnOutboundEvent(OutboundConn& conn, short revents) {
  if (conn.connecting) {
    if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      CloseOutbound(conn, Status::Unavailable("tcp connect refused"));
      return;
    }
    conn.connecting = false;
  }
  if (!conn.out.empty() && !WritePending(conn.fd, conn.out)) {
    CloseOutbound(conn, Status::Unavailable("tcp write failed"));
    return;
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) ReadReplies(conn);
}

bool SocketTransport::ReadReplies(OutboundConn& conn) {
  bool eof = false;
  for (;;) {
    // Room for the rest of the oldest frame once its header is in, so a
    // large reply (a poll's history) is received in place, in one buffer.
    size_t room = kReadChunkBytes;
    if (conn.in_len >= wire::kHeaderBytes) {
      StatusOr<wire::FrameHeader> header =
          wire::DecodeHeader(conn.in.data(), wire::kHeaderBytes);
      const size_t size =
          header.ok() ? wire::kHeaderBytes + header->payload_length : 0;
      if (size > conn.in_len) room = std::max(room, size - conn.in_len);
    }
    if (conn.in.size() < conn.in_len + room) conn.in.resize(conn.in_len + room);
    const size_t want = conn.in.size() - conn.in_len;
    const ssize_t n = ::recv(conn.fd, conn.in.data() + conn.in_len, want, 0);
    if (n > 0) {
      conn.in_len += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < want) break;  // drained for now
    } else if (n == 0) {
      eof = true;
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      CloseOutbound(conn, Status::Unavailable("tcp read failed"));
      return false;
    }
  }
  size_t used = 0;
  while (conn.in_len - used >= wire::kHeaderBytes) {
    const uint8_t* frame = conn.in.data() + used;
    StatusOr<wire::FrameHeader> header =
        wire::DecodeHeader(frame, wire::kHeaderBytes);
    if (!header.ok()) {
      CloseOutbound(conn, header.status());
      return false;
    }
    const size_t size = wire::kHeaderBytes + header->payload_length;
    if (conn.in_len - used < size) break;
    StatusOr<wire::Frame> resp = wire::DecodeFrame(frame, size);
    used += size;
    if (!resp.ok()) {
      CloseOutbound(conn, resp.status());
      return false;
    }
    if (conn.calls.empty() ||
        resp->request_id != conn.calls.front()->request_id) {
      CloseOutbound(conn,
                    Status::Corruption("tcp reply answers another request"));
      return false;
    }
    std::unique_ptr<PendingCall> call = std::move(conn.calls.front());
    conn.calls.pop_front();
    if (!conn.calls.empty()) {
      PendingCall& next = *conn.calls.front();
      next.deadline = Clock::now() + Millis(next.opts.timeout_ms);
    }
    stats_.CountFrame(resp->type, resp->wire_size());
    stats_.ObserveRtt(call->type, ElapsedUs(call->sent_at));
    FinishCall(std::move(call), std::move(resp));
  }
  std::copy(conn.in.begin() + static_cast<std::ptrdiff_t>(used),
            conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_len),
            conn.in.begin());
  conn.in_len -= used;
  if (conn.in_len == 0 && conn.in.size() > kKeptReadBufferBytes) {
    conn.in = std::vector<uint8_t>();  // frees it (`= {}` keeps capacity)
  }
  if (eof) {
    CloseOutbound(conn, Status::Unavailable("tcp read failed: peer closed"));
    return false;
  }
  if (conn.calls.empty()) conn.last_used = ++use_tick_;
  return true;
}

void SocketTransport::RunTimers() {
  const Clock::time_point now = Clock::now();
  for (const auto& conn : outbound_) {
    if (conn->fd >= 0 && !conn->calls.empty() &&
        conn->calls.front()->deadline <= now) {
      CloseOutbound(*conn, Status::Unavailable(
                               "tcp connection closed under the call"));
    }
  }
  // Due retries start in the order they failed; a retry that fails at once
  // backs off again into a fresh slot of backing_off_.
  std::vector<std::unique_ptr<PendingCall>> due;
  for (auto& call : backing_off_) {
    if (call->retry_at <= now) due.push_back(std::move(call));
  }
  std::erase(backing_off_, nullptr);
  for (auto& call : due) StartAttempt(std::move(call));
  // Close the least recently used connections with no call pending past
  // the cap, then drop every closed connection.
  for (size_t idle = idle_connections(); idle > kMaxConnections; --idle) {
    OutboundConn* lru = nullptr;
    for (const auto& conn : outbound_) {
      if (conn->fd < 0 || conn->connecting || !conn->calls.empty()) continue;
      if (lru == nullptr || conn->last_used < lru->last_used) lru = conn.get();
    }
    ::close(lru->fd);
    lru->fd = -1;
  }
  std::erase_if(outbound_, [](const auto& conn) { return conn->fd < 0; });
}

int SocketTransport::NextTimeoutMs() const {
  std::optional<Clock::time_point> next;
  const auto consider = [&next](Clock::time_point t) {
    if (!next.has_value() || t < *next) next = t;
  };
  for (const auto& conn : outbound_) {
    if (conn->fd >= 0 && !conn->calls.empty()) {
      consider(conn->calls.front()->deadline);
    }
  }
  for (const auto& call : backing_off_) consider(call->retry_at);
  if (!next.has_value()) return -1;
  const double ms = RemainingMs(*next);
  return ms <= 0.0 ? 0 : static_cast<int>(std::ceil(ms));
}

void SocketTransport::RunCompletions() {
  // Callbacks may issue calls (which may complete inline) or run this
  // again; each completion is taken off the queue before it runs.
  while (!completions_.empty()) {
    Completion next = std::move(completions_.front());
    completions_.pop_front();
    next.done(std::move(next.result));
  }
}

}  // namespace sprite::net
