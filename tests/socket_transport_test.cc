// SocketTransport connection lifecycle (DESIGN.md §14, Backend 2): callers
// keep one TCP connection per peer, pipeline calls on it in issue order,
// redial once when the peer has closed it, and resend only as their retry
// policy says, from the poll loop's timer; the serving side keeps
// connections open in its poll set, buffers partial frames instead of
// blocking on them, drops only a connection that sent a malformed frame,
// and caps both connection sets by least-recent use.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/socket_transport.h"
#include "net/wire.h"

namespace sprite::net {
namespace {

using p2p::MessageType;

// SocketTransports serving on loopback, all polled by one thread. Each
// answers a frame by echoing its payload in a QueryResponse.
class LoopbackServers {
 public:
  // `tcp_port` != 0 binds the first server there (the rest stay
  // ephemeral).
  explicit LoopbackServers(size_t count, uint16_t tcp_port = 0) {
    for (size_t i = 0; i < count; ++i) {
      auto server = std::make_unique<SocketTransport>(1000 + i);
      server->set_handler(
          [this](const wire::Frame& request) -> StatusOr<wire::Frame> {
            served_.fetch_add(1);
            {
              std::lock_guard<std::mutex> lock(mu_);
              payloads_.push_back(request.payload);
            }
            wire::Frame reply = request;
            reply.type = MessageType::kQueryResponse;
            return reply;
          });
      SocketTransport::Options options;
      options.tcp_port = i == 0 ? tcp_port : 0;
      const Status bound = server->Bind(options);
      EXPECT_TRUE(bound.ok()) << bound.ToString();
      servers_.push_back(std::move(server));
    }
    thread_ = std::thread([this] { Serve(); });
  }
  ~LoopbackServers() { Stop(); }

  LoopbackServers(const LoopbackServers&) = delete;
  LoopbackServers& operator=(const LoopbackServers&) = delete;

  // Stops polling and closes every server socket and connection.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    for (auto& server : servers_) server->Close();
  }

  PeerAddress address(size_t i) const {
    PeerAddress addr;
    addr.id = 1000 + i;
    addr.host = "127.0.0.1";
    addr.udp_port = servers_[i]->udp_port();
    addr.tcp_port = servers_[i]->tcp_port();
    return addr;
  }
  int served() const { return served_.load(); }
  // Payloads of every request served, in the order they were served.
  std::vector<std::vector<uint8_t>> payloads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return payloads_;
  }

 private:
  void Serve() {
    std::vector<pollfd> fds;
    std::vector<size_t> first;
    while (!stop_.load()) {
      fds.clear();
      first.clear();
      for (const auto& server : servers_) {
        first.push_back(fds.size());
        server->AppendPollFds(&fds);
      }
      first.push_back(fds.size());
      if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
      for (size_t i = 0; i < servers_.size(); ++i) {
        servers_[i]->OnPollEvents(fds.data() + first[i],
                                  first[i + 1] - first[i]);
      }
    }
  }

  std::vector<std::unique_ptr<SocketTransport>> servers_;
  std::atomic<int> served_{0};
  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> payloads_;  // guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

wire::Frame Request(uint64_t request_id = 0) {
  wire::Frame frame;
  frame.type = MessageType::kQueryRequest;
  frame.request_id = request_id;
  frame.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  return frame;
}

CallOptions Opts(double timeout_ms = 1000.0, size_t retries = 0) {
  CallOptions opts;
  opts.timeout_ms = timeout_ms;
  opts.retries = retries;
  opts.backoff_ms = 10.0;
  return opts;
}

// Polls `transport`'s sockets until `done()` or 5 s pass.
template <typename Done>
void PollUntil(SocketTransport& transport, Done done) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<pollfd> fds;
  while (!done() && std::chrono::steady_clock::now() < until) {
    fds.clear();
    transport.AppendPollFds(&fds);
    const int due = transport.NextTimeoutMs();
    ::poll(fds.data(), fds.size(), due < 0 || due > 10 ? 10 : due);
    transport.OnPollEvents(fds.data(), fds.size());
  }
}

// One call through CallAsync, driven to its end by polling the caller's
// sockets.
StatusOr<wire::Frame> CallNow(SocketTransport& client, const PeerAddress& to,
                              const wire::Frame& request,
                              const CallOptions& opts) {
  std::optional<StatusOr<wire::Frame>> result;
  client.CallAsync(to, request, opts, [&result](StatusOr<wire::Frame> reply) {
    result = std::move(reply);
  });
  PollUntil(client, [&result] { return result.has_value(); });
  return result.value_or(Status::Internal("call still pending"));
}

// A raw blocking loopback TCP connection to `port`.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void RawSend(int fd, const std::vector<uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

// Waits up to 2 s for `fd` to turn readable and reads it: the byte count,
// 0 on EOF, -1 when nothing arrived.
ssize_t RawRead(int fd, std::vector<uint8_t>* out) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, 2000) != 1) return -1;
  out->resize(64 * 1024);
  const ssize_t n = ::recv(fd, out->data(), out->size(), 0);
  out->resize(n > 0 ? static_cast<size_t>(n) : 0);
  return n;
}

// One request/reply exchange on a raw connection.
bool RawRoundTrip(int fd, uint64_t request_id) {
  RawSend(fd, wire::EncodeFrame(Request(request_id)));
  std::vector<uint8_t> reply;
  if (RawRead(fd, &reply) <= 0) return false;
  StatusOr<wire::Frame> frame = wire::DecodeFrame(reply);
  return frame.ok() && frame->request_id == request_id;
}

TEST(SocketTransportTest, HundredCallsToOnePeerDialOnce) {
  LoopbackServers servers(1);
  SocketTransport client(1);
  for (int i = 0; i < 100; ++i) {
    StatusOr<wire::Frame> reply =
        CallNow(client, servers.address(0), Request(), Opts());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->payload, Request().payload);
  }
  EXPECT_EQ(client.stats().dials(), 1u);
  EXPECT_EQ(client.idle_connections(), 1u);
  EXPECT_EQ(client.stats().FramesOf(MessageType::kQueryRequest), 100u);
  EXPECT_EQ(client.stats().FramesOf(MessageType::kQueryResponse), 100u);
  EXPECT_EQ(servers.served(), 100);
}

TEST(SocketTransportTest, BlockingCallTakesUdpControlFramesOnly) {
  LoopbackServers servers(1);
  SocketTransport client(1);
  StatusOr<wire::Frame> reply =
      client.Call(servers.address(0), Request(), Opts());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.stats().TotalFrames(), 0u);  // nothing was sent
  wire::Frame join = Request();
  join.type = MessageType::kJoinRequest;
  reply = client.Call(servers.address(0), join, Opts());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->payload, join.payload);
  EXPECT_EQ(client.stats().dials(), 0u);
  EXPECT_EQ(servers.served(), 1);
}

TEST(SocketTransportTest, RestartedPeerIsRedialedOnceWithoutRetry) {
  SocketTransport client(1);
  uint16_t port = 0;
  {
    LoopbackServers first(1);
    port = first.address(0).tcp_port;
    ASSERT_TRUE(CallNow(client, first.address(0), Request(), Opts()).ok());
  }
  // The pooled connection's peer is gone; a new one binds the same port.
  LoopbackServers second(1, port);
  ASSERT_EQ(second.address(0).tcp_port, port);
  StatusOr<wire::Frame> reply = CallNow(client, second.address(0), Request(),
                                        Opts(1000.0, /*retries=*/2));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(client.stats().dials(), 2u);
  EXPECT_EQ(client.stats().TotalRetries(), 0u);
  EXPECT_EQ(second.served(), 1);
}

TEST(SocketTransportTest, StalledHalfFrameDoesNotDelayOtherCalls) {
  LoopbackServers servers(1);
  const std::vector<uint8_t> frame = wire::EncodeFrame(Request(7));
  const int stalled = RawConnect(servers.address(0).tcp_port);
  RawSend(stalled,
          std::vector<uint8_t>(frame.begin(), frame.begin() + frame.size() / 2));
  // Let the server take the half frame before the other client calls.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SocketTransport client(1);
  StatusOr<wire::Frame> reply = CallNow(client, servers.address(0), Request(),
                                        Opts(/*timeout_ms=*/500.0));
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(servers.served(), 1);
  // The stalled client finishes its frame and is answered.
  RawSend(stalled,
          std::vector<uint8_t>(frame.begin() + frame.size() / 2, frame.end()));
  std::vector<uint8_t> out;
  EXPECT_GT(RawRead(stalled, &out), 0);
  ::close(stalled);
}

TEST(SocketTransportTest, BadCrcClosesOnlyThatConnection) {
  LoopbackServers servers(1);
  SocketTransport client(1);
  ASSERT_TRUE(CallNow(client, servers.address(0), Request(), Opts()).ok());
  std::vector<uint8_t> corrupt = wire::EncodeFrame(Request(9));
  corrupt.back() ^= 0xff;  // payload byte: the crc no longer matches
  const int bad = RawConnect(servers.address(0).tcp_port);
  RawSend(bad, corrupt);
  std::vector<uint8_t> out;
  EXPECT_EQ(RawRead(bad, &out), 0);  // closed without a reply
  ::close(bad);
  // The well-behaved client's pooled connection still serves.
  ASSERT_TRUE(CallNow(client, servers.address(0), Request(), Opts()).ok());
  EXPECT_EQ(client.stats().dials(), 1u);
  EXPECT_EQ(servers.served(), 2);
}

TEST(SocketTransportTest, InboundCapClosesLeastRecentlyUsedConnection) {
  LoopbackServers servers(1);
  const uint16_t port = servers.address(0).tcp_port;
  const int a = RawConnect(port);
  ASSERT_TRUE(RawRoundTrip(a, 1));
  const int b = RawConnect(port);
  ASSERT_TRUE(RawRoundTrip(b, 2));
  ASSERT_TRUE(RawRoundTrip(a, 3));  // a is now more recent than b
  // Enough more connections that the last one overflows the cap by one.
  std::vector<int> rest;
  for (size_t i = 2; i <= SocketTransport::kMaxConnections; ++i) {
    rest.push_back(RawConnect(port));
  }
  // The last connection's round trip orders its accept before the checks.
  ASSERT_TRUE(RawRoundTrip(rest.back(), 4));
  std::vector<uint8_t> out;
  EXPECT_EQ(RawRead(b, &out), 0);  // evicted
  EXPECT_TRUE(RawRoundTrip(a, 5));
  EXPECT_TRUE(RawRoundTrip(rest.front(), 6));
  for (const int fd : rest) ::close(fd);
  ::close(a);
  ::close(b);
}

TEST(SocketTransportTest, IdleCapClosesLeastRecentlyUsedConnection) {
  const size_t cap = SocketTransport::kMaxConnections;
  LoopbackServers servers(cap + 1);
  SocketTransport client(1);
  for (size_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(CallNow(client, servers.address(i), Request(), Opts()).ok());
  }
  ASSERT_TRUE(CallNow(client, servers.address(0), Request(), Opts()).ok());
  EXPECT_EQ(client.stats().dials(), cap);
  // A new peer overflows the pool: peer 1's idle connection is the oldest.
  ASSERT_TRUE(CallNow(client, servers.address(cap), Request(), Opts()).ok());
  EXPECT_EQ(client.idle_connections(), cap);
  ASSERT_TRUE(CallNow(client, servers.address(0), Request(), Opts()).ok());
  EXPECT_EQ(client.stats().dials(), cap + 1);
  ASSERT_TRUE(CallNow(client, servers.address(1), Request(), Opts()).ok());
  EXPECT_EQ(client.stats().dials(), cap + 2);
}

TEST(SocketTransportTest, ReplyToAnotherRequestFailsTheCall) {
  // A raw peer that answers with another request's id: the call must not
  // accept the reply, and the connection is closed, not pooled.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    std::vector<uint8_t> buf;
    RawRead(fd, &buf);
    StatusOr<wire::Frame> request = wire::DecodeFrame(buf);
    RawSend(fd, wire::EncodeFrame(
                    Request(request.ok() ? request->request_id + 1 : 1)));
    RawRead(fd, &buf);  // returns once the caller closes
    ::close(fd);
  });
  SocketTransport client(1);
  PeerAddress to;
  to.host = "127.0.0.1";
  to.tcp_port = ntohs(addr.sin_port);
  StatusOr<wire::Frame> reply = CallNow(client, to, Request(), Opts());
  peer.join();
  ::close(listener);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(client.idle_connections(), 0u);
}

// A TCP listener that completes handshakes but never accepts, reads or
// answers.
class SilentPeer {
 public:
  SilentPeer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    addr_.sin_family = AF_INET;
    addr_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr_);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr_), len), 0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr_), &len),
              0);
  }
  ~SilentPeer() { ::close(fd_); }
  SilentPeer(const SilentPeer&) = delete;
  SilentPeer& operator=(const SilentPeer&) = delete;

  int fd() const { return fd_; }
  PeerAddress address() const {
    PeerAddress to;
    to.id = 77;
    to.host = "127.0.0.1";
    to.tcp_port = ntohs(addr_.sin_port);
    return to;
  }

 private:
  int fd_ = -1;
  sockaddr_in addr_{};
};

TEST(SocketTransportTest, FiftyAsyncCallsDialOnceAndAnswerInIssueOrder) {
  LoopbackServers servers(1);
  SocketTransport client(1);
  std::vector<uint8_t> answered;
  for (uint8_t i = 0; i < 50; ++i) {
    wire::Frame request = Request();
    request.payload = {i};
    client.CallAsync(servers.address(0), request, Opts(),
                     [&answered, i](StatusOr<wire::Frame> reply) {
                       EXPECT_TRUE(reply.ok()) << reply.status().ToString();
                       EXPECT_EQ(reply.ok() ? reply->payload
                                            : std::vector<uint8_t>{},
                                 std::vector<uint8_t>{i});
                       answered.push_back(i);
                     });
  }
  EXPECT_TRUE(answered.empty());  // nothing blocked waiting on the peer
  PollUntil(client, [&] { return answered.size() >= 50; });
  std::vector<uint8_t> in_order(50);
  for (uint8_t i = 0; i < 50; ++i) in_order[i] = i;
  EXPECT_EQ(answered, in_order);  // each exactly once, in issue order
  EXPECT_EQ(client.stats().dials(), 1u);
  EXPECT_EQ(client.idle_connections(), 1u);
  std::vector<std::vector<uint8_t>> seen = servers.payloads();
  ASSERT_EQ(seen.size(), 50u);
  for (uint8_t i = 0; i < 50; ++i) {
    EXPECT_EQ(seen[i], std::vector<uint8_t>{i}) << "server order";
  }
}

TEST(SocketTransportTest, SilentPeerTimesOutWhileTheLoopServes) {
  SilentPeer silent;
  // The caller is also a server, like a daemon.
  SocketTransport node(1);
  node.set_handler([](const wire::Frame& request) -> StatusOr<wire::Frame> {
    wire::Frame reply = request;
    reply.type = MessageType::kQueryResponse;
    return reply;
  });
  ASSERT_TRUE(node.Bind(SocketTransport::Options{}).ok());
  const auto start = std::chrono::steady_clock::now();
  std::optional<Status> failed;
  double failed_ms = 0;
  node.CallAsync(silent.address(), Request(), Opts(/*timeout_ms=*/300.0),
                 [&](StatusOr<wire::Frame> reply) {
                   failed = reply.status();
                   failed_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
                 });
  // Another client's round trip is served while the call waits.
  std::atomic<double> served_ms{-1};
  std::thread other([&] {
    const int fd = RawConnect(node.tcp_port());
    if (RawRoundTrip(fd, 5)) {
      served_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    }
    ::close(fd);
  });
  PollUntil(node, [&] { return failed.has_value() && served_ms >= 0; });
  other.join();
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->code(), StatusCode::kDeadlineExceeded)
      << failed->ToString();
  EXPECT_GE(failed_ms, 300.0);
  EXPECT_LT(failed_ms, 1000.0);
  EXPECT_GE(served_ms.load(), 0.0);
  EXPECT_LT(served_ms.load(), 300.0);
  EXPECT_EQ(node.stats().TimeoutsOf(MessageType::kQueryRequest), 1u);
  EXPECT_EQ(node.idle_connections(), 0u);  // the timed-out one was closed
}

TEST(SocketTransportTest, RetrySendsTheCallAgainAfterTheBackoff) {
  SilentPeer peer;
  // The peer ignores its first connection's request and answers the
  // resent one on the second connection.
  std::thread serve([&peer] {
    const int first = ::accept(peer.fd(), nullptr, nullptr);
    std::vector<uint8_t> buf;
    RawRead(first, &buf);
    const int second = ::accept(peer.fd(), nullptr, nullptr);
    RawRead(second, &buf);
    StatusOr<wire::Frame> request = wire::DecodeFrame(buf);
    wire::Frame reply = Request(request.ok() ? request->request_id : 0);
    reply.type = MessageType::kQueryResponse;
    RawSend(second, wire::EncodeFrame(reply));
    RawRead(second, &buf);  // returns once the caller closes
    ::close(first);
    ::close(second);
  });
  SocketTransport client(1);
  CallOptions opts = Opts(/*timeout_ms=*/200.0, /*retries=*/1);
  opts.backoff_ms = 100.0;
  const auto start = std::chrono::steady_clock::now();
  StatusOr<wire::Frame> reply =
      CallNow(client, peer.address(), Request(), opts);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  client.Close();
  serve.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GE(ms, 300.0);  // one timeout, then one backoff
  EXPECT_EQ(client.stats().TotalRetries(), 1u);
  EXPECT_EQ(client.stats().TotalTimeouts(), 0u);
  EXPECT_EQ(client.stats().dials(), 2u);
  EXPECT_EQ(client.stats().FramesOf(MessageType::kQueryRequest), 2u);
}

}  // namespace
}  // namespace sprite::net
