// SocketTransport connection lifecycle (DESIGN.md §14, Backend 2): callers
// reuse one pooled TCP connection per peer, redial once when the peer has
// closed it, and never resend on their own; the serving side keeps
// connections open in its poll set, buffers partial frames instead of
// blocking on them, drops only a connection that sent a malformed frame,
// and caps both connection sets by least-recent use.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
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
    addr.tcp_port = servers_[i]->tcp_port();
    return addr;
  }
  int served() const { return served_.load(); }

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
        client.Call(servers.address(0), Request(), Opts());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->payload, Request().payload);
  }
  EXPECT_EQ(client.stats().dials(), 1u);
  EXPECT_EQ(client.idle_connections(), 1u);
  EXPECT_EQ(client.stats().FramesOf(MessageType::kQueryRequest), 100u);
  EXPECT_EQ(client.stats().FramesOf(MessageType::kQueryResponse), 100u);
  EXPECT_EQ(servers.served(), 100);
}

TEST(SocketTransportTest, RestartedPeerIsRedialedOnceWithoutRetry) {
  SocketTransport client(1);
  uint16_t port = 0;
  {
    LoopbackServers first(1);
    port = first.address(0).tcp_port;
    ASSERT_TRUE(client.Call(first.address(0), Request(), Opts()).ok());
  }
  // The pooled connection's peer is gone; a new one binds the same port.
  LoopbackServers second(1, port);
  ASSERT_EQ(second.address(0).tcp_port, port);
  StatusOr<wire::Frame> reply =
      client.Call(second.address(0), Request(), Opts(1000.0, /*retries=*/2));
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
  StatusOr<wire::Frame> reply =
      client.Call(servers.address(0), Request(), Opts(/*timeout_ms=*/500.0));
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
  ASSERT_TRUE(client.Call(servers.address(0), Request(), Opts()).ok());
  std::vector<uint8_t> corrupt = wire::EncodeFrame(Request(9));
  corrupt.back() ^= 0xff;  // payload byte: the crc no longer matches
  const int bad = RawConnect(servers.address(0).tcp_port);
  RawSend(bad, corrupt);
  std::vector<uint8_t> out;
  EXPECT_EQ(RawRead(bad, &out), 0);  // closed without a reply
  ::close(bad);
  // The well-behaved client's pooled connection still serves.
  ASSERT_TRUE(client.Call(servers.address(0), Request(), Opts()).ok());
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
    ASSERT_TRUE(client.Call(servers.address(i), Request(), Opts()).ok());
  }
  ASSERT_TRUE(client.Call(servers.address(0), Request(), Opts()).ok());
  EXPECT_EQ(client.stats().dials(), cap);
  // A new peer overflows the pool: peer 1's idle connection is the oldest.
  ASSERT_TRUE(client.Call(servers.address(cap), Request(), Opts()).ok());
  EXPECT_EQ(client.idle_connections(), cap);
  ASSERT_TRUE(client.Call(servers.address(0), Request(), Opts()).ok());
  EXPECT_EQ(client.stats().dials(), cap + 1);
  ASSERT_TRUE(client.Call(servers.address(1), Request(), Opts()).ok());
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
  StatusOr<wire::Frame> reply = client.Call(to, Request(), Opts());
  peer.join();
  ::close(listener);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(client.idle_connections(), 0u);
}

}  // namespace
}  // namespace sprite::net
