#ifndef SPRITE_NET_SOCKET_TRANSPORT_H_
#define SPRITE_NET_SOCKET_TRANSPORT_H_

#include <netinet/in.h>
#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace sprite::net {

// Real-socket Transport over loopback/LAN IPv4:
//
//   * UDP carries DHT routing and membership control (join, lookup,
//     heartbeat, advisory) — small datagrams, request/response matched by
//     request_id, resent with exponential backoff on silence.
//   * TCP carries bulk transfer (publish, withdraw, query, poll,
//     replicate, key transfer, cache push, version check) as
//     length-prefixed frame exchanges over long-lived connections.
//
// TCP connection lifecycle. Call() keeps at most one idle connection per
// peer host:tcp_port. Before reusing it, a zero-timeout poll checks that
// the peer has not closed it; if it has, Call() dials a new one (counted
// in TransportStats::dials()). A request is written once per attempt:
// a failure after the write is that attempt's failure, and only
// CallOptions::retries governs further attempts. The reply must carry the
// request's request_id. A connection that failed or timed out is closed,
// never pooled. On the serving side every accepted connection stays open
// with its own non-blocking read and write buffers; each complete frame is
// checked (DecodeHeader, then DecodeFrame: length cap and crc) and
// answered on the same connection. The server closes a connection on EOF,
// on a malformed frame, when the handler returns an error, or when a write
// fails. A half-sent frame or an unread reply therefore waits in its
// buffer instead of stalling the loop. Both the idle outbound pool and the
// inbound set hold at most kMaxConnections; past that the least recently
// used connection is closed. TCP_NODELAY is set on both ends.
//
// The transport does not own an event loop. The owner (sprite_daemon, or a
// test) polls the descriptors AppendPollFds() lists and hands the results
// to OnPollEvents(), which drains datagrams, accepts connections and
// serves buffered frames; inbound requests are dispatched to the
// registered handler. Client calls block the calling thread until a reply
// or the deadline.
class SocketTransport : public Transport {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t udp_port = 0;  // 0 = ephemeral
    uint16_t tcp_port = 0;  // 0 = ephemeral
  };

  using Handler = std::function<StatusOr<wire::Frame>(const wire::Frame&)>;

  // Cap on idle outbound connections, and separately on inbound ones.
  static constexpr size_t kMaxConnections = 64;

  explicit SocketTransport(p2p::PeerId self) : self_(self) {}
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Opens and binds the UDP socket and the TCP listener. Ephemeral ports
  // are resolved immediately; read them back via udp_port()/tcp_port().
  Status Bind(const Options& options);
  // Closes the listeners and every inbound and idle outbound connection.
  void Close();

  uint16_t udp_port() const { return udp_port_; }
  uint16_t tcp_port() const { return tcp_port_; }
  size_t idle_connections() const { return idle_.size(); }

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  // Wires live tracing (DESIGN.md §16). With a tracer attached and enabled,
  // Call() runs under a "net.call" span whose context is stamped into the
  // outbound frame (kFlagTraced + header bytes 40-47), and inbound traced
  // requests are served under an adopted "serve.<type>" span so the caller's
  // trace stitches across daemons. `peer_name` labels this node's spans.
  void set_tracer(obs::Tracer* tracer, std::string peer_name) {
    tracer_ = tracer;
    trace_peer_ = std::move(peer_name);
  }

  // Appends one entry per socket to watch: the UDP socket, the TCP
  // listener, then every inbound connection. Pass the polled entries, in
  // the same order and with nothing polled in between, to OnPollEvents(),
  // which drains datagrams, serves ready connections and accepts new ones.
  // The reply frame's src/dst/request_id are stamped from the request, so
  // handlers only fill type, flags and payload.
  void AppendPollFds(std::vector<pollfd>* fds) const;
  void OnPollEvents(const pollfd* fds, size_t count);

  StatusOr<wire::Frame> Call(const PeerAddress& to, const wire::Frame& request,
                             const CallOptions& opts) override;
  const TransportStats& stats() const override { return stats_; }
  TransportStats& mutable_stats() { return stats_; }

  // Channel selection: routing/membership control rides UDP, bulk rides
  // TCP.
  static bool UsesUdp(p2p::MessageType type);

 private:
  // An outbound connection parked between calls, keyed by the peer's
  // IPv4 address and TCP port.
  struct IdleConn {
    uint64_t peer = 0;
    int fd = -1;
    uint64_t last_used = 0;
  };
  // An accepted connection: bytes read but not yet served, and the reply
  // not yet written.
  struct InboundConn {
    int fd = -1;
    uint64_t last_used = 0;
    std::vector<uint8_t> in;
    std::vector<uint8_t> out;
  };

  StatusOr<wire::Frame> CallUdp(const PeerAddress& to,
                                const wire::Frame& request,
                                const CallOptions& opts);
  StatusOr<wire::Frame> CallTcp(const PeerAddress& to,
                                const wire::Frame& request,
                                const CallOptions& opts);
  // An open connection to `addr`: the pooled one if the peer has not
  // closed it, else a fresh dial. The caller owns the fd until it hands it
  // back through ReleaseConnection() or closes it.
  StatusOr<int> TakeConnection(const sockaddr_in& addr,
                               std::chrono::steady_clock::time_point deadline);
  void ReleaseConnection(const sockaddr_in& addr, int fd);

  // Server side: drains pending datagrams; accepts pending connections;
  // reads, serves and writes on one inbound connection (false when it
  // must be closed).
  void OnUdpReadable();
  void AcceptConnections();
  bool ServeConnection(InboundConn& conn, short revents);
  // Dispatches one inbound request to the handler, under an adopted span
  // when the frame carries trace context.
  StatusOr<wire::Frame> Serve(const wire::Frame& request);

  p2p::PeerId self_ = 0;
  int udp_fd_ = -1;
  int tcp_listen_fd_ = -1;
  uint16_t udp_port_ = 0;
  uint16_t tcp_port_ = 0;
  Handler handler_;
  TransportStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::string trace_peer_;
  uint64_t next_request_id_ = 1;
  std::vector<IdleConn> idle_;
  std::vector<InboundConn> inbound_;
  uint64_t use_tick_ = 0;  // LRU clock for both connection sets
};

}  // namespace sprite::net

#endif  // SPRITE_NET_SOCKET_TRANSPORT_H_
