#ifndef SPRITE_NET_SOCKET_TRANSPORT_H_
#define SPRITE_NET_SOCKET_TRANSPORT_H_

#include <netinet/in.h>
#include <poll.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace sprite::net {

// Real-socket Transport over loopback/LAN IPv4:
//
//   * UDP carries membership control (the join pair) — small datagrams,
//     request/response matched by request_id, resent with exponential
//     backoff on silence. A UDP call blocks the caller until its reply or
//     deadline; the blocking Call() carries these only (daemon join,
//     `sprite_cli join`).
//   * TCP carries every other frame (publish, withdraw, query, poll) as
//     length-prefixed frame exchanges over long-lived connections.
//
// The TCP client never blocks. It keeps one outbound connection per peer
// host:tcp_port in the owner's poll set, each with a write buffer, a read
// buffer and a FIFO of the calls it carries, so calls to one peer are
// pipelined and leave in issue order. A dial is non-blocking and counted
// in TransportStats::dials(). Before a connection with no call pending
// carries a new one, a zero-timeout poll checks that the peer has not
// closed it; if it has, the client dials again. A request is written once
// per attempt: a failure after the write fails that attempt, and only
// CallOptions::retries governs further attempts, each sent after its
// backoff from the poll loop's timer, never by sleeping. A reply must
// carry the request_id of the oldest call on its connection; anything
// else fails that call with kCorruption and closes the connection. A
// call's deadline runs from when it becomes the oldest on its connection,
// so pipelined calls do not spend their time waiting behind each other.
// When it passes the connection is closed: the expired call fails with
// DeadlineExceeded (a counted timeout once no retry remains), and every
// other call on the connection fails its attempt with Unavailable.
// Connections with no call pending are capped at kMaxConnections, closing
// the least recently used.
//
// On the serving side every accepted connection stays open with its own
// non-blocking read and write buffers; each complete frame is checked
// (DecodeHeader, then DecodeFrame: length cap and crc) and answered on the
// same connection. The server closes a connection on EOF, on a malformed
// frame, when the handler returns an error, or when a write fails. A
// half-sent frame or an unread reply therefore waits in its buffer instead
// of stalling the loop. Inbound connections are capped at kMaxConnections
// the same way. TCP_NODELAY is set on both ends.
//
// The transport does not own an event loop. The owner (sprite_daemon, or a
// test) polls the descriptors AppendPollFds() lists, with a timeout no
// later than NextTimeoutMs(), and hands the results to OnPollEvents(),
// which drains datagrams, accepts connections, serves buffered frames,
// advances outbound calls and fires their timers; inbound requests are
// dispatched to the registered handler. TCP calls go out only through
// CallAsync(); Call() rejects a TCP message type with InvalidArgument.
class SocketTransport : public Transport {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t udp_port = 0;  // 0 = ephemeral
    uint16_t tcp_port = 0;  // 0 = ephemeral
  };

  using Handler = std::function<StatusOr<wire::Frame>(const wire::Frame&)>;

  // Cap on outbound connections with no call pending, and separately on
  // inbound ones.
  static constexpr size_t kMaxConnections = 64;

  explicit SocketTransport(p2p::PeerId self) : self_(self) {}
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Opens and binds the UDP socket and the TCP listener. Ephemeral ports
  // are resolved immediately; read them back via udp_port()/tcp_port().
  Status Bind(const Options& options);
  // Closes the listeners and every connection. Calls still pending are
  // dropped without being answered.
  void Close();

  uint16_t udp_port() const { return udp_port_; }
  uint16_t tcp_port() const { return tcp_port_; }
  // Outbound connections open with no call pending.
  size_t idle_connections() const;

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  // Wires live tracing (DESIGN.md §16). With a tracer attached and enabled,
  // each call runs under a "net.call" span opened under the trace context
  // the outbound frame carries (a new trace when it carries none); the
  // frame is re-stamped with that span (kFlagTraced + header bytes 40-47),
  // and inbound traced requests are served under a "serve.<type>" span
  // whose parent is the frame's context, so the caller's trace stitches
  // across daemons.
  // `peer_name` labels this node's spans.
  void set_tracer(obs::Tracer* tracer, std::string peer_name) {
    tracer_ = tracer;
    trace_peer_ = std::move(peer_name);
  }

  // Appends one entry per socket to watch: the UDP socket, the TCP
  // listener, every inbound connection, then every outbound one. Pass the
  // polled entries, in the same order and with nothing polled in between,
  // to OnPollEvents(), also when poll timed out: it drains datagrams,
  // serves ready connections, accepts new ones, advances outbound calls,
  // then expires due deadlines and sends due retries. The reply frame's
  // src/dst/request_id are stamped from the request, so handlers only fill
  // type, flags and payload.
  void AppendPollFds(std::vector<pollfd>* fds) const;
  void OnPollEvents(const pollfd* fds, size_t count);
  // Milliseconds until the earliest call deadline or retry (0 when one is
  // due), or -1 when no call waits on a timer.
  int NextTimeoutMs() const;

  StatusOr<wire::Frame> Call(const PeerAddress& to, const wire::Frame& request,
                             const CallOptions& opts) override;
  void CallAsync(const PeerAddress& to, const wire::Frame& request,
                 const CallOptions& opts, CallDone done) override;
  const TransportStats& stats() const override { return stats_; }
  TransportStats& mutable_stats() { return stats_; }

  // Channel selection: the join pair rides UDP, everything else TCP.
  static bool UsesUdp(p2p::MessageType type);

 private:
  using Clock = std::chrono::steady_clock;

  // One TCP call across its attempts.
  struct PendingCall {
    sockaddr_in addr{};
    p2p::MessageType type = p2p::MessageType::kQueryRequest;
    uint64_t request_id = 0;
    std::vector<uint8_t> bytes;  // the encoded request, resent as is
    CallOptions opts;
    size_t attempt = 0;
    Clock::time_point sent_at{};
    Clock::time_point deadline{};  // set once oldest on its connection
    Clock::time_point retry_at{};  // of the next attempt, while backing off
    obs::TraceContext span;
    CallDone done;
  };
  // An outbound connection, keyed by the peer's IPv4 address and TCP port:
  // bytes not yet written, reply bytes not yet parsed, and the calls it
  // carries, oldest first.
  struct OutboundConn {
    uint64_t peer = 0;
    int fd = -1;  // -1 once closed, until the next sweep
    bool connecting = false;
    uint64_t last_used = 0;
    std::vector<uint8_t> out;
    // Replies are received in place: the first `in_len` bytes of `in` are
    // data, and `in` is grown to hold a whole frame once its header is in.
    std::vector<uint8_t> in;
    size_t in_len = 0;
    std::deque<std::unique_ptr<PendingCall>> calls;
  };
  // An accepted connection: bytes read but not yet served, and the reply
  // not yet written.
  struct InboundConn {
    int fd = -1;
    uint64_t last_used = 0;
    std::vector<uint8_t> in;
    std::vector<uint8_t> out;
  };
  // A finished call and what its callback receives.
  struct Completion {
    CallDone done;
    StatusOr<wire::Frame> result;
  };

  StatusOr<wire::Frame> CallUdp(const PeerAddress& to,
                                const wire::Frame& request,
                                const CallOptions& opts);

  // Client side. Starting an attempt, failing one and finishing a call
  // never run a callback: finished calls queue in completions_, which
  // RunCompletions() drains once the connection state is consistent.
  void StartAttempt(std::unique_ptr<PendingCall> call);
  void FailAttempt(std::unique_ptr<PendingCall> call, Status status);
  void FinishCall(std::unique_ptr<PendingCall> call,
                  StatusOr<wire::Frame> result);
  // Closes `conn`: the oldest call fails with DeadlineExceeded when its
  // deadline passed, else with `oldest`; the rest with Unavailable.
  void CloseOutbound(OutboundConn& conn, const Status& oldest);
  void OnOutboundEvent(OutboundConn& conn, short revents);
  // Parses complete replies off `conn.in`; false once `conn` was closed.
  bool ReadReplies(OutboundConn& conn);
  // Expires due deadlines, starts due retries, closes surplus idle
  // connections and drops closed ones from outbound_.
  void RunTimers();
  void RunCompletions();

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
  std::vector<std::unique_ptr<OutboundConn>> outbound_;
  std::vector<std::unique_ptr<PendingCall>> backing_off_;
  std::deque<Completion> completions_;
  std::vector<InboundConn> inbound_;
  uint64_t use_tick_ = 0;  // LRU clock for both connection sets
};

}  // namespace sprite::net

#endif  // SPRITE_NET_SOCKET_TRANSPORT_H_
