#ifndef SPRITE_NET_TRANSPORT_H_
#define SPRITE_NET_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "p2p/message.h"
#include "net/wire.h"

// The Transport abstraction (DESIGN.md §14): how one SPRITE peer exchanges
// a wire::Frame with another. Two backends exist —
//
//   * SimTransport (net/sim_transport.h): the in-process simulated bus.
//     Frames are delivered as direct function calls; traffic is charged to
//     the legacy cost model so every sim bench/test stays byte-identical.
//   * SocketTransport (net/socket_transport.h): real sockets — UDP for
//     the join pair, TCP for every other frame.
//
// Unreachable peers are a normal condition, not an error: a Call to a
// departed peer times out after `CallOptions::retries` resends and surfaces
// Status::DeadlineExceeded; every attempt is counted in the per-type
// TransportStats (frames/bytes/timeouts/retries). On the sim backend that
// ledger is also the simulation's traffic cost model.
namespace sprite::net {

// Where a peer can be reached. In-process backends only need `id`; socket
// backends use host + the per-channel ports.
struct PeerAddress {
  p2p::PeerId id = 0;
  std::string host;  // empty for in-process transports
  uint16_t udp_port = 0;
  uint16_t tcp_port = 0;
};

// Per-call deadline/retry policy, populated from SpriteConfig's
// peer_timeout_ms / send_retries / retry_backoff_ms knobs.
struct CallOptions {
  // Per-attempt deadline.
  double timeout_ms = 1000.0;
  // Extra attempts after the first times out.
  size_t retries = 0;
  // Wait before retry k (1-based) is backoff_ms * 2^(k-1).
  double backoff_ms = 200.0;
};

// Per-message-type transport counters: frames/bytes actually moved (or, on
// the sim backend, charged), plus timeouts and retries, and the count of
// outbound TCP connections dialed. Mirrors into an obs registry as
// "transport.*" counters labeled by message type; Clear() erases the
// mirrored counters, preserving the repo's reset invariant.
class TransportStats {
 public:
  // `mirror_traffic` controls whether frames/bytes mirror into the
  // registry. The sim backend disables it — SimTransport mirrors its
  // charges under the historical net.* names instead, and a second copy
  // would change the dumps — while timeouts/retries always mirror when a
  // registry is attached.
  void AttachMetrics(obs::MetricsRegistry* metrics, bool mirror_traffic) {
    metrics_ = metrics;
    mirror_traffic_ = mirror_traffic;
  }

  // Books `frames` frames of `type` carrying `wire_bytes` in total.
  void CountFrame(p2p::MessageType type, size_t wire_bytes,
                  uint64_t frames = 1);
  void CountTimeout(p2p::MessageType type);
  void CountRetry(p2p::MessageType type);
  // One outbound TCP connection dialed (socket backend only). Mirrors as
  // the unlabeled "transport.dials" counter, gated on `mirror_traffic`.
  void CountDial();
  // Records one request→response round-trip wall time. Mirrors into the
  // registry as a "transport.rtt_us" histogram labeled by message type,
  // gated on `mirror_traffic` like frames/bytes: the sim backend never
  // observes RTTs, so wall time cannot leak into deterministic dumps.
  void ObserveRtt(p2p::MessageType type, double rtt_us);

  uint64_t FramesOf(p2p::MessageType t) const { return frames_[Idx(t)]; }
  uint64_t BytesOf(p2p::MessageType t) const { return bytes_[Idx(t)]; }
  uint64_t TimeoutsOf(p2p::MessageType t) const { return timeouts_[Idx(t)]; }
  uint64_t RetriesOf(p2p::MessageType t) const { return retries_[Idx(t)]; }
  uint64_t RttCountOf(p2p::MessageType t) const { return rtt_count_[Idx(t)]; }
  double RttSumUsOf(p2p::MessageType t) const { return rtt_sum_us_[Idx(t)]; }
  uint64_t dials() const { return dials_; }
  uint64_t TotalFrames() const;
  uint64_t TotalBytes() const;
  uint64_t TotalTimeouts() const;
  uint64_t TotalRetries() const;

  // Multi-line table of the non-zero frame rows plus a total, for bench
  // output.
  std::string ToString() const;

  // Resets the counters and drops every mirrored transport.* registry
  // counter, so both views stay in sync across resets.
  void Clear();

 private:
  static size_t Idx(p2p::MessageType t) { return static_cast<size_t>(t); }
  std::array<uint64_t, p2p::kNumMessageTypes> frames_{};
  std::array<uint64_t, p2p::kNumMessageTypes> bytes_{};
  std::array<uint64_t, p2p::kNumMessageTypes> timeouts_{};
  std::array<uint64_t, p2p::kNumMessageTypes> retries_{};
  std::array<uint64_t, p2p::kNumMessageTypes> rtt_count_{};
  std::array<double, p2p::kNumMessageTypes> rtt_sum_us_{};
  uint64_t dials_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  bool mirror_traffic_ = false;
};

// Abstract frame transport.
class Transport {
 public:
  using CallDone = std::function<void(StatusOr<wire::Frame>)>;

  virtual ~Transport() = default;

  // One request/response round trip: sends `request`, returns the peer's
  // reply. DeadlineExceeded when the peer stays silent through every
  // attempt; Unavailable when it is known to be gone (e.g. no route). The
  // caller blocks until then, so SocketTransport takes only the join pair
  // here (InvalidArgument for the rest, which use CallAsync).
  virtual StatusOr<wire::Frame> Call(const PeerAddress& to,
                                     const wire::Frame& request,
                                     const CallOptions& opts) = 0;

  // The same round trip without waiting: `done` receives what Call would
  // return, exactly once, possibly before CallAsync returns. The default
  // runs Call and answers inline, which keeps in-process backends
  // synchronous; SocketTransport answers from its poll loop.
  virtual void CallAsync(const PeerAddress& to, const wire::Frame& request,
                         const CallOptions& opts, CallDone done) {
    done(Call(to, request, opts));
  }

  virtual const TransportStats& stats() const = 0;
};

}  // namespace sprite::net

#endif  // SPRITE_NET_TRANSPORT_H_
