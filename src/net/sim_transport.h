#ifndef SPRITE_NET_SIM_TRANSPORT_H_
#define SPRITE_NET_SIM_TRANSPORT_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sprite::net {

// The in-process simulated bus. It serves two roles:
//
//  1. A frame-level Transport: peers register a handler and Call
//     delivers encoded wire::Frames as direct function calls. Used by the
//     in-process cluster tests, where real encode/decode runs without
//     sockets.
//
//  2. The cost-model seam for SpriteSystem: the simulation never encodes
//     its hot-path traffic (posting-list fetches are zero-copy snapshots),
//     so direct sends go through CostSend/BeginExchange/CompleteExchange
//     and routing hops through CostHops. Each charges the header+payload
//     estimate of p2p/message.h — byte-for-byte what the pre-transport
//     code charged — while surfacing typed unreachable-peer statuses and
//     honoring the retry/backoff knobs.
//
// stats() is the simulation's one traffic ledger. Every charge is booked
// there once and mirrored, when a registry/tracer is configured, as the
// "net.messages"/"net.bytes" counters labeled by message type and as
// "net.<Type>.msgs"/"net.<Type>.bytes" annotations on the innermost open
// span.
//
// The request leg of a send is always charged, reachable or not: the bytes
// leave the sender either way, and only then does the peer's silence turn
// into a timeout. With the default CallOptions (retries = 0) an
// unreachable peer therefore costs exactly one request and no response —
// precisely the accounting the simulation has always used for a dead
// peer's version-check probe.
//
// Single-threaded by design: the parallel epoch engine only touches the
// bus from its serialized commit phase.
class SimTransport : public Transport {
 public:
  using Handler = std::function<StatusOr<wire::Frame>(const wire::Frame&)>;

  // --- Frame-level registry ---------------------------------------------
  void Register(p2p::PeerId id, Handler handler) {
    handlers_[id] = std::move(handler);
    down_.erase(id);
  }
  // Simulates a partition/crash: the peer stays registered but stops
  // answering, so senders observe timeouts instead of instant failures.
  void SetDown(p2p::PeerId id, bool down) {
    if (down) {
      down_.insert(id);
    } else {
      down_.erase(id);
    }
  }

  StatusOr<wire::Frame> Call(const PeerAddress& to, const wire::Frame& request,
                             const CallOptions& opts) override;
  const TransportStats& stats() const override { return stats_; }
  TransportStats& mutable_stats() { return stats_; }

  // --- Cost-model seam ---------------------------------------------------
  // `metrics`/`tracer` receive the net.* mirrors of every charge;
  // `reachable` answers peer liveness; `advance_ms` advances the simulated
  // clock during retry backoff waits. All must outlive this transport.
  // Pass nullptrs/empty to detach.
  void ConfigureCostModel(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                          std::function<bool(p2p::PeerId)> reachable,
                          std::function<void(double)> advance_ms) {
    metrics_ = metrics;
    tracer_ = tracer;
    reachable_ = std::move(reachable);
    advance_ms_ = std::move(advance_ms);
  }

  // One-way direct send under the cost model. Charges one request per
  // attempt; between attempts advances the sim clock by the exponential
  // backoff wait. Returns DeadlineExceeded when `to` stays unreachable
  // through every attempt.
  Status CostSend(p2p::PeerId to, p2p::MessageType type, size_t payload_bytes,
                  const CallOptions& opts);

  // Request leg of a request/response exchange; same semantics as
  // CostSend.
  Status BeginExchange(p2p::PeerId to, p2p::MessageType type,
                       size_t payload_bytes, const CallOptions& opts) {
    return CostSend(to, type, payload_bytes, opts);
  }

  // Response leg; call only after BeginExchange returned OK.
  void CompleteExchange(p2p::MessageType type, size_t payload_bytes);

  // Charges `hops` Chord routing hops, one kLookupHopBytes LookupHop frame
  // each. Zero or negative hops charge nothing.
  void CostHops(int hops);

  // Resets the ledger and erases its net.* and transport.* mirrors, so
  // every view returns to zero together (DESIGN.md §8).
  void ClearStats();

 private:
  // Books `frames` frames of `type`, `wire_bytes` in total, and mirrors
  // them as net.* counters and span annotations.
  void Charge(p2p::MessageType type, uint64_t wire_bytes, uint64_t frames = 1);

  std::unordered_map<p2p::PeerId, Handler> handlers_;
  std::unordered_set<p2p::PeerId> down_;
  TransportStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::function<bool(p2p::PeerId)> reachable_;
  std::function<void(double)> advance_ms_;
};

}  // namespace sprite::net

#endif  // SPRITE_NET_SIM_TRANSPORT_H_
