#include "net/sim_transport.h"

#include <string>
#include <string_view>
#include <utility>

namespace sprite::net {

namespace {

double BackoffMs(const CallOptions& opts, size_t retry_index) {
  double wait = opts.backoff_ms;
  for (size_t i = 0; i < retry_index; ++i) wait *= 2.0;
  return wait;
}

}  // namespace

StatusOr<wire::Frame> SimTransport::Call(const PeerAddress& to,
                                         const wire::Frame& request,
                                         const CallOptions& opts) {
  auto it = handlers_.find(to.id);
  const bool answering = it != handlers_.end() && down_.count(to.id) == 0;
  if (!answering) {
    for (size_t attempt = 0; attempt <= opts.retries; ++attempt) {
      Charge(request.type, request.wire_size());
      if (attempt < opts.retries) {
        stats_.CountRetry(request.type);
        if (advance_ms_) advance_ms_(BackoffMs(opts, attempt));
      }
    }
    stats_.CountTimeout(request.type);
    return Status::DeadlineExceeded("peer unreachable on sim bus");
  }
  Charge(request.type, request.wire_size());
  StatusOr<wire::Frame> response = it->second(request);
  if (response.ok()) Charge(response->type, response->wire_size());
  return response;
}

Status SimTransport::CostSend(p2p::PeerId to, p2p::MessageType type,
                              size_t payload_bytes, const CallOptions& opts) {
  const size_t wire_bytes = p2p::kMessageHeaderBytes + payload_bytes;
  const bool up = reachable_ ? reachable_(to) : true;
  if (up) {
    Charge(type, wire_bytes);
    return Status::OK();
  }
  for (size_t attempt = 0; attempt <= opts.retries; ++attempt) {
    Charge(type, wire_bytes);
    if (attempt < opts.retries) {
      stats_.CountRetry(type);
      if (advance_ms_) advance_ms_(BackoffMs(opts, attempt));
    }
  }
  stats_.CountTimeout(type);
  return Status::DeadlineExceeded("direct send to departed peer timed out");
}

void SimTransport::CompleteExchange(p2p::MessageType type,
                                    size_t payload_bytes) {
  Charge(type, p2p::kMessageHeaderBytes + payload_bytes);
}

void SimTransport::CostHops(int hops) {
  if (hops <= 0) return;
  const auto frames = static_cast<uint64_t>(hops);
  Charge(p2p::MessageType::kLookupHop, frames * p2p::kLookupHopBytes, frames);
}

void SimTransport::ClearStats() {
  stats_.Clear();
  if (metrics_ != nullptr) {
    metrics_->EraseByName("net.messages");
    metrics_->EraseByName("net.bytes");
  }
}

void SimTransport::Charge(p2p::MessageType type, uint64_t wire_bytes,
                          uint64_t frames) {
  stats_.CountFrame(type, wire_bytes, frames);
  const bool annotate = tracer_ != nullptr && tracer_->InActiveSpan();
  if (metrics_ == nullptr && !annotate) return;
  const std::string_view label = p2p::MessageTypeName(type);
  if (metrics_ != nullptr) {
    metrics_->Add("net.messages", label, frames);
    metrics_->Add("net.bytes", label, wire_bytes);
  }
  if (annotate) {
    const std::string prefix = "net." + std::string(label);
    tracer_->AnnotateAdd(prefix + ".msgs", frames);
    tracer_->AnnotateAdd(prefix + ".bytes", wire_bytes);
  }
}

}  // namespace sprite::net
