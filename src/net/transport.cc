#include "net/transport.h"

#include <numeric>

#include "common/string_util.h"

namespace sprite::net {

void TransportStats::CountFrame(p2p::MessageType type, size_t wire_bytes,
                                uint64_t frames) {
  frames_[Idx(type)] += frames;
  bytes_[Idx(type)] += wire_bytes;
  if (metrics_ != nullptr && mirror_traffic_) {
    metrics_->Add("transport.frames", p2p::MessageTypeName(type), frames);
    metrics_->Add("transport.bytes", p2p::MessageTypeName(type), wire_bytes);
  }
}

void TransportStats::CountTimeout(p2p::MessageType type) {
  timeouts_[Idx(type)] += 1;
  if (metrics_ != nullptr) {
    metrics_->Add("transport.timeouts", p2p::MessageTypeName(type), 1);
  }
}

void TransportStats::CountRetry(p2p::MessageType type) {
  retries_[Idx(type)] += 1;
  if (metrics_ != nullptr) {
    metrics_->Add("transport.retries", p2p::MessageTypeName(type), 1);
  }
}

void TransportStats::CountDial() {
  dials_ += 1;
  if (metrics_ != nullptr && mirror_traffic_) {
    metrics_->Add("transport.dials", 1);
  }
}

void TransportStats::ObserveRtt(p2p::MessageType type, double rtt_us) {
  if (rtt_us < 0.0) return;
  rtt_count_[Idx(type)] += 1;
  rtt_sum_us_[Idx(type)] += rtt_us;
  if (metrics_ != nullptr && mirror_traffic_) {
    metrics_->Observe("transport.rtt_us", p2p::MessageTypeName(type), rtt_us);
  }
}

uint64_t TransportStats::TotalFrames() const {
  return std::accumulate(frames_.begin(), frames_.end(), uint64_t{0});
}

uint64_t TransportStats::TotalBytes() const {
  return std::accumulate(bytes_.begin(), bytes_.end(), uint64_t{0});
}

uint64_t TransportStats::TotalTimeouts() const {
  return std::accumulate(timeouts_.begin(), timeouts_.end(), uint64_t{0});
}

uint64_t TransportStats::TotalRetries() const {
  return std::accumulate(retries_.begin(), retries_.end(), uint64_t{0});
}

std::string TransportStats::ToString() const {
  std::string out;
  for (int i = 0; i < p2p::kNumMessageTypes; ++i) {
    const auto type = static_cast<p2p::MessageType>(i);
    if (FramesOf(type) == 0) continue;
    const std::string label(p2p::MessageTypeName(type));
    out += StrFormat("  %-14s msgs=%10llu bytes=%12llu\n", label.c_str(),
                     static_cast<unsigned long long>(FramesOf(type)),
                     static_cast<unsigned long long>(BytesOf(type)));
  }
  out += StrFormat("  %-14s msgs=%10llu bytes=%12llu\n", "TOTAL",
                   static_cast<unsigned long long>(TotalFrames()),
                   static_cast<unsigned long long>(TotalBytes()));
  return out;
}

void TransportStats::Clear() {
  frames_.fill(0);
  bytes_.fill(0);
  timeouts_.fill(0);
  retries_.fill(0);
  rtt_count_.fill(0);
  rtt_sum_us_.fill(0.0);
  dials_ = 0;
  if (metrics_ != nullptr) {
    metrics_->EraseByName("transport.frames");
    metrics_->EraseByName("transport.bytes");
    metrics_->EraseByName("transport.timeouts");
    metrics_->EraseByName("transport.retries");
    metrics_->EraseByName("transport.rtt_us");
    metrics_->EraseByName("transport.dials");
  }
}

}  // namespace sprite::net
