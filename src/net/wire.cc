#include "net/wire.h"

#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/string_util.h"

namespace sprite::net::wire {

namespace {

// Little-endian stores/loads, alignment-safe.
void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// Exactly the named p2p::MessageType values: bytes 8-10 are unknown, like
// every byte past kJoinResponse.
bool KnownMessageType(uint8_t raw) {
  return p2p::MessageTypeName(static_cast<p2p::MessageType>(raw)) !=
         "Unknown";
}

// Shared sub-encoders -------------------------------------------------------

void PutPosting(WireWriter& w, const p2p::PostingEntry& e) {
  // 8+8+4+4+4+4 = 32 bytes = p2p::kPostingEntryBytes. The doc id is
  // widened to u64 on the wire so million-doc corpora never force a format
  // bump; the trailing u32 is reserved padding.
  w.U64(e.doc);
  w.U64(e.owner);
  w.U32(e.term_freq);
  w.U32(e.doc_length);
  w.U32(e.num_distinct_terms);
  w.U32(0);  // reserved
}

p2p::PostingEntry GetPosting(WireReader& r) {
  p2p::PostingEntry e;
  e.doc = static_cast<p2p::DocId>(r.U64());
  e.owner = r.U64();
  e.term_freq = r.U32();
  e.doc_length = r.U32();
  e.num_distinct_terms = r.U32();
  r.U32();  // reserved
  return e;
}

void PutPostings(WireWriter& w, const std::vector<p2p::PostingEntry>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const auto& e : v) PutPosting(w, e);
}

// A posting list must be sorted by strictly increasing doc id, as every
// sender's stored snapshot is: the ranker merges lists under that
// precondition (core/ranking.h), so an unsorted or repeated doc is
// rejected here.
bool GetPostings(WireReader& r, std::vector<p2p::PostingEntry>& out) {
  const uint32_t n = r.U32();
  // Each posting costs 32 payload bytes; a count beyond what the payload
  // could hold is rejected before reserving anything.
  if (static_cast<uint64_t>(n) * p2p::kPostingEntryBytes > r.remaining()) {
    return false;
  }
  out.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    out.push_back(GetPosting(r));
    if (i > 0 && out[i].doc <= out[i - 1].doc) return false;
  }
  return r.ok();
}

void PutRecordPayload(WireWriter& w, const WireQueryRecord& rec) {
  w.U64(rec.id);
  w.U64(rec.hash_key);
  w.U64(rec.seq);
  w.U32(static_cast<uint32_t>(rec.terms.size()));
  for (const auto& t : rec.terms) w.Str(t);
}

}  // namespace

// --- WireWriter -------------------------------------------------------------

void WireWriter::U16(uint16_t v) {
  out_.push_back(static_cast<uint8_t>(v));
  out_.push_back(static_cast<uint8_t>(v >> 8));
}
void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void WireWriter::Str(const std::string& s) {
  const size_t n = s.size() > 0xffff ? 0xffff : s.size();
  U16(static_cast<uint16_t>(n));
  out_.insert(out_.end(), s.begin(), s.begin() + static_cast<ptrdiff_t>(n));
}

// --- WireReader -------------------------------------------------------------

bool WireReader::Need(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}
uint8_t WireReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}
uint16_t WireReader::U16() {
  if (!Need(2)) return 0;
  const uint16_t v = LoadU16(data_ + pos_);
  pos_ += 2;
  return v;
}
uint32_t WireReader::U32() {
  if (!Need(4)) return 0;
  const uint32_t v = LoadU32(data_ + pos_);
  pos_ += 4;
  return v;
}
uint64_t WireReader::U64() {
  if (!Need(8)) return 0;
  const uint64_t v = LoadU64(data_ + pos_);
  pos_ += 8;
  return v;
}
std::string WireReader::Str() {
  const uint16_t n = U16();
  if (!Need(n)) return std::string();
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}
Status WireReader::Finish() const {
  if (!ok_) return Status::Corruption("truncated payload");
  if (pos_ != size_) {
    return Status::Corruption(
        StrFormat("%zu trailing payload bytes", size_ - pos_));
  }
  return Status::OK();
}

// --- CRC32 (IEEE, reflected) ------------------------------------------------

// One checksum discipline across the process boundary: wire frames and the
// store's segment footers share the common/crc32 implementation.
uint32_t Crc32(const uint8_t* data, size_t size) {
  return ::sprite::Crc32(data, size);
}

// --- Frame ------------------------------------------------------------------

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out(kHeaderBytes + frame.payload.size());
  uint8_t* p = out.data();
  StoreU32(p + 0, kMagic);
  StoreU16(p + 4, kWireVersion);
  p[6] = static_cast<uint8_t>(frame.type);
  p[7] = frame.flags;
  StoreU32(p + 8, static_cast<uint32_t>(frame.payload.size()));
  StoreU64(p + 12, frame.src);
  StoreU64(p + 20, frame.dst);
  StoreU64(p + 28, frame.request_id);
  StoreU32(p + 36, Crc32(frame.payload.data(), frame.payload.size()));
  if ((frame.flags & kFlagTraced) != 0) {
    StoreU32(p + 40, frame.trace_id);
    StoreU32(p + 44, frame.parent_span);
  } else {
    StoreU64(p + 40, 0);  // reserved: zero through wire v1
  }
  if (!frame.payload.empty()) {
    std::memcpy(p + kHeaderBytes, frame.payload.data(), frame.payload.size());
  }
  return out;
}

StatusOr<FrameHeader> DecodeHeader(const uint8_t* data, size_t size) {
  if (size < kHeaderBytes) {
    return Status::Corruption(
        StrFormat("truncated frame header: %zu of %zu bytes", size,
                  kHeaderBytes));
  }
  if (LoadU32(data + 0) != kMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader h;
  h.version = LoadU16(data + 4);
  if (h.version != kWireVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported wire version %u (speaking %u)", h.version,
                  kWireVersion));
  }
  if (!KnownMessageType(data[6])) {
    return Status::InvalidArgument(
        StrFormat("unknown message type %u", data[6]));
  }
  h.type = static_cast<p2p::MessageType>(data[6]);
  h.flags = data[7];
  h.payload_length = LoadU32(data + 8);
  if (h.payload_length > kMaxPayloadBytes) {
    return Status::Corruption(
        StrFormat("oversized frame: %u payload bytes (max %u)",
                  h.payload_length, kMaxPayloadBytes));
  }
  h.src = LoadU64(data + 12);
  h.dst = LoadU64(data + 20);
  h.request_id = LoadU64(data + 28);
  h.checksum = LoadU32(data + 36);
  if ((h.flags & kFlagTraced) != 0) {
    h.trace_id = LoadU32(data + 40);
    h.parent_span = LoadU32(data + 44);
  }
  // Without the flag, bytes 40-47 are ignored (reserved in wire v1).
  return h;
}

StatusOr<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  StatusOr<FrameHeader> header = DecodeHeader(data, size);
  if (!header.ok()) return header.status();
  const FrameHeader& h = header.value();
  if (size != kHeaderBytes + h.payload_length) {
    return Status::Corruption(
        StrFormat("frame length mismatch: header says %u payload bytes, "
                  "buffer has %zu",
                  h.payload_length, size - kHeaderBytes));
  }
  if (Crc32(data + kHeaderBytes, h.payload_length) != h.checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  Frame f;
  f.type = h.type;
  f.flags = h.flags;
  f.src = h.src;
  f.dst = h.dst;
  f.request_id = h.request_id;
  f.trace_id = h.trace_id;
  f.parent_span = h.parent_span;
  f.payload.assign(data + kHeaderBytes, data + size);
  return f;
}

StatusOr<Frame> DecodeFrame(const std::vector<uint8_t>& buf) {
  return DecodeFrame(buf.data(), buf.size());
}

// --- Typed encoders ---------------------------------------------------------

namespace {

Frame MakeFrame(p2p::MessageType type, WireWriter&& w, uint8_t flags = 0) {
  Frame f;
  f.type = type;
  f.flags = flags;
  f.payload = std::move(w.bytes());
  return f;
}

bool GetRecordBody(WireReader& r, WireQueryRecord& rec) {
  rec.id = r.U64();
  rec.hash_key = r.U64();
  rec.seq = r.U64();
  const uint32_t n = r.U32();
  // A term costs at least its 2-byte length prefix.
  if (static_cast<uint64_t>(n) * 2 > r.remaining()) return false;
  rec.terms.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) rec.terms.push_back(r.Str());
  return r.ok();
}

void PutNode(WireWriter& w, const NodeInfo& n) {
  w.U64(n.id);
  w.Str(n.name);
  w.Str(n.host);
  w.U16(n.udp_port);
  w.U16(n.tcp_port);
  w.U16(n.http_port);
}

NodeInfo GetNode(WireReader& r) {
  NodeInfo n;
  n.id = r.U64();
  n.name = r.Str();
  n.host = r.Str();
  n.udp_port = r.U16();
  n.tcp_port = r.U16();
  n.http_port = r.U16();
  return n;
}

// One guard for every parser: the frame's type tag must match.
Status CheckType(const Frame& f, p2p::MessageType want) {
  if (f.type != want) {
    return Status::InvalidArgument(
        StrFormat("frame type %s where %s expected",
                  std::string(p2p::MessageTypeName(f.type)).c_str(),
                  std::string(p2p::MessageTypeName(want)).c_str()));
  }
  return Status::OK();
}

}  // namespace

Frame ToFrame(const PublishTerm& m) {
  WireWriter w;
  w.Str(m.term);
  PutPosting(w, m.entry);
  return MakeFrame(p2p::MessageType::kPublishTerm, std::move(w));
}

StatusOr<PublishTerm> ParsePublishTerm(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kPublishTerm));
  WireReader r(f.payload);
  PublishTerm m;
  m.term = r.Str();
  m.entry = GetPosting(r);
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

Frame ToFrame(const WithdrawTerm& m) {
  WireWriter w;
  w.Str(m.term);
  w.U64(m.doc);
  return MakeFrame(p2p::MessageType::kWithdrawTerm, std::move(w));
}

StatusOr<WithdrawTerm> ParseWithdrawTerm(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kWithdrawTerm));
  WireReader r(f.payload);
  WithdrawTerm m;
  m.term = r.Str();
  m.doc = r.U64();
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

Frame ToFrame(const QueryRequest& m) {
  WireWriter w;
  w.Str(m.term);
  uint8_t flags = 0;
  if (m.record.has_value()) {
    flags |= kFlagHasRecord;
    PutRecordPayload(w, *m.record);
  }
  if (m.record_only) flags |= kFlagRecordOnly;
  return MakeFrame(p2p::MessageType::kQueryRequest, std::move(w), flags);
}

StatusOr<QueryRequest> ParseQueryRequest(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kQueryRequest));
  WireReader r(f.payload);
  QueryRequest m;
  m.term = r.Str();
  if (f.flags & kFlagHasRecord) {
    WireQueryRecord rec;
    if (!GetRecordBody(r, rec)) return Status::Corruption("bad query record");
    m.record = std::move(rec);
  }
  m.record_only = (f.flags & kFlagRecordOnly) != 0;
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

Frame ToFrame(const QueryResponse& m) {
  WireWriter w;
  PutPostings(w, m.postings);
  w.U64(m.version);
  return MakeFrame(p2p::MessageType::kQueryResponse, std::move(w),
                   kFlagResponse);
}

StatusOr<QueryResponse> ParseQueryResponse(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kQueryResponse));
  WireReader r(f.payload);
  QueryResponse m;
  if (!GetPostings(r, m.postings)) {
    return Status::Corruption("bad posting list");
  }
  m.version = r.U64();
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

Frame ToFrame(const PollRequest& m) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(m.poll_terms.size()));
  for (const auto& t : m.poll_terms) w.Str(t);
  w.U32(static_cast<uint32_t>(m.my_terms.size()));
  for (const auto& t : m.my_terms) w.Str(t);
  for (const p2p::PollCursor& c : m.cursors) {
    w.U64(c.epoch);
    w.U64(c.arrival);
  }
  return MakeFrame(p2p::MessageType::kPollRequest, std::move(w));
}

StatusOr<PollRequest> ParsePollRequest(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kPollRequest));
  WireReader r(f.payload);
  PollRequest m;
  const uint32_t np = r.U32();
  if (static_cast<uint64_t>(np) * 2 > r.remaining()) {
    return Status::Corruption("bad poll term count");
  }
  for (uint32_t i = 0; i < np && r.ok(); ++i) m.poll_terms.push_back(r.Str());
  const uint32_t nm = r.U32();
  if (static_cast<uint64_t>(nm) * 2 > r.remaining()) {
    return Status::Corruption("bad my-term count");
  }
  for (uint32_t i = 0; i < nm && r.ok(); ++i) m.my_terms.push_back(r.Str());
  if (r.remaining() % 16 != 0) return Status::Corruption("bad cursor block");
  m.cursors.reserve(r.remaining() / 16);
  while (r.ok() && r.remaining() > 0) {
    p2p::PollCursor& c = m.cursors.emplace_back();
    c.epoch = r.U64();
    c.arrival = r.U64();
  }
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

Frame ToFrame(const PollResponse& m) {
  WireWriter w;
  w.U64(m.epoch);
  w.U64(m.high_water);
  w.U32(static_cast<uint32_t>(m.records.size()));
  for (const auto& rec : m.records) PutRecordPayload(w, rec);
  return MakeFrame(p2p::MessageType::kPollResponse, std::move(w),
                   kFlagResponse);
}

StatusOr<PollResponse> ParsePollResponse(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kPollResponse));
  WireReader r(f.payload);
  PollResponse m;
  m.epoch = r.U64();
  m.high_water = r.U64();
  const uint32_t n = r.U32();
  // A record's fixed part alone costs 28 bytes.
  if (static_cast<uint64_t>(n) * 28 > r.remaining()) {
    return Status::Corruption("bad record count");
  }
  m.records.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    WireQueryRecord rec;
    if (!GetRecordBody(r, rec)) return Status::Corruption("bad query record");
    m.records.push_back(std::move(rec));
  }
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

Frame ToFrame(const JoinRequest& m) {
  WireWriter w;
  PutNode(w, m.self);
  return MakeFrame(p2p::MessageType::kJoinRequest, std::move(w),
                   m.announce ? kFlagAnnounce : 0);
}

StatusOr<JoinRequest> ParseJoinRequest(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kJoinRequest));
  WireReader r(f.payload);
  JoinRequest m;
  m.self = GetNode(r);
  m.announce = (f.flags & kFlagAnnounce) != 0;
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

Frame ToFrame(const JoinResponse& m) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(m.members.size()));
  for (const auto& n : m.members) PutNode(w, n);
  return MakeFrame(p2p::MessageType::kJoinResponse, std::move(w),
                   kFlagResponse);
}

StatusOr<JoinResponse> ParseJoinResponse(const Frame& f) {
  SPRITE_RETURN_IF_ERROR(CheckType(f, p2p::MessageType::kJoinResponse));
  WireReader r(f.payload);
  JoinResponse m;
  const uint32_t n = r.U32();
  // A node card's fixed part costs 18 bytes.
  if (static_cast<uint64_t>(n) * 18 > r.remaining()) {
    return Status::Corruption("bad member count");
  }
  m.members.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) m.members.push_back(GetNode(r));
  SPRITE_RETURN_IF_ERROR(r.Finish());
  return m;
}

}  // namespace sprite::net::wire
