#ifndef SPRITE_NET_WIRE_H_
#define SPRITE_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "p2p/message.h"

// The SPRITE wire protocol (DESIGN.md §14): a versioned binary framing of
// the messages a live node sends — publish and withdraw a posting, fetch a
// term's inverted list (optionally recording the query), the owner's
// index-update poll, and the cluster's join — used by the socket transport.
// The other p2p::MessageType values (iterative lookups, replication,
// hot-term pushes, version checks) run only in the simulation, which
// charges them through the cost constants of p2p/message.h without encoding
// a frame; a frame of such a type still decodes, and a live node answers it
// with InvalidArgument. A type byte that names no MessageType (8-10, or
// anything past kJoinResponse) fails to decode. Every frame is
//
//   0        4      6     7     8        12       20       28       36
//   +--------+------+-----+-----+--------+--------+--------+--------+
//   | "SPRW" | ver  | typ | flg | length | src id | dst id | req id |
//   +--------+------+-----+-----+--------+--------+--------+--------+
//   36       40         44          48                      48+length
//   +--------+----------+-----------+----------------------------+
//   | crc32  | trace id | parent sp | payload (length bytes) ... |
//   +--------+----------+-----------+----------------------------+
//
// Bytes 40–47 were a zeroed reserved field through wire v1; they now carry
// the distributed-tracing context (DESIGN.md §16) — a u32 trace id at 40
// and a u32 parent span id at 44 — but ONLY when kFlagTraced is set.
// Without the flag the eight bytes are written as zero and ignored on
// decode, exactly the v1 behavior, so no version bump is needed: old
// decoders see untraced frames unchanged and ignore traced frames'
// reserved bytes (the crc never covered them). The sim bus never sets the
// flag, keeping every golden frame byte-identical.
//
// i.e. a 48-byte header — deliberately equal to p2p::kMessageHeaderBytes,
// so the simulator's per-message header charge matches the real frame
// overhead exactly — followed by `length` payload bytes covered by the
// crc32. All integers are little-endian. Strings are u16-length-prefixed
// UTF-8 bytes; a 10-character term therefore costs 12 bytes on the wire,
// which is precisely the p2p::kTermBytes "average term payload" the sim
// charges. PostingEntry serializes to exactly p2p::kPostingEntryBytes (32)
// and a canonical one-term query record to p2p::kQueryRecordBytes (40), so
// sim benches keep predicting real traffic; the per-type residual deltas
// are documented next to each message struct below and asserted by the
// byte-accounting parity audit in tests/wire_test.cc for every type that
// both a daemon sends and the sim charges.
//
// Versioning rules: kWireVersion is bumped whenever an existing message
// layout changes; decoders reject frames from a different major version
// with Status::InvalidArgument (no silent best-effort parse). Adding a new
// MessageType value is backward-compatible (old decoders reject it as an
// unknown type); changing an existing payload is not.
namespace sprite::net::wire {

inline constexpr uint32_t kMagic = 0x57525053;  // "SPRW" little-endian
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kHeaderBytes = 48;
static_assert(kHeaderBytes == p2p::kMessageHeaderBytes,
              "frame header must match the sim's per-message header charge");
// Upper bound on a frame payload; a length field beyond this is rejected
// before any allocation happens (a malicious 4 GiB length must not OOM the
// receiver).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

// Frame flag bits.
inline constexpr uint8_t kFlagResponse = 0x01;    // reply leg of a paired type
inline constexpr uint8_t kFlagHasRecord = 0x02;   // a query record rides along
inline constexpr uint8_t kFlagAnnounce = 0x04;    // join: newcomer announcement
inline constexpr uint8_t kFlagRecordOnly = 0x08;  // query: record, skip fetch
inline constexpr uint8_t kFlagTraced = 0x20;      // trace context in bytes 40-47

// A decoded frame: typed envelope plus raw payload bytes. `trace_id` /
// `parent_span` are meaningful only when kFlagTraced is set in `flags`;
// they encode into header bytes 40-47 (zeros otherwise).
struct Frame {
  p2p::MessageType type = p2p::MessageType::kPublishTerm;
  uint8_t flags = 0;
  p2p::PeerId src = 0;
  p2p::PeerId dst = 0;
  uint64_t request_id = 0;
  uint32_t trace_id = 0;
  uint32_t parent_span = 0;
  std::vector<uint8_t> payload;

  size_t wire_size() const { return kHeaderBytes + payload.size(); }
  bool traced() const { return (flags & kFlagTraced) != 0 && trace_id != 0; }
};

// Serializes `frame` (header + payload, crc filled in).
std::vector<uint8_t> EncodeFrame(const Frame& frame);

// Parses and validates one complete frame. Fails with a typed Status on
// truncation, bad magic, unknown version, oversized or mismatched length,
// unknown message type, or a crc mismatch — never crashes on malformed
// bytes.
StatusOr<Frame> DecodeFrame(const uint8_t* data, size_t size);
StatusOr<Frame> DecodeFrame(const std::vector<uint8_t>& buf);

// Validates the fixed header only (for streaming reads: callers read 48
// bytes, learn `payload_length`, then read the rest). The crc is NOT
// checked here — DecodeFrame does that once the payload is present.
struct FrameHeader {
  uint16_t version = 0;
  p2p::MessageType type = p2p::MessageType::kPublishTerm;
  uint8_t flags = 0;
  uint32_t payload_length = 0;
  p2p::PeerId src = 0;
  p2p::PeerId dst = 0;
  uint64_t request_id = 0;
  uint32_t checksum = 0;
  uint32_t trace_id = 0;     // valid only with kFlagTraced
  uint32_t parent_span = 0;  // valid only with kFlagTraced
};
StatusOr<FrameHeader> DecodeHeader(const uint8_t* data, size_t size);

uint32_t Crc32(const uint8_t* data, size_t size);

// --- Primitive writer/reader ----------------------------------------------

class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  // u16 length prefix + bytes; strings longer than 65535 are truncated
  // upstream (terms never come close).
  void Str(const std::string& s);

  std::vector<uint8_t>& bytes() { return out_; }
  const std::vector<uint8_t>& bytes() const { return out_; }

 private:
  std::vector<uint8_t> out_;
};

// Bounds-checked sequential reader. The first out-of-bounds read latches a
// Corruption status; subsequent reads are no-ops returning zero values, so
// decoders can read a whole struct and check status() once.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  std::string Str();

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  // OK when every byte was consumed exactly; Corruption otherwise (either
  // a truncated read happened or trailing garbage remains).
  Status Finish() const;

 private:
  bool Need(size_t n);
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Typed messages ---------------------------------------------------------
// One struct per message type a live node sends, each with ToFrame/Parse
// round-trips. "Δ" notes the wire size minus the sim cost model's charge
// for the canonical shape (10-char terms, one-term records) — the fixed
// deltas the parity audit asserts.

// kPublishTerm — term + posting. Δ = 0.
struct PublishTerm {
  std::string term;
  p2p::PostingEntry entry;
};

// kWithdrawTerm — term + doc id. Δ = +8 (the sim charges the term only;
// the wire must say which document to withdraw).
struct WithdrawTerm {
  std::string term;
  uint64_t doc = 0;
};

// A query record as it crosses the wire. TermIds are process-local interner
// handles, so records travel as term *spellings*; the receiver re-interns.
// Canonical (one 10-char term): 8+8+8+4+12 = 40 = p2p::kQueryRecordBytes.
struct WireQueryRecord {
  uint64_t id = 0;
  uint64_t hash_key = 0;
  uint64_t seq = 0;
  std::vector<std::string> terms;
};

// kQueryRequest — fetch a term's inverted list; an issuance record may ride
// along (kFlagHasRecord), and kFlagRecordOnly caches the record without a
// fetch (the cluster's RecordQuery). Δ = 0 (record presence is a flag bit,
// not a payload byte).
struct QueryRequest {
  std::string term;
  std::optional<WireQueryRecord> record;
  bool record_only = false;
};

// kQueryResponse — the inverted list plus the serving peer's term version
// (what makes the response cacheable). Δ = +12 (u32 count + u64 version;
// the sim charges postings only).
struct QueryResponse {
  std::vector<p2p::PostingEntry> postings;
  uint64_t version = 0;
};

// kPollRequest — index-update poll for one document: all of the document's
// global index terms, the subset the receiver is responsible for, and each
// of those terms' cursor: the receiver's epoch and newest arrival the owner
// already pulled through it ({0, 0} when it has none). The cursors are the
// rest of the payload, 16 bytes each, so a request whose cursors are not
// parallel to my_terms still parses and the receiver rejects it.
// Δ = +8 + 28·|my_terms| (counts + a u64 pair beside each my-term).
struct PollRequest {
  std::vector<std::string> poll_terms;
  std::vector<std::string> my_terms;
  std::vector<p2p::PollCursor> cursors;  // parallel to my_terms
};

// kPollResponse — the deduplicated incremental query history, with the
// responder's epoch (drawn anew each time it starts) and the newest
// arrival it had stamped when it answered: the cursor the owner keeps for
// every polled term. Δ = +20 (epoch + high-water + record count).
struct PollResponse {
  uint64_t epoch = 0;
  uint64_t high_water = 0;
  std::vector<WireQueryRecord> records;
};

// Addressing card of one cluster node, carried by the join protocol.
struct NodeInfo {
  p2p::PeerId id = 0;
  std::string name;
  std::string host;
  uint16_t udp_port = 0;
  uint16_t tcp_port = 0;
  uint16_t http_port = 0;
};

// kJoinRequest — newcomer → bootstrap (and, with kFlagAnnounce, newcomer →
// every learned member).
struct JoinRequest {
  NodeInfo self;
  bool announce = false;
};

// kJoinResponse — the responder's full member list (including itself).
struct JoinResponse {
  std::vector<NodeInfo> members;
};

Frame ToFrame(const PublishTerm& m);
Frame ToFrame(const WithdrawTerm& m);
Frame ToFrame(const QueryRequest& m);
Frame ToFrame(const QueryResponse& m);
Frame ToFrame(const PollRequest& m);
Frame ToFrame(const PollResponse& m);
Frame ToFrame(const JoinRequest& m);
Frame ToFrame(const JoinResponse& m);

StatusOr<PublishTerm> ParsePublishTerm(const Frame& f);
StatusOr<WithdrawTerm> ParseWithdrawTerm(const Frame& f);
StatusOr<QueryRequest> ParseQueryRequest(const Frame& f);
StatusOr<QueryResponse> ParseQueryResponse(const Frame& f);
StatusOr<PollRequest> ParsePollRequest(const Frame& f);
StatusOr<PollResponse> ParsePollResponse(const Frame& f);
StatusOr<JoinRequest> ParseJoinRequest(const Frame& f);
StatusOr<JoinResponse> ParseJoinResponse(const Frame& f);

}  // namespace sprite::net::wire

#endif  // SPRITE_NET_WIRE_H_
