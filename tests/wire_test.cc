// Wire-protocol tests: round-trips for every message type a live node
// sends, malformed-frame rejection with typed statuses, and the
// byte-accounting parity audit — the fixed deltas between each message's
// encoded size and the charge the simulation's cost model
// (net::SimTransport) books for the same send (documented next to each
// struct in net/wire.h and in DESIGN.md §14). Runs under ASan in
// tools/ci.sh --asan.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "p2p/message.h"

namespace sprite::net::wire {
namespace {

using p2p::MessageType;

// The canonical shapes of the sim cost model: 10-character terms (which
// cost p2p::kTermBytes = 12 with the wire's u16 length prefix) and
// one-term query records (p2p::kQueryRecordBytes = 40).
const std::string kTerm = "abcdefghij";
static_assert(sizeof("abcdefghij") - 1 + 2 == p2p::kTermBytes);

p2p::PostingEntry MakeEntry(uint32_t doc) {
  p2p::PostingEntry e;
  e.doc = doc;
  e.owner = 0x1122334455667788ull;
  e.term_freq = 7;
  e.doc_length = 321;
  e.num_distinct_terms = 45;
  return e;
}

WireQueryRecord MakeRecord() {
  WireQueryRecord rec;
  rec.id = 9;
  rec.hash_key = 0xdeadbeefcafef00dull;
  rec.seq = (42ull << 32) | 17;
  rec.terms = {kTerm};
  return rec;
}

void ExpectEntryEq(const p2p::PostingEntry& a, const p2p::PostingEntry& b) {
  EXPECT_EQ(a.doc, b.doc);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.term_freq, b.term_freq);
  EXPECT_EQ(a.doc_length, b.doc_length);
  EXPECT_EQ(a.num_distinct_terms, b.num_distinct_terms);
}

void ExpectRecordEq(const WireQueryRecord& a, const WireQueryRecord& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.hash_key, b.hash_key);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.terms, b.terms);
}

// Encodes, decodes and returns the re-decoded frame, checking the full
// byte-level cycle (header stamping + CRC) on the way.
Frame Recode(Frame frame) {
  frame.src = 100;
  frame.dst = 200;
  frame.request_id = 31337;
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  StatusOr<Frame> decoded = DecodeFrame(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, frame.type);
  EXPECT_EQ(decoded->flags, frame.flags);
  EXPECT_EQ(decoded->src, 100u);
  EXPECT_EQ(decoded->dst, 200u);
  EXPECT_EQ(decoded->request_id, 31337u);
  return *decoded;
}

// --- Round trips, one per message type --------------------------------------

TEST(WireRoundTrip, PublishTerm) {
  PublishTerm m;
  m.term = kTerm;
  m.entry = MakeEntry(3);
  auto out = ParsePublishTerm(Recode(ToFrame(m)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->term, kTerm);
  ExpectEntryEq(out->entry, m.entry);
}

TEST(WireRoundTrip, WithdrawTerm) {
  WithdrawTerm m;
  m.term = kTerm;
  m.doc = 77;
  auto out = ParseWithdrawTerm(Recode(ToFrame(m)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->term, kTerm);
  EXPECT_EQ(out->doc, 77u);
}

TEST(WireRoundTrip, QueryRequestPlain) {
  QueryRequest m;
  m.term = kTerm;
  auto out = ParseQueryRequest(Recode(ToFrame(m)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->term, kTerm);
  EXPECT_FALSE(out->record.has_value());
  EXPECT_FALSE(out->record_only);
}

TEST(WireRoundTrip, QueryRequestWithRecord) {
  QueryRequest m;
  m.term = kTerm;
  m.record = MakeRecord();
  m.record_only = true;
  const Frame f = Recode(ToFrame(m));
  EXPECT_NE(f.flags & kFlagHasRecord, 0);
  EXPECT_NE(f.flags & kFlagRecordOnly, 0);
  auto out = ParseQueryRequest(f);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->term, kTerm);
  ASSERT_TRUE(out->record.has_value());
  ExpectRecordEq(*out->record, *m.record);
  EXPECT_TRUE(out->record_only);
}

TEST(WireRoundTrip, QueryResponse) {
  QueryResponse m;
  m.postings = {MakeEntry(1), MakeEntry(2), MakeEntry(3)};
  m.version = 12345;
  auto out = ParseQueryResponse(Recode(ToFrame(m)));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->postings.size(), 3u);
  for (size_t i = 0; i < 3; ++i) ExpectEntryEq(out->postings[i], m.postings[i]);
  EXPECT_EQ(out->version, 12345u);
}

TEST(WireRoundTrip, PollRequest) {
  PollRequest m;
  m.poll_terms = {kTerm, "zzzzzzzzzz", "qqqqqqqqqq"};
  m.my_terms = {kTerm, "qqqqqqqqqq"};
  m.cursors = {{0x0123456789abcdefull, 11}, {0, 0}};
  auto out = ParsePollRequest(Recode(ToFrame(m)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->poll_terms, m.poll_terms);
  EXPECT_EQ(out->my_terms, m.my_terms);
  ASSERT_EQ(out->cursors.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out->cursors[i].epoch, m.cursors[i].epoch) << i;
    EXPECT_EQ(out->cursors[i].arrival, m.cursors[i].arrival) << i;
  }
}

// The cursor block is the rest of the payload: cursors that are not
// parallel to my_terms parse (the receiving node rejects the request),
// while a block that is not a whole number of cursors is corrupt.
TEST(WireRoundTrip, PollRequestCursorsNeedNotBeParallel) {
  PollRequest m;
  m.poll_terms = {kTerm};
  m.my_terms = {kTerm};
  auto out = ParsePollRequest(ToFrame(m));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->cursors.empty());
  m.cursors = {{1, 2}, {3, 4}};
  out = ParsePollRequest(ToFrame(m));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->cursors.size(), 2u);
  EXPECT_EQ(out->cursors[1].epoch, 3u);
  EXPECT_EQ(out->cursors[1].arrival, 4u);
  Frame f = ToFrame(m);
  f.payload.pop_back();
  out = ParsePollRequest(f);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(WireRoundTrip, PollResponse) {
  PollResponse m;
  m.epoch = 0xfedcba9876543210ull;
  m.high_water = 4096;
  m.records = {MakeRecord(), MakeRecord()};
  m.records[1].seq = 999;
  m.records[1].terms = {kTerm, "zzzzzzzzzz"};
  auto out = ParsePollResponse(Recode(ToFrame(m)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->epoch, m.epoch);
  EXPECT_EQ(out->high_water, 4096u);
  ASSERT_EQ(out->records.size(), 2u);
  ExpectRecordEq(out->records[0], m.records[0]);
  ExpectRecordEq(out->records[1], m.records[1]);

  // An empty reply still says whose history it read, and how far.
  PollResponse none;
  none.epoch = 7;
  none.high_water = 3;
  out = ParsePollResponse(Recode(ToFrame(none)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->epoch, 7u);
  EXPECT_EQ(out->high_water, 3u);
  EXPECT_TRUE(out->records.empty());
}

TEST(WireRoundTrip, JoinRequestAndResponse) {
  JoinRequest m;
  m.self.id = 777;
  m.self.name = "n0";
  m.self.host = "127.0.0.1";
  m.self.udp_port = 1111;
  m.self.tcp_port = 2222;
  m.self.http_port = 3333;
  m.announce = true;
  const Frame f = Recode(ToFrame(m));
  EXPECT_NE(f.flags & kFlagAnnounce, 0);
  auto out = ParseJoinRequest(f);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->self.id, 777u);
  EXPECT_EQ(out->self.name, "n0");
  EXPECT_EQ(out->self.host, "127.0.0.1");
  EXPECT_EQ(out->self.udp_port, 1111);
  EXPECT_EQ(out->self.tcp_port, 2222);
  EXPECT_EQ(out->self.http_port, 3333);
  EXPECT_TRUE(out->announce);

  JoinResponse r;
  r.members = {m.self, m.self};
  r.members[1].id = 778;
  r.members[1].name = "n1";
  auto rout = ParseJoinResponse(Recode(ToFrame(r)));
  ASSERT_TRUE(rout.ok());
  ASSERT_EQ(rout->members.size(), 2u);
  EXPECT_EQ(rout->members[0].name, "n0");
  EXPECT_EQ(rout->members[1].id, 778u);
}

// --- Malformed frames -------------------------------------------------------

TEST(WireMalformed, TruncatedFrame) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(ToFrame(WithdrawTerm{kTerm, 1}));
  for (const size_t cut : {size_t{0}, size_t{10}, kHeaderBytes - 1,
                           kHeaderBytes, bytes.size() - 1}) {
    StatusOr<Frame> out = DecodeFrame(bytes.data(), cut);
    ASSERT_FALSE(out.ok()) << "cut=" << cut;
    EXPECT_EQ(out.status().code(), StatusCode::kCorruption) << "cut=" << cut;
  }
}

TEST(WireMalformed, BadMagic) {
  std::vector<uint8_t> bytes = EncodeFrame(ToFrame(WithdrawTerm{kTerm, 1}));
  bytes[0] ^= 0xff;
  StatusOr<Frame> out = DecodeFrame(bytes);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(WireMalformed, UnknownVersion) {
  // 1 is the version before poll cursors carried epochs: its poll layouts
  // differ, so a node speaking 2 must not parse its frames.
  for (const uint8_t version : {uint8_t{0x7f}, uint8_t{1}}) {
    std::vector<uint8_t> bytes = EncodeFrame(ToFrame(WithdrawTerm{kTerm, 1}));
    bytes[4] = version;  // version low byte
    StatusOr<Frame> out = DecodeFrame(bytes);
    ASSERT_FALSE(out.ok()) << int{version};
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
        << int{version};
  }
}

TEST(WireMalformed, UnknownMessageType) {
  // 15 and 16 were a live-only lookup pair that no node ever sent.
  for (const int type : {p2p::kNumMessageTypes, 15, 16, 0xff}) {
    std::vector<uint8_t> bytes = EncodeFrame(ToFrame(WithdrawTerm{kTerm, 1}));
    bytes[6] = static_cast<uint8_t>(type);
    StatusOr<Frame> out = DecodeFrame(bytes);
    ASSERT_FALSE(out.ok()) << type;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << type;
  }
}

TEST(WireMalformed, OversizedLength) {
  std::vector<uint8_t> bytes = EncodeFrame(ToFrame(WithdrawTerm{kTerm, 1}));
  const uint32_t huge = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[8 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  StatusOr<FrameHeader> header = DecodeHeader(bytes.data(), bytes.size());
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kCorruption);
}

TEST(WireMalformed, LengthMismatch) {
  std::vector<uint8_t> bytes = EncodeFrame(ToFrame(WithdrawTerm{kTerm, 1}));
  bytes[8] += 1;  // header promises one more payload byte than the buffer
  StatusOr<Frame> out = DecodeFrame(bytes);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(WireMalformed, ChecksumMismatch) {
  std::vector<uint8_t> bytes = EncodeFrame(ToFrame(WithdrawTerm{kTerm, 1}));
  bytes.back() ^= 0x01;  // flip one payload bit; CRC must catch it
  StatusOr<Frame> out = DecodeFrame(bytes);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(WireMalformed, TruncatedPayload) {
  Frame f = ToFrame(PublishTerm{kTerm, MakeEntry(1)});
  f.payload.resize(f.payload.size() - 5);  // typed parse must fail cleanly
  StatusOr<PublishTerm> out = ParsePublishTerm(f);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(WireMalformed, TrailingPayloadBytes) {
  Frame f = ToFrame(WithdrawTerm{kTerm, 1});
  f.payload.push_back(0);
  StatusOr<WithdrawTerm> out = ParseWithdrawTerm(f);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(WireMalformed, WrongTypeTag) {
  StatusOr<WithdrawTerm> out =
      ParseWithdrawTerm(ToFrame(PublishTerm{kTerm, MakeEntry(1)}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireMalformed, AbsurdCollectionCount) {
  // A count field promising more elements than the payload could hold must
  // be rejected before any allocation is attempted.
  Frame f = ToFrame(QueryResponse{{MakeEntry(1)}, 1});
  // postings count is the first u32 of the payload
  for (int i = 0; i < 4; ++i) f.payload[i] = 0xff;
  StatusOr<QueryResponse> out = ParseQueryResponse(f);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

// Posting lists must arrive sorted by strictly increasing doc id (the
// ranker's merge precondition); every message that carries one says so.
TEST(WireMalformed, DescendingPostingsAreCorruption) {
  StatusOr<QueryResponse> out = ParseQueryResponse(
      ToFrame(QueryResponse{{MakeEntry(9), MakeEntry(4)}, 1}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(WireMalformed, RepeatedPostingDocIsCorruption) {
  StatusOr<QueryResponse> out = ParseQueryResponse(
      ToFrame(QueryResponse{{MakeEntry(3), MakeEntry(5), MakeEntry(5)}, 1}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

// --- Byte-accounting parity audit -------------------------------------------
//
// frame bytes == kMessageHeaderBytes + <sim cost-model payload> + Δ, with
// the canonical shapes above. These deltas are the documented, asserted
// contract between the sim's accounting and the real wire (DESIGN.md §14);
// changing an encoder or a cost constant must show up here.

size_t FrameBytes(const Frame& f) { return EncodeFrame(f).size(); }

TEST(WireParity, PublishTerm) {  // Δ = 0
  EXPECT_EQ(FrameBytes(ToFrame(PublishTerm{kTerm, MakeEntry(1)})),
            p2p::kMessageHeaderBytes + p2p::kTermBytes +
                p2p::kPostingEntryBytes);
}

TEST(WireParity, WithdrawTerm) {  // Δ = +8 (the withdrawn doc id)
  EXPECT_EQ(FrameBytes(ToFrame(WithdrawTerm{kTerm, 1})),
            p2p::kMessageHeaderBytes + p2p::kTermBytes + 8);
}

TEST(WireParity, QueryRequest) {  // Δ = 0
  EXPECT_EQ(FrameBytes(ToFrame(QueryRequest{kTerm, std::nullopt, false})),
            p2p::kMessageHeaderBytes + p2p::kTermBytes);
}

TEST(WireParity, QueryResponse) {  // Δ = +12 (count + term version)
  const std::vector<p2p::PostingEntry> postings = {MakeEntry(1), MakeEntry(2)};
  EXPECT_EQ(FrameBytes(ToFrame(QueryResponse{postings, 1})),
            p2p::kMessageHeaderBytes +
                postings.size() * p2p::kPostingEntryBytes + 12);
}

TEST(WireParity, PollRequest) {  // Δ = +8 + 28·|my_terms|
  PollRequest m;
  m.poll_terms = {kTerm, "zzzzzzzzzz", "qqqqqqqqqq"};
  m.my_terms = {kTerm, "qqqqqqqqqq"};
  m.cursors = {{0, 0}, {0, 0}};
  EXPECT_EQ(FrameBytes(ToFrame(m)),
            p2p::kMessageHeaderBytes +
                m.poll_terms.size() * p2p::kTermBytes + 8 +
                28 * m.my_terms.size());
}

TEST(WireParity, PollResponse) {  // Δ = +20 (epoch, high-water, count)
  PollResponse m;
  m.records = {MakeRecord(), MakeRecord()};
  EXPECT_EQ(FrameBytes(ToFrame(m)),
            p2p::kMessageHeaderBytes +
                m.records.size() * p2p::kQueryRecordBytes + 20);
}

TEST(WireParity, CanonicalRecordMatchesCostConstant) {
  // One one-term record on the wire weighs exactly what the sim charges
  // per record (8 id + 8 hash + 8 seq + 4 count + 12 term = 40).
  PollResponse one;
  one.records = {MakeRecord()};
  PollResponse none;
  EXPECT_EQ(FrameBytes(ToFrame(one)) - FrameBytes(ToFrame(none)),
            p2p::kQueryRecordBytes);
}


// --- Trace context in the reserved header bytes (DESIGN.md §16) -------------

TEST(WireTraceContext, RoundTripsWhenFlagged) {
  WithdrawTerm m;
  m.term = kTerm;
  m.doc = 0x1234;
  Frame frame = ToFrame(m);
  frame.flags |= kFlagTraced;
  frame.trace_id = 0xdeadbeefu;
  frame.parent_span = 0x0badf00du;
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  // The context lives in header bytes 40-47, little-endian u32 pair.
  EXPECT_EQ(bytes[40], 0xef);
  EXPECT_EQ(bytes[41], 0xbe);
  EXPECT_EQ(bytes[42], 0xad);
  EXPECT_EQ(bytes[43], 0xde);
  EXPECT_EQ(bytes[44], 0x0d);
  EXPECT_EQ(bytes[45], 0xf0);
  EXPECT_EQ(bytes[46], 0xad);
  EXPECT_EQ(bytes[47], 0x0b);
  StatusOr<Frame> decoded = DecodeFrame(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->traced());
  EXPECT_EQ(decoded->trace_id, 0xdeadbeefu);
  EXPECT_EQ(decoded->parent_span, 0x0badf00du);
}

TEST(WireTraceContext, UntracedFramesKeepReservedBytesZero) {
  // The v1 invariant the sim bus and the golden dumps rely on: without the
  // flag the eight bytes encode as zero even if the struct fields are set.
  WithdrawTerm m;
  m.term = kTerm;
  m.doc = 0x1234;
  Frame frame = ToFrame(m);
  frame.trace_id = 0xffffffffu;
  frame.parent_span = 0xffffffffu;
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  for (size_t i = 40; i < 48; ++i) {
    EXPECT_EQ(bytes[i], 0) << "reserved byte " << i;
  }
  StatusOr<Frame> decoded = DecodeFrame(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->traced());
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->parent_span, 0u);
}

TEST(WireTraceContext, FlaggedZeroTraceIdIsNotTraced) {
  // A flag with no id is adoption-inert: traced() gates on both.
  Frame frame = ToFrame(WithdrawTerm{kTerm, 1});
  frame.flags |= kFlagTraced;
  frame.trace_id = 0;
  frame.parent_span = 7;
  StatusOr<Frame> decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->traced());
}

TEST(WireTraceContext, UnflaggedGarbageInReservedBytesIsIgnored) {
  // Forward/backward compatibility: a decoder must ignore bytes 40-47
  // when the flag is clear (the crc never covered them).
  WithdrawTerm m;
  m.term = kTerm;
  m.doc = 0x1234;
  Frame frame = ToFrame(m);
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  for (size_t i = 40; i < 48; ++i) bytes[i] = 0xa5;
  StatusOr<Frame> decoded = DecodeFrame(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->traced());
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->parent_span, 0u);
}

TEST(WireTraceContext, ContextDoesNotDisturbPayloadOrChecksum) {
  // The crc covers the payload only, so stamping trace context leaves the
  // checksum and the decoded message untouched.
  PublishTerm m;
  m.term = kTerm;
  m.entry = MakeEntry(3);
  Frame plain = ToFrame(m);
  Frame traced = plain;
  traced.flags |= kFlagTraced;
  traced.trace_id = 42;
  traced.parent_span = 43;
  const std::vector<uint8_t> a = EncodeFrame(plain);
  const std::vector<uint8_t> b = EncodeFrame(traced);
  ASSERT_EQ(a.size(), b.size());
  StatusOr<FrameHeader> ha = DecodeHeader(a.data(), a.size());
  StatusOr<FrameHeader> hb = DecodeHeader(b.data(), b.size());
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(ha->checksum, hb->checksum);
  auto out = ParsePublishTerm(*DecodeFrame(b));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->term, kTerm);
  ExpectEntryEq(out->entry, m.entry);
}

}  // namespace
}  // namespace sprite::net::wire
