#ifndef SPRITE_P2P_MESSAGE_H_
#define SPRITE_P2P_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "text/term_dict.h"

namespace sprite::p2p {

// A peer is addressed by its Chord node identifier.
using PeerId = uint64_t;

// Documents are identified by the dense ids their corpus assigns (the same
// value as corpus::DocId; duplicated here so the message layer does not
// depend on the corpus loader).
using DocId = uint32_t;
inline constexpr DocId kInvalidDocId = std::numeric_limits<DocId>::max();

// Application-level message kinds exchanged by SPRITE peers. The simulated
// bus counts messages and estimated bytes per kind. A live node sends only
// kPublishTerm through kPollResponse and the join pair, which the socket
// transport serializes with the wire protocol of src/net/wire.h; the other
// kinds run only in the simulation, charged by the constants below.
enum class MessageType : uint8_t {
  kLookupHop = 0,    // one hop of an iterative Chord lookup
  kPublishTerm,      // owner -> indexing peer: add posting for a term
  kWithdrawTerm,     // owner -> indexing peer: remove posting
  kQueryRequest,     // querying peer -> indexing peer: fetch inverted list
  kQueryResponse,    // indexing peer -> querying peer: inverted list
  kPollRequest,      // owner -> indexing peer: index-update message
  kPollResponse,     // indexing peer -> owner: cached queries
  kReplicate,        // indexing peer -> successor: index replica
  kAdvisory,         // indexing peer -> owner: overload advisory (Sec. 7)
  kHeartbeat,        // owner -> indexing peer: liveness probe
  kKeyTransfer,      // successor -> joining peer: responsibility handoff
  kCachePush,        // indexing peer -> co-term peer: hot-term cache (LAR)
  kVersionCheck,     // querying peer -> indexing peer: cached-entry
                     // freshness probe (term versions in, verdict out)
  // Transport-control types (src/net): never counted by the simulation's
  // cost model, only exchanged by live clusters.
  kJoinRequest,      // newcomer -> member: hello / membership announce
  kJoinResponse,     // member -> newcomer: full member list
};

// One past the last value above; a value appended after kJoinResponse
// must take its place here.
inline constexpr int kNumMessageTypes =
    static_cast<int>(MessageType::kJoinResponse) + 1;

// Stable display name, e.g. "PublishTerm".
std::string_view MessageTypeName(MessageType type);

// Rough wire sizes used for byte accounting (header + typical payload
// units). The wire protocol (src/net/wire.h) is engineered so that real
// frames match these charges for the canonical payload shapes — the
// byte-accounting parity audit in tests/wire_test.cc pins the residual
// deltas of every type a daemon sends — so sim benches keep predicting
// real traffic. The sim-only kinds have no encoder: their charges are
// these constants alone.
inline constexpr size_t kMessageHeaderBytes = 48;
inline constexpr size_t kLookupHopBytes = 64;
inline constexpr size_t kPostingEntryBytes = 32;  // doc id, owner, tf, len
inline constexpr size_t kTermBytes = 12;          // average term payload
inline constexpr size_t kQueryRecordBytes = 40;   // cached query payload
inline constexpr size_t kVersionBytes = 8;        // one uint64 term version

// One entry of a term's distributed inverted list — the metadata of
// Section 5.1(a): the document, its owner peer's address, the term
// frequency, the document length, and the distinct-term count needed by the
// Lee et al. normalization. This is message payload (it crosses the wire on
// publish/fetch/replicate), so it lives in the message layer; core
// re-exports it as core::PostingEntry.
struct PostingEntry {
  DocId doc = kInvalidDocId;
  PeerId owner = 0;
  uint32_t term_freq = 0;
  uint32_t doc_length = 0;
  uint32_t num_distinct_terms = 0;

  // t_ik: term frequency normalized by document length.
  double NormalizedTf() const {
    return doc_length == 0 ? 0.0
                           : static_cast<double>(term_freq) /
                                 static_cast<double>(doc_length);
  }

  friend bool operator==(const PostingEntry& a, const PostingEntry& b) {
    return a.doc == b.doc && a.owner == b.owner &&
           a.term_freq == b.term_freq && a.doc_length == b.doc_length &&
           a.num_distinct_terms == b.num_distinct_terms;
  }
};

// A query cached at an indexing peer — Section 5.1(b). `hash_key` is the
// ring key of the query's canonical form, precomputed so the closest-term
// dedup rule of Section 3 costs only integer comparisons. `seq` identifies
// this issuance: an owner counts each seq once. `arrival` is the order in
// which the caching peer stored the record, which poll cursors count. The
// simulation delivers records to every peer in issue order and sets
// `arrival` to its global `seq`; a live node stamps it from its own
// counter. The in-memory form keys terms by interned TermId; on the wire
// (net::wire::WireQueryRecord) the spellings travel instead, since
// interner handles are process-local, and `arrival` stays behind: it
// means something only to the peer that stamped it.
struct QueryRecord {
  uint32_t id = 0;
  std::vector<text::TermId> terms;
  uint64_t hash_key = 0;
  uint64_t seq = 0;
  uint64_t arrival = 0;
};

// How far an owner has pulled one term's query history: the newest
// `arrival` already pulled through the term from incarnation `epoch` of
// the peer that caches it. A live node draws a random nonzero epoch each
// time it starts and counts a cursor of another epoch as 0; the
// simulation's peers never restart and all use epoch 0.
struct PollCursor {
  uint64_t epoch = 0;
  uint64_t arrival = 0;
};

}  // namespace sprite::p2p

#endif  // SPRITE_P2P_MESSAGE_H_
