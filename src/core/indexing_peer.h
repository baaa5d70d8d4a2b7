#ifndef SPRITE_CORE_INDEXING_PEER_H_
#define SPRITE_CORE_INDEXING_PEER_H_

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/types.h"
#include "dht/id_space.h"
#include "store/peer_store.h"
#include "store/stored_postings.h"

namespace sprite::core {

// The indexing-peer role (Section 3): manages the inverted lists of the
// terms the overlay assigns to this node, plus a bounded history of
// recently issued queries that contain one of those terms. Also holds the
// replica store used by the Section-7 replication extension.
//
// All stores are keyed by interned TermId (strings live only in the
// TermDict). Since ISSUE 9 every inverted list is a store::StoredPostings —
// a compressed, block-encoded list sorted by doc id with a raw tail of
// recent appends. Fetches hand out immutable decoded snapshots without
// copying (memoized per list object), while mutators swap in a fresh
// object — so a list captured by a cache or an in-flight search stays
// frozen, exactly as if it had been deep-copied.
class IndexingPeer {
 public:
  IndexingPeer(PeerId id, size_t history_capacity)
      : id_(id),
        history_capacity_(history_capacity),
        empty_(store::StoredPostings::Empty(store::StoreOptions{})) {}

  PeerId id() const { return id_; }

  // --- Inverted index ---------------------------------------------------
  // Adds (or overwrites) the posting of `entry.doc` in `term`'s list.
  void AddPosting(TermId term, const PostingEntry& entry);
  // Removes `doc`'s posting from the primary list AND from this peer's
  // replica store and hot-term cache (a withdrawn document must not be
  // resurrected by the replica fallback below). Returns false when no
  // primary posting was present.
  bool RemovePosting(TermId term, DocId doc);
  // A snapshot of `term`'s inverted list (nullptr when the term is not
  // indexed here). Falls back to the replica store when the primary has
  // nothing, so a successor holding replicas can serve a failed peer's
  // terms. The snapshot stays valid (and frozen) across later mutations.
  PostingListPtr Postings(TermId term) const;
  // The stored (compressed) form behind Postings(), same fallback rule.
  StoredPostingsPtr Stored(TermId term) const;
  // Indexed document frequency n'_k: length of the primary inverted list.
  uint32_t IndexedDocFreq(TermId term) const;
  // Whether `doc` has a primary posting under `term` (skip-table seek,
  // decodes at most one block).
  bool HasPosting(TermId term, DocId doc) const;

  size_t num_terms() const { return index_.size(); }
  size_t num_postings() const;
  // Terms this peer currently indexes, sorted by TermId.
  std::vector<TermId> IndexedTerms() const;
  const std::unordered_map<TermId, StoredPostingsPtr>& index() const {
    return index_;
  }

  // Resident posting-payload bytes across the primary index, replica store
  // and hot-term cache: as plain PostingEntry vectors, and as actually
  // held (sealed blobs + raw tails). Their ratio is the compression the
  // store buys this peer.
  size_t PostingBytesRaw() const;
  size_t PostingBytesEncoded() const;

  // --- Term versions (cache invalidation, src/cache) ---------------------
  // Monotone per-term change counter: bumped whenever the serveable
  // postings of `term` change here (primary add/remove, replica refresh,
  // withdrawal scrubs). 0 means the term was never stored on this peer.
  // Counters are never reset or handed off, so a (peer, term, version)
  // triple identifies exactly one state of the list — the invariant the
  // version-check protocol of the query caches relies on. A term that
  // moves to another peer fails the checker's responsibility test instead.
  uint64_t TermVersion(TermId term) const;
  const std::unordered_map<TermId, uint64_t>& term_versions() const {
    return term_versions_;
  }

  // --- Persistence (src/store, DESIGN.md §15) -----------------------------
  // Installs a recovered primary list and its version counter verbatim.
  // Only for segment replay on an otherwise-fresh peer.
  void RestoreTerm(TermId term, StoredPostingsPtr postings, uint64_t version);

  // --- Replica store (Section 7) ----------------------------------------
  void StoreReplica(TermId term, StoredPostingsPtr postings);
  void ClearReplicas() { replicas_.clear(); }
  size_t num_replica_terms() const { return replicas_.size(); }

  // --- Hot-term cache (Section 7, LAR-style load balancing) --------------
  // Caches another peer's inverted list for a hot term so queries that hit
  // this peer for a co-occurring term need not contact the hot peer.
  void CachePostings(TermId term, StoredPostingsPtr postings);
  // The cached list for `term`, or nullptr. Unlike Postings(), this never
  // consults the primary index.
  PostingListPtr CachedPostings(TermId term) const;
  size_t num_cached_terms() const { return cache_.size(); }

  // --- Responsibility handoff (peer join) --------------------------------
  // Removes and returns every primary inverted list whose term satisfies
  // `should_move`, together with the history records that now belong to
  // the new peer (records where `should_move` holds for at least one
  // term). Records whose every responsible term moved away are dropped
  // from this peer's history.
  struct Handoff {
    std::vector<std::pair<TermId, StoredPostingsPtr>> lists;
    std::vector<QueryRecord> records;
  };
  template <typename Pred>
  Handoff ExtractEntries(const Pred& should_move) {
    Handoff handoff;
    handoff.lists.reserve(index_.size());
    for (auto it = index_.begin(); it != index_.end();) {
      if (should_move(it->first)) {
        handoff.lists.emplace_back(it->first, std::move(it->second));
        it = index_.erase(it);
      } else {
        ++it;
      }
    }
    // The index iterates in hash order, which depends on the hash seed and
    // standard-library internals. The handoff's order is observable — it
    // fixes the receiving peer's insertion order and the transfer's
    // accounting order — so pin it to the term ids.
    std::sort(handoff.lists.begin(), handoff.lists.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    handoff.records.reserve(history_.size());
    std::deque<QueryRecord> kept;
    for (auto& record : history_) {
      bool moves = false, stays = false;
      for (const TermId term : record.terms) {
        (should_move(term) ? moves : stays) = true;
      }
      if (moves) handoff.records.push_back(record);
      if (stays) kept.push_back(std::move(record));
    }
    history_ = std::move(kept);
    return handoff;
  }

  // --- Query history ------------------------------------------------------
  // Caches one issuance of a query; evicts the oldest when full.
  void RecordQuery(const QueryRecord& record);
  const std::deque<QueryRecord>& history() const { return history_; }

  // Handles an index-update poll (Section 3). `poll_terms` are ALL global
  // index terms of the polled document, `poll_keys` their ring keys
  // (precomputed by the caller from the TermDict — the paper notes the
  // hashes can be precomputed offline); `my_terms` the subset this peer is
  // responsible for; `after[i]` the newest arrival already pulled through
  // my_terms[i] (0 for a term without a cursor, whose whole matching
  // history comes back). A cached query is returned iff
  //  (1) it contains at least one of my_terms,
  //  (2) among poll_terms contained in the query, the term whose ring key
  //      is closest (clockwise from the query's hash key; ties to the
  //      smaller key) belongs to my_terms — the dedup rule that makes
  //      exactly one peer return each query — and
  //  (3) its arrival is newer than that closest term's cursor.
  // A record at or below the smallest of `after` fails (3) whatever its
  // closest term, so it is skipped before any term work, and so is one
  // that contains no my-term whose cursor it passed.
  std::vector<const QueryRecord*> CollectQueriesForPoll(
      const std::vector<TermId>& poll_terms,
      const std::vector<uint64_t>& poll_keys,
      const std::vector<TermId>& my_terms, const std::vector<uint64_t>& after,
      const dht::IdSpace& space) const;

 private:
  PeerId id_;
  size_t history_capacity_;
  StoredPostingsPtr empty_;  // shared base for first-time inserts
  std::unordered_map<TermId, StoredPostingsPtr> index_;
  std::unordered_map<TermId, StoredPostingsPtr> replicas_;
  std::unordered_map<TermId, StoredPostingsPtr> cache_;
  std::unordered_map<TermId, uint64_t> term_versions_;
  std::deque<QueryRecord> history_;  // oldest at front
};

// The durable store of one indexing peer (DESIGN.md §15): a PeerStore in
// <config.data_dir>/peer-<ring id as 16 hex digits>, opened on first use and
// kept open so repeated flushes stay incremental. Ring ids derive from peer
// names, so a restarted process maps each directory back to its peer. The
// simulation keeps one per indexing peer, a live node one for itself.
class IndexingPeerStore {
 public:
  IndexingPeerStore(const SpriteConfig& config, PeerId id);

  // Commits `peer`'s index: term spellings, versions and posting blobs.
  // FailedPrecondition when config.data_dir is empty, here and in Recover.
  Status Flush(const IndexingPeer& peer);
  // Replays the store into a freshly constructed `peer`, re-interning the
  // spellings and reinstating the persisted term versions.
  Status Recover(IndexingPeer& peer);

 private:
  Status Open();

  std::string directory_;  // empty without a data_dir
  PeerId id_;
  size_t compact_threshold_;
  std::unique_ptr<store::PeerStore> store_;  // null until first use
};

// Among `candidate_terms` (each paired with its ring key), returns the
// index of the term closest to `query_key` — minimal clockwise distance
// from the query key, ties broken by smaller term key. Exposed for tests.
size_t ClosestTermIndex(const std::vector<uint64_t>& term_keys,
                        uint64_t query_key, const dht::IdSpace& space);

}  // namespace sprite::core

#endif  // SPRITE_CORE_INDEXING_PEER_H_
