#include "core/indexing_peer.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "text/term_dict.h"

namespace sprite::core {

namespace {

using Store = std::unordered_map<TermId, StoredPostingsPtr>;

// Erases `doc`'s posting from `store[term]`, dropping the list when it
// empties. Returns whether a posting was removed.
bool EraseFromStore(Store& store, TermId term, DocId doc) {
  auto it = store.find(term);
  if (it == store.end()) return false;
  bool erased = false;
  StoredPostingsPtr next = it->second->Erased(doc, &erased);
  if (!erased) return false;
  if (next->empty()) {
    store.erase(it);
  } else {
    it->second = std::move(next);
  }
  return true;
}

}  // namespace

void IndexingPeer::AddPosting(TermId term, const PostingEntry& entry) {
  auto [it, inserted] = index_.try_emplace(term, empty_);
  bool changed = false;
  StoredPostingsPtr next = it->second->Upserted(entry, &changed);
  // Re-publishing an unchanged posting (e.g. a heartbeat repair that raced
  // nothing) must not invalidate downstream caches.
  if (!changed) return;
  it->second = std::move(next);
  ++term_versions_[term];
}

bool IndexingPeer::RemovePosting(TermId term, DocId doc) {
  // A withdrawal must also scrub the local replica and hot-term cache:
  // otherwise Postings()'s replica fallback (and Search()'s cache path)
  // would resurrect the document after its owner withdrew it.
  const bool replica_erased = EraseFromStore(replicas_, term, doc);
  const bool cache_erased = EraseFromStore(cache_, term, doc);
  const bool primary_erased = EraseFromStore(index_, term, doc);
  if (replica_erased || cache_erased || primary_erased) {
    ++term_versions_[term];
  }
  return primary_erased;
}

StoredPostingsPtr IndexingPeer::Stored(TermId term) const {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  auto rit = replicas_.find(term);
  if (rit != replicas_.end()) return rit->second;
  return nullptr;
}

PostingListPtr IndexingPeer::Postings(TermId term) const {
  StoredPostingsPtr stored = Stored(term);
  return stored ? stored->Snapshot() : nullptr;
}

uint32_t IndexingPeer::IndexedDocFreq(TermId term) const {
  auto it = index_.find(term);
  return it == index_.end() ? 0 : static_cast<uint32_t>(it->second->size());
}

bool IndexingPeer::HasPosting(TermId term, DocId doc) const {
  auto it = index_.find(term);
  return it != index_.end() && it->second->FindDoc(doc, nullptr);
}

size_t IndexingPeer::num_postings() const {
  size_t n = 0;
  for (const auto& [_, plist] : index_) n += plist->size();
  return n;
}

std::vector<TermId> IndexingPeer::IndexedTerms() const {
  std::vector<TermId> terms;
  terms.reserve(index_.size());
  for (const auto& [term, _] : index_) terms.push_back(term);
  // Callers feed this into replication, advisories, and dumps; hand them a
  // pinned order rather than the map's hash order.
  std::sort(terms.begin(), terms.end());
  return terms;
}

size_t IndexingPeer::PostingBytesRaw() const {
  size_t n = 0;
  for (const auto& [_, plist] : index_) n += plist->raw_bytes();
  for (const auto& [_, plist] : replicas_) n += plist->raw_bytes();
  for (const auto& [_, plist] : cache_) n += plist->raw_bytes();
  return n;
}

size_t IndexingPeer::PostingBytesEncoded() const {
  size_t n = 0;
  for (const auto& [_, plist] : index_) n += plist->encoded_bytes();
  for (const auto& [_, plist] : replicas_) n += plist->encoded_bytes();
  for (const auto& [_, plist] : cache_) n += plist->encoded_bytes();
  return n;
}

void IndexingPeer::RestoreTerm(TermId term, StoredPostingsPtr postings,
                               uint64_t version) {
  SPRITE_CHECK(postings != nullptr);
  if (!postings->empty()) {
    index_[term] = std::move(postings);
  }
  if (version > 0) term_versions_[term] = version;
}

void IndexingPeer::StoreReplica(TermId term, StoredPostingsPtr postings) {
  auto& slot = replicas_[term];
  // Replication runs periodically; only an actual content change bumps
  // the term version (Postings() may serve the replica as a fallback).
  // SameContent's pointer fast path makes the steady-state re-replication
  // of an unchanged list free.
  const bool changed =
      slot ? !slot->SameContent(*postings) : !postings->empty();
  slot = std::move(postings);
  if (changed) ++term_versions_[term];
}

uint64_t IndexingPeer::TermVersion(TermId term) const {
  auto it = term_versions_.find(term);
  return it == term_versions_.end() ? 0 : it->second;
}

void IndexingPeer::CachePostings(TermId term, StoredPostingsPtr postings) {
  cache_[term] = std::move(postings);
}

PostingListPtr IndexingPeer::CachedPostings(TermId term) const {
  auto it = cache_.find(term);
  return it == cache_.end() ? nullptr : it->second->Snapshot();
}

void IndexingPeer::RecordQuery(const QueryRecord& record) {
  if (history_capacity_ == 0) return;
  if (history_.size() >= history_capacity_) history_.pop_front();
  history_.push_back(record);
}

size_t ClosestTermIndex(const std::vector<uint64_t>& term_keys,
                        uint64_t query_key, const dht::IdSpace& space) {
  SPRITE_CHECK(!term_keys.empty());
  size_t best = 0;
  uint64_t best_dist = space.Distance(query_key, term_keys[0]);
  for (size_t i = 1; i < term_keys.size(); ++i) {
    const uint64_t d = space.Distance(query_key, term_keys[i]);
    if (d < best_dist || (d == best_dist && term_keys[i] < term_keys[best])) {
      best = i;
      best_dist = d;
    }
  }
  return best;
}

std::vector<const QueryRecord*> IndexingPeer::CollectQueriesForPoll(
    const std::vector<TermId>& poll_terms,
    const std::vector<uint64_t>& poll_keys,
    const std::vector<TermId>& my_terms, const std::vector<uint64_t>& after,
    const dht::IdSpace& space) const {
  SPRITE_CHECK(poll_terms.size() == poll_keys.size());
  SPRITE_CHECK(my_terms.size() == after.size());
  std::vector<const QueryRecord*> out;
  if (history_.empty() || my_terms.empty()) return out;
  const uint64_t floor = *std::min_element(after.begin(), after.end());

  // Scratch buffers hoisted out of the per-query loop.
  std::vector<size_t> contained;
  std::vector<uint64_t> contained_keys;
  contained.reserve(poll_terms.size());
  contained_keys.reserve(poll_terms.size());

  for (const QueryRecord& q : history_) {
    if (q.arrival <= floor) continue;  // pulled through every one of my_terms
    // Only a term of mine that the query contains and whose cursor it
    // passed can be the closest term that returns it.
    bool open = false;
    for (size_t i = 0; i < my_terms.size() && !open; ++i) {
      open = q.arrival > after[i] &&
             std::find(q.terms.begin(), q.terms.end(), my_terms[i]) !=
                 q.terms.end();
    }
    if (!open) continue;
    // Which of the polled terms does this query contain?
    contained.clear();
    for (size_t i = 0; i < poll_terms.size(); ++i) {
      if (std::find(q.terms.begin(), q.terms.end(), poll_terms[i]) !=
          q.terms.end()) {
        contained.push_back(i);
      }
    }
    if (contained.empty()) continue;

    // Closest-hash dedup: exactly one contained term "owns" the query.
    contained_keys.clear();
    for (size_t i : contained) contained_keys.push_back(poll_keys[i]);
    const size_t winner_local =
        ClosestTermIndex(contained_keys, q.hash_key, space);
    const TermId winner = poll_terms[contained[winner_local]];

    const auto mine = std::find(my_terms.begin(), my_terms.end(), winner);
    if (mine == my_terms.end()) {
      continue;  // another indexing peer will return this query
    }
    if (q.arrival <= after[static_cast<size_t>(mine - my_terms.begin())]) {
      continue;  // already pulled in a prior poll
    }
    out.push_back(&q);
  }
  return out;
}

IndexingPeerStore::IndexingPeerStore(const SpriteConfig& config, PeerId id)
    : directory_(config.data_dir.empty()
                     ? ""
                     : config.data_dir +
                           StrFormat("/peer-%016llx",
                                     static_cast<unsigned long long>(id))),
      id_(id),
      compact_threshold_(config.store_compact_threshold) {}

Status IndexingPeerStore::Open() {
  if (store_ != nullptr) return Status::OK();
  if (directory_.empty()) {
    return Status::FailedPrecondition("SpriteConfig::data_dir is not set");
  }
  auto ps = std::make_unique<store::PeerStore>(
      directory_, id_, store::StoreOptions{}, compact_threshold_);
  SPRITE_RETURN_IF_ERROR(ps->Open());
  store_ = std::move(ps);
  return Status::OK();
}

Status IndexingPeerStore::Flush(const IndexingPeer& peer) {
  SPRITE_RETURN_IF_ERROR(Open());
  const TermDict& dict = TermDict::Global();
  std::vector<store::PeerStore::TermState> live;
  live.reserve(peer.index().size());
  for (const auto& [term, stored] : peer.index()) {
    store::PeerStore::TermState state;
    state.term = dict.TermOf(term);
    state.version = peer.TermVersion(term);
    state.postings = stored;
    live.push_back(std::move(state));
  }
  return store_->Flush(std::move(live));
}

Status IndexingPeerStore::Recover(IndexingPeer& peer) {
  SPRITE_RETURN_IF_ERROR(Open());
  TermDict& dict = TermDict::Global();
  for (store::PeerStore::TermState& state : store_->TakeRecovered()) {
    peer.RestoreTerm(dict.Intern(state.term), std::move(state.postings),
                     state.version);
  }
  return Status::OK();
}

}  // namespace sprite::core
