#ifndef SPRITE_CORE_OWNER_PEER_H_
#define SPRITE_CORE_OWNER_PEER_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/learning.h"
#include "core/types.h"
#include "dht/id_space.h"

namespace sprite::core {

// Per-document state kept by its owner peer.
struct OwnedDocument {
  // The full document content; the owner shares and locally indexes it.
  const corpus::Document* content = nullptr;
  // Current global index terms, in publication order.
  std::vector<std::string> index_terms;
  // Algorithm-1 statistics per term (best qScore, cumulative QF).
  std::unordered_map<std::string, TermLearningStats> stats;
  // Per-term poll cursor, keyed by interned TermId, so index-update polls
  // stay incremental (LearnAndRetune advances it). A term without one pulls
  // its member's whole matching history.
  std::unordered_map<TermId, PollCursor> poll_cursor;
  // Seqs of query issuances already folded into `stats`. The paper's
  // closest-term rule dedups within one poll; across iterations the winner
  // term of a query can change as the index-term set grows, and a term
  // without a cursor pulls its whole matching history, so a returned query
  // may repeat — this set makes QF exactly "one count per issuance". A
  // seq is only an identity here, never an order.
  std::unordered_set<uint64_t> processed_seqs;

  bool IsIndexed(const std::string& term) const;
  // `term`'s cursor; {0, 0} (pull everything) when it has none.
  PollCursor CursorOf(TermId term) const;
};

// The posting `owner` publishes for `term` of `owned`'s document. The
// simulation and the live cluster both build postings here, so they publish
// identical entries.
PostingEntry MakePosting(const OwnedDocument& owned, const std::string& term,
                         PeerId owner);

// One document's index-update polls for a learning round (Section 3): each
// poll carries every index term and names the ones its member serves.
struct PollPlan {
  struct Poll {
    PeerId member = 0;
    std::vector<TermId> my_terms;  // in publication order
    // Set by the caller when the member answers: its high-water mark, {0,
    // global seq counter} in the simulation, {epoch, newest arrival} live.
    std::optional<PollCursor> answer;
  };
  std::vector<TermId> terms;   // the index terms, in publication order
  std::vector<uint64_t> keys;  // their ring keys
  std::vector<Poll> polls;     // by ascending member id
};

// Plans `doc`'s polls. `member_of` gets each index term's ring key, in
// publication order, and returns the member serving it, or nullopt when no
// route reaches one: such a term is in no poll.
PollPlan PlanPolls(
    const OwnedDocument& doc, const dht::IdSpace& space,
    const std::function<std::optional<PeerId>(uint64_t key)>& member_of);

// The owner-peer role (Section 3): owns shared documents, selects their
// initial global index terms, and periodically retunes them from the query
// history pulled from indexing peers.
class OwnerPeer {
 public:
  explicit OwnerPeer(PeerId id) : id_(id) {}

  PeerId id() const { return id_; }

  // Registers a document this peer shares. The document must outlive the
  // peer. No terms are published yet.
  OwnedDocument& AdoptDocument(const corpus::Document* doc);

  OwnedDocument* document(DocId id);
  const OwnedDocument* document(DocId id) const;
  const std::map<DocId, OwnedDocument>& documents() const { return docs_; }
  std::map<DocId, OwnedDocument>& mutable_documents() { return docs_; }
  size_t num_documents() const { return docs_.size(); }

  // Initial term selection (Section 5.2): the top `count` most frequent
  // terms of the analyzed document (stop words and stems already handled by
  // the analyzer), ties broken lexicographically.
  static std::vector<std::string> SelectInitialTerms(
      const corpus::Document& doc, size_t count);

  // The index-set change computed by one tuning step.
  struct IndexUpdate {
    std::vector<std::string> add;
    std::vector<std::string> remove;
  };

  // SPRITE learning step for one document: folds the queries `polled`
  // pulled into the statistics (skipping already-processed issuances),
  // ranks candidate terms by Score, adds up to `terms_per_iteration` new
  // terms and evicts the lowest-ranked ones beyond `max_index_terms`.
  // Mutates `doc` to the new index set and returns what changed, for the
  // caller to publish. Withdrawn terms lose their cursors, then each term
  // of an answered poll, withdrawn or not, takes the poll's answer. When
  // `ranked_out` is non-null it receives the full Score(t,D) ranking the
  // verdicts were drawn from (for the explain ledger).
  IndexUpdate LearnAndRetune(OwnedDocument& doc, const PollPlan& polled,
                             const std::vector<const QueryRecord*>& pulled,
                             const SpriteConfig& config,
                             std::vector<ScoredTerm>* ranked_out = nullptr)
      const;

  // eSearch growth step: statically adds the next most frequent unindexed
  // terms (no query feedback). Never evicts.
  IndexUpdate GrowStatic(OwnedDocument& doc, const SpriteConfig& config) const;

 private:
  PeerId id_;
  std::map<DocId, OwnedDocument> docs_;
};

}  // namespace sprite::core

#endif  // SPRITE_CORE_OWNER_PEER_H_
