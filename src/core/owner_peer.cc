#include "core/owner_peer.h"

#include <algorithm>

#include "common/check.h"

namespace sprite::core {

bool OwnedDocument::IsIndexed(const std::string& term) const {
  return std::find(index_terms.begin(), index_terms.end(), term) !=
         index_terms.end();
}

PollCursor OwnedDocument::CursorOf(TermId term) const {
  auto it = poll_cursor.find(term);
  return it == poll_cursor.end() ? PollCursor{} : it->second;
}

PostingEntry MakePosting(const OwnedDocument& owned, const std::string& term,
                         PeerId owner) {
  PostingEntry entry;
  entry.doc = owned.content->id;
  entry.owner = owner;
  entry.term_freq = owned.content->terms.Count(term);
  entry.doc_length = static_cast<uint32_t>(owned.content->length());
  entry.num_distinct_terms =
      static_cast<uint32_t>(owned.content->num_distinct_terms());
  return entry;
}

PollPlan PlanPolls(
    const OwnedDocument& doc, const dht::IdSpace& space,
    const std::function<std::optional<PeerId>(uint64_t key)>& member_of) {
  // Index terms were interned when first published, so these Intern calls
  // are lookups: a parallel plan never assigns a new id here.
  text::TermDict& dict = text::TermDict::Global();
  PollPlan plan;
  plan.terms.reserve(doc.index_terms.size());
  plan.keys.reserve(doc.index_terms.size());
  std::map<PeerId, std::vector<TermId>> by_member;
  for (const std::string& term : doc.index_terms) {
    const TermId id = dict.Intern(term);
    const uint64_t key = space.Truncate(dict.RawKeyOf(id));
    plan.terms.push_back(id);
    plan.keys.push_back(key);
    if (const auto member = member_of(key)) by_member[*member].push_back(id);
  }
  plan.polls.reserve(by_member.size());
  for (auto& [member, terms] : by_member) {
    plan.polls.push_back({member, std::move(terms), std::nullopt});
  }
  return plan;
}

OwnedDocument& OwnerPeer::AdoptDocument(const corpus::Document* doc) {
  SPRITE_CHECK(doc != nullptr);
  OwnedDocument& owned = docs_[doc->id];
  owned.content = doc;
  return owned;
}

OwnedDocument* OwnerPeer::document(DocId id) {
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : &it->second;
}

const OwnedDocument* OwnerPeer::document(DocId id) const {
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : &it->second;
}

std::vector<std::string> OwnerPeer::SelectInitialTerms(
    const corpus::Document& doc, size_t count) {
  std::vector<std::string> terms;
  for (auto& tf : doc.terms.TopK(count)) terms.push_back(std::move(tf.term));
  return terms;
}

OwnerPeer::IndexUpdate OwnerPeer::LearnAndRetune(
    OwnedDocument& doc, const PollPlan& polled,
    const std::vector<const QueryRecord*>& pulled, const SpriteConfig& config,
    std::vector<ScoredTerm>* ranked_out) const {
  SPRITE_CHECK(doc.content != nullptr);

  // Keep only issuances not yet folded into the statistics.
  std::vector<const QueryRecord*> fresh;
  fresh.reserve(pulled.size());
  for (const QueryRecord* q : pulled) {
    if (doc.processed_seqs.insert(q->seq).second) fresh.push_back(q);
  }

  const std::vector<ScoredTerm> ranked = ProcessQueriesAndRank(
      doc.content->terms, doc.stats, fresh, config.score_variant);
  if (ranked_out != nullptr) *ranked_out = ranked;

  IndexUpdate update;

  // Additions: the highest-ranked candidate terms not already indexed.
  for (const ScoredTerm& cand : ranked) {
    if (update.add.size() >= config.terms_per_iteration) break;
    if (!doc.IsIndexed(cand.term) &&
        std::find(update.add.begin(), update.add.end(), cand.term) ==
            update.add.end()) {
      update.add.push_back(cand.term);
    }
  }

  std::vector<std::string> members = doc.index_terms;
  members.insert(members.end(), update.add.begin(), update.add.end());

  if (members.size() > config.max_index_terms) {
    // Evict the lowest-ranked members. Members that have never matched a
    // query rank below every queried term (score sentinel -1) and among
    // themselves by in-document frequency — the criterion that picked them
    // initially.
    std::unordered_map<std::string, const ScoredTerm*> by_term;
    for (const ScoredTerm& cand : ranked) by_term[cand.term] = &cand;

    std::vector<ScoredTerm> scored_members;
    scored_members.reserve(members.size());
    for (const std::string& term : members) {
      auto it = by_term.find(term);
      if (it != by_term.end()) {
        scored_members.push_back(*it->second);
      } else {
        ScoredTerm st;
        st.term = term;
        st.score = -1.0;
        st.query_freq = 0;
        st.doc_freq_in_doc = doc.content->terms.Count(term);
        scored_members.push_back(std::move(st));
      }
    }
    std::sort(scored_members.begin(), scored_members.end(), ScoredTermLess);
    scored_members.resize(config.max_index_terms);

    std::vector<std::string> kept;
    kept.reserve(scored_members.size());
    for (auto& st : scored_members) kept.push_back(std::move(st.term));

    for (const std::string& term : members) {
      if (std::find(kept.begin(), kept.end(), term) == kept.end()) {
        // Terms that were about to be added but fell out of the cap are not
        // "removals": they were never published.
        if (doc.IsIndexed(term)) {
          update.remove.push_back(term);
        } else {
          auto add_it =
              std::find(update.add.begin(), update.add.end(), term);
          if (add_it != update.add.end()) update.add.erase(add_it);
        }
      }
    }
    members = std::move(kept);
  }

  // Preserve publication order for surviving terms, then append additions
  // in rank order.
  std::vector<std::string> new_terms;
  new_terms.reserve(members.size());
  for (const std::string& term : doc.index_terms) {
    if (std::find(members.begin(), members.end(), term) != members.end()) {
      new_terms.push_back(term);
    }
  }
  for (const std::string& term : update.add) {
    if (std::find(members.begin(), members.end(), term) != members.end()) {
      new_terms.push_back(term);
    }
  }
  doc.index_terms = std::move(new_terms);

  for (const std::string& term : update.remove) {
    doc.poll_cursor.erase(text::TermDict::Global().Lookup(term));
  }
  for (const PollPlan::Poll& poll : polled.polls) {
    if (!poll.answer) continue;
    for (const TermId t : poll.my_terms) doc.poll_cursor[t] = *poll.answer;
  }

  return update;
}

OwnerPeer::IndexUpdate OwnerPeer::GrowStatic(OwnedDocument& doc,
                                             const SpriteConfig& config) const {
  SPRITE_CHECK(doc.content != nullptr);
  IndexUpdate update;
  if (doc.index_terms.size() >= config.max_index_terms) return update;
  const size_t budget =
      std::min(config.terms_per_iteration,
               config.max_index_terms - doc.index_terms.size());
  for (const auto& tf : doc.content->terms.SortedTerms()) {
    if (update.add.size() >= budget) break;
    if (!doc.IsIndexed(tf.term)) update.add.push_back(tf.term);
  }
  doc.index_terms.insert(doc.index_terms.end(), update.add.begin(),
                         update.add.end());
  return update;
}

}  // namespace sprite::core
