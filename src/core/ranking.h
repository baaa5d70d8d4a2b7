// The Lee et al. accumulation every SPRITE ranker runs (Section 4): the
// simulation's search (live ranking and the epoch engine's pre-rank) and the
// live ClusterNode. One copy of the arithmetic keeps sim and cluster scores
// bit-identical for identical posting sets in identical list order.
//
// Per list: skip it when empty or when its idf is 0. The remaining lists are
// merged document at a time, one cursor per list: each document's dot
// product starts at 0.0 and adds idf * tf_norm * idf from every list that
// holds it, in list order, and its distinct-term count is the last such
// list's. The score is LeeNormalize of the two; scores > 0 compete for the
// top k in SortRankedList order.
//
// Precondition: every list is sorted by strictly increasing doc id. Stored
// snapshots guarantee it (store/postings.h), and the wire rejects a list
// that breaks it (net/wire.cc), so no caller sorts.

#ifndef SPRITE_CORE_RANKING_H_
#define SPRITE_CORE_RANKING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "ir/ranked_list.h"
#include "ir/similarity.h"

namespace sprite::core {

// Observers of the accumulation (the explain ledger); they never change it.
// OnListIdf runs once per non-empty list, before any contribution. Per
// document, OnContribution runs for each list holding it, in list order,
// then OnCandidate reports the distinct-term count its score divides by.
struct NoRankHooks {
  void OnListIdf(TermId, double) {}
  void OnContribution(TermId, const PostingEntry&, double) {}
  void OnCandidate(DocId, uint32_t) {}
};

// Ranks `lists` against a corpus of `corpus_size` documents. `fetched` (the
// total posting count) bounds the candidates kept when k = 0, which keeps
// them all.
template <typename Hooks>
ir::RankedList RankRetrievedLists(const std::vector<RetrievedList>& lists,
                                  double corpus_size, size_t fetched,
                                  size_t k, Hooks& hooks) {
  struct Cursor {
    TermId term;
    double idf;
    const PostingEntry* at;
    const PostingEntry* end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(lists.size());
  for (const RetrievedList& rl : lists) {
    if (rl.postings == nullptr || rl.postings->empty()) continue;
    const double idf =
        ir::Idf(corpus_size, static_cast<uint32_t>(rl.postings->size()));
    hooks.OnListIdf(rl.term, idf);
    if (idf == 0.0) continue;
    cursors.push_back({rl.term, idf, rl.postings->data(),
                       rl.postings->data() + rl.postings->size()});
  }
  // With k > 0, `top` is a heap of the best k so far whose front is the
  // worst of them.
  ir::RankedList top;
  top.reserve(k == 0 ? fetched : std::min(k, fetched));
  while (!cursors.empty()) {
    DocId doc = cursors.front().at->doc;
    for (const Cursor& c : cursors) doc = std::min(doc, c.at->doc);
    double dot = 0.0;
    uint32_t distinct_terms = 0;
    bool exhausted = false;
    for (Cursor& c : cursors) {
      if (c.at->doc != doc) continue;
      const double w = c.idf * c.at->NormalizedTf() * c.idf;
      dot += w;
      distinct_terms = c.at->num_distinct_terms;
      hooks.OnContribution(c.term, *c.at, w);
      exhausted |= ++c.at == c.end;
    }
    hooks.OnCandidate(doc, distinct_terms);
    if (exhausted) {  // finished lists leave; the rest keep their order
      cursors.erase(
          std::remove_if(cursors.begin(), cursors.end(),
                         [](const Cursor& c) { return c.at == c.end; }),
          cursors.end());
    }
    const ir::ScoredDoc scored{doc, ir::LeeNormalize(dot, distinct_terms)};
    if (!(scored.score > 0.0)) continue;
    if (k == 0 || top.size() < k) {
      top.push_back(scored);
      if (k != 0) std::push_heap(top.begin(), top.end(), ir::RanksBefore());
    } else if (ir::RanksBefore()(scored, top.front())) {
      std::pop_heap(top.begin(), top.end(), ir::RanksBefore());
      top.back() = scored;
      std::push_heap(top.begin(), top.end(), ir::RanksBefore());
    }
  }
  ir::SortRankedList(top, k);
  return top;
}

inline ir::RankedList RankRetrievedLists(
    const std::vector<RetrievedList>& lists, double corpus_size,
    size_t fetched, size_t k) {
  NoRankHooks hooks;
  return RankRetrievedLists(lists, corpus_size, fetched, k, hooks);
}

// The same ranking over bare posting lists (no term ids, no hooks).
inline ir::RankedList RankPostingLists(
    const std::vector<PostingListPtr>& postings, double corpus_size,
    size_t fetched, size_t k) {
  std::vector<RetrievedList> lists;
  lists.reserve(postings.size());
  for (const PostingListPtr& p : postings) lists.push_back({kInvalidTermId, p});
  return RankRetrievedLists(lists, corpus_size, fetched, k);
}

}  // namespace sprite::core

#endif  // SPRITE_CORE_RANKING_H_
