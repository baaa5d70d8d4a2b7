#ifndef SPRITE_IR_RANKED_LIST_H_
#define SPRITE_IR_RANKED_LIST_H_

#include <cstddef>
#include <vector>

#include "corpus/document.h"

namespace sprite::ir {

// One entry of a ranked result list.
struct ScoredDoc {
  corpus::DocId doc = corpus::kInvalidDocId;
  double score = 0.0;

  friend bool operator==(const ScoredDoc& a, const ScoredDoc& b) {
    return a.doc == b.doc && a.score == b.score;
  }
};

// Results ordered by descending score (ties: ascending DocId, so that every
// ranking in the library is deterministic).
using RankedList = std::vector<ScoredDoc>;

// That order as a comparator: true when `a` ranks before `b`.
struct RanksBefore {
  bool operator()(const ScoredDoc& a, const ScoredDoc& b) const {
    return a.score != b.score ? a.score > b.score : a.doc < b.doc;
  }
};

// Sorts `entries` into ranked order and truncates to the top `k`
// (k == 0 keeps everything).
void SortRankedList(RankedList& entries, size_t k = 0);

// The rank (0-based) of `doc` in `list`, or -1 when absent.
int FindRank(const RankedList& list, corpus::DocId doc);

}  // namespace sprite::ir

#endif  // SPRITE_IR_RANKED_LIST_H_
