#include "ir/ranked_list.h"

#include "common/topk.h"

namespace sprite::ir {

void SortRankedList(RankedList& entries, size_t k) {
  // Bounded selection: (score desc, doc asc) is a total order over the
  // distinct docs of a ranked list, so the surviving top-k prefix is
  // byte-identical to a full sort + truncate.
  TopKInPlace(entries, k, RanksBefore());
}

int FindRank(const RankedList& list, corpus::DocId doc) {
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].doc == doc) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace sprite::ir
