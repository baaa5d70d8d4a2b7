#ifndef SPRITE_CORE_TYPES_H_
#define SPRITE_CORE_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "corpus/document.h"
#include "corpus/query.h"
#include "p2p/message.h"
#include "store/stored_postings.h"
#include "text/term_dict.h"

namespace sprite::core {

using corpus::DocId;
using corpus::QueryId;
using p2p::PeerId;
using text::kInvalidTermId;
using text::TermDict;
using text::TermId;

// The message payload types live in the message layer (p2p/message.h) since
// ISSUE 8's transport extraction — they cross the wire on publish, fetch,
// replicate and poll. Core re-exports them under their historical names;
// p2p::DocId and corpus::DocId are the same underlying type.
using p2p::PollCursor;
using p2p::PostingEntry;
using p2p::QueryRecord;
static_assert(std::is_same_v<p2p::DocId, corpus::DocId>,
              "message-layer and corpus doc ids must agree");
static_assert(p2p::kInvalidDocId == corpus::kInvalidDocId,
              "sentinel doc ids must agree");

// A term's inverted list. Peers hold lists behind shared_ptr so a fetch
// during query processing shares an immutable snapshot instead of deep-
// copying the vector; mutators copy-on-write before touching a shared list
// (so a snapshot handed out earlier stays frozen, exactly like the deep
// copy it replaces).
using PostingList = std::vector<PostingEntry>;
using PostingListPtr = std::shared_ptr<const PostingList>;

// The compressed block-encoded form peers actually hold (src/store,
// DESIGN.md §15). Snapshot() bridges to PostingListPtr.
using store::StoredPostings;
using store::StoredPostingsPtr;
static_assert(std::is_same_v<store::PostingList, PostingList>,
              "store and core posting lists must be the same type");

// The result of fetching one term's inverted list during query processing.
// The *indexed document frequency* n'_k of Section 4 is postings->size().
// `postings` is never null: unknown terms share a static empty list.
struct RetrievedList {
  TermId term = kInvalidTermId;
  PostingListPtr postings;
};

// The shared empty list used when a term has no postings anywhere.
inline const PostingListPtr& EmptyPostingList() {
  static const PostingListPtr empty = std::make_shared<PostingList>();
  return empty;
}

}  // namespace sprite::core

#endif  // SPRITE_CORE_TYPES_H_
