#ifndef SPRITE_STORE_STORED_POSTINGS_H_
#define SPRITE_STORE_STORED_POSTINGS_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "store/postings.h"

namespace sprite::store {

// Knobs for the in-memory posting store, mirrored from SpriteConfig.
struct StoreOptions {
  // Postings per compressed block (skip-table granularity).
  size_t block_size = 64;
  // Lists shorter than this stay raw: the blob header plus the per-list
  // owner table would cost more than the entries save.
  size_t compress_min_entries = 8;
};

class StoredPostings;
using StoredPostingsPtr = std::shared_ptr<const StoredPostings>;

// One term's posting list as an indexing peer holds it: an immutable
// sealed compressed prefix plus a short raw tail of recent appends, sorted
// by strictly increasing doc id end to end. Mutators are functional — they
// return a new StoredPostings (or `this` when nothing changed) so
// snapshots handed to in-flight queries stay frozen, exactly like the
// copy-on-write vectors they replace.
//
// Snapshot() memoizes the decoded PostingList once per object (thread-safe
// via once_flag: the parallel plan phase fetches concurrently), so repeated
// fetches of a hot term cost one refcount bump, and the pointer a given
// StoredPostings hands out is stable for the epoch engine's pre-rank reuse.
class StoredPostings : public std::enable_shared_from_this<StoredPostings> {
 public:
  // The canonical empty list for `options`.
  static StoredPostingsPtr Empty(const StoreOptions& options);

  // Builds from a sorted list, sealing it when it reaches
  // compress_min_entries. kInvalidArgument on unsorted/duplicate/sentinel
  // doc ids.
  static StatusOr<StoredPostingsPtr> FromList(PostingList list,
                                              const StoreOptions& options);

  // FromList for lists already known sorted (asserts in debug builds).
  static StoredPostingsPtr FromSortedList(PostingList list,
                                          const StoreOptions& options);

  // Adopts an already-parsed blob (segment recovery); fully sealed.
  static StoredPostingsPtr FromCompressed(CompressedPostingsPtr compressed,
                                          const StoreOptions& options);

  size_t size() const { return sealed_count() + tail_.size(); }
  bool empty() const { return size() == 0; }
  const StoreOptions& options() const { return options_; }

  // Bytes of the equivalent vector<PostingEntry> representation.
  size_t raw_bytes() const { return size() * sizeof(PostingEntry); }
  // Bytes this object actually holds: sealed blob + raw tail entries.
  size_t encoded_bytes() const {
    return (sealed_ ? sealed_->encoded_bytes() : 0) +
           tail_.size() * sizeof(PostingEntry);
  }

  // Seeks one doc, decoding at most one sealed block. Returns true and
  // fills `*out` (when non-null) if present.
  bool FindDoc(DocId doc, PostingEntry* out) const;

  // The full decoded list, memoized. Never null.
  std::shared_ptr<const PostingList> Snapshot() const;

  // Returns a list with `entry` added or replaced at its doc id; `this`
  // when an identical entry is already present. `*changed` reports whether
  // the content differs (the version-bump signal).
  StoredPostingsPtr Upserted(const PostingEntry& entry, bool* changed) const;

  // Returns a list without `doc`; `this` when absent. `*erased` reports
  // whether an entry was removed.
  StoredPostingsPtr Erased(DocId doc, bool* erased) const;

  // Content equality without forcing a decode when sizes already differ.
  bool SameContent(const StoredPostings& other) const;

  // Canonical full encoding of every entry at this object's block size —
  // the bytes a segment flush writes. Deterministic for given contents.
  std::vector<uint8_t> EncodeAll() const;

 private:
  StoredPostings(CompressedPostingsPtr sealed, PostingList tail,
                 const StoreOptions& options)
      : sealed_(std::move(sealed)),
        tail_(std::move(tail)),
        options_(options) {}

  static StoredPostingsPtr New(CompressedPostingsPtr sealed, PostingList tail,
                               const StoreOptions& options);

  // Rebuilds from the full sorted list, sealing per the size policy.
  static StoredPostingsPtr Rebuild(PostingList all,
                                   const StoreOptions& options);

  size_t sealed_count() const { return sealed_ ? sealed_->size() : 0; }

  const CompressedPostingsPtr sealed_;  // null when fully raw
  const PostingList tail_;              // docs strictly above the sealed max
  const StoreOptions options_;

  mutable std::once_flag snapshot_once_;
  mutable std::shared_ptr<const PostingList> snapshot_;
};

}  // namespace sprite::store

#endif  // SPRITE_STORE_STORED_POSTINGS_H_
