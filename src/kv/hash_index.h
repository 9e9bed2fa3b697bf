// Latch-free hash index with FASTER's tagged buckets (Chandramouli et al.,
// SIGMOD 2018). The index is an array of 64-byte buckets of 8 atomic
// words. A word holds a 48-bit log address (the newest record of its
// chain), a 15-bit tag and a tentative bit. A key's bucket comes from the
// low hash bits and its tag from hash bits 33-47 (ShardOf takes bits 48 and
// up, so the tag shares no bits with either). Each tag in a bucket heads
// its own record chain, linked through Record::prev newest first, so a
// lookup walks only the records of keys with its bucket and tag; the walk
// still compares full keys.
//
// Entries are never removed, so a bucket holding 8 final entries is full
// for good. In a full bucket, a tag without its own entry shares the chain
// of the entry whose tag follows it cyclically. That choice depends only on
// the bucket's set of tags, not on which word each tag landed in, so the
// key -> chain mapping is stable across Grow, checkpoints, and the tail
// replay of recovery (which may insert tags in a different order).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/hash.h"
#include "common/status.h"
#include "kv/record.h"

namespace mlkv {

class FileDevice;

class HashIndex {
 public:
  static constexpr uint32_t kEntriesPerBucket = 8;

  // `num_slots` counts index words (8 per bucket); it is rounded up to a
  // power of two, and to at least two buckets.
  explicit HashIndex(uint64_t num_slots);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  // Head of `key`'s chain, or kInvalidAddress if its bucket has no entry
  // for its tag (and is not full).
  Address Load(Key key) const;

  // Publishes `desired` as the chain head if the head is still `expected`;
  // on failure `expected` receives the current head. A key whose tag has no
  // entry yet inserts one (expected == kInvalidAddress) with FASTER's
  // tentative-bit protocol: the entry goes in tentative, backs off if the
  // bucket holds another entry with the same tag, and becomes final
  // otherwise.
  bool CompareExchange(Key key, Address& expected, Address desired);

  // True if `a` and `b` resolve to one record chain: same bucket and tag,
  // or a full bucket that routes both tags to one entry.
  bool SharesChain(Key a, Key b) const;

  uint64_t num_slots() const {
    return (bucket_mask_ + 1) * kEntriesPerBucket;
  }

  // Raw word access for incremental checkpoints: a delta record stores
  // (word index, word) pairs for entries whose address moved since the
  // base, and recovery reapplies them positionally.
  uint64_t LoadWord(uint64_t i) const {
    return buckets_[i / kEntriesPerBucket]
        .entries[i % kEntriesPerBucket]
        .load(std::memory_order_acquire);
  }
  void StoreWord(uint64_t i, uint64_t word) {
    buckets_[i / kEntriesPerBucket]
        .entries[i % kEntriesPerBucket]
        .store(word, std::memory_order_release);
  }
  static Address AddressOf(uint64_t word) { return word & kAddressMask; }

  // Number of occupied words (diagnostics / tests).
  uint64_t CountUsed() const;

  // Doubles the bucket array `factor_log2` times (FASTER's index growth).
  // Every new bucket that an old bucket's keys can rehash to receives a
  // copy of its 8 words, so each key keeps resolving to the chain it had
  // (lookups compare full keys and skip entries that rehashed elsewhere);
  // chains thin out as later publishes go to the refined buckets. NOT
  // thread-safe: the caller must guarantee no concurrent index operations,
  // same as the checkpoint contract (see FasterStore::GrowIndex).
  Status Grow(uint32_t factor_log2 = 1);

  // Serializes / restores the raw words for checkpointing.
  Status WriteTo(FileDevice* dev, uint64_t offset) const;
  Status ReadFrom(const FileDevice& dev, uint64_t offset);

 private:
  static constexpr uint64_t kAddressMask = (uint64_t{1} << 48) - 1;
  static constexpr uint64_t kTagMask = 0x7FFF;
  static constexpr uint64_t kTentativeBit = uint64_t{1} << 63;
  static constexpr int kNone = -1;

  struct alignas(64) Bucket {
    std::atomic<uint64_t> entries[kEntriesPerBucket];
  };

  static uint64_t TagOf(uint64_t hash) { return (hash >> 33) & kTagMask; }
  static uint64_t WordTag(uint64_t word) { return (word >> 48) & kTagMask; }
  Bucket& BucketOf(uint64_t hash) const {
    return buckets_[hash & bucket_mask_];
  }
  // The final entry `tag` resolves to in `b` (its own, or the shared one
  // of a full bucket), with its word in *word; kNone if there is none yet.
  static int Resolve(const Bucket& b, uint64_t tag, uint64_t* word);

  // `n` zeroed buckets on 64-byte boundaries inside a plain byte array
  // (returned; it owns *buckets). An over-aligned `new Bucket[n]` goes
  // through memalign, whose freed chunks a later index of the same size
  // often cannot reuse: reopening a store with an 8 MiB index 25 times in
  // one process raised peak RSS from 80 to 147 MB.
  static std::unique_ptr<char[]> AllocateBuckets(uint64_t n, Bucket** buckets);

  uint64_t bucket_mask_;
  std::unique_ptr<char[]> storage_;
  Bucket* buckets_;
};

}  // namespace mlkv
