#include "kv/hash_index.h"

#include <new>
#include <thread>
#include <vector>

#include "io/file_device.h"

namespace mlkv {

HashIndex::HashIndex(uint64_t num_slots) {
  const uint64_t words = RoundUpPow2(num_slots < 16 ? 16 : num_slots);
  const uint64_t n = words / kEntriesPerBucket;
  bucket_mask_ = n - 1;
  storage_ = AllocateBuckets(n, &buckets_);
}

std::unique_ptr<char[]> HashIndex::AllocateBuckets(uint64_t n,
                                                   Bucket** buckets) {
  std::unique_ptr<char[]> storage(new char[n * sizeof(Bucket) + 63]);
  const auto at = reinterpret_cast<uintptr_t>(storage.get());
  Bucket* b = reinterpret_cast<Bucket*>((at + 63) & ~uintptr_t{63});
  for (uint64_t i = 0; i < n; ++i) {
    new (&b[i]) Bucket;
    for (auto& e : b[i].entries) e.store(0, std::memory_order_relaxed);
  }
  *buckets = b;
  return storage;
}

int HashIndex::Resolve(const Bucket& b, uint64_t tag, uint64_t* word) {
  uint32_t finals = 0;
  int shared = kNone;
  uint64_t shared_word = 0;
  uint64_t best = kTagMask + 1;
  for (uint32_t i = 0; i < kEntriesPerBucket; ++i) {
    const uint64_t w = b.entries[i].load(std::memory_order_acquire);
    if (w == 0 || (w & kTentativeBit) != 0) continue;
    if (WordTag(w) == tag) {
      *word = w;
      return static_cast<int>(i);
    }
    ++finals;
    const uint64_t dist = (WordTag(w) - tag) & kTagMask;
    if (dist < best) {
      best = dist;
      shared = static_cast<int>(i);
      shared_word = w;
    }
  }
  if (finals < kEntriesPerBucket) return kNone;
  *word = shared_word;
  return shared;
}

Address HashIndex::Load(Key key) const {
  const uint64_t h = Hash64(key);
  uint64_t w = 0;
  return Resolve(BucketOf(h), TagOf(h), &w) == kNone ? kInvalidAddress
                                                      : AddressOf(w);
}

bool HashIndex::CompareExchange(Key key, Address& expected,
                                Address desired) {
  const uint64_t h = Hash64(key);
  const uint64_t tag = TagOf(h);
  Bucket& b = BucketOf(h);
  for (;;) {
    uint64_t w = 0;
    const int i = Resolve(b, tag, &w);
    if (i != kNone) {
      // A final entry keeps its tag for good: only its address moves.
      uint64_t want = (w & ~kAddressMask) | expected;
      if (b.entries[i].compare_exchange_strong(
              want, (w & ~kAddressMask) | desired, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        return true;
      }
      expected = AddressOf(want);
      return false;
    }
    if (expected != kInvalidAddress) {
      expected = kInvalidAddress;
      return false;
    }
    // Insert a new tag: claim a free word as tentative, then look for a
    // rival entry with the same tag. Both sides of that check are seq_cst,
    // so of two racing inserts at least one sees the other and backs off.
    int slot = kNone;
    for (uint32_t j = 0; j < kEntriesPerBucket && slot == kNone; ++j) {
      uint64_t free_word = 0;
      if (b.entries[j].load(std::memory_order_relaxed) == 0 &&
          b.entries[j].compare_exchange_strong(
              free_word, kTentativeBit | (tag << 48) | desired,
              std::memory_order_seq_cst)) {
        slot = static_cast<int>(j);
      }
    }
    if (slot == kNone) {  // every word taken, some still tentative
      std::this_thread::yield();
      continue;
    }
    bool rival = false;
    for (uint32_t j = 0; j < kEntriesPerBucket && !rival; ++j) {
      if (static_cast<int>(j) == slot) continue;
      const uint64_t o = b.entries[j].load(std::memory_order_seq_cst);
      rival = o != 0 && WordTag(o) == tag;
    }
    if (rival) {
      b.entries[slot].store(0, std::memory_order_seq_cst);
      std::this_thread::yield();
      continue;
    }
    b.entries[slot].store((tag << 48) | desired, std::memory_order_release);
    return true;
  }
}

bool HashIndex::SharesChain(Key a, Key b) const {
  const uint64_t ha = Hash64(a);
  const uint64_t hb = Hash64(b);
  if ((ha & bucket_mask_) != (hb & bucket_mask_)) return false;
  if (TagOf(ha) == TagOf(hb)) return true;
  const Bucket& bucket = BucketOf(ha);
  uint64_t w = 0;
  const int ia = Resolve(bucket, TagOf(ha), &w);
  return ia != kNone && ia == Resolve(bucket, TagOf(hb), &w);
}

Status HashIndex::Grow(uint32_t factor_log2) {
  if (factor_log2 == 0) return Status::OK();
  const uint64_t old_n = bucket_mask_ + 1;
  // The bucket bits must stay below the tag bits (33-47).
  if (factor_log2 > 16 || (old_n << factor_log2) > (uint64_t{1} << 33)) {
    return Status::InvalidArgument("index growth factor too large");
  }
  const uint64_t new_n = old_n << factor_log2;
  Bucket* grown = nullptr;
  std::unique_ptr<char[]> storage = AllocateBuckets(new_n, &grown);
  // hash & new_mask == (hash & old_mask) + k * old_n for some k, so bucket
  // i's keys can only rehash to buckets {i, i+old_n, i+2*old_n, ...}; each
  // receives bucket i's words, tags and positions included.
  for (uint64_t i = 0; i < old_n; ++i) {
    for (uint32_t j = 0; j < kEntriesPerBucket; ++j) {
      const uint64_t w = buckets_[i].entries[j].load(std::memory_order_relaxed);
      for (uint64_t k = 0; k < (uint64_t{1} << factor_log2); ++k) {
        grown[i + k * old_n].entries[j].store(w, std::memory_order_relaxed);
      }
    }
  }
  storage_ = std::move(storage);
  buckets_ = grown;
  bucket_mask_ = new_n - 1;
  return Status::OK();
}

uint64_t HashIndex::CountUsed() const {
  uint64_t used = 0;
  for (uint64_t i = 0; i < num_slots(); ++i) {
    if (LoadWord(i) != 0) ++used;
  }
  return used;
}

Status HashIndex::WriteTo(FileDevice* dev, uint64_t offset) const {
  // Snapshot into a plain buffer; checkpoints are taken quiesced, so a
  // copy of each word is a consistent image (with no tentative entries).
  const uint64_t n = num_slots();
  std::vector<uint64_t> buf(n);
  for (uint64_t i = 0; i < n; ++i) buf[i] = LoadWord(i);
  return dev->WriteAt(offset, buf.data(), n * sizeof(uint64_t));
}

Status HashIndex::ReadFrom(const FileDevice& dev, uint64_t offset) {
  const uint64_t n = num_slots();
  std::vector<uint64_t> buf(n);
  MLKV_RETURN_NOT_OK(dev.ReadAt(offset, buf.data(), n * sizeof(uint64_t)));
  for (uint64_t i = 0; i < n; ++i) StoreWord(i, buf[i]);
  return Status::OK();
}

}  // namespace mlkv
