#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "io/file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/hash_index.h"

namespace mlkv {
namespace {

TEST(HashIndexTest, RoundsSlotsToPowerOfTwo) {
  HashIndex idx(1000);
  EXPECT_EQ(idx.num_slots(), 1024u);
  HashIndex tiny(1);
  EXPECT_EQ(tiny.num_slots(), 16u);
}

TEST(HashIndexTest, EmptySlotsReadInvalid) {
  HashIndex idx(64);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(idx.Load(k), kInvalidAddress);
  EXPECT_EQ(idx.CountUsed(), 0u);
}

TEST(HashIndexTest, CompareExchangePublishes) {
  HashIndex idx(64);
  Address expected = kInvalidAddress;
  EXPECT_TRUE(idx.CompareExchange(7, expected, 0x100));
  EXPECT_EQ(idx.Load(7), 0x100u);
  // Second CAS with stale expected fails and reports current value.
  expected = kInvalidAddress;
  EXPECT_FALSE(idx.CompareExchange(7, expected, 0x200));
  EXPECT_EQ(expected, 0x100u);
}

TEST(HashIndexTest, ConcurrentCasOneWinnerPerSlot) {
  HashIndex idx(16);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Address expected = kInvalidAddress;
      if (idx.CompareExchange(42, expected,
                              static_cast<Address>(0x1000 + t))) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(HashIndexTest, CheckpointRoundTrip) {
  TempDir dir;
  HashIndex idx(256);
  for (Key k = 0; k < 100; ++k) {
    Address e = kInvalidAddress;
    idx.CompareExchange(k, e, 0x40 + k * 8);
  }
  const uint64_t used = idx.CountUsed();
  EXPECT_GT(used, 0u);

  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("idx")).ok());
  ASSERT_TRUE(idx.WriteTo(&dev, 0).ok());

  HashIndex restored(256);
  ASSERT_TRUE(restored.ReadFrom(dev, 0).ok());
  EXPECT_EQ(restored.CountUsed(), used);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(restored.Load(k), idx.Load(k));
}


TEST(HashIndexGrowTest, GrowDoublesSlotCount) {
  HashIndex idx(64);
  ASSERT_TRUE(idx.Grow().ok());
  EXPECT_EQ(idx.num_slots(), 128u);
  ASSERT_TRUE(idx.Grow(2).ok());
  EXPECT_EQ(idx.num_slots(), 512u);
}

TEST(HashIndexGrowTest, GrowZeroIsANoOp) {
  HashIndex idx(64);
  ASSERT_TRUE(idx.Grow(0).ok());
  EXPECT_EQ(idx.num_slots(), 64u);
}

TEST(HashIndexGrowTest, RejectsAbsurdFactor) {
  HashIndex idx(64);
  EXPECT_TRUE(idx.Grow(40).IsInvalidArgument());
}

TEST(HashIndexGrowTest, ChainsRemainReachableAfterGrowth) {
  HashIndex idx(16);
  // Publish a head for many keys; most slots carry multi-key chains.
  for (Key k = 0; k < 200; ++k) {
    Address e = idx.Load(k);
    idx.CompareExchange(k, e, 0x40 + k * 8);
  }
  std::vector<Address> before(200);
  for (Key k = 0; k < 200; ++k) before[k] = idx.Load(k);
  ASSERT_TRUE(idx.Grow(3).ok());  // 16 -> 128 slots
  for (Key k = 0; k < 200; ++k) {
    // The head a key observes after growth must be the head its old slot
    // held (all candidate new slots were seeded with it).
    EXPECT_EQ(idx.Load(k), before[k]) << "key " << k;
  }
}

TEST(HashIndexGrowTest, NewPublishesUseRefinedSlots) {
  HashIndex idx(16);
  HashIndex grown(32);
  Key a = 0;
  // Find two keys that share a chain at 16 slots but not at 32.
  Key b = 0;
  bool found = false;
  for (Key cand = 1; cand < 10000000 && !found; ++cand) {
    if (idx.SharesChain(a, cand) && !grown.SharesChain(a, cand)) {
      b = cand;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  Address e = idx.Load(a);
  idx.CompareExchange(a, e, 0x100);
  EXPECT_EQ(idx.Load(b), Address{0x100});  // shared slot pre-growth
  ASSERT_TRUE(idx.Grow().ok());
  // Publish b's record: lands in its refined slot, leaving a's untouched.
  e = idx.Load(b);
  idx.CompareExchange(b, e, 0x200);
  EXPECT_EQ(idx.Load(b), Address{0x200});
  EXPECT_EQ(idx.Load(a), Address{0x100});
}

// --- Tagged buckets. The layout under test: a key's bucket is its low hash
// bits, its tag hash bits 33-47.
uint64_t BucketOf(const HashIndex& idx, Key k) {
  return Hash64(k) & (idx.num_slots() / HashIndex::kEntriesPerBucket - 1);
}
uint64_t TagOf(Key k) { return (Hash64(k) >> 33) & 0x7FFF; }

// `n` keys in bucket 0 of `idx` with pairwise distinct tags.
std::vector<Key> DistinctTagsInBucketZero(const HashIndex& idx, size_t n) {
  std::vector<Key> keys;
  std::set<uint64_t> tags;
  for (Key k = 0; keys.size() < n; ++k) {
    if (BucketOf(idx, k) == 0 && tags.insert(TagOf(k)).second) {
      keys.push_back(k);
    }
  }
  return keys;
}

// A toy log: each published address records its key and the chain head it
// was linked to, so tests can walk chains the way FasterStore::Find does.
struct ToyLog {
  std::map<Address, std::pair<Key, Address>> records;
  Address next = 0x40;

  void Publish(HashIndex* idx, Key key) {
    const Address addr = next;
    next += 0x40;
    Address e = idx->Load(key);
    while (!idx->CompareExchange(key, e, addr)) {
    }
    records[addr] = {key, e};
  }
  // Walks `key`'s chain from its head; true if a record of `key` is on it.
  bool Reachable(const HashIndex& idx, Key key) const {
    for (Address a = idx.Load(key); a != kInvalidAddress;
         a = records.at(a).second) {
      if (records.at(a).first == key) return true;
    }
    return false;
  }
};

TEST(HashIndexTagTest, TwoTagsInOneBucketGetSeparateChains) {
  HashIndex idx(64);
  const std::vector<Key> keys = DistinctTagsInBucketZero(idx, 2);
  const Key a = keys[0];
  const Key b = keys[1];
  EXPECT_FALSE(idx.SharesChain(a, b));
  ToyLog log;
  log.Publish(&idx, a);
  EXPECT_EQ(idx.Load(b), kInvalidAddress);  // b's tag has no entry yet
  log.Publish(&idx, b);
  EXPECT_NE(idx.Load(a), idx.Load(b));
  // Neither chain holds the other key's record.
  EXPECT_EQ(log.records.at(idx.Load(a)).second, kInvalidAddress);
  EXPECT_EQ(log.records.at(idx.Load(b)).second, kInvalidAddress);
  EXPECT_EQ(idx.CountUsed(), 2u);
}

TEST(HashIndexTagTest, FullBucketKeepsEveryKeyReachableAcrossGrow) {
  HashIndex idx(16);  // two buckets
  const std::vector<Key> keys = DistinctTagsInBucketZero(idx, 20);
  ToyLog log;
  for (Key k : keys) log.Publish(&idx, k);
  // Bucket 0 holds 8 entries; the other 12 tags share them.
  EXPECT_EQ(idx.CountUsed(), HashIndex::kEntriesPerBucket);
  for (Key k : keys) EXPECT_TRUE(log.Reachable(idx, k)) << "key " << k;

  ASSERT_TRUE(idx.Grow(2).ok());  // 2 -> 8 buckets, each image full
  for (Key k : keys) EXPECT_TRUE(log.Reachable(idx, k)) << "key " << k;
  // Updates and fresh keys after growth stay reachable too.
  for (Key k : keys) log.Publish(&idx, k);
  for (Key k = 1000; k < 1100; ++k) log.Publish(&idx, k);
  for (Key k : keys) EXPECT_TRUE(log.Reachable(idx, k)) << "key " << k;
  for (Key k = 1000; k < 1100; ++k) {
    EXPECT_TRUE(log.Reachable(idx, k)) << "key " << k;
  }
}

TEST(HashIndexTagTest, FullBucketSharingIgnoresInsertOrder) {
  // Tail replay may give the same 8 tags their entries in another order
  // (so in other words of the bucket) than the original run; which keys
  // share a chain once the bucket is full must not depend on it.
  HashIndex forward(16);
  HashIndex backward(16);
  const std::vector<Key> keys = DistinctTagsInBucketZero(forward, 12);
  ToyLog f, b;
  for (size_t i = 0; i < 8; ++i) f.Publish(&forward, keys[i]);
  for (size_t i = 8; i-- > 0;) b.Publish(&backward, keys[i]);
  for (size_t i = 8; i < keys.size(); ++i) {
    f.Publish(&forward, keys[i]);
    b.Publish(&backward, keys[i]);
  }
  for (Key x : keys) {
    for (Key y : keys) {
      EXPECT_EQ(forward.SharesChain(x, y), backward.SharesChain(x, y))
          << x << " vs " << y;
    }
  }
}

TEST(HashIndexTagTest, ConcurrentSameTagInsertsLeaveOneEntry) {
  constexpr int kThreads = 8;
  const HashIndex probe(16);
  // Eight distinct keys with one bucket and one tag.
  std::vector<Key> keys = {0};
  for (Key k = 1; keys.size() < kThreads; ++k) {
    if (probe.SharesChain(keys[0], k)) keys.push_back(k);
  }
  for (int round = 0; round < 50; ++round) {
    HashIndex idx(16);
    std::vector<Address> prev(kThreads, kInvalidAddress);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) {
        }
        const Address addr = static_cast<Address>(0x40 * (t + 1));
        Address e = idx.Load(keys[t]);
        while (!idx.CompareExchange(keys[t], e, addr)) {
        }
        prev[t] = e;
      });
    }
    go.store(true);
    for (auto& th : threads) th.join();
    ASSERT_EQ(idx.CountUsed(), 1u) << "round " << round;
    // One chain through all eight records: every key is on it.
    std::set<Key> seen;
    for (Address a = idx.Load(keys[0]); a != kInvalidAddress;) {
      const int t = static_cast<int>(a / 0x40) - 1;
      seen.insert(keys[t]);
      a = prev[t];
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads)) << "round " << round;
  }
}

TEST(HashIndexTagTest, CheckpointRoundTripPreservesTaggedWords) {
  for (const CheckpointMode mode :
       {CheckpointMode::kFull, CheckpointMode::kIncremental}) {
    TempDir dir;
    FasterOptions o;
    o.path = dir.File("t.log");
    o.index_slots = 1024;  // 128 buckets: the second batch adds new tags
    o.mem_size = 1u << 20;
    o.page_size = 1u << 14;
    o.checkpoint_mode = mode;
    const std::string prefix = dir.File("ckpt");
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 300; ++k) {
      ASSERT_TRUE(store.Upsert(k, &k, sizeof(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    // Updates plus inserts; incremental mode writes them as a delta.
    for (Key k = 200; k < 900; ++k) {
      const Key v = k + 1;
      ASSERT_TRUE(store.Upsert(k, &v, sizeof(v)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    if (mode == CheckpointMode::kIncremental) {
      ASSERT_TRUE(std::filesystem::exists(prefix + ".idx.d1"));
    }

    FasterStore recovered;
    ASSERT_TRUE(recovered.Recover(o, prefix).ok());
    const HashIndex& before = store.hash_index();
    const HashIndex& after = recovered.hash_index();
    ASSERT_EQ(after.num_slots(), before.num_slots());
    for (uint64_t i = 0; i < before.num_slots(); ++i) {
      EXPECT_EQ(after.LoadWord(i), before.LoadWord(i)) << "word " << i;
    }
    for (Key k = 0; k < 900; ++k) {
      Key v = 0;
      uint32_t size = 0;
      ASSERT_TRUE(recovered.Peek(k, &v, sizeof(v), &size).ok()) << k;
      EXPECT_EQ(v, k < 200 ? k : k + 1);
    }
  }
}

}  // namespace
}  // namespace mlkv
