#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "io/temp_dir.h"
#include "kv/faster_store.h"

namespace mlkv {
namespace {

FasterOptions SmallStore(const TempDir& dir, const char* name = "store.log") {
  FasterOptions o;
  o.path = dir.File(name);
  o.index_slots = 1024;
  o.page_size = 4096;
  o.mem_size = 8 * 4096;
  o.mutable_fraction = 0.5;
  return o;
}


TEST(FasterStoreTest, ReadMissingKeyNotFound) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::string out;
  EXPECT_TRUE(store.Read(1, &out).IsNotFound());
}

TEST(FasterStoreTest, UpsertThenRead) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(42, "hello", 5).ok());
  std::string out;
  ASSERT_TRUE(store.Read(42, &out).ok());
  EXPECT_EQ(out, "hello");
}

TEST(FasterStoreTest, UpdateOverwritesInPlace) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "aaaa", 4).ok());
  ASSERT_TRUE(store.Upsert(1, "bbbb", 4).ok());
  std::string out;
  ASSERT_TRUE(store.Read(1, &out).ok());
  EXPECT_EQ(out, "bbbb");
  EXPECT_EQ(store.stats().inplace_updates, 1u);
  EXPECT_EQ(store.stats().inserts, 1u);
}

TEST(FasterStoreTest, DifferentSizeUpdateGoesRcu) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "aaaa", 4).ok());
  ASSERT_TRUE(store.Upsert(1, "cccccccc", 8).ok());
  std::string out;
  ASSERT_TRUE(store.Read(1, &out).ok());
  EXPECT_EQ(out, "cccccccc");
  EXPECT_GE(store.stats().rcu_appends, 1u);
}

TEST(FasterStoreTest, ManyKeysSurviveSpillToDisk) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  // 1000 keys x 64B records >> 32 KiB buffer: most go cold.
  std::vector<char> value(32);
  for (Key k = 0; k < 1000; ++k) {
    std::memset(value.data(), static_cast<char>('a' + (k % 26)), 32);
    ASSERT_TRUE(store.Upsert(k, value.data(), 32).ok());
  }
  EXPECT_GT(store.log().head_address(), HybridLog::kLogBegin);
  for (Key k = 0; k < 1000; ++k) {
    std::string out;
    ASSERT_TRUE(store.Read(k, &out).ok()) << "key " << k;
    ASSERT_EQ(out.size(), 32u);
    EXPECT_EQ(out[0], static_cast<char>('a' + (k % 26))) << "key " << k;
  }
  EXPECT_GT(store.stats().disk_record_reads, 0u);
}

TEST(FasterStoreTest, UpdateColdKeyRcuAndReadsNewValue) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::vector<char> value(64, 'x');
  for (Key k = 0; k < 800; ++k) {
    ASSERT_TRUE(store.Upsert(k, value.data(), 64).ok());
  }
  // Key 0 is long cold now; update it.
  std::vector<char> nv(64, 'y');
  ASSERT_TRUE(store.Upsert(0, nv.data(), 64).ok());
  std::string out;
  ASSERT_TRUE(store.Read(0, &out).ok());
  EXPECT_EQ(out[0], 'y');
}

TEST(FasterStoreTest, DeleteHidesKey) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(5, "val", 3).ok());
  ASSERT_TRUE(store.Delete(5).ok());
  std::string out;
  EXPECT_TRUE(store.Read(5, &out).IsNotFound());
  EXPECT_TRUE(store.Delete(5).IsNotFound());
  // Re-insert after delete works.
  ASSERT_TRUE(store.Upsert(5, "new", 3).ok());
  ASSERT_TRUE(store.Read(5, &out).ok());
  EXPECT_EQ(out, "new");
}

TEST(FasterStoreTest, RmwCreatesAndModifies) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  auto add_one = [](char* value, uint32_t size, bool exists) {
    int64_t v = 0;
    if (exists) std::memcpy(&v, value, sizeof(v));
    v += 1;
    std::memcpy(value, &v, sizeof(v));
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Rmw(9, sizeof(int64_t), add_one).ok());
  }
  std::string out;
  ASSERT_TRUE(store.Read(9, &out).ok());
  int64_t v;
  std::memcpy(&v, out.data(), sizeof(v));
  EXPECT_EQ(v, 10);
}

TEST(FasterStoreTest, RmwOnColdRecordPreservesCounter) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  auto add_one = [](char* value, uint32_t size, bool exists) {
    int64_t v = 0;
    if (exists) std::memcpy(&v, value, sizeof(v));
    v += 1;
    std::memcpy(value, &v, sizeof(v));
  };
  ASSERT_TRUE(store.Rmw(0, sizeof(int64_t), add_one).ok());
  // Push key 0 out of memory.
  std::vector<char> filler(128, 'f');
  for (Key k = 1; k < 600; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_TRUE(store.Rmw(0, sizeof(int64_t), add_one).ok());
  std::string out;
  ASSERT_TRUE(store.Read(0, &out).ok());
  int64_t v;
  std::memcpy(&v, out.data(), sizeof(v));
  EXPECT_EQ(v, 2);
}

// The read-only boundary does not wait for in-place pins, so a record can
// go read-only while a reader holds its lock. A copy made from it (Rmw's
// RCU, Delete's tombstone) must not inherit the lock bit: a new version born
// locked makes every later operation on the key spin for good.
TEST(FasterStoreTest, CopyOfALockedReadOnlyRecordIsUnlocked) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  auto add_one = [](char* value, uint32_t, bool) { ++value[0]; };
  for (const bool rmw : {true, false}) {
    const Key key = rmw ? 1 : 2;
    const uint64_t v = 7;
    ASSERT_TRUE(store.Upsert(key, &v, sizeof(v)).ok());
    const Address old_head = store.hash_index().Load(key);
    reinterpret_cast<Record*>(store.mutable_log()->MutablePointer(old_head))
        ->control.fetch_or(ControlWord::kLockedBit);  // a reader's lock
    store.mutable_log()->SealMutableRegion();
    ASSERT_TRUE((rmw ? store.Rmw(key, sizeof(v), add_one) : store.Delete(key))
                    .ok());
    const Address head = store.hash_index().Load(key);
    ASSERT_NE(head, old_head);
    const uint64_t control =
        reinterpret_cast<Record*>(store.mutable_log()->MutablePointer(head))
            ->control.load();
    EXPECT_FALSE(ControlWord::Locked(control)) << (rmw ? "Rmw" : "Delete");
  }
}

TEST(FasterStoreTest, PromoteMovesDiskRecordToMemory) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::vector<char> value(64, 'p');
  ASSERT_TRUE(store.Upsert(7, value.data(), 64).ok());
  std::vector<char> filler(128, 'f');
  for (Key k = 100; k < 700; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_FALSE(store.IsInMemory(7)) << "key 7 should have been evicted";
  ASSERT_TRUE(store.Promote(7).ok());
  EXPECT_TRUE(store.IsInMemory(7));
  EXPECT_EQ(store.stats().promotions, 1u);
  std::string out;
  ASSERT_TRUE(store.Read(7, &out).ok());
  EXPECT_EQ(out[0], 'p');
}

TEST(FasterStoreTest, PromoteSkipsImmutableInMemoryRecords) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::vector<char> value(64, 'q');
  ASSERT_TRUE(store.Upsert(7, value.data(), 64).ok());
  // Push key 7 into the read-only (still in-memory) region only.
  std::vector<char> filler(128, 'f');
  for (Key k = 100; k < 250; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_TRUE(store.IsInMemory(7));
  const auto before = store.stats();
  ASSERT_TRUE(store.Promote(7).ok());
  const auto after = store.stats();
  EXPECT_EQ(after.promotions, before.promotions);
  EXPECT_EQ(after.promotions_skipped, before.promotions_skipped + 1);
}

TEST(FasterStoreTest, PromoteRespectsNoSkipAblation) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.skip_promote_if_in_memory = false;  // DESIGN.md ablation D2
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<char> value(64, 'q');
  ASSERT_TRUE(store.Upsert(7, value.data(), 64).ok());
  std::vector<char> filler(128, 'f');
  for (Key k = 100; k < 250; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_LT(store.log().read_only_address(), store.log().tail());
  // Key 7 sits in the immutable region; without the skip it gets copied.
  if (!store.IsInMemory(7)) GTEST_SKIP() << "key evicted, not RO-resident";
  ASSERT_TRUE(store.Promote(7).ok());
  EXPECT_GE(store.stats().promotions, 1u);
}

TEST(FasterStoreTest, CheckpointRecoverRoundTrip) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 300; ++k) {
      std::string v = "value-" + std::to_string(k);
      ASSERT_TRUE(store.Upsert(k, v.data(), v.size()).ok());
    }
    ASSERT_TRUE(store.Checkpoint(dir.File("ckpt")).ok());
  }
  FasterStore restored;
  ASSERT_TRUE(restored.Recover(o, dir.File("ckpt")).ok());
  for (Key k = 0; k < 300; ++k) {
    std::string out;
    ASSERT_TRUE(restored.Read(k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, "value-" + std::to_string(k));
  }
  // Recovered store accepts new writes.
  ASSERT_TRUE(restored.Upsert(1000, "fresh", 5).ok());
  std::string out;
  ASSERT_TRUE(restored.Read(1000, &out).ok());
  EXPECT_EQ(out, "fresh");
}

TEST(FasterStoreTest, FixedBufferReadReportsSizeAndTruncates) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(3, "0123456789", 10).ok());
  char buf[4];
  uint32_t size = 0;
  ASSERT_TRUE(store.Read(3, buf, 4, &size).ok());
  EXPECT_EQ(size, 10u);
  EXPECT_EQ(std::string(buf, 4), "0123");
}

TEST(FasterStoreTest, StatsCountOperations) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "a", 1).ok());
  std::string out;
  ASSERT_TRUE(store.Read(1, &out).ok());
  const auto s = store.stats();
  EXPECT_EQ(s.upserts, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.inserts, 1u);
}


TEST(FasterStoreGrowTest, AllKeysReadableAfterIndexGrowth) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.index_slots = 16;  // deliberately undersized: long chains
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  ASSERT_TRUE(store.GrowIndex(4).ok());  // 16 -> 256 slots
  for (int i = 0; i < n; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(i, &out).ok()) << "key " << i;
    const std::string expect = "v" + std::to_string(i);
    EXPECT_EQ(out, expect);
  }
  // Updates and fresh inserts keep working against the refined slots.
  for (int i = 0; i < n + 100; ++i) {
    const std::string v = "w" + std::to_string(i);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  for (int i = 0; i < n + 100; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(i, &out).ok()) << "key " << i;
    const std::string expect = "w" + std::to_string(i);
    EXPECT_EQ(out, expect);
  }
}

TEST(FasterStoreGrowTest, MaybeGrowIndexHonorsLoadFactor) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.index_slots = 16;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Upsert(i, "abcd", 4).ok());
  }
  // 200 keys / 16 slots = 12.5 load; growing to <= 1.5 needs 256 slots.
  ASSERT_TRUE(store.MaybeGrowIndex(1.5).ok());
  EXPECT_EQ(store.index_slots(), 256u);
  EXPECT_EQ(store.stats().inserts, 200u);
  std::string out;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Read(i, &out).ok());
  }
  // Under the threshold now: another call is a no-op.
  ASSERT_TRUE(store.MaybeGrowIndex(1.5).ok());
  EXPECT_EQ(store.index_slots(), 256u);
}

TEST(FasterStoreGrowTest, GrowthSurvivesCheckpointRecover) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.index_slots = 16;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (int i = 0; i < 150; ++i) {
      const std::string v = "v" + std::to_string(i);
      ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
    }
    ASSERT_TRUE(store.GrowIndex(3).ok());
    ASSERT_TRUE(store.Checkpoint(dir.File("g")).ok());
  }
  FasterStore recovered;
  ASSERT_TRUE(recovered.Recover(o, dir.File("g")).ok());
  EXPECT_EQ(recovered.index_slots(), 128u);
  for (int i = 0; i < 150; ++i) {
    std::string out;
    ASSERT_TRUE(recovered.Read(i, &out).ok()) << "key " << i;
    const std::string expect = "v" + std::to_string(i);
    EXPECT_EQ(out, expect);
  }
}

}  // namespace
}  // namespace mlkv
