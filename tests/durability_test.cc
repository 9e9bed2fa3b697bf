// Durability tests across the engines. For the FASTER path: the group-
// durability crash-recovery matrix (group-committed records replayed past
// the checkpoint marker, torn-tail truncation, base+delta checkpoint
// ordering, injected fsync failures surfacing as errors) and the tailable
// update-log cursor. For the baseline engines: WAL record format, crash
// recovery (including fault injection on the WAL tail), LEVELS manifest
// recovery, and range scans on the LSM store and the B+tree.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree_store.h"
#include "common/random.h"
#include "io/faulty_file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/update_log.h"
#include "lsm/lsm_store.h"
#include "lsm/wal.h"

namespace mlkv {
namespace {

LsmOptions SmallLsm(const TempDir& dir) {
  LsmOptions o;
  o.dir = dir.path() + "/lsm";
  o.memtable_bytes = 4096;
  o.block_cache_bytes = 1 << 20;
  o.block_size = 1024;
  o.l0_compaction_trigger = 3;
  return o;
}

// ------------------------------------------------------------------ WAL --

TEST(WalTest, EmptyFileReplaysNothing) {
  TempDir dir;
  uint64_t n = 99;
  ASSERT_TRUE(ReplayWal(dir.File("missing.wal"),
                        [](Key, const std::string&, bool) { FAIL(); }, &n)
                  .ok());
  EXPECT_EQ(n, 0u);
}

TEST(WalTest, RoundTripsPutsAndDeletes) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.AppendPut(1, "alpha", 5).ok());
    ASSERT_TRUE(w.AppendDelete(2).ok());
    ASSERT_TRUE(w.AppendPut(3, "b", 1).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  std::vector<std::tuple<Key, std::string, bool>> got;
  uint64_t n = 0;
  ASSERT_TRUE(ReplayWal(path,
                        [&](Key k, const std::string& v, bool tomb) {
                          got.emplace_back(k, v, tomb);
                        },
                        &n)
                  .ok());
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(got[0], std::make_tuple(Key{1}, std::string("alpha"), false));
  EXPECT_EQ(got[1], std::make_tuple(Key{2}, std::string(), true));
  EXPECT_EQ(got[2], std::make_tuple(Key{3}, std::string("b"), false));
}

TEST(WalTest, ResetEmptiesTheLog) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  WalWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.AppendPut(1, "x", 1).ok());
  ASSERT_TRUE(w.Reset().ok());
  EXPECT_EQ(w.bytes(), 0u);
  uint64_t n = 0;
  ASSERT_TRUE(
      ReplayWal(path, [](Key, const std::string&, bool) {}, &n).ok());
  EXPECT_EQ(n, 0u);
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  uint64_t full_size = 0;
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.AppendPut(1, "aaaa", 4).ok());
    ASSERT_TRUE(w.AppendPut(2, "bbbb", 4).ok());
    ASSERT_TRUE(w.Sync().ok());
    full_size = w.bytes();
  }
  // Chop the last record in half (simulated crash mid-write).
  std::filesystem::resize_file(path, full_size - 3);
  uint64_t n = 0;
  std::vector<Key> keys;
  ASSERT_TRUE(ReplayWal(path,
                        [&](Key k, const std::string&, bool) {
                          keys.push_back(k);
                        },
                        &n)
                  .ok());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(keys[0], 1u);
}

TEST(WalTest, CorruptMiddleByteStopsAtTheRecord) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.AppendPut(1, "aaaa", 4).ok());
    ASSERT_TRUE(w.AppendPut(2, "bbbb", 4).ok());
    ASSERT_TRUE(w.AppendPut(3, "cccc", 4).ok());
  }
  // Flip a byte inside record 2's value.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(21 + 18, std::ios::beg);  // record size = 17 + 4 = 21 bytes
  f.put('X');
  f.close();
  uint64_t n = 0;
  ASSERT_TRUE(
      ReplayWal(path, [](Key, const std::string&, bool) {}, &n).ok());
  EXPECT_EQ(n, 1u);  // only the first record survives
}

// -------------------------------------------------------- LSM recovery --

TEST(LsmRecoveryTest, RecoversFlushedAndUnflushedWrites) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  std::map<Key, std::string> model;
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      const Key k = rng.Next() % 200;
      const std::string v = "v" + std::to_string(i);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
      model[k] = v;
    }
    // Deliberately NO Flush(): the tail lives only in the WAL.
  }
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  for (const auto& [k, v] : model) {
    std::string out;
    ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, v);
  }
}

TEST(LsmRecoveryTest, RecoversDeletes) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 50; ++k) {
      const std::string v = "v" + std::to_string(k);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
    for (Key k = 0; k < 50; k += 2) ASSERT_TRUE(store.Delete(k).ok());
  }
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  for (Key k = 0; k < 50; ++k) {
    std::string out;
    if (k % 2 == 0) {
      EXPECT_TRUE(recovered.Get(k, &out).IsNotFound()) << "key " << k;
    } else {
      ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
    }
  }
}

TEST(LsmRecoveryTest, SurvivesTornWalTail) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 20; ++k) {
      const std::string v = "value" + std::to_string(k);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
  }
  // Crash injection: chop bytes off the WAL tail.
  const std::string wal = o.dir + "/WAL";
  ASSERT_TRUE(std::filesystem::exists(wal));
  const auto size = std::filesystem::file_size(wal);
  ASSERT_GT(size, 4u);
  std::filesystem::resize_file(wal, size - 4);
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  // Everything except (at most) the torn-off tail record must be intact.
  for (Key k = 0; k + 1 < 20; ++k) {
    std::string out;
    ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, "value" + std::to_string(k));
  }
}

TEST(LsmRecoveryTest, DoubleRecoveryIsStable) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 300; ++k) {
      const std::string v = "v" + std::to_string(k);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
  }
  {
    LsmStore once;
    ASSERT_TRUE(once.Open(o).ok());
    const std::string v = "extra";
    Key k = 1000;
    ASSERT_TRUE(once.Put(k, v.data(), v.size()).ok());
  }
  LsmStore twice;
  ASSERT_TRUE(twice.Open(o).ok());
  std::string out;
  for (Key k = 0; k < 300; ++k) {
    ASSERT_TRUE(twice.Get(k, &out).ok()) << "key " << k;
  }
  ASSERT_TRUE(twice.Get(1000, &out).ok());
  EXPECT_EQ(out, "extra");
}

TEST(LsmRecoveryTest, WalDisabledLosesOnlyMemtable) {
  TempDir dir;
  LsmOptions o = SmallLsm(dir);
  o.enable_wal = false;
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 300; ++k) {
      const std::string v = "v" + std::to_string(k);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
    // Unflushed write that will be lost without a WAL.
    const std::string v = "lost";
    Key k = 5000;
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  std::string out;
  for (Key k = 0; k < 300; ++k) {
    ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
  }
  EXPECT_TRUE(recovered.Get(5000, &out).IsNotFound());
}

// ------------------------------------------------------------ LSM scan --

TEST(LsmScanTest, MergesAllLevelsNewestWins) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  // Enough writes to populate L1 (via compaction), L0, and the memtable,
  // with overlapping key versions.
  for (int round = 0; round < 6; ++round) {
    for (Key k = 0; k < 120; ++k) {
      const std::string v = "r" + std::to_string(round) + "k" +
                            std::to_string(k);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
  }
  ASSERT_GT(store.l1_run_count() + store.l0_run_count(), 0u);
  std::map<Key, std::string> got;
  ASSERT_TRUE(store.Scan(10, 50, [&](Key k, const std::string& v) {
    got[k] = v;
  }).ok());
  ASSERT_EQ(got.size(), 41u);
  for (Key k = 10; k <= 50; ++k) {
    EXPECT_EQ(got[k], "r5k" + std::to_string(k)) << "key " << k;
  }
}

TEST(LsmScanTest, SkipsDeletedKeys) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  for (Key k = 0; k < 100; ++k) {
    const std::string v = "v" + std::to_string(k);
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  for (Key k = 0; k < 100; k += 3) ASSERT_TRUE(store.Delete(k).ok());
  int count = 0;
  ASSERT_TRUE(store.Scan(0, 99, [&](Key k, const std::string&) {
    EXPECT_NE(k % 3, 0u);
    ++count;
  }).ok());
  EXPECT_EQ(count, 66);
}

TEST(LsmScanTest, EmptyRangeAndReversedRange) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  const std::string v = "x";
  Key k = 10;
  ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  int count = 0;
  ASSERT_TRUE(store.Scan(20, 30, [&](Key, const std::string&) {
    ++count;
  }).ok());
  EXPECT_EQ(count, 0);
  ASSERT_TRUE(store.Scan(30, 20, [&](Key, const std::string&) {
    ++count;
  }).ok());
  EXPECT_EQ(count, 0);
}

TEST(LsmScanTest, OrderedAscending) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const Key k = rng.Next() % 1000;
    const std::string v = "v";
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  Key prev = 0;
  bool first = true;
  ASSERT_TRUE(store.Scan(0, 999, [&](Key k, const std::string&) {
    if (!first) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    first = false;
  }).ok());
}

// ---------------------------------------------------------- BTree scan --

TEST(BTreeScanTest, FullRangeInOrder) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.page_size = 4096;
  o.buffer_pool_bytes = 64 * 4096;
  o.value_size = 16;
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  // Insert shuffled keys across multiple leaves.
  std::vector<Key> keys;
  for (Key k = 0; k < 2000; ++k) keys.push_back(k * 3);
  Rng rng(5);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Next() % i]);
  }
  std::vector<char> v(o.value_size);
  for (const Key k : keys) {
    std::memcpy(v.data(), &k, sizeof(k));
    ASSERT_TRUE(store.Put(k, v.data()).ok());
  }
  Key expected = 0;
  int count = 0;
  ASSERT_TRUE(store.Scan(0, UINT64_MAX - 1, [&](Key k, const void* value) {
    EXPECT_EQ(k, expected);
    Key stored = 0;
    std::memcpy(&stored, value, sizeof(stored));
    EXPECT_EQ(stored, k);
    expected += 3;
    ++count;
  }).ok());
  EXPECT_EQ(count, 2000);
}

TEST(BTreeScanTest, SubRangeBoundsInclusive) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.value_size = 8;
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<char> v(o.value_size, 1);
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(store.Put(k, v.data()).ok());
  }
  std::vector<Key> got;
  ASSERT_TRUE(store.Scan(100, 110, [&](Key k, const void*) {
    got.push_back(k);
  }).ok());
  ASSERT_EQ(got.size(), 11u);
  EXPECT_EQ(got.front(), 100u);
  EXPECT_EQ(got.back(), 110u);
}

TEST(BTreeScanTest, EmptyTreeAndMissRange) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.value_size = 8;
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  int count = 0;
  ASSERT_TRUE(store.Scan(0, 100, [&](Key, const void*) { ++count; }).ok());
  EXPECT_EQ(count, 0);
  std::vector<char> v(o.value_size, 1);
  Key k = 1000;
  ASSERT_TRUE(store.Put(k, v.data()).ok());
  ASSERT_TRUE(store.Scan(0, 100, [&](Key, const void*) { ++count; }).ok());
  EXPECT_EQ(count, 0);
}

TEST(BTreeScanTest, SparseKeysAcrossLeaves) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.page_size = 4096;
  o.value_size = 64;  // fewer slots per leaf -> more leaves
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<char> v(o.value_size, 7);
  std::map<Key, bool> model;
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.Next() % 100000;
    ASSERT_TRUE(store.Put(k, v.data()).ok());
    model[k] = true;
  }
  std::vector<Key> got;
  ASSERT_TRUE(store.Scan(20000, 80000, [&](Key k, const void*) {
    got.push_back(k);
  }).ok());
  std::vector<Key> expected;
  for (const auto& [k, _] : model) {
    if (k >= 20000 && k <= 80000) expected.push_back(k);
  }
  EXPECT_EQ(got, expected);
}

// ------------------------------------- FASTER group-durability matrix --
//
// The crash model throughout: a "crash" is closing the store without the
// shutdown-time checkpoint (everything not on media is gone), optionally
// followed by tearing the log file the way an interrupted page write
// would. Recovery is Recover() from the last checkpoint prefix.

FasterOptions GroupStore(const TempDir& dir, const char* name = "kv.log") {
  FasterOptions o;
  o.path = dir.File(name);
  o.index_slots = 1024;
  o.page_size = 4096;
  o.mem_size = 16 * 4096;
  o.mutable_fraction = 0.5;
  o.durability_mode = DurabilityMode::kGroup;
  o.group_commit_window_us = 100;
  return o;
}

Status UpsertStr(FasterStore* store, Key k, const std::string& v) {
  return store->Upsert(k, v.data(), static_cast<uint32_t>(v.size()));
}

// Kill between group commit and checkpoint marker: work made durable by
// Persist() but never covered by a checkpoint must be replayed from the
// log tail on recovery — new inserts, RCU updates, and tombstones alike.
TEST(GroupDurabilityTest, GroupCommittedRecordsReplayPastCheckpoint) {
  TempDir dir;
  const FasterOptions o = GroupStore(dir);
  const std::string prefix = dir.File("ckpt");
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 20; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "base-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    // Post-checkpoint: new keys plus size-changing (RCU) updates of old
    // ones, then one group-committed durability point — and a crash
    // before any further checkpoint marker.
    for (Key k = 21; k <= 40; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "tail-" + std::to_string(k)).ok());
    }
    for (Key k = 1; k <= 10; ++k) {
      ASSERT_TRUE(
          UpsertStr(&store, k, "updated!!-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Delete(15).ok());
    ASSERT_TRUE(store.Persist().ok());
  }

  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 1; k <= 10; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "updated!!-" + std::to_string(k));
  }
  for (Key k = 11; k <= 14; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "base-" + std::to_string(k));
  }
  EXPECT_TRUE(store.Read(15, &out).IsNotFound());  // tombstone replayed
  for (Key k = 21; k <= 40; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "tail-" + std::to_string(k));
  }
}

// The sync-mode contract, for contrast: without kGroup the checkpoint is
// the only durability marker, so flushed-but-unmarked tail records are
// deliberately NOT replayed (classic FASTER semantics, byte-identical
// write path).
TEST(GroupDurabilityTest, SyncModeRecoveryStopsAtCheckpoint) {
  TempDir dir;
  FasterOptions o = GroupStore(dir);
  o.durability_mode = DurabilityMode::kSync;
  const std::string prefix = dir.File("ckpt");
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 10; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "base-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    for (Key k = 11; k <= 20; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "tail-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.mutable_log()->FlushAll().ok());  // on media, unmarked
  }
  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 1; k <= 10; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
  }
  for (Key k = 11; k <= 20; ++k) {
    EXPECT_TRUE(store.Read(k, &out).IsNotFound()) << k;
  }
}

// A crash that tears the last record mid-header: the tail scan must stop
// at the tear, recovery must truncate the torn bytes off the file, and
// every group-committed record before the tear must survive.
TEST(GroupDurabilityTest, TornTailIsTruncatedOnRecovery) {
  TempDir dir;
  const FasterOptions o = GroupStore(dir);
  const std::string prefix = dir.File("ckpt");
  Address tear = 0;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 12; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "base-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    for (Key k = 13; k <= 24; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "post-" + std::to_string(k)).ok());
    }
    tear = store.mutable_log()->tail();
    ASSERT_TRUE(UpsertStr(&store, 99, "torn-victim-value").ok());
    ASSERT_TRUE(store.Persist().ok());
  }
  // Only the first 8 bytes of the victim's header reached media.
  std::filesystem::resize_file(o.path, tear + 8);

  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 13; k <= 24; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "post-" + std::to_string(k));
  }
  EXPECT_TRUE(store.Read(99, &out).IsNotFound());
  // The torn bytes are gone from disk — stale fragments can never
  // resurface as valid records in a later scan.
  EXPECT_LE(std::filesystem::file_size(o.path), tear);
  // And the recovered store keeps working past the truncation point.
  ASSERT_TRUE(UpsertStr(&store, 100, "after-recovery").ok());
  ASSERT_TRUE(store.Persist().ok());
  ASSERT_TRUE(store.Read(100, &out).ok());
  EXPECT_EQ(out, "after-recovery");
}

// Base + delta replay ordering: three incremental checkpoints under one
// prefix (base, d1, d2) with overlapping key updates; recovery must apply
// the chain in order so the newest generation wins everywhere.
TEST(IncrementalCheckpointTest, BaseAndDeltasReplayInOrder) {
  TempDir dir;
  FasterOptions o = GroupStore(dir);
  o.durability_mode = DurabilityMode::kSync;  // isolate from tail replay
  o.checkpoint_mode = CheckpointMode::kIncremental;
  const std::string prefix = dir.File("inc");
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 30; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "gen0-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());  // base
    for (Key k = 1; k <= 10; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "gen1!!-" + std::to_string(k)).ok());
    }
    for (Key k = 31; k <= 40; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "gen1-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());  // delta 1
    for (Key k = 1; k <= 5; ++k) {
      ASSERT_TRUE(
          UpsertStr(&store, k, "gen2####-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Delete(10).ok());
    ASSERT_TRUE(store.Checkpoint(prefix).ok());  // delta 2
  }
  ASSERT_TRUE(std::filesystem::exists(prefix + ".idx"));
  ASSERT_TRUE(std::filesystem::exists(prefix + ".idx.d1"));
  ASSERT_TRUE(std::filesystem::exists(prefix + ".idx.d2"));
  // A delta names only the slots whose chain head moved — a small
  // fraction of the full index dump.
  EXPECT_LT(std::filesystem::file_size(prefix + ".idx.d1"),
            std::filesystem::file_size(prefix + ".idx") / 4);

  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 1; k <= 5; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen2####-" + std::to_string(k));
  }
  for (Key k = 6; k <= 9; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen1!!-" + std::to_string(k));
  }
  EXPECT_TRUE(store.Read(10, &out).IsNotFound());
  for (Key k = 11; k <= 30; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen0-" + std::to_string(k));
  }
  for (Key k = 31; k <= 40; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen1-" + std::to_string(k));
  }
}

// An fsync that reports failure must surface as the checkpoint's status —
// and must not leave a checkpoint marker behind.
TEST(FsyncFaultTest, CheckpointSurfacesInjectedFsyncFailure) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FasterOptions o = GroupStore(dir);
  o.durability_mode = DurabilityMode::kSync;
  o.device_factory = [script] {
    return std::make_unique<FaultyFileDevice>(script);
  };
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  for (Key k = 1; k <= 8; ++k) {
    ASSERT_TRUE(UpsertStr(&store, k, "v-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(store.Checkpoint(dir.File("good")).ok());

  script->sync_fail_from.store(script->syncs.load() + 1);
  script->sync_fail_count.store(1);
  const Status s = store.Checkpoint(dir.File("bad"));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir.File("bad") + ".meta"));
  // The device recovered (window of one), so the next checkpoint works.
  ASSERT_TRUE(store.Checkpoint(dir.File("good2")).ok());
}

// The GroupCommitter's error model: a failed fsync is sticky. Even after
// the device "heals", later Persist calls keep failing — after an fsync
// error the kernel may have dropped dirty pages, so durability can never
// again be proven on this device.
TEST(FsyncFaultTest, GroupPersistFailureIsSticky) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FasterOptions o = GroupStore(dir);
  o.device_factory = [script] {
    return std::make_unique<FaultyFileDevice>(script);
  };
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  ASSERT_TRUE(UpsertStr(&store, 1, "hello").ok());

  script->sync_fail_from.store(1);
  script->sync_fail_count.store(UINT64_MAX);  // every sync from now on
  EXPECT_FALSE(store.Persist().ok());
  script->sync_fail_from.store(0);  // disarm: device is "healthy" again
  ASSERT_TRUE(UpsertStr(&store, 2, "world").ok());
  EXPECT_FALSE(store.Persist().ok());  // sticky: the loss already happened
}

// --------------------------------------------------- tailable update log --

// The cursor yields exactly the committed prefix: entries appear in log
// order, never above the durable watermark, and the stream resumes after
// each later durability point.
TEST(UpdateLogTest, CursorYieldsCommittedUpdatesInOrder) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(GroupStore(dir)).ok());
  const Key keys[] = {11, 22, 33};
  for (const Key k : keys) {
    ASSERT_TRUE(UpsertStr(&store, k, "v-" + std::to_string(k)).ok());
  }

  UpdateLogCursor cur(&store, 0);
  UpdateEntry e;
  EXPECT_FALSE(cur.Next(&e));  // nothing durable yet
  EXPECT_TRUE(cur.status().ok());

  ASSERT_TRUE(store.Persist().ok());
  for (const Key k : keys) {
    ASSERT_TRUE(cur.Next(&e));
    EXPECT_EQ(e.key, k);
    EXPECT_FALSE(e.tombstone);
    const std::string want = "v-" + std::to_string(k);
    EXPECT_EQ(std::string(e.value.begin(), e.value.end()), want);
  }
  EXPECT_FALSE(cur.Next(&e));  // caught up
  EXPECT_TRUE(cur.status().ok());

  ASSERT_TRUE(UpsertStr(&store, 44, "late").ok());
  EXPECT_FALSE(cur.Next(&e));  // still above the watermark
  ASSERT_TRUE(store.Persist().ok());
  ASSERT_TRUE(cur.Next(&e));
  EXPECT_EQ(e.key, 44u);
  EXPECT_FALSE(cur.Next(&e));
}

// position() is a durable resume token: a fresh cursor started there
// continues the stream with no gaps or repeats.
TEST(UpdateLogTest, CursorResumesFromPosition) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(GroupStore(dir)).ok());
  for (Key k = 1; k <= 5; ++k) {
    ASSERT_TRUE(UpsertStr(&store, k, "v-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(store.Persist().ok());

  UpdateLogCursor a(&store, 0);
  UpdateEntry e;
  ASSERT_TRUE(a.Next(&e));
  ASSERT_TRUE(a.Next(&e));
  const Address resume = a.position();

  UpdateLogCursor b(&store, resume);
  for (Key k = 3; k <= 5; ++k) {
    ASSERT_TRUE(b.Next(&e));
    EXPECT_EQ(e.key, k);
  }
  EXPECT_FALSE(b.Next(&e));
  EXPECT_TRUE(b.status().ok());
}

// A feed bounded by a sealed address never yields a still-mutable record:
// Persist makes records appended after the seal durable, but an in-place
// rewrite of one after the cursor passed it would never be reported.
TEST(UpdateLogTest, SealedWindowHoldsBackMutableRecords) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(GroupStore(dir)).ok());
  ASSERT_TRUE(UpsertStr(&store, 1, "sealed").ok());
  Address sealed = store.mutable_log()->SealMutableRegion();
  ASSERT_TRUE(UpsertStr(&store, 2, "old").ok());  // mutable, above the seal
  ASSERT_TRUE(store.Persist().ok());
  ASSERT_GT(store.durable_address(), sealed);

  UpdateEntry e;
  UpdateLogCursor first(&store, 0, sealed);
  ASSERT_TRUE(first.Next(&e));
  EXPECT_EQ(e.key, 1u);
  EXPECT_FALSE(first.Next(&e));
  EXPECT_TRUE(first.status().ok());

  ASSERT_TRUE(UpsertStr(&store, 2, "new").ok());  // rewrites in place
  sealed = store.mutable_log()->SealMutableRegion();
  ASSERT_TRUE(store.Persist().ok());
  UpdateLogCursor next(&store, first.position(), sealed);
  ASSERT_TRUE(next.Next(&e));
  EXPECT_EQ(e.key, 2u);
  EXPECT_EQ(std::string(e.value.begin(), e.value.end()), "new");
  EXPECT_FALSE(next.Next(&e));
}

// Deletes appear in the feed as tombstone entries with an empty value.
TEST(UpdateLogTest, TombstonesAppearWithEmptyValue) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(GroupStore(dir)).ok());
  ASSERT_TRUE(UpsertStr(&store, 7, "hello").ok());
  ASSERT_TRUE(store.Delete(7).ok());
  ASSERT_TRUE(store.Persist().ok());

  UpdateLogCursor cur(&store, 0);
  UpdateEntry e;
  ASSERT_TRUE(cur.Next(&e));
  EXPECT_EQ(e.key, 7u);
  EXPECT_FALSE(e.tombstone);
  ASSERT_TRUE(cur.Next(&e));
  EXPECT_EQ(e.key, 7u);
  EXPECT_TRUE(e.tombstone);
  EXPECT_TRUE(e.value.empty());
  EXPECT_FALSE(cur.Next(&e));
}

// A cursor that lags behind compaction gets Corruption, not silent
// garbage: its position names log addresses that no longer exist.
TEST(UpdateLogTest, CompactedAwayPositionReportsCorruption) {
  TempDir dir;
  FasterOptions o = GroupStore(dir);
  o.durability_mode = DurabilityMode::kSync;
  o.mem_size = 8 * 4096;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  // Alternate value sizes so every overwrite is an RCU append (garbage
  // below), until the read-only boundary has moved off the log start.
  for (int round = 0; round < 200; ++round) {
    const std::string v(round % 2 == 0 ? 40 : 72, 'x');
    for (Key k = 0; k < 64; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, v).ok());
    }
    if (store.log().read_only_address() > HybridLog::kLogBegin) break;
  }
  ASSERT_GT(store.log().read_only_address(), HybridLog::kLogBegin);
  CompactionResult cr;
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), &cr).ok());
  ASSERT_GT(store.log().begin_address(), HybridLog::kLogBegin);

  UpdateLogCursor cur(&store, HybridLog::kLogBegin);
  UpdateEntry e;
  EXPECT_FALSE(cur.Next(&e));
  EXPECT_TRUE(cur.status().IsCorruption());
}

}  // namespace
}  // namespace mlkv
