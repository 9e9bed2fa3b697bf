// Two-phase pending-read pipeline tests (kv/pending_read.h): sync/async
// byte-for-byte equivalence on a cold working set, duplicate-cold-key
// coalescing, a compaction deterministically racing an in-flight read,
// staleness-bound fallbacks, injected device failures surfacing as per-key
// codes without poisoning batch siblings, drain-on-close, and the MLKV
// table paths the wave feeds: bootstrap inserts against the walked chain
// head and copy-reads-to-tail.
#include "kv/pending_read.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "io/async_io.h"
#include "io/faulty_file_device.h"
#include "io/temp_dir.h"
#include "common/hash.h"
#include "kv/batch_read.h"
#include "kv/faster_store.h"
#include "kv/sharded_store.h"
#include "mlkv/embedding_init.h"
#include "mlkv/mlkv.h"

namespace mlkv {
namespace {

constexpr uint32_t kValueBytes = 32;

void FillValue(Key key, char* out) {
  for (uint32_t i = 0; i < kValueBytes; ++i) {
    out[i] = static_cast<char>((key * 31 + i) & 0xFF);
  }
}

// A sharded store with a tiny memory budget so most of `num_keys` end up
// disk-resident after the load.
ShardedStoreOptions ColdStoreOptions(const std::string& path,
                                     uint32_t shard_bits,
                                     AsyncIoEngine* io) {
  ShardedStoreOptions o;
  o.store.path = path;
  o.store.index_slots = 4096;
  o.store.mem_size = 1u << 16;  // 64 KiB total: a few hundred records hot
  o.store.page_size = 1u << 12;
  o.shard_bits = shard_bits;
  o.store.io = io;
  return o;
}

void LoadKeys(ShardedStore* store, uint64_t num_keys) {
  char value[kValueBytes];
  for (Key k = 0; k < num_keys; ++k) {
    FillValue(k, value);
    ASSERT_TRUE(store->Upsert(k, value, kValueBytes).ok());
  }
}

// The Get-shaped read op the embedding layer builds, reduced to raw bytes:
// phase-1 resolve or park, untracked.
ShardedStore::ShardReadOp RawReadOp(char* out, uint32_t stride) {
  return [out, stride](FasterStore* shard, Key key, size_t i,
                       BatchResult* part, size_t pi, PendingSink* sink) {
    char* dst = out + i * stride;
    if (sink == nullptr) {
      part->Record(pi, shard->Read(key, dst, stride));
      return;
    }
    std::unique_ptr<PendingRead> p;
    const Status s =
        shard->StartRead(key, dst, stride, UINT32_MAX, /*tracked=*/false, &p);
    if (p == nullptr) {
      part->Record(pi, s);
      return;
    }
    sink->Park(shard, std::move(p), [part, pi](PendingRead* done) {
      part->Record(pi, done->status);
    });
  };
}

TEST(PendingReadTest, ColdBatchMatchesSyncByteForByte) {
  constexpr uint64_t kKeys = 2000;
  TempDir sync_dir, async_dir;
  AsyncIoEngine engine;

  ShardedStore sync_store, async_store;
  ASSERT_TRUE(
      sync_store.Open(ColdStoreOptions(sync_dir.File("s.log"), 2, nullptr))
          .ok());
  ASSERT_TRUE(
      async_store.Open(ColdStoreOptions(async_dir.File("a.log"), 2, &engine))
          .ok());
  LoadKeys(&sync_store, kKeys);
  LoadKeys(&async_store, kKeys);

  // Mixed batch: cold keys, hot keys, missing keys, strided order.
  std::vector<Key> keys;
  for (uint64_t i = 0; i < 256; ++i) keys.push_back((i * 37) % kKeys);
  keys.push_back(kKeys + 5);  // never stored
  keys.push_back(3);
  keys.push_back(kKeys + 9);  // never stored

  std::vector<char> sync_out(keys.size() * kValueBytes, 0);
  std::vector<char> async_out(keys.size() * kValueBytes, 0);
  BatchResult sync_r, async_r;
  sync_store.MultiExecuteRead(keys, RawReadOp(sync_out.data(), kValueBytes),
                              &sync_r);
  async_store.MultiExecuteRead(keys, RawReadOp(async_out.data(), kValueBytes),
                               &async_r);

  ASSERT_EQ(sync_r.codes.size(), async_r.codes.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(sync_r.codes[i], async_r.codes[i]) << "key " << keys[i];
    if (sync_r.codes[i] == Status::Code::kOk) {
      EXPECT_EQ(std::memcmp(&sync_out[i * kValueBytes],
                            &async_out[i * kValueBytes], kValueBytes),
                0)
          << "key " << keys[i];
    }
  }
  EXPECT_EQ(sync_r.found, async_r.found);
  EXPECT_EQ(sync_r.missing, async_r.missing);
  // The async store actually used the pipeline (the working set is cold),
  // and the sync store never did.
  EXPECT_GT(async_store.stats().async_reads_submitted, 0u);
  EXPECT_EQ(sync_store.stats().async_reads_submitted, 0u);
  EXPECT_EQ(async_store.stats().async_reads_submitted,
            async_store.stats().async_reads_completed);
}

TEST(PendingReadTest, DuplicateColdKeysCoalesceIntoOneIo) {
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore store;
  // shard_bits 0: all duplicates land in one shard's sub-batch.
  ASSERT_TRUE(
      store.Open(ColdStoreOptions(dir.File("c.log"), 0, &engine)).ok());
  LoadKeys(&store, kKeys);

  // One definitely-cold key, repeated; plus one other cold key.
  const Key cold = 7;
  std::vector<Key> keys(16, cold);
  keys.push_back(11);
  std::vector<char> out(keys.size() * kValueBytes, 0);
  BatchResult r;
  store.MultiExecuteRead(keys, RawReadOp(out.data(), kValueBytes), &r);

  char expected[kValueBytes];
  FillValue(cold, expected);
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(r.codes[i], Status::Code::kOk);
    EXPECT_EQ(std::memcmp(&out[i * kValueBytes], expected, kValueBytes), 0);
  }
  FillValue(11, expected);
  EXPECT_EQ(std::memcmp(&out[16 * kValueBytes], expected, kValueBytes), 0);
  const FasterStatsSnapshot s = store.stats();
  // 17 key instances, 2 distinct cold records: at most 2 I/Os (+ hash-chain
  // hops, which an index of 4096 slots over 1500 keys makes rare).
  EXPECT_GT(s.async_reads_submitted, 0u);
  EXPECT_LE(s.async_reads_submitted, 4u);
}

TEST(PendingReadTest, CompactionRacingInFlightReadFallsBackToRefetch) {
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("r.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);

  // Phase 1 parks a cold key...
  const Key victim = 3;
  char out[kValueBytes] = {0};
  std::unique_ptr<PendingRead> p;
  ASSERT_TRUE(store
                  ->StartRead(victim, out, kValueBytes, UINT32_MAX,
                              /*tracked=*/false, &p)
                  .ok());
  ASSERT_NE(p, nullptr);
  // ...then compaction reclaims the whole cold region before the "I/O"
  // completes: the parked address is now below the begin boundary and its
  // live version was republished at the tail.
  ASSERT_TRUE(sharded.CompactAll().ok());
  ASSERT_GT(store->log().begin_address(), p->address);

  PendingSink sink;
  Status final_status;
  sink.Park(store, std::move(p), [&final_status](PendingRead* done) {
    final_status = done->status;
  });
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();

  ASSERT_TRUE(final_status.ok()) << final_status.ToString();
  char expected[kValueBytes];
  FillValue(victim, expected);
  EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0);
  EXPECT_GE(store->stats().async_reads_refetched, 1u);
}

TEST(PendingReadTest, PromotionInvalidatedInFlightSkipsCleanly) {
  // Regression: a StartPromote fetch has no caller output buffer; when the
  // record moves mid-flight (compaction here), the completion must skip
  // the promotion — not fall into the buffer-refilling refetch path.
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("p.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);

  std::unique_ptr<PendingRead> p;
  ASSERT_TRUE(store->StartPromote(5, kValueBytes, &p).ok());
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(sharded.CompactAll().ok());
  ASSERT_GT(store->log().begin_address(), p->address);

  const uint64_t skipped_before = store->stats().promotions_skipped;
  PendingSink sink;
  sink.Park(store, std::move(p), [store](PendingRead* done) {
    EXPECT_TRUE(store->PromoteFromPending(*done).ok());
  });
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();
  EXPECT_GT(store->stats().promotions_skipped, skipped_before);
  // The key still reads correctly afterwards.
  char out[kValueBytes], expected[kValueBytes];
  ASSERT_TRUE(store->Read(5, out, kValueBytes).ok());
  FillValue(5, expected);
  EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0);
}

TEST(PendingReadTest, StalenessBoundFallsBackToBlockingProtocol) {
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStoreOptions o = ColdStoreOptions(dir.File("b.log"), 0, &engine);
  o.store.track_staleness = true;
  o.store.staleness_bound = 0;       // BSP
  o.store.busy_spin_limit = 16;      // abort fast in the fallback
  ShardedStore sharded;
  ASSERT_TRUE(sharded.Open(o).ok());
  FasterStore* store = sharded.shard(0);

  // Raise one key's staleness while it is still mutable, then bury it so
  // the stale counter freezes on disk.
  char value[kValueBytes];
  FillValue(42, value);
  ASSERT_TRUE(store->Upsert(42, value, kValueBytes).ok());
  char buf[kValueBytes];
  for (int i = 0; i < 3; ++i) {  // tracked reads: staleness -> 3
    ASSERT_TRUE(
        store->Read(42, buf, kValueBytes, nullptr, UINT32_MAX - 2).ok());
  }
  for (Key filler = 1000; filler < 3000; ++filler) {
    FillValue(filler, value);
    ASSERT_TRUE(store->Upsert(filler, value, kValueBytes).ok());
  }
  ASSERT_FALSE(store->IsInMemory(42));

  // Async tracked read under BSP: the landed record fails the bound, the
  // fallback re-read spins out, and the key reports Busy — exactly the
  // blocking path's outcome.
  std::vector<Key> keys = {42};
  keys.push_back(1001);  // sibling must still be served
  std::vector<char> rows(keys.size() * kValueBytes, 0);
  BatchResult r;
  sharded.MultiExecuteRead(
      keys,
      [&rows](FasterStore* shard, Key key, size_t i, BatchResult* part,
              size_t pi, PendingSink* sink) {
        char* dst = rows.data() + i * kValueBytes;
        if (sink == nullptr) {
          part->Record(pi, shard->Read(key, dst, kValueBytes));
          return;
        }
        std::unique_ptr<PendingRead> p;
        const Status s = shard->StartRead(key, dst, kValueBytes, UINT32_MAX,
                                          /*tracked=*/true, &p);
        if (p == nullptr) {
          part->Record(pi, s);
          return;
        }
        sink->Park(shard, std::move(p), [part, pi](PendingRead* done) {
          part->Record(pi, done->status);
        });
      },
      &r);
  EXPECT_EQ(r.codes[0], Status::Code::kBusy);
  EXPECT_EQ(r.codes[1], Status::Code::kOk);
  EXPECT_GE(store->stats().async_reads_refetched, 1u);
  EXPECT_GE(store->stats().busy_aborts, 1u);
}

TEST(PendingReadTest, InjectedFaultsFailOnlyTheirKeys) {
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  AsyncIoEngine engine;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  ShardedStoreOptions o = ColdStoreOptions(dir.File("f.log"), 0, &engine);
  o.store.device_factory = [script]() {
    return std::make_unique<FaultyFileDevice>(script);
  };
  ShardedStore store;
  ASSERT_TRUE(store.Open(o).ok());
  LoadKeys(&store, kKeys);

  std::vector<Key> keys;
  for (Key k = 0; k < 32; ++k) keys.push_back(k);  // all cold, distinct
  std::vector<char> out(keys.size() * kValueBytes, 0);

  // Fail exactly one device read; phase 1 issues none, so it is one of
  // the wave's record fetches.
  script->fail_from.store(script->reads.load() + 2);
  script->fail_count.store(1);
  BatchResult r;
  store.MultiExecuteRead(keys, RawReadOp(out.data(), kValueBytes), &r);

  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.first_error.IsIOError());
  size_t io_errors = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (r.codes[i] == Status::Code::kIOError) {
      ++io_errors;
      continue;
    }
    ASSERT_EQ(r.codes[i], Status::Code::kOk) << "sibling poisoned at " << i;
    char expected[kValueBytes];
    FillValue(keys[i], expected);
    EXPECT_EQ(std::memcmp(&out[i * kValueBytes], expected, kValueBytes), 0);
  }
  EXPECT_EQ(io_errors, 1u);

  // A persistently failing device fails every cold key — and still no
  // crash, hang, or misattributed success.
  script->fail_from.store(1);
  script->fail_count.store(UINT64_MAX);
  BatchResult all_fail;
  store.MultiExecuteRead(keys, RawReadOp(out.data(), kValueBytes),
                         &all_fail);
  EXPECT_EQ(all_fail.failed, keys.size());
  script->fail_from.store(0);  // disarm
}

// A small MLKV DB whose tables mostly live on disk.
MlkvOptions ColdMlkvOptions(const std::string& dir, uint32_t shard_bits) {
  MlkvOptions o;
  o.dir = dir;
  o.index_slots = 4096;
  o.mem_size = 1u << 16;
  o.page_size = 1u << 12;
  o.shard_bits = shard_bits;
  o.io_threads = 4;
  return o;
}

// Writes rows k*100 + d for keys [0, n).
void PutRows(EmbeddingTable* table, uint64_t n) {
  const uint32_t dim = table->dim();
  std::vector<Key> keys(n);
  std::vector<float> rows(n * dim);
  for (uint64_t k = 0; k < n; ++k) {
    keys[k] = k;
    for (uint32_t d = 0; d < dim; ++d) {
      rows[k * dim + d] = static_cast<float>(k * 100 + d);
    }
  }
  BatchResult put;
  ASSERT_TRUE(table->Put(keys, rows.data(), &put).ok());
}

TEST(PendingReadTest, MlkvWaveMatchesBlockingReadsAndLookahead) {
  // End-to-end through Mlkv/EmbeddingTable: the wave serves the same bytes
  // and per-key codes as blocking per-key FasterStore::Read/Peek on the
  // same shards, Lookahead promotions ride the wave, and closing the DB
  // right after issuing lookaheads drains cleanly.
  constexpr uint32_t kDim = 8;
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(ColdMlkvOptions(dir.path() + "/db", 2), &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", kDim, kAspBound, &table).ok());
  PutRows(table, kKeys);
  ShardedStore* store = table->store();

  // Cold strided keys, a duplicate and a never-stored key; the wave goes
  // first so its keys are still cold.
  const auto check = [&](uint64_t offset, bool tracked) {
    std::vector<Key> batch;
    for (uint64_t i = 0; i < 300; ++i) {
      batch.push_back((i * 13 + offset) % kKeys);
    }
    batch.push_back(batch[0]);
    batch.push_back(kKeys + 77);
    std::vector<float> wave(batch.size() * kDim, 0.0f);
    const uint64_t submitted = store->stats().async_reads_submitted;
    BatchResult r;
    if (tracked) {
      table->Get(batch, wave.data(), &r);
    } else {
      table->Peek(batch, wave.data(), &r);
    }
    EXPECT_GT(store->stats().async_reads_submitted, submitted);
    EXPECT_EQ(r.missing, 1u);

    std::vector<float> blocking(kDim);
    for (size_t i = 0; i < batch.size(); ++i) {
      FasterStore* shard = store->ShardFor(batch[i]);
      const uint32_t bytes = kDim * sizeof(float);
      const Status s = tracked ? shard->Read(batch[i], blocking.data(), bytes)
                               : shard->Peek(batch[i], blocking.data(), bytes);
      EXPECT_EQ(r.codes[i], s.code()) << "key " << batch[i];
      if (s.ok()) {
        EXPECT_EQ(std::memcmp(&wave[i * kDim], blocking.data(), bytes), 0)
            << "key " << batch[i];
      }
    }
  };
  check(/*offset=*/0, /*tracked=*/true);
  check(/*offset=*/7, /*tracked=*/false);

  // Lookahead promotion over cold keys rides the same pipeline.
  std::vector<Key> ahead;
  for (Key k = 0; k < 64; ++k) ahead.push_back(k);
  const uint64_t promotions = store->stats().promotions;
  ASSERT_TRUE(table->Lookahead(ahead).ok());
  table->WaitLookahead();
  EXPECT_GT(store->stats().promotions, promotions);

  // Drain-on-close: issue lookaheads and destroy immediately.
  ASSERT_TRUE(table->Lookahead(ahead).ok());
  db.reset();
}

// A key absent from `store` whose index slot is the same as `key`'s.
Key SlotMateOf(const FasterStore& store, Key key, Key first_candidate) {
  const uint64_t mask = store.index_slots() - 1;
  Key k = first_candidate;
  while ((Hash64(k) & mask) != (Hash64(key) & mask)) ++k;
  return k;
}

TEST(PendingReadTest, GetOrInitInsertsAgainstTheWalkedChainHead) {
  // An absent key whose slot chain is one disk-resident record: the wave
  // fetches that record once, and the bootstrap insert goes in against the
  // chain head the walk saw — no second (blocking) walk inside Rmw.
  constexpr uint32_t kDim = 8;
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(ColdMlkvOptions(dir.path() + "/db", 0), &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", kDim, kAspBound, &table).ok());
  FasterStore* store = table->store()->shard(0);

  // `cold` alone in its slot, buried under fillers from other slots.
  const Key cold = 1;
  const uint64_t mask = store->index_slots() - 1;
  std::vector<float> row(kDim, 0.5f);
  ASSERT_TRUE(table->Put({&cold, 1}, row.data()).ok());
  Key hot = 0;
  for (Key k = 100; k < 3100; ++k) {
    if ((Hash64(k) & mask) == (Hash64(cold) & mask)) continue;
    ASSERT_TRUE(table->Put({&k, 1}, row.data()).ok());
    hot = k;
  }
  ASSERT_FALSE(store->IsInMemory(cold));
  ASSERT_TRUE(store->IsInMemory(hot));
  const Key absent = SlotMateOf(*store, cold, 1u << 20);

  const FasterStatsSnapshot before = store->stats();
  const std::vector<Key> batch = {absent, hot};
  std::vector<float> out(batch.size() * kDim);
  BatchResult r;
  ASSERT_TRUE(table->GetOrInit(batch, out.data(), &r).ok());
  const FasterStatsSnapshot after = store->stats();
  EXPECT_EQ(r.missing, 1u);
  EXPECT_EQ(after.disk_record_reads - before.disk_record_reads, 1u);
  EXPECT_EQ(after.inserts - before.inserts, 1u);
  EXPECT_EQ(after.rmws, before.rmws);

  std::vector<float> expected(kDim);
  InitEmbedding(absent, kDim, expected.data());
  EXPECT_EQ(std::memcmp(out.data(), expected.data(), kDim * sizeof(float)),
            0);
  std::vector<float> again(kDim);
  ASSERT_TRUE(table->Peek({&absent, 1}, again.data()).ok());
  EXPECT_EQ(again, expected);
}

TEST(PendingReadTest, InitFallsBackToRmwWhenTheSlotMoved) {
  constexpr uint32_t kDim = 4;
  const uint32_t rec_bytes = OptimizerValueBytes(OptimizerKind::kAdagrad, kDim);
  TempDir dir;
  FasterStore store;
  FasterOptions o;
  o.path = dir.File("m.log");
  o.index_slots = 64;
  o.mem_size = 1u << 16;
  o.page_size = 1u << 12;
  ASSERT_TRUE(store.Open(o).ok());

  const Key key = 9;
  const Key mate = SlotMateOf(store, key, 1000);
  std::unique_ptr<PendingRead> parked;
  Address head = kInvalidAddress;
  std::vector<float> probe(kDim);
  ASSERT_TRUE(store
                  .StartRead(key, probe.data(), kDim * sizeof(float),
                             UINT32_MAX, /*tracked=*/false, &parked, &head)
                  .IsNotFound());
  ASSERT_EQ(parked, nullptr);
  // A publish to the same slot after the walk moves the head.
  const float mate_row[kDim] = {1, 2, 3, 4};
  ASSERT_TRUE(store.Upsert(mate, mate_row, sizeof(mate_row)).ok());

  const FasterStatsSnapshot before = store.stats();
  std::vector<float> first(kDim), second(kDim);
  ASSERT_TRUE(
      InitMissingRow(&store, key, first.data(), kDim, rec_bytes, &head).ok());
  // A racing initializer that walked the same stale chain loses to the
  // first and adopts its row.
  ASSERT_TRUE(
      InitMissingRow(&store, key, second.data(), kDim, rec_bytes, &head).ok());
  const FasterStatsSnapshot after = store.stats();
  EXPECT_EQ(after.rmws - before.rmws, 2u);
  EXPECT_EQ(after.inserts - before.inserts, 1u);
  EXPECT_EQ(first, second);

  // The stored record is the embedding plus all-zero optimizer state.
  std::vector<float> stored(rec_bytes / sizeof(float), -1.0f);
  uint32_t size = 0;
  ASSERT_TRUE(store.Peek(key, stored.data(), rec_bytes, &size).ok());
  EXPECT_EQ(size, rec_bytes);
  for (uint32_t d = 0; d < kDim; ++d) EXPECT_EQ(stored[d], first[d]);
  for (size_t d = kDim; d < stored.size(); ++d) EXPECT_EQ(stored[d], 0.0f);
}

TEST(PendingReadTest, RacingGetOrInitAgreeAndInsertOnce) {
  constexpr uint32_t kDim = 8;
  constexpr int kThreads = 4;
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(ColdMlkvOptions(dir.path() + "/db", 2), &db).ok());
  EmbeddingTable* table = nullptr;
  OptimizerConfig adagrad;
  adagrad.kind = OptimizerKind::kAdagrad;
  ASSERT_TRUE(db->OpenTable("emb", kDim, kAspBound, &table, adagrad).ok());
  PutRows(table, 3000);  // most slot chains reach the disk

  std::vector<Key> absent;
  for (Key k = 0; k < 64; ++k) absent.push_back((1u << 20) + k * 7);
  const uint64_t inserts = table->store()->stats().inserts;
  std::vector<std::vector<float>> outs(kThreads,
                                       std::vector<float>(absent.size() * kDim));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BatchResult r;
      EXPECT_TRUE(table->GetOrInit(absent, outs[t].data(), &r).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(table->store()->stats().inserts - inserts, absent.size());
  std::vector<float> expected(kDim);
  for (size_t i = 0; i < absent.size(); ++i) {
    InitEmbedding(absent[i], kDim, expected.data());
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(std::memcmp(&outs[t][i * kDim], expected.data(),
                            kDim * sizeof(float)),
                0)
          << "thread " << t << " key " << absent[i];
    }
  }
}

TEST(PendingReadTest, TrackedColdGetThenPutIsInPlace) {
  // MLKV tables copy disk-served reads to the tail, so the Put that follows
  // a tracked Get updates the record in place with no disk read.
  constexpr uint32_t kDim = 8;
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(ColdMlkvOptions(dir.path() + "/db", 2), &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", kDim, 4, &table).ok());
  PutRows(table, 1500);
  ShardedStore* store = table->store();
  const std::vector<Key> cold = {3, 5};
  for (const Key k : cold) ASSERT_FALSE(store->IsInMemory(k)) << k;

  std::vector<float> rows(cold.size() * kDim);
  BatchResult got;
  ASSERT_TRUE(table->Get(cold, rows.data(), &got).ok());
  EXPECT_EQ(rows[0], 300.0f);  // key 3, d 0
  EXPECT_GE(store->stats().read_promotions, cold.size());

  const FasterStatsSnapshot before = store->stats();
  for (float& v : rows) v += 1.0f;
  ASSERT_TRUE(table->Put({&cold[0], 1}, rows.data()).ok());
  const FasterStatsSnapshot after = store->stats();
  EXPECT_EQ(after.inplace_updates - before.inplace_updates, 1u);
  EXPECT_EQ(after.rcu_appends, before.rcu_appends);
  EXPECT_EQ(after.disk_record_reads, before.disk_record_reads);
}

TEST(PendingReadTest, ColdReadNeverTruncatesOptimizerState) {
  // A read fetches only the embedding; copying that prefix to the tail
  // would drop the optimizer state behind it, so such records stay put.
  constexpr uint32_t kDim = 8;
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(ColdMlkvOptions(dir.path() + "/db", 0), &db).ok());
  EmbeddingTable* table = nullptr;
  OptimizerConfig adagrad;
  adagrad.kind = OptimizerKind::kAdagrad;
  ASSERT_TRUE(db->OpenTable("emb", kDim, kAspBound, &table, adagrad).ok());
  const Key key = 3;
  std::vector<float> grad(kDim, 0.25f);
  ASSERT_TRUE(table->ApplyGradients({&key, 1}, grad.data()).ok());
  FasterStore* shard = table->store()->shard(0);
  const uint32_t rec_bytes = table->record_bytes();
  std::vector<char> record(rec_bytes), after(rec_bytes);
  ASSERT_TRUE(shard->Peek(key, record.data(), rec_bytes).ok());
  std::vector<float> filler(kDim, 1.0f);
  for (Key k = 100; k < 1600; ++k) {
    ASSERT_TRUE(table->Put({&k, 1}, filler.data()).ok());
  }
  ASSERT_FALSE(shard->IsInMemory(key));

  const std::vector<Key> batch = {key, 1599};
  std::vector<float> rows(batch.size() * kDim);
  ASSERT_TRUE(table->Get(batch, rows.data()).ok());
  EXPECT_EQ(shard->stats().read_promotions, 0u);
  EXPECT_FALSE(shard->IsInMemory(key));
  uint32_t size = 0;
  ASSERT_TRUE(shard->Peek(key, after.data(), rec_bytes, &size).ok());
  EXPECT_EQ(size, rec_bytes);
  EXPECT_EQ(after, record);
}

}  // namespace
}  // namespace mlkv
