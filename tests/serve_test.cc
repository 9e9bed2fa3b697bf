// Serving read path tests: MakeCachingBackend over MakeMlkvTableBackend,
// the way an inference replica serves a trained or recovered table —
// lookup correctness, cache hits and fills, per-key missing codes, warmup,
// serving a recovered checkpoint, and serving concurrently with a live
// trainer that writes through the same decorator.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "common/random.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

namespace mlkv {
namespace {

constexpr uint32_t kDim = 8;

// The serving read: untracked (never touches the staleness clocks) and
// no bootstrap (an unseen id reports kNotFound instead of inventing a row).
MultiGetOptions ServingRead() {
  MultiGetOptions o;
  o.untracked = true;
  o.init_missing = false;
  return o;
}

// Sums a decorator counter family (mlkv_cache_*) across its cache shards.
uint64_t Count(const KvBackend& backend, const std::string& name) {
  obs::MetricsSink sink;
  backend.CollectMetrics(&sink);
  return static_cast<uint64_t>(sink.Sum(name));
}

// The serving read path over `table`: the decorator on the table adapter.
std::unique_ptr<KvBackend> Serve(EmbeddingTable* table) {
  std::unique_ptr<KvBackend> engine, cached;
  EXPECT_TRUE(MakeMlkvTableBackend(table, &engine).ok());
  EXPECT_TRUE(MakeCachingBackend(std::move(engine), 1 << 16, &cached).ok());
  return cached;
}

struct ServeFixture {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  EmbeddingTable* table = nullptr;

  explicit ServeFixture(Key rows, uint64_t mem_pages = 16) {
    MlkvOptions opts;
    opts.dir = dir.path() + "/db";
    opts.index_slots = 4096;
    opts.page_size = 4096;
    opts.mem_size = mem_pages * 4096;
    EXPECT_TRUE(Mlkv::Open(opts, &db).ok());
    EXPECT_TRUE(db->OpenTable("emb", kDim, 8, &table).ok());
    std::vector<float> v(kDim);
    for (Key k = 0; k < rows; ++k) {
      for (uint32_t d = 0; d < kDim; ++d) {
        v[d] = Expected(k, d);
      }
      EXPECT_TRUE(table->Put({&k, 1}, v.data()).ok());
    }
  }

  static float Expected(Key k, uint32_t d) {
    return static_cast<float>(k) + 0.125f * static_cast<float>(d);
  }
};

TEST(ServeTest, TableBackendRejectsNullTable) {
  std::unique_ptr<KvBackend> engine;
  EXPECT_TRUE(MakeMlkvTableBackend(nullptr, &engine).IsInvalidArgument());
  EXPECT_EQ(engine, nullptr);
}

TEST(ServeTest, LookupReturnsStoredEmbeddings) {
  ServeFixture f(200);
  auto server = Serve(f.table);
  EXPECT_EQ(server->name(), "Cached(MLKV)");
  EXPECT_EQ(server->dim(), kDim);
  std::vector<Key> keys = {0, 7, 42, 199};
  std::vector<float> out(keys.size() * kDim);
  const BatchResult r = server->MultiGet(keys, out.data(), ServingRead());
  ASSERT_TRUE(r.AllOk());
  EXPECT_EQ(r.found, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_FLOAT_EQ(out[i * kDim + d], ServeFixture::Expected(keys[i], d));
    }
  }
  EXPECT_EQ(Count(*server, "mlkv_cache_misses_total"), keys.size());
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total"), 0u);
}

TEST(ServeTest, RepeatLookupsHitTheCache) {
  ServeFixture f(200);
  auto server = Serve(f.table);
  std::vector<Key> keys = {1, 2, 3, 4};
  std::vector<float> out(keys.size() * kDim);
  ASSERT_TRUE(server->MultiGet(keys, out.data(), ServingRead()).AllOk());
  ASSERT_TRUE(server->MultiGet(keys, out.data(), ServingRead()).AllOk());
  EXPECT_EQ(Count(*server, "mlkv_cache_misses_total"), keys.size());
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total"), keys.size());
  EXPECT_EQ(Count(*server, "mlkv_cache_entries"), keys.size());
}

TEST(ServeTest, MissingKeysReportPerKeyCodes) {
  // A serving read never bootstraps: unseen ids come back kNotFound per
  // key (the caller zero-fills them, the DLRM-serving convention) while
  // the found keys in the same batch are served. The second pass serves
  // key 5 from the cache; the counts must stay the same.
  ServeFixture f(10);
  auto server = Serve(f.table);
  std::vector<Key> keys = {5, 99999, 77777};
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<float> out(keys.size() * kDim, -1.0f);
    const BatchResult r = server->MultiGet(keys, out.data(), ServingRead());
    EXPECT_EQ(r.codes[0], Status::Code::kOk) << pass;
    EXPECT_EQ(r.codes[1], Status::Code::kNotFound) << pass;
    EXPECT_EQ(r.codes[2], Status::Code::kNotFound) << pass;
    EXPECT_EQ(r.found, 1u) << pass;
    EXPECT_EQ(r.missing, 2u) << pass;
    EXPECT_TRUE(r.status().IsNotFound()) << pass;
    EXPECT_FLOAT_EQ(out[0], ServeFixture::Expected(5, 0)) << pass;
    EXPECT_FLOAT_EQ(out[kDim], -1.0f) << "missing rows stay untouched";
  }
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total"), 1u);
  EXPECT_EQ(Count(*server, "mlkv_cache_entries"), 1u)
      << "missing keys must not be cached";
}

TEST(ServeTest, WarmPreloadsTheCache) {
  ServeFixture f(200);
  auto server = Serve(f.table);
  std::vector<Key> hot(50);
  for (Key k = 0; k < 50; ++k) hot[k] = k;
  std::vector<float> out(hot.size() * kDim);
  ASSERT_TRUE(server->MultiGet(hot, out.data(), ServingRead()).AllOk());
  const uint64_t store_reads = Count(*server, "mlkv_cache_misses_total");
  ASSERT_TRUE(server->MultiGet(hot, out.data(), ServingRead()).AllOk());
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total"), hot.size());
  EXPECT_EQ(Count(*server, "mlkv_cache_misses_total"), store_reads);
}

TEST(ServeTest, WarmSkipsMissingKeys) {
  ServeFixture f(10);
  auto server = Serve(f.table);
  std::vector<Key> keys = {1, 77777, 2};
  std::vector<float> out(keys.size() * kDim);
  const BatchResult warm = server->MultiGet(keys, out.data(), ServingRead());
  EXPECT_EQ(warm.found, 2u);
  EXPECT_EQ(warm.missing, 1u);
  EXPECT_EQ(warm.failed, 0u);
  EXPECT_EQ(Count(*server, "mlkv_cache_entries"), 2u);
}

TEST(ServeTest, LookupsDoNotConsumeStalenessBudget) {
  // Serving shares a table with training; its reads must be invisible to
  // the bounded-staleness protocol. Every cache miss goes through the table
  // adapter's untracked read, so drive that path directly.
  ServeFixture f(50);
  std::unique_ptr<KvBackend> engine;
  ASSERT_TRUE(MakeMlkvTableBackend(f.table, &engine).ok());
  Key key = 3;
  std::vector<float> out(kDim);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine->MultiGet({&key, 1}, out.data(), ServingRead()).AllOk());
  }
  // With bound 8, a tracked read x200 would starve this Get.
  ASSERT_TRUE(f.table->Get({&key, 1}, out.data()).ok());
  ASSERT_TRUE(f.table->Put({&key, 1}, out.data()).ok());
}

TEST(ServeTest, ServesRecoveredCheckpointDirectory) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.index_slots = 1024;
  opts.page_size = 4096;
  opts.mem_size = 16 * 4096;
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* t = nullptr;
    ASSERT_TRUE(db->OpenTable("emb", kDim, 8, &t).ok());
    std::vector<float> v(kDim, 2.5f);
    for (Key k = 0; k < 100; ++k) {
      ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
    }
    ASSERT_TRUE(db->CheckpointAll().ok());
  }
  // Fresh process: recover and serve.
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenExistingTable("emb", &t).ok());
  auto server = Serve(t);
  std::vector<Key> keys = {0, 50, 99};
  std::vector<float> out(keys.size() * kDim);
  ASSERT_TRUE(server->MultiGet(keys, out.data(), ServingRead()).AllOk());
  for (float v : out) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(ServeTest, ConcurrentLookupsAreSafeAndComplete) {
  ServeFixture f(2000, /*mem_pages=*/8);  // out-of-core
  auto server = Serve(f.table);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      std::vector<Key> keys(16);
      std::vector<float> out(keys.size() * kDim);
      for (int i = 0; i < 500; ++i) {
        for (auto& k : keys) k = rng.Next() % 2000;
        if (!server->MultiGet(keys, out.data(), ServingRead()).AllOk()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < keys.size(); ++j) {
          if (out[j * kDim] != ServeFixture::Expected(keys[j], 0)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total") +
                Count(*server, "mlkv_cache_misses_total"),
            4u * 500u * 16u);
}

TEST(ServeTest, ServingWhileTrainingSeesCommittedValues) {
  // The trainer reads tracked (bypassing the cache) and pushes gradients
  // through the same decorator the server reads from, so every write
  // invalidates the served row and the next read misses through.
  ServeFixture f(200);
  auto server = Serve(f.table);
  std::atomic<bool> stop{false};
  std::thread trainer([&] {
    std::vector<float> g(kDim, 0.01f);
    std::vector<float> v(kDim);
    Rng rng(9);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = rng.Next() % 200;
      if (server->MultiGet({&k, 1}, v.data()).AllOk()) {
        server->MultiApplyGradient({&k, 1}, g.data(), 0.1f);
      }
    }
  });
  Rng rng(4);
  std::vector<float> out(kDim);
  for (int i = 0; i < 2000; ++i) {
    const Key k = rng.Next() % 200;
    ASSERT_TRUE(server->MultiGet({&k, 1}, out.data(), ServingRead()).AllOk());
    // Values only ever decrease from the seed under positive gradients.
    EXPECT_LE(out[0], ServeFixture::Expected(k, 0) + 1e-4f);
    EXPECT_TRUE(std::isfinite(out[0]));
  }
  stop.store(true, std::memory_order_release);
  trainer.join();
  // Once training stops, a write through the decorator is what the next
  // serving read returns.
  const Key k = 17;
  std::vector<float> fresh(kDim, -3.0f);
  ASSERT_TRUE(server->MultiPut({&k, 1}, fresh.data()).AllOk());
  ASSERT_TRUE(server->MultiGet({&k, 1}, out.data(), ServingRead()).AllOk());
  EXPECT_EQ(out, fresh);
}

}  // namespace
}  // namespace mlkv
