// Train -> checkpoint -> serve: the full lifecycle of an embedding model on
// MLKV (the inference half mirrors HugeCTR's out-of-core parameter server,
// which the paper cites as a motivating integration).
//
//   build/examples/embedding_serving
//
// Phase 1 trains a small CTR-style embedding table and checkpoints it.
// Phase 2 simulates a serving replica: a fresh Mlkv instance recovers the
// directory, wraps the table in the serving-cache decorator
// (MakeCachingBackend over MakeMlkvTableBackend), warms the head of the
// popularity distribution into the cache, and answers zipfian batched
// lookups, printing hit rates and tail latency. Exits non-zero if a row is
// missing or the cache never hits.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/kv_backend.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

using namespace mlkv;

namespace {
constexpr uint32_t kDim = 16;
constexpr Key kRows = 100000;

// Sums one of the decorator's per-shard counters (the /metrics cells).
uint64_t MetricTotal(const KvBackend& backend, const std::string& name) {
  obs::MetricsSink sink;
  backend.CollectMetrics(&sink);
  return static_cast<uint64_t>(sink.Sum(name));
}
}  // namespace

int main() {
  TempDir workdir("mlkv-serving");
  MlkvOptions options;
  options.dir = workdir.File("db");
  options.mem_size = 8ull << 20;

  // ---- Phase 1: "train" and checkpoint. ----
  {
    std::unique_ptr<Mlkv> db;
    if (!Mlkv::Open(options, &db).ok()) return 1;
    EmbeddingTable* table = nullptr;
    OptimizerConfig adagrad;
    adagrad.kind = OptimizerKind::kAdagrad;
    if (!db->OpenTable("ctr_emb", kDim, 8, &table, adagrad).ok()) return 1;
    std::vector<float> v(kDim), g(kDim, 0.05f);
    for (Key k = 0; k < kRows; ++k) {
      if (!table->GetOrInit({&k, 1}, v.data()).ok()) return 1;
    }
    // A few gradient passes over a popular subset (what training skew does).
    ZipfianGenerator zipf(kRows, 0.99, 7);
    for (int i = 0; i < 50000; ++i) {
      const Key k = zipf.NextScrambled();
      if (!table->Get({&k, 1}, v.data()).ok()) return 1;
      if (!table->ApplyGradients({&k, 1}, g.data()).ok()) return 1;
    }
    if (!db->CheckpointAll().ok()) return 1;
    std::printf("phase1: trained %llu rows, checkpointed\n",
                static_cast<unsigned long long>(table->num_embeddings()));
  }

  // ---- Phase 2: serving replica recovers and answers lookups. ----
  std::unique_ptr<Mlkv> db;
  if (!Mlkv::Open(options, &db).ok()) return 1;
  EmbeddingTable* table = nullptr;
  if (!db->OpenExistingTable("ctr_emb", &table).ok()) return 1;

  std::unique_ptr<KvBackend> engine, server;
  if (!MakeMlkvTableBackend(table, &engine).ok()) return 1;
  if (!MakeCachingBackend(std::move(engine), 1 << 14, &server).ok()) return 1;
  // Serving reads are untracked (a co-located trainer's staleness budget
  // is untouched) and never bootstrap unseen ids.
  MultiGetOptions serving;
  serving.untracked = true;
  serving.init_missing = false;

  // Deploy-time warmup: the head of the id distribution is known. One
  // untracked read fills the cache.
  std::vector<Key> head(1 << 13);
  for (size_t i = 0; i < head.size(); ++i) head[i] = i;
  std::vector<float> head_rows(head.size() * kDim);
  if (server->MultiGet(head, head_rows.data(), serving).failed > 0) return 1;
  std::printf("phase2: recovered table, warmed %zu hot rows\n", head.size());
  const uint64_t warm_hits = MetricTotal(*server, "mlkv_cache_hits_total");
  const uint64_t warm_misses = MetricTotal(*server, "mlkv_cache_misses_total");

  // Serve zipfian traffic. Unseen ids embed to the origin (the
  // DLRM-serving convention): zero-fill rows reported kNotFound.
  ZipfianGenerator zipf(kRows, 0.99, 99);
  std::vector<Key> batch(256);
  std::vector<float> out(batch.size() * kDim);
  Histogram latency_us;
  uint64_t lookups = 0, batches = 0, missing = 0;
  for (int b = 0; b < 500; ++b) {
    for (auto& k : batch) k = zipf.NextScrambled();
    const StopWatch watch;
    const BatchResult r = server->MultiGet(batch, out.data(), serving);
    if (r.failed > 0) return 1;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (r.codes[i] == Status::Code::kNotFound) {
        std::memset(&out[i * kDim], 0, kDim * sizeof(float));
      }
    }
    latency_us.Record(watch.ElapsedMicros());
    lookups += batch.size();
    missing += r.missing;
    ++batches;
  }
  const uint64_t cache_hits =
      MetricTotal(*server, "mlkv_cache_hits_total") - warm_hits;
  const uint64_t store_reads =
      MetricTotal(*server, "mlkv_cache_misses_total") - warm_misses;
  std::printf("served %llu lookups in %llu batches\n",
              static_cast<unsigned long long>(lookups),
              static_cast<unsigned long long>(batches));
  std::printf("cache hits %.1f%%  store reads %.1f%%  missing %llu\n",
              100.0 * static_cast<double>(cache_hits) /
                  static_cast<double>(lookups),
              100.0 * static_cast<double>(store_reads) /
                  static_cast<double>(lookups),
              static_cast<unsigned long long>(missing));
  std::printf("batch latency p50 %llu us  p95 %llu us  p99 %llu us\n",
              static_cast<unsigned long long>(latency_us.Percentile(0.50)),
              static_cast<unsigned long long>(latency_us.Percentile(0.95)),
              static_cast<unsigned long long>(latency_us.Percentile(0.99)));
  return missing == 0 && cache_hits > 0 ? 0 : 1;
}
