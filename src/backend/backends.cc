// Adapters binding each storage engine to the batch-first KvBackend seam.
//
// Layout of this file:
//  * batch scaffolding shared by the baseline engines — intra-batch key
//    dedup and a chunked fan-out helper that spreads large batches over a
//    per-backend ThreadPool (the deterministic embedding bootstrap lives
//    in mlkv/embedding_init.h, shared with EmbeddingTable);
//  * BatchedEngineBackend, an intermediate base turning per-key engine
//    primitives (ReadOne/WriteOne/ApplyOne) into MultiGet/MultiPut/
//    MultiApplyGradient with dedup + optional parallelism;
//  * the five adapters: MLKV (delegates whole spans to EmbeddingTable),
//    FASTER / LSM / B+tree (BatchedEngineBackend with native RMW where the
//    engine has one), and the in-memory map (native batch loops that take
//    each lock once per batch).
#include "backend/kv_backend.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "btree/btree_store.h"
#include "common/simd.h"
#include "common/spin_wait.h"
#include "common/thread_pool.h"
#include "kv/batch_read.h"
#include "kv/faster_store.h"
#include "kv/sharded_store.h"
#include "cluster/cluster_backend.h"
#include "kv/update_log.h"
#include "lsm/lsm_store.h"
#include "mlkv/embedding_cache.h"
#include "mlkv/embedding_init.h"
#include "mlkv/mlkv.h"
#include "net/remote_backend.h"
#include "obs/metrics.h"

namespace mlkv {

namespace {

BackendIoStats IoStatsFrom(const FasterStatsSnapshot& s) {
  BackendIoStats io;
  io.disk_record_reads = s.disk_record_reads;
  io.pages_flushed = s.pages_flushed;
  io.pages_evicted = s.pages_evicted;
  io.async_reads_submitted = s.async_reads_submitted;
  io.async_reads_completed = s.async_reads_completed;
  io.async_reads_refetched = s.async_reads_refetched;
  io.async_writes_submitted = s.async_writes_submitted;
  io.async_writes_completed = s.async_writes_completed;
  io.fsyncs = s.fsyncs;
  io.group_commits = s.group_commits;
  return io;
}

// Replication feed over a ShardedStore (shared by the MLKV and FASTER
// adapters): one poll of shard `shard`'s committed-update stream. Persists
// the shard first — replication is a durability consumer, and in
// checkpoint-only mode nothing else advances the durable watermark the
// cursor reads under.
Status ReadShardUpdates(ShardedStore* store, uint32_t shard, uint64_t from,
                        uint32_t max_records, uint32_t max_bytes,
                        std::vector<UpdateEntry>* out, uint64_t* next_from,
                        uint64_t* durable) {
  if (shard >= store->num_shards()) {
    return Status::InvalidArgument("replication shard out of range");
  }
  FasterStore* s = store->shard(shard);
  // Seal before persisting: updates racing with this read must RCU-append
  // above the window instead of rewriting bytes in place, or a cursor that
  // already passed their address would never be told about them. The
  // window ends at the seal, not at the durable watermark: Persist also
  // covers records appended since, which are still mutable.
  const Address sealed = s->mutable_log()->SealMutableRegion();
  MLKV_RETURN_NOT_OK(s->Persist());
  UpdateLogCursor cur(s, from, sealed);
  UpdateEntry e;
  size_t bytes = 0;
  while (out->size() < max_records && cur.Next(&e)) {
    bytes += e.value.size() + 32;  // rough wire cost per entry
    out->push_back(std::move(e));
    if (max_bytes != 0 && bytes >= max_bytes) break;
  }
  MLKV_RETURN_NOT_OK(cur.status());
  *next_from = cur.position();
  *durable = std::min(s->durable_address(), sealed);
  return Status::OK();
}

// Applies one replicated entry by key — the replica's shard layout need
// not match the primary's. A tombstone for a key the replica never saw is
// OK (the delete already "took").
Status ApplyShardUpdate(ShardedStore* store, const UpdateEntry& e) {
  if (e.tombstone) {
    const Status s = store->Delete(e.key);
    return s.IsNotFound() ? Status::OK() : s;
  }
  return store->Upsert(e.key, e.value.data(),
                       static_cast<uint32_t>(e.value.size()));
}

// Scrape-time families shared by the hybrid-log adapters (MLKV tables and
// the FASTER baseline): per-shard op counts — the live load signal ROADMAP
// item 3's shard balancing needs — plus aggregate store behavior and size
// gauges. The io_* families come from the base CollectMetrics.
void EmitStoreMetrics(ShardedStore* store, obs::MetricsSink* sink) {
  for (size_t i = 0; i < store->num_shards(); ++i) {
    const FasterStatsSnapshot s = store->shard(i)->stats();
    const std::string shard = std::to_string(i);
    const char* help = "Operations executed per store shard";
    sink->AddCounter("mlkv_shard_ops_total", help, s.reads,
                     {{"shard", shard}, {"op", "read"}});
    sink->AddCounter("mlkv_shard_ops_total", help, s.upserts,
                     {{"shard", shard}, {"op", "upsert"}});
    sink->AddCounter("mlkv_shard_ops_total", help, s.rmws,
                     {{"shard", shard}, {"op", "rmw"}});
    sink->AddCounter("mlkv_shard_ops_total", help, s.deletes,
                     {{"shard", shard}, {"op", "delete"}});
  }
  const FasterStatsSnapshot s = store->stats();
  sink->AddCounter("mlkv_store_inplace_updates_total",
                   "Writes absorbed in place in the mutable region",
                   s.inplace_updates);
  sink->AddCounter("mlkv_store_rcu_appends_total",
                   "Writes that appended a new record version",
                   s.rcu_appends);
  sink->AddCounter("mlkv_store_inserts_total",
                   "First-time key insertions", s.inserts);
  sink->AddCounter("mlkv_store_promotions_total",
                   "Cold records copied to the log tail", s.promotions);
  sink->AddCounter("mlkv_store_promotions_skipped_total",
                   "Promotions skipped (already in memory or superseded)",
                   s.promotions_skipped);
  sink->AddCounter("mlkv_store_read_promotions_total",
                   "Disk-served reads copied to the log tail",
                   s.read_promotions);
  sink->AddCounter("mlkv_store_read_hops_total",
                   "Pending-read chain hops: disk reads that found another "
                   "key's record",
                   s.read_hops);
  sink->AddCounter("mlkv_store_staleness_waits_total",
                   "Reads that waited out the staleness bound",
                   s.staleness_waits);
  sink->AddCounter("mlkv_store_busy_aborts_total",
                   "Reads that gave up waiting with Busy", s.busy_aborts);
  sink->AddCounter("mlkv_store_compactions_total",
                   "Log compaction passes", s.compactions);
  sink->AddCounter("mlkv_store_compaction_live_copied_total",
                   "Live records re-appended by compaction",
                   s.compaction_live_copied);
  sink->AddGauge("mlkv_store_live_keys",
                 "Approximate number of live keys",
                 static_cast<double>(store->approximate_size()));
  sink->AddGauge("mlkv_store_log_span_bytes",
                 "Bytes spanned by the hybrid log (begin to tail)",
                 static_cast<double>(store->log_span_bytes()));
  sink->AddGauge("mlkv_store_index_slots",
                 "Hash index words (8 per 64-byte bucket)",
                 static_cast<double>(store->index_slots()));
  if (const AsyncIoEngine* io = store->options().store.io) {
    sink->AddHistogram("mlkv_io_queue_wait_seconds",
                       "Time an AsyncIoEngine request waited between Submit "
                       "and a worker picking it up",
                       io->queue_wait());
  }
}

// Deduplicated view of one batch: `unique` holds first occurrences in
// input order; `slot_of[i]` maps input position i to its unique slot.
// Trainers dedup their minibatches anyway, but serving and YCSB traffic
// under skew does not — dedup keeps a zipfian batch from hammering one
// record and keeps parallel chunks free of same-key write races.
struct DedupPlan {
  std::vector<Key> unique;
  std::vector<uint32_t> slot_of;
  bool has_dupes = false;

  explicit DedupPlan(std::span<const Key> keys) {
    slot_of.resize(keys.size());
    unique.reserve(keys.size());
    if (keys.size() <= 1) {  // single-key wrappers: no hashing needed
      unique.assign(keys.begin(), keys.end());
      if (!slot_of.empty()) slot_of[0] = 0;
      return;
    }
    std::unordered_map<Key, uint32_t> first;
    first.reserve(keys.size() * 2);
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto [it, fresh] =
          first.emplace(keys[i], static_cast<uint32_t>(unique.size()));
      if (fresh) {
        unique.push_back(keys[i]);
      } else {
        has_dupes = true;
      }
      slot_of[i] = it->second;
    }
  }
};

// Runs fn(begin, end, &part) over [0, n), splitting into contiguous chunks
// across `pool` when the batch is large enough. fn records the outcome of
// key i at chunk-local index i - begin in its part (pre-sized to
// end - begin); parts are appended back together in input order after the
// fan-in. The calling thread works on the first chunk itself.
BatchResult RunChunked(
    ThreadPool* pool, size_t n, size_t min_chunk,
    const std::function<void(size_t, size_t, BatchResult*)>& fn) {
  size_t chunks = 1;
  if (pool != nullptr && min_chunk > 0) {
    chunks = std::min(pool->num_threads() + 1, n / min_chunk);
    if (chunks == 0) chunks = 1;
  }
  if (chunks <= 1) {
    BatchResult result(n);
    if (n > 0) fn(0, n, &result);
    return result;
  }
  const size_t per = (n + chunks - 1) / chunks;
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<BatchResult> parts;
  for (size_t begin = 0; begin < n; begin += per) {
    const size_t end = std::min(n, begin + per);
    ranges.emplace_back(begin, end);
    parts.emplace_back(end - begin);
  }
  std::atomic<size_t> pending{0};
  for (size_t c = 1; c < ranges.size(); ++c) {
    pending.fetch_add(1, std::memory_order_acq_rel);
    const bool submitted = pool->Submit([&, c] {
      fn(ranges[c].first, ranges[c].second, &parts[c]);
      pending.fetch_sub(1, std::memory_order_acq_rel);
    });
    if (!submitted) {  // pool shutting down: degrade to inline
      fn(ranges[c].first, ranges[c].second, &parts[c]);
      pending.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  fn(ranges[0].first, ranges[0].second, &parts[0]);
  // The fan-in must not starve the pool workers it waits for.
  SpinWaitUntil([&] { return pending.load(std::memory_order_acquire) == 0; });
  BatchResult result;
  result.codes.reserve(n);
  for (const BatchResult& part : parts) result.Append(part);
  return result;
}

// Turns thread-safe per-key engine primitives into the batched KvBackend
// surface: key dedup, optional chunked fan-out over a per-backend pool,
// and per-key outcome bookkeeping live here once instead of per engine.
class BatchedEngineBackend : public KvBackend {
 public:
  uint32_t dim() const override { return dim_; }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    const DedupPlan plan(keys);
    const size_t n = plan.unique.size();
    std::vector<float> scratch;
    float* ubuf = out;
    if (plan.has_dupes) {
      scratch.resize(n * size_t{dim_});
      ubuf = scratch.data();
    }
    // Disjoint byte writes per chunk; read back only after the fan-in.
    std::vector<uint8_t> fresh(n, 0);
    BatchResult uniq = RunChunked(
        pool_.get(), n, min_chunk_,
        [&](size_t begin, size_t end, BatchResult* r) {
          for (size_t u = begin; u < end; ++u) {
            const Key key = plan.unique[u];
            float* dst = ubuf + u * dim_;
            Status s = ReadOne(key, dst);
            if (s.IsNotFound() && options.init_missing) {
              InitEmbedding(key, dim_, dst);
              s = InitMissingOne(key, dst);
              if (s.ok()) {
                fresh[u] = 1;
                r->RecordInitialized(u - begin);
                continue;
              }
            }
            r->Record(u - begin, s);
          }
        });
    if (!plan.has_dupes) return uniq;
    // Scatter values and codes back to every occurrence; only the first
    // occurrence of a fresh key counts as missing, matching a sequential
    // per-key loop (the first get initializes, later ones find).
    BatchResult result(keys.size());
    std::vector<uint8_t> seen(n, 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint32_t u = plan.slot_of[i];
      if (uniq.codes[u] == Status::Code::kOk) {
        simd::CopyFloats(out + i * size_t{dim_}, ubuf + u * size_t{dim_},
                         dim_);
        if (fresh[u] && !seen[u]) {
          result.RecordInitialized(i);
        } else {
          result.Record(i, Status::OK());
        }
      } else {
        // Non-kOk rows stay untouched (the scratch row was never written).
        result.Record(i, uniq.StatusAt(u));
      }
      seen[u] = 1;
    }
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    const DedupPlan plan(keys);
    const size_t n = plan.unique.size();
    const float* ubuf = values;
    std::vector<float> scratch;
    if (plan.has_dupes) {
      // Last occurrence wins, matching a sequential per-key loop.
      scratch.resize(n * size_t{dim_});
      for (size_t i = 0; i < keys.size(); ++i) {
        simd::CopyFloats(&scratch[plan.slot_of[i] * size_t{dim_}],
                         values + i * size_t{dim_}, dim_);
      }
      ubuf = scratch.data();
    }
    BatchResult uniq = RunChunked(
        pool_.get(), n, min_chunk_,
        [&](size_t begin, size_t end, BatchResult* r) {
          for (size_t u = begin; u < end; ++u) {
            r->Record(u - begin, WriteOne(plan.unique[u], ubuf + u * dim_));
          }
        });
    if (!plan.has_dupes) return uniq;
    BatchResult result(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      result.Record(i, uniq.StatusAt(plan.slot_of[i]));
    }
    return result;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    const DedupPlan plan(keys);
    const size_t n = plan.unique.size();
    const float* ubuf = grads;
    std::vector<float> scratch;
    if (plan.has_dupes) {
      // Duplicate keys accumulate: SGD is linear in the gradient, so one
      // fused apply of the sum equals sequential applies per occurrence.
      scratch.assign(n * size_t{dim_}, 0.0f);
      for (size_t i = 0; i < keys.size(); ++i) {
        simd::AccumulateFloats(&scratch[plan.slot_of[i] * size_t{dim_}],
                               grads + i * size_t{dim_}, dim_);
      }
      ubuf = scratch.data();
    }
    BatchResult uniq = RunChunked(
        pool_.get(), n, min_chunk_,
        [&](size_t begin, size_t end, BatchResult* r) {
          for (size_t u = begin; u < end; ++u) {
            r->Record(u - begin, ApplyOne(plan.unique[u], ubuf + u * dim_, lr));
          }
        });
    if (!plan.has_dupes) return uniq;
    BatchResult result(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      result.Record(i, uniq.StatusAt(plan.slot_of[i]));
    }
    return result;
  }

 protected:
  BatchedEngineBackend(uint32_t dim, const BackendConfig& config)
      : dim_(dim), min_chunk_(config.batch_min_chunk) {
    if (config.batch_threads > 0) {
      pool_ = std::make_unique<ThreadPool>(config.batch_threads);
    }
  }

  // Engine primitives; must be safe to call from multiple threads.
  virtual Status ReadOne(Key key, float* out) = 0;  // NotFound when absent
  virtual Status WriteOne(Key key, const float* value) = 0;
  // First-touch bootstrap: `out` already holds the init vector; store it
  // (or adopt a concurrent winner's value into `out`).
  virtual Status InitMissingOne(Key key, float* out) {
    return WriteOne(key, out);
  }
  // value <- value - lr * grad; emulated read-modify-write by default,
  // overridden where the engine has a native (atomic) RMW.
  virtual Status ApplyOne(Key key, const float* grad, float lr) {
    std::vector<float> value(dim_);
    Status s = ReadOne(key, value.data());
    if (s.IsNotFound()) {
      InitEmbedding(key, dim_, value.data());
      s = Status::OK();
    }
    MLKV_RETURN_NOT_OK(s);
    simd::SubScaled(value.data(), grad, lr, dim_);
    return WriteOne(key, value.data());
  }

  const uint32_t dim_;

 private:
  const size_t min_chunk_;
  std::unique_ptr<ThreadPool> pool_;
};

// MLKV: bounded staleness + look-ahead prefetching (the system under test).
// Batches are handed to EmbeddingTable's span APIs whole — the table owns
// dedup-free semantics (each occurrence participates in the staleness
// protocol) and the store is latch-free, so no adapter-level fan-out.
class MlkvBackend : public KvBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    auto b = std::unique_ptr<MlkvBackend>(new MlkvBackend(config.dim));
    MlkvOptions o;
    o.dir = config.dir + "/mlkv";
    o.index_slots = config.index_slots;
    o.mem_size = config.buffer_bytes;
    o.shard_bits = config.shard_bits;
    o.scatter_min_keys = std::max<size_t>(config.batch_min_chunk, 1);
    o.lookahead_threads = config.lookahead_threads;
    o.skip_promote_if_in_memory = config.skip_promote_if_in_memory;
    o.busy_spin_limit = config.busy_spin_limit;
    o.io_threads = config.io_threads;
    o.durability_mode = config.durability_mode;
    o.group_commit_window_us = config.group_commit_window_us;
    o.group_commit_max_bytes = config.group_commit_max_bytes;
    o.checkpoint_mode = config.checkpoint_mode;
    MLKV_RETURN_NOT_OK(Mlkv::Open(o, &b->db_));
    MLKV_RETURN_NOT_OK(b->db_->OpenTable("emb", config.dim,
                                         config.staleness_bound, &b->table_));
    *out = std::move(b);
    return Status::OK();
  }

  // Borrows `table` (see MakeMlkvTableBackend); db_ stays null.
  static Status Wrap(EmbeddingTable* table, std::unique_ptr<KvBackend>* out) {
    if (table == nullptr) {
      return Status::InvalidArgument("mlkv table backend needs a table");
    }
    auto b = std::unique_ptr<MlkvBackend>(new MlkvBackend(table->dim()));
    b->table_ = table;
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "MLKV"; }
  uint32_t dim() const override { return dim_; }
  uint32_t shard_bits() const override {
    return const_cast<EmbeddingTable*>(table_)->store()->shard_bits();
  }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    BatchResult result;
    if (!options.untracked) {
      if (options.init_missing) {
        table_->GetOrInit(keys, out, &result);
      } else {
        table_->Get(keys, out, &result);
      }
      return result;
    }
    // Untracked read: never waits on or advances staleness state, even
    // when bootstrapping never-stored keys.
    if (options.init_missing) {
      table_->PeekOrInit(keys, out, &result);
    } else {
      table_->Peek(keys, out, &result);
    }
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    BatchResult result;
    table_->Put(keys, values, &result);
    return result;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    // Fused path: one atomic Rmw per record (also lowers the staleness
    // clock, like a Put).
    BatchResult result;
    table_->ApplyGradients(keys, grads, lr, &result);
    return result;
  }

  Status Lookahead(std::span<const Key> keys) override {
    return table_->Lookahead(keys);
  }
  void WaitIdle() override { table_->WaitLookahead(); }

  uint64_t device_bytes_read() const override {
    return const_cast<EmbeddingTable*>(table_)->store()->device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return const_cast<EmbeddingTable*>(table_)
        ->store()
        ->device_bytes_written();
  }
  BackendIoStats io_stats() const override {
    return IoStatsFrom(const_cast<EmbeddingTable*>(table_)->store()->stats());
  }
  void CollectMetrics(obs::MetricsSink* sink) const override {
    KvBackend::CollectMetrics(sink);
    EmitStoreMetrics(const_cast<EmbeddingTable*>(table_)->store(), sink);
    sink->AddCounter("mlkv_lookahead_dropped_total",
                     "Lookahead shard batches dropped because the lookahead "
                     "pool queue was full",
                     table_->lookahead_dropped());
  }

  uint32_t replication_shards() const override {
    return static_cast<uint32_t>(
        const_cast<EmbeddingTable*>(table_)->store()->num_shards());
  }
  Status ReadCommittedUpdates(uint32_t shard, uint64_t from,
                              uint32_t max_records, uint32_t max_bytes,
                              std::vector<UpdateEntry>* out,
                              uint64_t* next_from,
                              uint64_t* durable) override {
    return ReadShardUpdates(table_->store(), shard, from, max_records,
                            max_bytes, out, next_from, durable);
  }
  Status ApplyReplicatedUpdate(const UpdateEntry& entry) override {
    return ApplyShardUpdate(table_->store(), entry);
  }

 private:
  explicit MlkvBackend(uint32_t dim) : dim_(dim) {}
  uint32_t dim_;
  std::unique_ptr<Mlkv> db_;  // null when the table is borrowed
  EmbeddingTable* table_ = nullptr;
};

// Plain FASTER (staleness tracking off, no promotion): the strongest
// baseline engine in the paper's Fig. 7, now over the same ShardedStore
// core MLKV tables use. Batches route through shard-partitioned
// scatter/gather instead of BatchedEngineBackend's generic contiguous
// chunks: a sub-batch only ever touches one shard's index and log tail,
// and same-key duplicates land in the same in-order sub-batch, so no
// adapter-level dedup is needed — within one call a later occurrence
// always runs after an earlier one (last-write-wins Puts, accumulating
// gradient applies), exactly the sequential per-key semantics. Gradient
// pushes use the store's native Rmw, so applies are atomic per record.
class FasterBackend : public KvBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    auto b = std::unique_ptr<FasterBackend>(new FasterBackend(config));
    ShardedStoreOptions o;
    o.store.path = config.dir + "/faster.log";
    o.store.index_slots = config.index_slots;
    o.store.mem_size = config.buffer_bytes;
    o.store.track_staleness = false;
    o.shard_bits = config.shard_bits;
    o.pool = b->pool_.get();
    o.parallel_min_keys = std::max<size_t>(config.batch_min_chunk, 1);
    // batch_threads > 0 meant intra-batch fan-out before sharding; keep it
    // for the unsharded configuration too.
    o.chunk_single_shard = config.batch_threads > 0;
    o.store.io = b->io_.get();
    o.store.durability_mode = config.durability_mode;
    o.store.group_commit_window_us = config.group_commit_window_us;
    o.store.group_commit_max_bytes = config.group_commit_max_bytes;
    o.store.checkpoint_mode = config.checkpoint_mode;
    MLKV_RETURN_NOT_OK(b->store_.Open(o));
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "FASTER"; }
  uint32_t dim() const override { return dim_; }
  uint32_t shard_bits() const override { return store_.shard_bits(); }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    const uint32_t bytes = dim_ * sizeof(float);
    BatchResult result;
    store_.MultiExecuteRead(
        keys,
        [this, out, bytes, &options](FasterStore* shard, Key key, size_t i,
                                     BatchResult* part, size_t pi,
                                     PendingSink* sink) {
          BatchReadOrPark(shard, key, out + i * size_t{dim_}, dim_,
                          UINT32_MAX, /*tracked=*/false, part, pi, sink,
                          options.init_missing ? bytes : 0);
        },
        &result);
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    const uint32_t bytes = dim_ * sizeof(float);
    BatchResult result;
    store_.MultiExecute(
        keys,
        [this, values, bytes](FasterStore* shard, Key key, size_t i,
                              BatchResult* part, size_t pi) {
          part->Record(pi,
                       shard->Upsert(key, values + i * size_t{dim_}, bytes));
        },
        &result);
    CommitIfGroup(&result);
    return result;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    const uint32_t bytes = dim_ * sizeof(float);
    const uint32_t dim = dim_;
    BatchResult result;
    store_.MultiExecute(
        keys,
        [grads, lr, dim, bytes](FasterStore* shard, Key key, size_t i,
                                BatchResult* part, size_t pi) {
          const float* grad = grads + i * size_t{dim};
          part->Record(
              pi, shard->Rmw(key, bytes,
                             [key, grad, lr, dim](char* v, uint32_t,
                                                  bool exists) {
                               float* f = reinterpret_cast<float*>(v);
                               if (!exists) InitEmbedding(key, dim, f);
                               simd::SubScaled(f, grad, lr, dim);
                             }));
        },
        &result);
    CommitIfGroup(&result);
    return result;
  }

  uint64_t device_bytes_read() const override {
    return store_.device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return store_.device_bytes_written();
  }
  BackendIoStats io_stats() const override {
    return IoStatsFrom(store_.stats());
  }
  void CollectMetrics(obs::MetricsSink* sink) const override {
    KvBackend::CollectMetrics(sink);
    EmitStoreMetrics(const_cast<ShardedStore*>(&store_), sink);
  }

  uint32_t replication_shards() const override {
    return static_cast<uint32_t>(store_.num_shards());
  }
  Status ReadCommittedUpdates(uint32_t shard, uint64_t from,
                              uint32_t max_records, uint32_t max_bytes,
                              std::vector<UpdateEntry>* out,
                              uint64_t* next_from,
                              uint64_t* durable) override {
    return ReadShardUpdates(&store_, shard, from, max_records, max_bytes, out,
                            next_from, durable);
  }
  Status ApplyReplicatedUpdate(const UpdateEntry& entry) override {
    return ApplyShardUpdate(&store_, entry);
  }

 private:
  explicit FasterBackend(const BackendConfig& config)
      : dim_(config.dim),
        group_(config.durability_mode == DurabilityMode::kGroup) {
    if (config.batch_threads > 0) {
      pool_ = std::make_unique<ThreadPool>(config.batch_threads);
    }
    AsyncIoEngine::Options o;
    o.io_threads = config.io_threads;
    io_ = std::make_unique<AsyncIoEngine>(o);
  }

  // Group-durability epilogue: the batch's records are on disk before the
  // result reaches the caller. A persist failure downgrades every
  // still-kOk key — the write happened but is not durable.
  void CommitIfGroup(BatchResult* result) {
    if (!group_) return;
    result->DowngradeOk(store_.PersistAll());
  }

  const uint32_t dim_;
  const bool group_;
  std::unique_ptr<ThreadPool> pool_;  // declared before store_ (store uses it)
  std::unique_ptr<AsyncIoEngine> io_;  // likewise shared by every shard
  ShardedStore store_;
};

// RocksDB-style LSM baseline.
class LsmBackend : public BatchedEngineBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    auto b = std::unique_ptr<LsmBackend>(new LsmBackend(config));
    LsmOptions o;
    o.dir = config.dir + "/lsm";
    // Split the memory budget the way RocksDB deployments do: a write
    // buffer plus a block cache.
    o.memtable_bytes = std::max<uint64_t>(config.buffer_bytes / 4, 1u << 20);
    o.block_cache_bytes =
        std::max<uint64_t>(config.buffer_bytes - o.memtable_bytes, 1u << 20);
    MLKV_RETURN_NOT_OK(b->store_.Open(o));
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "RocksDB-like"; }

 protected:
  Status ReadOne(Key key, float* out) override {
    std::string value;
    MLKV_RETURN_NOT_OK(store_.Get(key, &value));
    std::memcpy(out, value.data(),
                std::min(value.size(), size_t{dim_} * sizeof(float)));
    return Status::OK();
  }
  Status WriteOne(Key key, const float* value) override {
    return store_.Put(key, value, dim_ * sizeof(float));
  }

 private:
  explicit LsmBackend(const BackendConfig& config)
      : BatchedEngineBackend(config.dim, config) {}

  LsmStore store_;
};

// WiredTiger-style B+tree baseline.
class BtreeBackend : public BatchedEngineBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    auto b = std::unique_ptr<BtreeBackend>(new BtreeBackend(config));
    BTreeOptions o;
    o.path = config.dir + "/btree.db";
    o.buffer_pool_bytes = config.buffer_bytes;
    o.value_size = config.dim * sizeof(float);
    MLKV_RETURN_NOT_OK(b->store_.Open(o));
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "WiredTiger-like"; }

 protected:
  Status ReadOne(Key key, float* out) override { return store_.Get(key, out); }
  Status WriteOne(Key key, const float* value) override {
    return store_.Put(key, value);
  }

 private:
  explicit BtreeBackend(const BackendConfig& config)
      : BatchedEngineBackend(config.dim, config) {}

  BTreeStore store_;
};

// Pure in-memory hash map: stands in for the specialized frameworks'
// proprietary in-memory embedding management (PERSIA/DGL/DGL-KE native) in
// the Fig. 6 convergence comparison. Native batch loops: each Multi* call
// takes its lock once per batch instead of once per key; no thread-pool
// fan-out, since the lock — not I/O — is the bottleneck.
class InMemoryBackend : public KvBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    out->reset(new InMemoryBackend(config.dim));
    return Status::OK();
  }

  std::string name() const override { return "InMemory"; }
  uint32_t dim() const override { return dim_; }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    BatchResult result(keys.size());
    std::vector<size_t> misses;
    {
      std::shared_lock lk(mu_);
      for (size_t i = 0; i < keys.size(); ++i) {
        const auto it = map_.find(keys[i]);
        if (it != map_.end()) {
          std::copy(it->second.begin(), it->second.end(),
                    out + i * size_t{dim_});
          result.Record(i, Status::OK());
        } else {
          misses.push_back(i);
        }
      }
    }
    if (misses.empty()) return result;
    if (!options.init_missing) {
      for (const size_t i : misses) result.Record(i, Status::NotFound());
      return result;
    }
    std::unique_lock lk(mu_);
    for (const size_t i : misses) {
      float* dst = out + i * size_t{dim_};
      const auto it = map_.find(keys[i]);  // may have appeared meanwhile
      if (it != map_.end()) {
        std::copy(it->second.begin(), it->second.end(), dst);
        result.Record(i, Status::OK());
        continue;
      }
      std::vector<float> v(dim_);
      InitEmbedding(keys[i], dim_, v.data());
      std::copy(v.begin(), v.end(), dst);
      map_.emplace(keys[i], std::move(v));
      result.RecordInitialized(i);
    }
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    BatchResult result(keys.size());
    std::unique_lock lk(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      const float* src = values + i * size_t{dim_};
      map_[keys[i]].assign(src, src + dim_);
      result.Record(i, Status::OK());
    }
    return result;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    // One lock for the whole batch makes the apply atomic per batch —
    // strictly stronger than the per-record atomicity MLKV offers.
    BatchResult result(keys.size());
    std::unique_lock lk(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto [it, fresh] = map_.try_emplace(keys[i]);
      if (fresh) {
        it->second.resize(dim_);
        InitEmbedding(keys[i], dim_, it->second.data());
      }
      simd::SubScaled(it->second.data(), grads + i * size_t{dim_}, lr, dim_);
      result.Record(i, Status::OK());
    }
    return result;
  }

 private:
  explicit InMemoryBackend(uint32_t dim) : dim_(dim) {}
  uint32_t dim_;
  std::shared_mutex mu_;
  std::unordered_map<Key, std::vector<float>> map_;
};

// Serving-side row cache decorator (see MakeCachingBackend in the header):
// untracked reads probe a sharded LRU before the engine; writes invalidate.
// Tracked reads bypass entirely — a cached row never participates in the
// staleness protocol, so caching them would let training reads dodge the
// bound. A fill racing an invalidate can briefly resurrect a row one write
// old, within the untracked read contract's bounded staleness.
class CachingBackend : public KvBackend {
 public:
  CachingBackend(std::unique_ptr<KvBackend> inner, size_t capacity)
      : inner_(std::move(inner)), cache_(capacity, inner_->dim()) {}

  std::string name() const override {
    return "Cached(" + inner_->name() + ")";
  }
  uint32_t dim() const override { return inner_->dim(); }
  uint32_t shard_bits() const override { return inner_->shard_bits(); }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    if (!options.untracked) return inner_->MultiGet(keys, out, options);
    const uint32_t d = inner_->dim();
    BatchResult result(keys.size());
    std::vector<Key> miss_keys;
    std::vector<size_t> miss_pos;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (cache_.Get(keys[i], out + i * size_t{d})) {
        result.Record(i, Status::OK());
      } else {
        miss_keys.push_back(keys[i]);
        miss_pos.push_back(i);
      }
    }
    if (miss_keys.empty()) return result;
    std::vector<float> rows(miss_keys.size() * size_t{d});
    const BatchResult got = inner_->MultiGet(miss_keys, rows.data(), options);
    size_t not_found = 0;
    for (size_t m = 0; m < miss_keys.size(); ++m) {
      const size_t i = miss_pos[m];
      if (got.codes[m] == Status::Code::kOk) {
        const float* row = rows.data() + m * size_t{d};
        simd::CopyFloats(out + i * size_t{d}, row, d);
        cache_.Put(miss_keys[m], row);
      } else if (got.codes[m] == Status::Code::kNotFound) {
        ++not_found;
      }
      result.Record(i, got.StatusAt(m));
    }
    // The engine's `missing` also counts fresh keys it initialized, which
    // were recorded kOk above (per-key codes carry no initialized flag);
    // move just those found -> missing. kNotFound keys already counted.
    const size_t initialized = got.missing - not_found;
    result.found -= initialized;
    result.missing += initialized;
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    BatchResult r = inner_->MultiPut(keys, values);
    for (const Key key : keys) cache_.Erase(key);
    return r;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    BatchResult r = inner_->MultiApplyGradient(keys, grads, lr);
    for (const Key key : keys) cache_.Erase(key);
    return r;
  }

  Status Lookahead(std::span<const Key> keys) override {
    return inner_->Lookahead(keys);
  }
  void WaitIdle() override { inner_->WaitIdle(); }
  uint64_t device_bytes_read() const override {
    return inner_->device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return inner_->device_bytes_written();
  }
  BackendIoStats io_stats() const override { return inner_->io_stats(); }

  void CollectMetrics(obs::MetricsSink* sink) const override {
    inner_->CollectMetrics(sink);
    const char* hits_help = "Serving cache hits per cache shard";
    const char* miss_help = "Serving cache misses per cache shard";
    const char* evict_help = "Serving cache evictions per cache shard";
    for (size_t i = 0; i < cache_.num_cache_shards(); ++i) {
      const EmbeddingCache::CacheStats s = cache_.shard_stats(i);
      const std::string shard = std::to_string(i);
      sink->AddCounter("mlkv_cache_hits_total", hits_help, s.hits,
                       {{"shard", shard}});
      sink->AddCounter("mlkv_cache_misses_total", miss_help, s.misses,
                       {{"shard", shard}});
      sink->AddCounter("mlkv_cache_evictions_total", evict_help, s.evictions,
                       {{"shard", shard}});
    }
    sink->AddGauge("mlkv_cache_entries", "Rows resident in the serving cache",
                   static_cast<double>(cache_.size()));
  }

  uint32_t replication_shards() const override {
    return inner_->replication_shards();
  }
  Status ReadCommittedUpdates(uint32_t shard, uint64_t from,
                              uint32_t max_records, uint32_t max_bytes,
                              std::vector<UpdateEntry>* out,
                              uint64_t* next_from,
                              uint64_t* durable) override {
    return inner_->ReadCommittedUpdates(shard, from, max_records, max_bytes,
                                        out, next_from, durable);
  }
  Status ApplyReplicatedUpdate(const UpdateEntry& entry) override {
    const Status s = inner_->ApplyReplicatedUpdate(entry);
    cache_.Erase(entry.key);
    return s;
  }

 private:
  std::unique_ptr<KvBackend> inner_;
  EmbeddingCache cache_;
};

}  // namespace

// Emulated batched gradient push for engines without a native override:
// dedup + sum duplicate gradients (SGD is linear), one MultiGet, axpy, one
// MultiPut over the keys that produced a value — exactly what integrating a
// training framework with a stock KV store gives you, batch edition.
BatchResult KvBackend::MultiApplyGradient(std::span<const Key> keys,
                                          const float* grads, float lr) {
  const uint32_t d = dim();
  const DedupPlan plan(keys);
  const size_t n = plan.unique.size();
  const float* ugrads = grads;
  std::vector<float> grad_sum;
  if (plan.has_dupes) {
    grad_sum.assign(n * size_t{d}, 0.0f);
    for (size_t i = 0; i < keys.size(); ++i) {
      simd::AccumulateFloats(&grad_sum[plan.slot_of[i] * size_t{d}],
                             grads + i * size_t{d}, d);
    }
    ugrads = grad_sum.data();
  }
  std::vector<float> value(n * size_t{d});
  const BatchResult got = MultiGet(plan.unique, value.data());
  std::vector<Key> ok_keys;
  std::vector<size_t> ok_slot;
  for (size_t u = 0; u < n; ++u) {
    if (got.codes[u] != Status::Code::kOk) continue;
    simd::SubScaled(&value[u * size_t{d}], ugrads + u * size_t{d}, lr, d);
    ok_keys.push_back(plan.unique[u]);
    ok_slot.push_back(u);
  }
  std::vector<float> put_values(ok_keys.size() * size_t{d});
  for (size_t j = 0; j < ok_keys.size(); ++j) {
    simd::CopyFloats(&put_values[j * size_t{d}], &value[ok_slot[j] * size_t{d}],
                     d);
  }
  const BatchResult put = MultiPut(ok_keys, put_values.data());
  std::vector<Status::Code> ucodes = got.codes;
  for (size_t j = 0; j < ok_keys.size(); ++j) {
    if (put.codes[j] != Status::Code::kOk) ucodes[ok_slot[j]] = put.codes[j];
  }
  BatchResult result(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    result.Record(i, Status::FromCode(ucodes[plan.slot_of[i]]));
  }
  return result;
}

// Default scrape: every backend at least exposes its storage-I/O counters,
// network-path counters, replication counters, and device byte totals —
// zeros where a subsystem does not exist, so the family set is stable
// across engines and scrapers never see families appear mid-run.
void KvBackend::CollectMetrics(obs::MetricsSink* sink) const {
  const BackendIoStats io = io_stats();
  sink->AddCounter("mlkv_io_disk_record_reads_total",
                   "Record fetches served from disk", io.disk_record_reads);
  sink->AddCounter("mlkv_io_pages_flushed_total",
                   "Log pages flushed to disk", io.pages_flushed);
  sink->AddCounter("mlkv_io_pages_evicted_total",
                   "Log pages evicted from memory", io.pages_evicted);
  sink->AddCounter("mlkv_io_async_reads_submitted_total",
                   "Pending-read fetches handed to the AsyncIoEngine",
                   io.async_reads_submitted);
  sink->AddCounter("mlkv_io_async_reads_completed_total",
                   "Pending-read fetches that landed",
                   io.async_reads_completed);
  sink->AddCounter("mlkv_io_async_reads_refetched_total",
                   "Pending reads that fell back to a synchronous re-read",
                   io.async_reads_refetched);
  sink->AddCounter("mlkv_io_async_writes_submitted_total",
                   "Flush-wave pages submitted to the AsyncIoEngine",
                   io.async_writes_submitted);
  sink->AddCounter("mlkv_io_async_writes_completed_total",
                   "Flush-wave pages completed", io.async_writes_completed);
  sink->AddCounter("mlkv_io_fsyncs_total", "fsyncs issued (flush + commit)",
                   io.fsyncs);
  sink->AddCounter("mlkv_io_group_commits_total",
                   "Group commits batching more than one committer",
                   io.group_commits);
  sink->AddCounter("mlkv_io_device_read_bytes_total",
                   "Bytes read from storage devices", device_bytes_read());
  sink->AddCounter("mlkv_io_device_written_bytes_total",
                   "Bytes written to storage devices", device_bytes_written());
  sink->AddCounter("mlkv_net_rpc_requests_total",
                   "RPCs issued to remote KvServers", io.remote_requests);
  sink->AddCounter("mlkv_net_rpc_retries_total",
                   "Fresh-socket retries after a dead pooled connection",
                   io.remote_retries);
}

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMlkv: return "MLKV";
    case BackendKind::kFaster: return "FASTER";
    case BackendKind::kLsm: return "RocksDB-like";
    case BackendKind::kBtree: return "WiredTiger-like";
    case BackendKind::kInMemory: return "InMemory";
    case BackendKind::kRemote: return "Remote";
    case BackendKind::kCluster: return "Cluster";
  }
  return "?";
}

Status MakeBackend(BackendKind kind, const BackendConfig& config,
                   std::unique_ptr<KvBackend>* out) {
  if (kind == BackendKind::kRemote) {
    // No local files: storage lives behind the KvServer at remote_addr.
    net::RemoteBackendOptions o;
    o.addr = config.remote_addr;
    o.pool_size = config.remote_pool_size;
    o.max_keys_per_rpc = config.remote_max_keys_per_rpc;
    return net::RemoteBackend::Connect(o, out);
  }
  if (kind == BackendKind::kCluster) {
    // No local files either: keys scatter across the KvServers named in
    // cluster_addrs (seed list; the authoritative map comes from the
    // servers' kClusterMap when they run in cluster mode).
    cluster::ClusterBackendOptions o;
    MLKV_RETURN_NOT_OK(
        net::ParseEndpointList(config.cluster_addrs, &o.endpoints));
    o.pool_size = config.remote_pool_size;
    o.max_keys_per_rpc = config.remote_max_keys_per_rpc;
    o.hedge_us = config.cluster_hedge_us;
    return cluster::ClusterBackend::Connect(o, out);
  }
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) return Status::IOError("create dir: " + ec.message());
  switch (kind) {
    case BackendKind::kMlkv: return MlkvBackend::Make(config, out);
    case BackendKind::kFaster: return FasterBackend::Make(config, out);
    case BackendKind::kLsm: return LsmBackend::Make(config, out);
    case BackendKind::kBtree: return BtreeBackend::Make(config, out);
    case BackendKind::kInMemory: return InMemoryBackend::Make(config, out);
    case BackendKind::kRemote: break;   // handled above
    case BackendKind::kCluster: break;  // handled above
  }
  return Status::InvalidArgument("unknown backend kind");
}

Status MakeMlkvTableBackend(EmbeddingTable* table,
                            std::unique_ptr<KvBackend>* out) {
  return MlkvBackend::Wrap(table, out);
}

Status MakeCachingBackend(std::unique_ptr<KvBackend> inner, size_t capacity,
                          std::unique_ptr<KvBackend>* out) {
  if (inner == nullptr) {
    return Status::InvalidArgument("caching backend needs an inner backend");
  }
  if (capacity == 0) {
    return Status::InvalidArgument("caching backend capacity must be > 0");
  }
  out->reset(new CachingBackend(std::move(inner), capacity));
  return Status::OK();
}

}  // namespace mlkv
