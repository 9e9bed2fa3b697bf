// ShardedStore: N-way sharding over independent FasterStore instances — the
// scaling axis the paper's §IV experiments lean on once a single index/log
// pair saturates. Each shard owns its own HashIndex, HybridLog (with its
// frame seqlock / writer-pin reclamation domain), and backing file, so
// trainer threads touching different shards never contend on the same log
// tail, allocation lock, or index slot.
//
// Routing: shard = ShardOf(Hash64(key), mask) (common/hash.h), which takes
// hash bits 48 and up, so the per-shard HashIndex (bucket from the low
// bits, tag from bits 33-47) still uses all its buckets and tags.
//
// Layout: with shard_bits == 0 the store is byte-for-byte the single
// FasterStore it wraps — same log file, same checkpoint files — so legacy
// directories keep working. With shard_bits == B > 0, shard i's files move
// to <dir(path)>/shard-NN/<file(path)> (same rule for checkpoint prefixes),
// and the configured mem_size / index_slots are TOTAL budgets split evenly:
// each shard gets budget >> B, floored at kMinShardMemBytes /
// kMinShardIndexSlots (the per-shard HashIndex then rounds its slice up to
// a power of two, so the realized total can exceed the configured one).
//
// Batched span APIs are built on MultiExecute: the key span is partitioned
// into per-shard sub-batches (stable, so per-key outcomes land back at the
// caller's indices in caller order) that run in parallel on an optional
// ThreadPool — MLKV hands in the lookahead pool — with the calling thread
// working through the sub-batches that were not offloaded.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/batch_result.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "kv/faster_store.h"
#include "kv/pending_read.h"

namespace mlkv {

struct ShardedStoreOptions {
  // Per-shard template. `path` names the UNSHARDED log file; `mem_size` and
  // `index_slots` are totals split across shards (see header comment).
  // `store.io`, the engine every shard log flushes through, also carries
  // the pending-read waves of MultiExecuteRead.
  FasterOptions store;
  // log2 of the shard count; 0 preserves the exact single-store behavior
  // and on-disk layout. Bounded by kMaxShardBits.
  uint32_t shard_bits = 0;
  // Optional executor for batched scatter/gather; not owned, may be shared
  // (MLKV reuses the lookahead pool). Null runs every sub-batch inline.
  ThreadPool* pool = nullptr;
  // Minimum keys in a shard sub-batch before it is offloaded to the pool
  // (smaller sub-batches run on the calling thread; the handoff would cost
  // more than it hides).
  size_t parallel_min_keys = 32;
  // With shard_bits == 0, also split batches into hash-partitioned chunks
  // over the pool. Off by default: the single-store configuration promises
  // the exact legacy behavior (sequential span calls), and engines that
  // offered opt-in intra-batch parallelism before sharding (FASTER's
  // batch_threads) set this to keep it.
  bool chunk_single_shard = false;
};

class ShardedStore {
 public:
  // 256 shards is already far past the point where per-shard buffers get
  // starved on one machine; reject anything larger outright.
  static constexpr uint32_t kMaxShardBits = 8;
  // Floors for the per-shard split. 16 KiB always admits the four resident
  // pages HybridLog needs (FasterStore::Open shrinks pages to 4 KiB first).
  static constexpr uint64_t kMinShardMemBytes = 1ull << 14;
  static constexpr uint64_t kMinShardIndexSlots = 64;

  ShardedStore() = default;
  ~ShardedStore() = default;

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  Status Open(const ShardedStoreOptions& options);
  // Reopens every shard from a checkpoint taken with the same options.
  Status Recover(const ShardedStoreOptions& options,
                 const std::string& prefix);

  // Shard i's location for `path` (log file or checkpoint prefix):
  // identity when shard_bits == 0, <dir>/shard-NN/<file> otherwise.
  static std::string ShardFilePath(const std::string& path, uint32_t shard,
                                   uint32_t shard_bits);
  // True if a checkpoint written by Checkpoint(prefix) under these options
  // exists: probes the <prefix>.shards commit marker when shard_bits > 0
  // (shard files without it are NOT a checkpoint — see Checkpoint), or
  // <prefix>.meta for the single-store layout.
  static bool CheckpointExists(const ShardedStoreOptions& options,
                               const std::string& prefix);

  size_t num_shards() const { return shards_.size(); }
  uint32_t shard_bits() const { return options_.shard_bits; }
  FasterStore* shard(size_t i) { return shards_[i].get(); }
  size_t ShardIndexOf(Key key) const { return ShardOf(Hash64(key), mask_); }
  FasterStore* ShardFor(Key key) { return shards_[ShardIndexOf(key)].get(); }

  // --- Single-key operations: forwarded to the owning shard ---

  Status Read(Key key, void* out, uint32_t cap, uint32_t* size = nullptr,
              uint32_t bound = UINT32_MAX) {
    return ShardFor(key)->Read(key, out, cap, size, bound);
  }
  Status Peek(Key key, void* out, uint32_t cap, uint32_t* size = nullptr) {
    return ShardFor(key)->Peek(key, out, cap, size);
  }
  Status Upsert(Key key, const void* value, uint32_t size) {
    return ShardFor(key)->Upsert(key, value, size);
  }
  Status Rmw(Key key, uint32_t value_size,
             const std::function<void(char* value, uint32_t size,
                                      bool exists)>& modifier) {
    return ShardFor(key)->Rmw(key, value_size, modifier);
  }
  Status Delete(Key key) { return ShardFor(key)->Delete(key); }
  Status Promote(Key key) { return ShardFor(key)->Promote(key); }
  bool IsInMemory(Key key) { return ShardFor(key)->IsInMemory(key); }

  // --- Batched scatter/gather ---

  // Per-key operation run against the owning shard. `caller_index` selects
  // the caller's buffers (row i of a value matrix); the outcome must be
  // recorded at `part_index` of `part` (Record or RecordInitialized) —
  // MultiExecute gathers parts back into caller order afterwards.
  using ShardOp =
      std::function<void(FasterStore* shard, Key key, size_t caller_index,
                         BatchResult* part, size_t part_index)>;

  // Partitions `keys` into per-shard sub-batches (stable: a shard sees its
  // keys in caller order), executes them — in parallel on the pool when one
  // was provided — and gathers per-key codes into `result` at the caller's
  // indices. A single-shard store (shard_bits == 0) runs the batch
  // sequentially by default — the legacy contract — or, with
  // chunk_single_shard, partitions by an independent slice of the key hash
  // over the same pool (a given key still lands in exactly one sub-batch,
  // so same-key order — e.g. duplicate-key Put last-occurrence-wins —
  // holds either way). Summary counts aggregate across
  // sub-batches; first_error keeps the lowest-numbered sub-batch's first
  // hard error. With `stop_on_error` each sub-batch stops at its first
  // non-OK outcome (one shard then runs the batch inline, giving exactly
  // the sequential fail-fast contract; with several shards, other shards'
  // sub-batches still run).
  void MultiExecute(std::span<const Key> keys, const ShardOp& op,
                    BatchResult* result, bool stop_on_error = false);

  // Read-flavored per-key operation for the two-phase pipeline. When
  // `sink` is null the op MUST resolve synchronously (exactly a ShardOp);
  // when non-null it may instead park a primed PendingRead (see
  // FasterStore::StartRead) whose finish callback records the outcome
  // once the wave completes it.
  using ShardReadOp =
      std::function<void(FasterStore* shard, Key key, size_t caller_index,
                         BatchResult* part, size_t part_index,
                         PendingSink* sink)>;

  // MultiExecute for batched reads. Without an engine (options().store.io
  // null), with stop_on_error, or for single-key calls this is exactly
  // MultiExecute with a null sink — the blocking path. With an engine,
  // phase 1 scatters as usual but cold misses park instead of
  // blocking; after the scatter fan-in, every parked read across all
  // sub-batches is submitted to the engine as one wave and completed on
  // the calling thread (finish callbacks record into the sub-batch parts),
  // and only then are parts gathered back to caller order.
  void MultiExecuteRead(std::span<const Key> keys, const ShardReadOp& op,
                        BatchResult* result, bool stop_on_error = false);

  // --- Maintenance across all shards (quiesced where FasterStore is) ---

  // Durability point across all shards: each shard's FasterStore::Persist
  // in turn. Safe under concurrent operations; in durability_mode == kGroup
  // concurrent callers share fsyncs through each shard's GroupCommitter.
  Status PersistAll();
  // Checkpoints every shard, then commits by writing <prefix>.shards via
  // write+rename (shard_bits > 0 only; the single-shard layout stays
  // byte-identical to FasterStore's). CheckpointExists requires the commit
  // marker, so a crash part-way through never yields a "checkpoint" with
  // missing shard files. Residual window (same class as the single store's
  // .meta/.idx pair): re-checkpointing over an existing checkpoint that
  // crashes mid-loop can leave shards committed at different points in
  // time behind the old marker.
  Status Checkpoint(const std::string& prefix);
  // Compacts every shard up to its read-only boundary; aggregates into
  // `total` when non-null.
  Status CompactAll(CompactionResult* total = nullptr);
  // Per-shard threshold: each shard compacts when its own log span exceeds
  // max_log_bytes / num_shards (the total budget, split like mem_size).
  Status MaybeCompact(uint64_t max_log_bytes,
                      CompactionResult* total = nullptr);

  // --- Aggregated telemetry ---

  FasterStatsSnapshot stats() const;
  void ResetStats();
  uint64_t approximate_size() const;
  uint64_t index_slots() const;
  // Sums of the per-shard log boundaries; monotone under the same events
  // (appends, compaction, flushes) as their single-store counterparts.
  uint64_t log_begin_total() const;
  uint64_t log_read_only_total() const;
  uint64_t log_tail_total() const;
  // Live log span: sum of (tail - begin) over shards.
  uint64_t log_span_bytes() const;
  uint64_t device_bytes_read() const;
  uint64_t device_bytes_written() const;

  const ShardedStoreOptions& options() const { return options_; }

 private:
  FasterOptions ShardOptions(size_t i) const;
  Status OpenShards(const ShardedStoreOptions& options,
                    const std::string* recover_prefix);

  // One stable run of caller indices (a range of `order`) against one
  // shard — the unit the scatter decomposes a batch into.
  struct SubBatch {
    FasterStore* store;
    uint32_t begin, end;  // range of `order`
  };
  // Decomposes `keys` into sub-batches (stable counting sort by shard, or
  // by an independent hash slice for a chunked single shard). Returns
  // false when the batch should instead run as one inline sequential pass
  // (the legacy single-shard contract) — unless `force_tasks`, which then
  // emits a single identity-order task.
  bool BuildScatter(std::span<const Key> keys, bool stop_on_error,
                    bool force_tasks, std::vector<uint32_t>* order,
                    std::vector<SubBatch>* tasks) const;
  // Runs run(t) for every task with work stealing off a shared claim
  // counter across the calling thread and pool helpers.
  void RunTasks(const std::vector<SubBatch>& tasks,
                const std::function<void(size_t)>& run);
  // Scatters per-task codes back to caller indices and sums the counts.
  static void GatherParts(const std::vector<uint32_t>& order,
                          const std::vector<SubBatch>& tasks,
                          const std::vector<BatchResult>& parts,
                          BatchResult* result);

  ShardedStoreOptions options_;
  uint64_t mask_ = 0;
  std::vector<std::unique_ptr<FasterStore>> shards_;
};

}  // namespace mlkv
