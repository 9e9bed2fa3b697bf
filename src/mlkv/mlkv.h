// MLKV public API (paper §III-A).
//
//   auto db = Mlkv::Open(options);
//   EmbeddingTable* table;
//   db->OpenTable("user_emb", /*dim=*/16, /*staleness_bound=*/4, &table);
//   table->GetOrInit(keys, values);          // forward pass
//   ... train ...
//   table->Put(keys, updated_values);        // backward pass
//   table->Lookahead(next_batch_keys);       // hide future disk accesses
//
// Staleness bound 0 trains in BSP mode, kAspBound (UINT32_MAX - 1, the
// largest admissible value of the 32-bit staleness counter — effectively
// unbounded) in ASP mode, anything between in SSP mode (paper §III-C1).
// Each table owns its own log-structured store; Lookahead work is executed
// on a shared background thread pool.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "io/async_io.h"
#include "kv/faster_store.h"
#include "mlkv/embedding_cache.h"
#include "mlkv/embedding_table.h"

namespace mlkv {

struct MlkvOptions {
  std::string dir;                     // directory for table log files
  // TOTAL hash-index words per table (8 bytes each, 8 per 64-byte tagged
  // bucket; kv/hash_index.h), split evenly across that table's shards:
  // each shard receives index_slots >> shard_bits (floored at
  // ShardedStore::kMinShardIndexSlots), then rounds its slice up to a
  // power of two — so the realized total can exceed the configured value.
  uint64_t index_slots = 1ull << 20;
  uint64_t page_size = 1ull << 20;
  // TOTAL per-table in-memory log buffer, split evenly across shards the
  // same way (mem_size >> shard_bits per shard, floored at
  // ShardedStore::kMinShardMemBytes; each shard then halves page_size
  // until at least four pages fit its slice).
  uint64_t mem_size = 64ull << 20;
  double mutable_fraction = 0.5;
  // log2 of the per-table shard count: each table's store is 1 <<
  // shard_bits independent FasterStore shards (own index, log, epoch
  // domain) with log/checkpoint files under dir/shard-NN/. 0 preserves the
  // legacy single-log layout exactly. Mlkv::Open rejects values > 8
  // (ShardedStore::kMaxShardBits). Tables recorded in the directory's
  // MANIFEST keep the shard_bits they were created with — the on-disk
  // layout wins over this option when re-attaching.
  uint32_t shard_bits = 2;
  size_t lookahead_threads = 2;
  // Minimum keys in one shard sub-batch (or single-shard chunk) before a
  // batched span call offloads it to the lookahead pool; see
  // ShardedStoreOptions::parallel_min_keys.
  size_t scatter_min_keys = 32;
  // Spin iterations before a bounded Get aborts with Busy (kv/record.h).
  uint64_t busy_spin_limit = kDefaultBusySpinLimit;
  bool skip_promote_if_in_memory = true;  // DESIGN.md ablation D2
  // Workers (and, with io_uring, rings) of the per-DB AsyncIoEngine. Every
  // table's store shares it: the cold misses of batched gets/peeks (and
  // Lookahead promotions) go into flight on it together, and log flushes
  // go out as coalesced waves.
  size_t io_threads = 4;
  // Write-durability mode for every table's store (io/async_io.h). kGroup
  // makes each batched Put/ApplyGradients durable before it returns: the
  // shard logs flush only dirty pages (as one engine wave) and concurrent
  // committers share fsyncs through per-shard GroupCommitters; recovery
  // replays group-committed records past the last checkpoint. kSync (the
  // default) keeps checkpoint-only durability, byte-identical on disk.
  DurabilityMode durability_mode = DurabilityMode::kSync;
  uint64_t group_commit_window_us = 200;
  uint64_t group_commit_max_bytes = 1ull << 20;
  // Checkpoint shape for CheckpointAll (io/async_io.h): kIncremental
  // chains index deltas + dirty-page flushes onto the previous checkpoint
  // instead of rewriting everything.
  CheckpointMode checkpoint_mode = CheckpointMode::kFull;
};

// Consistency presets (paper §III-C1).
inline constexpr uint32_t kBspBound = 0;
inline constexpr uint32_t kAspBound = UINT32_MAX - 1;  // effectively unbounded

// kAspBound must stay one below the staleness counter's saturation value:
// the counter is the low 32 bits of the record control word (a uint32_t
// that saturates at UINT32_MAX), and FasterStore::Read() reserves
// UINT32_MAX as its "use the store-level bound" sentinel, so UINT32_MAX - 1
// is the largest bound that admits every reachable counter value.
static_assert(
    std::is_same_v<decltype(FasterOptions::staleness_bound), uint32_t>,
    "staleness bounds are 32-bit; update kAspBound if the counter widens");
static_assert(
    kAspBound ==
        std::numeric_limits<decltype(FasterOptions::staleness_bound)>::max() -
            1,
    "kAspBound must track the staleness-counter type in faster_store.h");
static_assert(kAspBound == ControlWord::kStalenessMask - 1,
              "kAspBound must track the control-word staleness field");

class Mlkv {
 public:
  // Opens (creates) an MLKV instance rooted at options.dir.
  static Status Open(const MlkvOptions& options, std::unique_ptr<Mlkv>* out);

  ~Mlkv();

  // Creates or opens the embedding model `model_id` with embedding dimension
  // `dim`, the given staleness bound, and (optionally) a fused sparse
  // optimizer whose state lives inside each record. The returned table is
  // owned by this Mlkv instance and stays valid until destruction.
  //
  // `model_id` must be non-empty and use only [A-Za-z0-9_.-] (it names
  // files). Opening an id recorded in the directory's MANIFEST re-attaches
  // the existing table: the configuration must match, and if a checkpoint
  // exists the table recovers from it.
  Status OpenTable(const std::string& model_id, uint32_t dim,
                   uint32_t staleness_bound, EmbeddingTable** out,
                   const OptimizerConfig& optimizer = {});

  // Re-attaches a table recorded in the manifest using its stored
  // configuration (tools and inspection paths that don't know dim/bound up
  // front). NotFound if the id was never created in this directory.
  Status OpenExistingTable(const std::string& model_id, EmbeddingTable** out);

  // Checkpoints every open table under dir/<model_id>.ckpt.*. The paper
  // pairs local-NVMe logs with periodic checkpoints for durability (§II-B,
  // heterogeneous storage). A later Mlkv::Open on the same dir recovers
  // every table from its latest checkpoint.
  Status CheckpointAll();

  // Garbage-collects every open table's log up to its read-only boundary.
  Status CompactAll();

  // Model ids recorded in this directory's manifest (open or not).
  std::vector<std::string> ListTables() const;

  ThreadPool* lookahead_pool() { return &lookahead_pool_; }
  AsyncIoEngine* io_engine() { return io_engine_.get(); }
  const MlkvOptions& options() const { return options_; }

 private:
  // One manifest row: the durable configuration of a table. `shard_bits`
  // fixes the on-disk layout, so re-attaching uses the recorded value, not
  // the current MlkvOptions default (rows written before sharding carry no
  // field and parse as 0 — the single-log layout they describe).
  struct TableSpec {
    uint32_t dim = 0;
    uint32_t staleness_bound = 0;
    uint32_t shard_bits = 0;
    OptimizerConfig optimizer;
  };

  explicit Mlkv(const MlkvOptions& options)
      : options_(options),
        io_engine_(std::make_unique<AsyncIoEngine>([&options] {
          AsyncIoEngine::Options o;
          o.io_threads = options.io_threads;
          return o;
        }())),
        lookahead_pool_(options.lookahead_threads) {}

  std::string ManifestPath() const { return options_.dir + "/MANIFEST"; }
  Status LoadManifest();
  Status WriteManifest() const;

  MlkvOptions options_;
  // Shared across every table/shard of this DB; destroyed after the
  // lookahead pool is shut down (the destructor orders that explicitly).
  std::unique_ptr<AsyncIoEngine> io_engine_;
  ThreadPool lookahead_pool_;
  std::unordered_map<std::string, std::unique_ptr<EmbeddingTable>> tables_;
  // All tables ever created in this directory, including not-yet-reopened
  // ones from a previous process.
  std::unordered_map<std::string, TableSpec> manifest_;
};

}  // namespace mlkv
