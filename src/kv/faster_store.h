// FasterStore: a from-scratch, FASTER-style embedded key-value store over a
// HybridLog + latch-free HashIndex, extended with MLKV's two optimizations:
//
//  * Bounded staleness consistency (paper §III-C1). When
//    `track_staleness` is on, every record carries a 32-bit staleness
//    counter in its control word. Get spins until `staleness <= bound`,
//    then lock-CASes the word with staleness+1; Put never waits and
//    releases with staleness-1 and generation+1. Bound 0 = BSP, huge bound
//    = ASP, anything between = SSP.
//
//  * Promotion (the storage half of look-ahead prefetching, §III-C2).
//    Promote(key) copies a disk-resident record — with its original
//    staleness and value — to the mutable tail region so later Get/Put hit
//    memory. Records already resident in the immutable (read-only) region
//    are skipped by default, mirroring the paper's page-write-saving rule.
//
// With `track_staleness == false` the store behaves as plain FASTER and is
// used as the "X-FASTER" baseline in the benchmarks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "kv/hash_index.h"
#include "kv/hybrid_log.h"
#include "kv/pending_read.h"
#include "kv/record.h"

namespace mlkv {

struct FasterOptions {
  std::string path;                    // backing log file
  // Hash index words, 8 per 64-byte bucket (rounded up to a power of two).
  uint64_t index_slots = 1ull << 20;
  // Log page size. Open() halves it (down to 4 KiB) until at least four
  // pages fit in mem_size, so tiny buffer budgets work out of the box.
  uint64_t page_size = 1ull << 20;
  uint64_t mem_size = 64ull << 20;     // in-memory log buffer
  double mutable_fraction = 0.5;

  // MLKV mode. When false, staleness fields are carried but never checked
  // and Get never waits (plain FASTER behaviour).
  bool track_staleness = false;
  uint32_t staleness_bound = UINT32_MAX;
  // Get retries (index re-lookups) while waiting out the staleness bound
  // before giving up with Status::Busy. Each retry yields the CPU. The
  // default is shared across layers (kv/record.h).
  uint64_t busy_spin_limit = kDefaultBusySpinLimit;

  // Copy records served by disk reads to the tail (FASTER's "copy reads
  // to tail"), so the update that follows a read runs in place instead of
  // re-finding the key on disk. Off by default (the FASTER baseline); MLKV
  // tables turn it on. Values longer than the read's buffer stay put.
  bool promote_cold_reads = false;
  // Ablation knob (DESIGN.md D2): when false, Promote() also copies records
  // from the immutable in-memory region, re-dirtying pages.
  bool skip_promote_if_in_memory = true;

  // Builds the log's backing device; null uses a plain FileDevice. Tests
  // inject fault decorators here (io/faulty_file_device.h).
  std::function<std::unique_ptr<FileDevice>()> device_factory;

  // Shared engine for the log's coalesced flush waves (page roll, FlushAll,
  // Persist) and ShardedStore's pending-read waves; null keeps flushes
  // sequential blocking writes and batched reads blocking. Not owned.
  AsyncIoEngine* io = nullptr;
  // kGroup: Persist() commits through a per-log GroupCommitter (concurrent
  // callers share one fsync) and Recover() replays group-committed records
  // past the checkpoint tail. kSync keeps the classic checkpoint-only
  // durability, byte-identical on disk.
  DurabilityMode durability_mode = DurabilityMode::kSync;
  uint64_t group_commit_window_us = 200;
  uint64_t group_commit_max_bytes = 1ull << 20;
  // kIncremental: Checkpoint() persists only dirty/undurable log pages and
  // an index delta chained onto the previous checkpoint under the same
  // prefix; kFull keeps the classic full-flush + full-index-dump layout.
  CheckpointMode checkpoint_mode = CheckpointMode::kFull;
};

struct FasterStatsSnapshot {
  uint64_t reads = 0, upserts = 0, rmws = 0, deletes = 0;
  uint64_t inplace_updates = 0, rcu_appends = 0, inserts = 0;
  uint64_t promotions = 0, promotions_skipped = 0;
  // Disk-served reads copied to the tail (promote_cold_reads), counted
  // apart from Lookahead's promotions.
  uint64_t read_promotions = 0;
  uint64_t staleness_waits = 0, busy_aborts = 0;
  uint64_t disk_record_reads = 0, pages_flushed = 0, pages_evicted = 0;
  uint64_t compactions = 0, compaction_live_copied = 0;
  // Pending-read pipeline: record fetches handed to the AsyncIoEngine,
  // fetches that landed, and keys that fell back to a synchronous re-read
  // (record moved mid-flight / staleness wait).
  uint64_t async_reads_submitted = 0, async_reads_completed = 0;
  uint64_t async_reads_refetched = 0;
  // Pending-read chain hops: disk fetches that found another key's record
  // and had to follow its prev link.
  uint64_t read_hops = 0;
  // Write pipeline: pages submitted to / completed by async flush waves,
  // fdatasyncs issued (log's own plus the GroupCommitter's), and fsyncs
  // that covered more than one committer (the group-commit win).
  uint64_t async_writes_submitted = 0, async_writes_completed = 0;
  uint64_t fsyncs = 0, group_commits = 0;
};

// Outcome of one Compact() pass.
struct CompactionResult {
  uint64_t scanned = 0;            // records visited in the dead-candidate
                                   // region (valid headers only)
  uint64_t live_copied = 0;        // still-newest records re-appended at tail
  uint64_t dead_skipped = 0;       // superseded versions dropped
  uint64_t tombstones_dropped = 0; // newest-version tombstones retired
  Address new_begin = kInvalidAddress;
};

class FasterStore {
 public:
  FasterStore() = default;
  ~FasterStore() = default;

  FasterStore(const FasterStore&) = delete;
  FasterStore& operator=(const FasterStore&) = delete;

  Status Open(const FasterOptions& options);

  // Reads the value for `key` into `out` (at most `cap` bytes); the full
  // value size is returned via `size` when non-null. Under staleness
  // tracking, waits until the record's staleness is within `bound` and
  // increments it. `bound == UINT32_MAX` uses the store-level bound.
  Status Read(Key key, void* out, uint32_t cap, uint32_t* size = nullptr,
              uint32_t bound = UINT32_MAX);
  Status Read(Key key, std::string* out, uint32_t bound = UINT32_MAX);

  // Reads without participating in the staleness protocol (no wait, no
  // increment). Used by evaluation passes, which must not perturb the
  // training pipeline's vector clocks.
  Status Peek(Key key, void* out, uint32_t cap, uint32_t* size = nullptr);

  // Inserts or updates. In-place when the record lives in the mutable
  // region with an equal value size; RCU (append new version) otherwise.
  // Under staleness tracking, decrements staleness and bumps generation.
  Status Upsert(Key key, const void* value, uint32_t size);

  // Read-modify-write. `modifier(value, size, exists)` mutates the value
  // in place; when the key is absent it receives a zeroed buffer of
  // `value_size` bytes and `exists == false`. Atomic per record.
  Status Rmw(Key key, uint32_t value_size,
             const std::function<void(char* value, uint32_t size,
                                      bool exists)>& modifier);

  Status Delete(Key key);

  // Copies a cold record to the mutable tail (look-ahead prefetch target).
  // Returns OK whether promoted or skipped; inspect stats for which.
  Status Promote(Key key);

  // Inserts an absent `key` (generation 0, staleness 0) against
  // `expected_head`: the index head of the chain walk that found the key
  // absent, so no second walk is needed. Busy when the head moved since
  // (a racing publish may have inserted the key); the caller re-decides,
  // e.g. with Rmw.
  Status InsertIfAbsent(Key key, const void* value, uint32_t size,
                        Address expected_head);

  // --- Two-phase pending-read pipeline (kv/pending_read.h) ---

  // Phase 1 of a batched read: Read (`tracked`) or Peek with one chain walk
  // over the in-memory log, never issuing disk I/O. When the read completed
  // *pending stays null and the returned status is final with the exact
  // blocking semantics (including NotFound and Busy). When the walk reached
  // a disk-resident address, *pending is a PendingRead primed for a
  // PendingReadWave (the returned status is then OK). Either way
  // *chain_head (when non-null) is the index head the walk started
  // from. `bound == UINT32_MAX` uses the store-level bound.
  Status StartRead(Key key, void* out, uint32_t cap, uint32_t bound,
                   bool tracked, std::unique_ptr<PendingRead>* pending,
                   Address* chain_head = nullptr);

  // Phase 1 of a Lookahead promotion: Promote over the in-memory log only.
  // Memory-resident and absent keys complete inline (*pending stays null,
  // the status is final); a disk-resident key primes *pending (`cap` must
  // cover the full record value) — finish it with PromoteFromPending.
  // Unlike StartRead this never counts as a read: a prefetch is not a
  // training access.
  Status StartPromote(Key key, uint32_t cap,
                      std::unique_ptr<PendingRead>* pending);

  enum class PendingStep { kDone, kResubmit };
  // Phase 2: consumes the landed bytes in pending->buf. kDone means the
  // key's outcome is final; kResubmit means the hash chain continues at
  // another disk address (pending re-primed — submit again). A record the
  // I/O caught mid-move (compaction invalidated the address, eviction beat
  // the classification) or whose frozen staleness fails the bound falls
  // back to a synchronous re-read internally, preserving exact blocking-
  // path semantics; a failed I/O becomes the key's status as-is.
  PendingStep CompletePendingRead(PendingRead* pending,
                                  const Status& io_status);

  // Completes a Lookahead promotion from a landed pending read (tracked ==
  // false, cap >= value size): appends a copy of the fetched record at the
  // tail with its original control word, exactly like Promote's disk case.
  // Skips (OK + promotions_skipped) when a concurrent writer superseded
  // the record in flight.
  Status PromoteFromPending(const PendingRead& pending);

  // Pending-pipeline accounting (called by PendingReadWave per I/O, so the
  // two balance even when several waiters coalesce onto one fetch).
  void CountAsyncSubmitted() {
    stats_.async_reads_submitted.fetch_add(1, std::memory_order_relaxed);
  }
  void CountAsyncCompleted() {
    stats_.async_reads_completed.fetch_add(1, std::memory_order_relaxed);
  }

  // Reads the full record image at a log address: sanitized header plus
  // value bytes. Works for memory- and disk-resident addresses; the basis
  // for log scans, compaction, and table export.
  Status ReadRecordAt(Address address, RecordMeta* meta,
                      std::vector<char>* value);

  // Log garbage collection. Scans [begin, until), re-appends records that
  // are still the newest version of their key at the tail (preserving
  // control word and flags — a compaction copy is not an update), then
  // advances the begin address and punches the dead file range. `until` is
  // clamped to the read-only boundary; the mutable region is never
  // compacted. Safe under concurrent reads and writes: liveness is decided
  // by an index CAS, so a record updated mid-compaction simply loses the
  // race and is dropped as superseded.
  Status Compact(Address until, CompactionResult* result = nullptr);

  // Convenience policy: compacts up to the read-only boundary when the live
  // log span (tail - begin) exceeds `max_log_bytes`. Returns OK without
  // compacting when under the threshold.
  Status MaybeCompact(uint64_t max_log_bytes,
                      CompactionResult* result = nullptr);

  // Doubles the hash index `factor_log2` times. Existing chains stay
  // reachable immediately; they thin out as subsequent publishes use the
  // refined buckets. Quiesced operation: callers must ensure no concurrent
  // store operations (same contract as Checkpoint).
  Status GrowIndex(uint32_t factor_log2 = 1);

  // Quiesced maintenance policy: grows the index (doubling as many times as
  // needed) whenever live keys exceed `max_load` keys per index word.
  Status MaybeGrowIndex(double max_load = 1.5);

  // Durability point: makes every operation that completed before this call
  // crash-durable (incremental log flush + fsync; see HybridLog::Persist).
  // Unlike Checkpoint this is safe under concurrent operations and does not
  // write index files — recovery re-derives post-checkpoint publishes by
  // replaying the log tail (durability_mode == kGroup only).
  Status Persist() { return log_.Persist(); }
  // Highest log address known durable on media.
  Address durable_address() const { return log_.durable_address(); }

  // Quiesced checkpoint under `prefix`; callers must ensure no concurrent
  // operations. checkpoint_mode == kFull writes the classic pair
  // (<prefix>.meta, <prefix>.idx: full log flush + full index dump).
  // kIncremental persists only dirty/undurable pages and appends an index
  // delta (<prefix>.idx.d<N>: index words whose address moved since the
  // previous checkpoint) onto the chain under the same prefix, committing by
  // atomically renaming the .meta into place; a fresh base (full .idx)
  // is forced on a new prefix, after index growth, or past the delta cap.
  Status Checkpoint(const std::string& prefix);
  // Reopens the store from a checkpoint taken with the same options: base
  // index plus deltas in order, then — in durability_mode == kGroup — a
  // replay of valid group-committed records found past the checkpoint tail
  // (stopping at the first torn record and truncating the log there).
  Status Recover(const FasterOptions& options, const std::string& prefix);

  // True if `key` currently resolves to an in-memory record.
  bool IsInMemory(Key key);

  // True if `address` holds the newest version of `key` (scan liveness).
  bool IsLiveVersion(Key key, Address address);

  FasterStatsSnapshot stats() const;
  void ResetStats();
  uint64_t index_slots() const { return index_->num_slots(); }
  const HashIndex& hash_index() const { return *index_; }
  const HybridLog& log() const { return log_; }
  HybridLog* mutable_log() { return &log_; }
  const FasterOptions& options() const { return options_; }

  // Effective number of live keys (approximate: counts inserts - deletes).
  uint64_t approximate_size() const {
    return stats_.inserts.load(std::memory_order_relaxed);
  }

 private:
  struct FindResult {
    Address address = kInvalidAddress;  // the matching record (if found)
    // Chain head observed in the index at lookup time. All publishes CAS
    // the key's index entry from this value and link the new record's prev
    // to it, so keys sharing an entry keep a single consistent chain.
    Address chain_head = kInvalidAddress;
    // Memory-only walks: the first disk-resident chain address, where the
    // walk stopped (found stays false); kInvalidAddress otherwise.
    Address disk_stop = kInvalidAddress;
    RecordMeta meta;
    bool in_memory = false;
    bool found = false;
  };

  // Shared implementation for Read/Peek; `tracked` selects whether the
  // bounded-staleness protocol applies. Does not bump the reads stat (the
  // public entry points and StartRead own that, so a pending read that
  // falls back to this path is still counted once). With `walk` non-null
  // the chain walk is memory-only: on reaching a disk-resident address it
  // returns OK with walk->disk_stop set and nothing read; either way *walk
  // holds the last walk's result.
  Status ReadInternal(Key key, void* out, uint32_t cap, uint32_t* size,
                      uint32_t bound, bool tracked,
                      FindResult* walk = nullptr);
  // Promote, with the same memory-only `walk` contract as ReadInternal.
  Status PromoteInternal(Key key, FindResult* walk);
  // A PendingRead primed to fetch the record image at walk.disk_stop.
  static std::unique_ptr<PendingRead> Prime(Key key, const FindResult& walk,
                                            void* out, uint32_t cap,
                                            uint32_t bound, bool tracked);
  // Synchronous fallback for an in-flight pending read whose record moved
  // (or whose staleness needs the blocking wait); finalizes *pending.
  void RefetchPending(PendingRead* pending);
  // FASTER's copy-reads-to-tail (promote_cold_reads) for a disk-served
  // read of `meta`'s record; `value` holds min(value_size, cap) bytes.
  void CopyReadToTail(Key key, const void* value, uint32_t cap,
                      const RecordMeta& meta, bool tracked,
                      Address chain_head);

  // Loads the record header at `address`, transparently falling back to the
  // disk image if the frame is evicted mid-read — unless `memory_only`, in
  // which case a disk-resident address returns OK with *in_memory false and
  // *meta untouched.
  Status LoadMeta(Address address, RecordMeta* meta, bool* in_memory,
                  bool memory_only = false);
  // Copies the value bytes of the record at `address`.
  Status LoadValue(Address address, const RecordMeta& meta, void* out,
                   uint32_t cap);
  // Walks the hash chain from the key's index entry looking for `key`. With
  // `memory_only` the walk stops at the first disk-resident address
  // (out->disk_stop) instead of reading it.
  Status Find(Key key, FindResult* out, bool memory_only = false);

  // Appends a record and publishes it via index CAS against `expected`.
  // On publish failure the appended record is abandoned (log garbage) and
  // kBusy is returned so the caller retries.
  Status AppendAndPublish(Key key, const void* value, uint32_t value_size,
                          uint64_t control, uint32_t flags, Address expected,
                          Address* out_address);

  // Marks the in-memory record at `address` replaced (no-op if evicted).
  void MarkReplaced(Address address);

  Record* MutableRecord(Address address) {
    return reinterpret_cast<Record*>(log_.MutablePointer(address));
  }

  struct Stats {
    std::atomic<uint64_t> reads{0}, upserts{0}, rmws{0}, deletes{0};
    std::atomic<uint64_t> inplace_updates{0}, rcu_appends{0}, inserts{0};
    std::atomic<uint64_t> promotions{0}, promotions_skipped{0};
    std::atomic<uint64_t> read_promotions{0};
    std::atomic<uint64_t> staleness_waits{0}, busy_aborts{0};
    std::atomic<uint64_t> compactions{0}, compaction_live_copied{0};
    std::atomic<uint64_t> async_reads_submitted{0}, async_reads_completed{0};
    std::atomic<uint64_t> async_reads_refetched{0};
    std::atomic<uint64_t> read_hops{0};
  };

  // Maps the (page-size-adjusted) store options onto the log's.
  HybridLogOptions LogOptions(bool truncate) const;

  // Incremental checkpoint helpers (kv/faster_store.cc).
  Status CheckpointFull(const std::string& prefix);
  Status CheckpointIncremental(const std::string& prefix);
  // Scans [from, end-of-file) for valid records the last checkpoint missed
  // and republishes them against the recovered index (address-ordered
  // passes to a fixpoint); *recovered is the end of the last valid record.
  Status ReplayTail(Address from, Address* recovered);

  // Chain state for incremental checkpoints: what the last checkpoint
  // under `prefix` covered. Reset on Open; restored by Recover.
  struct CheckpointChain {
    std::string prefix;       // empty: no chain, next checkpoint is a base
    Address tail = 0;         // log tail the last checkpoint covered
    uint64_t deltas = 0;      // delta files written under this prefix
    uint64_t index_slots = 0; // index word count the chain's files assume
  };
  // Replaying an ever-longer delta chain on recovery caps here; the next
  // checkpoint then rolls a fresh base.
  static constexpr uint64_t kMaxCheckpointDeltas = 64;
  CheckpointChain ckpt_;

  // At most one Compact() runs at a time; concurrent calls return early.
  std::atomic_flag compact_lock_ = ATOMIC_FLAG_INIT;

  FasterOptions options_;
  HashIndex* index() { return index_.get(); }
  std::unique_ptr<HashIndex> index_;
  HybridLog log_;
  Stats stats_;
};

}  // namespace mlkv
