// AsyncIoEngine: the shared submit/complete disk-I/O engine behind the
// two-phase pending-read pipeline (kv/pending_read.h) and the hybrid log's
// coalesced flush waves (kv/hybrid_log.h).
//
// Callers enqueue positional reads and writes against FileDevices and
// collect completions per Batch — the io_uring shape (submission queue in,
// completion queue out) regardless of which backend actually executes the
// I/O:
//
//  * io_uring (when the build detects <linux/io_uring.h> and the kernel
//    admits the syscalls at runtime): each worker owns a ring and puts a
//    burst of up to queue_depth / io_threads requests in flight with one
//    syscall (READV sqes for reads, WRITEV for writes). Only devices that
//    allow raw-fd transfers ride the ring; decorated devices (fault
//    injection, the simulated-NVMe cost model) are routed through their
//    virtual ReadAt/WriteAt on the worker instead, so their semantics hold.
//  * thread pool (fallback everywhere): each worker issues one blocking
//    pread/pwrite at a time, so `io_threads` transfers overlap.
//
// Scheduling, backpressure and lifetime rules:
//  * Each Batch (one pending-read wave, one flush wave) owns the queue of
//    its submitted requests; the engine keeps a ready list of the batches
//    that have queued work. A worker serves the batch with the fewest
//    queued requests, so a short wave (a Get with few cold reads, a chain
//    hop) is not stuck behind a long wave's backlog. Once the oldest
//    queued request has waited more than 3 ms, its batch is served first
//    instead, so a long wave waits behind short ones for a bounded time
//    and never starves.
//  * A pick takes one request from a decorated device (run blocking on
//    the picking worker, so those reads spread across the workers). A
//    ring burst instead keeps picking raw-fd requests, across batches,
//    until it holds the worker's ring share of them.
//  * `queue_depth` bounds each batch's queued requests; Submit on that
//    batch blocks (never the I/O itself) once it is reached. One wave's
//    backlog therefore never blocks another wave's Submit.
//  * A Batch must outlive its submissions; its destructor blocks until
//    every outstanding completion has been delivered.
//  * The engine destructor drains: every accepted request completes (and
//    is delivered to its batch) before the workers exit.
//  * queue_wait() records, per request, the time from Submit until a
//    worker picked it up (mlkv_io_queue_wait_seconds).
//
// Writes carry no durability by themselves: a completed write is in the
// page cache, not on media. Durability is the caller's fsync — see
// io/group_committer.h for the batched-fsync protocol layered on top.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "io/file_device.h"

namespace mlkv {

// Write-durability selector plumbed from BackendConfig / MlkvOptions down
// to the store. kSync keeps the classic
// behavior byte-identical: page flushes are blocking writes and each sync
// point is its own fdatasync. kGroup makes batched writes durable per
// call: the log flushes only dirty/undurable pages (as one async wave when
// an engine is configured) and concurrent committers share one fsync
// through a GroupCommitter (io/group_committer.h).
enum class DurabilityMode { kSync, kGroup };

const char* DurabilityModeName(DurabilityMode mode);
bool ParseDurabilityMode(const std::string& name, DurabilityMode* out);

// Checkpoint shape selector. kFull rewrites every log page above the
// flushed boundary plus the entire index (the classic full-table copy);
// kIncremental writes only [durable, tail) log pages plus an index delta
// record against the previous checkpoint, chained from the last full base
// (kv/faster_store.h).
enum class CheckpointMode { kFull, kIncremental };

const char* CheckpointModeName(CheckpointMode mode);
bool ParseCheckpointMode(const std::string& name, CheckpointMode* out);

struct AsyncIoStats {
  uint64_t reads_submitted = 0;
  uint64_t reads_completed = 0;
  uint64_t read_failures = 0;  // read completions with a non-OK status
  uint64_t writes_submitted = 0;
  uint64_t writes_completed = 0;
  uint64_t write_failures = 0;  // write completions with a non-OK status
  uint64_t ring_bursts = 0;     // io_uring submissions (one per burst)
};

class AsyncIoEngine {
 public:
  class Batch;

 private:
  struct Request {
    // Reads keep their const view; writes const_cast back to call the
    // non-const WriteAt (SubmitWrite takes a mutable device, so the cast
    // never strips a caller's constness).
    const FileDevice* dev = nullptr;
    uint64_t offset = 0;
    void* buf = nullptr;  // destination for reads, source for writes
    uint32_t len = 0;
    uint64_t tag = 0;
    Batch* batch = nullptr;
    bool is_write = false;
    uint64_t submit_us = 0;  // steady clock at Submit (queue-wait start)
  };

 public:
  struct Options {
    size_t io_threads = 4;
    // Max queued requests per Batch; Submit on a batch applies
    // backpressure beyond it. Other batches are unaffected.
    size_t queue_depth = 128;
    // Prefer the io_uring backend when it was compiled in and the kernel
    // allows it; the thread pool is the fallback either way.
    bool try_io_uring = true;
  };

  struct Completion {
    uint64_t tag = 0;
    Status status;
  };

  // Per-caller completion context: a submission is tagged to one batch and
  // its completion is delivered only there, so concurrent batches (one per
  // MultiGet wave) never see each other's I/O.
  class Batch {
   public:
    explicit Batch(AsyncIoEngine* engine) : engine_(engine) {}
    ~Batch();  // blocks until every outstanding read was delivered

    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    // Enqueues a read of [offset, offset + len) on `dev` into `buf`. `buf`
    // (and `dev`) must stay valid until the completion is collected. May
    // block on this batch's depth limit, never on the I/O.
    Status Submit(const FileDevice* dev, uint64_t offset, void* buf,
                  uint32_t len, uint64_t tag);
    // Enqueues a write of `buf`[0, len) to [offset, offset + len) on
    // `dev`; same lifetime and backpressure contract as Submit. The
    // completion means the bytes reached the file (page cache), not media
    // — durability needs a subsequent Sync/GroupCommitter commit.
    Status SubmitWrite(FileDevice* dev, uint64_t offset, const void* buf,
                       uint32_t len, uint64_t tag);
    // Blocks until the next completion for this batch lands; returns false
    // when nothing is outstanding.
    bool WaitOne(Completion* out);
    size_t outstanding() const;

   private:
    friend class AsyncIoEngine;
    AsyncIoEngine* engine_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Completion> done_;
    size_t outstanding_ = 0;
    // Scheduling state, guarded by engine_->mu_: the submitted requests no
    // worker has picked yet, and the submitters waiting for queue space.
    std::deque<Request> queue_;
    std::condition_variable space_cv_;
  };

  AsyncIoEngine() : AsyncIoEngine(Options()) {}
  explicit AsyncIoEngine(const Options& options);
  ~AsyncIoEngine();

  AsyncIoEngine(const AsyncIoEngine&) = delete;
  AsyncIoEngine& operator=(const AsyncIoEngine&) = delete;

  size_t io_threads() const { return workers_.size(); }
  // True when the io_uring backend is active (compiled in AND admitted by
  // the kernel at construction time).
  bool using_io_uring() const { return using_io_uring_; }
  AsyncIoStats stats() const;
  // Microseconds each request waited between Submit and a worker picking
  // it up.
  const Histogram& queue_wait() const { return queue_wait_; }

 private:
  Status Enqueue(Request req);
  // The ready batch the next pick serves (see the header comment).
  // Requires mu_ and a non-empty ready_.
  Batch* PickLocked();
  // Executes one request on the calling worker thread via the device's
  // virtual ReadAt/WriteAt (the non-ring path and the decorated-device /
  // short-transfer completion path).
  static Status RunBlocking(const Request& req);
  void WorkerLoop();
  // Takes one pick's requests (blocking for at least one unless stopping):
  // a single decorated-device request, or up to `max` raw-fd requests of
  // one batch. Returns false when the worker should exit.
  bool NextBurst(std::vector<Request>* out, size_t max);
  void Deliver(const Request& req, const Status& status);

  const Options options_;
  size_t per_worker_depth_ = 1;
  bool using_io_uring_ = false;

  std::mutex mu_;
  std::condition_variable queue_cv_;  // workers: work available / stop
  std::vector<Batch*> ready_;         // batches with queued requests
  bool stop_ = false;
  Histogram queue_wait_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> writes_submitted_{0};
  std::atomic<uint64_t> writes_completed_{0};
  std::atomic<uint64_t> write_failures_{0};
  std::atomic<uint64_t> ring_bursts_{0};

  std::vector<std::thread> workers_;
};

}  // namespace mlkv
