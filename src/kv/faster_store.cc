#include "kv/faster_store.h"

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

namespace mlkv {

namespace {

// Checkpoint metadata block, v3 ("MLKV5CHK"): the index files hold tagged
// bucket words (kv/hash_index.h). Full and incremental checkpoints write
// the same block; a full one names zero deltas. Recovery rejects v1
// ("MLKV3CHK") and v2 ("MLKV4CHK") metas: their index files hold one
// untagged chain head per slot, which the tagged layout cannot read.
constexpr uint64_t kMetaMagicV1 = 0x4D4C4B563343484Bull;  // "MLKV3CHK"
constexpr uint64_t kMetaMagicV2 = 0x4D4C4B563443484Bull;  // "MLKV4CHK"
constexpr uint64_t kMetaMagicV3 = 0x4D4C4B563543484Bull;  // "MLKV5CHK"

struct CheckpointMeta {
  uint64_t magic = kMetaMagicV3;
  uint64_t tail = 0;
  uint64_t index_slots = 0;
  uint64_t num_inserts = 0;
  uint64_t begin = HybridLog::kLogBegin;   // GC boundary at checkpoint time
  // Effective page size (Open may shrink the configured one for small
  // buffers); recovery must parse the log with the same geometry.
  uint64_t page_size = 0;
  // Number of <prefix>.idx.d<k> delta files (k = 1..delta_count) to apply,
  // in order, on top of the <prefix>.idx base.
  uint64_t delta_count = 0;
};

std::string DeltaPath(const std::string& prefix, uint64_t k) {
  return prefix + ".idx.d" + std::to_string(k);
}

// Applies `transform` to the control word with a CAS loop. Only the lock
// holder changes generation/staleness, but another thread may concurrently
// set the replaced bit, so a blind store is not safe.
template <typename Fn>
uint64_t TransformControl(std::atomic<uint64_t>* control, Fn transform) {
  uint64_t c = control->load(std::memory_order_acquire);
  for (;;) {
    const uint64_t desired = transform(c);
    if (control->compare_exchange_weak(c, desired, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return desired;
    }
  }
}

// Disk chain hops a pending read follows before giving up on the async
// path and falling back to the blocking walk. Chains this deep mean the
// index is drastically undersized; the fallback keeps semantics exact.
constexpr uint32_t kMaxPendingHops = 4;

void ParseRecordHeader(const char* hdr, RecordMeta* meta) {
  std::memcpy(&meta->control, hdr + 0, 8);
  std::memcpy(&meta->prev, hdr + 8, 8);
  std::memcpy(&meta->key, hdr + 16, 8);
  std::memcpy(&meta->value_size, hdr + 24, 4);
  std::memcpy(&meta->flags, hdr + 28, 4);
}

}  // namespace

Status FasterStore::Open(const FasterOptions& options) {
  options_ = options;
  // The circular buffer needs at least 4 resident pages; small memory
  // budgets (the tight end of the Fig. 7 sweep) shrink the page size
  // rather than failing.
  while (options_.page_size > 4096 &&
         options_.mem_size / options_.page_size < 4) {
    options_.page_size >>= 1;
  }
  index_.reset(new HashIndex(options.index_slots));
  ckpt_ = CheckpointChain();
  return log_.Open(LogOptions(/*truncate=*/true));
}

HybridLogOptions FasterStore::LogOptions(bool truncate) const {
  HybridLogOptions log_opts;
  log_opts.page_size = options_.page_size;
  log_opts.mem_size = options_.mem_size;
  log_opts.mutable_fraction = options_.mutable_fraction;
  log_opts.path = options_.path;
  log_opts.truncate = truncate;
  log_opts.device_factory = options_.device_factory;
  log_opts.io = options_.io;
  log_opts.durability = options_.durability_mode;
  log_opts.group_commit_window_us = options_.group_commit_window_us;
  log_opts.group_commit_max_bytes = options_.group_commit_max_bytes;
  return log_opts;
}

Status FasterStore::LoadMeta(Address address, RecordMeta* meta,
                             bool* in_memory, bool memory_only) {
  for (;;) {
    if (address >= log_.head_address()) {
      char buf[sizeof(Record)];
      if (log_.TryReadMemory(address, buf, sizeof(buf))) {
        ParseRecordHeader(buf, meta);
        *in_memory = true;
        return Status::OK();
      }
      if (address >= log_.head_address()) {
        // Frame replaced mid-read but the address is still resident —
        // transient (page being claimed); retry.
        std::this_thread::yield();
        continue;
      }
    }
    *in_memory = false;
    if (memory_only) return Status::OK();
    return log_.ReadFromDisk(address, meta, nullptr, 0);
  }
}

Status FasterStore::LoadValue(Address address, const RecordMeta& meta,
                              void* out, uint32_t cap) {
  const uint32_t n = meta.value_size < cap ? meta.value_size : cap;
  for (;;) {
    if (address >= log_.head_address()) {
      if (log_.TryReadMemory(address + sizeof(Record), out, n)) {
        return Status::OK();
      }
      if (address >= log_.head_address()) {
        std::this_thread::yield();
        continue;
      }
    }
    RecordMeta disk_meta;
    return log_.ReadFromDisk(address, &disk_meta, out, cap);
  }
}

Status FasterStore::Find(Key key, FindResult* out, bool memory_only) {
restart:
  Address a = index()->Load(key);
  out->chain_head = a;
  out->disk_stop = kInvalidAddress;
  // Addresses below the begin boundary are log garbage: every record that
  // was live when the boundary moved has a newer copy above it, so the walk
  // treats them as end-of-chain.
  while (a != kInvalidAddress && a >= log_.begin_address()) {
    RecordMeta meta;
    bool in_memory = false;
    MLKV_RETURN_NOT_OK(LoadMeta(a, &meta, &in_memory, memory_only));
    if (!in_memory && memory_only) {
      out->disk_stop = a;  // the pending-read wave fetches from here
      break;
    }
    if (a < log_.begin_address()) {
      // Compaction advanced past `a` between the boundary check and the
      // load; the bytes read may already be punched. The live version (if
      // any) was republished first, so a restart observes it.
      goto restart;
    }
    if (meta.key == key) {
      out->address = a;
      out->meta = meta;
      // A resident header may carry another thread's lock or replaced bit
      // (the read-only boundary can pass a record while it is locked); a
      // copy made from this meta must not inherit either, or the new
      // version is born locked or replaced and every later op spins on it.
      out->meta.control = ControlWord::Sanitize(meta.control);
      out->in_memory = in_memory;
      out->found = true;
      return Status::OK();
    }
    a = meta.prev;
  }
  out->found = false;
  return Status::OK();
}

Status FasterStore::AppendAndPublish(Key key, const void* value,
                                     uint32_t value_size, uint64_t control,
                                     uint32_t flags, Address expected,
                                     Address* out_address) {
  const uint32_t size = Record::SizeFor(value_size);
  Address addr = kInvalidAddress;
  char* mem = nullptr;
  MLKV_RETURN_NOT_OK(log_.Allocate(size, &addr, &mem));
  Record* r = reinterpret_cast<Record*>(mem);
  r->control.store(control, std::memory_order_relaxed);
  r->prev = expected;
  r->key = key;
  r->value_size = value_size;
  r->flags = flags | kRecordValid;
  if (value_size > 0 && value != nullptr) {
    std::memcpy(r->value(), value, value_size);
  }
  // Publish: release-CAS makes all fields above visible to chain walkers.
  // The append pin from Allocate() is held across the CAS so a lost race
  // can retract the valid bit before any flush snapshots the frame: on
  // disk, abandoned records are never valid, which is what lets crash
  // recovery replay the group-committed tail without ambiguity (a record
  // whose valid bit is set was genuinely published; docs/DURABILITY.md).
  Address e = expected;
  if (!index()->CompareExchange(key, e, addr)) {
    // Lost the race; the appended record becomes unreachable log garbage.
    r->flags &= ~kRecordValid;
    log_.EndAppend(addr);
    return Status::Busy("index CAS lost");
  }
  log_.EndAppend(addr);
  if (out_address != nullptr) *out_address = addr;
  return Status::OK();
}

void FasterStore::MarkReplaced(Address address) {
  // Pin the frame so the pointer stays valid; if the record went cold this
  // is a no-op — read-only / disk images are superseded via the index, and
  // their replaced bit is advisory only.
  if (!log_.BeginInPlaceWrite(address)) return;
  MutableRecord(address)->control.fetch_or(ControlWord::kReplacedBit,
                                           std::memory_order_acq_rel);
  log_.EndInPlaceWrite(address);
}

Status FasterStore::Read(Key key, std::string* out, uint32_t bound) {
  // Two-step: size probe then fixed read; fine for the string convenience
  // path (hot paths use the fixed-buffer overload).
  FindResult f;
  MLKV_RETURN_NOT_OK(Find(key, &f));
  if (!f.found || (f.meta.flags & kRecordTombstone)) {
    return Status::NotFound();
  }
  out->resize(f.meta.value_size);
  uint32_t size = 0;
  return Read(key, out->data(), f.meta.value_size, &size, bound);
}

Status FasterStore::Read(Key key, void* out, uint32_t cap, uint32_t* size,
                         uint32_t bound) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  return ReadInternal(key, out, cap, size, bound, options_.track_staleness);
}

Status FasterStore::Peek(Key key, void* out, uint32_t cap, uint32_t* size) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  return ReadInternal(key, out, cap, size, UINT32_MAX, /*tracked=*/false);
}

Status FasterStore::ReadInternal(Key key, void* out, uint32_t cap,
                                 uint32_t* size, uint32_t bound,
                                 bool tracked, FindResult* walk) {
  const uint32_t effective_bound =
      bound != UINT32_MAX ? bound : options_.staleness_bound;
  uint64_t spins = 0;
  FindResult local;
  FindResult& f = walk != nullptr ? *walk : local;
  for (;;) {
    MLKV_RETURN_NOT_OK(Find(key, &f, /*memory_only=*/walk != nullptr));
    if (f.disk_stop != kInvalidAddress) return Status::OK();  // caller parks
    if (!f.found || (f.meta.flags & kRecordTombstone)) {
      return Status::NotFound();
    }
    if (size != nullptr) *size = f.meta.value_size;

    if (f.address < log_.read_only_address()) {
      // Cold record (read-only region or disk): no in-place vector clock to
      // maintain. Check the frozen staleness value against the bound, copy
      // the value out, and optionally promote.
      if (tracked && ControlWord::Staleness(f.meta.control) > effective_bound) {
        // The counter can only drop via a Put, which will supersede this
        // version through the index; re-find until it does.
        stats_.staleness_waits.fetch_add(1, std::memory_order_relaxed);
        if (++spins > options_.busy_spin_limit) {
          stats_.busy_aborts.fetch_add(1, std::memory_order_relaxed);
          return Status::Busy("staleness bound");
        }
        std::this_thread::yield();
        continue;
      }
      MLKV_RETURN_NOT_OK(LoadValue(f.address, f.meta, out, cap));
      if (!f.in_memory) {
        CopyReadToTail(key, out, cap, f.meta, tracked, f.chain_head);
      }
      return Status::OK();
    }

    // Mutable region: the paper's latch-free protocol. Pin the frame first
    // (BeginInPlaceWrite re-validates mutability and blocks flush/eviction
    // of the page while held) so the record pointer stays valid, then
    // acquire the record lock and bump staleness in one CAS. The pin is
    // never held across a staleness wait — that would stall the flusher.
    if (!log_.BeginInPlaceWrite(f.address)) continue;  // went cold: re-find
    Record* r = MutableRecord(f.address);
    uint64_t c = r->control.load(std::memory_order_acquire);
    if (ControlWord::Replaced(c)) {                  // superseded: re-find
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    if (ControlWord::Locked(c)) {
      log_.EndInPlaceWrite(f.address);
      std::this_thread::yield();
      continue;
    }
    if (tracked && ControlWord::Staleness(c) > effective_bound) {
      log_.EndInPlaceWrite(f.address);
      stats_.staleness_waits.fetch_add(1, std::memory_order_relaxed);
      if (++spins > options_.busy_spin_limit) {
        stats_.busy_aborts.fetch_add(1, std::memory_order_relaxed);
        return Status::Busy("staleness bound");
      }
      std::this_thread::yield();
      continue;
    }
    uint64_t desired = ControlWord::SetLocked(c);
    if (tracked) desired = ControlWord::IncrStaleness(desired);
    if (!r->control.compare_exchange_strong(c, desired,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    const uint32_t n = f.meta.value_size < cap ? f.meta.value_size : cap;
    std::memcpy(out, r->value(), n);
    TransformControl(&r->control,
                     [](uint64_t w) { return ControlWord::ClearLocked(w); });
    log_.EndInPlaceWrite(f.address);
    return Status::OK();
  }
}

std::unique_ptr<PendingRead> FasterStore::Prime(Key key,
                                                const FindResult& walk,
                                                void* out, uint32_t cap,
                                                uint32_t bound, bool tracked) {
  auto p = std::make_unique<PendingRead>();
  p->key = key;
  p->address = walk.disk_stop;
  p->chain_head = walk.chain_head;
  p->out = out;
  p->cap = cap;
  p->bound = bound;
  p->tracked = tracked;
  p->buf.resize(sizeof(Record) + cap);
  return p;
}

Status FasterStore::StartRead(Key key, void* out, uint32_t cap,
                              uint32_t bound, bool tracked,
                              std::unique_ptr<PendingRead>* pending,
                              Address* chain_head) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  const uint32_t effective_bound =
      bound != UINT32_MAX ? bound : options_.staleness_bound;
  FindResult walk;
  Status s = ReadInternal(key, out, cap, nullptr, effective_bound, tracked,
                          &walk);
  if (chain_head != nullptr) *chain_head = walk.chain_head;
  if (walk.disk_stop != kInvalidAddress) {
    *pending = Prime(key, walk, out, cap, effective_bound, tracked);
  }
  return s;
}

Status FasterStore::StartPromote(Key key, uint32_t cap,
                                 std::unique_ptr<PendingRead>* pending) {
  FindResult walk;
  Status s = PromoteInternal(key, &walk);
  if (walk.disk_stop != kInvalidAddress) {
    // No caller buffer: PromoteFromPending copies straight from the landing
    // buffer, and a prefetch never touches the vector clocks.
    *pending = Prime(key, walk, /*out=*/nullptr, cap, UINT32_MAX,
                     /*tracked=*/false);
  }
  return s;
}

void FasterStore::RefetchPending(PendingRead* pending) {
  stats_.async_reads_refetched.fetch_add(1, std::memory_order_relaxed);
  pending->served_from_disk = false;
  if (pending->out == nullptr) {
    // Buffer-less read (a StartPromote fetch): the record moved while in
    // flight, so the prefetch is moot — report OK with nothing served and
    // PromoteFromPending skips it, mirroring Promote's lost-race skip.
    pending->status = Status::OK();
    return;
  }
  pending->status = ReadInternal(pending->key, pending->out, pending->cap,
                                 nullptr, pending->bound, pending->tracked);
}

FasterStore::PendingStep FasterStore::CompletePendingRead(
    PendingRead* pending, const Status& io_status) {
  PendingRead* p = pending;
  if (!io_status.ok()) {
    // The device itself failed; that is the key's outcome (a retry storm
    // against a failing disk helps nobody). Siblings are unaffected.
    p->status = io_status;
    return PendingStep::kDone;
  }
  RecordMeta meta;
  ParseRecordHeader(p->buf.data(), &meta);
  meta.control = ControlWord::Sanitize(meta.control);
  if ((meta.flags & kRecordValid) == 0 ||
      p->address < log_.begin_address()) {
    // Compaction reclaimed (or hole-punched) the fetched range while the
    // I/O was in flight; any live version was republished above it first.
    RefetchPending(p);
    return PendingStep::kDone;
  }
  if (meta.key != p->key) {
    // Collision: the chain continues below the fetched record.
    stats_.read_hops.fetch_add(1, std::memory_order_relaxed);
    const Address prev = meta.prev;
    if (prev == kInvalidAddress || prev < log_.begin_address()) {
      p->status = Status::NotFound();
      return PendingStep::kDone;
    }
    if (prev >= p->address || ++p->hops >= kMaxPendingHops) {
      // A chain must strictly descend; anything else (or a degenerate
      // collision chain) goes to the blocking walk.
      RefetchPending(p);
      return PendingStep::kDone;
    }
    p->address = prev;
    return PendingStep::kResubmit;
  }
  if (meta.flags & kRecordTombstone) {
    p->status = Status::NotFound();
    return PendingStep::kDone;
  }
  if (p->tracked && ControlWord::Staleness(meta.control) > p->bound) {
    // The blocking path owns the staleness wait/abort protocol.
    RefetchPending(p);
    return PendingStep::kDone;
  }
  const uint32_t n = meta.value_size < p->cap ? meta.value_size : p->cap;
  if (p->out != nullptr && n > 0) {
    std::memcpy(p->out, p->buf.data() + sizeof(Record), n);
  }
  p->meta = meta;
  p->served_from_disk = true;
  if (p->out != nullptr) {
    CopyReadToTail(p->key, p->buf.data() + sizeof(Record), p->cap, meta,
                   p->tracked, p->chain_head);
  }
  p->status = Status::OK();
  return PendingStep::kDone;
}

void FasterStore::CopyReadToTail(Key key, const void* value, uint32_t cap,
                                 const RecordMeta& meta, bool tracked,
                                 Address chain_head) {
  // A truncated copy would drop the rest of the record (e.g. optimizer
  // state behind the embedding), so only whole values move.
  if (!options_.promote_cold_reads || meta.value_size > cap) return;
  // Carry a tracked read's increment onto the copy.
  uint64_t control = ControlWord::Sanitize(meta.control);
  if (tracked) control = ControlWord::IncrStaleness(control);
  // Best-effort: a lost CAS means a racing writer already superseded the
  // record.
  if (AppendAndPublish(key, value, meta.value_size, control, meta.flags,
                       chain_head, nullptr)
          .ok()) {
    stats_.read_promotions.fetch_add(1, std::memory_order_relaxed);
  }
}

Status FasterStore::PromoteFromPending(const PendingRead& pending) {
  if (!pending.status.ok()) return pending.status;
  if (!pending.served_from_disk || pending.meta.value_size > pending.cap) {
    // A fallback already re-read it (promotion is best-effort) or the
    // landing buffer truncated the value; nothing safe to copy.
    stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  // Same contract as Promote's disk case: original control word and flags
  // carry over — promotion is not an update.
  Status s = AppendAndPublish(
      pending.key, pending.buf.data() + sizeof(Record),
      pending.meta.value_size, ControlWord::Sanitize(pending.meta.control),
      pending.meta.flags, pending.chain_head, nullptr);
  if (s.IsBusy()) {
    // A concurrent update superseded the record in flight; theirs is newer.
    stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  MLKV_RETURN_NOT_OK(s);
  MarkReplaced(pending.address);
  stats_.promotions.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FasterStore::InsertIfAbsent(Key key, const void* value, uint32_t size,
                                   Address expected_head) {
  MLKV_RETURN_NOT_OK(AppendAndPublish(key, value, size,
                                      ControlWord::Make(0, 0), 0,
                                      expected_head, nullptr));
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FasterStore::Upsert(Key key, const void* value, uint32_t size) {
  stats_.upserts.fetch_add(1, std::memory_order_relaxed);
  const bool tracked = options_.track_staleness;
  for (;;) {
    FindResult f;
    MLKV_RETURN_NOT_OK(Find(key, &f));
    if (!f.found) {
      // Fresh insert: generation 0, staleness 0.
      Status s = AppendAndPublish(key, value, size, ControlWord::Make(0, 0),
                                  0, f.chain_head, nullptr);
      if (s.IsBusy()) continue;
      MLKV_RETURN_NOT_OK(s);
      stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    if (f.address < log_.read_only_address() ||
        f.meta.value_size != size || (f.meta.flags & kRecordTombstone)) {
      // RCU: append a new version. A Put only lowers staleness (§III-C1),
      // so it never waits; the new version carries staleness-1, gen+1.
      const uint64_t control = ControlWord::IncrGeneration(
          tracked ? ControlWord::DecrStaleness(f.meta.control)
                  : f.meta.control);
      Status s = AppendAndPublish(key, value, size, control, 0, f.chain_head,
                                  nullptr);
      if (s.IsBusy()) continue;
      MLKV_RETURN_NOT_OK(s);
      MarkReplaced(f.address);
      stats_.rcu_appends.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // Mutable region, same size: in-place update under the record lock.
    // Pin first so the record pointer stays valid (see Read).
    if (!log_.BeginInPlaceWrite(f.address)) continue;  // went cold: RCU
    Record* r = MutableRecord(f.address);
    uint64_t c = r->control.load(std::memory_order_acquire);
    if (ControlWord::Replaced(c)) {
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    if (ControlWord::Locked(c)) {
      log_.EndInPlaceWrite(f.address);
      std::this_thread::yield();
      continue;
    }
    const uint64_t locked = ControlWord::SetLocked(c);
    if (!r->control.compare_exchange_strong(c, locked,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    std::memcpy(r->value(), value, size);
    TransformControl(&r->control, [tracked](uint64_t w) {
      uint64_t n = ControlWord::IncrGeneration(w);
      if (tracked) n = ControlWord::DecrStaleness(n);
      return ControlWord::ClearLocked(n);
    });
    log_.EndInPlaceWrite(f.address);
    stats_.inplace_updates.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
}

Status FasterStore::Rmw(Key key, uint32_t value_size,
                        const std::function<void(char*, uint32_t, bool)>&
                            modifier) {
  stats_.rmws.fetch_add(1, std::memory_order_relaxed);
  const bool tracked = options_.track_staleness;
  std::vector<char> scratch;
  for (;;) {
    FindResult f;
    MLKV_RETURN_NOT_OK(Find(key, &f));
    if (!f.found || (f.meta.flags & kRecordTombstone)) {
      scratch.assign(value_size, 0);
      modifier(scratch.data(), value_size, /*exists=*/false);
      Status s = AppendAndPublish(key, scratch.data(), value_size,
                                  ControlWord::Make(0, 0), 0, f.chain_head,
                                  nullptr);
      if (s.IsBusy()) continue;
      MLKV_RETURN_NOT_OK(s);
      stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    if (f.address >= log_.read_only_address() &&
        f.meta.value_size == value_size) {
      // In-place modify under the record lock; pin first (see Read).
      if (!log_.BeginInPlaceWrite(f.address)) continue;
      Record* r = MutableRecord(f.address);
      uint64_t c = r->control.load(std::memory_order_acquire);
      if (ControlWord::Replaced(c)) {
        log_.EndInPlaceWrite(f.address);
        continue;
      }
      if (ControlWord::Locked(c)) {
        log_.EndInPlaceWrite(f.address);
        std::this_thread::yield();
        continue;
      }
      const uint64_t locked = ControlWord::SetLocked(c);
      if (!r->control.compare_exchange_strong(c, locked,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        log_.EndInPlaceWrite(f.address);
        continue;
      }
      modifier(r->value(), value_size, /*exists=*/true);
      TransformControl(&r->control, [tracked](uint64_t w) {
        uint64_t n = ControlWord::IncrGeneration(w);
        if (tracked) n = ControlWord::DecrStaleness(n);
        return ControlWord::ClearLocked(n);
      });
      log_.EndInPlaceWrite(f.address);
      stats_.inplace_updates.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // Cold record: copy, modify, append (RCU).
    scratch.assign(value_size, 0);
    const uint32_t copy_n =
        f.meta.value_size < value_size ? f.meta.value_size : value_size;
    MLKV_RETURN_NOT_OK(LoadValue(f.address, f.meta, scratch.data(), copy_n));
    modifier(scratch.data(), value_size, /*exists=*/true);
    uint64_t control = ControlWord::IncrGeneration(
        tracked ? ControlWord::DecrStaleness(f.meta.control)
                : f.meta.control);
    Status s = AppendAndPublish(key, scratch.data(), value_size, control, 0,
                                f.chain_head, nullptr);
    if (s.IsBusy()) continue;
    MLKV_RETURN_NOT_OK(s);
    MarkReplaced(f.address);
    stats_.rcu_appends.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
}

Status FasterStore::Delete(Key key) {
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    FindResult f;
    MLKV_RETURN_NOT_OK(Find(key, &f));
    if (!f.found || (f.meta.flags & kRecordTombstone)) {
      return Status::NotFound();
    }
    Status s = AppendAndPublish(key, nullptr, 0,
                                ControlWord::IncrGeneration(f.meta.control),
                                kRecordTombstone, f.chain_head, nullptr);
    if (s.IsBusy()) continue;
    MLKV_RETURN_NOT_OK(s);
    MarkReplaced(f.address);
    return Status::OK();
  }
}

Status FasterStore::Promote(Key key) { return PromoteInternal(key, nullptr); }

Status FasterStore::PromoteInternal(Key key, FindResult* walk) {
  FindResult local;
  FindResult& f = walk != nullptr ? *walk : local;
  for (;;) {
    MLKV_RETURN_NOT_OK(Find(key, &f, /*memory_only=*/walk != nullptr));
    if (f.disk_stop != kInvalidAddress) return Status::OK();  // caller parks
    if (!f.found || (f.meta.flags & kRecordTombstone)) {
      return Status::NotFound();
    }
    if (f.address >= log_.read_only_address()) {
      // Already mutable: nothing to do.
      stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (f.in_memory && options_.skip_promote_if_in_memory) {
      // Paper §III-C2: records in the immutable memory buffer are not
      // copied to the mutable region — it would only re-dirty pages.
      stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    // Copy with the ORIGINAL staleness and value (§III-C2: "a new record
    // with the original staleness and value will be copied into the mutable
    // memory buffer"). Generation is preserved as well: promotion is not an
    // update.
    std::vector<char> value(f.meta.value_size);
    MLKV_RETURN_NOT_OK(
        LoadValue(f.address, f.meta, value.data(), f.meta.value_size));
    Status s = AppendAndPublish(key, value.data(), f.meta.value_size,
                                f.meta.control, f.meta.flags, f.chain_head,
                                nullptr);
    if (s.IsBusy()) {
      // Another thread updated the key concurrently ("no other threads
      // updating it"); their version is newer — skip.
      stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    MLKV_RETURN_NOT_OK(s);
    MarkReplaced(f.address);
    stats_.promotions.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
}

Status FasterStore::ReadRecordAt(Address address, RecordMeta* meta,
                                 std::vector<char>* value) {
  if (address < log_.begin_address() || address >= log_.tail()) {
    return Status::InvalidArgument("address outside the live log");
  }
  bool in_memory = false;
  MLKV_RETURN_NOT_OK(LoadMeta(address, meta, &in_memory));
  meta->control = ControlWord::Sanitize(meta->control);
  if (value != nullptr) {
    value->resize(meta->value_size);
    if (meta->value_size > 0) {
      MLKV_RETURN_NOT_OK(
          LoadValue(address, *meta, value->data(), meta->value_size));
    }
  }
  return Status::OK();
}

Status FasterStore::Compact(Address until, CompactionResult* result) {
  CompactionResult local;
  CompactionResult* r = result != nullptr ? result : &local;
  if (compact_lock_.test_and_set(std::memory_order_acquire)) {
    return Status::Busy("compaction already running");
  }
  struct Release {
    std::atomic_flag* f;
    ~Release() { f->clear(std::memory_order_release); }
  } release{&compact_lock_};

  const Address begin = log_.begin_address();
  if (until > log_.read_only_address()) until = log_.read_only_address();
  if (until <= begin) {
    r->new_begin = begin;
    return Status::OK();  // nothing cold to compact
  }

  // Page-granular scan: records below the read-only boundary are immutable,
  // so each page is snapshotted with one bulk read (seqlock-validated copy
  // when resident, one pread otherwise) and parsed in memory — compaction
  // I/O is then proportional to pages, not records.
  const uint64_t page_size = log_.options().page_size;
  std::vector<char> page(page_size);
  Address a = begin;
  while (a < until) {
    const Address page_start = a & ~(page_size - 1);
    const Address page_end = page_start + page_size;
    // Snapshot the full page remainder: a record may start below `until`
    // but extend past it. Reads past EOF zero-fill, which scans as a gap.
    MLKV_RETURN_NOT_OK(
        log_.ReadRaw(a, page.data() + (a - page_start),
                     static_cast<uint32_t>(page_end - a)));
    while (a < until) {
      // A page remainder too small for a header is always gap fill.
      if (page_end - a < sizeof(Record)) break;
      RecordMeta meta;
      const char* rec = page.data() + (a - page_start);
      ParseRecordHeader(rec, &meta);
      if ((meta.flags & kRecordValid) == 0) {
        // Invalid header: either page-roll gap fill (all zero — skip the
        // rest of the page) or a record retracted after a lost index CAS
        // (header intact, valid bit cleared — skip it in place).
        if (meta.control == 0 && meta.prev == 0 && meta.key == 0 &&
            meta.value_size == 0 && meta.flags == 0) {
          break;
        }
        const Address skip = a + Record::SizeFor(meta.value_size);
        if (skip > page_end) break;  // corrupt remnant: treat as gap
        a = skip;
        continue;
      }
      const Address next = a + Record::SizeFor(meta.value_size);
      if (next > page_end) {
        return Status::Corruption("record overruns its page");
      }
      ++r->scanned;

      // Liveness: the record is live iff the index still resolves its key
      // to exactly this address. Fast path: the slot head IS this address
      // (no chain walk, no I/O) — true for most live records.
      for (;;) {
        Address expected = index()->Load(meta.key);
        if (expected != a) {
          FindResult f;
          MLKV_RETURN_NOT_OK(Find(meta.key, &f));
          if (!f.found || f.address != a) {
            ++r->dead_skipped;
            break;
          }
          expected = f.chain_head;
        }
        if (meta.flags & kRecordTombstone) {
          // Newest version is a tombstone: once begin passes it the key
          // walks off the chain end and reads NotFound, so the tombstone
          // itself need not survive.
          ++r->tombstones_dropped;
          break;
        }
        // A compaction copy is not an update: control word (generation AND
        // staleness) and flags carry over unchanged, like Promote.
        Status s = AppendAndPublish(meta.key, rec + sizeof(Record),
                                    meta.value_size,
                                    ControlWord::Sanitize(meta.control),
                                    meta.flags, expected, nullptr);
        if (s.IsBusy()) continue;  // superseded mid-copy; re-check
        MLKV_RETURN_NOT_OK(s);
        ++r->live_copied;
        break;
      }
      a = next;
    }
    a = page_end;
  }

  MLKV_RETURN_NOT_OK(log_.ShiftBeginAddress(until));
  r->new_begin = until;
  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  stats_.compaction_live_copied.fetch_add(r->live_copied,
                                          std::memory_order_relaxed);
  return Status::OK();
}

Status FasterStore::GrowIndex(uint32_t factor_log2) {
  return index()->Grow(factor_log2);
}

Status FasterStore::MaybeGrowIndex(double max_load) {
  if (max_load <= 0) return Status::InvalidArgument("max_load must be > 0");
  const double live = static_cast<double>(approximate_size());
  uint32_t doublings = 0;
  uint64_t slots = index()->num_slots();
  while (live / static_cast<double>(slots) > max_load && doublings < 16) {
    slots <<= 1;
    ++doublings;
  }
  if (doublings == 0) return Status::OK();
  return index()->Grow(doublings);
}

Status FasterStore::MaybeCompact(uint64_t max_log_bytes,
                                 CompactionResult* result) {
  const Address begin = log_.begin_address();
  const Address tail = log_.tail();
  if (tail - begin <= max_log_bytes) return Status::OK();
  return Compact(log_.read_only_address(), result);
}

bool FasterStore::IsInMemory(Key key) {
  FindResult f;
  if (!Find(key, &f).ok() || !f.found) return false;
  return f.address >= log_.head_address();
}

bool FasterStore::IsLiveVersion(Key key, Address address) {
  FindResult f;
  if (!Find(key, &f).ok() || !f.found) return false;
  return f.address == address;
}

Status FasterStore::Checkpoint(const std::string& prefix) {
  if (options_.checkpoint_mode == CheckpointMode::kIncremental) {
    return CheckpointIncremental(prefix);
  }
  return CheckpointFull(prefix);
}

Status FasterStore::CheckpointFull(const std::string& prefix) {
  MLKV_RETURN_NOT_OK(log_.FlushAll());
  FileDevice meta_dev;
  MLKV_RETURN_NOT_OK(meta_dev.Open(prefix + ".meta"));
  CheckpointMeta meta;
  meta.tail = log_.tail();
  meta.index_slots = index()->num_slots();
  meta.num_inserts = stats_.inserts.load(std::memory_order_relaxed);
  meta.begin = log_.begin_address();
  meta.page_size = options_.page_size;
  MLKV_RETURN_NOT_OK(meta_dev.WriteAt(0, &meta, sizeof(meta)));
  MLKV_RETURN_NOT_OK(meta_dev.Sync());
  FileDevice idx_dev;
  MLKV_RETURN_NOT_OK(idx_dev.Open(prefix + ".idx"));
  MLKV_RETURN_NOT_OK(index()->WriteTo(&idx_dev, 0));
  MLKV_RETURN_NOT_OK(idx_dev.Sync());
  // A full dump supersedes any incremental chain under this prefix.
  ckpt_.prefix = prefix;
  ckpt_.tail = meta.tail;
  ckpt_.deltas = 0;
  ckpt_.index_slots = meta.index_slots;
  return Status::OK();
}

Status FasterStore::CheckpointIncremental(const std::string& prefix) {
  // Incremental flush: only dirty/undurable pages are rewritten (the bytes
  // saving measured by bench_checkpoint), but after Persist the WHOLE log
  // below `tail` is durable, so base and delta checkpoints alike cover it.
  MLKV_RETURN_NOT_OK(log_.Persist());
  const Address tail = log_.tail();
  const bool chained = ckpt_.prefix == prefix &&
                       ckpt_.index_slots == index()->num_slots() &&
                       ckpt_.deltas < kMaxCheckpointDeltas;

  CheckpointMeta meta;
  meta.tail = tail;
  meta.index_slots = index()->num_slots();
  meta.num_inserts = stats_.inserts.load(std::memory_order_relaxed);
  meta.begin = log_.begin_address();
  meta.page_size = options_.page_size;

  if (!chained) {
    // Fresh base: full index dump, zero deltas.
    FileDevice idx_dev;
    MLKV_RETURN_NOT_OK(idx_dev.Open(prefix + ".idx"));
    MLKV_RETURN_NOT_OK(index()->WriteTo(&idx_dev, 0));
    MLKV_RETURN_NOT_OK(idx_dev.Sync());
    meta.delta_count = 0;
  } else {
    // Delta: (word index, word) pairs for index entries whose address
    // moved at or past the previous checkpoint's tail. Publishes only ever
    // install addresses at the then-current tail, so every entry changed
    // since that checkpoint (a new tag included) — and no entry captured by
    // it — satisfies the predicate. The words carry their tags.
    std::vector<uint64_t> pairs;
    const uint64_t n = index()->num_slots();
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t w = index()->LoadWord(i);
      const Address a = HashIndex::AddressOf(w);
      if (a == kInvalidAddress || a < ckpt_.tail) continue;
      pairs.push_back(i);
      pairs.push_back(w);
    }
    meta.delta_count = ckpt_.deltas + 1;
    FileDevice delta_dev;
    MLKV_RETURN_NOT_OK(delta_dev.Open(DeltaPath(prefix, meta.delta_count)));
    const uint64_t count = pairs.size() / 2;
    MLKV_RETURN_NOT_OK(delta_dev.WriteAt(0, &count, sizeof(count)));
    if (!pairs.empty()) {
      MLKV_RETURN_NOT_OK(delta_dev.WriteAt(sizeof(count), pairs.data(),
                                           pairs.size() * sizeof(uint64_t)));
    }
    MLKV_RETURN_NOT_OK(delta_dev.Sync());
  }

  // Commit point: the meta names the base + delta set, and it appears
  // atomically via rename — a crash before this keeps the previous
  // checkpoint fully intact, after it the new chain is complete.
  const std::string tmp = prefix + ".meta.tmp";
  {
    FileDevice meta_dev;
    MLKV_RETURN_NOT_OK(meta_dev.Open(tmp));
    MLKV_RETURN_NOT_OK(meta_dev.WriteAt(0, &meta, sizeof(meta)));
    MLKV_RETURN_NOT_OK(meta_dev.Sync());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, prefix + ".meta", ec);
  if (ec) {
    return Status::IOError("commit checkpoint meta: " + ec.message());
  }
  ckpt_.prefix = prefix;
  ckpt_.tail = tail;
  ckpt_.deltas = meta.delta_count;
  ckpt_.index_slots = meta.index_slots;
  return Status::OK();
}

Status FasterStore::Recover(const FasterOptions& options,
                            const std::string& prefix) {
  options_ = options;
  FileDevice meta_dev;
  MLKV_RETURN_NOT_OK(meta_dev.Open(prefix + ".meta", /*truncate=*/false));
  CheckpointMeta meta;
  MLKV_RETURN_NOT_OK(meta_dev.ReadAt(0, &meta, sizeof(meta)));
  if (meta.magic == kMetaMagicV1 || meta.magic == kMetaMagicV2) {
    return Status::NotSupported(
        "checkpoint meta v1/v2 holds an untagged hash index; this build "
        "recovers only v3 (tagged buckets)");
  }
  if (meta.magic != kMetaMagicV3) {
    return Status::Corruption("bad checkpoint magic");
  }
  if (meta.page_size != 0) options_.page_size = meta.page_size;
  index_.reset(new HashIndex(meta.index_slots));
  FileDevice idx_dev;
  MLKV_RETURN_NOT_OK(idx_dev.Open(prefix + ".idx", /*truncate=*/false));
  MLKV_RETURN_NOT_OK(index()->ReadFrom(idx_dev, 0));
  for (uint64_t k = 1; k <= meta.delta_count; ++k) {
    FileDevice delta_dev;
    MLKV_RETURN_NOT_OK(delta_dev.Open(DeltaPath(prefix, k),
                                      /*truncate=*/false));
    uint64_t count = 0;
    MLKV_RETURN_NOT_OK(delta_dev.ReadAt(0, &count, sizeof(count)));
    std::vector<uint64_t> pairs(count * 2);
    if (count > 0) {
      MLKV_RETURN_NOT_OK(delta_dev.ReadAt(sizeof(count), pairs.data(),
                                          pairs.size() * sizeof(uint64_t)));
    }
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t pos = pairs[2 * i];
      if (pos >= index()->num_slots()) {
        return Status::Corruption("checkpoint delta word out of range");
      }
      index()->StoreWord(pos, pairs[2 * i + 1]);
    }
  }

  MLKV_RETURN_NOT_OK(log_.Open(LogOptions(/*truncate=*/false)));
  stats_.inserts.store(meta.num_inserts, std::memory_order_relaxed);
  Address recovered = meta.tail;
  if (options_.durability_mode == DurabilityMode::kGroup) {
    // Group-committed records past the checkpoint tail are durable without
    // being in any checkpoint; replay them, then cut the file at the last
    // valid record so torn bytes cannot resurface.
    MLKV_RETURN_NOT_OK(ReplayTail(meta.tail, &recovered));
    MLKV_RETURN_NOT_OK(log_.DiscardDiskBeyond(recovered));
  }
  MLKV_RETURN_NOT_OK(log_.RestoreBoundaries(recovered, meta.begin));
  ckpt_.prefix = prefix;
  ckpt_.tail = meta.tail;
  ckpt_.deltas = meta.delta_count;
  ckpt_.index_slots = meta.index_slots;
  return Status::OK();
}

Status FasterStore::ReplayTail(Address from, Address* recovered) {
  struct TailRecord {
    Address addr = kInvalidAddress;
    Address prev = kInvalidAddress;
    Key key = 0;
    uint32_t flags = 0;
    bool published = false;
  };
  std::vector<TailRecord> records;
  const uint64_t page_size = options_.page_size;
  const uint64_t fsize = log_.device()->FileSize();
  Address a = from;
  Address end = from;
  // Forward scan. The header fields parsed here (prev/key/value_size/flags)
  // are written exactly once under the append pin, so any record whose
  // bytes reached disk at all carries them intact; only the frontier where
  // a crash interrupted a page write can be torn, and the scan stops there.
  while (a + sizeof(Record) <= fsize) {
    const uint64_t page_end = (a / page_size + 1) * page_size;
    if (a + sizeof(Record) > page_end) {
      a = page_end;  // record headers never straddle pages
      continue;
    }
    char buf[sizeof(Record)];
    MLKV_RETURN_NOT_OK(log_.ReadDisk(a, buf, sizeof(buf)));
    TailRecord r;
    uint64_t control = 0;
    uint32_t value_size = 0;
    std::memcpy(&control, buf + 0, 8);
    std::memcpy(&r.prev, buf + 8, 8);
    std::memcpy(&r.key, buf + 16, 8);
    std::memcpy(&value_size, buf + 24, 4);
    std::memcpy(&r.flags, buf + 28, 4);
    if (control == 0 && r.prev == 0 && r.key == 0 && value_size == 0 &&
        r.flags == 0) {
      a = page_end;  // page-roll gap: zeroes run to the end of the page
      continue;
    }
    if (value_size > page_size) break;  // torn frontier
    const uint64_t rec_size = Record::SizeFor(value_size);
    if (a + rec_size > page_end) break;  // torn frontier
    if ((r.flags & kRecordValid) != 0) {
      r.addr = a;
      records.push_back(r);
      end = a + rec_size;
    }
    // Records without the valid bit were retracted after a lost index CAS
    // (AppendAndPublish); their sizes are sound, so skip them in place.
    a += rec_size;
  }

  // Republish in passes to a fixpoint: a record goes live only when its
  // prev equals the key's current chain head — exactly the CAS it won in
  // the original run, so replay reconstructs the same publish order even
  // though allocation order (address order) can differ from it.
  bool progress = true;
  while (progress) {
    progress = false;
    for (TailRecord& r : records) {
      if (r.published) continue;
      Address e = index()->Load(r.key);
      if (e != r.prev) continue;
      if (!index()->CompareExchange(r.key, e, r.addr)) continue;
      r.published = true;
      progress = true;
      if ((r.flags & kRecordTombstone) == 0 && r.prev == kInvalidAddress) {
        stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  *recovered = end;
  return Status::OK();
}

FasterStatsSnapshot FasterStore::stats() const {
  FasterStatsSnapshot s;
  s.reads = stats_.reads.load(std::memory_order_relaxed);
  s.upserts = stats_.upserts.load(std::memory_order_relaxed);
  s.rmws = stats_.rmws.load(std::memory_order_relaxed);
  s.deletes = stats_.deletes.load(std::memory_order_relaxed);
  s.inplace_updates = stats_.inplace_updates.load(std::memory_order_relaxed);
  s.rcu_appends = stats_.rcu_appends.load(std::memory_order_relaxed);
  s.inserts = stats_.inserts.load(std::memory_order_relaxed);
  s.promotions = stats_.promotions.load(std::memory_order_relaxed);
  s.promotions_skipped =
      stats_.promotions_skipped.load(std::memory_order_relaxed);
  s.read_promotions = stats_.read_promotions.load(std::memory_order_relaxed);
  s.staleness_waits = stats_.staleness_waits.load(std::memory_order_relaxed);
  s.busy_aborts = stats_.busy_aborts.load(std::memory_order_relaxed);
  s.compactions = stats_.compactions.load(std::memory_order_relaxed);
  s.compaction_live_copied =
      stats_.compaction_live_copied.load(std::memory_order_relaxed);
  s.async_reads_submitted =
      stats_.async_reads_submitted.load(std::memory_order_relaxed);
  s.async_reads_completed =
      stats_.async_reads_completed.load(std::memory_order_relaxed);
  s.async_reads_refetched =
      stats_.async_reads_refetched.load(std::memory_order_relaxed);
  s.read_hops = stats_.read_hops.load(std::memory_order_relaxed);
  const auto& ls = log_.stats();
  s.disk_record_reads = ls.disk_record_reads.load(std::memory_order_relaxed);
  s.pages_flushed = ls.pages_flushed.load(std::memory_order_relaxed);
  s.pages_evicted = ls.pages_evicted.load(std::memory_order_relaxed);
  s.async_writes_submitted =
      ls.async_writes_submitted.load(std::memory_order_relaxed);
  s.async_writes_completed =
      ls.async_writes_completed.load(std::memory_order_relaxed);
  s.fsyncs = ls.fsyncs.load(std::memory_order_relaxed);
  if (const GroupCommitter* gc =
          const_cast<HybridLog&>(log_).committer()) {
    const GroupCommitter::Stats cs = gc->stats();
    s.fsyncs += cs.fsyncs;
    s.group_commits = cs.group_commits;
  }
  return s;
}

void FasterStore::ResetStats() {
  stats_.reads.store(0);
  stats_.upserts.store(0);
  stats_.rmws.store(0);
  stats_.deletes.store(0);
  stats_.inplace_updates.store(0);
  stats_.rcu_appends.store(0);
  stats_.promotions.store(0);
  stats_.promotions_skipped.store(0);
  stats_.read_promotions.store(0);
  stats_.staleness_waits.store(0);
  stats_.busy_aborts.store(0);
  stats_.async_reads_submitted.store(0);
  stats_.async_reads_completed.store(0);
  stats_.async_reads_refetched.store(0);
  stats_.read_hops.store(0);
}

}  // namespace mlkv
