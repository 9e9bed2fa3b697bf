// UpdateLog: a tailable cursor over a store's committed updates.
//
// The hybrid log doubles as a change feed: every Upsert/Rmw/Delete appends
// (or, for in-place updates, rewrites) a record in address order, and the
// durable watermark (HybridLog::durable_address) marks how far that history
// is crash-safe. UpdateLogCursor exposes the prefix below the watermark as
// a resumable stream — the primitive behind `mlkv_cli tail` and any
// follower that wants to replicate or audit committed state:
//
//   UpdateLogCursor cur(store, /*from=*/0);
//   UpdateEntry e;
//   while (cur.Next(&e)) { consume(e); }
//   // caught up: call cur.Next() again after the next Persist/FlushAll
//   // and it continues from where it stopped.
//
// Entries are record images in log-address order: inserts, RCU updates,
// compaction re-copies, promotions, and tombstones all appear (the cursor
// does not collapse history — that is the consumer's job); records
// retracted after a lost index CAS never do. In-place value updates do NOT
// append a new entry — consumers needing every write see them only via the
// bumped generation the next time the record is re-appended. The cursor
// never yields addresses at or above the durable watermark, so everything
// it returns survives a crash.
//
// Bounds: a cursor must not lag behind compaction (entries below the begin
// address are gone; Next reports Status::Corruption via status() when the
// position was truncated away). Single-threaded per cursor; different
// cursors are independent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "kv/record.h"

namespace mlkv {

class FasterStore;
class LogIterator;

// One committed update.
struct UpdateEntry {
  Address address = kInvalidAddress;  // where the record lives in the log
  Key key = 0;
  uint32_t generation = 0;   // from the control word at read time
  uint32_t staleness = 0;
  bool tombstone = false;
  std::vector<char> value;   // empty for tombstones
};

class UpdateLogCursor {
 public:
  // Starts at `from` (0 = the store's begin address, i.e. the oldest
  // retained update). With concurrent writers, pass as `until` the boundary
  // HybridLog::SealMutableRegion returned: the durable watermark can run
  // past it into the mutable region, whose records may still be rewritten
  // in place after the cursor has yielded them.
  explicit UpdateLogCursor(FasterStore* store, Address from = 0,
                           Address until = UINT64_MAX);
  ~UpdateLogCursor();

  UpdateLogCursor(const UpdateLogCursor&) = delete;
  UpdateLogCursor& operator=(const UpdateLogCursor&) = delete;

  // Yields the next committed entry, advancing the cursor past it. Returns
  // false when caught up with the durable watermark (tail by calling again
  // later) or on error — distinguish via status().
  bool Next(UpdateEntry* out);

  // Resume position: the address the next entry is read from. Feed it to a
  // new cursor's `from` to continue a stream across processes.
  Address position() const { return position_; }

  // OK unless the scan hit an I/O error or the position was compacted away.
  const Status& status() const { return status_; }

 private:
  FasterStore* store_;
  Address position_;
  const Address until_;
  // Snapshot iterator for the current [position_, durable) window; renewed
  // whenever the watermark has advanced past it.
  std::unique_ptr<LogIterator> it_;
  Address window_end_ = 0;
  Status status_;
};

}  // namespace mlkv
