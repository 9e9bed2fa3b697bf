#include "kv/update_log.h"

#include <algorithm>

#include "kv/faster_store.h"
#include "kv/log_iterator.h"

namespace mlkv {

UpdateLogCursor::UpdateLogCursor(FasterStore* store, Address from,
                                 Address until)
    : store_(store),
      position_(from != 0 ? from : store->log().begin_address()),
      until_(until) {}

UpdateLogCursor::~UpdateLogCursor() = default;

bool UpdateLogCursor::Next(UpdateEntry* out) {
  if (!status_.ok()) return false;
  if (position_ < store_->log().begin_address()) {
    status_ = Status::Corruption("update-log position compacted away");
    return false;
  }
  if (it_ == nullptr || !it_->Valid()) {
    // (Re)open the scan window up to the current durable watermark (capped
    // at `until_`). The watermark only moves forward, so a stale window
    // just ends early and the next call picks up the growth.
    const Address durable = std::min(store_->durable_address(), until_);
    if (position_ >= durable) return false;  // caught up
    if (it_ == nullptr || durable > window_end_) {
      it_ = std::make_unique<LogIterator>(store_, position_, durable);
      window_end_ = durable;
    }
    if (!it_->Valid()) {
      status_ = it_->status();  // OK: window was all gap fill — caught up
      position_ = window_end_;
      return false;
    }
  }
  const RecordMeta& meta = it_->meta();
  out->address = it_->address();
  out->key = meta.key;
  out->generation = ControlWord::Generation(meta.control);
  out->staleness = ControlWord::Staleness(meta.control);
  out->tombstone = (meta.flags & kRecordTombstone) != 0;
  out->value = it_->value();
  position_ = it_->address() + Record::SizeFor(meta.value_size);
  it_->Next();
  return true;
}

}  // namespace mlkv
