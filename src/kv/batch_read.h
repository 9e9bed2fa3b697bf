// BatchReadOrPark: the shared phase-1 body of every batched read op
// (EmbeddingTable gets/peeks, FasterBackend::MultiGet). One place owns the
// sync-vs-pipeline split and the miss-bootstrap contract:
//
//  * null `sink` — resolve synchronously (the blocking path);
//  * memory-resident or absent key — resolve inline either way;
//  * disk-resident key — park a primed PendingRead on the wave, with the
//    same outcome handling deferred to its finish callback.
//
// `init_record_bytes` (0 for plain reads) bootstraps absent keys: the row
// gets the deterministic initial embedding and a record of that many bytes
// is stored (see InitMissingRow); the key then records as initialized
// (code kOk, counted missing).
#pragma once

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/batch_result.h"
#include "common/simd.h"
#include "kv/faster_store.h"
#include "kv/pending_read.h"
#include "mlkv/embedding_init.h"

namespace mlkv {

// Bootstraps absent `key`: `dst` (dim floats) gets InitEmbedding's vector,
// stored as a record of `record_bytes` (the embedding, then all-zero
// optimizer state — the correct initial value for every kind).
// `chain_head`, when known, is the slot head of the walk that found the key
// absent: the insert goes in against it with no second walk. If the slot
// moved since (or the head is unknown), Rmw decides, so racing initializers
// never double-insert: the first one wins and the others adopt its row.
inline Status InitMissingRow(FasterStore* shard, Key key, float* dst,
                             uint32_t dim, uint32_t record_bytes,
                             const Address* chain_head) {
  InitEmbedding(key, dim, dst);
  if (chain_head != nullptr) {
    const uint32_t emb_bytes = dim * sizeof(float);
    std::vector<char> record;
    const void* value = dst;
    if (record_bytes > emb_bytes) {
      record.assign(record_bytes, 0);
      std::memcpy(record.data(), dst, emb_bytes);
      value = record.data();
    }
    const Status s =
        shard->InsertIfAbsent(key, value, record_bytes, *chain_head);
    if (!s.IsBusy()) return s;
  }
  return shard->Rmw(key, record_bytes,
                    [dst, dim](char* value, uint32_t, bool exists) {
                      float* row = reinterpret_cast<float*>(value);
                      if (!exists) {
                        simd::CopyFloats(row, dst, dim);
                      } else {
                        simd::CopyFloats(dst, row, dim);
                      }
                    });
}

inline void BatchReadOrPark(FasterStore* shard, Key key, float* dst,
                            uint32_t dim, uint32_t bound, bool tracked,
                            BatchResult* part, size_t part_index,
                            PendingSink* sink,
                            uint32_t init_record_bytes = 0) {
  const uint32_t cap = dim * sizeof(float);
  const auto resolve = [=](const Status& s, const Address* chain_head) {
    if (!s.IsNotFound() || init_record_bytes == 0) {
      part->Record(part_index, s);
      return;
    }
    const Status init =
        InitMissingRow(shard, key, dst, dim, init_record_bytes, chain_head);
    if (init.ok()) {
      part->RecordInitialized(part_index);
    } else {
      part->Record(part_index, init);
    }
  };
  if (sink == nullptr) {
    resolve(tracked ? shard->Read(key, dst, cap, nullptr, bound)
                    : shard->Peek(key, dst, cap),
            nullptr);
    return;
  }
  std::unique_ptr<PendingRead> pending;
  Address chain_head = kInvalidAddress;
  const Status s =
      shard->StartRead(key, dst, cap, bound, tracked, &pending, &chain_head);
  if (pending == nullptr) {
    resolve(s, &chain_head);
    return;
  }
  sink->Park(shard, std::move(pending), [resolve](PendingRead* done) {
    resolve(done->status, &done->chain_head);
  });
}

}  // namespace mlkv
