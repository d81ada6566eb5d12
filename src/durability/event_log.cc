// Copyright 2026 The AmnesiaDB Authors

#include "durability/event_log.h"

#include <utility>

#include "amnesia/controller.h"
#include "storage/checkpoint_io.h"

namespace amnesia {

std::vector<uint8_t> EncodeEvent(const Event& event) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U8(static_cast<uint8_t>(event.kind));
  w.U32(event.shard);
  switch (event.kind) {
    case EventKind::kBeginBatch:
    case EventKind::kCompact:
      break;
    case EventKind::kAppendRows:
      w.U64(event.columns.size());
      for (const auto& col : event.columns) w.I64Array(col);
      break;
    case EventKind::kForget:
      w.U64(event.row);
      w.U8(event.backend);
      w.U32(event.payload_col);
      break;
    case EventKind::kScrub:
    case EventKind::kDropPartition:
      w.U64(event.row);
      w.I64(event.value);
      break;
    case EventKind::kRevive:
    case EventKind::kAccess:
      w.U64(event.row);
      break;
  }
  return out;
}

StatusOr<Event> DecodeEvent(const std::vector<uint8_t>& payload) {
  ckpt::Reader r(payload);
  Event event;
  uint8_t kind = 0;
  AMNESIA_RETURN_NOT_OK(r.U8(&kind));
  if (kind < static_cast<uint8_t>(EventKind::kBeginBatch) ||
      kind > static_cast<uint8_t>(EventKind::kDropPartition)) {
    return Status::InvalidArgument("unknown event kind " +
                                   std::to_string(kind));
  }
  event.kind = static_cast<EventKind>(kind);
  AMNESIA_RETURN_NOT_OK(r.U32(&event.shard));
  switch (event.kind) {
    case EventKind::kBeginBatch:
    case EventKind::kCompact:
      break;
    case EventKind::kAppendRows: {
      uint64_t cols = 0;
      AMNESIA_RETURN_NOT_OK(r.U64(&cols));
      if (cols == 0 || cols > 1'000'000) {
        return Status::InvalidArgument("implausible append arity");
      }
      event.columns.resize(static_cast<size_t>(cols));
      for (auto& col : event.columns) {
        AMNESIA_RETURN_NOT_OK(r.I64Array(&col));
        if (col.size() != event.columns[0].size()) {
          return Status::InvalidArgument("ragged append event");
        }
      }
      break;
    }
    case EventKind::kForget:
      AMNESIA_RETURN_NOT_OK(r.U64(&event.row));
      AMNESIA_RETURN_NOT_OK(r.U8(&event.backend));
      AMNESIA_RETURN_NOT_OK(r.U32(&event.payload_col));
      break;
    case EventKind::kScrub:
    case EventKind::kDropPartition:
      AMNESIA_RETURN_NOT_OK(r.U64(&event.row));
      AMNESIA_RETURN_NOT_OK(r.I64(&event.value));
      break;
    case EventKind::kRevive:
    case EventKind::kAccess:
      AMNESIA_RETURN_NOT_OK(r.U64(&event.row));
      break;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after event payload");
  }
  return event;
}

Status ReplayEvent(const Event& event, std::vector<Table>* tables,
                   uint64_t* ingest_cursor, const ReplaySinks& sinks) {
  const size_t n = tables->size();
  if (n == 0) return Status::InvalidArgument("replay needs at least 1 shard");
  switch (event.kind) {
    case EventKind::kBeginBatch:
      // Batches advance in lockstep across shards (ShardedTable::BeginBatch).
      for (Table& t : *tables) t.BeginBatch();
      return Status::OK();
    case EventKind::kAppendRows: {
      if (event.columns.empty() ||
          event.columns.size() != (*tables)[0].num_columns()) {
        return Status::InvalidArgument("append event arity mismatch");
      }
      const size_t rows = event.columns[0].size();
      std::vector<Value> row_values(event.columns.size());
      for (size_t i = 0; i < rows; ++i) {
        Table& t = (*tables)[static_cast<size_t>(*ingest_cursor % n)];
        for (size_t c = 0; c < event.columns.size(); ++c) {
          row_values[c] = event.columns[c][i];
        }
        AMNESIA_RETURN_NOT_OK(t.AppendRow(row_values).status());
        ++*ingest_cursor;
      }
      return Status::OK();
    }
    default:
      break;
  }

  if (event.shard >= n) {
    return Status::InvalidArgument("event addresses shard " +
                                   std::to_string(event.shard) + " of " +
                                   std::to_string(n));
  }
  Table& table = (*tables)[event.shard];
  // Row-addressed events validate before any table access: a log that does
  // not match the restored snapshot (or corruption that survives the frame
  // CRC) must surface as Status, never as an out-of-bounds read. kCompact
  // addresses no row; kDropPartition's `row` is a partition index,
  // validated against the partition table below.
  if (event.kind != EventKind::kCompact &&
      event.kind != EventKind::kDropPartition &&
      event.row >= table.num_rows()) {
    return Status::InvalidArgument("event row " + std::to_string(event.row) +
                                   " out of range for shard " +
                                   std::to_string(event.shard));
  }
  switch (event.kind) {
    case EventKind::kForget: {
      if (event.payload_col >= table.num_columns()) {
        return Status::InvalidArgument("event payload column out of range");
      }
      // Re-route into the tier before flipping the state, exactly like
      // AmnesiaController::ForgetOne captured it.
      const auto backend = static_cast<BackendKind>(event.backend);
      if (backend == BackendKind::kColdStorage && sinks.cold != nullptr) {
        sinks.cold->Put(ColdTuple{event.row,
                                  table.value(event.payload_col, event.row),
                                  table.insert_tick(event.row),
                                  table.batch_of(event.row)});
      } else if (backend == BackendKind::kSummary &&
                 sinks.summaries != nullptr) {
        sinks.summaries->AddForgotten(event.payload_col,
                                      table.batch_of(event.row),
                                      table.value(event.payload_col, event.row));
      }
      return table.Forget(event.row);
    }
    case EventKind::kScrub:
      return table.ScrubRow(event.row, event.value);
    case EventKind::kCompact:
      table.CompactForgotten();
      return Status::OK();
    case EventKind::kRevive:
      return table.Revive(event.row);
    case EventKind::kAccess:
      table.BumpAccess(event.row);
      return Status::OK();
    case EventKind::kDropPartition: {
      if (table.mapped()) {
        // Idempotent: the restored snapshot may already reflect the drop,
        // or the crash may have interrupted it anywhere between the
        // directory rename and the deferred unlink. Unlinking stays
        // deferred to the post-replay cleanup pass.
        return table.DropPartition(static_cast<size_t>(event.row),
                                   /*defer_unlink=*/true)
            .status();
      }
      // Vector-mode fallback (a mapped shard's log replayed into an
      // in-memory table): the drop is a range forget + scrub.
      if (event.value <= 0) {
        return Status::InvalidArgument("drop event without partition size");
      }
      const uint64_t pr = static_cast<uint64_t>(event.value);
      const RowId row_begin = event.row * pr;
      const RowId row_end = row_begin + pr;
      if (row_end > table.num_rows()) {
        return Status::InvalidArgument("drop event past table end");
      }
      for (RowId r = row_begin; r < row_end; ++r) {
        if (table.IsActive(r)) AMNESIA_RETURN_NOT_OK(table.Forget(r));
        AMNESIA_RETURN_NOT_OK(table.ScrubRow(r, 0));
      }
      return Status::OK();
    }
    default:
      return Status::Internal("unhandled event kind");
  }
}

StatusOr<uint64_t> ReplayEvents(const std::vector<Event>& events,
                                uint64_t begin, std::vector<Table>* tables,
                                uint64_t* ingest_cursor,
                                const ReplaySinks& sinks) {
  uint64_t applied = 0;
  for (uint64_t i = begin; i < events.size(); ++i) {
    AMNESIA_RETURN_NOT_OK(ReplayEvent(events[i], tables, ingest_cursor, sinks));
    ++applied;
  }
  return applied;
}

}  // namespace amnesia
