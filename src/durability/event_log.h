// Copyright 2026 The AmnesiaDB Authors
//
// Physical redo log for the durability subsystem. Between two checkpoints
// every table mutation — batched appends, forget-pass outcomes (forget /
// scrub / compaction), revives and access bumps — is recorded as one
// Event; replaying the tail of the log on top of the newest snapshot
// reconstructs the exact pre-crash state. The shape follows KERI's
// append-only key-event-log design (PAPERS.md): an event log plus periodic
// snapshots gives cheap incremental durability and deterministic replay.
//
// The log is *physical*, not logical: it records which rows were
// forgotten, not which policy selected them, so replay needs no policy,
// RNG or oracle state. Events carry (shard, local row) addressing; events
// on different shards commute, so the shard-parallel forget passes may
// interleave their appends — per-shard order is all replay relies on.
//
// This header holds the event codec, replay and the EventSink interface;
// the journal that stores events on disk is SegmentedEventLog
// (durability/log_segments.h).

#ifndef AMNESIA_DURABILITY_EVENT_LOG_H_
#define AMNESIA_DURABILITY_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/cold_store.h"
#include "storage/sharded_table.h"
#include "storage/summary_store.h"
#include "storage/types.h"

namespace amnesia {

/// \brief What a durability event records.
enum class EventKind : uint8_t {
  /// A new update batch started (Table/ShardedTable::BeginBatch).
  kBeginBatch = 1,
  /// Rows were appended through the global round-robin ingest path. The
  /// event carries the column-major payload; `shard` is unused.
  kAppendRows = 2,
  /// One row was forgotten. `backend` records the forgetting backend so
  /// replay can re-route the tuple into a cold/summary tier.
  kForget = 3,
  /// A forgotten row's payload was scrubbed to `value`.
  kScrub = 4,
  /// One shard ran physical compaction (deterministic given its state).
  kCompact = 5,
  /// A forgotten row was revived (explicit cold-storage recovery).
  kRevive = 6,
  /// A row's access count was bumped (rot-policy feedback).
  kAccess = 7,
  /// One shard dropped a whole sealed partition (mapped storage's O(1)
  /// forget): `row` is the partition index, `value` the partition's row
  /// count. Journaled after the partition directory's fsync'd rename to
  /// its `.dropped` name, so whichever of {rename, this record} a crash
  /// keeps, recovery is consistent.
  kDropPartition = 8,
};

/// \brief One redo record.
struct Event {
  EventKind kind = EventKind::kBeginBatch;
  /// Shard the event applies to (0 for unsharded tables; unused by
  /// kAppendRows, which round-robins globally).
  uint32_t shard = 0;
  /// Shard-local row id (kForget / kScrub / kRevive / kAccess) or
  /// partition index (kDropPartition).
  RowId row = 0;
  /// Scrub value (kScrub) or partition row count (kDropPartition).
  Value value = 0;
  /// Forgetting backend that processed the row (kForget), as the
  /// underlying BackendKind integer.
  uint8_t backend = 0;
  /// Column the backend preserved (kForget with cold/summary backends).
  uint32_t payload_col = 0;
  /// Column-major appended payload (kAppendRows).
  std::vector<std::vector<Value>> columns;
};

/// \brief Serializes one event into a self-delimiting byte payload.
std::vector<uint8_t> EncodeEvent(const Event& event);

/// \brief Decodes one event payload (InvalidArgument on corruption).
StatusOr<Event> DecodeEvent(const std::vector<uint8_t>& payload);

/// \brief Where forget events are re-routed during replay. Null members
/// simply skip the corresponding tier (the table state is always redone).
struct ReplaySinks {
  ColdStore* cold = nullptr;
  SummaryStore* summaries = nullptr;
};

/// \brief Applies one event to a recovering table. `tables` are the
/// restored shards in shard order; `ingest_cursor` is the global
/// round-robin position (rows ever appended) and is advanced by
/// kAppendRows events.
Status ReplayEvent(const Event& event, std::vector<Table>* tables,
                   uint64_t* ingest_cursor,
                   const ReplaySinks& sinks = ReplaySinks());

/// \brief Replays events[begin..] in order. Returns the number applied.
StatusOr<uint64_t> ReplayEvents(const std::vector<Event>& events,
                                uint64_t begin, std::vector<Table>* tables,
                                uint64_t* ingest_cursor,
                                const ReplaySinks& sinks = ReplaySinks());

/// \brief Minimal interface mutators emit events through — lets
/// amnesia/ controllers journal forget outcomes without depending on the
/// file-backed log.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Appends one event. Thread-safe: shard-parallel forget passes emit
  /// concurrently.
  virtual Status Append(const Event& event) = 0;
  /// Makes everything appended so far durable (write-ahead barrier).
  /// Mutators whose side effects outlive the process — scrubbing a mapped
  /// partition file, dropping a partition — flush their journal records
  /// BEFORE applying the effect, so a crash can never leave an effect on
  /// disk whose record was lost. Default: no-op (in-memory sinks).
  virtual Status Flush() { return Status::OK(); }
};

/// \brief On-disk layout of the event log. Segment files compacted by
/// unlinking sealed segments wholly below the truncation LSN
/// (SegmentedEventLog, durability/log_segments.h) is the only layout; the
/// `log_format` fields that carry this enum select nothing.
enum class LogFormat : uint8_t {
  kSegmented = 1,
};

/// \brief When appended frames are pushed from the stdio buffer to the
/// page cache. The append path never fsyncs — both policies bound the
/// loss window to frames a crashed *process* had not flushed, which the
/// torn-tail-tolerant reader already handles; group commit merely widens
/// that window from one event to one batch in exchange for not paying a
/// flush per event.
struct SyncPolicy {
  enum class Kind : uint8_t {
    kEveryAppend = 0,  ///< Flush after each event.
    kGroupCommit = 1,  ///< Flush after N events or after an interval.
  };
  Kind kind = Kind::kEveryAppend;
  /// Group commit: flush once this many events are pending.
  uint32_t group_events = 64;
  /// Group commit: flush when the oldest pending event is older than
  /// this, checked at the next append (0 disables the age trigger).
  double group_interval_ms = 5.0;

  static SyncPolicy EveryAppend() { return SyncPolicy{}; }
  static SyncPolicy GroupCommit(uint32_t events, double interval_ms) {
    SyncPolicy p;
    p.kind = Kind::kGroupCommit;
    p.group_events = events;
    p.group_interval_ms = interval_ms;
    return p;
  }
};

class SegmentedEventLog;

/// \brief The journal type the durability subsystem programs against
/// (checkpointer retention GC, simulator, audit LSN stamping). The
/// segmented log is its one implementation.
using EventLogBase = SegmentedEventLog;

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_EVENT_LOG_H_
