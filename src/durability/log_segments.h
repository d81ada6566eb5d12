// Copyright 2026 The AmnesiaDB Authors
//
// Segmented event log: the durability subsystem's journal. Events are
// EncodeEvent payloads in a SegmentedRecordLog (durability/
// segmented_record_log.h), whose sequence numbers are the LSNs a
// checkpoint manifest's covered position refers to. Compaction is O(1)
// and concurrent with appends: TruncateBefore unlinks the sealed segment
// files wholly below the covered LSN — the retention strategy production
// time-series stores use for expiry.
//
// Directory layout (`dir` is dedicated to one log):
//   <dir>/log-<base_lsn>.seg    events [base_lsn, next segment's base)
//
// Recovery (ReadSegmentedLogContents) reads the valid prefix of the
// segment chain: a torn tail in the newest segment is dropped (the
// expected crash artifact), a corrupt middle segment ends the prefix at
// its last good frame, and segments left behind by a crash between a
// checkpoint's GC and its unlink pass are read normally (replay starts at
// the manifest's covered LSN anyway).

#ifndef AMNESIA_DURABILITY_LOG_SEGMENTS_H_
#define AMNESIA_DURABILITY_LOG_SEGMENTS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "durability/event_log.h"
#include "durability/segmented_record_log.h"

namespace amnesia {

/// \brief The journal's segment files: log-<base>.seg, magic "ASEG".
/// Version 2 added the header's extension slot.
inline constexpr SegmentFormat kJournalSegmentFormat{
    "log-", 0x47455341, /*version=*/2};

/// \brief Tuning for a SegmentedEventLog.
struct SegmentedLogOptions {
  /// Roll to a fresh segment once the active file reaches this size.
  /// Smaller segments truncate at a finer grain but cost more files.
  uint64_t max_segment_bytes = 4u << 20;
  /// When appended frames reach the page cache.
  SyncPolicy sync;
};

/// \brief The event journal: appends, explicit flush (group-commit
/// barriers at batch/checkpoint boundaries), LSN accounting and prefix
/// truncation. See the file comment for the on-disk contract.
class SegmentedEventLog : public EventSink {
 public:
  /// Opens a fresh log in `dir` (created if missing); any segment files
  /// from a previous instance are removed first.
  static StatusOr<SegmentedEventLog> Open(
      const std::string& dir, const SegmentedLogOptions& options = {});

  /// Re-opens an existing log for appending: scans the segments,
  /// physically truncates a torn tail (and unlinks segments past a
  /// mid-chain break) BEFORE new appends land, and resumes in the newest
  /// segment. NotFound when the directory holds no log.
  static StatusOr<SegmentedEventLog> OpenForAppend(
      const std::string& dir, const SegmentedLogOptions& options = {});

  /// Appends one event to the active segment, rolling first when the
  /// size threshold is reached. Thread-safe; flushes per the sync policy.
  Status Append(const Event& event) override;

  /// Pushes every appended frame to the page cache. Called at batch and
  /// checkpoint boundaries under group commit.
  Status Flush() override;

  /// Discards every event with LSN < `lsn` by unlinking the sealed
  /// segments wholly below it (see SegmentedRecordLog::TruncateBefore).
  /// Crash-atomic per segment, LSN-stable and concurrent with Append.
  Status TruncateBefore(uint64_t lsn);

  /// Returns the LSN the next event will get (== events ever appended).
  uint64_t next_lsn() const;
  /// Returns the LSN of the oldest retained event.
  uint64_t base_lsn() const;
  /// Returns the number of live segment files (sealed + active).
  uint64_t num_segments() const;
  /// Returns how many segments TruncateBefore has unlinked in total.
  uint64_t segments_unlinked() const;
  /// Returns the directory the segments live in.
  const std::string& dir() const { return log_->dir(); }

 private:
  SegmentedEventLog(std::unique_ptr<SegmentedRecordLog> log,
                    const SyncPolicy& sync)
      : log_(std::move(log)), sync_(sync) {}

  std::unique_ptr<SegmentedRecordLog> log_;
  SyncPolicy sync_;
  // Group commit; guarded by log_->mutex().
  uint32_t pending_flush_ = 0;  ///< Frames written since the last flush.
  std::chrono::steady_clock::time_point oldest_pending_;
};

/// \brief What ReadSegmentedLogContents returns: the retained events plus
/// the LSN of the first. events[i] has LSN base_lsn + i.
struct EventLogContents {
  uint64_t base_lsn = 0;
  std::vector<Event> events;

  /// Returns the LSN one past the last retained event.
  uint64_t next_lsn() const { return base_lsn + events.size(); }
};

/// \brief Reads the valid prefix of a segmented log directory (see the
/// file comment for what ends the prefix). NotFound when `dir` does not
/// exist or holds no segment with a valid header; InvalidArgument when it
/// exists but is not a directory, or when its oldest segment is corrupt.
StatusOr<EventLogContents> ReadSegmentedLogContents(const std::string& dir);

/// \brief The canonical event-log location under a checkpoint directory:
/// `<dir>/events.segs`. The one place the convention lives — the
/// simulator, demo and benches all derive the path Recover() takes from
/// here. `format` selects nothing: the segmented layout is the only one.
std::string EventLogPathFor(const std::string& checkpoint_dir,
                            LogFormat format = LogFormat::kSegmented);

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_LOG_SEGMENTS_H_
