// Copyright 2026 The AmnesiaDB Authors
//
// The one append-only file format under the event journal
// (durability/log_segments.h) and the forgetting audit ledger
// (amnesia/audit_ledger.h): CRC-framed records striped across segment
// files in a directory dedicated to one log. Records are numbered by a
// contiguous sequence number (the journal calls it LSN, the ledger seq)
// that survives truncation.
//
// Directory layout:
//   <dir>/<prefix><base>.seg    records [base, next segment's base)
//
// Each segment opens with a self-describing header
//   [u32 magic][u32 version][u64 base][u32 extension][u32 header CRC]
// followed by ordinary [len|crc|payload] frames (frame_io.h). The base
// lives in the header, so sequence addressing never depends on decoding a
// record; the extension slot is the client's (the ledger stores its
// chain seed there, the journal leaves it 0).
//
// Appends go to the newest ("active") segment. Once the active segment
// has reached the size threshold and holds a record, the next append
// first seals it — flush, fsync, close — and opens a fresh one. A failed
// seal closes the log for good: a retried fsync can report success after
// the kernel dropped the dirty pages, so every later append fails
// instead. TruncateBefore(seq) splices sealed segments wholly below `seq`
// out of the index under the mutex and unlinks them outside it, oldest
// first; a segment `seq` lands inside is kept whole.
//
// A scan (ScanSegments) walks the segments in base order and stops at the
// first break in the chain, saying what the break was: a torn tail — a
// partial frame at the end of the newest segment, or a header that never
// finished in a freshly rolled one — is the expected crash artifact; any
// other break (a corrupt sealed segment, a base gap, a CRC-valid record
// the client rejects) is bad content. OpenForAppend repairs what a scan
// found before new records land: it truncates the chain's last segment to
// its valid prefix and unlinks every segment past the break.

#ifndef AMNESIA_DURABILITY_SEGMENTED_RECORD_LOG_H_
#define AMNESIA_DURABILITY_SEGMENTED_RECORD_LOG_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace amnesia {

/// \brief What distinguishes one client's segment files from another's.
struct SegmentFormat {
  const char* prefix;  ///< File name prefix: segments are <prefix><base>.seg.
  uint32_t magic;      ///< Header magic.
  uint32_t version;    ///< Header format version.
};

/// \brief One segment of a scanned chain.
struct ScannedSegment {
  std::string path;
  uint64_t base = 0;         ///< Sequence number of the first record.
  uint32_t extension = 0;    ///< The header's client slot.
  uint64_t count = 0;        ///< Records adopted into the chain.
  uint64_t valid_bytes = 0;  ///< Header + adopted frames.
  uint64_t file_bytes = 0;   ///< Size on disk.
};

/// \brief Everything a directory scan learns about a segmented log.
struct SegmentScan {
  enum class Break : uint8_t {
    kNone,        ///< Every segment file is part of the chain.
    kTornTail,    ///< The expected crash artifact at the newest segment.
    kBadContent,  ///< Corruption, a base gap or a rejected record.
  };
  /// The contiguous valid chain, oldest first.
  std::vector<ScannedSegment> chain;
  /// Segment files past the break; readers ignore them.
  std::vector<std::string> orphans;
  Break end = Break::kNone;
  std::string detail;  ///< What broke the chain (empty when kNone).

  uint64_t base_seq() const { return chain.empty() ? 0 : chain.front().base; }
  uint64_t next_seq() const {
    return chain.empty() ? 0 : chain.back().base + chain.back().count;
  }
};

/// \brief Client checks a scan runs while it walks the chain. A non-OK
/// status ends the chain as bad content, with the status message as the
/// detail: `segment` rejects a whole segment (it is not adopted),
/// `record` rejects one CRC-valid frame and everything after it. Either
/// may be empty.
struct SegmentVisitor {
  std::function<Status(const ScannedSegment& segment)> segment;
  std::function<Status(uint64_t seq, const std::vector<uint8_t>& payload)>
      record;
};

/// \brief Scans the segment files of `dir` (see the file comment).
/// NotFound when `dir` is missing or holds no segment file;
/// InvalidArgument when it exists but is not a directory.
StatusOr<SegmentScan> ScanSegments(const std::string& dir,
                                   const SegmentFormat& format,
                                   const SegmentVisitor& visitor = {});

/// \brief Appender over one segment directory. Not movable: clients hold
/// it by pointer. Appends run under mutex(), which clients hold across
/// their own per-record state (sequence stamping, group commit);
/// TruncateBefore and the accessors lock it themselves.
class SegmentedRecordLog {
 public:
  /// Starts a fresh log in `dir` (created if missing): removes every
  /// segment file a previous instance left, then opens segment 0 with
  /// `extension` in its header.
  static StatusOr<std::unique_ptr<SegmentedRecordLog>> Open(
      const std::string& dir, const SegmentFormat& format,
      uint64_t max_segment_bytes, uint32_t extension = 0);

  /// Scans `dir` with `visitor`, repairs it (truncates the torn or
  /// corrupt tail of the chain's last segment, unlinks the segments past
  /// the break) and resumes appending in the chain's last segment.
  /// Touches nothing when no segment joins the chain: NotFound when the
  /// directory holds no segment or only a torn first header,
  /// InvalidArgument when the oldest segment is corrupt.
  static StatusOr<std::unique_ptr<SegmentedRecordLog>> OpenForAppend(
      const std::string& dir, const SegmentFormat& format,
      uint64_t max_segment_bytes, const SegmentVisitor& visitor = {});

  ~SegmentedRecordLog();
  SegmentedRecordLog(const SegmentedRecordLog&) = delete;
  SegmentedRecordLog& operator=(const SegmentedRecordLog&) = delete;

  /// The append mutex; hold it across the *Locked calls.
  std::mutex& mutex() const { return mu_; }

  /// Writes one frame to the active segment, first rolling to a fresh
  /// segment (whose header carries `roll_extension`) when the active one
  /// has reached the size threshold and holds a record. Sets `*rolled`
  /// when it rolled. The frame stays in the stdio buffer until
  /// FlushLocked. Caller holds mutex().
  Status AppendLocked(const std::vector<uint8_t>& payload,
                      uint32_t roll_extension, bool* rolled = nullptr);
  /// Pushes buffered frames to the page cache. Caller holds mutex().
  Status FlushLocked();
  /// Sequence number the next record gets. Caller holds mutex().
  uint64_t next_seq_locked() const { return active_base_ + active_count_; }

  /// Unlinks every sealed segment wholly below `seq` and returns how many
  /// it unlinked. Appenders wait only for the index splice, never for the
  /// unlinks; truncations serialize among themselves so unlinks run
  /// oldest first. If an unlink fails, the segments not yet unlinked go
  /// back into the index, so a later truncation retries them instead of
  /// leaving a base gap. Rejects `seq` beyond next_seq().
  StatusOr<uint64_t> TruncateBefore(uint64_t seq);

  uint64_t next_seq() const;
  /// Oldest sequence number still on disk.
  uint64_t base_seq() const;
  /// Live segment files (sealed + active).
  uint64_t num_segments() const;
  /// Segments TruncateBefore has unlinked in total.
  uint64_t segments_unlinked() const;
  const std::string& dir() const { return dir_; }

 private:
  SegmentedRecordLog(std::string dir, const SegmentFormat& format,
                     uint64_t max_segment_bytes);

  /// Creates the segment at `base` and writes its header; on failure the
  /// log stays closed. Caller holds mu_ (or owns the log exclusively).
  Status StartSegmentLocked(uint64_t base, uint32_t extension);
  /// Seals the active segment and starts the next one. Caller holds mu_.
  Status RollLocked(uint32_t extension);
  /// Closes the active segment after a failed write; later appends fail.
  void CloseLocked();

  struct Sealed {
    uint64_t base = 0;   ///< Sequence number of the segment's first record.
    uint64_t count = 0;  ///< Records it holds.
    std::string path;
  };

  mutable std::mutex mu_;
  /// Serializes TruncateBefore calls end to end (including the unlinks
  /// that run outside mu_): interleaved truncations could otherwise
  /// unlink newer segments before older ones, and a crash in that window
  /// would leave a base gap that recovery reads as the end of the chain.
  /// Always acquired before mu_, never the other way.
  std::mutex truncate_mu_;
  const std::string dir_;
  const SegmentFormat format_;
  const uint64_t max_segment_bytes_;
  std::deque<Sealed> sealed_;  ///< Oldest first; contiguous up to active.
  uint64_t active_base_ = 0;
  uint64_t active_count_ = 0;
  uint64_t active_bytes_ = 0;
  std::string active_path_;
  std::FILE* active_ = nullptr;
  uint64_t unlinked_total_ = 0;
};

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_SEGMENTED_RECORD_LOG_H_
