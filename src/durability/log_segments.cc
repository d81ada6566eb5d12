// Copyright 2026 The AmnesiaDB Authors

#include "durability/log_segments.h"

#include <utility>

#include "obs/engine_metrics.h"

namespace amnesia {

namespace {

/// Accounts one durability barrier: the flush always counts; the batch
/// size is only recorded when appends were actually covered (an explicit
/// barrier with nothing pending is a zero-size batch and would skew the
/// distribution).
void NoteLogFlush(uint32_t batch_size) {
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  m.log_fsyncs->Inc();
  if (batch_size > 0) m.log_batch_size->Record(batch_size);
}

/// Accounts one just-written frame against `pending`/`oldest` and returns
/// true when the policy wants a flush now (always, under every-append).
bool ShouldFlushAfterAppend(const SyncPolicy& sync, uint32_t* pending,
                            std::chrono::steady_clock::time_point* oldest) {
  if (sync.kind != SyncPolicy::Kind::kGroupCommit) return true;
  if (*pending == 0) *oldest = std::chrono::steady_clock::now();
  ++*pending;
  if (*pending >= sync.group_events) return true;
  if (sync.group_interval_ms <= 0.0) return false;
  const double age_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - *oldest)
                            .count();
  return age_ms >= sync.group_interval_ms;
}

/// Rejects CRC-clean frames that do not decode as events.
SegmentVisitor EventVisitor(std::vector<Event>* events) {
  SegmentVisitor visitor;
  visitor.record = [events](uint64_t, const std::vector<uint8_t>& payload) {
    StatusOr<Event> event = DecodeEvent(payload);
    if (!event.ok()) return event.status();
    if (events != nullptr) events->push_back(std::move(event).value());
    return Status::OK();
  };
  return visitor;
}

}  // namespace

StatusOr<SegmentedEventLog> SegmentedEventLog::Open(
    const std::string& dir, const SegmentedLogOptions& options) {
  AMNESIA_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentedRecordLog> log,
      SegmentedRecordLog::Open(dir, kJournalSegmentFormat,
                               options.max_segment_bytes));
  return SegmentedEventLog(std::move(log), options.sync);
}

StatusOr<SegmentedEventLog> SegmentedEventLog::OpenForAppend(
    const std::string& dir, const SegmentedLogOptions& options) {
  // Every frame is decoded (chain validity depends on it), but the events
  // are not kept: the retained stream of a large log is an O(total
  // events) allocation the appender never needs.
  AMNESIA_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentedRecordLog> log,
      SegmentedRecordLog::OpenForAppend(dir, kJournalSegmentFormat,
                                        options.max_segment_bytes,
                                        EventVisitor(nullptr)));
  return SegmentedEventLog(std::move(log), options.sync);
}

Status SegmentedEventLog::Append(const Event& event) {
  const std::vector<uint8_t> payload = EncodeEvent(event);
  std::lock_guard<std::mutex> lock(log_->mutex());
  bool rolled = false;
  const Status appended = log_->AppendLocked(payload, 0, &rolled);
  if (rolled) {
    // The seal barrier drained whatever group-commit batch was filling.
    NoteLogFlush(pending_flush_);
    pending_flush_ = 0;
  }
  AMNESIA_RETURN_NOT_OK(appended);
  obs::EngineMetrics::Get().log_appends->Inc();
  if (!ShouldFlushAfterAppend(sync_, &pending_flush_, &oldest_pending_)) {
    return Status::OK();  // the batch is still filling
  }
  AMNESIA_RETURN_NOT_OK(log_->FlushLocked());
  // pending_flush_ stays 0 under every-append sync; that is a batch of 1.
  NoteLogFlush(pending_flush_ == 0 ? 1 : pending_flush_);
  pending_flush_ = 0;
  return Status::OK();
}

Status SegmentedEventLog::Flush() {
  std::lock_guard<std::mutex> lock(log_->mutex());
  AMNESIA_RETURN_NOT_OK(log_->FlushLocked());
  NoteLogFlush(pending_flush_);
  pending_flush_ = 0;
  return Status::OK();
}

Status SegmentedEventLog::TruncateBefore(uint64_t lsn) {
  AMNESIA_ASSIGN_OR_RETURN(const uint64_t unlinked,
                           log_->TruncateBefore(lsn));
  if (unlinked > 0) obs::EngineMetrics::Get().log_truncations->Inc();
  return Status::OK();
}

uint64_t SegmentedEventLog::next_lsn() const { return log_->next_seq(); }

uint64_t SegmentedEventLog::base_lsn() const { return log_->base_seq(); }

uint64_t SegmentedEventLog::num_segments() const {
  return log_->num_segments();
}

uint64_t SegmentedEventLog::segments_unlinked() const {
  return log_->segments_unlinked();
}

StatusOr<EventLogContents> ReadSegmentedLogContents(const std::string& dir) {
  EventLogContents contents;
  AMNESIA_ASSIGN_OR_RETURN(SegmentScan scan,
                           ScanSegments(dir, kJournalSegmentFormat,
                                        EventVisitor(&contents.events)));
  if (scan.chain.empty()) {
    if (scan.end == SegmentScan::Break::kBadContent) {
      return Status::InvalidArgument("corrupt event log: " + scan.detail);
    }
    return Status::NotFound("no usable segment in '" + dir + "'");
  }
  contents.base_lsn = scan.base_seq();
  return contents;
}

std::string EventLogPathFor(const std::string& checkpoint_dir,
                            LogFormat /*format*/) {
  return checkpoint_dir + "/events.segs";
}

}  // namespace amnesia
