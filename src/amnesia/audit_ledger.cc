// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/audit_ledger.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "storage/checkpoint_io.h"

namespace amnesia {

namespace {

/// What a walk of the ledger's hash chain found.
struct LedgerScan {
  SegmentScan segments;
  /// Records across the chain, in seq order.
  std::vector<AuditRecord> records;
  /// Frame CRC of the newest adopted record (the first segment's chain
  /// seed when the chain holds no records).
  uint32_t chain_crc = 0;
};

/// Checks the hash chain while a scan walks the segments: the first
/// segment's seed starts the chain (retention may have unlinked what came
/// before it), every later seed must equal the running CRC, and every
/// record must carry its position as seq and its predecessor's frame CRC
/// as prev_crc. A mismatch ends the chain as bad content.
SegmentVisitor ChainVisitor(LedgerScan* scan) {
  SegmentVisitor visitor;
  visitor.segment = [scan, first = true](
                        const ScannedSegment& segment) mutable -> Status {
    if (first) {
      first = false;
      scan->chain_crc = segment.extension;
    } else if (segment.extension != scan->chain_crc) {
      return Status::InvalidArgument(
          "segment at seq " + std::to_string(segment.base) +
          " has chain seed " + std::to_string(segment.extension) +
          ", expected " + std::to_string(scan->chain_crc));
    }
    return Status::OK();
  };
  visitor.record = [scan](uint64_t seq,
                          const std::vector<uint8_t>& payload) -> Status {
    AuditRecord record;
    AMNESIA_RETURN_NOT_OK(DecodeAuditRecord(payload, &record));
    if (record.seq != seq || record.prev_crc != scan->chain_crc) {
      return Status::InvalidArgument(
          "record seq " + std::to_string(record.seq) +
          " breaks the chain (expected seq " + std::to_string(seq) +
          ", prev_crc " + std::to_string(scan->chain_crc) +
          "; found prev_crc " + std::to_string(record.prev_crc) + ")");
    }
    scan->chain_crc = ckpt::Crc32(payload);
    scan->records.push_back(std::move(record));
    return Status::OK();
  };
  return visitor;
}

StatusOr<LedgerScan> ScanLedger(const std::string& dir) {
  LedgerScan scan;
  AMNESIA_ASSIGN_OR_RETURN(scan.segments,
                           ScanSegments(dir, kAuditSegmentFormat,
                                        ChainVisitor(&scan)));
  return scan;
}

}  // namespace

std::string_view AuditOpToString(AuditOp op) {
  switch (op) {
    case AuditOp::kEnforce:
      return "enforce";
    case AuditOp::kVacuum:
      return "vacuum";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeAuditRecord(const AuditRecord& record) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U64(record.seq);
  w.U32(record.prev_crc);
  w.U8(static_cast<uint8_t>(record.op));
  w.String(record.policy);
  w.U8(record.backend);
  w.U32(record.shard);
  w.U64(record.rows_marked);
  w.U64(record.rows_scrubbed);
  w.U64(record.partitions_dropped);
  w.U64(record.tick_lo);
  w.U64(record.tick_hi);
  w.U64(record.batch);
  w.U64(record.lsn);
  w.U64(record.wall_ms);
  w.U64(record.lifetime_forgotten);
  return out;
}

Status DecodeAuditRecord(const std::vector<uint8_t>& payload,
                         AuditRecord* record) {
  ckpt::Reader r(payload);
  uint8_t op = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&record->seq));
  AMNESIA_RETURN_NOT_OK(r.U32(&record->prev_crc));
  AMNESIA_RETURN_NOT_OK(r.U8(&op));
  AMNESIA_RETURN_NOT_OK(r.String(&record->policy));
  AMNESIA_RETURN_NOT_OK(r.U8(&record->backend));
  AMNESIA_RETURN_NOT_OK(r.U32(&record->shard));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->rows_marked));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->rows_scrubbed));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->partitions_dropped));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->tick_lo));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->tick_hi));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->batch));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->lsn));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->wall_ms));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->lifetime_forgotten));
  if (op != static_cast<uint8_t>(AuditOp::kEnforce) &&
      op != static_cast<uint8_t>(AuditOp::kVacuum)) {
    return Status::InvalidArgument("unknown audit op " + std::to_string(op));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in audit record");
  }
  record->op = static_cast<AuditOp>(op);
  return Status::OK();
}

StatusOr<AuditLedger> AuditLedger::Open(const std::string& dir,
                                        const AuditLedgerOptions& options) {
  AMNESIA_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentedRecordLog> log,
      SegmentedRecordLog::Open(dir, kAuditSegmentFormat, options.max_segment_bytes,
                               /*extension=*/0));
  return AuditLedger(std::move(log), options);
}

StatusOr<AuditLedger> AuditLedger::OpenForAppend(
    const std::string& dir, const AuditLedgerOptions& options) {
  // The repair truncates a torn or tampered tail back to the last record
  // that chains, so appends never extend a broken chain.
  LedgerScan scan;
  StatusOr<std::unique_ptr<SegmentedRecordLog>> log =
      SegmentedRecordLog::OpenForAppend(dir, kAuditSegmentFormat,
                                        options.max_segment_bytes,
                                        ChainVisitor(&scan));
  if (log.status().code() == StatusCode::kNotFound) {
    return Open(dir, options);  // no ledger (or only a torn first header)
  }
  AMNESIA_RETURN_NOT_OK(log.status());
  AuditLedger ledger(std::move(log).value(), options);
  ledger.chain_crc_ = scan.chain_crc;
  const size_t keep = std::min(scan.records.size(), options.tail_capacity);
  ledger.tail_.assign(
      std::make_move_iterator(scan.records.end() - static_cast<long>(keep)),
      std::make_move_iterator(scan.records.end()));
  return ledger;
}

Status AuditLedger::Append(AuditRecord* record) {
  std::lock_guard<std::mutex> lock(log_->mutex());
  record->seq = log_->next_seq_locked();
  record->prev_crc = chain_crc_;
  if (record->wall_ms == 0) {
    record->wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
  const std::vector<uint8_t> payload = EncodeAuditRecord(*record);
  // A segment rolled here is seeded with the chain head this record
  // links to.
  AMNESIA_RETURN_NOT_OK(log_->AppendLocked(payload, chain_crc_));
  AMNESIA_RETURN_NOT_OK(log_->FlushLocked());
  chain_crc_ = ckpt::Crc32(payload);
  tail_.push_back(*record);
  while (tail_.size() > options_.tail_capacity) tail_.pop_front();
  return Status::OK();
}

std::vector<AuditRecord> AuditLedger::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(log_->mutex());
  const size_t keep = std::min(n, tail_.size());
  return std::vector<AuditRecord>(tail_.end() - static_cast<long>(keep),
                                  tail_.end());
}

Status AuditLedger::TruncateBefore(uint64_t seq) {
  return log_->TruncateBefore(seq).status();
}

uint64_t AuditLedger::next_seq() const { return log_->next_seq(); }

uint64_t AuditLedger::base_seq() const { return log_->base_seq(); }

uint32_t AuditLedger::chain_crc() const {
  std::lock_guard<std::mutex> lock(log_->mutex());
  return chain_crc_;
}

uint64_t AuditLedger::segments_unlinked() const {
  return log_->segments_unlinked();
}

StatusOr<std::vector<AuditRecord>> ReadAuditRecords(const std::string& dir) {
  AMNESIA_ASSIGN_OR_RETURN(LedgerScan scan, ScanLedger(dir));
  return std::move(scan.records);
}

StatusOr<AuditChainReport> VerifyAuditChain(const std::string& dir) {
  AMNESIA_ASSIGN_OR_RETURN(LedgerScan scan, ScanLedger(dir));
  AuditChainReport report;
  report.records = scan.records.size();
  report.base_seq = scan.segments.base_seq();
  report.next_seq = scan.segments.next_seq();
  report.chain_crc = scan.chain_crc;
  // A torn tail is the expected kill -9 artifact, not a break.
  report.ok = scan.segments.end != SegmentScan::Break::kBadContent;
  if (!report.ok) report.detail = scan.segments.detail;
  return report;
}

std::string AuditDirFor(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/audit.segs";
}

}  // namespace amnesia
