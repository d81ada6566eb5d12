// Copyright 2026 The AmnesiaDB Authors

#include "durability/segmented_record_log.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "durability/frame_io.h"
#include "storage/checkpoint_io.h"
#include "storage/mapped_file.h"  // EnsureDir

namespace amnesia {

namespace {

// magic + version + base + extension + CRC over the first 20 bytes.
constexpr size_t kHeaderBody = 4 + 4 + 8 + 4;
constexpr size_t kHeaderSize = kHeaderBody + 4;
constexpr const char* kSegmentSuffix = ".seg";

std::string SegmentPath(const std::string& dir, const SegmentFormat& format,
                        uint64_t base) {
  return dir + "/" + format.prefix + std::to_string(base) + kSegmentSuffix;
}

/// Parses "<prefix><digits>.seg" into its base; false for any other name.
bool ParseSegmentName(const std::string& name, const SegmentFormat& format,
                      uint64_t* base) {
  const size_t prefix_len = std::strlen(format.prefix);
  const size_t suffix_len = std::strlen(kSegmentSuffix);
  if (name.size() <= prefix_len + suffix_len ||
      name.compare(0, prefix_len, format.prefix) != 0 ||
      name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) !=
          0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *base = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

/// The segment files of `dir` as (base, path), oldest first.
StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
    const std::string& dir, const SegmentFormat& format) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no segment directory '" + dir + "'");
    }
    if (errno == ENOTDIR) {
      return Status::InvalidArgument("'" + dir +
                                     "' exists but is not a directory");
    }
    return Status::Internal("cannot open segment directory '" + dir + "': " +
                            std::strerror(errno));
  }
  std::vector<std::pair<uint64_t, std::string>> segments;
  while (dirent* entry = readdir(d)) {
    uint64_t base = 0;
    if (ParseSegmentName(entry->d_name, format, &base)) {
      segments.emplace_back(base, dir + "/" + entry->d_name);
    }
  }
  closedir(d);
  std::sort(segments.begin(), segments.end());
  return segments;
}

std::vector<uint8_t> EncodeHeader(const SegmentFormat& format, uint64_t base,
                                  uint32_t extension) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U32(format.magic);
  w.U32(format.version);
  w.U64(base);
  w.U32(extension);
  w.U32(ckpt::Crc32(out));
  return out;
}

/// Reads and verifies a header at the start of `f`. False on a short
/// read, a CRC mismatch or a foreign magic/version.
bool ReadHeader(std::FILE* f, const SegmentFormat& format, uint64_t* base,
                uint32_t* extension) {
  uint8_t header[kHeaderSize];
  if (std::fread(header, 1, kHeaderSize, f) != kHeaderSize) return false;
  uint32_t stored_crc = 0, magic = 0, version = 0;
  std::memcpy(&stored_crc, header + kHeaderBody, sizeof(stored_crc));
  if (ckpt::Crc32(header, kHeaderBody) != stored_crc) return false;
  std::memcpy(&magic, header, sizeof(magic));
  std::memcpy(&version, header + 4, sizeof(version));
  if (magic != format.magic || version != format.version) return false;
  std::memcpy(base, header + 8, sizeof(*base));
  std::memcpy(extension, header + 16, sizeof(*extension));
  return true;
}

Status RemoveFile(const std::string& path, const char* what) {
  if (std::remove(path.c_str()) != 0) {
    return Status::Internal(std::string("cannot remove ") + what + " '" +
                            path + "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

StatusOr<SegmentScan> ScanSegments(const std::string& dir,
                                   const SegmentFormat& format,
                                   const SegmentVisitor& visitor) {
  AMNESIA_ASSIGN_OR_RETURN(auto files, ListSegments(dir, format));
  if (files.empty()) {
    return Status::NotFound("no segment in '" + dir + "'");
  }
  SegmentScan scan;
  const auto fail = [&scan](SegmentScan::Break end, std::string detail) {
    scan.end = end;
    scan.detail = std::move(detail);
  };
  std::vector<uint8_t> payload;
  for (size_t i = 0; i < files.size(); ++i) {
    const uint64_t name_base = files[i].first;
    const std::string& path = files[i].second;
    const bool newest = i + 1 == files.size();
    if (scan.end != SegmentScan::Break::kNone) {
      scan.orphans.push_back(path);
      continue;
    }
    ScannedSegment seg;
    seg.path = path;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr || !ReadHeader(f, format, &seg.base, &seg.extension)) {
      if (f != nullptr) std::fclose(f);
      scan.orphans.push_back(path);
      // A header that never finished is the crash-during-roll artifact
      // when it sits exactly where the chain's next segment would.
      const bool torn = newest && name_base == scan.next_seq();
      fail(torn ? SegmentScan::Break::kTornTail
                : SegmentScan::Break::kBadContent,
           "unreadable segment header in '" + path + "'");
      continue;
    }
    if (seg.base != name_base ||
        (!scan.chain.empty() && seg.base != scan.next_seq())) {
      std::fclose(f);
      scan.orphans.push_back(path);
      fail(SegmentScan::Break::kBadContent,
           "segment '" + path + "' starts at " + std::to_string(seg.base) +
               ", expected " + std::to_string(scan.next_seq()));
      continue;
    }
    if (visitor.segment) {
      const Status accepted = visitor.segment(seg);
      if (!accepted.ok()) {
        std::fclose(f);
        scan.orphans.push_back(path);
        fail(SegmentScan::Break::kBadContent,
             accepted.message() + " in '" + path + "'");
        continue;
      }
    }
    seg.valid_bytes = kHeaderSize;
    while (wal::ReadFrame(f, &payload)) {
      if (visitor.record) {
        const Status accepted = visitor.record(seg.base + seg.count, payload);
        if (!accepted.ok()) {
          fail(SegmentScan::Break::kBadContent,
               accepted.message() + " in '" + path + "'");
          break;
        }
      }
      ++seg.count;
      seg.valid_bytes += wal::kFrameHeaderSize + payload.size();
    }
    struct stat st;
    seg.file_bytes = fstat(fileno(f), &st) == 0
                         ? static_cast<uint64_t>(st.st_size)
                         : seg.valid_bytes;
    std::fclose(f);
    if (scan.end == SegmentScan::Break::kNone &&
        seg.valid_bytes < seg.file_bytes) {
      // The frames stop before the file does: a partial final frame is
      // the torn tail of the newest segment; in a sealed (fsynced)
      // segment it is corruption.
      fail(newest ? SegmentScan::Break::kTornTail
                  : SegmentScan::Break::kBadContent,
           "segment '" + path + "' ends in an invalid frame after record " +
               std::to_string(seg.base + seg.count));
    }
    scan.chain.push_back(std::move(seg));
  }
  return scan;
}

// ----------------------------------------------------- SegmentedRecordLog

SegmentedRecordLog::SegmentedRecordLog(std::string dir,
                                       const SegmentFormat& format,
                                       uint64_t max_segment_bytes)
    : dir_(std::move(dir)),
      format_(format),
      max_segment_bytes_(max_segment_bytes) {}

SegmentedRecordLog::~SegmentedRecordLog() {
  if (active_ != nullptr) std::fclose(active_);
}

StatusOr<std::unique_ptr<SegmentedRecordLog>> SegmentedRecordLog::Open(
    const std::string& dir, const SegmentFormat& format,
    uint64_t max_segment_bytes, uint32_t extension) {
  AMNESIA_RETURN_NOT_OK(EnsureDir(dir));
  // A fresh log in a previously used directory must not resurrect the old
  // instance's records; their contents never need to be read.
  AMNESIA_ASSIGN_OR_RETURN(auto stale, ListSegments(dir, format));
  for (const auto& seg : stale) {
    AMNESIA_RETURN_NOT_OK(RemoveFile(seg.second, "stale segment"));
  }
  std::unique_ptr<SegmentedRecordLog> log(
      new SegmentedRecordLog(dir, format, max_segment_bytes));
  AMNESIA_RETURN_NOT_OK(log->StartSegmentLocked(0, extension));
  return log;
}

StatusOr<std::unique_ptr<SegmentedRecordLog>>
SegmentedRecordLog::OpenForAppend(const std::string& dir,
                                  const SegmentFormat& format,
                                  uint64_t max_segment_bytes,
                                  const SegmentVisitor& visitor) {
  AMNESIA_RETURN_NOT_OK(EnsureDir(dir));
  AMNESIA_ASSIGN_OR_RETURN(SegmentScan scan,
                           ScanSegments(dir, format, visitor));
  if (scan.chain.empty()) {
    // Nothing to resume from; refuse to paper over a corrupt oldest
    // segment (a fresh Open would erase what follows it).
    if (scan.end == SegmentScan::Break::kBadContent) {
      return Status::InvalidArgument("cannot resume '" + dir +
                                     "': " + scan.detail);
    }
    return Status::NotFound("no usable segment in '" + dir + "'");
  }
  // Make the disk match the valid prefix BEFORE new records land: bytes
  // after the last valid frame would hide every frame appended behind
  // them from all future readers, and a segment past the break would
  // collide with the name a later roll creates.
  const ScannedSegment& tail = scan.chain.back();
  if (tail.valid_bytes < tail.file_bytes &&
      truncate(tail.path.c_str(), static_cast<off_t>(tail.valid_bytes)) !=
          0) {
    return Status::Internal("cannot truncate segment '" + tail.path +
                            "': " + std::strerror(errno));
  }
  for (const std::string& path : scan.orphans) {
    AMNESIA_RETURN_NOT_OK(RemoveFile(path, "unreachable segment"));
  }
  std::unique_ptr<SegmentedRecordLog> log(
      new SegmentedRecordLog(dir, format, max_segment_bytes));
  for (size_t i = 0; i + 1 < scan.chain.size(); ++i) {
    log->sealed_.push_back(Sealed{scan.chain[i].base, scan.chain[i].count,
                                  scan.chain[i].path});
  }
  log->active_base_ = tail.base;
  log->active_count_ = tail.count;
  log->active_bytes_ = tail.valid_bytes;
  log->active_path_ = tail.path;
  log->active_ = std::fopen(tail.path.c_str(), "ab");
  if (log->active_ == nullptr) {
    return Status::Internal("cannot reopen segment '" + tail.path + "'");
  }
  return log;
}

Status SegmentedRecordLog::StartSegmentLocked(uint64_t base,
                                              uint32_t extension) {
  active_base_ = base;
  active_count_ = 0;
  active_path_ = SegmentPath(dir_, format_, base);
  active_ = std::fopen(active_path_.c_str(), "wb");
  if (active_ == nullptr) {
    return Status::Internal("cannot create segment '" + active_path_ + "'");
  }
  const std::vector<uint8_t> header = EncodeHeader(format_, base, extension);
  if (std::fwrite(header.data(), 1, header.size(), active_) !=
          header.size() ||
      std::fflush(active_) != 0) {
    CloseLocked();
    return Status::Internal("cannot write segment header to '" +
                            active_path_ + "'");
  }
  active_bytes_ = header.size();
  return Status::OK();
}

void SegmentedRecordLog::CloseLocked() {
  std::fclose(active_);
  active_ = nullptr;
}

Status SegmentedRecordLog::RollLocked(uint32_t extension) {
  // Seal: the segment becomes immutable, so make it durable now — the
  // whole point of sealed segments is that truncation and recovery can
  // treat them as settled artifacts. A failure closes the log for good.
  const bool flushed =
      std::fflush(active_) == 0 && fsync(fileno(active_)) == 0;
  const bool closed = std::fclose(active_) == 0;
  active_ = nullptr;
  if (!flushed || !closed) {
    return Status::Internal("cannot seal segment '" + active_path_ + "'");
  }
  sealed_.push_back(Sealed{active_base_, active_count_, active_path_});
  return StartSegmentLocked(active_base_ + active_count_, extension);
}

Status SegmentedRecordLog::AppendLocked(const std::vector<uint8_t>& payload,
                                        uint32_t roll_extension,
                                        bool* rolled) {
  if (active_ == nullptr) {
    return Status::FailedPrecondition("segmented log '" + dir_ +
                                      "' is closed");
  }
  // Roll only once the segment holds something: an empty roll would seal
  // a zero-record entry whose path aliases the next active segment, and a
  // truncation at that seq would unlink the live file. A threshold below
  // the header size thus degrades to one-record segments.
  if (active_bytes_ >= max_segment_bytes_ && active_count_ > 0) {
    if (rolled != nullptr) *rolled = true;
    AMNESIA_RETURN_NOT_OK(RollLocked(roll_extension));
  }
  AMNESIA_RETURN_NOT_OK(wal::WriteFrame(active_, payload, active_path_));
  active_bytes_ += wal::kFrameHeaderSize + payload.size();
  ++active_count_;
  return Status::OK();
}

Status SegmentedRecordLog::FlushLocked() {
  if (active_ == nullptr) {
    return Status::FailedPrecondition("segmented log '" + dir_ +
                                      "' is closed");
  }
  if (std::fflush(active_) != 0) {
    return Status::Internal("segment flush failed on '" + active_path_ +
                            "'");
  }
  return Status::OK();
}

StatusOr<uint64_t> SegmentedRecordLog::TruncateBefore(uint64_t seq) {
  std::lock_guard<std::mutex> truncations(truncate_mu_);
  std::vector<Sealed> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq > next_seq_locked()) {
      return Status::InvalidArgument(
          "cannot truncate '" + dir_ + "' before " + std::to_string(seq) +
          ": it holds [" +
          std::to_string(sealed_.empty() ? active_base_
                                         : sealed_.front().base) +
          ", " + std::to_string(next_seq_locked()) + ")");
    }
    while (!sealed_.empty() &&
           sealed_.front().base + sealed_.front().count <= seq) {
      doomed.push_back(std::move(sealed_.front()));
      sealed_.pop_front();
    }
  }
  for (size_t i = 0; i < doomed.size(); ++i) {
    const Status removed = RemoveFile(doomed[i].path, "truncated segment");
    if (!removed.ok()) {
      // Take back everything not yet unlinked: forgetting a segment that
      // is still on disk would let a LATER truncation unlink past it and
      // leave a base gap — which a scan reads as the end of the chain.
      std::lock_guard<std::mutex> lock(mu_);
      unlinked_total_ += i;
      for (size_t j = doomed.size(); j > i; --j) {
        sealed_.push_front(std::move(doomed[j - 1]));
      }
      return removed;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  unlinked_total_ += doomed.size();
  return static_cast<uint64_t>(doomed.size());
}

uint64_t SegmentedRecordLog::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_locked();
}

uint64_t SegmentedRecordLog::base_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_.empty() ? active_base_ : sealed_.front().base;
}

uint64_t SegmentedRecordLog::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_.size() + (active_ != nullptr ? 1 : 0);
}

uint64_t SegmentedRecordLog::segments_unlinked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unlinked_total_;
}

}  // namespace amnesia
