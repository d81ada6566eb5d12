// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the segmented record log (durability/segmented_record_log)
// and the event journal on top of it (durability/log_segments). The
// segment-level crash cases — torn tail, corrupt middle segment, crash
// between roll and unlink, a torn header in a freshly rolled segment, a
// threshold below the header size, truncation racing appends — run once
// per client format (the journal's and the audit ledger's). The journal
// cases cover the event round trip, O(1) whole-segment truncation, group
// commit, and the checkpointer crash-point matrix over the journal.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amnesia/audit_ledger.h"
#include "common/rng.h"
#include "durability/checkpointer.h"
#include "durability/log_segments.h"
#include "durability/segmented_record_log.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"

namespace amnesia {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

Event ForgetEvent(RowId row) {
  Event e;
  e.kind = EventKind::kForget;
  e.row = row;
  e.backend = static_cast<uint8_t>(BackendKind::kDelete);
  return e;
}

Event ScrubEvent(RowId row, Value value) {
  Event e;
  e.kind = EventKind::kScrub;
  e.row = row;
  e.value = value;
  return e;
}

/// A deterministic mixed event stream (every kind that needs no table).
std::vector<Event> MixedEvents(size_t n, uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0:
        events.push_back(ForgetEvent(rng.UniformInt(0, 999)));
        break;
      case 1:
        events.push_back(ScrubEvent(rng.UniformInt(0, 999),
                                    rng.UniformInt(0, 99'999)));
        break;
      case 2: {
        Event e;
        e.kind = EventKind::kBeginBatch;
        events.push_back(e);
        break;
      }
      default: {
        Event e;
        e.kind = EventKind::kAccess;
        e.row = rng.UniformInt(0, 999);
        events.push_back(e);
        break;
      }
    }
  }
  return events;
}

/// Events compare by their canonical encoding.
void ExpectSameEvents(const std::vector<Event>& got,
                      const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(EncodeEvent(got[i]), EncodeEvent(want[i])) << "event " << i;
  }
}

SegmentedLogOptions SmallSegments(uint64_t bytes = 256) {
  SegmentedLogOptions options;
  options.max_segment_bytes = bytes;
  return options;
}

/// The segment files of `dir` as full paths, oldest (lowest base) first.
std::vector<std::string> SegmentsByBase(const std::string& dir,
                                        const SegmentFormat& format) {
  std::vector<std::pair<uint64_t, std::string>> found;
  const size_t prefix_len = std::strlen(format.prefix);
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(format.prefix, 0) != 0) continue;
    found.emplace_back(std::stoull(name.substr(prefix_len)),
                       entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  for (const auto& f : found) paths.push_back(f.second);
  return paths;
}

uint64_t BaseOf(const std::string& path, const SegmentFormat& format) {
  const std::string name = fs::path(path).filename().string();
  return std::stoull(name.substr(std::strlen(format.prefix)));
}

// ------------------------------------------ segment crash cases, per client

/// One client's segment settings: its file format and the header
/// extension it writes (the ledger seeds its hash chain there).
struct SegmentClient {
  const char* name;
  SegmentFormat format;
  uint32_t extension;
};

void PrintTo(const SegmentClient& client, std::ostream* os) {
  *os << client.name;
}

/// Drives SegmentedRecordLog directly with 16-byte records
/// [u64 seq][u64 seq * 7], each segment's header extension set to
/// `extension + base`; the scan visitor checks both, like a real client.
class SegmentedRecordLogTest : public ::testing::TestWithParam<SegmentClient> {
 protected:
  void SetUp() override {
    scratch_ = std::make_unique<ScratchDir>(
        std::string("amnesia_record_log_") + GetParam().name + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    dir_ = scratch_->file("segs");
  }

  const SegmentFormat& format() const { return GetParam().format; }
  uint32_t ExtensionAt(uint64_t base) const {
    return GetParam().extension + static_cast<uint32_t>(base);
  }

  static std::vector<uint8_t> Record(uint64_t seq) {
    std::vector<uint8_t> out(16);
    const uint64_t check = seq * 7;
    std::memcpy(out.data(), &seq, 8);
    std::memcpy(out.data() + 8, &check, 8);
    return out;
  }

  std::unique_ptr<SegmentedRecordLog> Open(uint64_t max_bytes = 256) {
    return SegmentedRecordLog::Open(dir_, format(), max_bytes,
                                    ExtensionAt(0))
        .value();
  }

  std::unique_ptr<SegmentedRecordLog> Resume(uint64_t max_bytes = 256) {
    return SegmentedRecordLog::OpenForAppend(dir_, format(), max_bytes,
                                             Visitor(nullptr))
        .value();
  }

  void Append(SegmentedRecordLog* log, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      std::lock_guard<std::mutex> lock(log->mutex());
      const uint64_t seq = log->next_seq_locked();
      ASSERT_TRUE(log->AppendLocked(Record(seq), ExtensionAt(seq)).ok());
      ASSERT_TRUE(log->FlushLocked().ok());
    }
  }

  /// Checks every segment's extension and every record's content against
  /// its position; collects the adopted seqs into `seqs` when given.
  SegmentVisitor Visitor(std::vector<uint64_t>* seqs) {
    SegmentVisitor visitor;
    visitor.segment = [this](const ScannedSegment& segment) {
      if (segment.extension != ExtensionAt(segment.base)) {
        return Status::InvalidArgument("wrong header extension");
      }
      return Status::OK();
    };
    visitor.record = [seqs](uint64_t seq,
                            const std::vector<uint8_t>& payload) {
      if (payload != Record(seq)) {
        return Status::InvalidArgument("record out of place");
      }
      if (seqs != nullptr) seqs->push_back(seq);
      return Status::OK();
    };
    return visitor;
  }

  SegmentScan Scan(std::vector<uint64_t>* seqs = nullptr) {
    return ScanSegments(dir_, format(), Visitor(seqs)).value();
  }

  std::vector<std::string> Segments() const {
    return SegmentsByBase(dir_, format());
  }

  std::unique_ptr<ScratchDir> scratch_;
  std::string dir_;
};

/// Asserts `seqs` is exactly [begin, end).
void ExpectSeqRange(const std::vector<uint64_t>& seqs, uint64_t begin,
                    uint64_t end) {
  ASSERT_EQ(seqs.size(), end - begin);
  for (uint64_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], begin + i);
}

TEST_P(SegmentedRecordLogTest, TornTailIsDroppedAndRepaired) {
  {
    auto log = Open();
    Append(log.get(), 60);
    EXPECT_GT(log->num_segments(), 3u);
  }
  // A frame torn mid-write at the end of the newest segment.
  const std::string newest = Segments().back();
  fs::resize_file(newest, fs::file_size(newest) - 5);
  {
    std::ofstream torn(newest, std::ios::binary | std::ios::app);
    torn.write("\xff\xff\xff", 3);
  }

  std::vector<uint64_t> seqs;
  const SegmentScan scan = Scan(&seqs);
  EXPECT_EQ(scan.end, SegmentScan::Break::kTornTail) << scan.detail;
  const uint64_t valid = scan.next_seq();
  EXPECT_LT(valid, 60u);
  EXPECT_GT(valid, 0u);
  ExpectSeqRange(seqs, 0, valid);

  // OpenForAppend physically truncates the tear, then appends land where
  // a reader can see them.
  auto log = Resume();
  EXPECT_EQ(log->next_seq(), valid);
  Append(log.get(), 1);
  seqs.clear();
  const SegmentScan after = Scan(&seqs);
  EXPECT_EQ(after.end, SegmentScan::Break::kNone) << after.detail;
  ExpectSeqRange(seqs, 0, valid + 1);
}

TEST_P(SegmentedRecordLogTest, CorruptMiddleSegmentStopsAtLastValidFrame) {
  {
    auto log = Open();
    Append(log.get(), 100);
  }
  const std::vector<std::string> segs = Segments();
  ASSERT_GT(segs.size(), 3u);
  // Flip a byte in the middle of the second segment's frames.
  {
    std::fstream f(segs[1], std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(segs[1]) / 2));
    f.put('\x5a');
  }

  // The prefix ends inside the corrupt segment: everything before it is
  // intact, nothing from the segments past it survives (their seqs would
  // have a gap). A sealed segment is fsynced, so this is bad content.
  std::vector<uint64_t> seqs;
  const SegmentScan scan = Scan(&seqs);
  EXPECT_EQ(scan.end, SegmentScan::Break::kBadContent);
  EXPECT_GE(scan.next_seq(), BaseOf(segs[1], format()));
  EXPECT_LT(scan.next_seq(), BaseOf(segs[2], format()));
  ExpectSeqRange(seqs, 0, scan.next_seq());
  EXPECT_EQ(scan.orphans.size(), segs.size() - 2);

  // OpenForAppend repairs to exactly that prefix (truncates the corrupt
  // segment, unlinks the unreachable ones) and resumes.
  const uint64_t valid = scan.next_seq();
  auto log = Resume();
  EXPECT_EQ(log->next_seq(), valid);
  EXPECT_EQ(Segments().size(), 2u);
  Append(log.get(), 1);
  EXPECT_EQ(Scan().next_seq(), valid + 1);
}

TEST_P(SegmentedRecordLogTest, CrashBetweenRollAndUnlinkRecovers) {
  {
    auto log = Open();
    Append(log.get(), 100);
  }
  // The crash window: appenders rolled past the covered seq but the
  // truncation never ran. Every segment is still on disk and reads whole.
  std::vector<uint64_t> seqs;
  const SegmentScan all = Scan(&seqs);
  EXPECT_EQ(all.end, SegmentScan::Break::kNone);
  ExpectSeqRange(seqs, 0, 100);

  // Deeper window: the truncation unlinked SOME doomed segments (oldest
  // first) and died. The remaining chain is a contiguous suffix.
  const std::vector<std::string> segs = Segments();
  ASSERT_GT(segs.size(), 3u);
  ASSERT_EQ(std::remove(segs.front().c_str()), 0);
  const uint64_t second_base = BaseOf(segs[1], format());
  seqs.clear();
  const SegmentScan suffix = Scan(&seqs);
  EXPECT_EQ(suffix.end, SegmentScan::Break::kNone);
  EXPECT_EQ(suffix.base_seq(), second_base);
  ExpectSeqRange(seqs, second_base, 100);

  // A resumed process finishes the interrupted truncation.
  auto log = Resume();
  EXPECT_EQ(log->base_seq(), second_base);
  ASSERT_TRUE(log->TruncateBefore(100).ok());
  EXPECT_GT(log->base_seq(), second_base);  // the stale prefix is gone
  EXPECT_EQ(log->num_segments(), 1u);       // only the active segment left
  EXPECT_EQ(log->next_seq(), 100u);
}

TEST_P(SegmentedRecordLogTest, TornHeaderInFreshlyRolledSegmentIsATornTail) {
  uint64_t sealed_end = 0;
  {
    auto log = Open();
    Append(log.get(), 30);
    sealed_end = log->next_seq();
  }
  // Killed inside a roll: the next segment's file exists, its header only
  // half written. Every record is in the sealed segments before it.
  const std::string rolled = dir_ + "/" + format().prefix +
                             std::to_string(sealed_end) + ".seg";
  {
    std::ofstream torn(rolled, std::ios::binary);
    torn.write("\x41\x53\x45", 3);
  }
  std::vector<uint64_t> seqs;
  const SegmentScan scan = Scan(&seqs);
  EXPECT_EQ(scan.end, SegmentScan::Break::kTornTail) << scan.detail;
  ASSERT_EQ(scan.orphans.size(), 1u);
  EXPECT_EQ(scan.orphans[0], rolled);
  ExpectSeqRange(seqs, 0, sealed_end);

  // Resuming drops the torn file, reopens the last sealed segment, and
  // the next roll recreates the segment under the same name.
  auto log = Resume();
  EXPECT_EQ(log->next_seq(), sealed_end);
  Append(log.get(), 20);
  seqs.clear();
  const SegmentScan after = Scan(&seqs);
  EXPECT_EQ(after.end, SegmentScan::Break::kNone) << after.detail;
  ExpectSeqRange(seqs, 0, sealed_end + 20);

  // An unreadable header anywhere but the chain's next position is not a
  // crash artifact.
  const std::string stray = dir_ + "/" + format().prefix +
                            std::to_string(sealed_end + 1000) + ".seg";
  { std::ofstream junk(stray, std::ios::binary); }
  EXPECT_EQ(Scan().end, SegmentScan::Break::kBadContent);
}

TEST_P(SegmentedRecordLogTest, ThresholdBelowHeaderSizeNeverSealsEmptySegments) {
  // A roll threshold below the header size must degrade to one-record
  // segments. The regression: an empty roll would seal a zero-record
  // entry aliasing the active file's path, and truncating at that seq
  // would unlink the live segment out from under the appender.
  auto log = Open(/*max_bytes=*/1);
  Append(log.get(), 3);
  EXPECT_EQ(log->num_segments(), 3u);
  EXPECT_EQ(log->TruncateBefore(1).value(), 1u);
  EXPECT_EQ(log->segments_unlinked(), 1u);
  Append(log.get(), 1);
  std::vector<uint64_t> seqs;
  const SegmentScan scan = Scan(&seqs);
  EXPECT_EQ(scan.base_seq(), 1u);
  ExpectSeqRange(seqs, 1, 4);
}

TEST_P(SegmentedRecordLogTest, TruncationIsConcurrentWithAppends) {
  // Truncation never blocks appenders for more than the index splice.
  // Racing the two must still leave a gapless seq-ordered suffix — the
  // TSan job runs this for the memory side of the claim.
  auto log = Open(/*max_bytes=*/512);
  constexpr uint64_t kAppends = 400;
  std::thread appender([this, &log] { Append(log.get(), kAppends); });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(log->TruncateBefore(log->next_seq() / 2).ok());
  }
  appender.join();

  std::vector<uint64_t> seqs;
  const SegmentScan scan = Scan(&seqs);
  EXPECT_EQ(scan.end, SegmentScan::Break::kNone);
  EXPECT_EQ(scan.base_seq(), log->base_seq());
  ExpectSeqRange(seqs, scan.base_seq(), kAppends);
}

INSTANTIATE_TEST_SUITE_P(
    Clients, SegmentedRecordLogTest,
    ::testing::Values(SegmentClient{"journal", kJournalSegmentFormat, 0},
                      SegmentClient{"ledger", kAuditSegmentFormat,
                                    0x5EED0000u}),
    [](const ::testing::TestParamInfo<SegmentClient>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------- event journal

TEST(SegmentedLogTest, RollsSegmentsAndRoundTripsEvents) {
  ScratchDir dir("amnesia_seglog_roundtrip_test");
  const std::vector<Event> events = MixedEvents(120);
  SegmentedEventLog seg =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
  for (const Event& e : events) ASSERT_TRUE(seg.Append(e).ok());
  ASSERT_TRUE(seg.Flush().ok());
  EXPECT_EQ(seg.next_lsn(), events.size());
  EXPECT_EQ(seg.base_lsn(), 0u);
  EXPECT_GT(seg.num_segments(), 3u);  // 256-byte segments: many rolls

  const EventLogContents from_segs =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(from_segs.base_lsn, 0u);
  ExpectSameEvents(from_segs.events, events);
}

TEST(SegmentedLogTest, ReadRejectsAPathThatIsNotADirectory) {
  // Recover() reads the journal through this: a regular file where the
  // segment directory should be must surface, never read as "no log".
  ScratchDir dir("amnesia_seglog_not_a_dir_test");
  { std::ofstream f(dir.file("events.segs")); f << "not a log"; }
  EXPECT_EQ(ReadSegmentedLogContents(dir.file("events.segs")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadSegmentedLogContents(dir.file("missing")).status().code(),
            StatusCode::kNotFound);
}

TEST(SegmentedLogTest, TruncateUnlinksWholeSegmentsAndKeepsLsnsStable) {
  ScratchDir dir("amnesia_seglog_truncate_test");
  const std::vector<Event> events = MixedEvents(100);
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
  for (const Event& e : events) ASSERT_TRUE(log.Append(e).ok());
  ASSERT_TRUE(log.Flush().ok());
  const uint64_t segments_before = log.num_segments();
  ASSERT_GT(segments_before, 3u);

  // Truncate to mid-log: only segments wholly below the cut go away; the
  // segment containing the cut is retained whole (conservative base).
  ASSERT_TRUE(log.TruncateBefore(50).ok());
  EXPECT_GT(log.segments_unlinked(), 0u);
  EXPECT_LT(log.num_segments(), segments_before);
  EXPECT_LE(log.base_lsn(), 50u);
  EXPECT_EQ(log.next_lsn(), events.size());

  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(contents.base_lsn, log.base_lsn());
  EXPECT_EQ(contents.next_lsn(), events.size());
  // LSN stability: event at LSN L is still events[L].
  ExpectSameEvents(contents.events,
                   std::vector<Event>(
                       events.begin() + static_cast<long>(contents.base_lsn),
                       events.end()));

  // Truncating below the base is a no-op, not a rewind.
  const uint64_t base = log.base_lsn();
  ASSERT_TRUE(log.TruncateBefore(1).ok());
  EXPECT_EQ(log.base_lsn(), base);

  // Truncating everything leaves just the active segment; appends resume.
  ASSERT_TRUE(log.TruncateBefore(log.next_lsn()).ok());
  EXPECT_FALSE(log.TruncateBefore(log.next_lsn() + 1).ok());  // beyond end
  ASSERT_TRUE(log.Append(ForgetEvent(7)).ok());
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(log.next_lsn(), events.size() + 1);
}

TEST(SegmentedLogTest, GroupCommitBatchesFlushes) {
  ScratchDir dir("amnesia_seglog_group_commit_test");
  SegmentedLogOptions options;
  options.max_segment_bytes = 1u << 20;
  options.sync = SyncPolicy::GroupCommit(/*events=*/1000,
                                         /*interval_ms=*/0.0);
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), options).value();
  for (RowId r = 0; r < 10; ++r) {
    ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
  }
  // All 10 are in the stdio buffer, none durable yet: a reader sees an
  // empty (header-only) segment. next_lsn() is the in-memory truth.
  EXPECT_EQ(log.next_lsn(), 10u);
  EXPECT_EQ(ReadSegmentedLogContents(dir.file("segs")).value().events.size(),
            0u);
  // The explicit barrier (what the simulator calls at batch and
  // checkpoint boundaries) makes them all visible at once.
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(ReadSegmentedLogContents(dir.file("segs")).value().events.size(),
            10u);

  // The count trigger flushes without an explicit barrier.
  options.sync = SyncPolicy::GroupCommit(/*events=*/5, /*interval_ms=*/0.0);
  SegmentedEventLog counted =
      SegmentedEventLog::Open(dir.file("counted"), options).value();
  for (RowId r = 0; r < 5; ++r) {
    ASSERT_TRUE(counted.Append(ForgetEvent(r)).ok());
  }
  EXPECT_EQ(
      ReadSegmentedLogContents(dir.file("counted")).value().events.size(),
      5u);
}

// --------------------------------- checkpointer + recovery, segmented log

Table MakeLoadedTable(uint64_t rows, uint64_t seed) {
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1'000'000)).value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  return t;
}

void JournalForget(RowId row, BackendKind backend, Table* table,
                   ColdStore* cold, SummaryStore* summaries,
                   EventLogBase* log) {
  if (backend == BackendKind::kColdStorage) {
    cold->Put(ColdTuple{row, table->value(0, row), table->insert_tick(row),
                        table->batch_of(row)});
  } else if (backend == BackendKind::kSummary) {
    summaries->AddForgotten(0, table->batch_of(row), table->value(0, row));
  }
  ASSERT_TRUE(table->Forget(row).ok());
  Event e;
  e.kind = EventKind::kForget;
  e.row = row;
  e.backend = static_cast<uint8_t>(backend);
  ASSERT_TRUE(log->Append(e).ok());
}

TEST(SegmentedRetentionTest, CrashPointMatrixRecoversBitIdentically) {
  // The checkpointer crash-point matrix with small journal segments, so
  // the GC's truncation unlinks segments every round. The "gc" phase is the acceptance crash point: the
  // writer dies after the blob/manifest deletions but before
  // TruncateBefore — i.e. between the appenders' segment rolls and the
  // old-segment unlinks — leaving every segment on disk for recovery.
  for (const char* phase :
       {"shard-blobs", "tier-blobs", "manifest", "current", "gc"}) {
    ScratchDir dir(std::string("amnesia_seg_crashpoint_") + phase + "_test");
    SegmentedLogOptions options = SmallSegments(512);
    SegmentedEventLog log =
        SegmentedEventLog::Open(dir.file("segs"), options).value();
    Table table = MakeLoadedTable(200, 73);
    ColdStore cold;
    SummaryStore summaries;

    bool armed = false;
    CheckpointerOptions opts;
    opts.dir = dir.path();
    opts.async = false;
    opts.retain = 2;
    opts.log = &log;
    opts.test_crash_hook = [&armed, phase](const char* p) {
      return armed && std::strcmp(p, phase) == 0;
    };
    BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

    RowId next = 0;
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 6; ++k, ++next) {
        JournalForget(next, next % 2 == 0 ? BackendKind::kColdStorage
                                          : BackendKind::kSummary,
                      &table, &cold, &summaries, &log);
      }
      ASSERT_TRUE(log.Flush().ok());
      armed = round == 3;  // the final checkpoint dies mid-write
      const Status status = ckpt.Checkpoint(
          table, log.next_lsn(), TierSet{&cold, &summaries});
      if (round == 3) {
        EXPECT_FALSE(status.ok()) << phase;
      } else {
        ASSERT_TRUE(status.ok()) << phase;
      }
    }

    RecoveredState state = Recover(dir.path(), dir.file("segs")).value();
    ASSERT_EQ(state.shards.size(), 1u);
    ASSERT_TRUE(state.cold.has_value());
    ASSERT_TRUE(state.summaries.has_value());
    EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table))
        << phase;
    EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold))
        << phase;
    EXPECT_EQ(CheckpointSummaryStore(*state.summaries),
              CheckpointSummaryStore(summaries))
        << phase;
  }
}

TEST(SegmentedRetentionTest, GcTruncatesByUnlinkingSegments) {
  ScratchDir dir("amnesia_seg_retention_gc_test");
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments(512)).value();
  Table table = MakeLoadedTable(300, 71);
  ColdStore cold;
  SummaryStore summaries;

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  opts.retain = 2;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

  RowId next = 0;
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 20; ++k, ++next) {
      JournalForget(next, BackendKind::kColdStorage, &table, &cold,
                    &summaries, &log);
    }
    ASSERT_TRUE(log.Flush().ok());
    ASSERT_TRUE(
        ckpt.Checkpoint(table, log.next_lsn(), TierSet{&cold, &summaries})
            .ok());
  }
  // The GC's TruncateBefore landed as segment unlinks, and the retained
  // chain still starts at (or below) the oldest retained covered LSN.
  EXPECT_GT(log.segments_unlinked(), 0u);
  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_GT(contents.base_lsn, 0u);
  EXPECT_EQ(contents.next_lsn(), log.next_lsn());

  RecoveredState state = Recover(dir.path(), dir.file("segs")).value();
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
  EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold));
}

TEST(SegmentedSimTest, CrashRecoveryIsBitIdentical) {
  // End-to-end with the simulator journaling through a segmented log
  // under the default group-commit sync policy.
  ScratchDir dir("amnesia_seg_sim_crash_test");
  SimulationConfig config;
  config.seed = 1234;
  config.dbsize = 500;
  config.upd_perc = 0.4;
  config.num_batches = 7;
  config.queries_per_batch = 20;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kColdStorage;
  config.record_access = false;
  config.checkpoint_every_n_batches = 3;
  config.checkpoint_dir = dir.path();
  config.checkpoint_async = true;
  config.checkpoint_retention = 2;
  config.log_segment_bytes = 8u << 10;

  std::string log_path;
  {
    auto sim = Simulator::Make(config).value();
    ASSERT_TRUE(sim->Initialize().ok());
    for (int b = 0; b < 7; ++b) ASSERT_TRUE(sim->StepBatch().ok());
    log_path = sim->event_log_path();
    ASSERT_TRUE(fs::is_directory(log_path));
  }

  RecoveredState state = Recover(dir.path(), log_path).value();
  ASSERT_EQ(state.shards.size(), 1u);

  SimulationConfig plain = config;
  plain.checkpoint_every_n_batches = 0;
  plain.checkpoint_dir.clear();
  plain.checkpoint_retention = 0;
  auto reference = Simulator::Make(plain).value();
  ASSERT_TRUE(reference->Initialize().ok());
  for (int b = 0; b < 7; ++b) ASSERT_TRUE(reference->StepBatch().ok());

  EXPECT_EQ(CheckpointTable(state.shards[0]),
            CheckpointTable(reference->table()));
  ASSERT_TRUE(state.cold.has_value());
  EXPECT_EQ(CheckpointColdStore(*state.cold),
            CheckpointColdStore(reference->cold_store()));
  EXPECT_EQ(state.ingest_cursor, reference->table().lifetime_inserted());
}

}  // namespace
}  // namespace amnesia
