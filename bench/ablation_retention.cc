// Copyright 2026 The AmnesiaDB Authors
//
// Ablation R — checkpoint retention GC. Runs the same ingest/forget loop
// (cold-tier backend, every mutation journaled, a tiered checkpoint
// per round) once per retention count and measures what the directory
// costs on disk when the run ends:
//   retain 0   keep every checkpoint (the pre-retention behavior): the
//              manifest count, blob count and event log all grow with
//              the number of checkpoints taken,
//   retain R   keep the newest R manifests, GC the blobs below them and
//              truncate the event-log prefix their snapshots cover.
// The headline numbers are the final checkpoint-dir footprint (bytes and
// files) and the recovery time, both of which should be flat in the
// number of checkpoints once retention bounds the directory — that is
// what makes long simulations disk-bounded. Every run's directory is
// recovered and cross-checked bit-identical (table + cold tier) against
// the live state before it is scored.
//
// A second section isolates log compaction itself: at several retained-
// event volumes it measures the appender throughput and the time one
// TruncateBefore stalls the log. The segmented log unlinks whole segment
// files, so its cost tracks the events *dropped*, never the events
// *retained*.
//
// Usage: ablation_retention [rows] [checkpoints]
//
// Emits BENCH_RETENTION and BENCH_LOG_COMPACTION JSON lines
// (grep '^BENCH_').

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "amnesia/controller.h"
#include "amnesia/fifo.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "durability/checkpointer.h"
#include "durability/log_segments.h"
#include "storage/checkpoint.h"
#include "storage/cold_store.h"
#include "storage/schema.h"
#include "storage/summary_store.h"
#include "storage/table.h"

using namespace amnesia;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Die(const char* what) {
  std::fprintf(stderr, "retention cross-check failed: %s\n", what);
  std::abort();
}

struct DirFootprint {
  uint64_t bytes = 0;
  uint64_t files = 0;
  uint64_t manifests = 0;
};

DirFootprint MeasureDir(const std::string& dir) {
  DirFootprint out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    out.bytes += entry.file_size();
    ++out.files;
    if (entry.path().filename().string().rfind("MANIFEST-", 0) == 0) {
      ++out.manifests;
    }
  }
  return out;
}

struct RunResult {
  DirFootprint footprint;
  uint64_t log_events = 0;   ///< Events the log retains at the end.
  double checkpoint_ms = 0;  ///< Total Checkpoint() time (sync writer).
  double recover_ms = 0;
  // Registry counter deltas over the run, read from one snapshot pair
  // (bench::MetricsDelta) so the JSON line is internally consistent.
  uint64_t ckpt_commits = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t log_truncations = 0;
};

/// Opens a fresh segmented log (the same construction Simulator::Make
/// does).
SegmentedEventLog MakeLog(const std::string& path, uint64_t segment_bytes,
                          const SyncPolicy& sync) {
  SegmentedLogOptions options;
  options.max_segment_bytes = segment_bytes;
  options.sync = sync;
  return SegmentedEventLog::Open(path, options).value();
}

RunResult RunLoop(uint64_t rows, int checkpoints, uint32_t retain) {
  RunResult result;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("amnesia_ablation_retention_" + std::to_string(retain) + "_seg"))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // reset_high_waters: each retain configuration shares the
  // process, so gauge peaks are rebased at this run's opening edge and
  // any high-water this window reports belongs to this window alone.
  bench::MetricsDelta delta(/*reset_high_waters=*/true);

  // Group commit with a flush before each checkpoint, like the simulator.
  const std::string log_path = EventLogPathFor(dir);
  SegmentedEventLog log =
      MakeLog(log_path, /*segment_bytes=*/256u << 10,  // several per run
              SyncPolicy::GroupCommit(64, 5.0));

  Table table = Table::Make(Schema::SingleColumn("v", 0, 1'000'000)).value();
  ColdStore cold;
  SummaryStore summaries;

  FifoPolicy policy;
  ControllerOptions copts;
  copts.dbsize_budget = rows / 2;
  copts.backend = BackendKind::kColdStorage;
  AmnesiaController ctrl =
      AmnesiaController::Make(copts, &policy, &table, nullptr, &cold,
                              &summaries)
          .value();
  ctrl.set_event_sink(&log, 0);

  CheckpointerOptions opts;
  opts.dir = dir;
  opts.async = false;  // measure the full write+GC cost per checkpoint
  opts.retain = retain;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

  Rng rng(17);
  const uint64_t per_round = rows / static_cast<uint64_t>(checkpoints);
  for (int round = 0; round < checkpoints; ++round) {
    table.BeginBatch();
    Event begin;
    begin.kind = EventKind::kBeginBatch;
    if (!log.Append(begin).ok()) Die("log append");
    std::vector<Value> chunk;
    chunk.reserve(per_round);
    for (uint64_t i = 0; i < per_round; ++i) {
      chunk.push_back(rng.UniformInt(0, 999'999));
    }
    if (!table.AppendColumns({chunk}).ok()) Die("append");
    Event append;
    append.kind = EventKind::kAppendRows;
    append.columns = {std::move(chunk)};
    if (!log.Append(append).ok()) Die("log append");
    if (!ctrl.EnforceBudget(&rng).ok()) Die("forget pass");
    if (!log.Flush().ok()) Die("log flush");

    const auto start = std::chrono::steady_clock::now();
    if (!ckpt.Checkpoint(table, log.next_lsn(), TierSet{&cold, &summaries})
             .ok()) {
      Die("checkpoint");
    }
    result.checkpoint_ms += MillisSince(start);
  }

  result.footprint = MeasureDir(dir);
  result.log_events = log.next_lsn() - log.base_lsn();
  // The writer is synchronous (async=false), so the loop's end is already
  // quiesced; one closing snapshot covers every checkpoint and GC pass.
  delta.Stop();
  result.ckpt_commits = delta.Counter("checkpoint.commits");
  result.ckpt_bytes = delta.Counter("checkpoint.bytes_written");
  result.log_truncations = delta.Counter("log.truncations");

  // Recover the directory and cross-check bit-identity before scoring.
  const auto recover_start = std::chrono::steady_clock::now();
  RecoveredState state = Recover(dir, log_path).value();
  result.recover_ms = MillisSince(recover_start);
  if (CheckpointTable(state.shards[0]) != CheckpointTable(table)) {
    Die("recovered table");
  }
  if (!state.cold.has_value() ||
      CheckpointColdStore(*state.cold) != CheckpointColdStore(cold)) {
    Die("recovered cold tier");
  }

  std::filesystem::remove_all(dir);
  return result;
}

// ---------------------------------------------------- log compaction cost

/// What one compaction run measures.
struct CompactionResult {
  double append_ms = 0;        ///< Time appending all events.
  double truncate_ms = 0;      ///< Mean time of one TruncateBefore call.
  uint64_t appended = 0;       ///< Events appended in total.
  uint64_t segments_unlinked = 0;
};

/// Fills a log to `retained` events, then runs `rounds` cycles of
/// "append `dropped` more, truncate the oldest `dropped`" — the steady
/// state of a checkpointed run, with the retained volume held constant so
/// the truncation cost can be attributed to it.
CompactionResult RunCompaction(uint64_t retained, uint64_t dropped,
                               int rounds) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("amnesia_ablation_compaction_" + std::to_string(retained) + "_seg"))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string log_path = EventLogPathFor(dir);
  // ~2.3k forget events per 64 KiB segment: `dropped` spans a handful of
  // segments whatever the retained volume is.
  SegmentedEventLog log = MakeLog(log_path, /*segment_bytes=*/64u << 10,
                                  SyncPolicy::GroupCommit(256, 0.0));

  CompactionResult result;
  auto append_n = [&](uint64_t n) {
    const auto start = std::chrono::steady_clock::now();
    Event forget;
    forget.kind = EventKind::kForget;
    forget.backend = static_cast<uint8_t>(BackendKind::kDelete);
    for (uint64_t i = 0; i < n; ++i) {
      forget.row = result.appended + i;
      if (!log.Append(forget).ok()) Die("compaction append");
    }
    if (!log.Flush().ok()) Die("compaction flush");
    result.appended += n;
    result.append_ms += MillisSince(start);
  };

  append_n(retained + dropped);
  double truncate_total_ms = 0;
  for (int round = 0; round < rounds; ++round) {
    // Absolute cut, like a checkpoint's covered LSN would advance — the
    // segmented base_lsn() lags it by design (whole segments only).
    const uint64_t cut = static_cast<uint64_t>(round + 1) * dropped;
    const auto start = std::chrono::steady_clock::now();
    if (!log.TruncateBefore(cut).ok()) Die("truncate");
    truncate_total_ms += MillisSince(start);
    append_n(dropped);  // restore the retained volume for the next round
  }
  result.truncate_ms = truncate_total_ms / rounds;
  result.segments_unlinked = log.segments_unlinked();

  // Cross-check: the log must still read back as a valid log whose span
  // matches the in-memory accounting.
  const EventLogContents contents =
      ReadSegmentedLogContents(log_path).value();
  if (contents.next_lsn() != log.next_lsn()) Die("compaction readback");

  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t rows =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400'000ull;
  const int checkpoints = argc > 2 ? std::atoi(argv[2]) : 12;

  bench::Banner("Ablation R: checkpoint retention GC (" +
                std::to_string(rows) + " rows, " +
                std::to_string(checkpoints) +
                " checkpoints, cold-tier backend, retain 0/2/4/8)");

  CsvWriter csv(&std::cout);
  csv.Header({"retain", "dir_mb", "dir_files", "manifests", "log_events",
              "ckpt_ms", "recover_ms"});

  std::vector<double> footprints_mb;
  for (uint32_t retain : {0u, 2u, 4u, 8u}) {
    const RunResult r = RunLoop(rows, checkpoints, retain);
    const double mb =
        static_cast<double>(r.footprint.bytes) / (1024.0 * 1024.0);
    footprints_mb.push_back(mb);
    csv.Row({CsvWriter::Num(int64_t{retain}), CsvWriter::Num(mb, 2),
             CsvWriter::Num(static_cast<int64_t>(r.footprint.files)),
             CsvWriter::Num(static_cast<int64_t>(r.footprint.manifests)),
             CsvWriter::Num(static_cast<int64_t>(r.log_events)),
             CsvWriter::Num(r.checkpoint_ms, 2),
             CsvWriter::Num(r.recover_ms, 2)});
    bench::EmitBenchJson(
        "RETENTION",
        {{"segmented", 1.0},
         {"retain", static_cast<double>(retain)},
         {"rows", static_cast<double>(rows)},
         {"checkpoints", static_cast<double>(checkpoints)},
         {"dir_bytes", static_cast<double>(r.footprint.bytes)},
         {"dir_files", static_cast<double>(r.footprint.files)},
         {"manifests", static_cast<double>(r.footprint.manifests)},
         {"log_events", static_cast<double>(r.log_events)},
         {"checkpoint_ms", r.checkpoint_ms},
         {"recover_ms", r.recover_ms},
         // Registry deltas from one snapshot pair (0 under
         // AMNESIA_NO_METRICS).
         {"ckpt_commits", static_cast<double>(r.ckpt_commits)},
         {"ckpt_bytes_written", static_cast<double>(r.ckpt_bytes)},
         {"log_truncations", static_cast<double>(r.log_truncations)}});
  }

  std::printf("\n");
  LineChart chart;
  chart.SetTitle("Checkpoint-dir footprint (MB, y) vs retention step (x)");
  chart.SetXLabel("step i = retain 0/2/4/8 (0 keeps everything)");
  chart.AddSeries("dir_mb", footprints_mb);
  std::printf("%s\n", chart.Render().c_str());

  // ---- compaction cost: O(1) segment unlinks whatever the log retains.
  bench::Banner(
      "Log compaction: stall per TruncateBefore, appender throughput");
  CsvWriter csv2(&std::cout);
  csv2.Header({"retained_events", "dropped_per_truncate", "truncate_ms",
               "append_kevents_per_s", "segments_unlinked"});
  const uint64_t dropped = 2048;
  const int rounds = 4;
  std::vector<double> segmented_ms;
  for (const uint64_t retained : {10'000ull, 40'000ull, 160'000ull}) {
    const CompactionResult r = RunCompaction(retained, dropped, rounds);
    const double kevents_per_s =
        static_cast<double>(r.appended) / r.append_ms;  // k-events/s
    segmented_ms.push_back(r.truncate_ms);
    csv2.Row({CsvWriter::Num(static_cast<int64_t>(retained)),
              CsvWriter::Num(static_cast<int64_t>(dropped)),
              CsvWriter::Num(r.truncate_ms, 3),
              CsvWriter::Num(kevents_per_s, 1),
              CsvWriter::Num(static_cast<int64_t>(r.segments_unlinked))});
    bench::EmitBenchJson(
        "LOG_COMPACTION",
        {{"segmented", 1.0},
         {"retained_events", static_cast<double>(retained)},
         {"dropped_per_truncate", static_cast<double>(dropped)},
         {"truncate_ms", r.truncate_ms},
         {"append_kevents_per_s", kevents_per_s},
         {"segments_unlinked", static_cast<double>(r.segments_unlinked)}});
  }

  std::printf("\n");
  LineChart chart2;
  chart2.SetTitle("TruncateBefore stall (ms, y) vs retained volume step (x)");
  chart2.SetXLabel("step i = 10k/40k/160k retained events");
  chart2.AddSeries("segmented", segmented_ms);
  std::printf("%s\n", chart2.Render().c_str());

  std::printf(
      "\nExpected shape: with retain 0 the directory carries every manifest,\n"
      "every superseded blob and the whole event log, so its footprint\n"
      "grows with the number of checkpoints taken. Any bounded retention\n"
      "collapses that to ~R live checkpoints plus the log suffix above the\n"
      "oldest retained manifest's covered LSN. Every directory is recovered\n"
      "and cross-checked bit-identical (table + cold tier). In the\n"
      "compaction section the truncation cost stays flat — it only unlinks\n"
      "the few sealed segments below the cut, however much the log\n"
      "retains.\n");
  return 0;
}
