// Copyright 2026 The AmnesiaDB Authors
//
// End-to-end benchmark of the amnesic batch loop. One process runs one
// workload through the real loop (Simulator::Make, Initialize, StepBatch)
// in whole rounds: each round builds a fresh database, runs a fixed
// number of batches, issues the benchmark's own seeded query stream
// between batches and once more on the final database, closes it,
// recovers it from disk and checks every output. Rounds repeat until
// --seconds have passed (and at least 100 batches and 3 rounds were
// measured).
//
// --trace 0 prints the end-to-end metrics. --trace 1 follows each loop
// round with a traced replica: the same components wired from the same
// configuration, their public functions called in StepBatch's order with
// a span around each call. It prints the per-layer metrics, checks that
// the replica reproduces the loop's per-batch results, and writes the
// spans as Chrome trace-event JSON plus a per-layer self-time table.
//
//   amnesia_e2e --workload durable-fifo --seed 1 --seconds 20 --trace 0 \
//               --workdir <scratch dir> [--trace-dir <dir>]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "amnesia/audit_ledger.h"
#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "durability/checkpointer.h"
#include "durability/log_segments.h"
#include "metrics/precision.h"
#include "obs/engine_metrics.h"
#include "obs/sla.h"
#include "query/executor.h"
#include "query/oracle.h"
#include "query/scan.h"
#include "sim/simulator.h"
#include "span_trace.h"
#include "storage/mapped_file.h"
#include "workload/update_gen.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using namespace amnesia;  // NOLINT: benchmark driver over the whole engine

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  SimulationConfig config;  ///< seed and directories are set per round.
  uint32_t batches_per_round = 0;
  /// The benchmark's own query stream, issued after every batch.
  uint32_t stream_ranges = 0;
  uint32_t stream_aggs = 0;

  bool durable() const { return config.checkpoint_every_n_batches > 0; }
  bool mark_only() const { return config.backend == BackendKind::kMarkOnly; }
};

// The durable production configuration. FIFO keeps DBSIZE rows = 3.3
// batches; the 2-batch vacuum deadline trims the oldest batch further, so
// every batch runs a budget pass AND a per-row vacuum sweep, and sealed
// partitions (64Ki rows, ~1.1 batches) age out whole and drop. A round
// is not a multiple of the checkpoint interval, so every recovery replays
// the journal written after the last checkpoint.
Workload DurableFifo() {
  Workload w;
  w.name = "durable-fifo";
  SimulationConfig& c = w.config;
  c.dbsize = 200000;
  c.upd_perc = 0.3;
  c.distribution.kind = DistributionKind::kUniform;
  c.policy.kind = PolicyKind::kFifo;
  c.backend = BackendKind::kDelete;
  c.engine = Engine::kVectorized;
  c.queries_per_batch = 5;
  c.aggregate_queries_per_batch = 2;
  c.aggregate_over_range = true;
  c.query.anchor = QueryAnchor::kHistoryTuple;
  c.record_access = false;  // recovery must be bit-exact
  c.checkpoint_every_n_batches = 5;
  c.checkpoint_async = true;
  c.checkpoint_retention = 2;
  c.log_format = LogFormat::kSegmented;  // default 4 MiB segments
  c.log_sync = SyncPolicy::GroupCommit(64, 5.0);
  c.storage_backend = StorageBackend::kMapped;
  c.partition_rows = 1u << 16;
  c.vacuum_max_age_batches = 2;
  c.audit_ledger = true;
  w.batches_per_round = 22;
  w.stream_ranges = 50;
  w.stream_aggs = 10;
  return w;
}

// The paper's default experiment: reservoir forgetting over uniform
// values, history-anchored 2% ranges, mark-only, in memory. The live set
// (50k rows, 400 KiB of values) fits in one core's 2 MiB L2.
Workload PaperUniform() {
  Workload w;
  w.name = "paper-uniform";
  SimulationConfig& c = w.config;
  c.dbsize = 50000;
  c.upd_perc = 0.2;
  c.distribution.kind = DistributionKind::kUniform;
  c.policy.kind = PolicyKind::kUniform;
  c.backend = BackendKind::kMarkOnly;
  c.engine = Engine::kVectorized;
  c.queries_per_batch = 20;
  c.aggregate_queries_per_batch = 5;
  c.aggregate_over_range = true;
  c.query.anchor = QueryAnchor::kHistoryTuple;
  c.query.selectivity = 0.02;
  c.record_access = false;
  w.batches_per_round = 25;
  w.stream_ranges = 40;
  w.stream_aggs = 10;
  return w;
}

// Query-dominant: rot forgetting fed by access counts, serial values,
// recency-anchored ranges and AVGs, two scan workers. Mark-only keeps
// every row, so scans cross a history several times the live set.
Workload RecentRot() {
  Workload w;
  w.name = "recent-rot";
  SimulationConfig& c = w.config;
  c.dbsize = 100000;
  c.upd_perc = 0.2;
  c.distribution.kind = DistributionKind::kSerial;
  c.policy.kind = PolicyKind::kRot;
  c.backend = BackendKind::kMarkOnly;
  c.engine = Engine::kVectorized;
  c.parallelism = 2;
  c.queries_per_batch = 50;
  c.aggregate_queries_per_batch = 10;
  c.aggregate_over_range = true;
  c.query.anchor = QueryAnchor::kRecentTuple;
  c.query.selectivity = 0.01;
  c.record_access = true;
  w.batches_per_round = 40;
  w.stream_ranges = 25;
  w.stream_aggs = 10;
  return w;
}

std::optional<Workload> FindWorkload(const std::string& name) {
  for (Workload w : {DurableFifo(), PaperUniform(), RecentRot()}) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

SimulationConfig ConfigFor(const Workload& w, uint64_t seed,
                           const std::string& dir) {
  SimulationConfig c = w.config;
  c.seed = seed;
  c.num_batches = w.batches_per_round;
  if (w.durable()) {
    c.checkpoint_dir = dir + "/ckpt";
    c.storage_dir = dir + "/parts";
  }
  return c;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Bytes this process handed to write(2) and friends so far.
uint64_t ReadWchar() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  return ec ? Status::Internal("mkdir " + dir + ": " + ec.message())
            : Status::OK();
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Correctness findings. Only the first few are printed in full.
struct Checks {
  uint64_t failures = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (++failures <= 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Operation accounting printed with every result.
struct Ops {
  uint64_t batches = 0, batches_failed = 0;
  uint64_t queries = 0, queries_failed = 0;
  uint64_t recoveries = 0, recoveries_failed = 0;
  uint64_t attempted() const { return batches + queries + recoveries; }
  uint64_t failed() const {
    return batches_failed + queries_failed + recoveries_failed;
  }
};

// ---------------------------------------------------------------------------
// Output checks made apart from the program
// ---------------------------------------------------------------------------

bool SameDouble(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Brute-force count (and sum) of a range over the table's rows, read one
/// by one: the live rows, and for mark-only tables every stored row.
struct BruteRange {
  uint64_t live = 0;
  double live_sum = 0.0;
  uint64_t all = 0;
};

BruteRange BruteForce(const Table& table, const RangePredicate& p,
                      bool read_forgotten) {
  BruteRange b;
  const uint64_t n = table.num_rows();
  for (RowId r = 0; r < n; ++r) {
    const bool live = table.IsActive(r);
    if (!live && !read_forgotten) continue;  // dropped partitions unreadable
    const Value v = table.value(p.col, r);
    if (v < p.lo || v >= p.hi) continue;
    ++b.all;
    if (live) {
      ++b.live;
      b.live_sum += static_cast<double>(v);
    }
  }
  return b;
}

void CheckRangeResult(const Workload& w, const Table& table,
                      const GroundTruthOracle& oracle,
                      const RangePredicate& p, const ResultSet& res,
                      Checks* checks) {
  const BruteRange b = BruteForce(table, p, w.mark_only());
  checks->Expect(res.size() == b.live,
                 "range count " + std::to_string(res.size()) +
                     " != brute-force live count " + std::to_string(b.live));
  bool all_live = true;
  for (RowId r : res.rows) all_live = all_live && table.IsActive(r);
  checks->Expect(all_live, "range result holds a forgotten row");
  const StatusOr<uint64_t> truth = oracle.CountRange(p.lo, p.hi);
  checks->Expect(truth.ok() && res.size() <= *truth,
                 "amnesic count exceeds the oracle's");
  if (w.mark_only()) {
    checks->Expect(truth.ok() && *truth == b.all,
                   "oracle count != brute-force count over all rows");
  }
}

void CheckAggResult(const Workload& w, const Table& table,
                    const GroundTruthOracle& oracle, const RangePredicate& p,
                    const AggregateResult& agg, Checks* checks) {
  const BruteRange b = BruteForce(table, p, w.mark_only());
  checks->Expect(agg.count == b.live, "AVG count != brute-force live count");
  if (b.live > 0) {
    const double avg = b.live_sum / static_cast<double>(b.live);
    checks->Expect(SameDouble(agg.avg, avg),
                   "AVG != brute-force average of the live values");
  }
  const StatusOr<AggregateResult> truth = oracle.AggregateRange(p.lo, p.hi);
  checks->Expect(truth.ok() && agg.count <= truth->count,
                 "amnesic AVG count exceeds the oracle's");
}

/// The live table as the benchmark last saw it, kept across close and
/// recovery.
struct TableImage {
  uint64_t rows = 0;
  uint64_t forgotten = 0;
  std::vector<bool> active;
  std::vector<Value> live_values;
};

TableImage Capture(const Table& t) {
  TableImage img;
  img.rows = t.num_rows();
  img.forgotten = t.lifetime_forgotten();
  img.active.resize(img.rows);
  for (RowId r = 0; r < img.rows; ++r) {
    img.active[r] = t.IsActive(r);
    if (img.active[r]) img.live_values.push_back(t.value(0, r));
  }
  return img;
}

void CheckRecovered(const TableImage& want, const Table& got,
                    Checks* checks) {
  checks->Expect(got.num_rows() == want.rows, "recovered row count differs");
  checks->Expect(got.lifetime_forgotten() == want.forgotten,
                 "recovered forgotten count differs");
  if (got.num_rows() != want.rows) return;
  bool vis = true;
  std::vector<Value> live;
  for (RowId r = 0; r < want.rows; ++r) {
    const bool a = got.IsActive(r);
    vis = vis && a == want.active[r];
    if (a) live.push_back(got.value(0, r));
  }
  checks->Expect(vis, "recovered visibility differs");
  checks->Expect(live == want.live_values, "recovered live values differ");
}

/// Durable-fifo invariants on the closed-over live table.
void CheckDurableTable(const Workload& w, const Table& t, Checks* checks) {
  const uint64_t n = t.num_rows();
  // FIFO plus an age deadline forget strictly oldest-first.
  RowId first_live = n;
  for (RowId r = 0; r < n; ++r) {
    if (t.IsActive(r)) {
      first_live = r;
      break;
    }
  }
  bool suffix = true, fresh = true;
  for (RowId r = first_live; r < n; ++r) {
    suffix = suffix && t.IsActive(r);
    fresh = fresh && t.current_batch() - t.batch_of(r) <=
                         w.config.vacuum_max_age_batches;
  }
  checks->Expect(suffix, "live set is not a suffix of row order");
  checks->Expect(fresh, "a live row is older than the vacuum deadline");

  // Forgotten rows read the scrub value: sealed rows straight from their
  // partition files, tail rows from memory.
  const uint64_t pr = t.partition_rows();
  const auto& parts = t.partitions();
  bool scrubbed = true, files_ok = true;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].dropped) continue;
    const std::string path = t.storage().dir + "/" +
                             PartitionDirName(parts[i].epoch_lo,
                                              parts[i].epoch_hi) +
                             "/" + PartitionColumnFileName("a");
    std::vector<Value> vals(pr);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    files_ok = files_ok && f != nullptr &&
               std::fseek(f, static_cast<long>(kPartitionHeaderBytes),
                          SEEK_SET) == 0 &&
               std::fread(vals.data(), sizeof(Value), pr, f) == pr;
    if (f != nullptr) std::fclose(f);
    for (uint64_t k = 0; k < pr && files_ok; ++k) {
      const RowId r = i * pr + k;
      scrubbed = scrubbed && (t.IsActive(r) ? vals[k] == t.value(0, r)
                                            : vals[k] == 0);
    }
  }
  for (RowId r = t.sealed_rows(); r < n; ++r) {
    if (!t.IsActive(r)) scrubbed = scrubbed && t.value(0, r) == 0;
  }
  checks->Expect(files_ok, "a live partition file could not be read");
  checks->Expect(scrubbed, "a forgotten row still holds its payload");
}

// ---------------------------------------------------------------------------
// The benchmark's query stream
// ---------------------------------------------------------------------------

struct StreamTotals {
  std::vector<double> range_us;
  std::vector<double> agg_us;
  uint64_t rows_returned = 0;
  uint64_t rows_scanned = 0;
  uint64_t morsels_scanned = 0;
  uint64_t morsels_skipped = 0;
  double seconds = 0.0;
};

/// Issues one batch worth of the stream against `table`: one serial client,
/// access recording off, so the database is left as it was. (A pool helper
/// waiting for a vCPU on a shared host spread the p99 of parallel stream
/// scans over 3x between runs; the loop's own queries keep the workload's
/// parallelism.) The first range and the first
/// AVG of every batch are checked by brute force once the batch's queries
/// are done, so the queries run back to back.
Status RunStream(const Workload& w, uint32_t ranges, uint32_t aggs,
                 const Table& table, const GroundTruthOracle& oracle,
                 Executor* exec, RangeQueryGenerator* gen, Rng* rng,
                 SpanRecorder* rec, uint32_t batch, StreamTotals* out,
                 Ops* ops, Checks* checks) {
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  const uint64_t scanned0 = m.scan_rows_scanned->Value();
  const uint64_t morsels0 = m.scan_morsels_scanned->Value();
  const uint64_t skipped0 = m.scan_morsels_skipped->Value();
  ExecOptions opts;
  opts.plan = PlanKind::kFullScan;
  opts.visibility = Visibility::kActiveOnly;
  opts.record_access = false;
  opts.parallelism = 1;
  opts.engine = w.config.engine;
  Scope stream(rec, "stream", "query", batch);
  RangePredicate first_range, first_agg;
  ResultSet range_result;
  AggregateResult agg_result;
  for (uint32_t i = 0; i < ranges + aggs; ++i) {
    const bool is_range = i < ranges;
    ++ops->queries;
    StatusOr<RangePredicate> pred = gen->Next(table, oracle, rng);
    if (!pred.ok()) {
      ++ops->queries_failed;
      return pred.status();
    }
    const int64_t t0 = NowNs();
    if (is_range) {
      StatusOr<ResultSet> res = [&] {
        Scope s(rec, "stream.range", "query", batch);
        return exec->ExecuteRange(*pred, opts);
      }();
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      if (!res.ok()) {
        ++ops->queries_failed;
        return res.status();
      }
      out->range_us.push_back(us);
      out->seconds += us / 1e6;
      out->rows_returned += res->size();
      if (i == 0) {
        first_range = *pred;
        range_result = std::move(*res);
      }
    } else {
      StatusOr<AggregateResult> agg = [&] {
        Scope s(rec, "stream.agg", "query", batch);
        return exec->ExecuteAggregate(*pred, opts);
      }();
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      if (!agg.ok()) {
        ++ops->queries_failed;
        return agg.status();
      }
      out->agg_us.push_back(us);
      out->seconds += us / 1e6;
      out->rows_returned += agg->count;
      if (i == ranges) {
        first_agg = *pred;
        agg_result = *agg;
      }
    }
  }
  {
    Scope s(rec, "stream.check", "bench", batch);
    if (ranges > 0) {
      CheckRangeResult(w, table, oracle, first_range, range_result, checks);
    }
    if (aggs > 0) {
      CheckAggResult(w, table, oracle, first_agg, agg_result, checks);
    }
  }
  out->rows_scanned += m.scan_rows_scanned->Value() - scanned0;
  out->morsels_scanned += m.scan_morsels_scanned->Value() - morsels0;
  out->morsels_skipped += m.scan_morsels_skipped->Value() - skipped0;
  return Status::OK();
}

Rng StreamRng(uint64_t seed) { return Rng(seed ^ 0x5EEDF00DCAFEull); }

/// In-memory workloads write nothing to disk, yet every workload reports
/// recover_s and the byte metrics. For them the benchmark writes one
/// checkpoint synchronously when the database closes: what a restart of
/// an in-memory database would read.
Status WriteShutdownSnapshot(const Table& table, const std::string& dir) {
  CheckpointerOptions o;
  o.dir = dir;
  o.async = false;
  AMNESIA_ASSIGN_OR_RETURN(BackgroundCheckpointer ckpt,
                           BackgroundCheckpointer::Make(o));
  AMNESIA_RETURN_NOT_OK(ckpt.Checkpoint(table, 0));
  return ckpt.WaitIdle();
}

// ---------------------------------------------------------------------------
// One round of the real loop (untraced)
// ---------------------------------------------------------------------------

struct LoopTotals {
  std::vector<double> setup_s;
  std::vector<double> batch_ms;
  std::vector<double> recover_s;
  std::vector<double> disk_bytes_per_live_row;
  std::vector<double> pf;
  /// p95 of each round's closing stream of kTailRanges ranges.
  std::vector<double> round_query_p95_us;
  uint64_t rows_ingested = 0;
  uint64_t bytes_written = 0;
  StreamTotals stream;
};

/// Per-batch results of one loop round, for the traced replica to match.
struct RoundRecord {
  std::vector<BatchMetrics> batches;
  std::vector<double> batch_ms;
};

constexpr int kSetupsPerRound = 5;
constexpr uint32_t kTailRanges = 2000;
constexpr int kRecoveriesPerRound = 3;

Status RunLoopRound(const Workload& w, uint64_t seed, const std::string& dir,
                    LoopTotals* tot, RoundRecord* record, Ops* ops,
                    Checks* checks) {
  const SimulationConfig c = ConfigFor(w, seed, dir);
  // Simulator::Make creates storage_dir but not its parent.
  AMNESIA_RETURN_NOT_OK(MakeDirs(dir));

  // Set-up is short next to the noise of a shared host, so each round
  // sets up several times and runs on the last database.
  std::unique_ptr<Simulator> sim;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    sim.reset();
    const int64_t s0 = NowNs();
    AMNESIA_ASSIGN_OR_RETURN(sim, Simulator::Make(c));
    AMNESIA_RETURN_NOT_OK(sim->Initialize());
    tot->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
  }

  AMNESIA_ASSIGN_OR_RETURN(RangeQueryGenerator gen,
                           RangeQueryGenerator::Make(w.config.query));
  Rng stream_rng = StreamRng(seed);
  // Over the live table, but with access recording off: the stream leaves
  // the database exactly as the loop alone would.
  Executor stream_exec(&sim->mutable_table(), nullptr);
  const uint64_t f = c.BatchInsertCount();
  const uint64_t wchar0 = ReadWchar();
  for (uint32_t b = 1; b <= w.batches_per_round; ++b) {
    ++ops->batches;
    const int64_t t0 = NowNs();
    StatusOr<BatchMetrics> m = sim->StepBatch();
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (!m.ok()) {
      ++ops->batches_failed;
      return m.status();
    }
    tot->batch_ms.push_back(ms);
    tot->pf.push_back(m->mean_pf);
    tot->rows_ingested += m->inserted;
    record->batches.push_back(*m);
    record->batch_ms.push_back(ms);
    checks->Expect(m->inserted == f, "batch ingested the wrong row count");
    checks->Expect(m->active <= c.dbsize, "live rows exceed DBSIZE");
    AMNESIA_RETURN_NOT_OK(RunStream(w, w.stream_ranges, w.stream_aggs,
                                    sim->table(), sim->oracle(), &stream_exec,
                                    &gen, &stream_rng, nullptr, b,
                                    &tot->stream, ops, checks));
  }
  AMNESIA_RETURN_NOT_OK(sim->FlushCheckpoints());
  {
    // The tail is read on the final database at rest: between batches the
    // history grows several-fold, so a high percentile over those queries
    // is the latency of the last batch's few queries, not a tail. It is
    // p95 because this shared host's stalls reach about 1% of queries:
    // their p99 spread 30-90% between runs, their p95 5-10%.
    StreamTotals tail;
    AMNESIA_RETURN_NOT_OK(RunStream(w, kTailRanges, 0, sim->table(),
                                    sim->oracle(), &stream_exec, &gen,
                                    &stream_rng, nullptr,
                                    w.batches_per_round, &tail, ops, checks));
    tot->round_query_p95_us.push_back(Quantile(tail.range_us, 0.95));
  }

  const Table& t = sim->table();
  const uint64_t inserted = c.dbsize + f * w.batches_per_round;
  checks->Expect(t.lifetime_inserted() == inserted,
                 "table inserted count != rows the benchmark ingested");
  checks->Expect(t.num_active() + t.lifetime_forgotten() == inserted,
                 "live + forgotten != rows inserted");
  checks->Expect(t.num_active() <= c.dbsize, "live rows exceed DBSIZE");
  const TableImage image = Capture(t);

  // What recovery reads: the durable directory, or (in memory) one
  // snapshot written at shutdown.
  std::string recover_dir, log_path;
  if (w.durable()) {
    CheckDurableTable(w, t, checks);
    recover_dir = c.checkpoint_dir;
    log_path = sim->event_log_path();
    tot->disk_bytes_per_live_row.push_back(
        Ratio(static_cast<double>(DirBytes(dir)),
              static_cast<double>(t.num_active())));
  } else {
    recover_dir = dir + "/snapshot";
    AMNESIA_RETURN_NOT_OK(WriteShutdownSnapshot(t, recover_dir));
    tot->disk_bytes_per_live_row.push_back(
        Ratio(static_cast<double>(DirBytes(recover_dir)),
              static_cast<double>(t.num_active())));
  }
  tot->bytes_written += ReadWchar() - wchar0;
  sim.reset();  // close the database

  // On durable-fifo, recovery loads the last checkpoint and replays the
  // journal written after it; each repeat is checked.
  std::optional<RecoveredState> rec;
  for (int i = 0; i < kRecoveriesPerRound; ++i) {
    rec.reset();
    ++ops->recoveries;
    const int64_t r0 = NowNs();
    StatusOr<RecoveredState> got = Recover(recover_dir, log_path);
    const double rs = static_cast<double>(NowNs() - r0) / 1e9;
    if (!got.ok() || got->shards.size() != 1) {
      ++ops->recoveries_failed;
      return got.ok() ? Status::Internal("recovered shard count != 1")
                      : got.status();
    }
    tot->recover_s.push_back(rs);
    rec.emplace(std::move(got).value());
    CheckRecovered(image, rec->shards[0], checks);
  }

  if (w.durable()) {
    const std::string audit = AuditDirFor(c.checkpoint_dir);
    StatusOr<AuditChainReport> chain = VerifyAuditChain(audit);
    checks->Expect(chain.ok() && chain->ok, "audit chain does not verify");
    StatusOr<std::vector<AuditRecord>> records = ReadAuditRecords(audit);
    uint64_t marked = 0;
    if (records.ok()) {
      for (const AuditRecord& r : *records) marked += r.rows_marked;
    }
    const uint64_t recovered = rec->shards[0].lifetime_forgotten();
    checks->Expect(records.ok() && !records->empty() &&
                       marked == recovered &&
                       records->back().lifetime_forgotten == recovered,
                   "audit totals != recovered forgotten count");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The traced replica of the loop
// ---------------------------------------------------------------------------

/// Wires the components Simulator::Wire wires, from the same config, and
/// steps them in StepBatch's order with a span around every call.
class TracedLoop {
 public:
  TracedLoop(const SimulationConfig& config, SpanRecorder* rec)
      : config_(config),
        rec_(rec),
        rng_(config.seed),
        table_(Table::Make(Schema::SingleColumn(
                               "a", config.distribution.domain_lo,
                               config.distribution.domain_hi))
                   .value()) {}
  TracedLoop(const TracedLoop&) = delete;
  TracedLoop& operator=(const TracedLoop&) = delete;

  Status Wire();
  Status Initialize();
  StatusOr<BatchMetrics> StepBatch();
  /// Untimed reads of the new rows' values for the twin oracle.
  const std::vector<Value>& last_ingested() const { return last_values_; }

  Table& table() { return table_; }
  const GroundTruthOracle& oracle() const { return oracle_; }
  const AuditLedger* ledger() const { return ledger_.get(); }
  Status Flush() {
    if (log_) AMNESIA_RETURN_NOT_OK(log_->Flush());
    return checkpointer_ ? checkpointer_->WaitIdle() : Status::OK();
  }

 private:
  Status LogAppendedRows(const std::vector<RowId>& rows, bool begin_batch);
  StatusOr<QueryPrecision> RunOneRangeQuery();
  Status RunQueryBatch(BatchMetrics* metrics);

  SimulationConfig config_;
  SpanRecorder* rec_;
  Rng rng_;
  Table table_;
  GroundTruthOracle oracle_;
  ColdStore cold_;
  SummaryStore summaries_;
  IndexManager indexes_;
  std::optional<ValueGenerator> values_;
  std::optional<RangeQueryGenerator> queries_;
  std::unique_ptr<AmnesiaPolicy> policy_;
  std::optional<AmnesiaController> controller_;
  std::optional<Executor> executor_;
  std::unique_ptr<EventLogBase> log_;
  std::unique_ptr<AuditLedger> ledger_;
  obs::SlaTracker sla_;
  std::optional<BackgroundCheckpointer> checkpointer_;
  uint32_t batch_ = 0;
  std::vector<Value> last_values_;
};

Status TracedLoop::Wire() {
  if (config_.storage_backend == StorageBackend::kMapped) {
    AMNESIA_RETURN_NOT_OK(RemoveDirRecursive(config_.storage_dir));
    StorageOptions storage;
    storage.backend = StorageBackend::kMapped;
    storage.dir = config_.storage_dir;
    storage.partition_rows = config_.partition_rows;
    AMNESIA_ASSIGN_OR_RETURN(
        table_, Table::Make(Schema::SingleColumn(
                                "a", config_.distribution.domain_lo,
                                config_.distribution.domain_hi),
                            storage));
  }
  AMNESIA_ASSIGN_OR_RETURN(ValueGenerator vg,
                           ValueGenerator::Make(config_.distribution));
  values_.emplace(std::move(vg));
  AMNESIA_ASSIGN_OR_RETURN(RangeQueryGenerator qg,
                           RangeQueryGenerator::Make(config_.query));
  queries_.emplace(std::move(qg));
  AMNESIA_ASSIGN_OR_RETURN(policy_, CreatePolicy(config_.policy, &oracle_));
  ControllerOptions copts;
  copts.mode = BudgetMode::kFixedTupleCount;
  copts.dbsize_budget = config_.dbsize;
  copts.backend = config_.backend;
  copts.payload_col = config_.query.col;
  copts.compact_every_n_rounds = config_.compact_every_n_rounds;
  AMNESIA_ASSIGN_OR_RETURN(
      AmnesiaController ctrl,
      AmnesiaController::Make(copts, policy_.get(), &table_, &indexes_,
                              &cold_, &summaries_));
  controller_.emplace(std::move(ctrl));
  executor_.emplace(&table_, &indexes_);

  if (config_.checkpoint_every_n_batches > 0) {
    const std::string& dir = config_.checkpoint_dir;
    AMNESIA_RETURN_NOT_OK(EnsureDir(dir));
    AMNESIA_RETURN_NOT_OK(ClearCheckpointArtifacts(dir));
    if (config_.log_format != LogFormat::kSegmented) {
      return Status::InvalidArgument("the traced loop journals segmented");
    }
    SegmentedLogOptions sopts;
    sopts.max_segment_bytes = config_.log_segment_bytes;
    sopts.sync = config_.log_sync;
    AMNESIA_ASSIGN_OR_RETURN(
        SegmentedEventLog log,
        SegmentedEventLog::Open(EventLogPathFor(dir, LogFormat::kSegmented),
                                sopts));
    log_ = std::make_unique<SegmentedEventLog>(std::move(log));
    controller_->set_event_sink(log_.get(), 0);
    if (config_.audit_ledger) {
      AuditLedgerOptions aopts;
      aopts.max_segment_bytes = config_.audit_segment_bytes;
      AMNESIA_ASSIGN_OR_RETURN(AuditLedger ledger,
                               AuditLedger::Open(AuditDirFor(dir), aopts));
      ledger_ = std::make_unique<AuditLedger>(std::move(ledger));
      controller_->set_audit_ledger(ledger_.get(), log_.get());
    }
    CheckpointerOptions copts2;
    copts2.dir = dir;
    copts2.async = config_.checkpoint_async;
    copts2.retain = config_.checkpoint_retention;
    copts2.log_format = config_.log_format;
    copts2.log = log_.get();
    AMNESIA_ASSIGN_OR_RETURN(BackgroundCheckpointer ckpt,
                             BackgroundCheckpointer::Make(copts2));
    checkpointer_.emplace(std::move(ckpt));
  }
  if (config_.vacuum_max_age_batches > 0) {
    controller_->set_sla_tracker(&sla_);
  }
  return Status::OK();
}

Status TracedLoop::LogAppendedRows(const std::vector<RowId>& rows,
                                   bool begin_batch) {
  if (!log_) return Status::OK();
  if (begin_batch) {
    Event begin;
    begin.kind = EventKind::kBeginBatch;
    AMNESIA_RETURN_NOT_OK(log_->Append(begin));
  }
  Event append;
  append.kind = EventKind::kAppendRows;
  append.columns.resize(table_.num_columns());
  for (auto& col : append.columns) col.reserve(rows.size());
  for (RowId r : rows) {
    for (size_t c = 0; c < table_.num_columns(); ++c) {
      append.columns[c].push_back(table_.value(c, r));
    }
  }
  return log_->Append(append);
}

Status TracedLoop::Initialize() {
  AMNESIA_ASSIGN_OR_RETURN(
      std::vector<RowId> rows,
      InitialLoad(&table_, &oracle_, &*values_,
                  static_cast<size_t>(config_.dbsize), &rng_));
  last_values_.clear();
  for (RowId r : rows) last_values_.push_back(table_.value(0, r));
  AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, false));
  if (log_) AMNESIA_RETURN_NOT_OK(log_->Flush());
  if (checkpointer_) {
    AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
        table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
  }
  return Status::OK();
}

StatusOr<QueryPrecision> TracedLoop::RunOneRangeQuery() {
  StatusOr<RangePredicate> pred = [&] {
    Scope s(rec_, "query.gen", "workload", batch_);
    return queries_->Next(table_, oracle_, &rng_);
  }();
  AMNESIA_RETURN_NOT_OK(pred.status());
  ExecOptions opts;
  opts.plan = config_.plan;
  opts.visibility = Visibility::kActiveOnly;
  opts.record_access = config_.record_access;
  opts.parallelism = config_.parallelism;
  opts.engine = config_.engine;
  StatusOr<ResultSet> result = [&] {
    Scope s(rec_, "query.exec", "query", batch_);
    return executor_->ExecuteRange(*pred, opts);
  }();
  AMNESIA_RETURN_NOT_OK(result.status());
  StatusOr<uint64_t> truth = [&] {
    Scope s(rec_, "query.truth", "query", batch_);
    return oracle_.CountRange(pred->lo, pred->hi);
  }();
  AMNESIA_RETURN_NOT_OK(truth.status());
  return MakeRangePrecision(result->size(), *truth);
}

Status TracedLoop::RunQueryBatch(BatchMetrics* metrics) {
  PrecisionAccumulator ranges;
  for (uint32_t q = 0; q < config_.queries_per_batch; ++q) {
    AMNESIA_ASSIGN_OR_RETURN(QueryPrecision p, RunOneRangeQuery());
    ranges.Add(p);
  }
  if (config_.queries_per_batch > 0) {
    metrics->avg_rf = ranges.AvgRf();
    metrics->avg_mf = ranges.AvgMf();
    metrics->mean_pf = ranges.MeanPf();
    metrics->error_margin = ranges.ErrorMargin();
  }
  if (config_.aggregate_queries_per_batch > 0) {
    double precision_sum = 0.0;
    double rel_error_sum = 0.0;
    for (uint32_t q = 0; q < config_.aggregate_queries_per_batch; ++q) {
      RangePredicate pred = RangePredicate::All(config_.query.col);
      if (config_.aggregate_over_range) {
        Scope s(rec_, "query.gen", "workload", batch_);
        AMNESIA_ASSIGN_OR_RETURN(pred, queries_->Next(table_, oracle_, &rng_));
      }
      ExecOptions opts;
      opts.plan = config_.plan;
      opts.visibility = Visibility::kActiveOnly;
      opts.record_access = config_.record_access;
      opts.parallelism = config_.parallelism;
      opts.engine = config_.engine;
      StatusOr<AggregateResult> amnesic = [&] {
        Scope s(rec_, "query.agg", "query", batch_);
        return executor_->ExecuteAggregate(pred, opts);
      }();
      AMNESIA_RETURN_NOT_OK(amnesic.status());
      StatusOr<AggregateResult> truth = [&] {
        Scope s(rec_, "query.truth", "query", batch_);
        return oracle_.AggregateRange(pred.lo, pred.hi);
      }();
      AMNESIA_RETURN_NOT_OK(truth.status());
      precision_sum += AggregatePrecision(amnesic->avg, truth->avg);
      rel_error_sum += AggregateRelativeError(amnesic->avg, truth->avg);
    }
    const double n = static_cast<double>(config_.aggregate_queries_per_batch);
    metrics->aggregate_precision = precision_sum / n;
    metrics->aggregate_rel_error = rel_error_sum / n;
  }
  return Status::OK();
}

StatusOr<BatchMetrics> TracedLoop::StepBatch() {
  BatchMetrics metrics;
  metrics.batch = ++batch_;
  Scope root(rec_, "batch", "sim", batch_);

  std::vector<RowId> rows;
  {
    Scope s(rec_, "ingest", "workload", batch_);
    AMNESIA_ASSIGN_OR_RETURN(
        rows, ApplyUpdateBatch(&table_, &oracle_, &*values_,
                               static_cast<size_t>(config_.BatchInsertCount()),
                               &rng_));
  }
  metrics.inserted = rows.size();
  last_values_.clear();
  for (RowId r : rows) last_values_.push_back(table_.value(0, r));
  if (log_) {
    Scope s(rec_, "journal.append", "durability", batch_);
    AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, true));
  }
  {
    Scope s(rec_, "amnesia.enforce", "amnesia", batch_);
    AMNESIA_RETURN_NOT_OK(controller_->EnforceBudget(&rng_));
  }
  if (config_.vacuum_max_age_batches > 0) {
    Scope s(rec_, "amnesia.vacuum", "amnesia", batch_);
    AMNESIA_RETURN_NOT_OK(
        controller_->VacuumExpired(config_.vacuum_max_age_batches).status());
  }
  metrics.active = table_.num_active();
  metrics.forgotten_total = table_.lifetime_forgotten();
  if (log_) {
    Scope s(rec_, "journal.flush", "durability", batch_);
    AMNESIA_RETURN_NOT_OK(log_->Flush());
  }
  if (config_.vacuum_max_age_batches > 0) {
    Scope s(rec_, "attest", "obs", batch_);
    obs::SlaAttestation att;
    att.checked = true;
    att.batch = table_.current_batch();
    att.max_age_batches = config_.vacuum_max_age_batches;
    AMNESIA_ASSIGN_OR_RETURN(
        att.live_rows,
        CountRange(table_, RangePredicate::All(config_.query.col),
                   Visibility::kActiveOnly, config_.engine));
    const uint64_t current = table_.current_batch();
    const uint64_t n = table_.num_rows();
    uint64_t overdue = 0;
    for (RowId r = 0; r < n; ++r) {
      if (!table_.IsActive(r)) continue;
      if (current - table_.batch_of(r) > config_.vacuum_max_age_batches) {
        ++overdue;
      }
    }
    att.overdue_rows = overdue;
    att.passed = overdue == 0 && att.live_rows == table_.num_active();
    sla_.RecordAttestation(std::string(PolicyKindToString(policy_->kind())),
                           att);
  }
  {
    Scope s(rec_, "query.loop", "query", batch_);
    AMNESIA_RETURN_NOT_OK(RunQueryBatch(&metrics));
  }
  if (checkpointer_ && batch_ % config_.checkpoint_every_n_batches == 0) {
    Scope s(rec_, "checkpoint.capture", "durability", batch_);
    AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
        table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
  }
  return metrics;
}

/// Registry readings bracketing part of a traced round.
struct Registry {
  uint64_t log_appends = 0, log_fsyncs = 0;
  uint64_t parts_sealed = 0, parts_dropped = 0;
  uint64_t commits = 0, ckpt_bytes = 0;
  obs::HistogramSnapshot capture_ns, write_ns, gc_ns;

  static Registry Read() {
    obs::EngineMetrics& m = obs::EngineMetrics::Get();
    Registry r;
    r.log_appends = m.log_appends->Value();
    r.log_fsyncs = m.log_fsyncs->Value();
    r.parts_sealed = m.storage_partitions_created->Value();
    r.parts_dropped = m.storage_partitions_dropped->Value();
    r.commits = m.checkpoint_commits->Value();
    r.ckpt_bytes = m.checkpoint_bytes_written->Value();
    r.capture_ns = m.checkpoint_capture_ns->Snapshot();
    r.write_ns = m.checkpoint_write_ns->Snapshot();
    r.gc_ns = m.checkpoint_gc_ns->Snapshot();
    return r;
  }
};

/// Sums behind the per-layer metrics, over every traced round.
struct LayerTotals {
  uint64_t batches = 0, range_queries = 0, agg_queries = 0, truth_calls = 0;
  uint64_t rows_ingested = 0, rows_forgotten = 0, rounds = 0;
  double ingest_ns = 0, seal_ns = 0, enforce_ns = 0, vacuum_ns = 0,
         append_ns = 0, flush_ns = 0, attest_ns = 0,
         exec_ns = 0, agg_ns = 0, truth_ns = 0;
  std::vector<double> traced_batch_ms, loop_batch_ms, unattributed_ms;
  double history_per_live = 0;
  uint64_t log_appends = 0, log_fsyncs = 0, parts_sealed = 0,
           parts_dropped = 0, commits = 0, ckpt_bytes = 0;
  uint64_t capture_count = 0, capture_sum_ns = 0, write_count = 0,
           write_sum_ns = 0, gc_count = 0, gc_sum_ns = 0;
  uint64_t journal_bytes = 0, journal_rows = 0;
  uint64_t audit_bytes = 0, audit_records = 0;
  StreamTotals stream;
};

/// Largest size seen per journal segment file; segments only grow until
/// sealed, and retention keeps them for several batches after.
void ObserveSegments(const std::string& dir,
                     std::map<std::string, uint64_t>* sizes) {
  std::error_code ec;
  for (auto it = fs::directory_iterator(dir, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    uint64_t& s = (*sizes)[it->path().filename().string()];
    s = std::max<uint64_t>(s, it->file_size(ec));
  }
}

Status RunTracedRound(const Workload& w, uint64_t seed, const std::string& dir,
                      const RoundRecord& loop, SpanRecorder* rec,
                      LayerTotals* lt, Ops* ops, Checks* checks) {
  const SimulationConfig c = ConfigFor(w, seed, dir);
  AMNESIA_RETURN_NOT_OK(MakeDirs(dir));
  auto replica = std::make_unique<TracedLoop>(c, rec);
  const Registry r0 = Registry::Read();
  AMNESIA_RETURN_NOT_OK(replica->Wire());
  AMNESIA_RETURN_NOT_OK(replica->Initialize());

  GroundTruthOracle twin;
  for (Value v : replica->last_ingested()) twin.Append(v);
  twin.Seal();
  AMNESIA_ASSIGN_OR_RETURN(RangeQueryGenerator gen,
                           RangeQueryGenerator::Make(w.config.query));
  Rng stream_rng = StreamRng(seed);
  Executor stream_exec(&replica->table(), nullptr);
  const std::string seg_dir =
      w.durable() ? EventLogPathFor(c.checkpoint_dir, LogFormat::kSegmented)
                  : std::string();
  std::map<std::string, uint64_t> seg_sizes;
  const Registry r1 = Registry::Read();
  const uint64_t forgotten0 = replica->table().lifetime_forgotten();

  for (uint32_t b = 1; b <= w.batches_per_round; ++b) {
    ++ops->batches;
    const size_t first_span = rec->spans().size();
    StatusOr<BatchMetrics> m = replica->StepBatch();
    if (!m.ok()) {
      ++ops->batches_failed;
      return m.status();
    }
    // Reproduction check against the untraced loop's batch b.
    const BatchMetrics& want = loop.batches[b - 1];
    checks->Expect(m->inserted == want.inserted && m->active == want.active &&
                       m->forgotten_total == want.forgotten_total &&
                       m->avg_rf == want.avg_rf && m->avg_mf == want.avg_mf,
                   "traced batch " + std::to_string(b) +
                       " does not reproduce the loop's results");

    // Attribute this batch's spans.
    const std::vector<Span>& spans = rec->spans();
    const Span root = spans[first_span];
    double covered_ns = 0;
    for (size_t i = first_span; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = static_cast<double>(s.dur_ns());
      if (s.parent == root.id) covered_ns += d;
      const std::string name = s.name;
      if (name == "ingest") {
        lt->ingest_ns += d;
      } else if (name == "amnesia.enforce") {
        lt->enforce_ns += d;
      } else if (name == "amnesia.vacuum") {
        lt->vacuum_ns += d;
      } else if (name == "journal.append") {
        lt->append_ns += d;
      } else if (name == "journal.flush") {
        lt->flush_ns += d;
      } else if (name == "attest") {
        lt->attest_ns += d;
      } else if (name == "query.exec") {
        lt->exec_ns += d;
        ++lt->range_queries;
      } else if (name == "query.agg") {
        lt->agg_ns += d;
        ++lt->agg_queries;
      } else if (name == "query.truth") {
        lt->truth_ns += d;
        ++lt->truth_calls;
      }
    }
    const double root_ms = static_cast<double>(root.dur_ns()) / 1e6;
    lt->traced_batch_ms.push_back(root_ms);
    lt->loop_batch_ms.push_back(loop.batch_ms[b - 1]);
    lt->unattributed_ms.push_back(loop.batch_ms[b - 1] - covered_ns / 1e6);
    lt->rows_ingested += m->inserted;
    ++lt->batches;

    // Probes outside the batch root: the twin oracle's seal and the
    // benchmark's query stream.
    for (Value v : replica->last_ingested()) twin.Append(v);
    {
      const int64_t t0 = NowNs();
      Scope s(rec, "oracle.seal", "workload", b);
      twin.Seal();
      lt->seal_ns += static_cast<double>(NowNs() - t0);
    }
    AMNESIA_RETURN_NOT_OK(RunStream(w, w.stream_ranges, w.stream_aggs,
                                    replica->table(), replica->oracle(),
                                    &stream_exec, &gen, &stream_rng, rec, b,
                                    &lt->stream, ops, checks));
    if (!seg_dir.empty()) ObserveSegments(seg_dir, &seg_sizes);
  }
  AMNESIA_RETURN_NOT_OK(replica->Flush());
  const Registry r2 = Registry::Read();
  if (!seg_dir.empty()) ObserveSegments(seg_dir, &seg_sizes);

  const Table& t = replica->table();
  ++lt->rounds;
  lt->rows_forgotten += t.lifetime_forgotten() - forgotten0;
  lt->history_per_live +=
      Ratio(static_cast<double>(t.num_rows()),
            static_cast<double>(t.num_active()));
  lt->log_appends += r2.log_appends - r1.log_appends;
  lt->log_fsyncs += r2.log_fsyncs - r1.log_fsyncs;
  lt->parts_sealed += r2.parts_sealed - r0.parts_sealed;
  lt->parts_dropped += r2.parts_dropped - r0.parts_dropped;
  lt->commits += r2.commits - r0.commits;
  lt->ckpt_bytes += r2.ckpt_bytes - r0.ckpt_bytes;
  lt->capture_count += r2.capture_ns.count - r0.capture_ns.count;
  lt->capture_sum_ns += r2.capture_ns.sum - r0.capture_ns.sum;
  lt->write_count += r2.write_ns.count - r0.write_ns.count;
  lt->write_sum_ns += r2.write_ns.sum - r0.write_ns.sum;
  lt->gc_count += r2.gc_ns.count - r0.gc_ns.count;
  lt->gc_sum_ns += r2.gc_ns.sum - r0.gc_ns.sum;
  for (const auto& [name, bytes] : seg_sizes) lt->journal_bytes += bytes;
  lt->journal_rows += t.lifetime_inserted();
  if (replica->ledger() != nullptr) {
    lt->audit_bytes += DirBytes(replica->ledger()->dir());
    lt->audit_records += replica->ledger()->next_seq();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->workdir.empty();
}

class MetricsJson {
 public:
  void Add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& str() const { return body_; }

 private:
  std::string body_;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: amnesia_e2e --workload <durable-fifo|paper-uniform|"
                 "recent-rot> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir> [--trace-dir <dir>]\n");
    return 2;
  }
  const std::optional<Workload> found = FindWorkload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  Ops ops;
  Checks checks;
  LoopTotals loop;
  LayerTotals layers;
  SpanRecorder rec;
  Status status;
  const int64_t start = NowNs();
  uint32_t rounds = 0;
  // Whole rounds only, so every run attempts the same operations in the
  // same proportions whatever its length. Round 0 warms the heap, the page
  // cache and the scan pool: it is checked like the others, not timed.
  // Peak memory is read after it: the peak of a process that ran one
  // round, which later rounds' heap reuse cannot move with their number.
  double peak_rss_mb = 0;
  while (status.ok() &&
         (rounds == 0 ||
          static_cast<double>(NowNs() - start) / 1e9 < args.seconds ||
          loop.batch_ms.size() < 100 || loop.round_query_p95_us.size() < 3)) {
    const std::string dir = args.workdir + "/round-" + std::to_string(rounds);
    RoundRecord record;
    LoopTotals warmup;
    status = RunLoopRound(w, args.seed, dir + "/loop",
                          rounds == 0 ? &warmup : &loop, &record, &ops,
                          &checks);
    if (status.ok() && args.trace && rounds > 0) {
      status = RunTracedRound(w, args.seed, dir + "/traced", record, &rec,
                              &layers, &ops, &checks);
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (rounds == 0) peak_rss_mb = PeakRssMiB();
    ++rounds;
  }
  std::printf("workload %s seed %llu rounds %u: batches %llu attempted %llu "
              "failed, queries %llu attempted %llu failed, recoveries %llu "
              "attempted %llu failed, check failures %llu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              rounds, static_cast<unsigned long long>(ops.batches),
              static_cast<unsigned long long>(ops.batches_failed),
              static_cast<unsigned long long>(ops.queries),
              static_cast<unsigned long long>(ops.queries_failed),
              static_cast<unsigned long long>(ops.recoveries),
              static_cast<unsigned long long>(ops.recoveries_failed),
              static_cast<unsigned long long>(checks.failures));
  // No workload has an operation that is expected to fail. A failed one
  // (or a set-up, flush or recovery step around it) ends the run early, so
  // its figures would cover fewer rounds than asked: no result is printed.
  if (!status.ok()) {
    std::fprintf(stderr, "operation failed: %s\n", status.ToString().c_str());
    return 1;
  }


  MetricsJson out;
  if (!args.trace) {
    double batch_s = 0;
    for (double ms : loop.batch_ms) batch_s += ms / 1e3;
    out.Add("setup_s", Quantile(loop.setup_s, 0.5), "s");
    out.Add("ingest_rows_per_s",
            Ratio(static_cast<double>(loop.rows_ingested), batch_s), "rows/s");
    out.Add("batch_p50_ms", Quantile(loop.batch_ms, 0.5), "ms");
    out.Add("batch_p90_ms", Quantile(loop.batch_ms, 0.9), "ms");
    out.Add("query_p50_us", Quantile(loop.stream.range_us, 0.5), "us");
    out.Add("query_p95_us", Quantile(loop.round_query_p95_us, 0.5), "us");
    out.Add("agg_p50_us", Quantile(loop.stream.agg_us, 0.5), "us");
    out.Add("recover_s", Quantile(loop.recover_s, 0.5), "s");
    out.Add("write_bytes_per_row",
            Ratio(static_cast<double>(loop.bytes_written),
                  static_cast<double>(loop.rows_ingested)),
            "B/row");
    out.Add("disk_bytes_per_live_row",
            Quantile(loop.disk_bytes_per_live_row, 0.5), "B/row");
    out.Add("peak_rss_mb", peak_rss_mb, "MiB");
    out.Add("precision_pf", Mean(loop.pf), "ratio");
  } else {
    const LayerTotals& l = layers;
    const double nb = static_cast<double>(l.batches);
    const double ms = 1e6;
    out.Add("sim.unattributed_ms", Quantile(l.unattributed_ms, 0.5), "ms");
    out.Add("trace.overhead_ms",
            Quantile(l.traced_batch_ms, 0.5) - Quantile(l.loop_batch_ms, 0.5),
            "ms");
    out.Add("ingest.ns_per_row",
            Ratio(l.ingest_ns, static_cast<double>(l.rows_ingested)), "ns/row");
    out.Add("oracle.seal_ms", Ratio(l.seal_ns / ms, nb), "ms");
    out.Add("storage.history_rows_per_live_row",
            Ratio(l.history_per_live, static_cast<double>(l.rounds)), "ratio");
    out.Add("storage.partitions_sealed",
            Ratio(static_cast<double>(l.parts_sealed),
                  static_cast<double>(l.rounds)), "count");
    out.Add("storage.partitions_dropped",
            Ratio(static_cast<double>(l.parts_dropped),
                  static_cast<double>(l.rounds)), "count");
    out.Add("amnesia.enforce_ms", Ratio(l.enforce_ns / ms, nb), "ms");
    out.Add("amnesia.vacuum_ms", Ratio(l.vacuum_ns / ms, nb), "ms");
    out.Add("amnesia.ns_per_forgotten_row",
            Ratio(l.enforce_ns + l.vacuum_ns,
                  static_cast<double>(l.rows_forgotten)),
            "ns/row");
    out.Add("audit.bytes_per_record",
            Ratio(static_cast<double>(l.audit_bytes),
                  static_cast<double>(l.audit_records)),
            "B");
    out.Add("journal.append_ms", Ratio(l.append_ns / ms, nb), "ms");
    out.Add("journal.flush_ms", Ratio(l.flush_ns / ms, nb), "ms");
    // Ingest journals two events per batch (begin + rows); the rest are
    // forget-path events.
    out.Add("journal.events_per_forgotten_row",
            l.log_appends == 0
                ? 0.0
                : Ratio(static_cast<double>(l.log_appends) - 2.0 * nb,
                        static_cast<double>(l.rows_forgotten)),
            "events/row");
    out.Add("journal.bytes_per_row",
            Ratio(static_cast<double>(l.journal_bytes),
                  static_cast<double>(l.journal_rows)),
            "B/row");
    out.Add("journal.flushes_per_batch",
            Ratio(static_cast<double>(l.log_fsyncs), nb), "count");
    out.Add("checkpoint.capture_ms",
            Ratio(static_cast<double>(l.capture_sum_ns) / ms,
                  static_cast<double>(l.capture_count)),
            "ms");
    out.Add("checkpoint.write_ms",
            Ratio(static_cast<double>(l.write_sum_ns) / ms,
                  static_cast<double>(l.write_count)),
            "ms");
    out.Add("checkpoint.gc_ms",
            Ratio(static_cast<double>(l.gc_sum_ns) / ms,
                  static_cast<double>(l.gc_count)),
            "ms");
    out.Add("checkpoint.bytes_per_commit",
            Ratio(static_cast<double>(l.ckpt_bytes),
                  static_cast<double>(l.commits)),
            "B");
    out.Add("attest.ms", Ratio(l.attest_ns / ms, nb), "ms");
    out.Add("query.exec_us",
            Ratio(l.exec_ns / 1e3, static_cast<double>(l.range_queries)), "us");
    out.Add("query.agg_us",
            Ratio(l.agg_ns / 1e3, static_cast<double>(l.agg_queries)), "us");
    out.Add("query.truth_us",
            Ratio(l.truth_ns / 1e3, static_cast<double>(l.truth_calls)), "us");
    out.Add("scan.rows_examined_per_result",
            Ratio(static_cast<double>(l.stream.rows_scanned),
                  static_cast<double>(l.stream.rows_returned)),
            "ratio");
    out.Add("scan.morsel_skip_ratio",
            Ratio(static_cast<double>(l.stream.morsels_skipped),
                  static_cast<double>(l.stream.morsels_skipped +
                                      l.stream.morsels_scanned)),
            "ratio");
    out.Add("scan.rows_per_s",
            Ratio(static_cast<double>(l.stream.rows_scanned), l.stream.seconds),
            "rows/s");

    const std::string table = rec.SelfTimeTable();
    std::fprintf(stderr, "%s", table.c_str());
    if (!args.trace_dir.empty()) {
      fs::create_directories(args.trace_dir);
      const std::string base = args.trace_dir + "/" + w.name + "-seed" +
                               std::to_string(args.seed);
      std::ofstream(base + ".layers.tsv") << table;
      if (!rec.WriteChromeTrace(base + ".trace.json")) {
        std::fprintf(stderr, "could not write %s.trace.json\n", base.c_str());
      } else {
        std::fprintf(stderr, "trace: %s.trace.json\n", base.c_str());
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              checks.failures == 0 ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()),
              out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
