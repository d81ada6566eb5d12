// Copyright 2026 The AmnesiaDB Authors
//
// In-memory causal span recorder for the traced benchmark run. Each span
// carries an id, the id of the span open around it (0 for a root) and the
// batch number it belongs to. Spans nest strictly (one thread), so self
// time is a span's duration minus the durations of its direct children.
// Nothing is written while the run measures; WriteChromeTrace and
// SelfTimeTable render the recording once the run is over.

#ifndef AMNESIA_E2E_BENCH_SPAN_TRACE_H_
#define AMNESIA_E2E_BENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root.
  uint32_t batch = 0;
  const char* name = "";   ///< String literal owned by the call site.
  const char* layer = "";  ///< Module the span's call lands in.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t dur_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  /// Opens a span as a child of the innermost open span.
  uint32_t Begin(const char* name, const char* layer, uint32_t batch) {
    Span s;
    s.id = static_cast<uint32_t>(spans_.size()) + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.batch = batch;
    s.name = name;
    s.layer = layer;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }

  /// Closes the innermost open span, which must be `id`.
  void End(uint32_t id) {
    spans_[id - 1].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children, per span id.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ns();
    for (const Span& s : spans_) {
      if (s.parent != 0) self[s.parent - 1] -= s.dur_ns();
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" complete events), loadable in Perfetto.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span_id\":%u,\"parent_id\":%u,\"batch\":%u}}",
                   i == 0 ? "" : ",", s.name, s.layer,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.dur_ns()) / 1e3, s.id, s.parent,
                   s.batch);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  /// One line per span name: calls, total and self milliseconds.
  std::string SelfTimeTable() const {
    struct Row {
      std::string layer;
      uint64_t calls = 0;
      int64_t total_ns = 0;
      int64_t self_ns = 0;
    };
    std::map<std::string, Row> rows;
    const std::vector<int64_t> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      r.layer = spans_[i].layer;
      ++r.calls;
      r.total_ns += spans_[i].dur_ns();
      r.self_ns += self[i];
    }
    std::string out = "layer\tspan\tcalls\ttotal_ms\tself_ms\n";
    char line[256];
    for (const auto& [name, r] : rows) {
      std::snprintf(line, sizeof(line), "%s\t%s\t%llu\t%.3f\t%.3f\n",
                    r.layer.c_str(), name.c_str(),
                    static_cast<unsigned long long>(r.calls),
                    static_cast<double>(r.total_ns) / 1e6,
                    static_cast<double>(r.self_ns) / 1e6);
      out += line;
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span around one call; records nothing when `rec` is null, so the
/// same code path serves the untraced and the traced run.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, const char* layer,
        uint32_t batch)
      : rec_(rec), id_(rec ? rec->Begin(name, layer, batch) : 0) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

}  // namespace e2e

#endif  // AMNESIA_E2E_BENCH_SPAN_TRACE_H_
