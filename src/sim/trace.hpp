// Span accounting for latency-breakdown reports (paper Fig. 5).
//
// The stage scheduler wraps each MDK invocation in a span; the accumulator
// sums wall-clock cycles per category. Because LoopLynx reuses kernels
// *temporally*, top-level stage spans tile the timeline and the per-category
// totals are exactly the paper's breakdown. Optionally retains the full span
// list for debugging.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace looplynx::sim {

class Trace {
 public:
  struct Span {
    std::string category;
    Cycles begin = 0;
    Cycles end = 0;
  };

  /// If `keep_spans` is false only per-category totals are retained (cheap
  /// enough for full-sequence simulations).
  explicit Trace(bool keep_spans = false) : keep_spans_(keep_spans) {}

  void add(const std::string& category, Cycles begin, Cycles end);

  /// Adds `cycles` to a category without span bookkeeping.
  void add_cycles(const std::string& category, Cycles cycles);

  /// Total cycles attributed to `category` (0 if unknown).
  Cycles total(const std::string& category) const;

  /// Sum over all categories.
  Cycles grand_total() const;

  const std::map<std::string, Cycles>& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool keep_spans_;
  std::map<std::string, Cycles> totals_;
  std::vector<Span> spans_;
};

/// Minimal streaming writer for the Chrome trace-event JSON format
/// (chrome://tracing / https://ui.perfetto.dev), used by the serve-layer
/// observer export.
///
/// Determinism contract: every timestamp is a raw simulated-cycle count
/// emitted as an integer (the document declares 1 trace-µs == 1 cycle in
/// otherData), so the bytes produced depend only on the event sequence —
/// no doubles, no locale, no wall clock. finish() closes the document and
/// is idempotent; the destructor calls it.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  ~ChromeTraceWriter();

  /// Duration event ("ph":"X") on track (pid, tid) over [begin, end].
  void complete(const std::string& name, const std::string& cat,
                std::uint32_t pid, std::uint32_t tid, Cycles begin,
                Cycles end);

  /// Instant event ("ph":"i"); `scope` is "t" (thread), "p" (process) or
  /// "g" (global).
  void instant(const std::string& name, const std::string& cat,
               std::uint32_t pid, std::uint32_t tid, Cycles at,
               char scope = 't');

  /// Async span events ("ph":"b"/"n"/"e"), correlated by `id` within
  /// `cat`.
  void async_begin(const std::string& name, const std::string& cat,
                   std::uint32_t pid, std::uint64_t id, Cycles at);
  void async_instant(const std::string& name, const std::string& cat,
                     std::uint32_t pid, std::uint64_t id, Cycles at);
  void async_end(const std::string& name, const std::string& cat,
                 std::uint32_t pid, std::uint64_t id, Cycles at);

  /// Metadata event naming a process track in the viewer.
  void process_name(std::uint32_t pid, const std::string& name);

  /// Writes the closing brackets (idempotent; no events may follow).
  void finish();

  /// Escapes a string for embedding in a JSON string literal.
  static std::string json_escape(const std::string& s);

 private:
  void begin_event();  // comma separation between events
  void async_event(char phase, const std::string& name,
                   const std::string& cat, std::uint32_t pid,
                   std::uint64_t id, Cycles at);

  std::ostream* os_;
  bool first_ = true;
  bool finished_ = false;
};

}  // namespace looplynx::sim
