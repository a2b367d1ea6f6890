// Span accounting for latency-breakdown reports (paper Fig. 5).
//
// The stage scheduler wraps each MDK invocation in a span; the accumulator
// sums wall-clock cycles per category. Because LoopLynx reuses kernels
// *temporally*, top-level stage spans tile the timeline and the per-category
// totals are exactly the paper's breakdown.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/engine.hpp"

namespace looplynx::sim {

class Trace {
 public:
  void add(const std::string& category, Cycles begin, Cycles end);

  /// Adds `cycles` to a category without a span.
  void add_cycles(const std::string& category, Cycles cycles);

  /// Total cycles attributed to `category` (0 if unknown).
  Cycles total(const std::string& category) const;

  /// Sum over all categories.
  Cycles grand_total() const;

  /// Every recorded category with its total.
  const std::map<std::string, Cycles>& totals() const { return totals_; }

 private:
  std::map<std::string, Cycles> totals_;
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
///
/// Events are formatted into a fixed kBufferBytes buffer (integers via
/// std::to_chars, strings copied as-is unless a character needs escaping)
/// and reach the stream in chunks as the buffer fills, and at finish().
/// Read the stream only after finish().
class ChromeTraceWriter {
 public:
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  explicit ChromeTraceWriter(std::ostream& os);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  ~ChromeTraceWriter();

  /// Duration event ("ph":"X") on track (pid, tid) over [begin, end].
  void complete(std::string_view name, std::string_view cat,
                std::uint32_t pid, std::uint32_t tid, Cycles begin,
                Cycles end);

  /// Instant event ("ph":"i"); `scope` is "t" (thread), "p" (process) or
  /// "g" (global).
  void instant(std::string_view name, std::string_view cat,
               std::uint32_t pid, std::uint32_t tid, Cycles at,
               char scope = 't');

  /// Async span events ("ph":"b"/"n"/"e"), correlated by `id` within
  /// `cat`.
  void async_begin(std::string_view name, std::string_view cat,
                   std::uint32_t pid, std::uint64_t id, Cycles at);
  void async_instant(std::string_view name, std::string_view cat,
                     std::uint32_t pid, std::uint64_t id, Cycles at);
  void async_end(std::string_view name, std::string_view cat,
                 std::uint32_t pid, std::uint64_t id, Cycles at);

  /// Metadata event naming a process track in the viewer.
  void process_name(std::uint32_t pid, std::string_view name);

  /// Writes the closing brackets and flushes the buffer to the stream
  /// (idempotent; no events may follow).
  void finish();

  /// Escapes a string for embedding in a JSON string literal.
  static std::string json_escape(std::string_view s);

 private:
  void begin_event();  // comma separation between events
  void async_event(char phase, std::string_view name, std::string_view cat,
                   std::uint32_t pid, std::uint64_t id, Cycles at);
  void put(std::string_view s);
  void put(char c);
  void put_uint(std::uint64_t v);
  void put_escaped(std::string_view s);  // a JSON string literal's body
  void flush();

  std::ostream* os_;
  std::array<char, kBufferBytes> buf_;
  std::size_t used_ = 0;
  bool first_ = true;
  bool finished_ = false;
};

}  // namespace looplynx::sim
