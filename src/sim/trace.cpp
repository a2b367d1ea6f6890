#include "sim/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace looplynx::sim {

void Trace::add(const std::string& category, Cycles begin, Cycles end) {
  if (end < begin) end = begin;
  totals_[category] += end - begin;
}

void Trace::add_cycles(const std::string& category, Cycles cycles) {
  totals_[category] += cycles;
}

Cycles Trace::total(const std::string& category) const {
  const auto it = totals_.find(category);
  return it == totals_.end() ? 0 : it->second;
}

Cycles Trace::grand_total() const {
  Cycles sum = 0;
  for (const auto& [_, cycles] : totals_) sum += cycles;
  return sum;
}

namespace {

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(&os) {
  put("{\"traceEvents\":[");
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // The time-unit declaration keeps cycle-count timestamps self-describing.
  put("],\"otherData\":{\"clock\":\"simulated-cycles\","
      "\"timeUnit\":\"1 trace-us == 1 cycle\"}}\n");
  flush();
}

std::string ChromeTraceWriter::json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (!needs_escape(c)) {
      out += c;
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    }
  }
  return out;
}

void ChromeTraceWriter::flush() {
  os_->write(buf_.data(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

void ChromeTraceWriter::put(std::string_view s) {
  if (s.size() > buf_.size() - used_) {
    flush();
    if (s.size() > buf_.size()) {  // would never fit: write it through
      os_->write(s.data(), static_cast<std::streamsize>(s.size()));
      return;
    }
  }
  std::memcpy(buf_.data() + used_, s.data(), s.size());
  used_ += s.size();
}

void ChromeTraceWriter::put(char c) {
  if (used_ == buf_.size()) flush();
  buf_[used_++] = c;
}

void ChromeTraceWriter::put_uint(std::uint64_t v) {
  constexpr std::size_t kMaxDigits = 20;  // 2^64 - 1
  if (buf_.size() - used_ < kMaxDigits) flush();
  const std::to_chars_result r =
      std::to_chars(buf_.data() + used_, buf_.data() + buf_.size(), v);
  used_ = static_cast<std::size_t>(r.ptr - buf_.data());
}

void ChromeTraceWriter::put_escaped(std::string_view s) {
  if (std::none_of(s.begin(), s.end(), needs_escape)) {
    put(s);
  } else {
    put(json_escape(s));
  }
}

void ChromeTraceWriter::begin_event() {
  if (!first_) put(',');
  first_ = false;
  put('\n');
}

void ChromeTraceWriter::complete(std::string_view name, std::string_view cat,
                                 std::uint32_t pid, std::uint32_t tid,
                                 Cycles begin, Cycles end) {
  if (end < begin) end = begin;
  begin_event();
  put("{\"name\":\"");
  put_escaped(name);
  put("\",\"cat\":\"");
  put_escaped(cat);
  put("\",\"ph\":\"X\",\"pid\":");
  put_uint(pid);
  put(",\"tid\":");
  put_uint(tid);
  put(",\"ts\":");
  put_uint(begin);
  put(",\"dur\":");
  put_uint(end - begin);
  put('}');
}

void ChromeTraceWriter::instant(std::string_view name, std::string_view cat,
                                std::uint32_t pid, std::uint32_t tid,
                                Cycles at, char scope) {
  begin_event();
  put("{\"name\":\"");
  put_escaped(name);
  put("\",\"cat\":\"");
  put_escaped(cat);
  put("\",\"ph\":\"i\",\"s\":\"");
  put(scope);
  put("\",\"pid\":");
  put_uint(pid);
  put(",\"tid\":");
  put_uint(tid);
  put(",\"ts\":");
  put_uint(at);
  put('}');
}

void ChromeTraceWriter::async_event(char phase, std::string_view name,
                                    std::string_view cat, std::uint32_t pid,
                                    std::uint64_t id, Cycles at) {
  begin_event();
  put("{\"name\":\"");
  put_escaped(name);
  put("\",\"cat\":\"");
  put_escaped(cat);
  put("\",\"ph\":\"");
  put(phase);
  put("\",\"id\":");
  put_uint(id);
  put(",\"pid\":");
  put_uint(pid);
  put(",\"tid\":0,\"ts\":");
  put_uint(at);
  put('}');
}

void ChromeTraceWriter::async_begin(std::string_view name,
                                    std::string_view cat, std::uint32_t pid,
                                    std::uint64_t id, Cycles at) {
  async_event('b', name, cat, pid, id, at);
}

void ChromeTraceWriter::async_instant(std::string_view name,
                                      std::string_view cat,
                                      std::uint32_t pid, std::uint64_t id,
                                      Cycles at) {
  async_event('n', name, cat, pid, id, at);
}

void ChromeTraceWriter::async_end(std::string_view name, std::string_view cat,
                                  std::uint32_t pid, std::uint64_t id,
                                  Cycles at) {
  async_event('e', name, cat, pid, id, at);
}

void ChromeTraceWriter::process_name(std::uint32_t pid,
                                     std::string_view name) {
  begin_event();
  put("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
  put_uint(pid);
  put(",\"tid\":0,\"args\":{\"name\":\"");
  put_escaped(name);
  put("\"}}");
}

}  // namespace looplynx::sim
