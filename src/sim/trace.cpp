#include "sim/trace.hpp"

#include <cstdio>

namespace looplynx::sim {

void Trace::add(const std::string& category, Cycles begin, Cycles end) {
  if (end < begin) end = begin;
  totals_[category] += end - begin;
  if (keep_spans_) spans_.push_back(Span{category, begin, end});
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

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(&os) {
  *os_ << "{\"traceEvents\":[";
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // The time-unit declaration keeps cycle-count timestamps self-describing.
  *os_ << "],\"otherData\":{\"clock\":\"simulated-cycles\","
          "\"timeUnit\":\"1 trace-us == 1 cycle\"}}\n";
}

std::string ChromeTraceWriter::json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void ChromeTraceWriter::begin_event() {
  if (!first_) *os_ << ',';
  first_ = false;
  *os_ << '\n';
}

void ChromeTraceWriter::complete(const std::string& name,
                                 const std::string& cat, std::uint32_t pid,
                                 std::uint32_t tid, Cycles begin, Cycles end) {
  if (end < begin) end = begin;
  begin_event();
  *os_ << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
       << json_escape(cat) << "\",\"ph\":\"X\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"ts\":" << begin
       << ",\"dur\":" << (end - begin) << "}";
}

void ChromeTraceWriter::instant(const std::string& name,
                                const std::string& cat, std::uint32_t pid,
                                std::uint32_t tid, Cycles at, char scope) {
  begin_event();
  *os_ << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
       << json_escape(cat) << "\",\"ph\":\"i\",\"s\":\"" << scope
       << "\",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":" << at
       << "}";
}

void ChromeTraceWriter::async_event(char phase, const std::string& name,
                                    const std::string& cat, std::uint32_t pid,
                                    std::uint64_t id, Cycles at) {
  begin_event();
  *os_ << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
       << json_escape(cat) << "\",\"ph\":\"" << phase << "\",\"id\":" << id
       << ",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << at << "}";
}

void ChromeTraceWriter::async_begin(const std::string& name,
                                    const std::string& cat, std::uint32_t pid,
                                    std::uint64_t id, Cycles at) {
  async_event('b', name, cat, pid, id, at);
}

void ChromeTraceWriter::async_instant(const std::string& name,
                                      const std::string& cat,
                                      std::uint32_t pid, std::uint64_t id,
                                      Cycles at) {
  async_event('n', name, cat, pid, id, at);
}

void ChromeTraceWriter::async_end(const std::string& name,
                                  const std::string& cat, std::uint32_t pid,
                                  std::uint64_t id, Cycles at) {
  async_event('e', name, cat, pid, id, at);
}

void ChromeTraceWriter::process_name(std::uint32_t pid,
                                     const std::string& name) {
  begin_event();
  *os_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
}

}  // namespace looplynx::sim
