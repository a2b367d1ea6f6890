#include "suite.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/sha256.hpp"

namespace looplynx::suite {

// ---- Statistics ----------------------------------------------------------

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long long>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): position i*(ld+1)/4,
  // clamped to [1, ld-1], interpolated in exact integer quarters.
  const long long m = ld + 1;
  std::array<double, 3> cut{};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4;
  }
  return {cut[0], cut[1], cut[2]};
}

// ---- JSON ----------------------------------------------------------------

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_member_.empty()) {
    if (has_member_.back()) out_ += ", ";
    has_member_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (has_member_.empty()) throw std::logic_error("JsonWriter: no open object");
  has_member_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separate();
  if (!std::isfinite(number)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), number);
  out_.append(buf, ec == std::errc() ? end : buf);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
  return *this;
}

// ---- Harness-side spans --------------------------------------------------

Tracer::Tracer(std::string run_id)
    : run_id_(std::move(run_id)), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), now_s(), 0,
                    open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer: spans must end innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  open_.pop_back();
}

double Tracer::self_seconds(std::size_t id) const {
  const Span& s = spans_.at(id);
  double self = s.end_s - s.start_s;
  for (std::size_t c = id + 1; c < spans_.size(); ++c) {
    if (spans_[c].parent == static_cast<int>(id)) {
      self -= spans_[c].end_s - spans_[c].start_s;
    }
  }
  return self;
}

std::vector<double> Tracer::self_seconds_of(std::string_view name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self_seconds(i));
  }
  return out;
}

void Tracer::write_chrome(std::ostream& os) const {
  // Complete ("X") events on one track; Chrome nests them by time range.
  // Timestamps are microseconds since the tracer was built.
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonWriter w;
    w.begin_object()
        .key("name").value(s.name)
        .key("cat").value("bench")
        .key("ph").value("X")
        .key("ts").value(s.start_s * 1e6)
        .key("dur").value((s.end_s - s.start_s) * 1e6)
        .key("pid").value(std::uint64_t{1})
        .key("tid").value(std::uint64_t{1})
        .key("args").begin_object()
        .key("id").value(static_cast<std::uint64_t>(i))
        .key("parent").value(static_cast<double>(s.parent))
        .key("run").value(run_id_)
        .key("self_us").value(self_seconds(i) * 1e6)
        .end_object()
        .end_object();
    os << w.str() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

Timed::Timed(Tracer* tracer, std::string name)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->begin(std::move(name)) : -1),
      start_(std::chrono::steady_clock::now()) {}

Timed::~Timed() { stop(); }

double Timed::stop() {
  if (seconds_ < 0) {
    seconds_ = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  return seconds_;
}

// ---- Rep verification ----------------------------------------------------

ObserveStats observe_stats(const serve::Observer& observer) {
  ObserveStats stats;
  stats.events = observer.events().size();
  const double replica_cycles = static_cast<double>(observer.makespan()) *
                                static_cast<double>(observer.replicas());
  if (replica_cycles <= 0) return stats;
  for (std::uint32_t r = 0; r < observer.replicas(); ++r) {
    const auto& breakdown = observer.breakdown(r);
    for (std::size_t c = 0; c < stats.share.size(); ++c) {
      const auto it = breakdown.find(serve::kCategories[c]);
      if (it != breakdown.end()) {
        stats.share[c] += static_cast<double>(it->second) / replica_cycles;
      }
    }
  }
  return stats;
}

std::vector<std::string> check_invariants(const serve::FleetResult& result) {
  std::vector<std::string> errors;
  const serve::FleetMetrics& f = result.fleet;
  std::uint64_t wire_bytes = 0;
  for (std::size_t i = 0; i < result.replicas.size(); ++i) {
    const serve::FleetMetrics& r = result.replicas[i];
    if (r.completed + r.rejected + r.handoffs_out !=
        r.offered + r.handoffs_in) {
      errors.push_back("replica " + std::to_string(i) +
                       ": completed + rejected + handoffs_out != offered + "
                       "handoffs_in");
    }
    wire_bytes += r.kv_migrate_wire_bytes + r.steal_wire_bytes;
  }
  if (f.completed + f.rejected != f.offered) {
    errors.push_back("fleet: completed + rejected != offered");
  }
  if (f.kv_blocks_in_use_at_end != 0) {
    errors.push_back("fleet: " + std::to_string(f.kv_blocks_in_use_at_end) +
                     " KV blocks still in use at end");
  }
  if (f.kv_over_release_events != 0) {
    errors.push_back("fleet: " + std::to_string(f.kv_over_release_events) +
                     " KV over-release events");
  }
  if (result.disaggregated && result.fabric_bytes != wire_bytes) {
    errors.push_back("fabric bytes " + std::to_string(result.fabric_bytes) +
                     " != migration + steal wire bytes " +
                     std::to_string(wire_bytes));
  }
  return errors;
}

namespace {

/// Appends `v` to the canonical dump in a fixed, exact form.
void put(std::string& out, std::string_view name, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out.append(name).append("=").append(buf).append("\n");
}

void put(std::string& out, std::string_view name, std::uint64_t v) {
  out.append(name).append("=").append(std::to_string(v)).append("\n");
}

void put(std::string& out, std::string_view name,
         const util::PercentileSummary& s) {
  put(out, std::string(name) + ".count", static_cast<std::uint64_t>(s.count));
  put(out, std::string(name) + ".mean", s.mean);
  put(out, std::string(name) + ".p50", s.p50);
  put(out, std::string(name) + ".p99", s.p99);
}

}  // namespace

std::string sim_digest(const serve::FleetResult& result,
                       const ObserveStats& observed) {
  std::string d;
  const serve::FleetMetrics& m = result.fleet;
  put(d, "offered", m.offered);
  put(d, "completed", m.completed);
  put(d, "rejected", m.rejected);
  put(d, "decode_tokens", m.decode_tokens);
  put(d, "slo_good", m.slo_good);
  put(d, "duration_s", m.duration_s);
  put(d, "goodput_req_s", m.goodput_req_s);
  put(d, "decode_tok_s", m.decode_tok_s);
  put(d, "ttft_ms", m.ttft_ms);
  put(d, "token_ms", m.token_ms);
  put(d, "queue_wait_ms", m.queue_wait_ms);
  put(d, "inter_token_gap_ms", m.inter_token_gap_ms);
  put(d, "iterations", m.iterations);
  put(d, "mean_batch_size", m.mean_batch_size);
  put(d, "prefill_chunk_steps", m.prefill_chunk_steps);
  put(d, "decode_stall_iterations", m.decode_stall_iterations);
  put(d, "busy_fraction", m.busy_fraction);
  put(d, "peak_queue_depth", static_cast<std::uint64_t>(m.peak_queue_depth));
  put(d, "kv_peak_occupancy", m.kv_peak_occupancy);
  put(d, "kv_stall_events", m.kv_stall_events);
  put(d, "preemptions", m.preemptions);
  put(d, "recompute_tokens", m.recompute_tokens);
  put(d, "cache_lookup_tokens", m.cache_lookup_tokens);
  put(d, "cache_hit_tokens", m.cache_hit_tokens);
  put(d, "saved_prefill_cycles", m.saved_prefill_cycles);
  put(d, "cache_evict_blocks", m.cache_evict_blocks);
  put(d, "cache_swap_out_blocks", m.cache_swap_out_blocks);
  put(d, "cache_swap_in_blocks", m.cache_swap_in_blocks);
  put(d, "kv_migrations", m.kv_migrations);
  put(d, "kv_migrated_blocks", m.kv_migrated_blocks);
  put(d, "work_steals", m.work_steals);
  put(d, "fabric_bytes", result.fabric_bytes);
  put(d, "load_imbalance", result.load_imbalance);
  put(d, "ttft_p99_spread_ms", result.ttft_p99_spread_ms);
  put(d, "scale_events",
      static_cast<std::uint64_t>(result.scale_events.size()));
  put(d, "mean_live_replicas", result.mean_live_replicas);
  put(d, "replica_cycles", result.replica_cycles);
  for (std::size_t i = 0; i < result.replicas.size(); ++i) {
    const serve::FleetMetrics& r = result.replicas[i];
    const std::string p = "replica" + std::to_string(i) + ".";
    put(d, p + "offered", r.offered);
    put(d, p + "completed", r.completed);
    put(d, p + "rejected", r.rejected);
    put(d, p + "handoffs_in", r.handoffs_in);
    put(d, p + "handoffs_out", r.handoffs_out);
  }
  put(d, "observe.events", observed.events);
  put(d, "observe.export_bytes", observed.export_bytes);
  for (std::size_t c = 0; c < observed.share.size(); ++c) {
    put(d, std::string("observe.share.") + serve::kCategories[c],
        observed.share[c]);
  }
  return util::sha256_hex(d);
}

std::vector<std::string> verify_rep(const serve::FleetResult& result,
                                    const std::string& digest,
                                    const std::string& reference) {
  std::vector<std::string> errors = check_invariants(result);
  if (!reference.empty() && digest != reference) {
    errors.push_back("sim_digest " + digest + " differs from rep 0's " +
                     reference);
  }
  return errors;
}

}  // namespace looplynx::suite
