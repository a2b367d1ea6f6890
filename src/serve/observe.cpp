#include "serve/observe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "sim/trace.hpp"

namespace looplynx::serve {

const char* lifecycle_event_name(LifecycleEvent kind) {
  switch (kind) {
    case LifecycleEvent::kRoute:
      return "route";
    case LifecycleEvent::kArrive:
      return "arrive";
    case LifecycleEvent::kAdmit:
      return "admit";
    case LifecycleEvent::kReject:
      return "reject";
    case LifecycleEvent::kFirstChunk:
      return "first-chunk";
    case LifecycleEvent::kChunk:
      return "chunk";
    case LifecycleEvent::kFirstToken:
      return "first-token";
    case LifecycleEvent::kDecode:
      return "decode";
    case LifecycleEvent::kPreempt:
      return "preempt";
    case LifecycleEvent::kRecomputeStart:
      return "recompute-start";
    case LifecycleEvent::kRecomputeEnd:
      return "recompute-end";
    case LifecycleEvent::kFinish:
      return "finish";
    case LifecycleEvent::kScaleUp:
      return "scale-up";
    case LifecycleEvent::kScaleDown:
      return "scale-down";
    case LifecycleEvent::kDrain:
      return "drain";
    case LifecycleEvent::kCacheHit:
      return "cache-hit";
    case LifecycleEvent::kCacheMiss:
      return "cache-miss";
    case LifecycleEvent::kKvMigrate:
      return "kv-migrate";
    case LifecycleEvent::kSteal:
      return "steal";
  }
  return "unknown";
}

namespace {

/// Stable sort by `at`, cheap on a nearly sorted log. The engine room
/// records almost in time order (an iteration's chunk events a few places
/// early), so an insertion pass, which moves each event back only past
/// events stamped strictly later, costs O(n + moves). A migrated
/// request's re-admission can sit thousands of places early, so once the
/// moves exceed kMaxMovesPerEvent per event the pass hands over to
/// std::stable_sort. The partial pass is itself a stable permutation of
/// the input, so the final order is std::stable_sort's either way.
void sort_by_time(std::vector<ObservedEvent>& events) {
  constexpr std::size_t kMaxMovesPerEvent = 16;
  const std::size_t budget = kMaxMovesPerEvent * events.size();
  std::size_t moves = 0;
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i - 1].at <= events[i].at) continue;
    const ObservedEvent e = events[i];
    std::size_t j = i;
    for (; j > 0 && events[j - 1].at > e.at; --j) events[j] = events[j - 1];
    events[j] = e;
    moves += i - j;
    if (moves > budget) {
      std::stable_sort(events.begin(), events.end(),
                       [](const ObservedEvent& a, const ObservedEvent& b) {
                         return a.at < b.at;
                       });
      return;
    }
  }
}

}  // namespace

Observer::Observer(std::uint32_t replicas, double frequency_hz)
    : frequency_hz_(frequency_hz),
      frequency_hz_int_(static_cast<std::uint64_t>(std::llround(frequency_hz))),
      per_replica_(replicas) {
  if (replicas == 0) {
    throw std::invalid_argument("Observer needs at least one replica");
  }
  if (!(frequency_hz > 0)) {
    throw std::invalid_argument("Observer frequency_hz must be > 0");
  }
}

void Observer::set_role_names(std::vector<std::string> names) {
  if (names.size() != per_replica_.size()) {
    throw std::invalid_argument(
        "Observer::set_role_names must cover every replica: got " +
        std::to_string(names.size()) + " names for " +
        std::to_string(per_replica_.size()) + " replicas");
  }
  role_names_ = std::move(names);
}

void Observer::record(LifecycleEvent kind, sim::Cycles at,
                      std::uint32_t request, std::uint32_t replica,
                      std::uint32_t a, std::uint32_t b) {
  events_.push_back(ObservedEvent{at, kind, request, replica, a, b});
}

void Observer::PerReplica::add(Category cat, sim::Cycles begin,
                               sim::Cycles end) {
  if (end < begin) end = begin;
  const auto c = static_cast<std::size_t>(cat);
  totals[c] += end - begin;
  seen[c] = true;
  if (end > begin) spans.push_back(Span{begin, end, cat});
}

void Observer::add_span(std::uint32_t replica, Category cat,
                        sim::Cycles begin, sim::Cycles end) {
  per_replica_.at(replica).add(cat, begin, end);
}

void Observer::begin_wait(std::uint32_t replica, Category cat,
                          sim::Cycles at) {
  PerReplica& r = per_replica_.at(replica);
  if (r.waiting) {
    throw std::logic_error("Observer::begin_wait: wait already open");
  }
  r.waiting = true;
  r.wait_start = at;
  r.wait_category = cat;
}

void Observer::end_wait(std::uint32_t replica, sim::Cycles at) {
  PerReplica& r = per_replica_.at(replica);
  if (!r.waiting) {
    throw std::logic_error("Observer::end_wait: no wait open");
  }
  r.waiting = false;
  r.add(r.wait_category, r.wait_start, at);
}

void Observer::mark_exit(std::uint32_t replica, sim::Cycles at) {
  PerReplica& r = per_replica_.at(replica);
  r.exited = true;
  r.exit_at = at;
}

void Observer::set_kv_stats(std::uint32_t replica,
                            std::uint64_t capacity_blocks,
                            std::uint64_t peak_used_blocks,
                            std::uint32_t block_tokens) {
  PerReplica& r = per_replica_.at(replica);
  r.kv_capacity_blocks = capacity_blocks;
  r.kv_peak_used_blocks = peak_used_blocks;
  r.kv_block_tokens = block_tokens;
}

void Observer::finalize(sim::Cycles makespan) {
  if (finalized_) {
    throw std::logic_error("Observer::finalize called twice (single-use)");
  }
  for (std::size_t i = 0; i < per_replica_.size(); ++i) {
    PerReplica& r = per_replica_[i];
    // A replica still parked on its work signal at run end was never woken
    // again: its open wait IS the trailing drain, whatever it looked like
    // at sleep time. A replica whose loop exited drains from the exit.
    if (r.waiting) {
      r.waiting = false;
      r.add(Category::kDrain, r.wait_start, makespan);
    } else if (r.exited) {
      r.add(Category::kDrain, r.exit_at, makespan);
    }
    sim::Cycles total = 0;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      total += r.totals[c];
      if (r.seen[c]) r.breakdown.emplace(kCategories[c], r.totals[c]);
    }
    if (total != makespan) {
      throw std::logic_error(
          "observability tiling violated: replica " + std::to_string(i) +
          " categories sum to " + std::to_string(total) + " cycles, run "
          "makespan is " + std::to_string(makespan) +
          " (the breakdown must partition the timeline exactly)");
    }
  }
  sort_by_time(events_);
  makespan_ = makespan;
  finalized_ = true;
}

const std::map<std::string, sim::Cycles>& Observer::breakdown(
    std::uint32_t replica) const {
  require_finalized("breakdown");
  return per_replica_.at(replica).breakdown;
}

void Observer::require_finalized(const char* what) const {
  if (!finalized_) {
    throw std::logic_error(std::string(what) +
                           " requires finalize() (run the simulation with "
                           "the observer attached first)");
  }
}

std::uint64_t Observer::cycles_to_us(sim::Cycles c) const {
  // Exact integer arithmetic so the exporters never format a double:
  // cycles * 1e6 fits 64 bits for any run the engine can represent in
  // practice (makespans beyond ~5e12 cycles are outside the sim's scale).
  return c * 1000000ull / frequency_hz_int_;
}

void Observer::write_chrome_trace(std::ostream& os) const {
  require_finalized("write_chrome_trace");
  sim::ChromeTraceWriter writer(os);
  for (std::uint32_t i = 0; i < replicas(); ++i) {
    std::string name = "replica " + std::to_string(i);
    if (!role_names_.empty()) name += " (" + role_names_[i] + ")";
    writer.process_name(i, name);
  }
  // One track per replica: the cycle-accounting spans, in recording order
  // (chronological per replica). Zero-width spans were never kept: they
  // carry no cycles and would only be viewer noise.
  for (std::uint32_t i = 0; i < replicas(); ++i) {
    for (const Span& s : per_replica_[i].spans) {
      writer.complete(category_name(s.category), "breakdown", i, /*tid=*/0,
                      s.begin, s.end);
    }
  }
  // One async span per request (opened at routing, closed at finish or
  // rejection), lifecycle instants nested inside; scheduler decisions as
  // instant events on the affected replica's track.
  for (const ObservedEvent& e : events_) {
    const char* name = lifecycle_event_name(e.kind);
    switch (e.kind) {
      case LifecycleEvent::kRoute:
        writer.async_begin("request", "request", e.replica, e.request, e.at);
        break;
      case LifecycleEvent::kFinish:
      case LifecycleEvent::kReject:
        writer.async_instant(name, "request", e.replica, e.request, e.at);
        writer.async_end("request", "request", e.replica, e.request, e.at);
        break;
      case LifecycleEvent::kPreempt:
        writer.instant(name, "decision", e.replica, /*tid=*/0, e.at, 't');
        writer.async_instant(name, "request", e.replica, e.request, e.at);
        break;
      // Scale/drain instants carry the moved replica's role when the
      // fleet is disaggregated ("scale-up (prefill)"), so a trace of a
      // tier-autoscaled fleet says which tier the controller touched.
      case LifecycleEvent::kScaleUp:
      case LifecycleEvent::kScaleDown:
        writer.instant(role_names_.empty()
                           ? std::string(name)
                           : name + (" (" + role_names_[e.replica] + ")"),
                       "decision", e.replica, /*tid=*/0, e.at, 'g');
        break;
      case LifecycleEvent::kDrain:
        writer.instant(role_names_.empty()
                           ? std::string(name)
                           : name + (" (" + role_names_[e.replica] + ")"),
                       "decision", e.replica, /*tid=*/0, e.at, 'p');
        break;
      default:
        writer.async_instant(name, "request", e.replica, e.request, e.at);
    }
  }
  writer.finish();
}

namespace {

/// One request's lifecycle, replayed from the event log for the metric
/// histograms. Cycle fields are valid only when the matching flag is set.
struct RequestLifecycle {
  std::uint32_t replica = 0;
  sim::Cycles arrive = 0, admit = 0, first_token = 0, finish = 0;
  bool arrived = false, admitted = false, first = false, finished = false,
       rejected = false;
};

/// Fixed deterministic histogram bounds: label (what `le` prints) and the
/// bound in integer microseconds (what observations compare against).
struct Bucket {
  const char* label;
  std::uint64_t bound_us;
};
constexpr Bucket kMsBuckets[] = {
    {"0.5", 500},     {"1", 1000},     {"2", 2000},      {"5", 5000},
    {"10", 10000},    {"20", 20000},   {"50", 50000},    {"100", 100000},
    {"200", 200000},  {"500", 500000}, {"1000", 1000000},
};

/// "123.456" from integer microseconds — millisecond figures without ever
/// formatting a double.
std::string ms_from_us(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(us / 1000),
                static_cast<unsigned long long>(us % 1000));
  return buf;
}

void write_histogram(std::ostream& os, const std::string& name,
                     const std::string& help,
                     const std::vector<std::uint64_t>& samples_us) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " histogram\n";
  std::uint64_t sum_us = 0;
  for (const std::uint64_t s : samples_us) sum_us += s;
  for (const Bucket& b : kMsBuckets) {
    std::uint64_t count = 0;
    for (const std::uint64_t s : samples_us) count += s <= b.bound_us ? 1 : 0;
    os << name << "_bucket{le=\"" << b.label << "\"} " << count << "\n";
  }
  os << name << "_bucket{le=\"+Inf\"} " << samples_us.size() << "\n";
  os << name << "_sum " << ms_from_us(sum_us) << "\n";
  os << name << "_count " << samples_us.size() << "\n";
}

}  // namespace

void Observer::write_prometheus(std::ostream& os) const {
  require_finalized("write_prometheus");
  const std::uint32_t n = replicas();

  // Replay the event log into per-replica counters and per-request
  // lifecycles. Request ids are dense (fleet-wide injection order).
  std::vector<std::uint64_t> routed(n, 0), admitted(n, 0), rejected(n, 0),
      completed(n, 0), preemptions(n, 0), tokens(n, 0);
  std::uint64_t scale_up = 0, scale_down = 0;
  std::vector<RequestLifecycle> requests;
  for (const ObservedEvent& e : events_) {
    if (e.request != kNoRequest) {
      if (e.request >= requests.size()) requests.resize(e.request + 1);
      RequestLifecycle& r = requests[e.request];
      r.replica = e.replica;
      switch (e.kind) {
        case LifecycleEvent::kRoute:
          ++routed[e.replica];
          break;
        case LifecycleEvent::kArrive:
          r.arrived = true;
          r.arrive = e.at;
          break;
        case LifecycleEvent::kAdmit:
          ++admitted[e.replica];
          r.admitted = true;
          r.admit = e.at;
          break;
        case LifecycleEvent::kReject:
          ++rejected[e.replica];
          r.rejected = true;
          break;
        case LifecycleEvent::kFirstToken:
          ++tokens[e.replica];
          r.first = true;
          r.first_token = e.at;
          break;
        case LifecycleEvent::kDecode:
          ++tokens[e.replica];
          break;
        case LifecycleEvent::kPreempt:
          ++preemptions[e.replica];
          break;
        case LifecycleEvent::kFinish:
          ++completed[e.replica];
          r.finished = true;
          r.finish = e.at;
          break;
        default:
          break;
      }
    } else if (e.kind == LifecycleEvent::kScaleUp) {
      ++scale_up;
    } else if (e.kind == LifecycleEvent::kScaleDown) {
      ++scale_down;
    }
  }

  os << "# looplynx serve-layer metrics: simulated clock only, every value "
        "derived\n# from integer cycle counts (byte-stable across runs and "
        "build modes).\n";
  os << "# HELP looplynx_makespan_cycles Simulated cycles the run spanned.\n";
  os << "# TYPE looplynx_makespan_cycles gauge\n";
  os << "looplynx_makespan_cycles " << makespan_ << "\n";
  os << "# HELP looplynx_frequency_hz Accelerator clock of the run.\n";
  os << "# TYPE looplynx_frequency_hz gauge\n";
  os << "looplynx_frequency_hz " << frequency_hz_int_ << "\n";

  const auto per_replica_counter = [&](const std::string& name,
                                       const std::string& help,
                                       const std::vector<std::uint64_t>& v) {
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " counter\n";
    for (std::uint32_t i = 0; i < n; ++i) {
      os << name << "{replica=\"" << i << "\"} " << v[i] << "\n";
    }
  };
  per_replica_counter("looplynx_requests_routed_total",
                      "Requests the balancer routed to each replica.",
                      routed);
  per_replica_counter("looplynx_requests_admitted_total",
                      "Requests admitted past the queue (KV reserved).",
                      admitted);
  per_replica_counter("looplynx_requests_rejected_total",
                      "Requests shed by admission control.", rejected);
  per_replica_counter("looplynx_requests_completed_total",
                      "Requests that produced every decode token.",
                      completed);
  per_replica_counter("looplynx_tokens_emitted_total",
                      "Host-visible tokens (first tokens + decode tokens).",
                      tokens);
  per_replica_counter("looplynx_preemptions_total",
                      "KV evictions under preempt=recompute.", preemptions);

  os << "# HELP looplynx_scale_events_total Autoscaler live-set changes.\n";
  os << "# TYPE looplynx_scale_events_total counter\n";
  if (role_names_.empty()) {
    os << "looplynx_scale_events_total{direction=\"up\"} " << scale_up
       << "\n";
    os << "looplynx_scale_events_total{direction=\"down\"} " << scale_down
       << "\n";
  } else {
    // Disaggregated fleets scale per tier, so the counters carry the
    // moved replica's role. Roles iterate in first-appearance order —
    // the tier order the per-tier autoscalers evaluate in.
    std::vector<std::string> order;
    for (const std::string& role : role_names_) {
      bool seen = false;
      for (const std::string& o : order) seen = seen || o == role;
      if (!seen) order.push_back(role);
    }
    for (const char* direction : {"up", "down"}) {
      const LifecycleEvent kind = direction[0] == 'u'
                                      ? LifecycleEvent::kScaleUp
                                      : LifecycleEvent::kScaleDown;
      for (const std::string& role : order) {
        std::uint64_t count = 0;
        for (const ObservedEvent& e : events_) {
          if (e.kind == kind && role_names_[e.replica] == role) ++count;
        }
        os << "looplynx_scale_events_total{direction=\"" << direction
           << "\",role=\"" << role << "\"} " << count << "\n";
      }
    }
  }

  const auto kv_gauge = [&](const std::string& name, const std::string& help,
                            auto member) {
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " gauge\n";
    for (std::uint32_t i = 0; i < n; ++i) {
      os << name << "{replica=\"" << i << "\"} "
         << static_cast<std::uint64_t>(per_replica_[i].*member) << "\n";
    }
  };
  kv_gauge("looplynx_kv_capacity_blocks",
           "KV block pool capacity per replica.",
           &PerReplica::kv_capacity_blocks);
  kv_gauge("looplynx_kv_peak_used_blocks",
           "Peak KV blocks in use per replica.",
           &PerReplica::kv_peak_used_blocks);
  kv_gauge("looplynx_kv_block_tokens", "Tokens per KV block (paging grain).",
           &PerReplica::kv_block_tokens);

  os << "# HELP looplynx_replica_cycles_total Cycle-accounting breakdown; "
        "per replica the categories tile [0, makespan] exactly.\n";
  os << "# TYPE looplynx_replica_cycles_total counter\n";
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      os << "looplynx_replica_cycles_total{replica=\"" << i
         << "\",category=\"" << kCategories[c] << "\"} "
         << per_replica_[i].totals[c] << "\n";
    }
  }

  std::vector<std::uint64_t> ttft_us, e2e_us, queue_wait_us;
  for (const RequestLifecycle& r : requests) {
    if (!r.arrived) continue;
    if (r.first) ttft_us.push_back(cycles_to_us(r.first_token - r.arrive));
    if (r.finished) e2e_us.push_back(cycles_to_us(r.finish - r.arrive));
    if (r.admitted) queue_wait_us.push_back(cycles_to_us(r.admit - r.arrive));
  }
  write_histogram(os, "looplynx_ttft_ms",
                  "Time to first token (simulated milliseconds).", ttft_us);
  write_histogram(os, "looplynx_e2e_ms",
                  "Arrival to completion (simulated milliseconds).", e2e_us);
  write_histogram(os, "looplynx_queue_wait_ms",
                  "Arrival to admission (simulated milliseconds).",
                  queue_wait_us);
}

void write_exports(const Observer& observer, const std::string& trace_path,
                   const std::string& metrics_path) {
  const auto write_file = [](const std::string& path, const auto& writer) {
    std::ofstream os(path, std::ios::binary);  // binary: LF everywhere
    if (!os) {
      throw std::runtime_error("cannot open " + path + " for writing");
    }
    writer(os);
    os.flush();
    if (!os) {
      throw std::runtime_error("failed writing " + path);
    }
  };
  if (!trace_path.empty()) {
    write_file(trace_path, [&](std::ostream& os) {
      observer.write_chrome_trace(os);
    });
  }
  if (!metrics_path.empty()) {
    write_file(metrics_path, [&](std::ostream& os) {
      observer.write_prometheus(os);
    });
  }
}

}  // namespace looplynx::serve
