// The benchmark suite's harness pieces: quartile statistics, a minimal
// JSON writer, harness-side span tracing, rep verification (conservation
// invariants + simulated-output digest) and the four workloads.
//
// Everything here sits outside the simulator: spans wrap calls into the
// public APIs (core::StepCostModel, serve::TrafficGen, serve::FleetSim,
// serve::Observer), never code inside src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/observe.hpp"

namespace looplynx::suite {

// ---- Statistics ----------------------------------------------------------

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Cut points of `values` into four equal groups, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (method "exclusive"), so
/// the suite's spreads match the ones compare.py reports; the middle cut
/// is the median. Empty input yields zeros; one value yields that value
/// three times.
Quartiles quartiles(std::vector<double> values);

// ---- JSON ----------------------------------------------------------------

/// Streaming writer for the result file: objects, strings, numbers and
/// booleans. Doubles print in shortest round-trip form (every digit the
/// value carries); non-finite doubles print as null.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(bool flag);
  const std::string& str() const { return out_; }

 private:
  void separate();

  std::string out_;
  std::vector<bool> has_member_;  // one entry per open object
  bool after_key_ = false;
};

// ---- Harness-side spans --------------------------------------------------

/// In-memory span log of one traced run, written as Chrome trace-event
/// JSON when the run ends. Spans nest strictly: begin() parents the new
/// span under the innermost open one.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;  // since the tracer was built
    double end_s = 0;
    int parent = -1;     // index into spans(), -1 for a root
  };

  explicit Tracer(std::string run_id);

  int begin(std::string name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part covered by the span's children.
  double self_seconds(std::size_t id) const;
  /// Self times of every span with this name, in start order.
  std::vector<double> self_seconds_of(std::string_view name) const;
  void write_chrome(std::ostream& os) const;

 private:
  double now_s() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped wall-clock timer that doubles as a span: it always measures, and
/// records a span only when given a tracer, so traced and untraced runs
/// execute the same code.
class Timed {
 public:
  Timed(Tracer* tracer, std::string name);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double stop();

 private:
  Tracer* tracer_;
  int id_ = -1;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1;
};

// ---- Rep verification ----------------------------------------------------

/// What a rep's Observer produced (all zero on unobserved workloads).
struct ObserveStats {
  std::uint64_t events = 0;
  std::uint64_t export_bytes = 0;
  /// Share of replica-time (replicas x makespan) per serve::kCategories
  /// entry, in that order.
  std::array<double, std::size(serve::kCategories)> share{};
};

ObserveStats observe_stats(const serve::Observer& observer);

/// Conservation and leak invariants every rep must satisfy; returns one
/// message per violation (empty == healthy).
std::vector<std::string> check_invariants(const serve::FleetResult& result);

/// SHA-256 over a canonical dump of every simulated output the suite
/// reports or checks (plus the preemption and discard counters, which are
/// zero on all four workloads). Two reps of one config must agree byte
/// for byte.
std::string sim_digest(const serve::FleetResult& result,
                       const ObserveStats& observed);

/// Invariant violations plus a digest mismatch against `reference` (the
/// first rep's digest; empty for the first rep itself).
std::vector<std::string> verify_rep(const serve::FleetResult& result,
                                    const std::string& digest,
                                    const std::string& reference);

// ---- Workloads -----------------------------------------------------------

/// Failed non-vacuity checks, one message each.
using Vacuity = std::vector<std::string> (*)(const serve::FleetResult&,
                                             const ObserveStats&);

struct Workload {
  const char* name;
  bool observed;  // attach an Observer and render both exports each rep
  /// The fleet at a seed, with its traffic still unsampled.
  serve::FleetConfig (*config)(std::uint64_t seed);
  /// Checks that the run exercised the layers the workload exists to
  /// exercise (or, for fleet-steady, that it bypassed them).
  Vacuity vacuity;
};

/// The four workloads, in suite order.
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

}  // namespace looplynx::suite
