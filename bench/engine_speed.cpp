// Engine-speed self-bench: wall-clock simulated-requests-per-second of the
// serve hot path itself (scheduler, admission, KV accounting, routing) —
// NOT a model-quality figure. Every point is a saturated sweep: all
// requests are injected up front at a very high arrival rate into a queue
// sized to hold them, so the measurement is dominated by the engine room
// grinding through admissions, iterations and completions, exactly the
// path the flat-state refactor targets.
//
//   ./engine_speed [--out=BENCH_serve.json] [--scale=N] [--skip-million]
//                  [--repeat=N]
//
// --scale divides every point's request count (CI smoke: --scale=10 runs
// 10k-request points). --skip-million drops the 1M-request smoke point.
// --repeat runs each 100k point N times (default 3) and reports the best
// rep — wall-clock noise on shared runners only ever slows a run down, so
// best-of-N is the stable estimator of what the engine can do. The 1M
// smoke point always runs once.
//
// Output schema (BENCH_serve.json):
//   {
//     "bench": "engine_speed",
//     "points": [
//       { "name": str,            // point id, stable across PRs
//         "requests": int,        // requests offered
//         "completed": int,       // requests finished (== offered here)
//         "replicas": int,
//         "wall_s": float,        // host wall-clock for the run() call
//         "sim_req_per_s": float, // completed / wall_s — the headline
//         "events": int,          // engine events processed
//         "events_per_s": float,
//         "sim_makespan_s": float // simulated duration (determinism aid)
//       }, ... ]
//   }
//
// The simulated *outputs* of each point (completed counts, makespan) are
// deterministic; only the wall_s / per-second figures vary with the host.
// CI soft-compares sim_req_per_s against the committed baseline
// (bench/BENCH_serve.baseline.json) and warns — never fails — below 0.9x,
// so runner noise cannot break the build while real regressions stay
// visible PR over PR.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "model/config.hpp"
#include "serve/fleet.hpp"
#include "serve/serving_sim.hpp"
#include "serve/traffic.hpp"
#include "util/cli.hpp"
#include "workload/mix.hpp"

namespace {

using namespace looplynx;

struct Point {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint32_t replicas = 1;
  double wall_s = 0.0;
  double sim_req_per_s = 0.0;
  std::uint64_t events = 0;
  double events_per_s = 0.0;
  double sim_makespan_s = 0.0;
};

model::ModelConfig bench_model() {
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  return m;
}

/// Saturated single-replica config: the whole request population arrives
/// in the first simulated milliseconds and queues, so the scheduler is
/// never idle and wall clock measures the hot path, not arrival gaps.
serve::ServingConfig base_config(std::uint32_t requests) {
  serve::ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = bench_model();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"skewed",
                                  {{workload::make_scenario(8, 16), 0.8},
                                   {workload::make_scenario(192, 48), 0.2}}};
  cfg.traffic.num_requests = requests;
  cfg.traffic.arrival_rate_per_s = 5.0e6;  // effectively: all queued up front
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.max_in_flight = 64;
  cfg.scheduler.queue_capacity = requests;  // shed nothing: pure throughput
  return cfg;
}

/// Best-of-N repetitions (host noise is one-sided: it only ever slows a
/// rep down). The simulated outputs are deterministic, so every rep
/// produces identical completed/events/makespan — only wall_s varies.
int g_repeat = 3;

template <typename RunFn>
Point timed_point(const std::string& name, std::uint64_t requests,
                  std::uint32_t replicas, RunFn run, int repeat) {
  Point best;
  for (int rep = 0; rep < repeat; ++rep) {
    Point p;
    p.name = name;
    p.requests = requests;
    p.replicas = replicas;
    const auto t0 = std::chrono::steady_clock::now();
    run(p);
    const auto t1 = std::chrono::steady_clock::now();
    p.wall_s = std::chrono::duration<double>(t1 - t0).count();
    if (p.wall_s > 0) {
      p.sim_req_per_s = static_cast<double>(p.completed) / p.wall_s;
      p.events_per_s = static_cast<double>(p.events) / p.wall_s;
    }
    if (rep == 0 || p.wall_s < best.wall_s) best = p;
  }
  std::printf("%-28s %9llu req  %7.2fs wall  %12.0f req/s  %14llu events\n",
              best.name.c_str(),
              static_cast<unsigned long long>(best.requests), best.wall_s,
              best.sim_req_per_s,
              static_cast<unsigned long long>(best.events));
  std::fflush(stdout);
  return best;
}

Point single_point(const std::string& name, std::uint32_t requests,
                   serve::ServingConfig cfg, int repeat) {
  return timed_point(
      name, requests, 1,
      [&](Point& p) {
        serve::ServingSim sim(cfg);
        const serve::FleetMetrics m = sim.run();
        p.completed = m.completed + m.rejected;
        p.sim_makespan_s = m.duration_s;
        // events_processed is not exposed through FleetMetrics; derive a
        // proxy from iterations so the column is still monotone in work.
        p.events = m.iterations;
      },
      repeat);
}

Point fleet_point(const std::string& name, std::uint32_t requests,
                  std::uint32_t replicas) {
  return timed_point(
      name, requests, replicas,
      [&](Point& p) {
        const serve::FleetConfig cfg = serve::FleetConfig::homogeneous(
            base_config(requests), replicas,
            serve::BalancerPolicy::kJoinShortestQueue);
        const serve::FleetResult r = serve::FleetSim(cfg).run();
        p.completed = r.fleet.completed + r.fleet.rejected;
        p.sim_makespan_s = r.fleet.duration_s;
        p.events = r.fleet.iterations;
      },
      g_repeat);
}

void write_json(const std::string& path, const std::vector<Point>& points) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"engine_speed\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    { \"name\": \"%s\", \"requests\": %llu, \"completed\": %llu, "
        "\"replicas\": %u, \"wall_s\": %.3f, \"sim_req_per_s\": %.1f, "
        "\"events\": %llu, \"events_per_s\": %.1f, \"sim_makespan_s\": "
        "%.6f }%s\n",
        p.name.c_str(), static_cast<unsigned long long>(p.requests),
        static_cast<unsigned long long>(p.completed), p.replicas, p.wall_s,
        p.sim_req_per_s, static_cast<unsigned long long>(p.events),
        p.events_per_s, p.sim_makespan_s,
        i + 1 < points.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int run(const looplynx::util::Cli& cli) {
  const std::string out_path = cli.get_or("out", "BENCH_serve.json");
  const auto scale = cli.get_count_or("scale", 1);
  const bool skip_million = cli.has("skip-million");
  g_repeat = static_cast<int>(cli.get_count_or("repeat", 3));
  if (g_repeat < 1) g_repeat = 1;
  const auto n = [&](std::uint32_t requests) {
    return std::max<std::uint32_t>(1, requests / std::max(1u, scale));
  };

  std::vector<Point> points;

  {
    // Whole-prompt decode-priority: the pure continuous-batching loop.
    serve::ServingConfig cfg = base_config(n(100000));
    cfg.scheduler.policy = serve::BatchPolicy::kDecodePriority;
    points.push_back(single_point("single-100k-decode",
                                  cfg.traffic.num_requests, cfg, g_repeat));
  }
  {
    // Chunked prefill + paged KV + recompute preemption under pressure:
    // the admission / victim-pick / recompute machinery.
    serve::ServingConfig cfg = base_config(n(100000));
    cfg.scheduler.policy = serve::BatchPolicy::kChunkedMixed;
    cfg.scheduler.max_tokens_per_iter = 64;
    cfg.scheduler.preempt = serve::PreemptPolicy::kRecomputeYoungest;
    cfg.kv_block_tokens = 16;
    points.push_back(single_point("single-100k-chunked-paged",
                                  cfg.traffic.num_requests, cfg, g_repeat));
  }
  {
    // Fleet routing path: every arrival walks the balancer.
    const std::uint32_t requests = n(100000);
    points.push_back(fleet_point("fleet-100k-jsq-4", requests, 4));
  }
  if (!skip_million) {
    // Million-request single-replica smoke: completing at all (inside the
    // CI job budget) is the acceptance point; the rate is the trend line.
    serve::ServingConfig cfg = base_config(n(1000000));
    cfg.scheduler.policy = serve::BatchPolicy::kDecodePriority;
    points.push_back(single_point("single-1m-decode",
                                  cfg.traffic.num_requests, cfg, 1));
  }

  write_json(out_path, points);
  std::cout << "Wrote " << out_path << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return looplynx::util::run_main(argc, argv, run);
}
