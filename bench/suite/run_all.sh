#!/usr/bin/env bash
# Builds the benchmark suite and runs its four workloads, each untraced
# (end-to-end metrics) and then traced (per-layer metrics), one process per
# run so peak RSS is per workload. Prints every metric as
# `workload metric value unit` and merges all results into one JSON file,
# the input compare.py reads.
#
#   bench/suite/run_all.sh [seed] [out.json]
#
# seed defaults to 1; out.json to .bench_build/suite/suite-seed-<seed>.json.
# Chrome traces land beside it as trace-<workload>-seed-<seed>.json.
# Exits nonzero if any run fails verification.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
build="$root/.bench_build/suite"
seed="${1:-1}"
out="${2:-$build/suite-seed-$seed.json}"
spec="$root/BENCHMARK.json"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4

cmake -S "$root/bench/suite" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target looplynx_bench -j "$jobs" >&2

status=0
parts=()
for w in $workloads; do
  for traced in 0 1; do
    part="$build/part-$w-seed-$seed-$traced.json"
    rm -f "$part"
    args=(--workload="$w" --seed="$seed" --seconds="$seconds" --out="$part")
    [ "$traced" = 1 ] && args+=(--trace-out="$build/trace-$w-seed-$seed.json")
    "$build/looplynx_bench" "${args[@]}" || status=1
    [ -f "$part" ] && parts+=("$part")
  done
done

python3 - "$out" "$seed" "${parts[@]}" <<'EOF'
import json, sys
out, seed, parts = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
suite = {"seed": seed, "workloads": {}}
for path in parts:
    r = json.load(open(path))
    w = suite["workloads"].setdefault(r["workload"], {
        "correct": True, "attempted": 0, "failed": 0,
        "sim_digest": r["sim_digest"]})
    # The traced and untraced runs simulate the same inputs.
    w["correct"] &= r["correct"] and r["sim_digest"] == w["sim_digest"]
    w["attempted"] += r["attempted"]
    w["failed"] += r["failed"]
    w["per_layer" if r["traced"] else "end_to_end"] = r["metrics"]
with open(out, "w") as f:
    json.dump(suite, f, indent=1)
EOF
echo "wrote $out" >&2
exit "$status"
