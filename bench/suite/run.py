#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the suite (bench/suite/CMakeLists.txt, which pulls in the simulator
library from the repository root) into .bench_build/suite, runs
looplynx_bench on the workload, and prints the harness's own
`workload metric value unit` lines followed by, as the last line of
stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced; with --trace 1 its per_layer list, from a traced run whose
Chrome trace lands in .bench_build/suite/trace-NAME-seed-N.json. Exits
nonzero without a result line when the build fails, and with status 1
when the run fails verification.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "suite"
RUN_TIMEOUT_S = 170


def build():
    """Configure (a no-op once configured) and build incrementally; cmake
    output goes to stderr so stdout ends with the result line."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(SUITE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "looplynx_bench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    specs = metric_specs(args.trace)
    build()
    stem = f"{args.workload}-seed-{args.seed}"
    out = BUILD / f"result-{stem}{'-trace' if args.trace else ''}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BUILD / "looplynx_bench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        cmd.append(f"--trace-out={BUILD / f'trace-{stem}.json'}")
    sys.stdout.flush()
    status = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    if not out.exists():
        sys.exit(f"run.py: looplynx_bench exited {status} without a result")

    result = json.loads(out.read_text())
    measured = result["metrics"]
    correct = result["correct"] and status == 0
    metrics = {}
    for s in specs:
        m = measured.get(s["name"])
        if m is None or m["unit"] != s["unit"]:
            print(f"run.py: metric {s['name']} [{s['unit']}] missing or "
                  f"in another unit", file=sys.stderr)
            correct = False
            continue
        metrics[s["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
