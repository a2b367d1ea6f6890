#!/usr/bin/env python3
"""Compare benchmark suite results of a parent commit and a change.

    python3 bench/suite/compare.py --parent P1.json P2.json ... \\
                                   --change C1.json C2.json ...

Each file is one suite run written by run_all.sh. Runs pair up in the
order given (parent i with change i); run them alternately, the parent
first on odd pairs and the change first on even ones, with the same seed
within a pair. For every workload x end-to-end metric the table shows
each side's median and quartiles and the change's win fraction over the
pairs, then a verdict with BENCHMARK.json's bound for the metric:

  gain        the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range (needs >= 10
              pairs, and no more failed reps than the parent)
  regression  the change's median is worse than the parent's by more than
              the bound
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run
  unchanged   none of the above

A pair whose sim_digest differs is flagged: the simulated outputs moved,
which a pure host-speed change must never do. Exits 1 on any regression,
unresolved row, digest change or run that failed verification, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def verdict(parent, change, better, bound, failed_p, failed_c):
    sign = 1 if better == "higher" else -1
    qp, qc = quartiles(parent), quartiles(change)
    mp, mc = qp[1], qc[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = max((qp[2] - qp[0]) / abs(mp) if mp else 0,
                 (qc[2] - qc[0]) / abs(mc) if mc else 0)
    worse_by = sign * (mp - mc) / abs(mp) if mp else 0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse_by > bound:
        v = "regression"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif (wins >= 0.9 * len(pairs) and sign * (mc - mp) > qp[2] - qp[0]
          and failed_c <= failed_p):
        v = "gain" if len(pairs) >= 10 else "better (<10 pairs, no claim)"
    else:
        v = "unchanged"
    return qp, qc, wins, len(pairs), spread, v


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = p.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare.py: give as many change runs as parent runs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    bad = False
    print(f"{'workload':26} {'metric':24} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>6} {'spread':>7} {'bound':>6}"
          "  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        runs_p = [r["workloads"][w] for r in parent]
        runs_c = [r["workloads"][w] for r in change]
        failed_p = sum(r["failed"] for r in runs_p)
        failed_c = sum(r["failed"] for r in runs_c)
        for m in spec["end_to_end"]:
            name = m["name"]
            vp = [r["end_to_end"][name]["value"] for r in runs_p]
            vc = [r["end_to_end"][name]["value"] for r in runs_c]
            qp, qc, wins, n, spread, v = verdict(
                vp, vc, m["better"], m["bound"], failed_p, failed_c)
            bad |= v in ("regression", "unresolved")
            fmt = lambda q: "/".join(f"{x:.6g}" for x in q)
            print(f"{w:26} {name:24} {fmt(qp):>32} {fmt(qc):>32} "
                  f"{wins:>3}/{n:<2} {spread:7.2%} {m['bound']:6.1%}  {v}")
        for i, (a, b) in enumerate(zip(runs_p, runs_c)):
            if a["sim_digest"] != b["sim_digest"]:
                bad = True
                print(f"{w:26} sim_digest CHANGED in pair {i}: "
                      f"{a['sim_digest'][:16]} -> {b['sim_digest'][:16]}")
        incorrect = sum(not r["correct"] for r in runs_p + runs_c)
        if failed_p or failed_c or incorrect:
            bad |= incorrect > 0
            print(f"{w:26} failed reps: parent {failed_p}, change {failed_c}; "
                  f"runs failing verification: {incorrect}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
