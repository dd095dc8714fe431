#!/usr/bin/env python3
"""Run every workload, each in its own process, and print one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Prints wall_s, setup_s, peak_rss_mb, fail_frac and warnings with their
units and the ops and failed counts of one pass of each workload.  With
--trace it also runs each workload traced and prints every per-layer
metric, with the end-to-end metric and workload it should move.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(int(trace))],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stdout}{proc.stderr}")
    summary = next(line for line in proc.stdout.splitlines()
                   if line.startswith("summary "))
    return json.loads(summary[len("summary "):])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    runs = {w: run_workload(w, args.seed, args.seconds, False) for w in WORKLOADS}
    head = f"{'metric':<38}{'unit':<7}" + "".join(f"{w:>12}" for w in WORKLOADS)
    print(f"seed {args.seed}, {args.seconds:g} s per run, "
          f"{runs[WORKLOADS[0]]['threads']} BLAS thread(s)")
    print(head)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"{name:<38}{metric['unit']:<7}"
              + "".join(f"{runs[w]['metrics'][name]['value']:>12.4g}" for w in WORKLOADS))
    for name, unit in (("fail_frac", "1"), ("warnings", "count"), ("ops", "count"),
                       ("failed", "count"), ("passes", "count")):
        print(f"{name:<38}{unit:<7}" + "".join(f"{runs[w][name]:>12.4g}" for w in WORKLOADS))
    for w in WORKLOADS:
        for line in runs[w]["failures"]:
            print(f"{w} failed: {line}")
        for line in runs[w]["leaks"]:
            print(f"{w} leaked: {line}")
    if not args.trace:
        return 0

    traced = {w: run_workload(w, args.seed, args.seconds, True) for w in WORKLOADS}
    print()
    print(head + "  moves")
    moves = tracing.metric_moves()
    for metric in spec["per_layer"]:
        name = metric["name"]
        print(f"{name:<38}{metric['unit']:<7}"
              + "".join(f"{traced[w]['metrics'][name]['value']:>12.4g}" for w in WORKLOADS)
              + f"  {moves[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
