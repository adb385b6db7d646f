#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise the spread.

Runs the command in BENCHMARK.json once per (workload, seed), in that order,
from the repository root. For every metric a run prints it reports the
median and the quartiles (``statistics.quantiles(values, n=4)``) over the
seeds, and for each end-to-end metric the quartile spread as a share of the
median next to a third of the metric's bound.

    python3 perfbench/prove.py                       # 10 seeds, all workloads
    python3 perfbench/prove.py --workloads rank_ladder --seeds 5
    python3 perfbench/prove.py --trace 1 --seeds 2   # per-layer metrics
    python3 perfbench/prove.py --out perfbench/baseline.json

Exits nonzero when a run fails, reports an incorrect output, or (with
``--trace 0``) an end-to-end spread reaches a third of its bound.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINE = re.compile(r"^(\w+)\.(\S+)\s+(-?[0-9.eE+-]+)(?:\s+(\S+))?$")


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m and m.group(1) == workload:
            printed[m.group(2)] = float(m.group(3))
    for line in lines:
        if line.startswith("# FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    return result, printed, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {
        "host": {
            "nproc": os.cpu_count(),
            "pool_workers": os.cpu_count(),
            "client_connections": os.cpu_count(),
            "build_profile": "release",
            "machine": platform.machine(),
            "git_rev": git_rev(),
            "run_seconds": args.seconds,
            "trace": args.trace,
            "seeds": seeds,
        },
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        per_metric = {}
        walls = []
        for seed in seeds:
            result, printed, wall = run_once(spec["command"], workload, seed,
                                             args.seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                print(f"  {workload} seed {seed}: INCORRECT "
                      f"({result['failed']} of {result['attempted']} failed)")
                ok = False
            values = {k: v["value"] for k, v in result["metrics"].items()}
            for k, v in printed.items():
                values.setdefault(k, v)
            for k, v in values.items():
                per_metric.setdefault(k, []).append(v)
        summary = {k: summarise(v) for k, v in per_metric.items() if len(v) >= 2}
        report["workloads"][workload] = {
            "wall_s_max": max(walls),
            "metrics": summary,
        }
        print(f"{workload}: {len(seeds)} runs, longest {max(walls):.1f} s")
        for k, s in summary.items():
            note = ""
            if args.trace == 0 and k in bounds:
                limit = bounds[k] / 3
                flag = "ok" if s["spread"] < limit else "WIDE"
                if flag == "WIDE":
                    ok = False
                note = f"spread {s['spread']:.4f} (bound/3 {limit:.4f}) {flag}"
            print(f"  {k:<34} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  {note}")
    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
