#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on one
workload and prints, for each end-to-end metric, its median, quartiles
and spread: (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them. A spread should stay below
a third of the metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --workload serve-vgg16 --seeds 1-10

The per-run result lines and the summary are kept in
.bench_build/perfbench/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(lines[-1])
        runs.append({"seed": seed, "result": res})
        print(f"seed {seed}: correct={res['correct']} " +
              " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':24} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}  ok")
    for m in bench["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread < m["bound"] / 3
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"], "values": vals}
        print(f"{m['name']:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {m['bound']:6.3g}  {'yes' if ok else 'NO'}")

    os.makedirs(".bench_build/perfbench", exist_ok=True)
    with open(f".bench_build/perfbench/spread-{args.workload}.json", "w") as f:
        json.dump({"workload": args.workload, "seconds": seconds, "runs": runs, "summary": summary}, f, indent=2)


if __name__ == "__main__":
    main()
