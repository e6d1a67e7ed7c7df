#!/usr/bin/env python3
"""Run one workload repeatedly and report how steady each metric is.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--record perfbench/baseline.json]

Each run uses the next seed and BENCHMARK.json's run_seconds. For every
metric the command prints the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median, next to the metric's bound and
whether the spread stays below a third of it. With --record, the summary is
merged into the given JSON file under the workload's name.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().split("\n")[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = []
    for seed in seeds:
        r = run_once(args.workload, seed, bench["run_seconds"])
        results.append(r)
        status = "ok" if r["correct"] else "INCORRECT"
        print(f"seed {seed}: {status}, {r['attempted']} attempted, {r['failed']} failed",
              file=sys.stderr)

    summary = {}
    print(f"{'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  steady")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        steady = "yes" if spread < bound / 3 else "NO"
        print(f"{name:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound:>6}  {steady}")
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": spread, "values": values}

    correct = all(r["correct"] for r in results)
    if args.record:
        path = args.record if args.record.is_absolute() else ROOT / args.record
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("machine", {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
        })
        doc[args.workload] = {"seeds": seeds, "run_seconds": bench["run_seconds"],
                              "all_correct": correct, "metrics": summary}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
