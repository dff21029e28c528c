"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed (seeds 0 .. runs-1) on each
workload, one run at a time, and reports for every end-to-end metric the
median of the runs and the spread (Q3 - Q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound in BENCHMARK.json. ``--out`` writes the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(one_run(workload, seed, bench["run_seconds"]))
            m = results[-1]["metrics"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in m.items())
                + f" failed={results[-1]['failed']}/{results[-1]['attempted']}"
                + f" correct={results[-1]['correct']}", flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / med, "bound": metric["bound"],
                                    "values": vals}
            print(f"  {metric['name']}: median {med:.4f} spread {(q3 - q1) / med:.4f} "
                  f"(bound {metric['bound']})", flush=True)
        report["workloads"][workload] = {
            "metrics": rows,
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "correct": all(r["correct"] for r in results),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
