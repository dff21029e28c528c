#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised per metric.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed0 S

For each seed S, S + 1, ..., S + N - 1 it runs

    python3 perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0

once in the PARENT checkout and once in the CHANGE checkout (each from its
own root, with its own perfbench/), the parent first on even seeds and the
change first on odd ones, so that a drift of the host's speed does not
favour one side.  SECONDS is the `run_seconds` of CHANGE's BENCHMARK.json
(30 without one), and each metric's better direction is read from its
`end_to_end` entries (lower when not listed).

For every end-to-end metric it prints min / Q1 / median / Q3 / max of
each side (quartiles as statistics.quantiles(values, n=4) gives them),
the pairs in which the change is better, the gap between the medians and
the parent's Q3 - Q1, and two verdicts:

* the gain rule: the change is better in at least 9 of 10 pairs (the
  same share of any number of pairs, rounded up) and its median is
  better than the parent's by more than the parent's Q3 - Q1;
* the bound: the change's median is worse than the parent's by at most
  the metric's `bound` in BENCHMARK.json, a share of the parent's median.

A warning line follows when the change's share of failed operations,
over all its runs, exceeds the parent's; then every run's values with
its `correct` flag and failed operations.  The exit status is 1 when a
run fails, 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_SECONDS = 30


def parse_result(stdout: str) -> dict:
    """The result object on the last line of run.py's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError(f"no metrics on run.py's last line: {lines[-1]!r}")
    return result


def _quartiles(values: list) -> tuple:
    """(min, Q1, median, Q3, max)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return min(values), q1, med, q3, max(values)


def summarize(pairs: list, better: dict | None = None, bounds: dict | None = None) -> list:
    """The report lines for pairs [(seed, parent result, change result)],
    results as parse_result returns them; better maps a metric to
    "lower" or "higher" (lower when missing), bounds a metric to its
    BENCHMARK.json bound (no bound verdict when missing)."""
    better, bounds = better or {}, bounds or {}
    need = -(-9 * len(pairs) // 10)  # pairs the change must win: 9 of 10, rounded up
    names = list(pairs[0][1]["metrics"])
    lines = [f"{'metric':<12} {'side':<6} {'min':>10} {'q1':>10} {'median':>10} "
             f"{'q3':>10} {'max':>10}"]
    for name in names:
        sides = {side: [p[i]["metrics"][name]["value"] for p in pairs]
                 for side, i in (("parent", 1), ("change", 2))}
        stats = {side: _quartiles(v) for side, v in sides.items()}
        for side, row in stats.items():
            lines.append(f"{name:<12} {side:<6} " + " ".join(f"{v:>10.4f}" for v in row))
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        med_p, med_c = stats["parent"][2], stats["change"][2]
        rel = f"{100.0 * (med_c - med_p) / med_p:+.1f} %" if med_p else "n/a"
        spread = stats["parent"][3] - stats["parent"][1]
        lines.append(f"{name}: change better in {wins} of {len(pairs)} pairs; median "
                     f"{med_p:.4f} -> {med_c:.4f} ({rel}); median gap {abs(med_c - med_p):.4f} "
                     f"against the parent's Q3 - Q1 {spread:.4f}")
        gain = med_p - med_c if lower else med_c - med_p  # > 0 when the change is better
        holds = wins >= need and gain > spread
        lines.append(f"{name}: gain rule {'holds' if holds else 'fails'}: better in {wins} of "
                     f"{len(pairs)} pairs (needs {need}), median better by {gain:.4f} "
                     f"(needs more than {spread:.4f})")
        if name in bounds and med_p:
            worse = -gain / abs(med_p)
            inside = worse <= bounds[name]
            lines.append(f"{name}: {'inside' if inside else 'OUTSIDE'} its bound: change median "
                         f"{100.0 * abs(worse):.1f} % {'worse' if worse > 0 else 'better'} than "
                         f"the parent's (bound: {100.0 * bounds[name]:.1f} % worse)")
    shares = {side: (sum(p[i]["failed"] for p in pairs), sum(p[i]["attempted"] for p in pairs))
              for side, i in (("parent", 1), ("change", 2))}
    (fp, ap), (fc, ac) = shares["parent"], shares["change"]
    if fc * ap > fp * ac:  # fc / ac > fp / ap without dividing by zero
        lines.append(f"WARNING: the change failed {fc}/{ac} operations, a larger share than "
                     f"the parent's {fp}/{ap}")
    for seed, parent, change in pairs:
        cells = []
        for side, res in (("parent", parent), ("change", change)):
            vals = " ".join(f"{n} {res['metrics'][n]['value']:.4f}" for n in names)
            cells.append(f"{side} {vals} correct {str(res['correct']).lower()} "
                         f"failed {res['failed']}/{res['attempted']}")
        lines.append(f"seed {seed}: " + " | ".join(cells))
    return lines


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {root} at seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    args = ap.parse_args(argv)
    for root in (args.parent, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            print(f"bench_pairs.py: {root} holds no perfbench/run.py", file=sys.stderr)
            return 2
    if args.pairs < 2:
        print("bench_pairs.py: quartiles need at least two pairs", file=sys.stderr)
        return 2
    bench_file = args.change / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text(encoding="utf-8")) if bench_file.is_file() else {}
    seconds = bench.get("run_seconds", DEFAULT_SECONDS)
    better = {m["name"]: m.get("better", "lower") for m in bench.get("end_to_end", [])}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", []) if "bound" in m}
    pairs = []
    try:
        for seed in range(args.seed0, args.seed0 + args.pairs):
            order = (("parent", args.parent), ("change", args.change))
            if seed % 2:
                order = order[::-1]
            res = {side: _run(root, args.workload, seed, seconds) for side, root in order}
            pairs.append((seed, res["parent"], res["change"]))
            print(f"seed {seed} done", file=sys.stderr)
    except (RuntimeError, ValueError) as exc:
        print(f"bench_pairs.py: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summarize(pairs, better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
