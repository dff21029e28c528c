#!/usr/bin/env python3
"""Run the five uniform-estimate t-sweeps of the acceptance suite
(configs/acceptance_suite.json) and print the per-t tables plus summaries.

Usage: python scripts/run_uniformity_sweeps.py [outdir]
"""

import json
import sys
from pathlib import Path

from conifold_lab.experiments import SWEEPS, ExperimentConfig, emit, run

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
SUITE = Path(__file__).resolve().parent.parent / "configs" / "acceptance_suite.json"


def main():
    entries = json.loads(SUITE.read_text(encoding="utf-8"))["experiments"]
    failures = []
    for entry in entries:
        if entry["experiment"] not in SWEEPS:
            continue
        res = run(ExperimentConfig.from_dict(entry))
        emit(res, formats=("csv", "json", "plotdata"), out_dir=OUT)
        print(f"== {res.experiment} ==")
        for row in res.rows:
            items = "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in row.items())
            print("  " + items)
        print(f"  summary: {res.summary}")
        if not res.passed:
            failures.append(res.experiment)
    if failures:
        print(f"FAILING: {', '.join(failures)}")
        sys.exit(1)
    print(f"all sweeps uniform; tables in {OUT}/")


if __name__ == "__main__":
    main()
