"""Record the reference values that ``result_drift`` is measured against.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every workload at every scale for input seeds 0 .. REFERENCE_SEEDS-1
in this process and writes perfbench/reference.json: the emitted values
shared by all seeds once, the rest per seed, and each seed's failed
operations as the baseline. Re-recording changes what the benchmark
accepts, so it is a benchmark change of its own, made only at a commit
whose numerics are the intended ones.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402

RTOL = 1e-7
ATOL = 1e-12


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def record(scale: str, workload: str) -> dict:
    by_seed, baseline = {}, {}
    for seed in range(inputs.REFERENCE_SEEDS):
        spec = inputs.make_inputs(workload, seed, scale)
        state = workloads.setup(spec)
        with tempfile.TemporaryDirectory() as d:
            outcomes = workloads.run_pass(spec, state, Path(d))
            ops, values = workloads.check(spec, outcomes, Path(d))
        by_seed[str(seed)] = values
        baseline[str(seed)] = [name for name, ok in ops if not ok]
        print(f"{scale} {workload} seed {seed}: {len(ops)} ops, "
              f"failed {baseline[str(seed)]}", file=sys.stderr, flush=True)
    first = by_seed["0"]
    common = {k: v for k, v in first.items()
              if all(k in vals and vals[k] == v for vals in by_seed.values())}
    for vals in by_seed.values():
        for k in common:
            del vals[k]
    return {"common": common, "by_seed": by_seed, "baseline_failed_ops": baseline}


def main() -> int:
    reference = {"recorded_at": _git_sha(), "rtol": RTOL, "atol": ATOL,
                 "input_seeds": inputs.REFERENCE_SEEDS, "values": {}}
    for scale in inputs.SCALES:
        reference["values"][scale] = {w: record(scale, w) for w in inputs.WORKLOADS}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
