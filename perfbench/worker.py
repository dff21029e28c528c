"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py TASK_JSON RESULT_JSON

Started by run.py once per pass, so no pass sees program state left by
another one. TASK_JSON holds {"spec": <inputs.make_inputs(...)>,
"trace": bool, "out_dir": path, "reference": path}, or
{"scaling": {...}, "out_dir": path} for the traced n / e_max scaling
table. The worker times ``import conifold_lab`` and the workload's set-up
separately from the pass, runs the host-speed probe (calibration.py) just
before and just after the pass, checks the pass, and writes its timings,
probe times, peak resident memory, operation counts and drift to
RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _scaling(task: dict, tracing) -> list:
    """invertibility_constant per (n_per_region, e_max) cell, with the
    per-layer split of each cell."""
    from conifold_lab import conifold_model as cm
    from conifold_lab import spectral_laplace as sl

    cfg = task["scaling"]
    glued = cm.dumbbell_family(beta=cfg["beta"]).at(cfg["t"])
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    rows = []
    try:
        for n in cfg["n_per_region"]:
            for e_max in cfg["e_max"]:
                tracer.reset()
                tracer.enabled = True
                t0 = time.perf_counter()
                rep = sl.invertibility_constant(glued, beta=cfg["beta"], e_max=e_max,
                                                n_per_region=n)
                wall = time.perf_counter() - t0
                tracer.enabled = False
                layers = {k: v for k, v in tracer.metrics().items()
                          if v and not k.startswith("experiments.")}
                rows.append({"n_per_region": n, "e_max": e_max, "grid_size": rep.grid_size,
                             "modes": len(rep.per_mode), "constant": rep.constant,
                             "wall_s": wall, "layers": layers})
    finally:
        tracing.restore(patches)
    return rows


def main(task_path: str, result_path: str) -> int:
    task = json.loads(Path(task_path).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import conifold_lab
    t1 = time.perf_counter()
    import numpy
    import scipy

    import calibration
    import tracing
    import workloads

    versions = {"conifold_lab": conifold_lab.__version__, "numpy": numpy.__version__,
                "scipy": scipy.__version__, "python": sys.version.split()[0]}
    if "scaling" in task:
        rows = _scaling(task, tracing)
        result = {"scaling": rows, "versions": versions}
        Path(result_path).write_text(json.dumps(result), encoding="utf-8")
        return 0

    spec = task["spec"]
    t_build = time.perf_counter()
    state = workloads.setup(spec)
    t2 = time.perf_counter()
    tracer = None
    if task["trace"]:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=task["out_dir"]))
    probe_before = calibration.probe()
    try:
        if tracer is not None:
            tracer.enabled = True
        t3, c3 = time.perf_counter(), time.process_time()
        outcomes = workloads.run_pass(spec, state, out_dir)
        t4, c4 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.enabled = False
        peak_rss_mb = _peak_rss_mb()  # before the probe can add to it
        probe_after = calibration.probe()
        ops, values = workloads.check(spec, outcomes, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    reference = json.loads(Path(task["reference"]).read_text(encoding="utf-8"))
    drift = workloads.compare(values, reference, spec)
    result = {
        "import_s": t1 - t0,
        "build_s": t2 - t_build,
        "setup_s": (t1 - t0) + (t2 - t_build),
        "pass_s": t4 - t3,
        "pass_cpu_s": c4 - c3,
        "probe_s": [probe_before, probe_after],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed_ops": [name for name, ok in ops if not ok],
        "errors": [err for _label, _res, err in outcomes if err is not None],
        "drift": len(drift),
        "drift_keys": drift[:5],
        "versions": versions,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["edges"] = tracer.edge_table()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
