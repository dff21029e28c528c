"""conifold-lab benchmark: one workload, timed end to end, checked, and
optionally traced layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 30 --trace 0

Workloads (inputs.py): ``acceptance`` runs and emits the 10-experiment
acceptance suite, ``kernel_scan`` scans kernel dimensions on the capped
hyperboloid at two meshes, ``glued_norms`` runs the norm-only glued
sweeps. The load is a closed loop of one serial client: passes run one
after another, each in a fresh interpreter (worker.py). A run makes a fixed
number of passes, ``--seconds`` / ``PASS_CYCLE_S`` (at least ``MIN_PASSES``
of each kind), so it lasts about ``--seconds`` and the same arguments always
attempt the same operations.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (median per-pass import + set-up), ``pass_s`` (median pass
wall time), both scaled to the host's reference speed (calibration.py),
and ``peak_rss_mb`` (median peak resident memory of a pass process); raw
wall-clock medians are on the summary line. With ``--trace 1`` passes alternate between untraced and traced
(tracing.py) and the last line reports the per-layer metrics, medians over
the traced passes, with ``trace.overhead_s`` the difference of the two
pass medians; a traced n / e_max scaling table and the environment are
written to perfbench/out/ and summarised on stderr.

Every pass is checked: an operation fails when it raises, fails its gate
or fails an analytic oracle (``failed_frac``), and every emitted value is
compared with the reference recorded at the seed commit
(``result_drift``, reference.json). Both are printed on the summary line
before the result; ``correct`` is false when any value drifted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = 3
PASS_CYCLE_S = 4.0  # wall time of one pass with its interpreter, set-up and checks
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "CONIFOLD_LAB_THREADS")
SCALING = {  # invertibility_constant on the dumbbell at t = 0.1, per input scale
    "full": {"t": 0.1, "beta": -0.5, "n_per_region": [500, 1000, 2000, 4000],
             "e_max": [6.0, 12.0, 30.0]},
    "tiny": {"t": 0.1, "beta": -0.5, "n_per_region": [200], "e_max": [6.0]},
}
SCALING_COLUMNS = (  # stderr table: column -> the per-layer metrics it sums
    ("grid_s", ("weighted_calc.grid.self_s", "weighted_calc.derivatives.s")),
    ("assembly_s", ("spectral_laplace.pencil.self_s", "spectral_laplace.mode_operator.self_s",
                    "spectral_laplace.form.self_s")),
    ("arpack_s", ("spectral_laplace.arpack.s",)),
    ("eigs_self_s", ("spectral_laplace.eigs.self_s",)),
)
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


class BenchmarkError(RuntimeError):
    pass


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(root: Path, versions: dict) -> dict:
    return {"git_sha": _git_sha(root), "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "worker_threads_env": "CONIFOLD_LAB_THREADS removed", **versions}


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("CONIFOLD_LAB_THREADS", None)  # the harness stays serial
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(root: Path, out_dir: Path, task: dict, tag: str) -> dict:
    task_path = out_dir / f"task-{tag}.json"
    result_path = out_dir / f"result-{tag}.json"
    task_path.write_text(json.dumps(task), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(task_path), str(result_path)],
            cwd=root, env=_worker_env(root), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    finally:
        task_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)


def pass_count(seconds: float, trace: bool) -> int:
    """Passes in a run: fixed by `seconds`, never by the clock."""
    return max(round(seconds / PASS_CYCLE_S), MIN_PASSES * (2 if trace else 1))


def run_passes(root: Path, out_dir: Path, spec: dict, seconds: float, trace: bool) -> tuple:
    """Serial passes; traced and untraced alternate when tracing is on."""
    plain, traced = [], []
    for i in range(pass_count(seconds, trace)):
        want_trace = trace and i % 2 == 1
        task = {"spec": spec, "trace": want_trace, "out_dir": str(out_dir),
                "reference": str(HERE / "reference.json")}
        (traced if want_trace else plain).append(run_worker(root, out_dir, task, str(i)))
    return plain, traced


def scaled_median(workers: list, key: str) -> float:
    """Median of a per-pass time, each scaled by REFERENCE_S / the mean of
    the probes its worker ran just before and after the pass."""
    ref = calibration.REFERENCE_S
    return statistics.median(w[key] * ref / statistics.fmean(w["probe_s"]) for w in workers)


def layer_medians(plain: list, traced: list) -> dict:
    workers = plain + traced
    out = {}
    for name, _unit in tracing.LAYER_METRICS:
        if name == "setup.import_s":
            out[name] = statistics.median(w["import_s"] for w in workers)
        elif name == "setup.build_s":
            out[name] = statistics.median(w["build_s"] for w in workers)
        elif name == "trace.overhead_s":
            out[name] = scaled_median(traced, "pass_s") - scaled_median(plain, "pass_s")
        else:
            out[name] = statistics.median(w["layers"][name] for w in traced)
    return out


def scaling_report(root: Path, out_dir: Path, scale: str) -> list:
    rows = run_worker(root, out_dir, {"scaling": SCALING[scale], "out_dir": str(out_dir)},
                      "scaling")["scaling"]
    head = f"{'n':>6} {'e_max':>6} {'nodes':>7} {'modes':>5} {'wall_s':>8}"
    print(head + "".join(f" {name:>11}" for name, _ in SCALING_COLUMNS), file=sys.stderr)
    for r in rows:
        line = (f"{r['n_per_region']:>6} {r['e_max']:>6g} {r['grid_size']:>7} "
                f"{r['modes']:>5} {r['wall_s']:>8.4f}")
        for _, parts in SCALING_COLUMNS:
            line += f" {sum(r['layers'].get(p, 0.0) for p in parts):>11.4f}"
        print(line, file=sys.stderr)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=inputs.SCALES, default="full",
                    help="input size; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "conifold_lab" / "__init__.py").is_file():
        print("run.py: no src/conifold_lab here; run from the root of a conifold-lab "
              "checkout", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("run.py: perfbench/reference.json is missing", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spec = inputs.make_inputs(args.workload, args.seed, args.scale)
    try:
        plain, traced = run_passes(root, out_dir, spec, args.seconds, bool(args.trace))
        scaling = scaling_report(root, out_dir, args.scale) if args.trace else None
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    workers = plain + traced
    attempted = sum(w["attempted"] for w in workers)
    failed_ops = [op for w in workers for op in w["failed_ops"]]
    drift = max(w["drift"] for w in workers)
    wall = [w["pass_s"] for w in plain]
    q1, med, q3 = statistics.quantiles(wall, n=4)
    env = environment(root, workers[0]["versions"])
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} input_seed={spec['input_seed']} "
          f"passes={len(plain)} traced_passes={len(traced)}")
    print(f"wall pass_s median={med:.4f} q1={q1:.4f} q3={q3:.4f} min={min(wall):.4f} "
          f"max={max(wall):.4f} cpu median={statistics.median(w['pass_cpu_s'] for w in plain):.4f}"
          f" setup_s median={statistics.median(w['setup_s'] for w in plain):.4f} s; "
          f"probe median={statistics.median(p for w in workers for p in w['probe_s']):.4f} s "
          f"(reference {calibration.REFERENCE_S} s)")
    print(f"failed_frac {len(failed_ops) / attempted} ratio ({len(failed_ops)}/{attempted}) "
          f"result_drift {drift} count")
    for op in sorted(set(failed_ops)):
        print(f"failed operation: {op}")
    for w in workers:
        for key in w["drift_keys"]:
            print(f"drifted value: {key}")
        for err in w["errors"]:
            print(f"error: {err}")

    if args.trace:
        values = layer_medians(plain, traced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
        report = {"workload": args.workload, "seed": args.seed, "environment": env,
                  "per_layer": metrics, "scaling": scaling,
                  "span_edges": traced[len(traced) // 2]["edges"]}
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"trace report: {path}", file=sys.stderr)
    else:
        values = {"setup_s": scaled_median(plain, "setup_s"),
                  "pass_s": scaled_median(plain, "pass_s"),
                  "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plain)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": drift == 0, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
