"""The benchmark's own tests, at the tiny input scale.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _tiny_pass(workload, seed=0):
    spec = inputs.make_inputs(workload, seed, "tiny")
    state = workloads.setup(spec)
    with tempfile.TemporaryDirectory() as d:
        outcomes = workloads.run_pass(spec, state, Path(d))
        ops, values = workloads.check(spec, outcomes, Path(d))
    return spec, outcomes, ops, values


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    summary = "\n".join(lines[:-1])
    assert "failed_frac 0.0 ratio" in summary and "result_drift 0 count" in summary


def test_every_per_layer_metric_is_printed_with_its_unit():
    proc = _bench("--workload", "kernel_scan", "--seed", "0", "--seconds", "0",
                  "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(tracing.LAYER_METRICS)
    # the kernel scan is spectral work on a preset (non-glued) model
    assert metrics["spectral_laplace.arpack.calls"]["value"] > 0
    assert metrics["spectral_laplace.threshold.calls"]["value"] == 5
    assert metrics["conifold_model.fields.calls"]["value"] == 0
    assert metrics["experiments.emit_bytes"]["value"] == 0


def test_glued_norms_trace_has_no_eigensolves():
    spec = inputs.make_inputs("glued_norms", 0, "tiny")
    state = workloads.setup(spec)
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        tracer.enabled = True
        with tempfile.TemporaryDirectory() as d:
            workloads.run_pass(spec, state, Path(d))
    finally:
        tracer.enabled = False
        tracing.restore(patches)
    m = tracer.metrics()
    assert m["spectral_laplace.arpack.calls"] == 0
    assert m["spectral_laplace.pencil.calls"] == 0
    assert m["conifold_model.fields.calls"] > 0
    assert m["weighted_calc.norm.calls"] > 0
    assert m["weighted_calc.derivatives.calls"] > 0
    # nested spans: a layer's self time never exceeds its inclusive time
    assert m["weighted_calc.grid.self_s"] <= tracer.inclusive["weighted_calc.grid"]


def test_wrong_kernel_dimension_is_a_failed_operation(monkeypatch):
    scan = workloads.sl.kernel_dimension_scan

    def off_by_one(*args, **kwargs):
        rows = scan(*args, **kwargs)
        rows[2] = dataclasses.replace(rows[2], dimension=rows[2].dimension + 1)
        return rows

    spec, _, ops, _ = _tiny_pass("kernel_scan")
    assert all(ok for _, ok in ops)
    monkeypatch.setattr(workloads.sl, "kernel_dimension_scan", off_by_one)
    spec, _, ops, _ = _tiny_pass("kernel_scan")
    assert [name for name, ok in ops if not ok] == [f"n{spec['meshes'][0]}: wrong at w2"]


def test_known_kernel_defect_fails_one_operation_per_pass_on_every_seed():
    # the n=4000 scan is wrong on every recorded seed and the n=2000 scan on
    # none, so a run's failed count depends on its pass count only
    baseline = REFERENCE["values"]["full"]["kernel_scan"]["baseline_failed_ops"]
    assert len(baseline) == inputs.REFERENCE_SEEDS
    for names in baseline.values():
        assert len(names) == 1 and names[0].startswith("n4000: wrong at w")


def test_pass_count_is_fixed_by_the_seconds():
    assert run.pass_count(30, False) == round(30 / run.PASS_CYCLE_S) >= run.MIN_PASSES
    assert run.pass_count(0, False) == run.MIN_PASSES
    assert run.pass_count(0, True) == 2 * run.MIN_PASSES


def test_raising_experiment_is_a_failed_operation(monkeypatch):
    run_experiment = workloads.ex.run

    def broken(cfg):
        if cfg.experiment == "neck_convergence":
            raise RuntimeError("boom")
        return run_experiment(cfg)

    monkeypatch.setattr(workloads.ex, "run", broken)
    spec, _, ops, values = _tiny_pass("acceptance")
    assert [name for name, ok in ops if not ok] == ["03.neck_convergence.dumbbell"]
    missing = workloads.compare(values, REFERENCE, spec)
    assert missing and all(k.startswith("03.neck_convergence") for k in missing)


def test_perturbed_emitted_value_counts_as_drift():
    spec, _, _, values = _tiny_pass("acceptance", seed=1)
    assert workloads.compare(values, REFERENCE, spec) == []
    key = next(k for k, v in values.items()
               if k.startswith("01.embedding_uniformity") and k.endswith("/constant"))
    values[key] *= 1.0 + 1e-5
    assert workloads.compare(values, REFERENCE, spec) == [key]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "acceptance", "--seed", "0", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
