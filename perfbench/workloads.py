"""Workload passes, their correctness checks and the drift comparison.

A pass is split in three steps so that only the program's own work is
timed: ``setup`` builds the configs and models a pass consumes,
``run_pass`` is the timed work, and ``check`` turns its results into
operations (each passed or failed) and the emitted numeric values that
``compare`` holds against the recorded reference.

An operation fails when it raises, fails its own gate
(``SweepResult.passed``) or fails an analytic oracle:

* ``kernel_scan``: one operation per mesh (one ``kernel_dimension_scan``
  call, as one experiment is one operation elsewhere); it fails unless every
  detected kernel dimension equals the cumulative
  ``weight_calculus.index_change`` from the lowest scanned weight, and its
  name then lists the weights that came out wrong;
* ``norm_identities``: every rescaling-identity defect is at most
  ``IDENTITY_DEFECT`` and the weighted Hoelder sweep has no violation.

Program modules are reached through their module objects (``ex.run``,
``sl.kernel_dimension_scan``) so that the spans ``tracing.instrument``
installs are the ones called.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from conifold_lab import conifold_model as cm
from conifold_lab import experiments as ex
from conifold_lab import link_spectra as ls
from conifold_lab import spectral_laplace as sl
from conifold_lab import weight_calculus as wcalc

IDENTITY_DEFECT = 1e-10


def setup(spec: dict) -> dict:
    """Build what the timed pass consumes (configs, models)."""
    if spec["workload"] == "kernel_scan":
        return {"model": cm.preset_model(spec["model"])}
    return {"configs": [ex.ExperimentConfig.from_dict(d) for d in spec["experiments"]]}


def run_pass(spec: dict, state: dict, out_dir: Path) -> list:
    """The timed work: a list of (label, result or None, error or None)."""
    outcomes = []
    if spec["workload"] == "kernel_scan":
        for n in spec["meshes"]:
            try:
                rows = sl.kernel_dimension_scan(state["model"], spec["weights"],
                                                e_max=spec["e_max"], n_per_region=n)
                outcomes.append((f"n{n}", rows, None))
            except Exception as exc:  # a raising scan is a failed operation
                outcomes.append((f"n{n}", None, repr(exc)))
        return outcomes
    for i, cfg in enumerate(state["configs"]):
        label = f"{i:02d}.{cfg.experiment}.{cfg.model}"
        try:
            res = ex.run(cfg)
            if spec["workload"] == "acceptance":
                ex.emit(res, formats=tuple(spec["formats"]), out_dir=out_dir / label)
            outcomes.append((label, res, None))
        except Exception as exc:  # a raising experiment is a failed operation
            outcomes.append((label, None, repr(exc)))
    return outcomes


# --- checks -----------------------------------------------------------------


def _value(v):
    """Emitted cell -> float when numeric (bools as 0/1), else its text."""
    try:
        return float(v)
    except (TypeError, ValueError):
        return str(v)


def _read_emitted(label: str, out_dir: Path, values: dict) -> None:
    """Every cell of the emitted csv, json summary and plot-data files."""
    d = out_dir / label
    for path in sorted(d.iterdir()):
        key = f"{label}/{path.name}"
        if path.suffix == ".csv":
            with path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            for i, row in enumerate(rows[1:]):
                for col, cell in zip(rows[0], row):
                    values[f"{key}/{i}/{col}"] = _value(cell)
        elif path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            values[f"{key}/passed"] = _value(payload["passed"])
            for k, v in payload["summary"].items():
                values[f"{key}/summary/{k}"] = _value(v)
        elif path.suffix == ".dat":
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
                for j, cell in enumerate(line.split()):
                    values[f"{key}/{i}/{j}"] = _value(cell)


def _result_values(label: str, res, values: dict) -> None:
    for i, row in enumerate(res.rows):
        for col in res.columns:
            values[f"{label}/{i}/{col}"] = _value(row.get(col, ""))
    values[f"{label}/passed"] = _value(res.passed)
    for k, v in res.summary.items():
        values[f"{label}/summary/{k}"] = _value(v)


def _norm_identity_ops(label: str, res) -> list:
    ops = []
    for row in res.rows:
        if row["case"] == "holder_sweep":
            ok = row["defect"] == 0.0
        else:
            ok = row["defect"] <= IDENTITY_DEFECT
        ops.append((f"{label}/oracle/{row['case']}", ok))
    return ops


def expected_kernel_dims(spec: dict) -> list[int]:
    """Cumulative index change from the lowest scanned weight."""
    link = ls.make_link("sphere", dim=2)
    ends = [wcalc.EndDescriptor("AC", link)]
    w0 = wcalc.WeightVector((spec["weights"][0],))
    return [wcalc.index_change(w0, wcalc.WeightVector((b,)), ends, 3)
            for b in spec["weights"]]


def check(spec: dict, outcomes: list, out_dir: Path) -> tuple[list, dict]:
    """(operations as (name, ok), emitted values by key) of one pass."""
    ops, values = [], {}
    if spec["workload"] == "kernel_scan":
        expected = expected_kernel_dims(spec)
        for label, rows, err in outcomes:
            if err is not None:
                ops.append((label, False))
                continue
            wrong = [f"w{i}" for i, want in enumerate(expected) if rows[i].dimension != want]
            ops.append((f"{label}: wrong at {','.join(wrong)}" if wrong else label, not wrong))
            for i, row in enumerate(rows):
                name = f"{label}/w{i}"
                values[f"{name}/dimension"] = float(row.dimension)
                values[f"{name}/threshold"] = row.threshold
                values[f"{name}/ambiguous"] = float(row.ambiguous)
                for e, mult, sigma in row.per_mode:
                    values[f"{name}/sigma_e{e:g}"] = sigma
                    values[f"{name}/mult_e{e:g}"] = float(mult)
        return ops, values
    for label, res, err in outcomes:
        ops.append((label, err is None and res.passed))
        if err is not None:
            continue
        if res.experiment == "norm_identities":
            ops.extend(_norm_identity_ops(label, res))
        if spec["workload"] == "acceptance":
            _read_emitted(label, out_dir, values)
        else:
            _result_values(label, res, values)
    return ops, values


# --- drift ------------------------------------------------------------------


def reference_values(reference: dict, spec: dict) -> dict:
    entry = reference["values"][spec["scale"]][spec["workload"]]
    out = dict(entry["common"])
    out.update(entry["by_seed"][str(spec["input_seed"])])
    return out


def same(a, b, rtol: float, atol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol
    return a == b


def compare(values: dict, reference: dict, spec: dict) -> list[str]:
    """Keys whose value is missing, unexpected, or outside the reference's
    tolerance |a - b| <= rtol * max(|a|, |b|) + atol."""
    ref = reference_values(reference, spec)
    rtol, atol = reference["rtol"], reference["atol"]
    bad = [k for k in ref if k not in values or not same(values[k], ref[k], rtol, atol)]
    bad.extend(k for k in values if k not in ref)
    return sorted(bad)
