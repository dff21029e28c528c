"""The benchmark's tracer wraps program functions by name.

``perfbench/tracing.py`` replaces module attributes of ``conifold_lab``
with timing wrappers and binds the arguments of ``build_grid`` and
``near_null_threshold`` by parameter name.  Instrumenting, tracing one
call of each and restoring must work, so that renaming or deleting a name
the tracer uses fails here and not only in ``run.py --trace 1``.  The
same holds for the glued geometry: the tracer wraps ``parametric_connect_sum``
and then each per-field callable of the glued geometry it returns.  A
kernel scan calls the wrapped ``near_null_threshold`` once per weight, all
on one exact-cone mesh built through the wrapped ``build_grid``, and per
pencil factors A - sigma B through the wrapped ``spla.splu`` once before
the wrapped ``spla.eigsh``.  The Poincare constant solves every mode with
the certified-shift engine, which calls neither the wrapped ``spla.eigsh``
nor the wrapped ``scipy.linalg.eigh``.  A glued embedding or GNS sweep
builds one bump family per t through the wrapped ``bump_family`` and
takes its norms from the family norm engine, which the tracer does not
wrap: its norm spans count only single-function norms.

The acceptance workload compares every emitted cell with the reference
recorded in ``perfbench/reference.json``.  Invertibility, compact
invertibility and Poincare (labels 02.-04.) emit only cells that do not
depend on the input seed, so one run at the workload's settings checks
them for every seed, here, at the reference's own tolerance.

The kernel scan's rows (thresholds and near-null sigmas) are the
outputs most sensitive to a change of bits.  For three input seeds the
kernel-scan workload runs one pass and its values are compared with the
reference, again at the reference's tolerance.  The n = 4000 scans report
wrong dimensions on every seed (a known defect of the normal-equation
pencil); they are compared like the rest and neither asserted nor hidden.
The glued-norm workload's sweeps and norm identities are compared the
same way for three input seeds.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conifold_lab import conifold_model as cm
from conifold_lab import experiments as ex
from conifold_lab import spectral_laplace as sl
from conifold_lab import weighted_calc as wc
from conifold_lab.conifold_model import preset_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_lists_every_experiment_in_order():
    # the tracer's experiments.run_s.<name> metrics come from its own copy
    # of the names; an added or renamed experiment must not drop out of them
    assert load_perfbench("tracing").EXPERIMENTS == ex.EXPERIMENTS


def test_tracer_instruments_and_restores():
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        tracer.enabled = True
        model = preset_model("hyperboloid_capped")
        sl.build_grid(model.geometry(0), n_per_region=60)
        sl.near_null_threshold(model.components[0].link, 3, 2.0, -0.5, 20.0)
        geo = cm.dumbbell_family().at(1e-2).geometry
        grid = wc.build_grid(geo, n_per_region=60)
        for attr in tracing._GEOMETRY_FIELDS:
            getattr(geo, attr)(grid.nodes)
        tracer.enabled = False
    finally:
        tracing.restore(patches)
    assert tracer.calls["weighted_calc.grid"] >= 3
    assert tracer.calls["spectral_laplace.threshold"] == 1
    assert tracer.calls["conifold_model.glue"] == 1
    # one traced call per wrapped glued field: none of the seven is missing
    assert tracer.calls["conifold_model.fields"] == len(tracing._GEOMETRY_FIELDS) == 7
    assert tracer.counts["conifold_model.fields.points"] == 7 * grid.n
    assert set(tracer.metrics()) == {name for name, _unit in tracing.LAYER_METRICS
                                     if name not in tracing.RUN_LEVEL}
    for obj, attr, orig in patches:
        assert getattr(obj, attr) is orig
    assert sl.build_grid is wc.build_grid


_FRESH_TRACE = """
import importlib.util, json, sys
from conifold_lab import conifold_model as cm
from conifold_lab import spectral_laplace as sl
from conifold_lab import weighted_calc as wc

fresh = not any(name.split(".")[0] == "scipy" for name in sys.modules)
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
handle = sl.spla
model = cm.preset_model("hyperboloid_capped")
grid = wc.build_grid(model.geometry(0), n_per_region=60)
tracer = tracing.Tracer()
patches = tracing.instrument(tracer)
try:
    tracer.enabled = True
    traced = sl.kernel_dimension_scan(model, [0.5, 1.5], e_max=2.0, grid=grid)
    tracer.enabled = False
finally:
    tracing.restore(patches)
untraced = sl.kernel_dimension_scan(model, [0.5, 1.5], e_max=2.0, grid=grid)
print(json.dumps({"fresh": fresh, "restored": sl.spla is handle,
                  "splu": tracer.calls["spectral_laplace.splu"],
                  "arpack": tracer.calls["spectral_laplace.arpack"],
                  "pencils": tracer.calls["spectral_laplace.pencil"],
                  "same_rows": untraced == traced}))
"""


def test_tracer_wraps_the_lazy_scipy_handles_in_a_fresh_interpreter():
    """spectral_laplace imports scipy at the first solve, through handles
    the tracer replaces; in a process that has not loaded scipy yet, a
    traced kernel scan still counts one splu and one ARPACK call per
    pencil, and after restore the handle is back and solves untraced."""
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    out = subprocess.run([sys.executable, "-c", _FRESH_TRACE, str(PERFBENCH / "tracing.py")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["fresh"] and got["restored"]
    assert got["splu"] == got["arpack"] == got["pencils"] > 0
    assert got["same_rows"]


def test_kernel_scan_builds_one_threshold_mesh():
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    model = preset_model("hyperboloid_capped")
    geo = model.geometry(0)
    grid = wc.build_grid(geo, n_per_region=60)
    modes = len(geo.link.eigenvalues_below(2.0))
    patches = tracing.instrument(tracer)
    try:
        tracer.enabled = True
        rows = sl.kernel_dimension_scan(model, [0.5, 1.5], e_max=2.0, grid=grid)
        tracer.enabled = False
    finally:
        tracing.restore(patches)
    assert [row.beta for row in rows] == [0.5, 1.5]
    assert tracer.calls["spectral_laplace.threshold"] == 2
    # the scan grid was passed in: the one traced grid is the threshold mesh
    assert tracer.calls["weighted_calc.grid"] == 1
    # one operator per mode for the mesh, one per mode and weight for the pencils
    assert tracer.calls["spectral_laplace.mode_operator"] == 3 * modes
    assert tracer.calls["spectral_laplace.pencil"] == 2 * modes
    assert tracer.calls["spectral_laplace.form"] == 4 * modes


def test_kernel_scan_factors_each_pencil_once_outside_arpack():
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    model = preset_model("hyperboloid_capped")
    geo = model.geometry(0)
    grid = wc.build_grid(geo, n_per_region=60)
    betas = [0.5, 1.5]
    modes = [e for e, _ in geo.link.eigenvalues_below(2.0)]
    nnz = 0
    for beta in betas:
        for e in modes:
            pen = sl.laplacian_pencil(grid, e, sl._form_parts(grid, beta))
            nnz += pen.A.nnz + pen.B.nnz
    patches = tracing.instrument(tracer)
    try:
        tracer.enabled = True
        sl.kernel_dimension_scan(model, betas, e_max=2.0, grid=grid)
        tracer.enabled = False
    finally:
        tracing.restore(patches)
    pencils = len(betas) * len(modes)
    assert tracer.calls["spectral_laplace.pencil"] == pencils
    assert tracer.calls["spectral_laplace.splu"] == tracer.calls["spectral_laplace.arpack"] \
        == pencils
    assert tracer.counts["spectral_laplace.pencil.nnz"] == nnz


def test_poincare_constant_makes_no_arpack_or_dense_solve():
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    model = cm.dumbbell_family().at(1e-2)
    patches = tracing.instrument(tracer)
    try:
        tracer.enabled = True
        rep = sl.poincare_constant(model, beta=-0.5, e_max=6.0, n_per_region=60)
        tracer.enabled = False
    finally:
        tracing.restore(patches)
    modes = len(rep.per_mode) + len(rep.bounded)  # solved and ruled out
    assert modes >= 2
    assert tracer.calls["spectral_laplace.mode_operator"] == modes
    assert tracer.calls["spectral_laplace.arpack"] == 0
    assert tracer.calls["spectral_laplace.dense_fallback"] == 0
    assert tracer.calls["spectral_laplace.eigs"] == 0


def test_glued_norm_sweeps_trace_their_bump_families():
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        tracer.enabled = True
        for name in ("embedding_uniformity", "gns_uniformity"):
            res = ex.run(ex.ExperimentConfig.from_dict(
                {"experiment": name, "t_list": [0.1, 0.01], "n_per_region": 60,
                 "family_size": 4}))
            assert len(res.rows) == 2
        tracer.enabled = False
    finally:
        tracing.restore(patches)
    assert tracer.calls["experiments.run.embedding_uniformity"] == 1
    assert tracer.calls["experiments.run.gns_uniformity"] == 1
    assert tracer.calls["weighted_calc.bumps"] == 4  # one family per sweep row
    assert tracer.calls["weighted_calc.grid"] == 4
    assert tracer.calls["weighted_calc.norm"] == 0  # families go through the engine
    # every norm (and bump) name the tracer wraps is still a public function
    wrapped = {attr for obj, attr, _ in patches if obj is wc}
    assert {"weighted_sobolev_norm", "gradient_norm", "weighted_ck_norm",
            "weighted_sobolev_norm_report", "bump_family"} <= wrapped
    for attr in wrapped:
        assert attr in wc.__all__ and callable(getattr(wc, attr))


def test_eigensolve_experiments_keep_the_acceptance_reference(tmp_path):
    inputs, workloads = load_perfbench("inputs"), load_perfbench("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    entry = reference["values"]["full"]["acceptance"]
    labels = ("02.", "03.", "04.")
    assert not [k for cells in entry["by_seed"].values() for k in cells if k.startswith(labels)]
    values = {}
    for i in (2, 3, 4):
        cfg = ex.ExperimentConfig.from_dict(dict(inputs.ACCEPTANCE_SUITE[i], seed=0))
        label = f"{i:02d}.{cfg.experiment}.{cfg.model}"
        ex.emit(ex.run(cfg), formats=inputs.EMIT_FORMATS, out_dir=tmp_path / label)
        workloads._read_emitted(label, tmp_path, values)
    want = {k: v for k, v in entry["common"].items() if k.startswith(labels)}
    assert sorted(values) == sorted(want)
    drifted = [k for k in want if not workloads.same(values[k], want[k], reference["rtol"],
                                                    reference["atol"])]
    assert drifted == []


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_kernel_scan_keeps_the_reference(tmp_path, seed):
    inputs, workloads = load_perfbench("inputs"), load_perfbench("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    spec = inputs.make_inputs("kernel_scan", seed)
    outcomes = workloads.run_pass(spec, workloads.setup(spec), tmp_path)
    _ops, values = workloads.check(spec, outcomes, tmp_path)
    assert workloads.compare(values, reference, spec) == []


@pytest.mark.parametrize("seed", [0, 5, 21])
def test_glued_norms_keeps_the_reference(tmp_path, seed):
    inputs, workloads = load_perfbench("inputs"), load_perfbench("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    spec = inputs.make_inputs("glued_norms", seed)
    outcomes = workloads.run_pass(spec, workloads.setup(spec), tmp_path)
    _ops, values = workloads.check(spec, outcomes, tmp_path)
    assert workloads.compare(values, reference, spec) == []
