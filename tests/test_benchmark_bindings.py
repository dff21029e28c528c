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
the wrapped ``spla.eigsh``.  A glued embedding or GNS sweep builds one
bump family per t through the wrapped ``bump_family`` and takes its norms
from the family norm engine, which the tracer does not wrap: its norm
spans count only single-function norms.
"""

import importlib.util
from pathlib import Path

from conifold_lab import conifold_model as cm
from conifold_lab import experiments as ex
from conifold_lab import spectral_laplace as sl
from conifold_lab import weighted_calc as wc
from conifold_lab.conifold_model import preset_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_and_restores():
    tracing = load_tracing()
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


def test_kernel_scan_builds_one_threshold_mesh():
    tracing = load_tracing()
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
    tracing = load_tracing()
    tracer = tracing.Tracer()
    model = preset_model("hyperboloid_capped")
    geo = model.geometry(0)
    grid = wc.build_grid(geo, n_per_region=60)
    betas = [0.5, 1.5]
    modes = [e for e, _ in geo.link.eigenvalues_below(2.0)]
    nnz = 0
    for beta in betas:
        for e in modes:
            pen = sl.laplacian_pencil(grid, e, sl._form_parts(grid, beta), kernel_scan=True)
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


def test_glued_norm_sweeps_trace_their_bump_families():
    tracing = load_tracing()
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
