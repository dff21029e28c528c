"""The benchmark's tracer wraps program functions by name.

``perfbench/tracing.py`` replaces module attributes of ``conifold_lab``
with timing wrappers and binds the arguments of ``build_grid`` and
``near_null_threshold`` by parameter name.  Instrumenting, tracing one
call of each and restoring must work, so that renaming or deleting a name
the tracer uses fails here and not only in ``run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

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
        tracer.enabled = False
    finally:
        tracing.restore(patches)
    assert tracer.calls["weighted_calc.grid"] >= 2
    assert tracer.calls["spectral_laplace.threshold"] == 1
    assert set(tracer.metrics()) == {name for name, _unit in tracing.LAYER_METRICS
                                     if name not in tracing.RUN_LEVEL}
    for obj, attr, orig in patches:
        assert getattr(obj, attr) is orig
    assert sl.build_grid is wc.build_grid
