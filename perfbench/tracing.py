"""Spans around the calls into each conifold_lab module, from outside it.

``instrument`` replaces module-level public functions with timing wrappers
where their callers look them up (for example ``spectral_laplace`` imports
``build_grid`` by name and reaches ARPACK and SuperLU through its ``spla``
attribute). Lazy work is timed where it happens: ``RadialGrid`` derivative
matrices at first access, the glued geometry fields at each evaluation.

Spans nest: each one charges its duration to its parent, so a span's
self time excludes the spans opened inside it. A span whose name is
already open further up the stack adds to ``calls`` and self time but not
again to inclusive time. Aggregates are kept in memory per span name and
per (parent, child) edge; nothing is written while a pass runs.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

EXPERIMENTS = (
    "embedding_uniformity", "invertibility_uniformity", "compact_invertibility",
    "poincare_uniformity", "gns_uniformity", "neck_convergence", "eta_bounds",
    "weight_crossing", "region_atlas", "norm_identities",
)

# (metric name, unit). The per-layer metrics of BENCHMARK.json, in order.
LAYER_METRICS = (
    ("spectral_laplace.eigs.calls", "count"),
    ("spectral_laplace.eigs.self_s", "s"),
    ("spectral_laplace.arpack.calls", "count"),
    ("spectral_laplace.arpack.s", "s"),
    ("spectral_laplace.arpack.failures", "count"),
    ("spectral_laplace.dense_fallback.calls", "count"),
    ("spectral_laplace.splu.calls", "count"),
    ("spectral_laplace.splu.s", "s"),
    ("spectral_laplace.threshold.calls", "count"),
    ("spectral_laplace.threshold.s", "s"),
    ("spectral_laplace.threshold.repeat_frac", "ratio"),
    ("spectral_laplace.pencil.calls", "count"),
    ("spectral_laplace.pencil.self_s", "s"),
    ("spectral_laplace.pencil.nnz", "count"),
    ("spectral_laplace.mode_operator.calls", "count"),
    ("spectral_laplace.mode_operator.self_s", "s"),
    ("spectral_laplace.form.calls", "count"),
    ("spectral_laplace.form.self_s", "s"),
    ("weighted_calc.derivatives.calls", "count"),
    ("weighted_calc.derivatives.s", "s"),
    ("weighted_calc.grid.calls", "count"),
    ("weighted_calc.grid.self_s", "s"),
    ("weighted_calc.grid.nodes", "count"),
    ("weighted_calc.grid.repeat_frac", "ratio"),
    ("weighted_calc.norm.calls", "count"),
    ("weighted_calc.norm.self_s", "s"),
    ("weighted_calc.bumps.calls", "count"),
    ("weighted_calc.bumps.self_s", "s"),
    ("conifold_model.fields.calls", "count"),
    ("conifold_model.fields.s", "s"),
    ("conifold_model.fields.points", "count"),
    ("conifold_model.glue.calls", "count"),
    ("conifold_model.glue.s", "s"),
    ("conifold_model.neck_check.calls", "count"),
    ("conifold_model.neck_check.s", "s"),
    *((f"experiments.run_s.{name}", "s") for name in EXPERIMENTS),
    ("experiments.harness_self_s", "s"),
    ("experiments.emit_s", "s"),
    ("experiments.emit_bytes", "B"),
    ("weight_calculus.classify.calls", "count"),
    ("weight_calculus.classify.s", "s"),
    ("weight_calculus.exceptional.calls", "count"),
    ("weight_calculus.exceptional.s", "s"),
    ("link_spectra.spectrum.calls", "count"),
    ("link_spectra.spectrum.s", "s"),
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("trace.overhead_s", "s"),
)

# Filled in by run.py from the worker timings rather than from spans.
RUN_LEVEL = ("setup.import_s", "setup.build_s", "trace.overhead_s")

_GEOMETRY_FIELDS = ("f", "fp", "fpp", "rho", "beta", "wextra", "eta")


class Tracer:
    """Span aggregates of one process; spans record only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.edges = Counter()  # (parent, child) -> inclusive seconds
        self.counts = Counter()  # named sizes: nnz, nodes, points, bytes, ...
        self._stack = []  # [name, seconds spent in child spans]
        self._seen = {}  # span name -> set of call keys, for repeat counts

    def reset(self):
        self.__init__()

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) runs when it
        returns, outside the span's own time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            nested = any(frame[0] == name for frame in stack)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.failures"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_time[name] += dt - frame[1]
                if not nested:
                    self.inclusive[name] += dt
                self.edges[(parent, name)] += dt
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def note_repeat(self, name, key):
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.counts[f"{name}.repeats"] += 1
        seen.add(key)

    def metrics(self) -> dict:
        """Span-derived per-layer metrics (every name in LAYER_METRICS but
        the RUN_LEVEL ones)."""
        out = {}
        for metric, _unit in LAYER_METRICS:
            if metric in RUN_LEVEL:
                continue
            if metric.startswith("experiments."):
                continue
            span, field = metric.rsplit(".", 1)
            if field == "calls":
                out[metric] = self.calls[span]
            elif field == "s":
                out[metric] = self.inclusive[span]
            elif field == "self_s":
                out[metric] = self.self_time[span]
            elif field == "repeat_frac":
                calls = self.calls[span]
                out[metric] = self.counts[f"{span}.repeats"] / calls if calls else 0.0
            else:
                out[metric] = self.counts[f"{span}.{field}"]
        runs = [n for n in self.calls if n.startswith("experiments.run.")]
        for name in EXPERIMENTS:
            out[f"experiments.run_s.{name}"] = self.inclusive[f"experiments.run.{name}"]
        out["experiments.harness_self_s"] = sum(self.self_time[n] for n in runs)
        out["experiments.emit_s"] = self.inclusive["experiments.emit"]
        out["experiments.emit_bytes"] = self.counts["experiments.emit.bytes"]
        return out

    def edge_table(self) -> list:
        return [{"parent": p, "child": c, "s": s} for (p, c), s in
                sorted(self.edges.items(), key=lambda kv: -kv[1])]


class _Namespace:
    """A module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _keyed(tracer, name, fn, describe):
    """after-hook noting a call key built from fn's bound arguments."""
    sig = inspect.signature(fn)

    def after(args, kwargs, _result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.note_repeat(name, describe(bound.arguments))

    return after


def instrument(tracer: Tracer) -> list:
    """Install the spans; returns (object, attribute, original) triples
    for ``restore``."""
    import numpy as np
    import scipy.linalg
    import scipy.sparse.linalg as spla

    from conifold_lab import conifold_model as cm
    from conifold_lab import experiments as ex
    from conifold_lab import link_spectra as ls
    from conifold_lab import spectral_laplace as sl
    from conifold_lab import weight_calculus as wcalc
    from conifold_lab import weighted_calc as wc

    patches = []

    def patch(obj, attr, name, after=None, fn=None):
        orig = getattr(obj, attr)
        patches.append((obj, attr, orig))
        setattr(obj, attr, fn if fn is not None else tracer.wrap(name, orig, after))
        return getattr(obj, attr)

    # link_spectra / weight_calculus
    patch(ls.Link, "eigenvalues_below", "link_spectra.spectrum")
    patch(wcalc, "exceptional_weights", "weight_calculus.exceptional")
    patch(wcalc, "classify_weight_region", "weight_calculus.classify")

    # conifold_model: the glued geometry callables are wrapped per model
    def count_points(args, _kwargs, _result):
        tracer.counts["conifold_model.fields.points"] += int(np.size(args[0]))

    def wrap_fields(_args, _kwargs, glued):
        geo = glued.geometry
        for attr in _GEOMETRY_FIELDS:
            fn = getattr(geo, attr)
            if fn is not None:
                setattr(geo, attr, tracer.wrap("conifold_model.fields", fn, count_points))

    patch(cm, "parametric_connect_sum", "conifold_model.glue", wrap_fields)
    patch(cm, "neck_convergence_check", "conifold_model.neck_check")

    # weighted_calc
    def grid_after(args, kwargs, grid):
        tracer.counts["weighted_calc.grid.nodes"] += grid.n
        grid_key(args, kwargs, grid)

    grid_key = _keyed(tracer, "weighted_calc.grid", wc.build_grid, lambda a: (
        a["geometry"].label, repr(a["geometry"].plan), a["n_per_region"], a["r_max"],
        a["r_min_factor"], a["min_region_nodes"]))
    traced_grid = patch(wc, "build_grid", "weighted_calc.grid", grid_after)
    patch(sl, "build_grid", None, fn=traced_grid)
    patch(wc.RadialGrid, "_build_derivatives", "weighted_calc.derivatives")
    for attr in ("weighted_sobolev_norm", "gradient_norm", "weighted_ck_norm",
                 "weighted_sobolev_norm_report"):
        patch(wc, attr, "weighted_calc.norm")
    patch(wc, "bump_family", "weighted_calc.bumps")
    patch(wc, "random_bump_pairs", "weighted_calc.bumps")

    # spectral_laplace
    def pencil_after(_args, _kwargs, pen):
        tracer.counts["spectral_laplace.pencil.nnz"] += pen.A.nnz + pen.B.nnz

    patch(sl, "near_null_threshold", "spectral_laplace.threshold",
          _keyed(tracer, "spectral_laplace.threshold", sl.near_null_threshold, lambda a: (
              a["link"].spec_string(), a["m"], a["e_max"], a["beta"],
              a["nodes_per_decade"], tuple(a["r_span"]))))
    patch(sl, "laplacian_pencil", "spectral_laplace.pencil", pencil_after)
    patch(sl, "assemble_mode_operator", "spectral_laplace.mode_operator")
    patch(sl, "weighted_form", "spectral_laplace.form")
    patch(sl, "smallest_pencil_eigs", "spectral_laplace.eigs")
    patch(sl, "spla", None, fn=_Namespace(
        spla,
        eigsh=tracer.wrap("spectral_laplace.arpack", spla.eigsh),
        splu=tracer.wrap("spectral_laplace.splu", spla.splu)))
    # smallest_pencil_eigs imports eigh from scipy.linalg when ARPACK fails
    patch(scipy.linalg, "eigh", "spectral_laplace.dense_fallback")

    # experiments
    run = ex.run

    def traced_run(config):
        return tracer.wrap(f"experiments.run.{config.experiment}", run)(config)

    def emit_after(_args, _kwargs, paths):
        tracer.counts["experiments.emit.bytes"] += sum(p.stat().st_size for p in paths)

    patch(ex, "run", None, fn=functools.wraps(run)(traced_run))
    patch(ex, "emit", "experiments.emit", emit_after)
    return patches


def restore(patches: list) -> None:
    for obj, attr, orig in reversed(patches):
        setattr(obj, attr, orig)
