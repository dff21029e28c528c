"""Batch experiment harness: one table of two-stage experiments,
CSV/JSON/plot-data emission, and pass/fail summaries against declared
tolerances.

Each experiment is one entry of ``_TABLE``: its emitted columns (or the
keys of its first row), the model that a config's ``"model": "dumbbell"``
stands for (None for the three that read no model), and its prepare.  The
dumbbell is the field's default, so it stands for each experiment's own
default model: the dumbbell, except the spindle for
``compact_invertibility`` (the dumbbell is non-compact) and
``hyperboloid_capped`` for ``weight_crossing``.  ``prepare(cfg)`` loads
the model or family, glues it at every t and makes every check that can
refuse the config, by calling the checks of the code that runs later; it
returns ``work()``, which runs the numerics on exactly those objects and
returns ``(rows, summary)``: the rows as dicts, and a summary dict whose
last key is ``"pass"``.  ``_prepare`` applies the default model and
builds the ``SweepResult``, with the config echoed as given; ``run``
runs both stages and wraps any error in ``ExperimentError``;
``run_config_file`` prepares every entry before it runs any, so a config
it refuses writes nothing.  The five t-sweeps share one prepare, built by
``_sweep`` from a row, a gate and a check: one constant per t,
summarized by the max/min ratio and a log-log trend slope.  A sweep
carries the previous t's values: each row gets the report the row
returned at the previous t, and the invertibility and Poincare rows
start their certified eigen solves from its per-mode values (the emitted
values move by the solves' rounding only, at most 1.2e-9 relative on
the acceptance suite).

Tolerances live in the config with documented defaults (uniformity ratio
<= 2, identity checks <= 1e-10, slope fits within 10/15 percent); the
theory guarantees existence of uniform constants, not their values, so
thresholds are explicit and overridable.  Every config field is checked
against its declared type before anything runs: a JSON list stands for a
tuple, an int field takes no float and no field takes a bool, and every
number, tuple entries and tolerances included, must be finite.  Reruns
with equal config and seed produce byte-identical output files.
"""

import inspect
import json
import math
import numbers
import typing
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import conifold_model as cm
from . import spectral_laplace as sl
from . import weight_calculus as wcalc
from . import weighted_calc as wc
from .link_spectra import cone_link, make_link

__all__ = [
    "EXPERIMENTS",
    "DEFAULT_TOLERANCES",
    "ExperimentConfig",
    "SweepResult",
    "ExperimentError",
    "run",
    "emit",
    "run_config_file",
    "region_atlas_rows",
    "REGION_ATLAS_COLUMNS",
    "csv_text",
]

DEFAULT_TOLERANCES = {
    "uniformity_ratio": 2.0,
    "trend_slope": 0.1,
    "identity_defect": 1e-10,
    "eta_exponent_first": 0.1,
    "eta_exponent_second": 0.15,
    "constants_sigma": 1e-2,
    "crossing_slack": 0.2,
}

_DEFAULT_T = (1e-1, 1e-2, 1e-3, 1e-4)


def _conforms(value, tp) -> bool:
    """Whether value has the declared field type tp.  A list stands for a
    tuple, an int for a float, and a bool for neither."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items())
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(tp, tp))


def _non_finite(value):
    """The first number in value, a tuple's entries or a dict's values
    included, that is not finite (JSON reads NaN and Infinity), or None."""
    if isinstance(value, (list, tuple, dict)):
        items = value.values() if isinstance(value, dict) else value
        return next((x for x in map(_non_finite, items) if x is not None), None)
    return value if isinstance(value, numbers.Real) and not math.isfinite(value) else None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: which metric, on which model, over which sweep."""

    experiment: str
    model: str = "dumbbell"
    t_list: tuple[float, ...] = _DEFAULT_T
    p: float = 2.0
    beta: float = -0.5
    e_max: float = 12.0
    n_per_region: int = 400
    r_max: float = 1.0e3
    seed: int = 0
    family_size: int = 32
    tau: float = 0.5
    a: float = 0.4
    b: float = 0.2
    grid_step: float = 0.25
    kind: str = "AC"
    m: int = 3
    link: str = "sphere:2"
    gamma_cases: tuple[tuple[float, float], ...] = ((0.0, 0.0), (1.0, 2.0))
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, f.type):
                raise ValueError(f"{f.name} must be {inspect.formatannotation(f.type)}, "
                                 f"got {value!r}")
            bad = _non_finite(value)
            if bad is not None:
                raise ValueError(f"{f.name} must be finite, got {bad}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        ts = tuple(float(t) for t in self.t_list)
        if any(not 0.0 < t < 1.0 for t in ts):
            raise ValueError("t values must lie in (0, 1)")
        if any(t2 >= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("t_list must be strictly decreasing")
        object.__setattr__(self, "t_list", ts)
        object.__setattr__(self, "gamma_cases",
                           tuple((float(g), float(e)) for g, e in self.gamma_cases))
        for name, bad, want in (("t_list", not ts, "non-empty"),
                                ("n_per_region", self.n_per_region < 1, ">= 1"),
                                ("r_max", self.r_max <= 0, "> 0"),
                                ("family_size", self.family_size < 1, ">= 1"),
                                ("seed", self.seed < 0, ">= 0"),
                                ("e_max", self.e_max < 0, ">= 0"),
                                ("grid_step", self.grid_step <= 0, "> 0"),
                                ("gamma_cases", not self.gamma_cases, "non-empty")):
            if bad:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerances {unknown}; "
                             f"expected names from {sorted(DEFAULT_TOLERANCES)}")
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(self.tolerances)
        if any(v <= 0 for v in tol.values()):
            raise ValueError("tolerances must be positive")
        object.__setattr__(self, "tolerances", tol)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        names = [f.name for f in fields(ExperimentConfig)]
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; expected names from {names}")
        if "experiment" not in d:
            raise ValueError(f"config has no 'experiment'; expected one of {EXPERIMENTS}")
        # __post_init__ turns JSON lists into the tuple fields
        return ExperimentConfig(**d)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**d, "t_list": list(self.t_list), "tolerances": dict(self.tolerances),
                "gamma_cases": [list(c) for c in self.gamma_cases]}


class SweepResult(typing.NamedTuple):
    experiment: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    summary: dict
    passed: bool
    seed: int
    config: dict


def _fit_slope(xs, ys):
    return wc._loglog_slope(np.asarray(xs, dtype=float),
                            np.maximum(np.asarray(ys, dtype=float), 1e-300))


_FAMILIES = {"dumbbell": cm.dumbbell_family, "spindle": cm.spindle_family}
_MODELS = ("hyperboloid_capped", "exact_cone_cs_ac", "rxs2", "sine_spindle")


def _load(name: str, glued: bool):
    """The glued family (glued) or base model in the file that a model
    name other than a preset stands for: a file (not a directory), .json
    for a glued family.  ValueError otherwise, and naming the file for
    its loader's KeyError or TypeError."""
    path = Path(name)
    if not (path.is_file() and (path.suffix == ".json" or not glued)):
        raise ValueError(f"unknown {'glued benchmark' if glued else 'model'} {name!r}; expected "
                         f"one of {tuple(_FAMILIES) if glued else _MODELS} or an existing "
                         f"{'.json ' if glued else ''}file")
    try:
        return (cm.load_family if glued else cm.load_model)(path)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model file {name!r} does not load: "
                         f"{type(exc).__name__}: {exc}") from exc


def _family(cfg: ExperimentConfig):
    preset = _FAMILIES.get(cfg.model)
    if preset is not None:
        return preset(beta=cfg.beta, tau=cfg.tau, a=cfg.a, b=cfg.b)
    return _load(cfg.model, glued=True)


# --- t-sweeps ----------------------------------------------------------------
# One constant per t of the glued family; a sweep passes when max/min is
# within the uniformity ratio and its own gate (if any) holds.


def _grid_and_bumps(cfg: ExperimentConfig, glued):
    grid = wc.build_grid(glued.geometry, n_per_region=cfg.n_per_region, r_max=cfg.r_max)
    return grid, wc.bump_family(grid, n_members=cfg.family_size, seed=cfg.seed)


def _embedding_row(cfg, glued, _previous=None):
    grid, bumps = _grid_and_bumps(cfg, glued)
    rep = wc.embedding_constant_estimate(bumps, p=cfg.p, beta=cfg.beta)
    return {"t": glued.t[0], "constant": rep.constant, "p_star": rep.p_star,
            "family_size": len(bumps), "grid_size": grid.n}, None


def _invertibility_row(cfg, glued, previous=None):
    rep = sl.invertibility_constant(glued, beta=cfg.beta, e_max=cfg.e_max,
                                    n_per_region=cfg.n_per_region, r_max=cfg.r_max,
                                    previous=previous)
    row = {"model": cfg.model, "t": glued.t[0], "beta": cfg.beta,
           "constant": rep.constant, "sigma_min": rep.sigma_min,
           "grid_size": rep.grid_size}
    for e, s in rep.per_mode:
        row[f"sigma_e{e:g}"] = s
    return row, rep


def _compact_row(cfg, glued, _previous=None):
    rep = sl.restricted_invertibility_compact(
        glued, beta=cfg.beta, e_max=cfg.e_max, n_per_region=cfg.n_per_region)
    return {"model": cfg.model, "t": glued.t[0], "beta": cfg.beta, "constant": rep.constant,
            "sigma_constrained": rep.sigma_constrained,
            "sigma_mode0_unconstrained": rep.sigma_mode0_unconstrained,
            "grid_size": rep.grid_size}, None


def _poincare_row(cfg, glued, previous=None):
    rep = sl.poincare_constant(glued, beta=cfg.beta, e_max=cfg.e_max,
                               n_per_region=cfg.n_per_region, r_max=cfg.r_max,
                               previous=previous)
    return {"model": cfg.model, "t": glued.t[0], "beta": cfg.beta,
            "constant": rep.constant, "grid_size": rep.grid_size}, rep


def _gns_row(cfg, glued, _previous=None):
    ce = wcalc.conjugate_exponents(cfg.p, glued.m)
    grid, bumps = _grid_and_bumps(cfg, glued)
    # ||u||_{L^p*_beta} / ||du||_{L^p_{beta-1}} over the family, in one pass
    ratios = wc.norm_ratios(bumps, cfg.beta, (ce.p_star, (0,)), (cfg.p, (1,)))
    return {"t": glued.t[0], "constant": float(ratios.max()), "p_star": ce.p_star,
            "grid_size": grid.n}, None


def _bump_check(cfg, geo):
    """A bump sweep's refusals at one t: p needs a p*, and the bump family
    reads the link's least nonzero eigenvalue."""
    if wcalc.conjugate_exponents(cfg.p, geo.m).p_star is None:
        raise ValueError(f"p = {cfg.p} >= m: no L^p* target")
    wc._first_nonzero_mode(geo)


def _eigen_check(checks):
    """An eigen sweep's refusals at one t: its solver's weight checks
    (spectral_laplace's tuple), silent here as the solver repeats them and
    warns then, and the link's spectrum up to e_max, the modes it solves."""

    def check(cfg, geo):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for weights in checks:
                weights(geo, float(cfg.beta))
        geo.link.eigenvalues_below(cfg.e_max)

    return check


def _slope_gate(cfg, rows, slope):
    return {}, abs(slope) <= cfg.tolerances["trend_slope"]


def _constants_gate(cfg, rows, slope):
    # the unconstrained mode-0 pencil must see the constants as a near-kernel
    detected = all(
        r["sigma_mode0_unconstrained"]
        < cfg.tolerances["constants_sigma"] * r["sigma_constrained"] for r in rows)
    return {"constants_detected": detected}, detected


def _sweep(row, gate, check):
    """The t-sweep of row(cfg, glued, previous) -> (dict with a "constant",
    report), gate(cfg, rows, slope) -> (extra summary keys, ok) or None,
    and check(cfg, geometry), the row's refusals at one t.  previous is
    the report the row returned at the previous t (None at the first):
    the eigen rows start their solves from its per-mode values."""

    def prepare(cfg: ExperimentConfig):
        if len(cfg.t_list) < 2:
            raise ValueError(f"a t-sweep needs at least two t values, got {cfg.t_list}")
        fam = _family(cfg)
        glued = [fam.at(t) for t in cfg.t_list]
        for g in glued:
            wc._check_r_max(g.geometry, cfg.r_max)  # a compact geometry has no AC end
            check(cfg, g.geometry)

        def work():
            rows, previous = [], None
            for g in glued:
                r, previous = row(cfg, g, previous)
                rows.append(r)
            consts = [r["constant"] for r in rows]
            vmax, vmin = max(consts), min(consts)
            ratio = vmax / vmin if vmin > 0 else math.inf
            slope = _fit_slope(cfg.t_list, consts)
            extra, ok = gate(cfg, rows, slope) if gate else ({}, True)
            passed = ratio <= cfg.tolerances["uniformity_ratio"] and ok
            return rows, {"max": vmax, "min": vmin, "max_over_min": ratio,
                          "trend_slope": slope, **extra, "pass": passed}

        return work

    return prepare


# --- other experiments -------------------------------------------------------


def _neck(cfg: ExperimentConfig):
    # the rows are diagnostics of the gluing itself, made as prepare glues each t
    fam = _family(cfg)
    rows = [{"t": t, "pair": entry["pair"], "j": entry["j"], "sup": entry["sup"]}
            for t in cfg.t_list for entry in cm.neck_convergence_check(fam, t)]
    seqs = [[r["sup"] for r in rows if (r["pair"], r["j"]) == key]
            for key in {(r["pair"], r["j"]) for r in rows}]
    decreasing = not any(b >= a for seq in seqs for a, b in zip(seq, seq[1:]))
    return lambda: (rows, {"strictly_decreasing": decreasing, "pass": decreasing})


def _eta(cfg: ExperimentConfig):
    etas = [(t, cm.cutoff_eta(t, cfg.a, cfg.b)) for t in cfg.t_list]

    def work():
        tol = cfg.tolerances
        rows = []
        for t, eta in etas:
            s = np.linspace(cfg.b, cfg.a, 4001)
            r = t**s
            m1 = float(np.max(np.abs(r * eta.deriv(r, 1))))
            m2 = float(np.max(np.abs(r * r * eta.deriv(r, 2))))
            rows.append({"t": t, "max_r_eta1": m1, "max_r2_eta2": m2,
                         "inv_log_t": 1.0 / abs(math.log(t))})
        x = [r["inv_log_t"] for r in rows]
        exp1 = _fit_slope(x, [r["max_r_eta1"] for r in rows])
        exp2 = _fit_slope(x, [r["max_r2_eta2"] for r in rows])
        passed = (abs(exp1 - 1.0) <= tol["eta_exponent_first"]
                  and abs(exp2 - 1.0) <= tol["eta_exponent_second"])
        return rows, {"exponent_first": exp1, "exponent_second": exp2, "pass": passed}

    return work


def _crossing(cfg: ExperimentConfig):
    # a base model of one component: _resolve_geometry refuses more
    geo = sl._resolve_geometry(cm.preset_model(cfg.model, beta=cfg.beta)
                               if cfg.model in _MODELS else _load(cfg.model, glued=False))
    wc._check_r_max(geo, cfg.r_max)
    for gamma, e in cfg.gamma_cases:
        sl._crossing_setup(geo, gamma, e)

    def work():
        rows = []
        for gamma, e in cfg.gamma_cases:
            rep = sl.weight_crossing_kernel(geo, gamma=float(gamma), e=float(e),
                                            slack=cfg.tolerances["crossing_slack"],
                                            n_per_region=cfg.n_per_region, r_max=cfg.r_max)
            slope_ok = rep.tail_slope is None or rep.tail_slope <= rep.slope_bound
            resid_ok = rep.residual_sigma < rep.threshold
            rows.append({"gamma": gamma, "e": e,
                         "tail_slope": rep.tail_slope if rep.tail_slope is not None else "floor",
                         "slope_bound": rep.slope_bound,
                         "residual_sigma": rep.residual_sigma,
                         "threshold": rep.threshold,
                         "pass": slope_ok and resid_ok})
        return rows, {"pass": all(r["pass"] for r in rows)}

    return work


REGION_ATLAS_COLUMNS = ("beta1", "beta2", "exceptional", "injective",
                        "surjective", "index", "kernel_dim")


_REGION_ENDS = {"AC": ("AC", "AC"), "CS": ("CS", "CS"), "CSAC": ("CS", "AC")}


def region_atlas_rows(kind: str, m: int, link_spec: str, step: float,
                      lo: float | None = None, hi: float | None = None):
    """Classification grid replicating the qualitative content of the
    harmonic-function region figures: one row per weight cell, the
    classify_weight_region facts at its two weights (or a mark where one
    is exceptional), summed from each end's terms at each weight, which
    read the link once per distinct (end, weight).  A link
    whose dimension is not m - 1, a step that is not positive, or an
    interval with lo >= hi raises ValueError, as does a kind other than
    AC, CS and CSAC."""
    if kind not in _REGION_ENDS:
        raise ValueError(f"unknown region kind {kind!r}; expected one of {tuple(_REGION_ENDS)}")
    link = cone_link(link_spec, m)
    lo = lo if lo is not None else (2.0 - m) - 1.5
    hi = hi if hi is not None else 1.5
    if not step > 0:
        raise ValueError(f"weight grid step must be positive, got {step:g}")
    if not lo < hi:
        raise ValueError(f"weight interval lo:hi needs lo < hi, got {lo:g}:{hi:g}")
    vals = [float(b) for b in np.arange(lo, hi + step / 2, step)]
    ends = [wcalc.EndDescriptor(k, link) for k in _REGION_ENDS[kind]]

    def end_terms(end, b):
        try:
            return wcalc._end_terms(end, m, b)
        except wcalc.ExceptionalWeightError:
            return None

    # one read of the link per distinct (end, weight); None where b is exceptional
    terms = {key: end_terms(*key) for key in dict.fromkeys((e, b) for e in ends for b in vals)}

    def show(v):
        return "" if v is None else (int(v) if isinstance(v, (bool, int)) else v)

    rows = []
    for b1 in vals:
        for b2 in vals:
            cell = [terms[end, b] for end, b in zip(ends, (b1, b2))]
            if None in cell:
                cells = (1, None, None, None, None)
            else:
                facts = wcalc._region_facts(kind, ends, (b1, b2), m, cell)
                cells = (0, facts.injective, facts.surjective, facts.index, facts.kernel_dim)
            rows.append(dict(zip(REGION_ATLAS_COLUMNS, (b1, b2, *map(show, cells)))))
    return rows


def _region_atlas(cfg: ExperimentConfig):
    # classifying the cells reads the link's spectrum: prepare classifies them all
    rows = region_atlas_rows(cfg.kind, cfg.m, cfg.link, cfg.grid_step)
    # consistency: where surjectivity and index are both known, kernel = index
    ok = all(r["kernel_dim"] == r["index"] or r["injective"] == 1 for r in rows
             if not r["exceptional"] and r["surjective"] == 1
             and r["index"] != "" and r["kernel_dim"] != "")
    return lambda: (rows, {"cells": len(rows), "consistent": ok, "pass": ok})


def _norm_identities(cfg: ExperimentConfig):
    wc._holder_sweep([], cfg.p, cfg.beta, 0.25)  # no pairs: checks p alone
    # the exact cone, and a cone of variable per-end weights (they need the
    # constant reference-weight correction); build_grid checks r_max
    var = cm.exact_cone_model(make_link("sphere", dim=2), 3, cfg.beta, cfg.beta + 1.0, 2.0)
    grid, vgrid = (wc.build_grid(geo, n_per_region=cfg.n_per_region, r_max=cfg.r_max)
                   for geo in (cm.preset_model("exact_cone_cs_ac", beta=cfg.beta).geometry(0),
                               var.geometry(0)))

    def work():
        tol = cfg.tolerances
        rows = []
        rng = np.random.default_rng(cfg.seed)
        bumps = wc.bump_family(grid, n_members=4, seed=cfg.seed)
        cases = []
        for i, u in enumerate(bumps):
            t = float(10.0 ** (-rng.uniform(0.3, 2.0)))
            cases.append((f"scaled_{i}", u, wc.WeightSpec(p=2.0, k=min(i, 2) % 3, beta=0.0), t))
            cases.append((f"weighted_{i}", u,
                          wc.WeightSpec(p=2.0, k=(i + 1) % 3, beta=cfg.beta), t))
        vbumps = wc.bump_family(vgrid, n_members=2, modes=(0.0,), seed=cfg.seed + 1)
        for i, u in enumerate(vbumps):
            t = float(10.0 ** (-rng.uniform(0.5, 1.5)))
            cases.append((f"variable_{i}", u,
                          wc.WeightSpec(p=2.0, k=1, beta=None, beta_prime=cfg.beta), t))
        for name, u, spec, t in cases:
            defect = wc.rescaling_invariance_check(u, spec, t)
            rows.append({"case": name, "t": t, "k": spec.k,
                         "beta": "per-end" if spec.beta is None else spec.beta,
                         "defect": defect, "pass": int(defect <= tol["identity_defect"])})
        pairs = wc.random_bump_pairs(grid, 100, seed=cfg.seed)
        violations = sum(rep.violated for rep in wc._holder_sweep(pairs, cfg.p, cfg.beta, 0.25))
        rows.append({"case": "holder_sweep", "t": 0.0, "k": 0, "beta": cfg.beta,
                     "defect": float(violations), "pass": int(violations == 0)})
        return rows, {"holder_violations": violations, "pass": all(r["pass"] for r in rows)}

    return work


# experiment -> (emitted columns, or None for the first row's keys in order,
#   the model a config's "dumbbell" stands for, or None where no model is read,
#   prepare(cfg) -> work, work() -> (rows, summary))
_TABLE = {
    "embedding_uniformity": (None, "dumbbell", _sweep(_embedding_row, _slope_gate, _bump_check)),
    "invertibility_uniformity": (None, "dumbbell", _sweep(
        _invertibility_row, None, _eigen_check(sl._INVERTIBILITY_CHECKS))),
    "compact_invertibility": (None, "spindle", _sweep(
        _compact_row, _constants_gate, _eigen_check(sl._COMPACT_CHECKS))),
    "poincare_uniformity": (None, "dumbbell", _sweep(
        _poincare_row, None, _eigen_check(sl._POINCARE_CHECKS))),
    "gns_uniformity": (None, "dumbbell", _sweep(_gns_row, None, _bump_check)),
    "neck_convergence": (("t", "pair", "j", "sup"), "dumbbell", _neck),
    "eta_bounds": (("t", "max_r_eta1", "max_r2_eta2", "inv_log_t"), None, _eta),
    "weight_crossing": (("gamma", "e", "tail_slope", "slope_bound", "residual_sigma",
                         "threshold", "pass"), "hyperboloid_capped", _crossing),
    "region_atlas": (REGION_ATLAS_COLUMNS, None, _region_atlas),
    "norm_identities": (("case", "t", "k", "beta", "defect", "pass"), None, _norm_identities),
}

EXPERIMENTS = tuple(_TABLE)


class ExperimentError(RuntimeError):
    """An experiment failed; the original error is the ``__cause__``."""

    def __init__(self, experiment: str, cause: BaseException):
        super().__init__(f"[{experiment}] {type(cause).__name__}: {cause}")
        self.experiment = experiment


def _prepare(config: ExperimentConfig):
    """Stage one of config's experiment, which raises every refusal of the
    config (module docstring); returns stage two, a thunk of the result."""
    columns, model, prepare = _TABLE[config.experiment]
    work = prepare(replace(config, model=model)
                   if model and config.model == "dumbbell" else config)

    def result() -> SweepResult:
        rows, summary = work()
        return SweepResult(config.experiment, columns or tuple(rows[0]), tuple(rows),
                           summary, summary["pass"], config.seed, config.to_dict())

    return result


def run(config: ExperimentConfig) -> SweepResult:
    """Run one experiment, both stages (_prepare); deterministic given the
    config and seed.  Any error raised by the experiment is re-raised as
    an ExperimentError naming the experiment, chained to the original."""
    try:
        return _prepare(config)()
    except Exception as exc:
        raise ExperimentError(config.experiment, exc) from exc


# --- emission ----------------------------------------------------------------


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(columns, rows) -> str:
    """A header line, then one line per row in column order (missing cells
    empty)."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row.get(c, "")) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


_FORMATS = ("csv", "json", "plotdata")


def _check_formats(formats) -> None:
    unknown = [f for f in formats if f not in _FORMATS]
    if unknown:
        raise ValueError(f"unknown emit format(s) {', '.join(map(repr, unknown))}; "
                         f"expected some of {', '.join(_FORMATS)}")


def emit(result: SweepResult, formats=("csv", "json"), out_dir=".") -> list[Path]:
    """Write the result in the requested formats.

    csv:      fixed documented column order, one row per sweep entry.
    json:     {experiment, seed, summary, columns, rows, config}.
    plotdata: one two-column whitespace file per metric column, suitable
              for any plotting tool.

    Any other format raises ValueError before anything is written.
    """
    _check_formats(formats)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    base = result.experiment
    if "csv" in formats:
        path = out / f"{base}.csv"
        path.write_text(csv_text(result.columns, result.rows), encoding="utf-8")
        written.append(path)
    if "json" in formats:
        path = out / f"{base}.json"
        payload = {
            "experiment": result.experiment,
            "seed": result.seed,
            "passed": result.passed,
            "summary": result.summary,
            "columns": list(result.columns),
            "rows": [dict(r) for r in result.rows],
            "config": result.config,
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        written.append(path)
    if "plotdata" in formats:
        xcol = result.columns[0]
        for col in result.columns[1:]:
            vals = [(row.get(xcol), row.get(col)) for row in result.rows
                    if isinstance(row.get(col), (int, float))]
            if not vals:
                continue
            path = out / f"{base}_{col}.dat"
            path.write_text(
                "\n".join(f"{_fmt(x)} {_fmt(y)}" for x, y in vals) + "\n",
                encoding="utf-8")
            written.append(path)
    return written


def run_config_file(path, formats=("csv", "json"), out_dir=".",
                    seed=None) -> tuple[int, list[SweepResult]]:
    """Run every experiment in a JSON config file (a single config object
    or a list under 'experiments'), with every seed replaced by ``seed``
    when it is given.  Returns (exit_code, results); the exit code is 0
    iff every configured tolerance passes.  Every config is built and
    prepared (_prepare) before the first experiment runs, and unknown
    formats, a file of another shape, an empty experiment list, two
    entries of one experiment (they would write the same files) and a
    config that refuses its values raise ValueError then; later errors
    are an ExperimentError, as from run."""
    _check_formats(formats)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    entries = raw["experiments"] if isinstance(raw, dict) and "experiments" in raw else [raw]
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValueError(f"{path} must hold a config object or "
                         f'{{"experiments": [config objects]}}, got {raw!r}')
    if not entries:
        raise ValueError(f"{path} lists no experiments")
    configs = [ExperimentConfig.from_dict(entry if seed is None else {**entry, "seed": seed})
               for entry in entries]
    first, staged = {}, []
    for i, config in enumerate(configs):
        staged.append(_prepare(config))
        j = first.setdefault(config.experiment, i)
        if j != i:
            exp = config.experiment
            raise ValueError(f"entries {j} and {i} of {path} both run {exp} (models "
                             f"{configs[j].model!r} and {config.model!r}); the second "
                             f"would overwrite the first's {exp}.* files")
    results = []
    for config, result in zip(configs, staged):
        try:
            res = result()
        except Exception as exc:
            raise ExperimentError(config.experiment, exc) from exc
        emit(res, formats=formats, out_dir=out_dir)
        results.append(res)
    return (0 if all(r.passed for r in results) else 1), results
