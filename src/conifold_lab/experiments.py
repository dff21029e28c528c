"""Batch experiment harness: t-sweeps for each uniform-estimate proxy,
CSV/JSON/plot-data emission, and pass/fail summaries against declared
tolerances.

Each experiment runs one metric over a decreasing t-list (or a fixed
case list), writes per-t rows, and summarizes with the max/min ratio and
a log-log trend slope.  Tolerances live in the config with documented
defaults (uniformity ratio <= 2, identity checks <= 1e-10, slope fits
within 10/15 percent); the theory guarantees existence of uniform
constants, not their values, so thresholds are explicit and
overridable.  Reruns with equal config and seed produce byte-identical
output files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import conifold_model as cm
from . import spectral_laplace as sl
from . import weight_calculus as wcalc
from . import weighted_calc as wc
from .link_spectra import link_from_string, make_link

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
    "SWEEPS",
    "csv_text",
]

EXPERIMENTS = (
    "embedding_uniformity",
    "invertibility_uniformity",
    "compact_invertibility",
    "poincare_uniformity",
    "gns_uniformity",
    "neck_convergence",
    "eta_bounds",
    "weight_crossing",
    "region_atlas",
    "norm_identities",
)

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
    gamma_cases: tuple = ((0.0, 0.0), (1.0, 2.0))
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
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
                                ("family_size", self.family_size < 1, ">= 1"),
                                ("e_max", self.e_max < 0, ">= 0"),
                                ("grid_step", self.grid_step <= 0, "> 0"),
                                ("gamma_cases", not self.gamma_cases, "non-empty")):
            if bad:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        unknown = sorted(set(self.tolerances or {}) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerances {unknown}; "
                             f"expected names from {sorted(DEFAULT_TOLERANCES)}")
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(self.tolerances or {})
        if any(v <= 0 for v in tol.values()):
            raise ValueError("tolerances must be positive")
        object.__setattr__(self, "tolerances", tol)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        # __post_init__ turns JSON lists into the tuple fields
        return ExperimentConfig(**d)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**d, "t_list": list(self.t_list), "tolerances": dict(self.tolerances),
                "gamma_cases": [list(c) for c in self.gamma_cases]}


@dataclass(frozen=True)
class SweepResult:
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


def _family(cfg: ExperimentConfig):
    if cfg.model == "dumbbell":
        return cm.dumbbell_family(beta=cfg.beta, tau=cfg.tau, a=cfg.a, b=cfg.b)
    if cfg.model == "spindle":
        return cm.spindle_family(beta=cfg.beta, tau=cfg.tau, a=cfg.a, b=cfg.b)
    path = Path(cfg.model)
    if path.suffix == ".json" and path.exists():
        return cm.load_family(path)
    raise ValueError(f"unknown glued benchmark {cfg.model!r}")


def _base_model(cfg: ExperimentConfig):
    if cfg.model in ("hyperboloid_capped", "exact_cone_cs_ac", "rxs2", "sine_spindle"):
        return cm.preset_model(cfg.model, beta=cfg.beta)
    path = Path(cfg.model)
    if path.exists():
        return cm.load_model(path)
    raise ValueError(f"unknown model {cfg.model!r}")


# --- t-sweeps ----------------------------------------------------------------
# One constant per t of the glued family; a sweep passes when max/min is
# within the uniformity ratio and its own gate (if any) holds.


def _grid_and_bumps(cfg: ExperimentConfig, fam, t):
    grid = wc.build_grid(fam.at(t).geometry, n_per_region=cfg.n_per_region,
                         r_max=cfg.r_max)
    return grid, wc.bump_family(grid, n_members=cfg.family_size, seed=cfg.seed)


def _embedding_row(cfg, fam, t):
    grid, bumps = _grid_and_bumps(cfg, fam, t)
    rep = wc.embedding_constant_estimate(bumps, p=cfg.p, beta=cfg.beta)
    return {"t": t, "constant": rep.constant, "p_star": rep.p_star,
            "family_size": len(bumps), "grid_size": grid.n}


def _invertibility_row(cfg, fam, t):
    rep = sl.invertibility_constant(fam.at(t), beta=cfg.beta, e_max=cfg.e_max,
                                    n_per_region=cfg.n_per_region, r_max=cfg.r_max)
    row = {"model": cfg.model, "t": t, "beta": cfg.beta,
           "constant": rep.constant, "sigma_min": rep.sigma_min,
           "grid_size": rep.grid_size}
    for e, s in rep.per_mode:
        row[f"sigma_e{e:g}"] = s
    return row


def _compact_row(cfg, fam, t):
    rep = sl.restricted_invertibility_compact(
        fam, beta=cfg.beta, t=t, e_max=cfg.e_max, n_per_region=cfg.n_per_region)
    return {"model": cfg.model, "t": t, "beta": cfg.beta, "constant": rep.constant,
            "sigma_constrained": rep.sigma_constrained,
            "sigma_mode0_unconstrained": rep.sigma_mode0_unconstrained,
            "grid_size": rep.grid_size}


def _poincare_row(cfg, fam, t):
    rep = sl.poincare_constant(fam.at(t), beta=cfg.beta, e_max=cfg.e_max,
                               n_per_region=cfg.n_per_region, r_max=cfg.r_max)
    return {"model": cfg.model, "t": t, "beta": cfg.beta,
            "constant": rep.constant, "grid_size": rep.grid_size}


def _gns_row(cfg, fam, t):
    ce = wcalc.conjugate_exponents(cfg.p, fam.L.m)
    if ce.p_star is None:
        raise ValueError(f"p = {cfg.p} >= m: no L^p* target")
    grid, bumps = _grid_and_bumps(cfg, fam, t)
    # ||u||_{L^p*_beta} / ||du||_{L^p_{beta-1}} over the family, in one pass
    ratios = wc.norm_ratios(bumps, cfg.beta, (ce.p_star, (0,)), (cfg.p, (1,)))
    return {"t": t, "constant": float(ratios.max()), "p_star": ce.p_star, "grid_size": grid.n}


def _slope_gate(cfg, rows, slope):
    return {}, abs(slope) <= cfg.tolerances["trend_slope"]


def _constants_gate(cfg, rows, slope):
    # the unconstrained mode-0 pencil must see the constants as a near-kernel
    detected = all(
        r["sigma_mode0_unconstrained"]
        < cfg.tolerances["constants_sigma"] * r["sigma_constrained"] for r in rows)
    return {"constants_detected": detected}, detected


# experiment -> (model that replaces the generic "dumbbell" default,
#   row(cfg, fam, t) -> dict with a "constant",
#   gate(cfg, rows, slope) -> (extra summary keys, ok), or None)
SWEEPS = {
    "embedding_uniformity": ("dumbbell", _embedding_row, _slope_gate),
    "invertibility_uniformity": ("dumbbell", _invertibility_row, None),
    # the generic default benchmark is non-compact
    "compact_invertibility": ("spindle", _compact_row, _constants_gate),
    "poincare_uniformity": ("dumbbell", _poincare_row, None),
    "gns_uniformity": ("dumbbell", _gns_row, None),
}


def _run_sweep(config: ExperimentConfig) -> SweepResult:
    if len(config.t_list) < 2:
        raise ValueError(f"a t-sweep needs at least two t values, got {config.t_list}")
    default_model, row, gate = SWEEPS[config.experiment]
    cfg = replace(config, model=default_model) if config.model == "dumbbell" else config
    fam = _family(cfg)
    rows = [row(cfg, fam, t) for t in cfg.t_list]
    consts = [r["constant"] for r in rows]
    vmax, vmin = max(consts), min(consts)
    ratio = vmax / vmin if vmin > 0 else math.inf
    slope = _fit_slope(cfg.t_list, consts)
    extra, ok = gate(cfg, rows, slope) if gate else ({}, True)
    passed = ratio <= cfg.tolerances["uniformity_ratio"] and ok
    summary = {"max": vmax, "min": vmin, "max_over_min": ratio,
               "trend_slope": slope, **extra, "pass": passed}
    return SweepResult(config.experiment, tuple(rows[0].keys()), tuple(rows),
                       summary, passed, config.seed, config.to_dict())


# --- other experiments -------------------------------------------------------


def _run_neck(cfg: ExperimentConfig) -> SweepResult:
    fam = _family(cfg)
    rows = []
    for t in cfg.t_list:
        for entry in cm.neck_convergence_check(fam, t):
            rows.append({"t": t, "pair": entry["pair"], "j": entry["j"],
                         "sup": entry["sup"]})
    decreasing = True
    pairs = sorted({(r["pair"], r["j"]) for r in rows})
    for pair, j in pairs:
        seq = [r["sup"] for r in rows if r["pair"] == pair and r["j"] == j]
        if any(b >= a for a, b in zip(seq, seq[1:])):
            decreasing = False
    summary = {"strictly_decreasing": decreasing, "pass": decreasing}
    return SweepResult("neck_convergence", ("t", "pair", "j", "sup"),
                       tuple(rows), summary, decreasing, cfg.seed, cfg.to_dict())


def _run_eta(cfg: ExperimentConfig) -> SweepResult:
    tol = cfg.tolerances
    rows = []
    for t in cfg.t_list:
        eta = cm.cutoff_eta(t, cfg.a, cfg.b)
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
    summary = {"exponent_first": exp1, "exponent_second": exp2, "pass": passed}
    return SweepResult("eta_bounds", ("t", "max_r_eta1", "max_r2_eta2", "inv_log_t"),
                       tuple(rows), summary, passed, cfg.seed, cfg.to_dict())


def _run_crossing(cfg: ExperimentConfig) -> SweepResult:
    model = _base_model(cfg if cfg.model != "dumbbell"
                        else replace(cfg, model="hyperboloid_capped"))
    tol = cfg.tolerances
    rows = []
    ok = True
    for gamma, e in cfg.gamma_cases:
        rep = sl.weight_crossing_kernel(model, gamma=float(gamma), e=float(e),
                                        slack=tol["crossing_slack"],
                                        n_per_region=cfg.n_per_region, r_max=cfg.r_max)
        slope_ok = rep.tail_slope is None or rep.tail_slope <= rep.slope_bound
        resid_ok = rep.residual_sigma < rep.threshold
        ok = ok and slope_ok and resid_ok
        rows.append({"gamma": gamma, "e": e,
                     "tail_slope": rep.tail_slope if rep.tail_slope is not None else "floor",
                     "slope_bound": rep.slope_bound,
                     "residual_sigma": rep.residual_sigma,
                     "threshold": rep.threshold,
                     "pass": slope_ok and resid_ok})
    summary = {"pass": ok}
    return SweepResult("weight_crossing",
                       ("gamma", "e", "tail_slope", "slope_bound",
                        "residual_sigma", "threshold", "pass"),
                       tuple(rows), summary, ok, cfg.seed, cfg.to_dict())


REGION_ATLAS_COLUMNS = ("beta1", "beta2", "exceptional", "injective",
                        "surjective", "index", "kernel_dim")


def region_atlas_rows(kind: str, m: int, link_spec: str, step: float,
                      lo: float | None = None, hi: float | None = None):
    """Classification grid replicating the qualitative content of the
    harmonic-function region figures: one row per weight cell.  A step
    that is not positive, or an interval with lo >= hi, raises ValueError."""
    link = link_from_string(link_spec)
    lo = lo if lo is not None else (2.0 - m) - 1.5
    hi = hi if hi is not None else 1.5
    if not step > 0:
        raise ValueError(f"weight grid step must be positive, got {step:g}")
    if not lo < hi:
        raise ValueError(f"weight interval lo:hi needs lo < hi, got {lo:g}:{hi:g}")
    vals = np.arange(lo, hi + step / 2, step)
    if kind == "AC":
        ends = [wcalc.EndDescriptor("AC", link), wcalc.EndDescriptor("AC", link)]
    elif kind == "CS":
        ends = [wcalc.EndDescriptor("CS", link), wcalc.EndDescriptor("CS", link)]
    elif kind == "CSAC":
        ends = [wcalc.EndDescriptor("CS", link), wcalc.EndDescriptor("AC", link)]
    else:
        raise ValueError(f"unknown region kind {kind!r}")

    def show(v):
        return "" if v is None else (int(v) if isinstance(v, (bool, int)) else v)

    rows = []
    for b1 in vals:
        for b2 in vals:
            try:
                facts = wcalc.classify_weight_region(
                    kind, ends, wcalc.WeightVector((float(b1), float(b2))), m)
            except wcalc.ExceptionalWeightError:
                rows.append({"beta1": float(b1), "beta2": float(b2),
                             "exceptional": 1, "injective": "", "surjective": "",
                             "index": "", "kernel_dim": ""})
                continue
            rows.append({"beta1": float(b1), "beta2": float(b2), "exceptional": 0,
                         "injective": show(facts.injective),
                         "surjective": show(facts.surjective),
                         "index": show(facts.index),
                         "kernel_dim": show(facts.kernel_dim)})
    return rows


def _run_region_atlas(cfg: ExperimentConfig) -> SweepResult:
    rows = region_atlas_rows(cfg.kind, cfg.m, cfg.link, cfg.grid_step)
    # consistency: where surjectivity and index are both known, kernel = index
    ok = True
    for r in rows:
        if r["exceptional"]:
            continue
        if r["surjective"] == 1 and r["index"] != "" and r["kernel_dim"] != "":
            ok = ok and (r["kernel_dim"] == r["index"] or r["injective"] == 1)
    summary = {"cells": len(rows), "consistent": ok, "pass": ok}
    return SweepResult("region_atlas", REGION_ATLAS_COLUMNS,
                       tuple(rows), summary, ok, cfg.seed, cfg.to_dict())


def _run_norm_identities(cfg: ExperimentConfig) -> SweepResult:
    tol = cfg.tolerances
    rows = []
    cone = cm.preset_model("exact_cone_cs_ac", beta=cfg.beta)
    grid = wc.build_grid(cone.geometry(0), n_per_region=cfg.n_per_region,
                         r_max=cfg.r_max)
    rng = np.random.default_rng(cfg.seed)
    bumps = wc.bump_family(grid, n_members=4, seed=cfg.seed)
    cases = []
    for i, u in enumerate(bumps):
        t = float(10.0 ** (-rng.uniform(0.3, 2.0)))
        cases.append((f"scaled_{i}", u, wc.WeightSpec(p=2.0, k=min(i, 2) % 3, beta=0.0), t))
        cases.append((f"weighted_{i}", u,
                      wc.WeightSpec(p=2.0, k=(i + 1) % 3, beta=cfg.beta), t))
    # variable per-end weights need the constant reference-weight correction
    link = make_link("sphere", dim=2)
    var = cm.ConifoldModel(3, (cm.Component(
        link=link, warp=cm.warp_preset("exact_cone"),
        left=cm.EndSpec("CS", link, nu=1.0, beta=cfg.beta, boundary=2.0),
        right=cm.EndSpec("AC", link, nu=-1.0, beta=cfg.beta + 1.0, boundary=2.0),
    ),))
    vgrid = wc.build_grid(var.geometry(0), n_per_region=cfg.n_per_region,
                          r_max=cfg.r_max)
    vbumps = wc.bump_family(vgrid, n_members=2, modes=(0.0,), seed=cfg.seed + 1)
    for i, u in enumerate(vbumps):
        t = float(10.0 ** (-rng.uniform(0.5, 1.5)))
        cases.append((f"variable_{i}", u,
                      wc.WeightSpec(p=2.0, k=1, beta=None, beta_prime=cfg.beta), t))
    ok = True
    for name, u, spec, t in cases:
        defect = wc.rescaling_invariance_check(u, spec, t)
        good = defect <= tol["identity_defect"]
        ok = ok and good
        rows.append({"case": name, "t": t, "k": spec.k,
                     "beta": "per-end" if spec.beta is None else spec.beta,
                     "defect": defect, "pass": int(good)})
    pairs = wc.random_bump_pairs(grid, 100, seed=cfg.seed)
    violations = 0
    for u, v in pairs:
        rep = wc.holder_check(u, v, p=cfg.p, beta1=cfg.beta, beta2=0.25)
        violations += int(rep.violated)
    rows.append({"case": "holder_sweep", "t": 0.0, "k": 0, "beta": cfg.beta,
                 "defect": float(violations), "pass": int(violations == 0)})
    ok = ok and violations == 0
    summary = {"holder_violations": violations, "pass": ok}
    return SweepResult("norm_identities",
                       ("case", "t", "k", "beta", "defect", "pass"),
                       tuple(rows), summary, ok, cfg.seed, cfg.to_dict())


_RUNNERS = {
    **dict.fromkeys(SWEEPS, _run_sweep),
    "neck_convergence": _run_neck,
    "eta_bounds": _run_eta,
    "weight_crossing": _run_crossing,
    "region_atlas": _run_region_atlas,
    "norm_identities": _run_norm_identities,
}


class ExperimentError(RuntimeError):
    """An experiment failed; the original error is the ``__cause__``."""

    def __init__(self, experiment: str, cause: BaseException):
        super().__init__(f"[{experiment}] {type(cause).__name__}: {cause}")
        self.experiment = experiment


def run(config: ExperimentConfig) -> SweepResult:
    """Dispatch one experiment; deterministic given the config and seed.

    Any error raised by the experiment is re-raised as an ExperimentError
    naming the experiment, chained to the original."""
    try:
        return _RUNNERS[config.experiment](config)
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
    iff every configured tolerance passes.  Every config is built before
    the first experiment runs, and unknown formats, an empty experiment
    list and a config that refuses its values raise ValueError then."""
    _check_formats(formats)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    entries = raw["experiments"] if isinstance(raw, dict) and "experiments" in raw else [raw]
    if not entries:
        raise ValueError(f"{path} lists no experiments")
    configs = [ExperimentConfig.from_dict(entry if seed is None else {**entry, "seed": seed})
               for entry in entries]
    results = []
    for config in configs:
        res = run(config)
        emit(res, formats=formats, out_dir=out_dir)
        results.append(res)
    return (0 if all(r.passed for r in results) else 1), results
