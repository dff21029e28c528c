"""Warped-product conifold models and their parametric connect sums.

Every manifold here is radial: a metric dx^2 + f(x)^2 g' over a single
link, living on an interval (or, after compact gluing, a circle).  CS
ends shrink to a cone tip (local radius r -> 0 with f ~ r), AC ends open
out (r -> infinity with f ~ r), caps close a component at a smooth
center with f > 0.  This covers every construction the uniform-estimate
experiments need while keeping the angular directions exact through
mode decomposition.

The parametric connect sum shrinks an AC-marked partner by t and splices
it into the CS-marked host: on each marked pair the glued warp is
t*fhat(r/t) for r <= t^tau, the host warp for r >= 2 t^tau, and a fixed
C^2 log-radial blend of the two squared warps in between.  Radius
function, weight exponent and weight function follow the same piecewise
pattern, with the reference-weight correction t^(betahat - betahat_ref)
on the shrunk side when the partner carries variable weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .link_spectra import Link, link_from_string, make_link

__all__ = [
    "WarpProfile",
    "warp_preset",
    "Cap",
    "EndSpec",
    "Component",
    "ConifoldModel",
    "BoundaryInfo",
    "JunctionInfo",
    "PlanSegment",
    "RadialGeometry",
    "FIELDS",
    "CompatCheck",
    "CompatibilityReport",
    "GluingError",
    "check_compatible",
    "GluedModel",
    "GluedFamily",
    "parametric_connect_sum",
    "cutoff_eta",
    "EtaCutoff",
    "neck_convergence_check",
    "model_from_config",
    "load_model",
    "family_from_config",
    "load_family",
    "preset_model",
    "dumbbell_family",
    "spindle_family",
]


class GluingError(ValueError):
    """Invalid connect-sum data (incompatibility, parameter ordering, ...)."""


# ---------------------------------------------------------------------------
# warp profiles


@dataclass(frozen=True)
class WarpProfile:
    """Radial warp f with two derivatives, as vectorized callables."""

    name: str
    f: object
    fp: object
    fpp: object
    params: tuple = ()


def warp_preset(name: str, *params) -> WarpProfile:
    """Named warp profiles.

    exact_cone            f = r
    hyperboloid(c)        f = sqrt(r^2 + c^2)
    sine_spindle          f = sin(r)
    perturbed_cone(c,nu)  f = r (1 + c r^nu)
    """
    if name == "exact_cone":
        return WarpProfile(
            "exact_cone",
            f=lambda x: np.asarray(x, dtype=float) + 0.0,
            fp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            fpp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
    if name == "hyperboloid":
        c = float(params[0]) if params else 1.0
        return WarpProfile(
            "hyperboloid",
            f=lambda x: np.sqrt(np.asarray(x, dtype=float) ** 2 + c * c),
            fp=lambda x: np.asarray(x, dtype=float) / np.sqrt(np.asarray(x, dtype=float) ** 2 + c * c),
            fpp=lambda x: c * c / np.sqrt(np.asarray(x, dtype=float) ** 2 + c * c) ** 3,
            params=(c,),
        )
    if name == "sine_spindle":
        return WarpProfile(
            "sine_spindle",
            f=lambda x: np.sin(np.asarray(x, dtype=float)),
            fp=lambda x: np.cos(np.asarray(x, dtype=float)),
            fpp=lambda x: -np.sin(np.asarray(x, dtype=float)),
        )
    if name == "perturbed_cone":
        c, nu = float(params[0]), float(params[1])
        return WarpProfile(
            "perturbed_cone",
            f=lambda x: np.asarray(x, dtype=float) * (1.0 + c * np.asarray(x, dtype=float) ** nu),
            fp=lambda x: 1.0 + c * (1.0 + nu) * np.asarray(x, dtype=float) ** nu,
            fpp=lambda x: c * nu * (1.0 + nu) * np.asarray(x, dtype=float) ** (nu - 1.0),
            params=(c, nu),
        )
    if name == "spline":
        from scipy.interpolate import CubicSpline

        knots_r, knots_f = params
        cs = CubicSpline(np.asarray(knots_r, dtype=float), np.asarray(knots_f, dtype=float))
        return WarpProfile("spline", f=cs, fp=cs.derivative(1), fpp=cs.derivative(2),
                           params=(tuple(knots_r), tuple(knots_f)))
    raise ValueError(f"unknown warp preset {name!r}")


def _parse_profile(spec) -> WarpProfile:
    if isinstance(spec, WarpProfile):
        return spec
    if isinstance(spec, str):
        name, _, rest = spec.partition(":")
        params = tuple(float(x) for x in rest.split(",")) if rest else ()
        return warp_preset(name, *params)
    if isinstance(spec, dict) and spec.get("type") == "spline":
        return warp_preset("spline", spec["r"], spec["f"])
    raise ValueError(f"cannot parse warp profile {spec!r}")


# ---------------------------------------------------------------------------
# model data types


@dataclass(frozen=True)
class Cap:
    """Smooth center closing a component (f > 0 there).  Solvers impose
    regularity: zero slope for the rotation-invariant mode, zero value
    for the others."""


@dataclass(frozen=True)
class EndSpec:
    """One end of a component.

    kind: 'CS' (r -> 0, nu > 0, chart r in (0, boundary]) or
          'AC' (r -> infinity, nu < 0, chart r in [boundary, infinity)).
    beta: weight exponent on this end.
    marked: whether this end participates in gluing.
    """

    kind: str
    link: Link
    nu: float
    beta: float
    boundary: float
    marked: bool = False

    def __post_init__(self):
        if self.kind not in ("CS", "AC"):
            raise ValueError(f"end kind must be CS or AC, got {self.kind!r}")
        if self.kind == "CS" and not self.nu > 0:
            raise ValueError(f"CS end requires nu > 0, got {self.nu}")
        if self.kind == "AC" and not self.nu < 0:
            raise ValueError(f"AC end requires nu < 0, got {self.nu}")
        if not self.boundary > 0:
            raise ValueError("end chart boundary must be positive")


@dataclass(frozen=True)
class Component:
    """One connected warped-product piece.

    Canonical chart conventions: finite sides sit at x = 0 (left) and
    x = length (right); AC sides extend to -/+ infinity with local
    radius |x|.  If exactly one side is AC it must be the right one.
    """

    link: Link
    warp: WarpProfile
    left: Cap | EndSpec
    right: Cap | EndSpec
    length: float | None = None
    rho: object | None = None  # optional explicit radius function of x
    label: str = ""

    def __post_init__(self):
        left_ac = isinstance(self.left, EndSpec) and self.left.kind == "AC"
        right_ac = isinstance(self.right, EndSpec) and self.right.kind == "AC"
        if left_ac and not right_ac:
            raise ValueError("single-AC components must place the AC end on the right")
        if not left_ac and not right_ac and self.length is None:
            raise ValueError("components with two finite sides need a length")
        for side in (self.left, self.right):
            if isinstance(side, EndSpec) and side.link != self.link:
                raise ValueError("end links must match the component link")

    # -- chart helpers ------------------------------------------------------

    def x_lo(self) -> float:
        return -math.inf if isinstance(self.left, EndSpec) and self.left.kind == "AC" else 0.0

    def x_hi(self) -> float:
        if isinstance(self.right, EndSpec) and self.right.kind == "AC":
            return math.inf
        return float(self.length)

    def side(self, which: str):
        return self.left if which == "left" else self.right

    def tip(self, which: str) -> float:
        """Chart position where the side's local radius vanishes."""
        s = self.side(which)
        if isinstance(s, EndSpec) and s.kind == "AC":
            return 0.0  # AC charts are measured from the origin
        return 0.0 if which == "left" else float(self.length)

    def r_sign(self, which: str) -> float:
        """Local radius is r_sign * (x - tip)."""
        if which == "left":
            return -1.0 if (isinstance(self.left, EndSpec) and self.left.kind == "AC") else 1.0
        return 1.0 if (isinstance(self.right, EndSpec) and self.right.kind == "AC") else -1.0

    def ends(self):
        for which in ("left", "right"):
            s = self.side(which)
            if isinstance(s, EndSpec):
                yield which, s

    def default_rho(self):
        """Radius function: equal to the local r on every end chart,
        positive elsewhere.  Only pointwise values are ever used."""
        if self.rho is not None:
            return self.rho
        sides = [(w, self.side(w)) for w in ("left", "right")]
        cs = [(w, s) for w, s in sides if isinstance(s, EndSpec) and s.kind == "CS"]
        ac = [(w, s) for w, s in sides if isinstance(s, EndSpec) and s.kind == "AC"]
        caps = [w for w, s in sides if isinstance(s, Cap)]
        tipof = {w: self.tip(w) for w, _ in sides}
        sgn = {w: self.r_sign(w) for w, _ in sides}

        if len(cs) == 2:
            return lambda x: np.minimum(
                sgn["left"] * (np.asarray(x, dtype=float) - tipof["left"]),
                sgn["right"] * (np.asarray(x, dtype=float) - tipof["right"]),
            )
        if len(cs) == 1 and len(ac) == 1:
            w_cs = cs[0][0]
            return lambda x: sgn[w_cs] * (np.asarray(x, dtype=float) - tipof[w_cs])
        if len(ac) == 2:
            floor = min(s.boundary for _, s in ac)
            return lambda x: np.maximum(np.abs(np.asarray(x, dtype=float)), floor)
        if len(ac) == 1 and caps:
            w_ac, s_ac = ac[0]
            floor = s_ac.boundary
            return lambda x: np.maximum(sgn[w_ac] * (np.asarray(x, dtype=float) - tipof[w_ac]), floor)
        if len(cs) == 1 and caps:
            w_cs, s_cs = cs[0]
            cap_scale = s_cs.boundary
            return lambda x: np.minimum(sgn[w_cs] * (np.asarray(x, dtype=float) - tipof[w_cs]), cap_scale)
        return lambda x: np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ConifoldModel:
    """A conifold as a list of warped-product components plus dimension m."""

    m: int
    components: tuple[Component, ...]
    label: str = ""

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("conifold dimension m must be >= 3")
        for comp in self.components:
            if comp.link.dim != self.m - 1:
                raise ValueError(
                    f"link dimension {comp.link.dim} != m-1 = {self.m - 1}"
                )
            marked_betas = {s.beta for _, s in comp.ends() if s.marked}
            if len(marked_betas) > 1:
                raise ValueError(
                    "marked ends of one connected component must carry equal weights"
                )

    def marked_ends(self, kind: str):
        """(component index, side, EndSpec) for marked ends of the given kind,
        in declaration order."""
        out = []
        for ci, comp in enumerate(self.components):
            for which, s in comp.ends():
                if s.marked and s.kind == kind:
                    out.append((ci, which, s))
        return out

    def all_ends(self):
        for ci, comp in enumerate(self.components):
            for which, s in comp.ends():
                yield ci, which, s

    def geometry(self, component: int = 0) -> "RadialGeometry":
        return _base_geometry(self, component)


# ---------------------------------------------------------------------------
# runtime radial geometry (shared by base models and glued models)


@dataclass(frozen=True)
class BoundaryInfo:
    """A residual boundary of the radial domain.

    kind 'cap': smooth center at x0.
    kind 'cs' / 'ac': truncated end; local radius r = sign * (x - x0),
    chart_r is the chart boundary (eps or R) in final coordinates.
    """

    kind: str
    x0: float
    sign: float
    chart_r: float | None = None
    beta: float | None = None
    nu: float | None = None


@dataclass(frozen=True)
class JunctionInfo:
    """One glued marked pair: neck chart r = direction * (x - center),
    valid for r in [t*Rhat, eps]."""

    pair: int
    center: float
    direction: float
    t: float
    tau: float
    eps: float
    Rhat: float
    beta: float


@dataclass(frozen=True)
class PlanSegment:
    """Gridding recipe for one radial region.

    kind 'log': nodes uniform in log r with r = sign*(x - x0); r_lo/r_hi
    of None are resolved by the grid builder's truncation policy.
    kind 'lin': nodes uniform in x on [x_a, x_b].
    """

    kind: str
    x0: float = 0.0
    sign: float = 1.0
    r_lo: float | None = None
    r_hi: float | None = None
    x_a: float | None = None
    x_b: float | None = None
    weight: float = 1.0  # relative share of nodes


@dataclass
class RadialGeometry:
    """Radial warped-product geometry in final coordinates.

    Provides pointwise f, f', f'', the radius function rho, the weight
    exponent beta and any extra weight factor (the reference-weight
    correction on shrunk components); plus boundary/junction metadata
    and a gridding plan.
    """

    m: int
    link: Link
    f: object
    fp: object
    fpp: object
    rho: object
    beta: object
    wextra: object
    circle: bool
    period: float | None
    left: BoundaryInfo | None
    right: BoundaryInfo | None
    plan: tuple[PlanSegment, ...]
    junctions: tuple[JunctionInfo, ...] = ()
    label: str = ""
    eta: object | None = None  # glued models: the neck cutoff eta_t(x)
    # optional x -> (f, fp, fpp, rho, beta, wextra) in one pass, equal to
    # the six callables; grids use it when present
    fields: object | None = None


# the names of the node fields of a RadialGeometry, in `fields` order
FIELDS = ("f", "fp", "fpp", "rho", "beta", "wextra")


def _const_like(value):
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


def _base_geometry(model: ConifoldModel, ci: int) -> RadialGeometry:
    comp = model.components[ci]
    warp = comp.warp
    rho = comp.default_rho()

    binfo = {}
    for w in ("left", "right"):
        s = comp.side(w)
        if isinstance(s, Cap):
            binfo[w] = BoundaryInfo("cap", comp.tip(w), comp.r_sign(w))
        else:
            binfo[w] = BoundaryInfo(
                s.kind.lower(), comp.tip(w), comp.r_sign(w), chart_r=s.boundary,
                beta=s.beta, nu=s.nu,
            )

    # weight exponent: each end's beta on its half, split mid-core
    betas = {w: (comp.side(w).beta if isinstance(comp.side(w), EndSpec) else None)
             for w in ("left", "right")}
    if betas["left"] is None and betas["right"] is None:
        beta_fn = _const_like(0.0)
    elif betas["left"] is None or betas["right"] is None or betas["left"] == betas["right"]:
        b = betas["left"] if betas["left"] is not None else betas["right"]
        beta_fn = _const_like(b)
    else:
        lo_edge = binfo["left"].x0 + binfo["left"].sign * binfo["left"].chart_r
        hi_edge = binfo["right"].x0 + binfo["right"].sign * binfo["right"].chart_r
        mid = 0.5 * (lo_edge + hi_edge)
        bl, br = betas["left"], betas["right"]

        def beta_fn(x, _mid=mid, _bl=bl, _br=br):
            x = np.asarray(x, dtype=float)
            return np.where(x <= _mid, _bl, _br)

    plan = []
    for w in ("left", "right"):
        b = binfo[w]
        if b.kind == "cs":
            plan.append(PlanSegment("log", x0=b.x0, sign=b.sign, r_lo=None, r_hi=b.chart_r))
        elif b.kind == "ac":
            plan.append(PlanSegment("log", x0=b.x0, sign=b.sign, r_lo=b.chart_r, r_hi=None))
    core_lo = binfo["left"].x0 if binfo["left"].kind == "cap" else (
        binfo["left"].x0 + binfo["left"].sign * binfo["left"].chart_r)
    core_hi = binfo["right"].x0 if binfo["right"].kind == "cap" else (
        binfo["right"].x0 + binfo["right"].sign * binfo["right"].chart_r)
    core_lo, core_hi = min(core_lo, core_hi), max(core_lo, core_hi)
    if core_hi > core_lo:
        plan.append(PlanSegment("lin", x_a=core_lo, x_b=core_hi, weight=0.5))

    return RadialGeometry(
        m=model.m,
        link=comp.link,
        f=warp.f, fp=warp.fp, fpp=warp.fpp,
        rho=rho,
        beta=beta_fn,
        wextra=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        circle=False,
        period=None,
        left=binfo["left"],
        right=binfo["right"],
        plan=tuple(plan),
        label=comp.label or model.label or f"component{ci}",
    )


# ---------------------------------------------------------------------------
# compatibility


@dataclass(frozen=True)
class CompatCheck:
    code: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CompatibilityReport:
    passed: bool
    checks: tuple[CompatCheck, ...]
    pairs: tuple = ()

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _warp_deviation(comp: Component, which: str, spec: EndSpec, samples: int) -> float:
    """sup |f(r)/r - 1| over sampled chart radii of the end."""
    tip = comp.tip(which)
    sgn = comp.r_sign(which)
    if spec.kind == "CS":
        rs = np.geomspace(spec.boundary * 1e-3, spec.boundary, samples)
    else:
        rs = np.geomspace(spec.boundary, spec.boundary * 1e3, samples)
    xs = tip + sgn * rs
    fv = np.asarray(comp.warp.f(xs), dtype=float)
    if np.any(fv <= 0):
        return math.inf
    return float(np.max(np.abs(fv / rs - 1.0)))


def check_compatible(
    L: ConifoldModel,
    L_hat: ConifoldModel,
    samples: int = 64,
    deviation_bound: float = 0.5,
) -> CompatibilityReport:
    """Verify that a CS-marked host L and an AC-marked partner L_hat can
    be glued: paired marked cones agree (same link, same m), the
    partner's chart radius Rhat sits inside the host's eps, both metrics
    are close to the shared cone on sampled chart radii, and the marked
    weights agree exactly.  Marked ends are paired in declaration order.
    """
    checks = []
    cs = L.marked_ends("CS")
    ac = L_hat.marked_ends("AC")
    bad_marks_L = [s for _, _, s in L.all_ends() if s.marked and s.kind != "CS"]
    bad_marks_H = [s for _, _, s in L_hat.all_ends() if s.marked and s.kind != "AC"]
    checks.append(CompatCheck(
        "marking", not bad_marks_L and not bad_marks_H and len(cs) == len(ac) and len(cs) > 0,
        f"{len(cs)} CS-marked host ends vs {len(ac)} AC-marked partner ends",
    ))
    checks.append(CompatCheck(
        "dimension", L.m == L_hat.m, f"m = {L.m} vs {L_hat.m}"
    ))
    pairs = []
    if checks[0].passed and checks[1].passed:
        for k, ((ci, wi, s_cs), (cj, wj, s_ac)) in enumerate(zip(cs, ac)):
            same_link = L.components[ci].link == L_hat.components[cj].link
            checks.append(CompatCheck(
                f"pair{k}:cone", same_link,
                f"links {L.components[ci].link.spec_string()} vs "
                f"{L_hat.components[cj].link.spec_string()}",
            ))
            checks.append(CompatCheck(
                f"pair{k}:radii", s_ac.boundary < s_cs.boundary,
                f"Rhat = {s_ac.boundary} must be < eps = {s_cs.boundary}",
            ))
            dev_cs = _warp_deviation(L.components[ci], wi, s_cs, samples)
            dev_ac = _warp_deviation(L_hat.components[cj], wj, s_ac, samples)
            checks.append(CompatCheck(
                f"pair{k}:cone_closeness",
                dev_cs <= deviation_bound and dev_ac <= deviation_bound,
                f"sup|f/r-1| = {dev_cs:.3g} (host), {dev_ac:.3g} (partner), "
                f"bound {deviation_bound}",
            ))
            checks.append(CompatCheck(
                f"pair{k}:weights", s_cs.beta == s_ac.beta,
                f"marked weights {s_cs.beta} vs {s_ac.beta} must agree exactly",
            ))
            pairs.append((ci, wi, cj, wj))
    return CompatibilityReport(all(c.passed for c in checks), tuple(checks), tuple(pairs))


# ---------------------------------------------------------------------------
# C^2 blend used on the interpolation band


def _smoothstep_c2(s):
    """Quintic smoothstep: 0 -> 1 on [0, 1] with vanishing first and second
    derivatives at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _smoothstep_c2_d1(s):
    s = np.clip(s, 0.0, 1.0)
    return 30.0 * s * s * (1.0 - s) ** 2


def _smoothstep_c2_d2(s):
    s = np.clip(s, 0.0, 1.0)
    return 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)


# ---------------------------------------------------------------------------
# cutoff eta_t


@dataclass(frozen=True)
class EtaCutoff:
    """The log-radial neck cutoff eta_t(r) = eta(log r / log t).

    eta is a smooth decreasing profile with eta = 1 on (-inf, b] and
    eta = 0 on [a, infinity), 0 < b < a < 1, so eta_t vanishes for
    r <= t^a and equals 1 for r >= t^b, with |r^k d^k eta_t| of order
    1/|log t| for k = 1, 2.
    """

    t: float
    a: float
    b: float

    def _s(self, r):
        return np.log(np.asarray(r, dtype=float)) / math.log(self.t)

    def __call__(self, r):
        u = (self._s(r) - self.b) / (self.a - self.b)
        return 1.0 - _smoothstep_c2(u)

    def deriv(self, r, order: int = 1):
        r = np.asarray(r, dtype=float)
        L = math.log(self.t)
        w = self.a - self.b
        u = (self._s(r) - self.b) / w
        d1 = -_smoothstep_c2_d1(u) / w  # eta'(s)
        if order == 1:
            return d1 / (r * L)
        if order == 2:
            d2 = -_smoothstep_c2_d2(u) / w**2  # eta''(s)
            return d2 / (r * L) ** 2 - d1 / (r * r * L)
        raise ValueError("only first and second derivatives are provided")


def cutoff_eta(t: float, a: float, b: float) -> EtaCutoff:
    if not 0.0 < t < 1.0:
        raise ValueError("cutoff parameter t must lie in (0, 1)")
    if not 0.0 < b < a < 1.0:
        raise ValueError("need 0 < b < a < 1")
    return EtaCutoff(t=t, a=a, b=b)


# ---------------------------------------------------------------------------
# parametric connect sum


@dataclass(frozen=True)
class _Piece:
    """One source component placed on the glued axis.

    glued_x = offset + direction * x_src, |direction| = scale (1 for host
    pieces, t for partner pieces).
    """

    source: str  # 'L' | 'H'
    comp_index: int
    offset: float
    direction: float
    x_src_lo: float
    x_src_hi: float

    def to_src(self, x, period: float | None = None):
        x = np.asarray(x, dtype=float)
        if period is None:
            return (x - self.offset) / self.direction
        # pick the periodic branch landing inside (or nearest to) the
        # source domain
        cands = [((x + n * period) - self.offset) / self.direction for n in (-1, 0, 1)]
        lo, hi = self.x_src_lo, self.x_src_hi
        if math.isfinite(lo) and math.isfinite(hi):
            center = 0.5 * (lo + hi)
        else:
            center = 0.0
        best = cands[0]
        best_d = np.abs(cands[0] - center)
        for c in cands[1:]:
            d = np.abs(c - center)
            take = d < best_d
            best = np.where(take, c, best)
            best_d = np.where(take, d, best_d)
        return best

    def from_src(self, x_src):
        return self.offset + self.direction * np.asarray(x_src, dtype=float)


@dataclass(frozen=True)
class GluedModel:
    """One member of a parametric connect-sum family."""

    family: "GluedFamily"
    t: tuple[float, ...]
    geometry: RadialGeometry

    @property
    def m(self):
        return self.geometry.m


@dataclass(frozen=True)
class GluedFamily:
    """The t-parametrized connect sum of a CS-marked host L and an
    AC-marked partner L_hat, with gluing exponent tau and cutoff
    exponents 0 < b < a < tau."""

    L: ConifoldModel
    L_hat: ConifoldModel
    tau: float
    a: float
    b: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise GluingError("tau must lie in (0, 1)")
        if not 0.0 < self.b < self.a < self.tau:
            raise GluingError("need 0 < b < a < tau")
        report = check_compatible(self.L, self.L_hat)
        if not report.passed:
            fails = "; ".join(f"{c.code}: {c.detail}" for c in report.failures())
            raise GluingError(f"incompatible marked conifolds: {fails}")
        object.__setattr__(self, "_compat", report)

    @property
    def pairs(self):
        return self._compat.pairs

    def at(self, t) -> GluedModel:
        return parametric_connect_sum(self.L, self.L_hat, t, self.tau,
                                      a=self.a, b=self.b, family=self)


def _as_t_vector(t, n_pairs: int) -> tuple[float, ...]:
    if np.isscalar(t):
        return tuple([float(t)] * n_pairs)
    tv = tuple(float(x) for x in t)
    if len(tv) != n_pairs:
        raise GluingError(f"t vector has {len(tv)} entries for {n_pairs} marked pairs")
    return tv


def parametric_connect_sum(
    L: ConifoldModel,
    L_hat: ConifoldModel,
    t,
    tau: float,
    a: float | None = None,
    b: float | None = None,
    family: GluedFamily | None = None,
) -> GluedModel:
    """Build one glued model of the connect-sum family at parameter(s) t.

    Requires the marked-pair ordering t*Rhat < t^tau < 2 t^tau < eps on
    every pair, and equal t entries within each connected component of
    the partner.
    """
    if family is None:
        a = a if a is not None else 0.75 * tau
        b = b if b is not None else 0.25 * tau
        family = GluedFamily(L, L_hat, tau, a, b)
    pairs = family.pairs
    tv = _as_t_vector(t, len(pairs))

    by_comp: dict[int, float] = {}
    for (ci, wi, cj, wj), ti in zip(pairs, tv):
        if cj in by_comp and by_comp[cj] != ti:
            raise GluingError(
                f"t entries must agree within partner component {cj}: "
                f"{by_comp[cj]} vs {ti}"
            )
        by_comp[cj] = ti

    for (ci, wi, cj, wj), ti in zip(pairs, tv):
        eps = L.components[ci].side(wi).boundary
        Rhat = L_hat.components[cj].side(wj).boundary
        if not (0.0 < ti < 1.0 and ti * Rhat < ti**tau and 2.0 * ti**tau < eps):
            raise GluingError(
                f"pair (host component {ci}, partner component {cj}): need "
                f"t*Rhat < t^tau < 2 t^tau < eps, got t={ti}, Rhat={Rhat}, eps={eps}"
            )

    # ----- walk the gluing graph -------------------------------------------
    edges = {}
    for k, (ci, wi, cj, wj) in enumerate(pairs):
        edges[("L", ci, wi)] = ("H", cj, wj, k)
        edges[("H", cj, wj)] = ("L", ci, wi, k)

    involved = {("L", ci) for ci, _, _, _ in pairs} | {("H", cj) for _, _, cj, _ in pairs}
    if len(involved) != len(L.components) + len(L_hat.components):
        raise GluingError("every component must touch at least one marked pair")

    def other(which):
        return "right" if which == "left" else "left"

    def comp_of_node(node):
        src, ci = node
        return (L if src == "L" else L_hat).components[ci]

    start = None
    for node in sorted(involved):
        for wch in ("left", "right"):
            if (node[0], node[1], wch) not in edges:
                start = (node, wch)
                break
        if start:
            break
    circle = start is None
    if circle:
        start = (sorted(involved)[0], "left")

    pieces: list[_Piece] = []
    junctions: list[JunctionInfo] = []
    jct_pieces: list[tuple[int, int]] = []  # (host piece idx, partner piece idx)
    pending = None  # junction waiting for its second piece
    visited = set()
    node, entry = start
    offset = 0.0
    closing = None
    while True:
        comp = comp_of_node(node)
        scale = 1.0 if node[0] == "L" else by_comp[node[1]]
        direction = scale * (1.0 if entry == "left" else -1.0)
        piece = _Piece(node[0], node[1], offset, direction, comp.x_lo(), comp.x_hi())
        p_idx = len(pieces)
        pieces.append(piece)
        visited.add(node)
        if pending is not None:
            j_idx, prev_idx, prev_src = pending
            if prev_src == "L":
                jct_pieces[j_idx] = (prev_idx, p_idx)
            else:
                jct_pieces[j_idx] = (p_idx, prev_idx)
            pending = None
        exit_side = other(entry)
        key = (node[0], node[1], exit_side)
        if key not in edges:
            break  # chain ends at a free side
        nxt_src, nxt_ci, nxt_w, k = edges[key]
        (ci, wi, cj, wj) = pairs[k]
        ti = tv[k]
        eps = L.components[ci].side(wi).boundary
        Rhat = L_hat.components[cj].side(wj).boundary
        beta_pair = L.components[ci].side(wi).beta
        tip_here = float(piece.from_src(comp.tip(exit_side)))
        # neck direction points toward the host: behind the walk if we are
        # leaving the host, ahead if we are leaving the partner
        jdir = -1.0 if node[0] == "L" else 1.0
        junctions.append(JunctionInfo(
            pair=k, center=tip_here, direction=jdir,
            t=ti, tau=tau, eps=eps, Rhat=Rhat, beta=beta_pair,
        ))
        jct_pieces.append((-1, -1))
        pending = (len(junctions) - 1, p_idx, node[0])

        nxt_node = (nxt_src, nxt_ci)
        nxt_comp = comp_of_node(nxt_node)
        nxt_scale = 1.0 if nxt_src == "L" else by_comp[nxt_ci]
        nxt_dir = nxt_scale * (1.0 if nxt_w == "left" else -1.0)
        nxt_off = tip_here - nxt_dir * nxt_comp.tip(nxt_w)
        if circle and nxt_node == start[0] and len(visited) == len(involved):
            closing = (nxt_off, nxt_dir, nxt_w)
            j_idx = len(junctions) - 1
            if node[0] == "L":
                jct_pieces[j_idx] = (p_idx, 0)
            else:
                jct_pieces[j_idx] = (0, p_idx)
            pending = None
            break
        if nxt_node in visited:
            raise GluingError("gluing graph is not a disjoint union of chains and cycles")
        node, entry, offset = nxt_node, nxt_w, nxt_off

    if circle:
        if closing is None or len(visited) != len(involved):
            raise GluingError("marked pairs do not close into a single cycle")
        nxt_off, nxt_dir, nxt_w = closing
        start_comp = comp_of_node(start[0])
        p0 = float(pieces[0].from_src(start_comp.tip(start[1])))
        p1 = float(nxt_off + nxt_dir * start_comp.tip(nxt_w))
        period = abs(p1 - p0)
        x_origin = min(p0, p1)
    else:
        if len(visited) != len(involved):
            raise GluingError("marked pairs split into several glued components; "
                              "build one at a time")
        period = None
        x_origin = 0.0

    geometry = _glued_geometry(
        L, L_hat, family, pieces, junctions, jct_pieces, circle, period, x_origin,
    )
    return GluedModel(family=family, t=tv, geometry=geometry)


# ---------------------------------------------------------------------------
# glued geometry assembly


def _glued_geometry(L, L_hat, family, pieces, junctions, jct_pieces,
                    circle, period, x_origin):
    m = L.m
    tau = family.tau
    first = pieces[0]
    link = (L if first.source == "L" else L_hat).components[first.comp_index].link

    def comp_of(piece: _Piece) -> Component:
        return (L if piece.source == "L" else L_hat).components[piece.comp_index]

    def src_model(piece: _Piece) -> ConifoldModel:
        return L if piece.source == "L" else L_hat

    def wrap(x):
        x = np.asarray(x, dtype=float)
        if not circle:
            return x
        return x_origin + np.mod(x - x_origin, period)

    def rdist(J: JunctionInfo, xw):
        """Signed neck radius of xw relative to junction J (wrap-aware)."""
        d = xw - J.center
        if circle:
            d = np.mod(d + 0.5 * period, period) - 0.5 * period
        return J.direction * d

    host_of = {j: hp for j, (hp, pp) in enumerate(jct_pieces)}
    partner_of = {j: pp for j, (hp, pp) in enumerate(jct_pieces)}

    # ---- exact zone tiling: necks, partner bodies, host bodies ------------
    # (lo, hi) in unwrapped walk coordinates; membership is wrap-aware.
    zones: list[tuple[float, float, str, int]] = []
    for j, J in enumerate(junctions):
        e1 = J.center + J.direction * (J.t * J.Rhat)
        e2 = J.center + J.direction * J.eps
        zones.append((min(e1, e2), max(e1, e2), "neck", j))
    for p_i, p in enumerate(pieces):
        comp = comp_of(p)
        edges = []
        for which in ("left", "right"):
            s = comp.side(which)
            if isinstance(s, EndSpec) and s.marked:
                # the body ends where its neck zone begins (r = Rhat for
                # partners, r = eps for hosts, both equal s.boundary here)
                src_edge = comp.tip(which) + comp.r_sign(which) * s.boundary
                edges.append(float(p.from_src(src_edge)))
            elif isinstance(s, EndSpec):
                # free chart: the piece formula applies out to infinity
                edges.append(math.copysign(math.inf, p.direction) if which == "right"
                             else math.copysign(math.inf, -p.direction))
            else:  # cap
                edges.append(float(p.from_src(comp.tip(which))))
        lo, hi = min(edges), max(edges)
        zones.append((lo, hi, "host" if p.source == "L" else "partner", p_i))

    def zone_membership(xw):
        """Index into `zones` per point (first matching zone wins; the
        tiling overlaps only at shared endpoints)."""
        n = xw.shape[0]
        res = np.full(n, -1, dtype=int)
        for z_i, (lo, hi, _, _) in enumerate(zones):
            if circle and math.isfinite(lo) and math.isfinite(hi):
                width = hi - lo
                d = np.mod(xw - lo, period)
                sel = d <= width + 1e-12 * max(1.0, abs(hi), abs(lo))
            else:
                sel = (xw >= lo - 1e-12 * max(1.0, abs(lo)) if math.isfinite(lo) else np.ones(n, bool))
                if math.isfinite(hi):
                    sel = sel & (xw <= hi + 1e-12 * max(1.0, abs(hi)))
            res = np.where((res < 0) & sel, z_i, res)
        if np.any(res < 0):
            raise ValueError("point outside the glued domain")
        return res

    # category per zone for radius/weight data: neck zones keep their
    # junction chart on all of [t Rhat, eps]
    zone_cat = np.array([{"neck": 0, "partner": 1, "host": 2}[tag] for _, _, tag, _ in zones])
    zone_ref = np.array([ref for _, _, _, ref in zones])

    def warp_classify(xw, z):
        """(category, index) per point for the warp: 0 = transition band
        t^tau <= r <= 2 t^tau of junction idx, 1 = partner piece idx,
        2 = host piece idx."""
        n = xw.shape[0]
        cat = np.empty(n, dtype=int)
        idx = np.empty(n, dtype=int)
        for z_i, (lo, hi, tag, ref) in enumerate(zones):
            sel = z == z_i
            if not np.any(sel):
                continue
            if tag == "partner":
                cat[sel] = 1
                idx[sel] = ref
            elif tag == "host":
                cat[sel] = 2
                idx[sel] = ref
            else:
                J = junctions[ref]
                r = rdist(J, xw[sel])
                sub_cat = np.where(r < J.t**tau, 1, np.where(r <= 2.0 * J.t**tau, 0, 2))
                sub_idx = np.where(sub_cat == 1, partner_of[ref],
                                   np.where(sub_cat == 0, ref, host_of[ref]))
                cat[sel] = sub_cat
                idx[sel] = sub_idx
        return cat, idx

    def piece_warp(piece: _Piece, xs, attr: str):
        """One warp field of a placed piece at source coordinates xs."""
        comp = comp_of(piece)
        scale = abs(piece.direction)
        d = piece.direction
        if attr == "f":
            return scale * np.asarray(comp.warp.f(xs), dtype=float)
        if attr == "fp":
            return scale * np.asarray(comp.warp.fp(xs), dtype=float) / d
        return scale * np.asarray(comp.warp.fpp(xs), dtype=float) / d**2

    def blend(J: JunctionInfo, xw):
        """(f_t, f_t', f_t'') on the interpolation band: f_t^2 is the
        chi-blend of the squared rescaled-partner and host warps, chi a
        fixed C^2 bump in log r (1 at t^tau, 0 at 2 t^tau)."""
        ci, wi, cj, wj = family.pairs[J.pair]
        host = L.components[ci]
        part = L_hat.components[cj]
        t = J.t
        r = rdist(J, xw)
        r1 = t**tau

        tip_h = host.tip(wi)
        sgn_h = host.r_sign(wi)
        xh = tip_h + sgn_h * r
        Fh = np.asarray(host.warp.f(xh), dtype=float)
        Fh_p = sgn_h * np.asarray(host.warp.fp(xh), dtype=float)
        Fh_pp = np.asarray(host.warp.fpp(xh), dtype=float)

        sgn_p = part.r_sign(wj)
        xp = sgn_p * (r / t)
        Fp = t * np.asarray(part.warp.f(xp), dtype=float)
        Fp_p = sgn_p * np.asarray(part.warp.fp(xp), dtype=float)
        Fp_pp = np.asarray(part.warp.fpp(xp), dtype=float) / t

        Qh, Qh_p, Qh_pp = Fh**2, 2 * Fh * Fh_p, 2 * (Fh_p**2 + Fh * Fh_pp)
        Qp, Qp_p, Qp_pp = Fp**2, 2 * Fp * Fp_p, 2 * (Fp_p**2 + Fp * Fp_pp)

        ln2 = math.log(2.0)
        s = np.log(r / r1) / ln2
        ds = 1.0 / (r * ln2)
        d2s = -1.0 / (r * r * ln2)
        chi = 1.0 - _smoothstep_c2(s)
        chi_p = -_smoothstep_c2_d1(s) * ds
        chi_pp = -(_smoothstep_c2_d2(s) * ds * ds + _smoothstep_c2_d1(s) * d2s)

        Q = chi * Qp + (1 - chi) * Qh
        Q_p = chi_p * (Qp - Qh) + chi * Qp_p + (1 - chi) * Qh_p
        Q_pp = (chi_pp * (Qp - Qh) + 2 * chi_p * (Qp_p - Qh_p)
                + chi * Qp_pp + (1 - chi) * Qh_pp)

        F = np.sqrt(Q)
        return {"f": F,
                "fp": Q_p / (2 * F) * J.direction,
                "fpp": (Q_pp / (2 * F) - Q_p**2 / (4 * F**3)) * J.direction**2}

    # each piece's source geometry (radius and weight functions) and, for
    # partners, the reference weight of its marked end
    bases = [_base_geometry(src_model(p), p.comp_index) for p in pieces]
    ref_beta = [next(s.beta for _, s in comp_of(p).ends() if s.marked) if p.source == "H"
                else None for p in pieces]

    def piece_weights(p_i, xs, names):
        """rho, beta and wextra of a placed piece at source coordinates xs
        (the subset `names` needs): shrunk partners carry the
        reference-weight correction t^(beta_hat - beta_ref)."""
        piece, base = pieces[p_i], bases[p_i]
        scale = abs(piece.direction)
        vals = {}
        if "rho" in names:
            vals["rho"] = scale * np.asarray(base.rho(xs), dtype=float)
        if "beta" in names or "wextra" in names:
            bhat = np.asarray(base.beta(xs), dtype=float)
            vals["beta"] = bhat
            vals["wextra"] = scale ** (bhat - ref_beta[p_i]) if piece.source == "H" else 1.0
        return vals

    def groups(cat, idx):
        """(category, index, mask) of each junction band (0) and each
        partner (1) or host (2) piece present in a classification."""
        for j in range(len(junctions)):
            sel = (cat == 0) & (idx == j)
            if np.any(sel):
                yield 0, j, sel
        for c in (1, 2):
            for p_i in set(idx[cat == c]):
                yield c, p_i, (cat == c) & (idx == p_i)

    def evaluate(xw, names):
        """The named fields (a subset of FIELDS) at the wrapped points xw,
        from one zone lookup: {name: array}."""
        z = zone_membership(xw)
        out = {a: np.empty_like(xw) for a in names}
        warp = [a for a in ("f", "fp", "fpp") if a in names]
        weight = [a for a in ("rho", "beta", "wextra") if a in names]
        if warp:
            for c, i, sel in groups(*warp_classify(xw, z)):
                if c == 0:
                    vals = blend(junctions[i], xw[sel])
                else:
                    xs = pieces[i].to_src(xw[sel], period)
                    vals = {a: piece_warp(pieces[i], xs, a) for a in warp}
                for a in warp:
                    out[a][sel] = vals[a]
        if weight:
            for c, i, sel in groups(zone_cat[z], zone_ref[z]):
                if c == 0:
                    vals = {"rho": rdist(junctions[i], xw[sel]), "beta": junctions[i].beta,
                            "wextra": 1.0}
                else:
                    vals = piece_weights(i, pieces[i].to_src(xw[sel], period), weight)
                for a in weight:
                    out[a][sel] = vals[a]
        return out

    def evaluator(names):
        def ev(x):
            x = np.asarray(x, dtype=float)
            scalar = x.ndim == 0
            vals = evaluate(wrap(np.atleast_1d(x)), names)
            vals = tuple(v[0] if scalar else v for v in (vals[a] for a in names))
            return vals if len(names) > 1 else vals[0]
        return ev

    def eta_fn(x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xw = wrap(np.atleast_1d(x))
        vals = np.ones_like(xw)
        for J in junctions:
            eta = cutoff_eta(J.t, family.a, family.b)
            r = rdist(J, xw)
            contrib = np.ones_like(xw)
            pos = r > 0
            rp = np.maximum(r[pos], 1e-300)
            contrib[pos] = np.where(
                rp <= J.t**family.a, 0.0,
                np.where(rp >= J.t**family.b, 1.0, eta(rp)),
            )
            # points with r <= 0 sit behind the junction; the partner-body
            # zeroing below covers the ones that matter
            contrib[~pos] = 1.0
            vals = np.minimum(vals, contrib)
        # partner bodies are cut off entirely
        vals[zone_cat[zone_membership(xw)] == 1] = 0.0
        return vals[0] if scalar else vals

    # --- boundaries and gridding plan ---------------------------------------
    left = right = None
    plan: list[PlanSegment] = []
    if not circle:
        def boundary_of(piece: _Piece, which_glued: str) -> BoundaryInfo:
            comp = comp_of(piece)
            src_which = "left" if (piece.direction > 0) == (which_glued == "left") else "right"
            s = comp.side(src_which)
            scale = abs(piece.direction)
            tip = float(piece.from_src(comp.tip(src_which)))
            sign = float(np.sign(piece.direction) * comp.r_sign(src_which))
            if isinstance(s, Cap):
                return BoundaryInfo("cap", tip, sign)
            return BoundaryInfo(s.kind.lower(), tip, sign, chart_r=scale * s.boundary,
                                beta=s.beta, nu=s.nu)

        left = boundary_of(pieces[0], "left")
        right = boundary_of(pieces[-1], "right")
        for b_ in (left, right):
            if b_.kind == "ac":
                plan.append(PlanSegment("log", x0=b_.x0, sign=b_.sign,
                                        r_lo=b_.chart_r, r_hi=None))
            elif b_.kind == "cs":
                plan.append(PlanSegment("log", x0=b_.x0, sign=b_.sign,
                                        r_lo=None, r_hi=b_.chart_r))

    for J in junctions:
        plan.append(PlanSegment("log", x0=J.center, sign=J.direction,
                                r_lo=J.t * J.Rhat, r_hi=J.eps))
    for p_i, p in enumerate(pieces):
        comp = comp_of(p)
        scale = abs(p.direction)
        cuts = []
        for which in ("left", "right"):
            s = comp.side(which)
            if isinstance(s, EndSpec):
                cuts.append(float(p.from_src(comp.tip(which) + comp.r_sign(which) * s.boundary)))
            else:
                cuts.append(float(p.from_src(comp.tip(which))))
        g1, g2 = min(cuts), max(cuts)
        if g2 > g1:
            plan.append(PlanSegment("lin", x_a=g1, x_b=g2,
                                    weight=0.25 if p.source == "H" else 0.5))

    return RadialGeometry(
        m=m,
        link=link,
        f=evaluator(("f",)), fp=evaluator(("fp",)), fpp=evaluator(("fpp",)),
        rho=evaluator(("rho",)),
        beta=evaluator(("beta",)),
        wextra=evaluator(("wextra",)),
        circle=circle,
        period=period,
        left=left,
        right=right,
        plan=tuple(plan),
        junctions=tuple(junctions),
        label=family.label or "glued",
        eta=eta_fn,
        fields=evaluator(FIELDS),
    )


# ---------------------------------------------------------------------------
# neck convergence diagnostics


def neck_convergence_check(family: GluedFamily, t, j_max: int = 1) -> list[dict]:
    """Sup-norm decay of the glued warp toward the rescaled partner warp.

    For each marked pair reports, for j <= j_max,

        sup_{r in [t Rhat, t^b]} |r^j d^j(f_t^2 - t^2 fhat(r/t)^2)| / (t^2 fhat(r/t)^2),

    the radial warped-product specialization of the neck-region tensor
    estimate.  Exact-cone gluings give exactly 0; otherwise callers
    assert decay along a t-sweep.
    """
    if j_max > 2:
        raise ValueError("only j <= 2 derivatives are tracked")
    glued = family.at(t)
    geo = glued.geometry
    rows = []
    for k, J in enumerate(geo.junctions):
        (ci, wi, cj, wj) = family.pairs[J.pair]
        part = family.L_hat.components[cj]
        sgn_p = part.r_sign(wj)
        r = np.geomspace(J.t * J.Rhat, J.t**family.b, 4001)
        x = J.center + J.direction * r

        F = np.asarray(geo.f(x), dtype=float)
        Fp = J.direction * np.asarray(geo.fp(x), dtype=float)
        Fpp = np.asarray(geo.fpp(x), dtype=float)
        Q = F**2
        Qp = 2 * F * Fp
        Qpp = 2 * (Fp**2 + F * Fpp)

        xp = sgn_p * (r / J.t)
        G = J.t * np.asarray(part.warp.f(xp), dtype=float)
        Gp = sgn_p * np.asarray(part.warp.fp(xp), dtype=float)
        Gpp = np.asarray(part.warp.fpp(xp), dtype=float) / J.t
        P = G**2
        Pp = 2 * G * Gp
        Ppp = 2 * (Gp**2 + G * Gpp)

        sups = {
            0: float(np.max(np.abs(Q - P) / P)),
            1: float(np.max(np.abs(r * (Qp - Pp)) / P)),
            2: float(np.max(np.abs(r * r * (Qpp - Ppp)) / P)),
        }
        for j in range(j_max + 1):
            rows.append({"pair": k, "t": float(J.t), "j": j, "sup": sups[j]})
    return rows


# ---------------------------------------------------------------------------
# configuration I/O and canonical presets


def _side_from_config(d, link):
    if d is None or d == "cap":
        return Cap()
    return EndSpec(
        kind=d["kind"],
        link=link,
        nu=float(d["nu"]),
        beta=float(d["beta"]),
        boundary=float(d["boundary"]),
        marked=bool(d.get("marked", False)),
    )


def model_from_config(cfg: dict) -> ConifoldModel:
    """Build a model from the documented JSON schema:

    {"m": 3,
     "components": [{"link": "sphere:2",
                     "profile": "exact_cone" | "hyperboloid:1.0" | ...,
                     "ends": [{kind, nu, beta, boundary, marked}, ...],
                     "core_boundary": "cap" | "none",
                     "length": 3.1415}],
     "label": "..."}

    Each component gives one or two ends; with one end, core_boundary
    'cap' closes the other side.  Single-AC components place the AC end
    on the right.
    """
    m = int(cfg["m"])
    comps = []
    for c in cfg["components"]:
        link = link_from_string(c["link"]) if isinstance(c["link"], str) else make_link(**c["link"])
        warp = _parse_profile(c["profile"])
        ends = [dict(e) for e in c["ends"]]
        core = c.get("core_boundary", "none")
        if len(ends) == 1:
            if core != "cap":
                raise ValueError("single-ended components need core_boundary 'cap'")
            e = _side_from_config(ends[0], link)
            if e.kind == "AC":
                left, right = Cap(), e
            else:
                left, right = e, Cap()
        elif len(ends) == 2:
            e0, e1 = (_side_from_config(e, link) for e in ends)
            if e0.kind == "AC" and e1.kind != "AC":
                e0, e1 = e1, e0
            left, right = e0, e1
        else:
            raise ValueError("components carry one or two ends")
        comps.append(Component(
            link=link, warp=warp, left=left, right=right,
            length=c.get("length"), label=c.get("label", ""),
        ))
    return ConifoldModel(m=m, components=tuple(comps), label=cfg.get("label", ""))


def load_model(path) -> ConifoldModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_config(json.load(fh))


def family_from_config(cfg: dict) -> "GluedFamily":
    """Build a glued family from one combined config: components carrying
    marked CS ends form the host, components carrying marked AC ends form
    the partner; tau, a and b complete the family data."""
    m = int(cfg["m"])
    host_comps, partner_comps = [], []
    for c in cfg["components"]:
        model = model_from_config({"m": m, "components": [c]})
        comp = model.components[0]
        kinds = {s.kind for _, s in comp.ends() if s.marked}
        if kinds == {"CS"}:
            host_comps.append(c)
        elif kinds == {"AC"}:
            partner_comps.append(c)
        else:
            raise ValueError(
                "each component must carry marked ends of exactly one kind "
                "(CS for the host, AC for the partner)")
    if not host_comps or not partner_comps:
        raise ValueError("need both a CS-marked host and an AC-marked partner")
    L = model_from_config({"m": m, "components": host_comps,
                           "label": cfg.get("label", "") + ":host"})
    L_hat = model_from_config({"m": m, "components": partner_comps,
                               "label": cfg.get("label", "") + ":partner"})
    return GluedFamily(L, L_hat, tau=float(cfg["tau"]), a=float(cfg["a"]),
                       b=float(cfg["b"]), label=cfg.get("label", ""))


def load_family(path) -> "GluedFamily":
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_config(json.load(fh))


def _unit_s2() -> Link:
    return make_link("sphere", dim=2)


def preset_model(name: str, beta: float = -0.5, m: int = 3) -> ConifoldModel:
    """Canonical base models over the unit 2-sphere link (m = 3).

    exact_cone_cs_ac    exact cone, CS end (eps = 2, marked) + AC end (R = 2)
    hyperboloid_capped  f = sqrt(r^2+1), cap + one AC end (R = 1)
    rxs2                f = sqrt(r^2+1) on the line, two AC ends (R = 1)
    sine_spindle        f = sin r on (0, pi), two CS ends (eps = 1, marked)
    """
    link = _unit_s2()
    if m != 3:
        raise ValueError("presets are defined over the 2-sphere link (m = 3)")
    if name == "exact_cone_cs_ac":
        return ConifoldModel(m, (Component(
            link=link, warp=warp_preset("exact_cone"),
            left=EndSpec("CS", link, nu=1.0, beta=beta, boundary=2.0, marked=True),
            right=EndSpec("AC", link, nu=-1.0, beta=beta, boundary=2.0),
        ),), label="exact_cone_cs_ac")
    if name == "hyperboloid_capped":
        return ConifoldModel(m, (Component(
            link=link, warp=warp_preset("hyperboloid", 1.0),
            left=Cap(),
            right=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0),
        ),), label="hyperboloid_capped")
    if name == "rxs2":
        return ConifoldModel(m, (Component(
            link=link, warp=warp_preset("hyperboloid", 1.0),
            left=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0),
            right=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0, marked=True),
        ),), label="rxs2")
    if name == "sine_spindle":
        return ConifoldModel(m, (Component(
            link=link, warp=warp_preset("sine_spindle"),
            left=EndSpec("CS", link, nu=2.0, beta=beta, boundary=1.3, marked=True),
            right=EndSpec("CS", link, nu=2.0, beta=beta, boundary=1.3, marked=True),
            length=math.pi,
        ),), label="sine_spindle")
    raise ValueError(f"unknown preset model {name!r}")


def dumbbell_family(beta: float = -0.5, tau: float = 0.5, a: float = 0.4, b: float = 0.2) -> GluedFamily:
    """Non-compact benchmark: exact cone (CS end marked) glued with the
    two-ended hyperboloid line, leaving two AC ends."""
    L = preset_model("exact_cone_cs_ac", beta=beta)
    L_hat = preset_model("rxs2", beta=beta)
    return GluedFamily(L, L_hat, tau=tau, a=a, b=b, label="dumbbell")


def spindle_family(beta: float = -0.5, tau: float = 0.5, a: float = 0.4, b: float = 0.2) -> GluedFamily:
    """Compact benchmark: sine spindle (two CS ends) glued with the
    hyperboloid line (two AC ends), closing into a circle."""
    L = preset_model("sine_spindle", beta=beta)
    link = _unit_s2()
    L_hat = ConifoldModel(3, (Component(
        link=link, warp=warp_preset("hyperboloid", 1.0),
        left=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0, marked=True),
        right=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0, marked=True),
    ),), label="rxs2_marked2")
    return GluedFamily(L, L_hat, tau=tau, a=a, b=b, label="spindle")
