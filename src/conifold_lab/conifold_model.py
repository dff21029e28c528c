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

An unglued component is the same strip with one host piece placed as it
is and no neck, so one builder and one field evaluator serve every model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "exact_cone_model",
    "preset_model",
    "dumbbell_family",
    "spindle_family",
]


class GluingError(ValueError):
    """Invalid connect-sum data (incompatibility, parameter ordering, ...)."""


# ---------------------------------------------------------------------------
# warp profiles


class WarpProfile(NamedTuple):
    """Radial warp f with two derivatives, as vectorized callables."""

    name: str
    f: object
    fp: object
    fpp: object


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
        )
    if name == "spline":
        from scipy.interpolate import CubicSpline

        knots_r, knots_f = params
        cs = CubicSpline(np.asarray(knots_r, dtype=float), np.asarray(knots_f, dtype=float))
        return WarpProfile("spline", f=cs, fp=cs.derivative(1), fpp=cs.derivative(2))
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


class Cap(NamedTuple):
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
# runtime radial geometry (one builder, _glued_geometry, for base and glued models)


class BoundaryInfo(NamedTuple):
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


class JunctionInfo(NamedTuple):
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


class PlanSegment(NamedTuple):
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


@dataclass(eq=False, repr=False)
class RadialGeometry:
    """Radial warped-product geometry in final coordinates.

    Provides pointwise f, f', f'', the radius function rho, the weight
    exponent beta and any extra weight factor (the reference-weight
    correction on shrunk components); plus boundary/junction metadata
    and a gridding plan.  f'' is a callable only: grids store the FIELDS.
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
    # glued models: the neck cutoff eta_t(x), a field like the six above
    eta: object | None = None
    # x -> the FIELDS in one pass, equal to their callables; every
    # geometry the package builds has it, and grids use it when present
    fields: object | None = None


# the node fields of a RadialGeometry that grids store, in `fields` order
FIELDS = ("f", "fp", "rho", "beta", "wextra")


# below this many points np.mod's one pass costs less than _fold's six
_FOLD_MIN_SIZE = 1024


def _fold(x, period):
    """np.mod(x, period) for a period > 0, bit for bit and in its dtype,
    without its division.  On [-period, 2 period) one period is added
    below 0 (rounded as np.mod rounds it) or taken off from period up
    (exact for floats by Sterbenz's lemma, and for ints), and the + 0
    before turns -0.0 into +0.0 as np.mod does.  Outside that range, on
    NaN and on fewer than _FOLD_MIN_SIZE points it is np.mod."""
    x = np.asarray(x)
    if x.size < _FOLD_MIN_SIZE or not (x.min() >= -period and x.max() < 2 * period):
        return np.mod(x, period)
    out = x + period * 0
    np.add(out, period, out=out, where=x < 0)
    np.subtract(out, period, out=out, where=x >= period)
    return out


def _source_fields(comp: Component):
    """(rho, beta) of a component in its own chart: its radius function,
    and its weight exponent, each end's beta on its half, split mid-core."""
    betas = [s.beta if isinstance(s, EndSpec) else None for s in (comp.left, comp.right)]
    known = [b for b in betas if b is not None]
    if len(set(known)) < 2:
        b = known[0] if known else 0.0
        return comp.default_rho(), lambda x: np.full_like(np.asarray(x, dtype=float), b)
    lo_edge, hi_edge = (comp.tip(w) + comp.r_sign(w) * comp.side(w).boundary
                        for w in ("left", "right"))
    mid, (bl, br) = 0.5 * (lo_edge + hi_edge), betas

    def beta_of(x):
        return np.where(np.asarray(x, dtype=float) <= mid, bl, br)

    return comp.default_rho(), beta_of


# ---------------------------------------------------------------------------
# compatibility


class CompatCheck(NamedTuple):
    code: str
    passed: bool
    detail: str


class CompatibilityReport(NamedTuple):
    passed: bool
    checks: tuple[CompatCheck, ...]
    pairs: tuple = ()

    def failures(self):
        return [c for c in self.checks if not c.passed]


# chart radii sampled per marked end, and the bound on sup |f/r - 1| there
_COMPAT_SAMPLES = 64
_CONE_DEVIATION_BOUND = 0.5


def _warp_deviation(comp: Component, which: str, spec: EndSpec) -> float:
    """sup |f(r)/r - 1| over sampled chart radii of the end."""
    tip = comp.tip(which)
    sgn = comp.r_sign(which)
    if spec.kind == "CS":
        rs = np.geomspace(spec.boundary * 1e-3, spec.boundary, _COMPAT_SAMPLES)
    else:
        rs = np.geomspace(spec.boundary, spec.boundary * 1e3, _COMPAT_SAMPLES)
    xs = tip + sgn * rs
    fv = np.asarray(comp.warp.f(xs), dtype=float)
    if np.any(fv <= 0):
        return math.inf
    return float(np.max(np.abs(fv / rs - 1.0)))


def check_compatible(L: ConifoldModel, L_hat: ConifoldModel) -> CompatibilityReport:
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
            dev_cs = _warp_deviation(L.components[ci], wi, s_cs)
            dev_ac = _warp_deviation(L_hat.components[cj], wj, s_ac)
            checks.append(CompatCheck(
                f"pair{k}:cone_closeness",
                dev_cs <= _CONE_DEVIATION_BOUND and dev_ac <= _CONE_DEVIATION_BOUND,
                f"sup|f/r-1| = {dev_cs:.3g} (host), {dev_ac:.3g} (partner), "
                f"bound {_CONE_DEVIATION_BOUND}",
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


def _squared_warp(F, Fp, Fpp=None):
    """(Q, Q') of Q = F^2 from F and F', and Q'' too when F'' is given."""
    Q = (F**2, 2 * F * Fp)
    return Q if Fpp is None else (*Q, 2 * (Fp**2 + F * Fpp))


def _rescaled_partner_warp(part: Component, which: str, r, t, second: bool = True):
    """(F, F') in the neck radius r of the partner warp shrunk by t,
    F(r) = t fhat(r/t), on the partner's marked AC end `which`, and F''
    too when second."""
    sgn = part.r_sign(which)
    xp = sgn * (r / t)
    F = (t * np.asarray(part.warp.f(xp), dtype=float),
         sgn * np.asarray(part.warp.fp(xp), dtype=float))
    return (*F, np.asarray(part.warp.fpp(xp), dtype=float) / t) if second else F


# ---------------------------------------------------------------------------
# cutoff eta_t


class EtaCutoff(NamedTuple):
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


class _Piece(NamedTuple):
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
        # source domain: of x - period, x and x + period, the first one
        # nearest its centre
        shifts = np.array([-1.0, 0.0, 1.0]) * period
        cands = (np.add.outer(shifts, x) - self.offset) / self.direction
        lo, hi = self.x_src_lo, self.x_src_hi
        center = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else 0.0
        nearest = np.argmin(np.abs(cands - center), axis=0)
        return np.choose(nearest, cands)

    def from_src(self, x_src):
        return self.offset + self.direction * np.asarray(x_src, dtype=float)


class GluedModel(NamedTuple):
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

    Requires the marked-pair ordering t*Rhat < t^tau < 2 t^tau < eps and
    t^b <= eps on every pair (so the cutoff eta_t reaches 1 inside the
    neck), and equal t entries within each connected component of the
    partner.
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
        if not (0.0 < ti < 1.0 and ti * Rhat < ti**tau and 2.0 * ti**tau < eps
                and ti**family.b <= eps):
            raise GluingError(
                f"pair (host component {ci}, partner component {cj}): need t*Rhat < t^tau < "
                f"2 t^tau < eps and t^b <= eps, got t={ti}, Rhat={Rhat}, eps={eps}, b={family.b}")

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

    # piece k and junction k are appended in the same step, so junction k
    # joins pieces k and k + 1 (piece 0 again when the walk closes a circle)
    pieces: list[_Piece] = []
    junctions: list[JunctionInfo] = []
    visited = set()
    node, entry = start
    offset = 0.0
    closing = None
    while True:
        comp = comp_of_node(node)
        scale = 1.0 if node[0] == "L" else by_comp[node[1]]
        direction = scale * (1.0 if entry == "left" else -1.0)
        piece = _Piece(node[0], node[1], offset, direction, comp.x_lo(), comp.x_hi())
        pieces.append(piece)
        visited.add(node)
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

        nxt_node = (nxt_src, nxt_ci)
        nxt_comp = comp_of_node(nxt_node)
        nxt_scale = 1.0 if nxt_src == "L" else by_comp[nxt_ci]
        nxt_dir = nxt_scale * (1.0 if nxt_w == "left" else -1.0)
        nxt_off = tip_here - nxt_dir * nxt_comp.tip(nxt_w)
        if circle and nxt_node == start[0] and len(visited) == len(involved):
            closing = (nxt_off, nxt_dir, nxt_w)
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

    geometry = _glued_geometry(L, L_hat, family, pieces, junctions, circle, period, x_origin)
    return GluedModel(family=family, t=tv, geometry=geometry)


# ---------------------------------------------------------------------------
# glued geometry assembly


def _zone_lookup(zones, circle, period):
    """Zone index per point of the glued strip: the first zone of `zones`
    (lo, hi, tag, index), necks listed first, whose test holds.  The test
    is lo - fuzz <= x <= hi + fuzz, fuzz 1e-12 max(1, |edge|), and on a
    circle (every zone finite) mod(x - lo, period) <= (hi - lo) + 1e-12
    max(1, |hi|, |lo|).  Every point takes every zone's test."""

    def holds(z, x):
        lo, hi = zones[z][:2]
        if circle and math.isfinite(lo) and math.isfinite(hi):
            return _fold(x - lo, period) <= (hi - lo) + 1e-12 * max(1.0, abs(hi), abs(lo))
        sel = (x >= lo - 1e-12 * max(1.0, abs(lo))) if math.isfinite(lo) else np.ones(x.size, bool)
        if math.isfinite(hi):
            sel = sel & (x <= hi + 1e-12 * max(1.0, abs(hi)))
        return sel

    def lookup(xw):
        res = np.full(xw.size, -1)
        for z in reversed(range(len(zones))):  # so that the first zone to hold wins
            res[holds(z, xw)] = z
        if (res < 0).any():
            raise ValueError("point outside the glued domain")
        return res

    return lookup


def _spans(labels: np.ndarray) -> dict:
    """{label: [(start, stop), ...]}: the runs of equal labels, in order."""
    cuts = [0, *((labels[1:] != labels[:-1]).nonzero()[0] + 1).tolist(), labels.size]
    out = {}
    for a, b in zip(cuts, cuts[1:]):
        if b > a:
            out.setdefault(int(labels[a]), []).append((a, b))
    return out


def _gather(x: np.ndarray, spans: list) -> np.ndarray:
    """The slices spans of x, one after another (a view for one span)."""
    return x[slice(*spans[0])] if len(spans) == 1 else np.concatenate([x[a:b] for a, b in spans])


def _scatter(out: dict, vals: dict, spans: list) -> None:
    """out[name][a:b] for the spans of _gather, in turn, from vals[name]
    (a scalar fills every span)."""
    o = 0
    for a, b in spans:
        for name, arr in out.items():
            v = vals[name]
            arr[a:b] = v[o:o + b - a] if isinstance(v, np.ndarray) else v
        o += b - a


def _glued_geometry(L, L_hat, family, pieces, junctions, circle, period, x_origin):
    """The radial geometry of the glued strip, and of an unglued component
    as the strip of one host piece with no neck (family None, L_hat None).

    Along the glued axis the walk's pieces and necks alternate as one
    ordered strip: piece 0, neck 0, piece 1, neck 1, ...  Neck j is the
    chart r in [t Rhat, eps] of junction j and joins pieces j and j + 1
    (piece 0 again when the strip closes into a circle); each piece owns
    its body between its neck edges, out to +-inf on a free end.  Every
    point is looked up once in this tiling, and every field, the FIELDS,
    f'' and the cutoff eta_t, is evaluated per zone.  eta_t is junction
    j's cutoff on neck j (it reaches 1 there, as t^b <= eps), 1 on host
    bodies and 0 on partner bodies; an unglued component has no eta_t.
    """
    def comp_of(piece: _Piece) -> Component:
        return (L if piece.source == "L" else L_hat).components[piece.comp_index]

    def wrap(x):
        return x_origin + _fold(x - x_origin, period) if circle else x

    def rdist(J: JunctionInfo, xw):
        """Signed neck radius of xw relative to junction J (wrap-aware)."""
        d = xw - J.center
        if circle:
            d = _fold(d + 0.5 * period, period) - 0.5 * period
        return J.direction * d

    # ---- each piece's body edges, left then right source side -------------
    # r = boundary on every end (on glued ends the edge of the neck zone:
    # r = Rhat for partners, r = eps for hosts), the center on caps; the
    # flag marks a free end, one that no neck takes, where the piece
    # formula applies out to infinity
    pairs = [family.pairs[J.pair] for J in junctions]
    taken = {("L", ci, wi) for ci, wi, _, _ in pairs} | {("H", cj, wj) for _, _, cj, wj in pairs}
    body_edges = []
    for p in pieces:
        comp = comp_of(p)
        edges = []
        for which in ("left", "right"):
            s = comp.side(which)
            if isinstance(s, EndSpec):
                src_edge = comp.tip(which) + comp.r_sign(which) * s.boundary
            else:
                src_edge = comp.tip(which)
            free = isinstance(s, EndSpec) and (p.source, p.comp_index, which) not in taken
            edges.append((float(p.from_src(src_edge)), free))
        body_edges.append(edges)

    # ---- exact zone tiling: necks first, then piece bodies ----------------
    # (lo, hi, tag, index) in unwrapped walk coordinates; membership is
    # wrap-aware.
    zones: list[tuple[float, float, str, int]] = []
    for j, J in enumerate(junctions):
        e1 = J.center + J.direction * (J.t * J.Rhat)
        e2 = J.center + J.direction * J.eps
        zones.append((min(e1, e2), max(e1, e2), "neck", j))
    for p_i, p in enumerate(pieces):
        ends = [math.copysign(math.inf, side * p.direction) if free else x
                for (x, free), side in zip(body_edges[p_i], (-1.0, 1.0))]
        zones.append((min(ends), max(ends), "host" if p.source == "L" else "partner", p_i))

    zone_membership = _zone_lookup(zones, circle, period)

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

    def blend(J: JunctionInfo, r, names):
        """(f_t, f_t', and f_t'' when named) at the neck radii r of the
        interpolation band: f_t^2 is the chi-blend of the squared
        rescaled-partner and host warps, chi a fixed C^2 bump in log r (1
        at t^tau, 0 at 2 t^tau)."""
        ci, wi, cj, wj = family.pairs[J.pair]
        host = L.components[ci]
        t = J.t
        r1 = t**J.tau
        second = "fpp" in names

        tip_h = host.tip(wi)
        sgn_h = host.r_sign(wi)
        xh = tip_h + sgn_h * r
        Qh = _squared_warp(
            np.asarray(host.warp.f(xh), dtype=float),
            sgn_h * np.asarray(host.warp.fp(xh), dtype=float),
            np.asarray(host.warp.fpp(xh), dtype=float) if second else None)
        Qp = _squared_warp(*_rescaled_partner_warp(L_hat.components[cj], wj, r, t, second))

        ln2 = math.log(2.0)
        s = np.log(r / r1) / ln2
        ds = 1.0 / (r * ln2)
        chi = 1.0 - _smoothstep_c2(s)
        chi_p = -_smoothstep_c2_d1(s) * ds

        Q = chi * Qp[0] + (1 - chi) * Qh[0]
        Q_p = chi_p * (Qp[0] - Qh[0]) + chi * Qp[1] + (1 - chi) * Qh[1]
        F = np.sqrt(Q)
        vals = {"f": F, "fp": Q_p / (2 * F) * J.direction}
        if second:
            d2s = -1.0 / (r * r * ln2)
            chi_pp = -(_smoothstep_c2_d2(s) * ds * ds + _smoothstep_c2_d1(s) * d2s)
            Q_pp = (chi_pp * (Qp[0] - Qh[0]) + 2 * chi_p * (Qp[1] - Qh[1])
                    + chi * Qp[2] + (1 - chi) * Qh[2])
            vals["fpp"] = (Q_pp / (2 * F) - Q_p**2 / (4 * F**3)) * J.direction**2
        return vals

    # each piece's radius and weight functions in its own chart and, for
    # partners, the reference weight of its marked end
    sources = [_source_fields(comp_of(p)) for p in pieces]
    ref_beta = [next(s.beta for _, s in comp_of(p).ends() if s.marked) if p.source == "H"
                else None for p in pieces]

    def piece_fields(p_i, xw, names):
        """The named fields of piece p_i at the wrapped points xw: its warp,
        and its rho, beta and wextra, where shrunk partners carry the
        reference-weight correction t^(beta_hat - beta_ref); eta is 1 on a
        host and 0 on a partner."""
        piece, (rho, beta) = pieces[p_i], sources[p_i]
        xs = piece.to_src(xw, period)
        scale = abs(piece.direction)
        vals = {a: piece_warp(piece, xs, a) for a in ("f", "fp", "fpp") if a in names}
        if "rho" in names:
            vals["rho"] = scale * np.asarray(rho(xs), dtype=float)
        if "beta" in names or "wextra" in names:
            bhat = np.asarray(beta(xs), dtype=float)
            vals["beta"] = bhat
            vals["wextra"] = scale ** (bhat - ref_beta[p_i]) if piece.source == "H" else 1.0
        vals["eta"] = 1.0 if piece.source == "L" else 0.0
        return vals

    def neck_fields(j, xw, names):
        """The named fields on neck j at the wrapped points xw: the junction
        chart gives rho, beta, wextra and the cutoff eta_t on all of
        [t Rhat, eps]; the warp is the partner's for r < t^tau, the blend
        up to 2 t^tau and the host's beyond."""
        J = junctions[j]
        r = rdist(J, xw)
        vals = {"rho": r, "beta": J.beta, "wextra": 1.0}
        if "eta" in names:
            eta = cutoff_eta(J.t, family.a, family.b)
            vals["eta"] = np.where(r <= J.t**eta.a, 0.0, np.where(r >= J.t**eta.b, 1.0, eta(r)))
        warp = [a for a in ("f", "fp", "fpp") if a in names]
        if warp:
            # the strip's pieces j and j + 1, the partner being the one from L_hat
            ahead = (j + 1) % len(pieces)
            partner, host = (j, ahead) if pieces[j].source == "H" else (ahead, j)
            r1 = J.t**J.tau
            out = {a: np.empty_like(xw) for a in warp}
            # 0: r < t^tau, the partner's; 1: the blend; 2: r > 2 t^tau, the host's
            band = (r >= r1).view(np.int8) + (r > 2.0 * r1).view(np.int8)
            for k, spans in _spans(band).items():
                part = (blend(J, _gather(r, spans), warp) if k == 1
                        else piece_fields((partner, None, host)[k], _gather(xw, spans), warp))
                _scatter(out, part, spans)
            vals.update(out)
        return vals

    def evaluate(xw, names):
        """The named fields (of FIELDS, "fpp" and "eta") at the wrapped
        points xw: {name: array}.  One zone lookup per point; each zone
        present is evaluated at once on its points, taken as slices: one
        for a zone of ascending points, two where it crosses a circle's
        seam.  Points whose zones form more runs are sorted first (and
        their values put back after)."""
        z, order = zone_membership(xw), None
        spans = _spans(z)
        if any(len(runs) > 2 for runs in spans.values()):
            order = np.argsort(xw, kind="stable")
            xw, spans = xw[order], _spans(z[order])
        out = {a: np.empty_like(xw) for a in names}
        for z_i, runs in spans.items():
            _, _, tag, ref = zones[z_i]
            _scatter(out, (neck_fields if tag == "neck" else piece_fields)(
                ref, _gather(xw, runs), names), runs)
        if order is not None:
            for name, v in out.items():
                out[name] = np.empty_like(v)
                out[name][order] = v
        return out

    def evaluator(names):
        def ev(x):
            x = np.asarray(x, dtype=float)
            scalar = x.ndim == 0
            vals = evaluate(wrap(np.atleast_1d(x)), names)
            vals = tuple(v[0] if scalar else v for v in (vals[a] for a in names))
            return vals if len(names) > 1 else vals[0]
        return ev

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
        # the log segment of each truncated end: an AC end runs out from
        # its chart radius, a CS end in to it
        plan = [PlanSegment("log", x0=b.x0, sign=b.sign,
                            r_lo=b.chart_r if b.kind == "ac" else None,
                            r_hi=b.chart_r if b.kind == "cs" else None)
                for b in (left, right) if b.kind != "cap"]

    for J in junctions:
        plan.append(PlanSegment("log", x0=J.center, sign=J.direction,
                                r_lo=J.t * J.Rhat, r_hi=J.eps))
    for p, edges in zip(pieces, body_edges):
        g1, g2 = sorted(x for x, _ in edges)
        if g2 > g1:
            plan.append(PlanSegment("lin", x_a=g1, x_b=g2,
                                    weight=0.25 if p.source == "H" else 0.5))

    comp = comp_of(pieces[0])
    return RadialGeometry(
        m=L.m,
        link=comp.link,
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
        label=(family.label or "glued") if family else (
            comp.label or L.label or f"component{pieces[0].comp_index}"),
        eta=evaluator(("eta",)) if family else None,
        fields=evaluator(FIELDS),
    )


def _base_geometry(model: ConifoldModel, ci: int) -> RadialGeometry:
    """Component ci of an unglued model: the strip of one host piece placed
    as it is (offset 0, direction 1), with no neck."""
    comp = model.components[ci]
    piece = _Piece("L", ci, 0.0, 1.0, comp.x_lo(), comp.x_hi())
    return _glued_geometry(model, None, None, [piece], [], False, None, 0.0)


# ---------------------------------------------------------------------------
# neck convergence diagnostics


def neck_convergence_check(family: GluedFamily, t) -> list[dict]:
    """Sup-norm decay of the glued warp toward the rescaled partner warp.

    For each marked pair reports, for j = 0 and 1,

        sup_{r in [t Rhat, t^b]} |r^j d^j(f_t^2 - t^2 fhat(r/t)^2)| / (t^2 fhat(r/t)^2),

    the radial warped-product specialization of the neck-region tensor
    estimate.  Exact-cone gluings give exactly 0; otherwise callers
    assert decay along a t-sweep.
    """
    geo = family.at(t).geometry
    rows = []
    for k, J in enumerate(geo.junctions):
        _, _, cj, wj = family.pairs[J.pair]
        r = np.geomspace(J.t * J.Rhat, J.t**family.b, 4001)
        x = J.center + J.direction * r
        Q, Qp, _ = _squared_warp(
            np.asarray(geo.f(x), dtype=float),
            J.direction * np.asarray(geo.fp(x), dtype=float),
            np.asarray(geo.fpp(x), dtype=float))
        P, Pp, _ = _squared_warp(*_rescaled_partner_warp(family.L_hat.components[cj], wj, r, J.t))
        rows.append({"pair": k, "t": float(J.t), "j": 0, "sup": float(np.max(np.abs(Q - P) / P))})
        rows.append({"pair": k, "t": float(J.t), "j": 1,
                     "sup": float(np.max(np.abs(r * (Qp - Pp)) / P))})
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
    the partner; tau, a and b complete the family data.  Each component
    is built once."""
    m = int(cfg["m"])
    host_comps, partner_comps = [], []
    for comp in model_from_config({"m": m, "components": cfg["components"]}).components:
        kinds = {s.kind for _, s in comp.ends() if s.marked}
        if kinds == {"CS"}:
            host_comps.append(comp)
        elif kinds == {"AC"}:
            partner_comps.append(comp)
        else:
            raise ValueError(
                "each component must carry marked ends of exactly one kind "
                "(CS for the host, AC for the partner)")
    if not host_comps or not partner_comps:
        raise ValueError("need both a CS-marked host and an AC-marked partner")
    L = ConifoldModel(m, tuple(host_comps), label=cfg.get("label", "") + ":host")
    L_hat = ConifoldModel(m, tuple(partner_comps), label=cfg.get("label", "") + ":partner")
    return GluedFamily(L, L_hat, tau=float(cfg["tau"]), a=float(cfg["a"]),
                       b=float(cfg["b"]), label=cfg.get("label", ""))


def load_family(path) -> "GluedFamily":
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_config(json.load(fh))


def _unit_s2() -> Link:
    return make_link("sphere", dim=2)


def exact_cone_model(link: Link, m: int, beta_cs: float, beta_ac: float, boundary: float,
                     marked: bool = False, label: str = "") -> ConifoldModel:
    """The exact cone f = r over link: a CS end (nu = 1, weight beta_cs,
    marked for gluing when marked) and an AC end (nu = -1, weight
    beta_ac), both ends' charts meeting at the radius boundary."""
    return ConifoldModel(m, (Component(
        link=link, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", link, nu=1.0, beta=beta_cs, boundary=boundary, marked=marked),
        right=EndSpec("AC", link, nu=-1.0, beta=beta_ac, boundary=boundary),
    ),), label=label)


def preset_model(name: str, beta: float = -0.5) -> ConifoldModel:
    """Canonical base models over the unit 2-sphere link (m = 3).

    exact_cone_cs_ac    exact cone, CS end (eps = 2, marked) + AC end (R = 2)
    hyperboloid_capped  f = sqrt(r^2+1), cap + one AC end (R = 1)
    rxs2                f = sqrt(r^2+1) on the line, two AC ends (R = 1)
    sine_spindle        f = sin r on (0, pi), two CS ends (eps = 1, marked)
    """
    link = _unit_s2()
    if name == "exact_cone_cs_ac":
        return exact_cone_model(link, 3, beta, beta, 2.0, marked=True, label=name)
    if name == "hyperboloid_capped":
        return ConifoldModel(3, (Component(
            link=link, warp=warp_preset("hyperboloid", 1.0),
            left=Cap(),
            right=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0),
        ),), label="hyperboloid_capped")
    if name == "rxs2":
        return ConifoldModel(3, (Component(
            link=link, warp=warp_preset("hyperboloid", 1.0),
            left=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0),
            right=EndSpec("AC", link, nu=-2.0, beta=beta, boundary=1.0, marked=True),
        ),), label="rxs2")
    if name == "sine_spindle":
        return ConifoldModel(3, (Component(
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
