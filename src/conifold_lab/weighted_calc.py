"""Weighted Sobolev and C^k norms for mode-decomposed radial functions.

Functions live on a radial grid and are stored as finite mode sums
u = sum_n u_n(r) s_n(theta), where the s_n are link eigenfunctions
orthonormal for the probability measure dvol / vol(Sigma) (so s_0 = 1
and mode-0 coefficients are plain radial functions).  Angular integrals
are carried exactly through the L^2(Sigma) densities

    D_0 = (sum u_n^2)^(1/2),
    D_1 = (sum u_n'^2 + (e_n / f^2) u_n^2)^(1/2),
    D_2 = full warped-product Hessian density (radial second derivatives,
          f'/f connection terms, e_n factors, and the link's Einstein
          constant when known),

and the weighted Sobolev norm is evaluated by quadrature as

    ||u||_{W^p_{k,beta}} = ( sum_{j<=k} int (w rho^j D_j)^p rho^{-m}
                             f^{m-1} vol(Sigma) dr )^{1/p},

with w = wextra * rho^(-beta) by default.  At p = 2 this is the exact
weighted norm of the mode sum; for p != 2 it is the corresponding mixed
radial-L^p / angular-L^2 norm, which obeys the same scaling identities,
the weighted Hoelder inequality, and norm homogeneity exactly.

Quadrature is composite trapezoid in log r on end regions and uniform in
x on cores; integrands on exact-cone tails are power laws in r, hence
smooth in log r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .conifold_model import FIELDS, PlanSegment, RadialGeometry
from .weight_calculus import conjugate_exponents

__all__ = [
    "RadialGrid",
    "build_grid",
    "rescaled_geometry",
    "ModeProfile",
    "ModeFunction",
    "WeightSpec",
    "NormReport",
    "CkNormReport",
    "weighted_sobolev_norm",
    "weighted_sobolev_norm_report",
    "weighted_ck_norm",
    "gradient_norm",
    "rescaling_invariance_check",
    "HolderReport",
    "holder_check",
    "BanachAlgebraReport",
    "banach_algebra_check",
    "EmbeddingReport",
    "embedding_constant_estimate",
    "mode_product",
    "bump_profile",
    "bump_family",
    "random_bump_pairs",
]


# ---------------------------------------------------------------------------
# grids


@dataclass
class RadialGrid:
    """Graded radial mesh with trapezoid quadrature weights.

    nodes: strictly increasing positions (a fundamental domain for
    circles); quad: weights with int F dx ~ sum quad * F(nodes).
    Geometry samples (f, f', f'', rho, beta, wextra) are cached at the
    nodes, taken in one pass from the geometry's `fields` evaluator when
    it has one (glued geometries classify each node once), else from its
    six callables.  The derivative matrices d1, d2, the norm volume and
    the e-free part of the mode operator are built lazily, once per
    grid, from these arrays; so the arrays must not be mutated after
    construction (build a new grid instead).
    """

    geometry: RadialGeometry
    nodes: np.ndarray
    quad: np.ndarray
    f: np.ndarray = field(repr=False, default=None)
    fp: np.ndarray = field(repr=False, default=None)
    fpp: np.ndarray = field(repr=False, default=None)
    rho: np.ndarray = field(repr=False, default=None)
    beta: np.ndarray = field(repr=False, default=None)
    wextra: np.ndarray = field(repr=False, default=None)
    _d1: sp.spmatrix = field(repr=False, default=None)
    _d2: sp.spmatrix = field(repr=False, default=None)
    _volume: np.ndarray = field(repr=False, default=None)
    _radial_operator: sp.spmatrix = field(repr=False, default=None)

    def __post_init__(self):
        g = self.geometry
        x = self.nodes
        vals = g.fields(x) if g.fields is not None else [getattr(g, a)(x) for a in FIELDS]
        for a, v in zip(FIELDS, vals):
            setattr(self, a, np.asarray(v, dtype=float))
        if np.any(self.f <= 0):
            raise ValueError("warp must be positive on the grid")
        if np.any(self.rho <= 0):
            raise ValueError("radius function must be positive on the grid")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def volume_factor(self) -> float:
        return self.geometry.link.volume if self.geometry.link.volume is not None else 1.0

    def spacings(self):
        """(h_minus, h_plus) per node; circular wrap for circle grids."""
        x = self.nodes
        if self.geometry.circle:
            per = self.geometry.period
            hp = np.empty_like(x)
            hm = np.empty_like(x)
            hp[:-1] = np.diff(x)
            hp[-1] = x[0] + per - x[-1]
            hm[1:] = np.diff(x)
            hm[0] = hp[-1]
            return hm, hp
        d = np.diff(x)
        hm = np.concatenate([[d[0]], d])
        hp = np.concatenate([d, [d[-1]]])
        return hm, hp

    def _build_derivatives(self):
        n = self.n
        a, b = self.spacings()  # (h_minus, h_plus)
        # nonuniform 3-point first/second derivative coefficients on the
        # columns (i - 1, i, i + 1) of row i
        v1 = np.stack([-b / (a * (a + b)), (b - a) / (a * b), a / (b * (a + b))], axis=1)
        v2 = np.stack([2.0 / (a * (a + b)), -2.0 / (a * b), 2.0 / (b * (a + b))], axis=1)
        i = np.arange(n)
        cols = np.stack([i - 1, i, i + 1], axis=1)
        if self.geometry.circle:
            cols %= n
        else:
            # one-sided closures at the interval ends
            h1, h2 = self.nodes[1] - self.nodes[0], self.nodes[2] - self.nodes[1]
            cols[0] = (0, 1, 2)
            v1[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2),
                     -h1 / (h2 * (h1 + h2)))
            v2[0] = (2.0 / (h1 * (h1 + h2)), -2.0 / (h1 * h2), 2.0 / (h2 * (h1 + h2)))
            g1, g2 = self.nodes[-1] - self.nodes[-2], self.nodes[-2] - self.nodes[-3]
            cols[-1] = (n - 1, n - 2, n - 3)
            v1[-1] = ((2 * g1 + g2) / (g1 * (g1 + g2)), -(g1 + g2) / (g1 * g2),
                      g1 / (g2 * (g1 + g2)))
            v2[-1] = (2.0 / (g1 * (g1 + g2)), -2.0 / (g1 * g2), 2.0 / (g2 * (g1 + g2)))
        rows = np.repeat(i, 3)
        self._d1 = sp.csr_matrix((v1.ravel(), (rows, cols.ravel())), shape=(n, n))
        self._d2 = sp.csr_matrix((v2.ravel(), (rows, cols.ravel())), shape=(n, n))

    @property
    def d1(self) -> sp.spmatrix:
        if self._d1 is None:
            self._build_derivatives()
        return self._d1

    @property
    def d2(self) -> sp.spmatrix:
        if self._d2 is None:
            self._build_derivatives()
        return self._d2

    @property
    def volume(self) -> np.ndarray:
        """Norm volume per node, quad * f^(m-1) * vol(Sigma) * rho^(-m)."""
        if self._volume is None:
            m = self.geometry.m
            self._volume = (self.quad * self.f ** (m - 1) * self.volume_factor
                            * self.rho ** (-float(m)))
        return self._volume

    @property
    def radial_operator(self) -> sp.spmatrix:
        """The e-free part of the mode operator rho^2 A_e,
        -(rho^2) d2 - (m-1) rho^2 (f'/f) d1; the mode operator adds
        diag(e rho^2 / f^2) to it."""
        if self._radial_operator is None:
            m = self.geometry.m
            rho2 = self.rho**2
            self._radial_operator = (sp.diags(-rho2) @ self.d2
                                     + sp.diags(-(m - 1.0) * rho2 * self.fp / self.f) @ self.d1)
        return self._radial_operator

    def mapped(self, t: float) -> "RadialGrid":
        """The grid of the rescaled geometry, nodes mapped by x -> t x."""
        return RadialGrid(rescaled_geometry(self.geometry, t),
                          t * self.nodes, t * self.quad)

    def ac_tail_masks(self):
        """Node masks of the outer decade of each AC truncation."""
        masks = []
        for b in (self.geometry.left, self.geometry.right):
            if b is None or b.kind != "ac":
                continue
            r = b.sign * (self.nodes - b.x0)
            r_max = np.max(r)
            masks.append((b, (r > r_max / 10.0) & (r <= r_max)))
        return masks


def _log_segment_nodes(seg: PlanSegment, hz: float, r_max: float,
                       r_min_factor: float, min_nodes: int):
    """Log-spaced nodes at (as nearly as possible) the shared step hz.

    Soft endpoints (truncations resolved from r_max / r_min_factor) are
    snapped outward so the span is an exact multiple of hz: stencils then
    stay uniform in log r across region interfaces at hard endpoints."""
    r_lo, r_hi = seg.r_lo, seg.r_hi
    if r_lo is None and r_hi is None:
        raise ValueError("log segments need at least one anchored endpoint")
    if r_lo is None:
        target = math.log(r_hi / (r_hi * r_min_factor))
        steps = max(min_nodes - 1, math.ceil(target / hz))
        r_lo = r_hi * math.exp(-steps * hz)
    elif r_hi is None:
        target = math.log(r_max / r_lo)
        steps = max(min_nodes - 1, math.ceil(target / hz))
        r_hi = r_lo * math.exp(steps * hz)
    else:
        span = math.log(r_hi / r_lo)
        steps = max(min_nodes - 1, int(round(span / hz)))
    if not 0 < r_lo < r_hi:
        raise ValueError(f"bad log segment radii [{r_lo}, {r_hi}]")
    r = np.geomspace(r_lo, r_hi, steps + 1)
    return seg.x0 + seg.sign * r


def _segment_quadrature(seg: PlanSegment, nodes_x: np.ndarray):
    """Trapezoid weights in the segment's natural coordinate, expressed
    against dx."""
    n = nodes_x.size
    if seg.kind == "lin":
        h = abs(nodes_x[1] - nodes_x[0]) if n > 1 else 0.0
        w = np.full(n, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w
    r = seg.sign * (nodes_x - seg.x0)
    hz = math.log(r[-1] / r[0]) / (n - 1)
    w = hz * r
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def build_grid(
    geometry: RadialGeometry,
    n_per_region: int = 400,
    r_max: float = 1.0e3,
    r_min_factor: float = 1.0e-3,
    min_region_nodes: int = 24,
) -> RadialGrid:
    """Assemble the graded mesh from the geometry's plan: log-spaced nodes
    toward r = 0 on CS ends, toward infinity on AC ends (truncated at
    r_max), uniform on cores; region counts scale with the plan weights.

    All log regions share one log-spacing (the budget is split in
    proportion to the decade spans), so stencils stay second-order across
    region interfaces of end charts."""
    log_segs = [s for s in geometry.plan if s.kind == "log"]
    spans = []
    for s in log_segs:
        r_lo = s.r_lo if s.r_lo is not None else (s.r_hi * r_min_factor)
        r_hi = s.r_hi if s.r_hi is not None else r_max
        spans.append(math.log(r_hi / r_lo))
    total_span = sum(spans)
    budget = n_per_region * sum(s.weight for s in log_segs)
    hz = total_span / max(budget, 1.0) if total_span > 0 else 1.0

    xs, ws = [], []
    for seg in geometry.plan:
        if seg.kind == "log":
            nodes = _log_segment_nodes(seg, hz, r_max, r_min_factor,
                                       min_region_nodes)
        else:
            n = max(min_region_nodes, int(round(n_per_region * seg.weight)))
            nodes = np.linspace(seg.x_a, seg.x_b, n)
        quad = _segment_quadrature(seg, nodes)
        xs.append(nodes)
        ws.append(quad)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    if geometry.circle:
        per = geometry.period
        x = np.mod(x, per)
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    # merge duplicated region endpoints
    keep = np.ones(x.size, dtype=bool)
    scale = np.maximum(np.abs(x), 1e-300)
    dup = np.where(np.diff(x) <= 1e-12 * scale[1:])[0]
    for i in dup:
        w[i] += w[i + 1]
        keep[i + 1] = False
    # circle: first and last node may coincide modulo the period
    if geometry.circle and x.size > 1:
        if (x[-1] - x[0]) >= geometry.period * (1 - 1e-12):
            w[0] += w[-1]
            keep[-1] = False
    x, w = x[keep], w[keep]
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid nodes are not strictly increasing after merge")
    return RadialGrid(geometry=geometry, nodes=x, quad=w)


def rescaled_geometry(geo: RadialGeometry, t: float) -> RadialGeometry:
    """Geometry of (L, t^2 g): warp t f(x/t), radius t rho(x/t), weight
    data transported; boundaries, junctions and plan scaled by t."""
    if not t > 0:
        raise ValueError("rescaling parameter must be positive")
    f, fp, fpp, rho, beta, wextra = geo.f, geo.fp, geo.fpp, geo.rho, geo.beta, geo.wextra

    def scale_boundary(b):
        if b is None:
            return None
        return type(b)(b.kind, t * b.x0, b.sign,
                       None if b.chart_r is None else t * b.chart_r, b.beta, b.nu)

    def scale_seg(s: PlanSegment):
        if s.kind == "lin":
            return PlanSegment("lin", x_a=t * s.x_a, x_b=t * s.x_b, weight=s.weight)
        return PlanSegment("log", x0=t * s.x0, sign=s.sign,
                           r_lo=None if s.r_lo is None else t * s.r_lo,
                           r_hi=None if s.r_hi is None else t * s.r_hi,
                           weight=s.weight)

    return RadialGeometry(
        m=geo.m,
        link=geo.link,
        f=lambda x: t * np.asarray(f(np.asarray(x) / t)),
        fp=lambda x: np.asarray(fp(np.asarray(x) / t)),
        fpp=lambda x: np.asarray(fpp(np.asarray(x) / t)) / t,
        rho=lambda x: t * np.asarray(rho(np.asarray(x) / t)),
        beta=lambda x: np.asarray(beta(np.asarray(x) / t)),
        wextra=lambda x: np.asarray(wextra(np.asarray(x) / t)),
        circle=geo.circle,
        period=None if geo.period is None else t * geo.period,
        left=scale_boundary(geo.left),
        right=scale_boundary(geo.right),
        plan=tuple(scale_seg(s) for s in geo.plan),
        junctions=geo.junctions,
        label=f"{geo.label} scaled by {t!r}",
        eta=None if geo.eta is None else (lambda x: np.asarray(geo.eta(np.asarray(x) / t))),
    )


# ---------------------------------------------------------------------------
# mode functions


@dataclass(frozen=True)
class ModeProfile:
    """One angular mode: eigenvalue and nodal radial profile.

    support is the half-open node range [lo, hi) holding every nonzero
    value, (0, 0) for a zero profile; it is recorded once, when the
    profile is built, so norms can work on the nodes where u lives."""

    e: float
    values: np.ndarray
    support: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("mode profiles must be finite-valued")
        nz = self.values.ravel() != 0
        support = (int(nz.argmax()), nz.size - int(nz[::-1].argmax())) if nz.any() else (0, 0)
        object.__setattr__(self, "support", support)


@dataclass(frozen=True)
class ModeFunction:
    """u = sum_n u_n(r) s_n(theta) on a fixed grid, s_n orthonormal in
    L^2 of the normalized link measure (s_0 = 1)."""

    grid: RadialGrid
    modes: tuple[ModeProfile, ...]

    def __post_init__(self):
        for mp in self.modes:
            if mp.values.shape != self.grid.nodes.shape:
                raise ValueError("profile length must match the grid")

    @staticmethod
    def single(grid: RadialGrid, e: float, values) -> "ModeFunction":
        return ModeFunction(grid, (ModeProfile(float(e), values),))

    def is_pure_mode0(self) -> bool:
        return len(self.modes) == 1 and self.modes[0].e == 0.0

    def push_to(self, grid: RadialGrid) -> "ModeFunction":
        """Reinterpret the nodal values on a structurally identical grid
        (used for rescaling checks with mapped nodes)."""
        return ModeFunction(grid, tuple(ModeProfile(m.e, m.values.copy()) for m in self.modes))


def mode_product(u: ModeFunction, v: ModeFunction) -> ModeFunction:
    """Pointwise product, computable whenever one factor is pure mode 0
    (s_0 = 1, so coefficients multiply through)."""
    if u.grid is not v.grid:
        raise ValueError("factors must share a grid")
    if v.is_pure_mode0():
        u, v = v, u
    if not u.is_pure_mode0():
        raise ValueError(
            "products of mode functions need a rotation-invariant factor; "
            "general eigenfunction products are not spectrum-computable"
        )
    u0 = u.modes[0].values
    return ModeFunction(v.grid, tuple(ModeProfile(m.e, u0 * m.values) for m in v.modes))


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class WeightSpec:
    """Parameters of a weighted Sobolev norm.

    beta None uses the geometry's per-end weight exponent; a float forces
    a constant exponent.  beta_prime is the constant reference weight
    used by the rescaling bookkeeping (defaults to beta when constant).
    """

    p: float = 2.0
    k: int = 0
    beta: float | None = None
    beta_prime: float | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.k not in (0, 1, 2):
            raise ValueError("derivative depth is implemented for k <= 2")


def _beta_values(grid: RadialGrid, spec: WeightSpec, window: slice = slice(None)) -> np.ndarray:
    bvals = grid.beta[window]
    if spec.beta is None:
        return bvals
    return np.full(bvals.size, float(spec.beta))


# Columns a row of d1 or d2 reaches beyond its own node: 1 for the
# 3-point interior rows, 2 for the one-sided end rows of interval grids
# (columns 0..2 and n-3..n-1).
_STENCIL_REACH = 2


def _support_window(u: ModeFunction) -> slice:
    """Nodes outside which u and its derivative densities vanish: the
    union of the mode supports widened by the stencil reach; on a circle
    the whole grid once the window reaches the seam."""
    spans = [mp.support for mp in u.modes if mp.support[1] > mp.support[0]]
    if not spans:
        return slice(0, 0)
    n = u.grid.n
    lo = max(min(a for a, _ in spans) - _STENCIL_REACH, 0)
    hi = min(max(b for _, b in spans) + _STENCIL_REACH, n)
    if u.grid.geometry.circle and (lo == 0 or hi == n):
        return slice(0, n)
    return slice(lo, hi)


def densities(u: ModeFunction, k: int, window: slice = slice(None)) -> list[np.ndarray]:
    """Angular L^2 densities D_0..D_k of u and its covariant derivatives,
    at the nodes of `window` (default all)."""
    g = u.grid
    f, fp = g.f[window], g.fp[window]
    m = g.geometry.m
    kappa = g.geometry.link.einstein_constant or 0.0
    d0 = np.zeros(f.size)
    d1 = np.zeros(f.size) if k >= 1 else None
    d2 = np.zeros(f.size) if k >= 2 else None
    for mp in u.modes:
        un = mp.values[window]
        e = mp.e
        d0 += un**2
        if k >= 1:
            dun = (g.d1 @ mp.values)[window]
            d1 += dun**2 + (e / f**2) * un**2
        if k >= 2:
            ddun = (g.d2 @ mp.values)[window]
            mixed = dun - (fp / f) * un
            hess_c = e * e - kappa * e  # int |Hess s_n|^2 over the link
            if hess_c < 0:
                hess_c = 0.0
            angular = (hess_c * un**2
                       - 2.0 * e * f * fp * un * dun
                       + (m - 1.0) * (f * fp) ** 2 * dun**2) / f**4
            d2 += ddun**2 + 2.0 * (e / f**2) * mixed**2 + np.maximum(angular, 0.0)
    out = [np.sqrt(d0)]
    if k >= 1:
        out.append(np.sqrt(d1))
    if k >= 2:
        out.append(np.sqrt(d2))
    return out


def _weight_values(grid: RadialGrid, beta: np.ndarray, weight_fn=None,
                   window: slice = slice(None)) -> np.ndarray:
    if weight_fn is not None:
        return np.asarray(weight_fn(grid.nodes), dtype=float)[window]
    return grid.wextra[window] * grid.rho[window] ** (-beta)


def weighted_sobolev_norm(
    u: ModeFunction, spec: WeightSpec, weight_fn=None
) -> float:
    """Quadrature value of the weighted Sobolev norm (see module docstring).

    The sum runs over the support window of u; the nodes outside it
    contribute exact zeros, so it equals the full-grid sum up to the
    order of summation.  weight_fn overrides the default
    w = wextra * rho^(-beta) (used by the rescaling bookkeeping)."""
    g = u.grid
    win = _support_window(u)
    beta = _beta_values(g, spec, win)
    w = _weight_values(g, beta, weight_fn, win)
    rho, volume = g.rho[win], g.volume[win]
    dens = densities(u, spec.k, win)
    total = 0.0
    for j, dj in enumerate(dens):
        total += float(np.sum((w * rho**j * dj) ** spec.p * volume))
    return total ** (1.0 / spec.p)


def gradient_norm(u: ModeFunction, p: float, beta: float | None = None) -> float:
    """||du||_{L^p_{beta-1}}: the L^p norm of the differential as a 1-form
    carrying the weight beta - 1 (so w rho^0 |du| = wextra rho^{1-beta} |du|),
    summed over the support window of u like weighted_sobolev_norm."""
    g = u.grid
    win = _support_window(u)
    bvals = _beta_values(g, WeightSpec(p=p, k=0, beta=beta), win)
    d1 = densities(u, 1, win)[1]
    w = g.wextra[win] * g.rho[win] ** (1.0 - bvals)
    return float(np.sum((w * d1) ** p * g.volume[win])) ** (1.0 / p)


@dataclass(frozen=True)
class NormReport:
    value: float
    tail_estimate: float
    tail_divergent: bool
    tail_slopes: tuple[float, ...]


def _tail_slope(r: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log r (y floored at tiny)."""
    good = y > 0
    if np.count_nonzero(good) < 4:
        return -math.inf
    lr = np.log(r[good])
    ly = np.log(y[good])
    lr = lr - lr.mean()
    return float(np.sum(lr * (ly - ly.mean())) / np.sum(lr * lr))


def weighted_sobolev_norm_report(
    u: ModeFunction, spec: WeightSpec, weight_fn=None
) -> NormReport:
    """Norm plus an analytic estimate of the truncated AC tails: on exact
    cone tails the integrand of the norm is a power of r, so the slope of
    the log-integrand extrapolates the tail exactly."""
    g = u.grid
    m = g.geometry.m
    beta = _beta_values(g, spec)
    w = _weight_values(g, beta, weight_fn)
    dens = densities(u, spec.k)
    dens_sum_p = np.zeros(g.n)
    for j, dj in enumerate(dens):
        dens_sum_p += (w * g.rho**j * dj) ** spec.p
    integrand = dens_sum_p * g.f ** (m - 1) * g.volume_factor * g.rho ** (-float(m))
    total = float(np.sum(g.quad * integrand))
    tail = 0.0
    slopes = []
    divergent = False
    for b, mask in u.grid.ac_tail_masks():
        r = b.sign * (g.nodes[mask] - b.x0)
        y = integrand[mask] * r  # density against d(log r)
        s = _tail_slope(r, y)
        slopes.append(s)
        if not math.isfinite(s):
            continue
        if s >= -0.05:
            divergent = True
            continue
        tail += float(y[-1] / (-s))
    value = total ** (1.0 / spec.p)
    return NormReport(value=value,
                      tail_estimate=(total + tail) ** (1.0 / spec.p),
                      tail_divergent=divergent,
                      tail_slopes=tuple(slopes))


@dataclass(frozen=True)
class CkNormReport:
    value: float
    divergent: bool
    tail_slopes: tuple[float, ...]


def weighted_ck_norm(u: ModeFunction, k: int, beta: float | None = None) -> CkNormReport:
    """sup over grid nodes of sum_j w rho^j D_j, with a divergence flag
    from the asymptotic slope of the summand on truncated AC tails."""
    g = u.grid
    spec = WeightSpec(p=2.0, k=k, beta=beta)
    bvals = _beta_values(g, spec)
    w = _weight_values(g, bvals)
    dens = densities(u, k)
    s_node = np.zeros(g.n)
    for j, dj in enumerate(dens):
        s_node += w * g.rho**j * dj
    slopes = []
    divergent = False
    for b, mask in g.ac_tail_masks():
        r = b.sign * (g.nodes[mask] - b.x0)
        sl = _tail_slope(r, s_node[mask])
        slopes.append(sl)
        if math.isfinite(sl) and sl > 0.02:
            divergent = True
    return CkNormReport(value=float(np.max(s_node)), divergent=divergent,
                        tail_slopes=tuple(slopes))


def rescaling_invariance_check(
    u: ModeFunction, spec: WeightSpec, t: float
) -> float:
    """Relative defect of the norm rescaling identity.

    The norm of u on (L, g, rho) with weight rho^(-beta) must equal
    t^(beta') times the norm of the pushforward of u on (L, t^2 g, t rho)
    computed with the corrected weight t^(beta - beta') (t rho)^(-beta),
    beta' a constant reference weight (= beta when beta is constant).
    Grids are mapped node-by-node (x -> t x), so the defect is pure
    floating-point noise.
    """
    g = u.grid
    base = weighted_sobolev_norm(u, spec)
    beta_prime = spec.beta_prime
    if beta_prime is None:
        if spec.beta is not None:
            beta_prime = float(spec.beta)
        else:
            bvals = _beta_values(g, spec)
            beta_prime = float(bvals[0])
    grid_t = g.mapped(t)
    u_t = u.push_to(grid_t)
    beta_t = _beta_values(grid_t, spec)

    def weight_fn(x, _bp=beta_prime):
        rho_t = grid_t.rho
        return t ** (beta_t - _bp) * rho_t ** (-beta_t) * grid_t.wextra

    rescaled = weighted_sobolev_norm(u_t, spec, weight_fn=weight_fn)
    return abs(t**beta_prime * rescaled - base) / base


# ---------------------------------------------------------------------------
# inequality checks


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    violated: bool


def holder_check(
    u: ModeFunction, v: ModeFunction, p: float, beta1: float, beta2: float
) -> HolderReport:
    """Weighted Hoelder inequality ||uv||_{L^1_{b1+b2}} <=
    ||u||_{L^p_{b1}} ||v||_{L^p'_{b2}}, checked on the quadrature sums
    (an exact finite-sum inequality, violation beyond 1e-10 impossible
    up to roundoff)."""
    if p <= 1:
        raise ValueError("Hoelder check needs p > 1")
    ce = conjugate_exponents(p, u.grid.geometry.m)
    uv = mode_product(u, v)
    lhs = weighted_sobolev_norm(uv, WeightSpec(p=1.0, k=0, beta=beta1 + beta2))
    nu = weighted_sobolev_norm(u, WeightSpec(p=p, k=0, beta=beta1))
    nv = weighted_sobolev_norm(v, WeightSpec(p=ce.p_prime, k=0, beta=beta2))
    rhs = nu * nv
    return HolderReport(lhs=lhs, rhs=rhs, violated=lhs > rhs * (1.0 + 1e-10))


@dataclass(frozen=True)
class BanachAlgebraReport:
    lhs: float
    rhs_ratio: float


def banach_algebra_check(
    u: ModeFunction, v: ModeFunction, p: float, beta1: float, beta2: float
) -> BanachAlgebraReport:
    """Multiplicative bound on the k=2 weighted space: returns
    ||uv||_{W^p_{2,b1+b2}} / (||u||_{W^p_{2,b1}} ||v||_{W^p_{2,b2}}).
    Requires 2p > m (the Banach-algebra range for two derivatives)."""
    m = u.grid.geometry.m
    if not 2 * p > m:
        raise ValueError(f"need 2p > m for the k=2 algebra property, got p={p}, m={m}")
    uv = mode_product(u, v)
    lhs = weighted_sobolev_norm(uv, WeightSpec(p=p, k=2, beta=beta1 + beta2))
    nu = weighted_sobolev_norm(u, WeightSpec(p=p, k=2, beta=beta1))
    nv = weighted_sobolev_norm(v, WeightSpec(p=p, k=2, beta=beta2))
    if nu == 0.0 or nv == 0.0:
        return BanachAlgebraReport(lhs=lhs, rhs_ratio=0.0 if lhs == 0.0 else math.inf)
    return BanachAlgebraReport(lhs=lhs, rhs_ratio=lhs / (nu * nv))


@dataclass(frozen=True)
class EmbeddingReport:
    constant: float
    p_star: float
    ratios: tuple[float, ...]


def embedding_constant_estimate(
    family: list[ModeFunction],
    p: float,
    beta: float | None,
) -> EmbeddingReport:
    """Empirical lower bound for the Sobolev constant of
    W^p_{1,beta} -> L^{p*}_beta: the max over the test family of
    ||u||_{L^{p*}_beta} / ||u||_{W^p_{1,beta}}.  A finite family only
    bounds the constant from below; sweeps assert boundedness of this
    proxy, not the extremal value."""
    if not family:
        raise ValueError("empty test family")
    m = family[0].grid.geometry.m
    ce = conjugate_exponents(p, m)
    if ce.p_star is None:
        raise ValueError(f"p = {p} >= m = {m}: no L^{{p*}} embedding")
    ratios = []
    for u in family:
        denom = weighted_sobolev_norm(u, WeightSpec(p=p, k=1, beta=beta))
        if denom == 0.0:
            raise ValueError("test family member is identically zero")
        num = weighted_sobolev_norm(u, WeightSpec(p=ce.p_star, k=0, beta=beta))
        ratios.append(num / denom)
    return EmbeddingReport(constant=max(ratios), p_star=ce.p_star, ratios=tuple(ratios))


# ---------------------------------------------------------------------------
# test families


def _bump_windows(grid: RadialGrid, center: float, halfwidth: float) -> list[slice]:
    """Node windows holding every node within `halfwidth` of `center`
    (padded far beyond the rounding of the profile's own distance); two
    when a circle bump wraps the seam, all nodes when it covers half the
    circle."""
    x = grid.nodes
    reach = abs(halfwidth)
    if not grid.geometry.circle:
        pad = 1e-12 * (abs(center) + reach)
        return [slice(int(x.searchsorted(center - reach - pad, "left")),
                      int(x.searchsorted(center + reach + pad, "right")))]
    per = grid.geometry.period
    if 2.0 * reach >= per / 2:
        return [slice(None)]
    pad = 1e-12 * (abs(center) + abs(x[0]) + reach + per)
    c = x[0] + np.mod(center - x[0], per)  # the centre's image in the node range
    windows = []
    for shift in (-per, 0.0, per):
        lo = int(x.searchsorted(c + shift - reach - pad, "left"))
        hi = int(x.searchsorted(c + shift + reach + pad, "right"))
        if hi > lo:
            windows.append(slice(lo, hi))
    return windows


def bump_profile(grid: RadialGrid, center: float, halfwidth: float) -> np.ndarray:
    """C^2 compactly supported bump (1-s^2)^3 around `center` in x,
    evaluated only on the node windows around its support."""
    v = np.zeros(grid.n)
    for win in _bump_windows(grid, center, halfwidth):
        x = grid.nodes[win]
        if grid.geometry.circle:
            per = grid.geometry.period
            s = (np.mod(x - center + per / 2, per) - per / 2) / halfwidth
        else:
            s = (x - center) / halfwidth
        inside = np.abs(s) < 1.0
        v[win][inside] = (1.0 - s[inside] ** 2) ** 3  # v[win] is a view
    return v


def _candidate_centers(grid: RadialGrid, per_region: int = 4) -> list[float]:
    centers = []
    for seg in grid.geometry.plan:
        if seg.kind == "lin":
            xs = np.linspace(seg.x_a, seg.x_b, per_region + 2)[1:-1]
        else:
            r_lo = seg.r_lo
            r_hi = seg.r_hi
            if r_lo is None or r_hi is None:
                # resolve against the realized grid
                r = seg.sign * (grid.nodes - seg.x0)
                r = r[r > 0]
                r_lo = r_lo if r_lo is not None else float(np.min(r))
                r_hi = r_hi if r_hi is not None else float(np.max(r))
            rs = np.geomspace(r_lo * 1.5, r_hi / 1.5, per_region)
            xs = seg.x0 + seg.sign * rs
        centers.extend(float(x) for x in xs)
    return centers


def bump_family(
    grid: RadialGrid,
    n_members: int = 32,
    modes: tuple[float, ...] | None = None,
    seed: int = 0,
    width_factor: float = 0.6,
    jitter: float = 0.1,
) -> list[ModeFunction]:
    """Bumps centered at log-spaced radii spanning core, necks and ends,
    widths proportional to the local radius function, alternating over
    the requested angular modes (default: modes 0 and the first nonzero
    link eigenvalue).  jitter = 0 makes members at radii r and tr exact
    rescalings of each other."""
    g = grid.geometry
    if modes is None:
        e1 = g.link.eigenvalues_below(4.0 * g.m)[1][0]
        modes = (0.0, e1)
    rng = np.random.default_rng(seed)
    centers = _candidate_centers(grid)
    if not centers:
        raise ValueError("geometry plan yields no bump centers")
    rho_c = np.asarray(g.rho(np.array(centers)), dtype=float)
    out = []
    i = 0
    while len(out) < n_members:
        c = i % len(centers)
        wiggle = 1.0 + jitter * (rng.random() - 0.5)
        hw = width_factor * float(rho_c[c]) * wiggle
        prof = bump_profile(grid, centers[c], hw)
        if np.count_nonzero(prof) < 5:
            i += 1
            continue
        e = modes[len(out) % len(modes)]
        out.append(ModeFunction.single(grid, e, prof))
        i += 1
        if i > 20 * n_members:
            raise ValueError("could not place the requested number of bumps")
    return out


def random_bump_pairs(
    grid: RadialGrid, n_pairs: int, seed: int = 0
) -> list[tuple[ModeFunction, ModeFunction]]:
    """Seeded pairs for Hoelder / algebra sweeps: the first factor is
    always rotation-invariant so products stay computable."""
    g = grid.geometry
    e1 = g.link.eigenvalues_below(4.0 * g.m)[1][0]
    rng = np.random.default_rng(seed)
    centers = _candidate_centers(grid, per_region=6)
    rho_c = np.asarray(g.rho(np.array(centers)), dtype=float)
    pairs = []
    for _ in range(n_pairs):
        cu, cv = rng.choice(len(centers), size=2)
        amp_u, amp_v = rng.uniform(0.2, 5.0, size=2)
        wu = 0.6 * float(rho_c[cu]) * rng.uniform(0.5, 1.2)
        wv = 0.6 * float(rho_c[cv]) * rng.uniform(0.5, 1.2)
        u = ModeFunction.single(grid, 0.0, amp_u * bump_profile(grid, centers[cu], wu))
        ev = 0.0 if rng.random() < 0.5 else e1
        v = ModeFunction.single(grid, ev, amp_v * bump_profile(grid, centers[cv], wv))
        pairs.append((u, v))
    return pairs
