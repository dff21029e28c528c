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
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .conifold_model import FIELDS, PlanSegment, RadialGeometry, _fold
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
    "norm_ratios",
    "mode_product",
    "bump_profile",
    "bump_family",
    "random_bump_pairs",
]


# ---------------------------------------------------------------------------
# bands
#
# A band is a square n x n matrix stored by diagonals, {d: a} with
# a[i] = M[i, i + d]; where i + d falls outside [0, n) the array holds 0.
# The grid's stencils d1, d2 and radial operator, the reduction R, the
# forms, Pi and the pencils are bands.  Only spectral_laplace turns a band
# into a scipy matrix (_csr, _dia), for the solvers that need one.


def _nonzero(X: dict) -> dict:
    """X without its all-zero diagonals, offsets ascending."""
    # a nonzero middle entry spares the scan of a full diagonal
    return {d: x for d, x in sorted(X.items()) if x[x.size // 2] or x.any()}


def _product(X: dict, Y: dict) -> dict:
    """X @ Y, each entry's terms X[i, k] Y[k, j] added over k ascending,
    starting from 0: the order of scipy's csr_matmat when X's rows are
    stored in ascending column order.  Every diagonal the product reaches
    is kept, all-zero ones too."""
    n = len(next(iter(X.values())))
    out = {}
    for p in sorted(X):  # k = i + p
        for q, y in Y.items():
            d = p + q
            lo, hi = max(0, -p, -d), min(n, n - p, n - d)
            if lo < hi:
                if d not in out:
                    out[d] = np.zeros(n)
                out[d][lo:hi] += X[p][lo:hi] * y[lo + p:hi + p]
    return out


# Corner blocks.  A stencil (d1, d2, the radial operator, Pi on a circle)
# holds full diagonals -1, 0, 1; its other diagonals hold one entry each,
# in row 0 or row n - 1 (an interval's one-sided end rows at +-2, a
# circle's wrap entries at +-(n - 1)).  R is the identity on interior
# nodes plus closure entries in rows 0 and n - 1.  So a product of them is
# the product of the full diagonals, or a copy of entries, except between
# nodes near an end; those entries are summed again from the rows near the
# ends, as Python floats (the same doubles and rounding), over every k
# ascending from 0.0.  A zero term added or skipped changes no bit: a sum
# from +0.0 never becomes -0.0.  Ends this close share one block.


def _ends(n: int, c: int) -> list:
    """The nodes within c - 1 of either end of 0 .. n - 1, ascending."""
    return list(range(n)) if 2 * c >= n else [*range(c), *range(n - c, n)]


def _rows(X: dict, nodes: list) -> dict:
    """{i: {j: X[i, j]}} for the rows i in nodes, j ascending, over X's
    nonzero entries (a zero term changes no sum)."""
    at = np.array(nodes)
    rows = {i: {} for i in nodes}
    for d in sorted(X):
        for i, v in zip(nodes, X[d][at].tolist()):
            if v:
                rows[i][i + d] = v
    return rows


def _columns(rows: dict, w: dict | None = None) -> dict:
    """The rows of the transpose of rows (from _rows), i ascending in each,
    entry (i, j) times w[i] when w is given: (diag(w) X)^T."""
    cols = {}
    for i in sorted(rows):
        for j, v in rows[i].items():
            cols.setdefault(j, {})[i] = v if w is None else w[i] * v
    return cols


def _row_product(X: dict, Y: dict, rows: list) -> dict:
    """The rows i in rows of X @ Y, for X and Y held by rows as _rows
    holds them, each entry's terms X[i, k] Y[k, j] added over k
    ascending, starting from 0.0.  An entry is complete when Y holds
    every row k its terms reach."""
    out = {}
    for i in rows:
        acc = out[i] = {}
        for k, x in X.get(i, {}).items():
            for j, y in Y.get(k, {}).items():
                acc[j] = acc.get(j, 0.0) + x * y
    return out


def _put(out: dict, S: dict, m: int, lo: int = 0):
    """Write the entries S[i][j] between the rows i of S into the band
    out of size m whose row 0 is node lo.  A zero entry off out's
    diagonals is left out, as _nonzero would drop the diagonal it makes."""
    for i, row in S.items():
        for j, v in row.items():
            if j in S:
                d = j - i
                if d not in out:
                    if not v:
                        continue
                    out[d] = np.zeros(m)
                out[d][i - lo] = v


def _inner(X: dict, lo: int, hi: int) -> dict:
    """The band of the rows and columns lo .. hi - 1 of X, each entry
    X[i, j] + 0.0, and 0 in the slots of columns outside lo .. hi - 1:
    P[interior] R and R^T M R away from the closure columns."""
    m = hi - lo
    out = {}
    for d, x in X.items():
        y = x[lo:hi] + 0.0
        if d > 0:
            y[max(m - d, 0):] = 0.0
        elif d < 0:
            y[:min(-d, m)] = 0.0
        out[d] = y
    return out


def _shifted(x: np.ndarray, d: int) -> np.ndarray:
    """x moved d places toward its end, zeros filling in: diagonal d
    from row to column indexing (scipy's DIA layout), or the diagonal of
    the transpose."""
    out = np.zeros_like(x)
    if d >= 0:
        out[d:] = x[:x.size - d]
    else:
        out[:d] = x[-d:]
    return out


def _transpose(X: dict) -> dict:
    return {-d: _shifted(x, d) for d, x in X.items()}


def _scaled(w: np.ndarray, X: dict) -> dict:
    """diag(w) X."""
    return {d: w * x for d, x in X.items()}


def _sandwich(L: dict, w: np.ndarray) -> dict:
    """L^T diag(w) L for a stencil-shaped band L, entry (i, j) the sum over
    k ascending of (w[k] L[k, i]) L[k, j], as scipy adds L.T @ diags(w) @
    L.  The band product runs over L's diagonals -1, 0, 1; the entries
    between nodes within 2 of an end, the only ones L's end rows reach, are
    summed again from the rows within 3 of an end, which hold every k they
    take."""
    n = w.size
    full = {d: x for d, x in L.items() if -1 <= d <= 1}
    out = _product(_transpose(_scaled(w, full)), full)
    if len(full) < len(L):
        rows = _ends(n, 4)
        ends = _rows(L, rows)
        WLt = _columns(ends, dict(zip(rows, w[rows].tolist())))
        _put(out, _row_product(WLt, ends, _ends(n, 3)), n)
    return _nonzero(out)


def _sum(*terms: dict) -> dict:
    """The bands added entry by entry in the order given; the result may
    share the arrays of its terms, and no band here is written to after
    it is built."""
    out = {}
    for X in terms:
        for d, x in X.items():
            out[d] = out[d] + x if d in out else x
    return out


def _band_rows(X: dict, v: np.ndarray, descending: bool = False) -> np.ndarray:
    """X @ v, each row's terms added over the offsets ascending, starting
    from 0: the order of X's DIA product on ascending offsets, so bit for
    bit its rows.  descending adds them over the offsets descending, the
    order of the CSR product when scipy's csr_matmat built the matrix."""
    n = v.size
    out = np.zeros(n)
    for d in sorted(X, reverse=descending):
        a, b = max(0, -d), min(n, n - d)
        if a < b:
            out[a:b] += X[d][a:b] * v[a + d:b + d]
    return out


# ---------------------------------------------------------------------------
# grids


@dataclass(eq=False, repr=False)
class RadialGrid:
    """Graded radial mesh with trapezoid quadrature weights.

    nodes: strictly increasing positions (a fundamental domain for
    circles); quad: weights with int F dx ~ sum quad * F(nodes).
    Geometry samples (the FIELDS f, f', rho, beta, wextra) are cached at
    the nodes, taken in one pass from the geometry's `fields` evaluator
    when it has one (glued geometries classify each node once), else from
    its five callables.  The derivative stencils d1, d2, the norm volume and
    the e-free part of the mode operator are built lazily, once per grid,
    from these arrays, so the arrays must not be mutated after
    construction (build a new grid instead); only the geometry, nodes and
    quad are constructor arguments.  The stencils are bands:
    three-point rows on the diagonals -1, 0, 1, plus +-2 for the
    one-sided end rows of an interval or +-(n - 1) for the wrap entries
    of a circle.
    """

    geometry: RadialGeometry
    nodes: np.ndarray
    quad: np.ndarray
    f: np.ndarray = field(init=False)
    fp: np.ndarray = field(init=False)
    rho: np.ndarray = field(init=False)
    beta: np.ndarray = field(init=False)
    wextra: np.ndarray = field(init=False)
    _d1: dict = field(init=False, default=None)
    _d2: dict = field(init=False, default=None)
    _volume: np.ndarray = field(init=False, default=None)
    _radial_operator: dict = field(init=False, default=None)

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
        # nonuniform 3-point first/second derivative coefficients of row i
        # on the diagonals -1, 0, 1 (columns i - 1, i, i + 1)
        d1 = {-1: -b / (a * (a + b)), 0: (b - a) / (a * b), 1: a / (b * (a + b))}
        d2 = {-1: 2.0 / (a * (a + b)), 0: -2.0 / (a * b), 1: 2.0 / (b * (a + b))}
        if self.geometry.circle:
            # across the seam row 0 reaches column n - 1, row n - 1 column 0
            for D in (d1, d2):
                D[n - 1], D[1 - n] = np.zeros(n), np.zeros(n)
                D[n - 1][0], D[-1][0] = D[-1][0], 0.0
                D[1 - n][-1], D[1][-1] = D[1][-1], 0.0
        else:
            # one-sided closures at the interval ends: row 0 on the
            # diagonals 0, 1, 2, row n - 1 on the diagonals 0, -1, -2
            h1, h2 = self.nodes[1] - self.nodes[0], self.nodes[2] - self.nodes[1]
            g1, g2 = self.nodes[-1] - self.nodes[-2], self.nodes[-2] - self.nodes[-3]
            for D in (d1, d2):
                D[-2], D[2] = np.zeros(n), np.zeros(n)
                D[-1][0] = D[1][-1] = 0.0
            d1[0][0], d1[1][0], d1[2][0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)),
                                            (h1 + h2) / (h1 * h2), -h1 / (h2 * (h1 + h2)))
            d2[0][0], d2[1][0], d2[2][0] = (2.0 / (h1 * (h1 + h2)), -2.0 / (h1 * h2),
                                            2.0 / (h2 * (h1 + h2)))
            d1[0][-1], d1[-1][-1], d1[-2][-1] = ((2 * g1 + g2) / (g1 * (g1 + g2)),
                                                 -(g1 + g2) / (g1 * g2), g1 / (g2 * (g1 + g2)))
            d2[0][-1], d2[-1][-1], d2[-2][-1] = (2.0 / (g1 * (g1 + g2)), -2.0 / (g1 * g2),
                                                 2.0 / (g2 * (g1 + g2)))
        self._d1, self._d2 = (dict(sorted(D.items())) for D in (d1, d2))

    @property
    def d1(self) -> dict:
        if self._d1 is None:
            self._build_derivatives()
        return self._d1

    @property
    def d2(self) -> dict:
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
    def radial_operator(self) -> dict:
        """The e-free part of the mode operator rho^2 A_e as a band on the
        stencils' diagonals, -(rho^2) d2 - (m-1) rho^2 (f'/f) d1; the mode
        operator adds e rho^2 / f^2 to its diagonal.  Each entry is scipy's
        diags(-rho^2) @ d2 + diags(-(m-1) rho^2 f'/f) @ d1, bit for bit (an
        entry that sums to an exact zero is kept, where scipy drops it)."""
        if self._radial_operator is None:
            m = self.geometry.m
            rho2 = self.rho**2
            c1 = -(m - 1.0) * rho2 * self.fp / self.f
            self._radial_operator = {d: -rho2 * self.d2[d] + c1 * x for d, x in self.d1.items()}
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
    stay uniform in log r across region interfaces at hard endpoints.
    Where that takes fewer than min_nodes - 1 steps, the soft endpoint is
    the truncation itself, reached in min_nodes - 1 equal log steps, so it
    never lies a full step hz or more beyond the truncation.  A CS
    truncation at or above its anchor is refused (AC: _check_r_max)."""
    r_lo, r_hi = seg.r_lo, seg.r_hi
    if r_lo is None and r_hi is None:
        raise ValueError("log segments need at least one anchored endpoint")
    if r_lo is None:
        target = math.log(r_hi / (r_hi * r_min_factor))
        if not target > 0:
            raise ValueError(f"r_min_factor {r_min_factor} cuts a CS end at or above "
                             f"its radius {r_hi}")
        steps = math.ceil(target / hz)
        r_lo = r_hi * (math.exp(-steps * hz) if steps >= min_nodes - 1 else r_min_factor)
    elif r_hi is None:
        steps = math.ceil(math.log(r_max / r_lo) / hz)
        r_hi = r_lo * math.exp(steps * hz) if steps >= min_nodes - 1 else r_max
    else:
        steps = int(round(math.log(r_hi / r_lo) / hz))
    if not 0 < r_lo < r_hi:
        raise ValueError(f"bad log segment radii [{r_lo}, {r_hi}]")
    r = np.geomspace(r_lo, r_hi, max(min_nodes - 1, steps) + 1)
    return seg.x0 + seg.sign * r


def _check_r_max(geometry: RadialGeometry, r_max: float) -> None:
    """ValueError if r_max cuts an AC end of geometry at or below its radius."""
    for seg in geometry.plan:
        if seg.kind == "log" and seg.r_hi is None and not math.log(r_max / seg.r_lo) > 0:
            raise ValueError(f"r_max {r_max} cuts an AC end at or below its radius {seg.r_lo}")


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


def _check_merges(geometry: RadialGeometry, merged: int) -> None:
    """ValueError unless the merged nodes are only the endpoints that the
    plan's regions share: one per interface of regions tiling a line, or
    a circle.  A further node within 1e-12 |x| of its neighbour is a node
    that absolute x cannot resolve (log regions near a neck at a small
    t), and merging it would silently coarsen the grid."""
    lost = merged - (len(geometry.plan) - (not geometry.circle))
    if lost > 0:
        raise ValueError(
            f"the grid of {geometry.label or 'the geometry'} would lose {lost} nodes: they lie "
            f"within 1e-12 |x| of a neighbour, which absolute x cannot resolve (ROADMAP "
            f"item 4 keeps nodes in log coordinates); use a larger t or fewer nodes")


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
    region interfaces of end charts.  Regions merge only the endpoints
    they share; a mesh that would merge more nodes, as near a neck at a
    small t, is refused (_check_merges)."""
    return RadialGrid(geometry, *_grid_nodes(geometry, n_per_region, r_max, r_min_factor,
                                             min_region_nodes))


def _grid_nodes(geometry: RadialGeometry, n_per_region: int, r_max: float,
                r_min_factor: float = 1.0e-3, min_region_nodes: int = 24):
    """(nodes, quad) of build_grid's mesh, without sampling the geometry:
    every refusal of build_grid (r_max, _check_merges) but the fields'."""
    _check_r_max(geometry, r_max)
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
        x = _fold(x, geometry.period)
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
    wrap = geometry.circle and x.size > 1 and (x[-1] - x[0]) >= geometry.period * (1 - 1e-12)
    if wrap:
        w[0] += w[-1]
        keep[-1] = False
    _check_merges(geometry, dup.size + wrap)
    x, w = x[keep], w[keep]
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid nodes are not strictly increasing after merge")
    return x, w


def rescaled_geometry(geo: RadialGeometry, t: float) -> RadialGeometry:
    """Geometry of (L, t^2 g): warp t f(x/t), radius t rho(x/t), weight
    data transported; boundaries, junctions and plan scaled by t.  Each
    field, and `fields` in one pass, is geo's at x / t under one rule."""
    if not t > 0:
        raise ValueError("rescaling parameter must be positive")
    rules = {"f": lambda v: t * v, "fpp": lambda v: v / t, "rho": lambda v: t * v}

    def rule(name):
        return rules.get(name, lambda v: v)

    def field(name):
        fn, scale = getattr(geo, name), rule(name)
        return lambda x: scale(fn(np.asarray(x) / t))

    def fields(x):
        return tuple(rule(a)(v) for a, v in zip(FIELDS, geo.fields(np.asarray(x) / t)))

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
        **{a: field(a) for a in ("f", "fp", "fpp", "rho", "beta", "wextra")},
        circle=geo.circle,
        period=None if geo.period is None else t * geo.period,
        left=scale_boundary(geo.left),
        right=scale_boundary(geo.right),
        plan=tuple(scale_seg(s) for s in geo.plan),
        junctions=geo.junctions,
        label=f"{geo.label} scaled by {t!r}",
        eta=None if geo.eta is None else field("eta"),
        fields=None if geo.fields is None else fields,
    )


# ---------------------------------------------------------------------------
# mode functions


def _scan(values: np.ndarray, lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    """The support of values (see ModeProfile), read from values[lo:hi],
    which must hold every nonzero value; non-finite values there are
    refused."""
    part = values[lo:hi]
    if not np.all(np.isfinite(part)):
        raise ValueError("mode profiles must be finite-valued")
    nz = part != 0
    flips = (np.flatnonzero(nz[1:] != nz[:-1]) + 1 + lo).tolist()  # where runs start
    if not nz.size or not (nz[0] or flips):
        return ()
    first = lo if nz[0] else flips.pop(0)
    last = hi if nz[-1] else flips.pop()
    if not flips:
        return ((first, last),)
    # what is left alternates: a run of zeros [flips[i], flips[i + 1]) for
    # every even i
    gaps = [b - a for a, b in zip(flips[::2], flips[1::2])]
    k = 2 * gaps.index(max(gaps))
    return ((first, flips[k]), (flips[k + 1], last))


@dataclass(frozen=True, eq=False, repr=False)
class ModeProfile:
    """One angular mode: eigenvalue and nodal radial profile.

    support holds every nonzero value in half-open node ranges (lo, hi),
    ascending: the nodes from the first to the last nonzero value, split
    in two around the longest run of zeros between them when there is
    one; () for a zero profile.  A bump across a circle's seam is nonzero
    near both ends of the node range, so its support is its two arcs
    ((0, b), (c, n)), not the whole grid.  It is recorded once, when the
    profile is built, so norms can work on the nodes where u lives.

    The constructor scans the whole profile for it (and refuses
    non-finite values).  The package's own builders hand over the support
    they already know instead (_built): bump_family and random_bump_pairs
    from their bumps' window values, mode_product from a scan of the
    first factor's support span, push_to by copying it.  Their finiteness
    check then covers only those nodes, which is enough because the rest
    of the profile is exact zeros (a zero block's row, or a zero factor
    times a finite one)."""

    e: float
    values: np.ndarray
    support: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "support", _scan(self.values.ravel(), 0, self.values.size))

    @classmethod
    def _built(cls, e: float, values: np.ndarray, support) -> "ModeProfile":
        """A profile from a builder that knows its support and has checked
        its values finite where they can be nonzero (float values, taken
        as they are); support None scans them as the constructor does."""
        if support is None:
            return cls(e, values)
        mp = object.__new__(cls)
        for name, v in (("e", e), ("values", values), ("support", support)):
            object.__setattr__(mp, name, v)
        return mp


@dataclass(frozen=True, eq=False, repr=False)
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
        return ModeFunction(grid, tuple(ModeProfile._built(m.e, m.values.copy(), m.support)
                                        for m in self.modes))


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
    u0 = u.modes[0]
    # u0 v vanishes outside u0's support span, as v is finite there
    lo, hi = (u0.support[0][0], u0.support[-1][1]) if u0.support else (0, 0)
    products = [(m.e, u0.values * m.values) for m in v.modes]
    return ModeFunction(v.grid, tuple(ModeProfile._built(e, uv, _scan(uv, lo, hi))
                                      for e, uv in products))


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


def _beta_values(grid: RadialGrid, beta: float | None, rows=slice(None)) -> np.ndarray:
    bvals = grid.beta[rows]
    if beta is None:
        return bvals
    return np.full(bvals.size, float(beta))


# Columns a row of d1 or d2 reaches beyond its own node: 1 for the
# 3-point interior rows, 2 for the one-sided end rows of interval grids
# (columns 0..2 and n-3..n-1).
_STENCIL_REACH = 2


def _support_window(u: ModeFunction) -> list[tuple[int, int]]:
    """Disjoint node ranges (lo, hi), ascending, outside which u and its
    derivative densities vanish: the mode supports widened by the stencil
    reach.  On a circle the reach wraps across the seam, so a support at
    either end of the node range gives two arcs, (0, b) and (c, n)."""
    n, reach = u.grid.n, _STENCIL_REACH
    shifts = (-n, 0, n) if u.grid.geometry.circle else (0,)
    spans = sorted((max(lo - reach + s, 0), min(hi + reach + s, n))
                   for mp in u.modes for lo, hi in mp.support for s in shifts)
    out = []
    for lo, hi in spans:
        if lo >= hi:
            continue
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _aranges(spans) -> np.ndarray:
    """The integers of the half-open spans (a, b), concatenated: one
    arange over all of them, each span's part shifted to its start."""
    if len(spans) == 1:
        return np.arange(*spans[0])
    a, b = np.asarray(spans, dtype=int).reshape(-1, 2).T
    size = np.maximum(b - a, 0)
    return np.arange(size.sum()) + np.repeat(a - (np.cumsum(size) - size), size)


def _densities_on(grid: RadialGrid, modes: list, windows: list, k: int):
    """D_0..D_k of several functions at the nodes of their windows, in one
    pass: (densities, node, member) per row, node the rows' grid nodes
    (a slice when they are one range).

    modes[i] is the mode tuple of function i and windows[i] its node
    ranges (lo, hi); the rows are the ranges' nodes, function by function.
    The values sit in one table, each range with its _STENCIL_REACH true
    neighbours on either side (across the seam on a circle; clamped on an
    interval, where the end rows' stencils hold 0 for them; none for
    k = 0), and the band products run over the whole table by slices,
    each offset's coefficients gathered as its terms are added.  A
    circle's wrap offsets +-(n - 1) read the neighbour across the seam,
    one slot away.  Each row's terms are added over the offsets
    ascending, from 0, so every density is bit for bit the one of the
    full-grid band product; the values the halo slots get are discarded."""
    n = grid.n
    reach = _STENCIL_REACH if k else 0  # D_0 needs no neighbours
    ranges = [r for win in windows for r in win]
    starts = list(accumulate([b - a + 2 * reach for a, b in ranges], initial=0))
    tnode = _aranges([(a - reach, b + reach) for a, b in ranges])
    pos = slice(None)
    if reach:
        circle = grid.geometry.circle
        tnode = _fold(tnode, n) if circle else np.minimum(np.maximum(tnode, 0), n - 1)
        pos = _aranges([(s + reach, s + reach + b - a) for s, (a, b) in zip(starts, ranges)])
    slots = tnode.size
    bounds = [starts[i] for i in accumulate([len(win) for win in windows], initial=0)]
    body = slice(reach, slots - reach)

    def shift(d):
        return d - n if d > reach else d + n if d < -reach else d

    inner = tnode[body]

    def band_rows(X, v):
        out = np.zeros(slots)
        for d in sorted(X):
            s = shift(d)
            out[body] += X[d][inner] * v[reach + s:slots - reach + s]
        return out

    if k >= 1:
        f = grid.f[tnode]
    if k >= 2:
        fp = grid.fp[tnode]
    m = grid.geometry.m
    kappa = grid.geometry.link.einstein_constant or 0.0
    acc = [np.zeros(slots) for _ in range(k + 1)]
    # mode slot q holds the q-th mode of every function; a function with
    # fewer modes contributes zeros there, which leave every sum unchanged
    counts = [b - a for a, b in zip(bounds, bounds[1:])]
    for q in range(max((len(ms) for ms in modes), default=0)):
        v = np.zeros(slots)
        e, hess = [0.0] * len(modes), [0.0] * len(modes)
        for i, ms in enumerate(modes):
            if q < len(ms):
                a, b = bounds[i], bounds[i + 1]
                v[a:b] = ms[q].values[tnode[a:b]]
                e[i] = ms[q].e
                hess_c = e[i] * e[i] - kappa * e[i]  # int |Hess s_n|^2 over the link
                hess[i] = 0.0 if hess_c < 0 else hess_c
        acc[0] += v**2
        if k >= 1:
            e = np.repeat(e, counts)
            dv = band_rows(grid.d1, v)
            acc[1] += dv**2 + (e / f**2) * v**2
        if k >= 2:
            ddv = band_rows(grid.d2, v)
            mixed = dv - (fp / f) * v
            angular = (np.repeat(hess, counts) * v**2
                       - 2.0 * e * f * fp * v * dv
                       + (m - 1.0) * (f * fp) ** 2 * dv**2) / f**4
            acc[2] += ddv**2 + 2.0 * (e / f**2) * mixed**2 + np.maximum(angular, 0.0)
    member = np.repeat(np.arange(len(windows)), [sum(b - a for a, b in win) for win in windows])
    # one range: its nodes as a slice, so that callers read views, not copies
    node = slice(*ranges[0]) if len(ranges) == 1 else tnode[pos]
    # each root in place: on the accumulator itself when pos takes every slot
    return [np.sqrt(x, out=x) for x in (d[pos] for d in acc)], node, member


def densities(u: ModeFunction, k: int, window=slice(None)) -> list[np.ndarray]:
    """Angular L^2 densities D_0..D_k of u and its covariant derivatives,
    at the nodes of `window` (a slice or a list of node ranges (lo, hi);
    default all), bit for bit the full-grid values there."""
    ranges = [window.indices(u.grid.n)[:2]] if isinstance(window, slice) else window
    return _densities_on(u.grid, [u.modes], [ranges], k)[0]


def _weight_values(grid: RadialGrid, beta: np.ndarray, weight_fn=None,
                   rows=slice(None)) -> np.ndarray:
    if weight_fn is not None:
        return np.asarray(weight_fn(grid.nodes), dtype=float)[rows]
    return grid.wextra[rows] * grid.rho[rows] ** (-beta)


def _family_norms(family: list[ModeFunction], norms, beta: float | None = None,
                  weight_fn=None) -> np.ndarray:
    """The norm engine: for each (p, js) of `norms` and each member u of
    `family` (all on one grid), (sum over j in js of the quadrature sum of
    (w rho^j D_j)^p vol)^(1/p), as an array (len(norms), len(family)).

    (p, range(k + 1)) is the W^p_{k,beta} norm, (p, (1,)) the gradient
    norm.  The densities of all members come from one pass over their
    support windows (_densities_on); each member's sum of one (j, p) is
    one np.bincount over the rows, which adds them in node order, so it
    does not depend on the rest of the family.  The nodes outside a
    window contribute exact zeros, so each value equals the full-grid sum
    up to the order of summation.  The weights w rho^j are taken once per
    node, on the nodes from the first window's start to the last one's
    end, and gathered onto the rows.  weight_fn overrides
    w = wextra * rho^(-beta)."""
    if not family:
        raise ValueError("empty test family")
    grid = family[0].grid
    if any(u.grid is not grid for u in family):
        raise ValueError("family members must share one grid")
    k = max(j for _, js in norms for j in js)
    windows = [_support_window(u) for u in family]
    ends = [x for win in windows for r in win for x in r]
    span = slice(min(ends, default=0), max(ends, default=0))
    w = _weight_values(grid, _beta_values(grid, beta, span), weight_fn, span)
    # rho**0 is 1.0, so w itself has the same bits
    wj = {j: w * grid.rho[span]**j if j else w for j in {j for _, js in norms for j in js}}
    dens, node, member = _densities_on(grid, [u.modes for u in family], windows, k)
    at = (slice(node.start - span.start, node.stop - span.start) if isinstance(node, slice)
          else node - span.start)
    volume = grid.volume[node]
    sums = np.zeros((len(norms), len(family)))
    for i, (p, js) in enumerate(norms):
        for j in js:
            terms = wj[j][at] * dens[j]  # a new table: wj[j][at] may be a view
            terms **= p
            terms *= volume
            sums[i] += np.bincount(member, terms, len(family))
    # the roots one value at a time: numpy's power picks its kernel by the
    # array's shape, so a member's norm would depend on its family's size
    return np.array([[s ** (1.0 / p) for s in row] for row, (p, _) in zip(sums.tolist(), norms)])


def norm_ratios(family: list[ModeFunction], beta: float | None, num, den) -> np.ndarray:
    """||u||_num / ||u||_den for every member u of a test family, from one
    engine call (num and den are (p, js) as in _family_norms).  Raises
    ValueError naming the first member whose den norm is zero."""
    top, bottom = _family_norms(family, [num, den], beta)
    zero = np.flatnonzero(bottom == 0.0)
    if zero.size:
        p, js = den
        raise ValueError(f"test family member {zero[0]} has a zero denominator norm "
                         f"(p = {p}, derivative orders {tuple(js)})")
    return top / bottom


def weighted_sobolev_norm(
    u: ModeFunction, spec: WeightSpec, weight_fn=None
) -> float:
    """Quadrature value of the weighted Sobolev norm (see module docstring),
    the one-member case of _family_norms.  weight_fn overrides the default
    w = wextra * rho^(-beta) (used by the rescaling bookkeeping)."""
    norm = (spec.p, range(spec.k + 1))
    return float(_family_norms([u], [norm], spec.beta, weight_fn)[0, 0])


def gradient_norm(u: ModeFunction, p: float, beta: float | None = None) -> float:
    """||du||_{L^p_{beta-1}}: the L^p norm of the differential as a 1-form
    carrying the weight beta - 1 (so w rho |du|, w = wextra rho^(-beta)),
    which is the j = 1 term of the W^p_{1,beta} norm."""
    return float(_family_norms([u], [(p, (1,))], beta)[0, 0])


class NormReport(NamedTuple):
    value: float
    tail_estimate: float
    tail_divergent: bool
    tail_slopes: tuple[float, ...]


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Centred least-squares slope of log y against log x (x, y > 0)."""
    lx, ly = np.log(x), np.log(y)
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


def _tail_slope(r: np.ndarray, y: np.ndarray) -> float:
    """Log-log slope of y against r over the nodes where y > 0; -inf
    below four such nodes."""
    good = y > 0
    if np.count_nonzero(good) < 4:
        return -math.inf
    return _loglog_slope(r[good], y[good])


def weighted_sobolev_norm_report(u: ModeFunction, spec: WeightSpec) -> NormReport:
    """Norm plus an analytic estimate of the truncated AC tails: on exact
    cone tails the integrand of the norm is a power of r, so the slope of
    the log-integrand extrapolates the tail exactly."""
    g = u.grid
    m = g.geometry.m
    beta = _beta_values(g, spec.beta)
    w = _weight_values(g, beta)
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


class CkNormReport(NamedTuple):
    value: float
    divergent: bool
    tail_slopes: tuple[float, ...]


def weighted_ck_norm(u: ModeFunction, k: int, beta: float | None = None) -> CkNormReport:
    """sup over grid nodes of sum_j w rho^j D_j, with a divergence flag
    from the asymptotic slope of the summand on truncated AC tails."""
    g = u.grid
    spec = WeightSpec(p=2.0, k=k, beta=beta)
    bvals = _beta_values(g, spec.beta)
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
            bvals = _beta_values(g, spec.beta)
            beta_prime = float(bvals[0])
    grid_t = g.mapped(t)
    u_t = u.push_to(grid_t)
    beta_t = _beta_values(grid_t, spec.beta)

    def weight_fn(x, _bp=beta_prime):
        rho_t = grid_t.rho
        return t ** (beta_t - _bp) * rho_t ** (-beta_t) * grid_t.wextra

    rescaled = weighted_sobolev_norm(u_t, spec, weight_fn=weight_fn)
    return abs(t**beta_prime * rescaled - base) / base


# ---------------------------------------------------------------------------
# inequality checks


class HolderReport(NamedTuple):
    lhs: float
    rhs: float
    violated: bool


def _holder_sweep(pairs, p: float, beta1: float, beta2: float) -> list[HolderReport]:
    """holder_check of every pair (u, v), all on one grid, in three
    norm-engine calls: L^1 at b1 + b2 of the products uv, L^p at b1 of the
    u and L^p' at b2 of the v.  Each member's sum is its own bincount and
    each root is taken alone (_family_norms), so every report is bit for
    bit the one of its pair alone."""
    if p <= 1:
        raise ValueError("Hoelder check needs p > 1")
    if not pairs:
        return []
    us, vs = (list(f) for f in zip(*pairs))
    ce = conjugate_exponents(p, us[0].grid.geometry.m)
    products = [mode_product(u, v) for u, v in pairs]
    lhs = _family_norms(products, [(1.0, (0,))], beta1 + beta2)[0].tolist()
    nu = _family_norms(us, [(p, (0,))], beta1)[0].tolist()
    nv = _family_norms(vs, [(ce.p_prime, (0,))], beta2)[0].tolist()
    return [HolderReport(lhs=a, rhs=b * c, violated=a > b * c * (1.0 + 1e-10))
            for a, b, c in zip(lhs, nu, nv)]


def holder_check(
    u: ModeFunction, v: ModeFunction, p: float, beta1: float, beta2: float
) -> HolderReport:
    """Weighted Hoelder inequality ||uv||_{L^1_{b1+b2}} <=
    ||u||_{L^p_{b1}} ||v||_{L^p'_{b2}}, checked on the quadrature sums
    (an exact finite-sum inequality, violation beyond 1e-10 impossible
    up to roundoff).  The one-pair case of the batched sweep that
    norm_identities runs over its random pairs (_holder_sweep)."""
    return _holder_sweep([(u, v)], p, beta1, beta2)[0]


class BanachAlgebraReport(NamedTuple):
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


class EmbeddingReport(NamedTuple):
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
    ||u||_{L^{p*}_beta} / ||u||_{W^p_{1,beta}}, the whole family in one
    norm-engine pass (a zero member raises ValueError naming it).  A
    finite family only bounds the constant from below; sweeps assert
    boundedness of this proxy, not the extremal value."""
    if not family:
        raise ValueError("empty test family")
    m = family[0].grid.geometry.m
    ce = conjugate_exponents(p, m)
    if ce.p_star is None:
        raise ValueError(f"p = {p} >= m = {m}: no L^{{p*}} embedding")
    ratios = norm_ratios(family, beta, (ce.p_star, (0,)), (p, (0, 1))).tolist()
    return EmbeddingReport(constant=max(ratios), p_star=ce.p_star, ratios=tuple(ratios))


# ---------------------------------------------------------------------------
# test families


def _bump_windows(grid: RadialGrid, centers: np.ndarray, halfwidths: np.ndarray):
    """Node windows holding every node within each bump's halfwidth of its
    centre (padded far beyond the rounding of the profile's own distance):
    (bump, lo, hi) arrays, one window per bump, two when a circle bump
    wraps the seam, all nodes when it reaches around the circle."""
    x = grid.nodes
    reach = np.abs(halfwidths)
    if not grid.geometry.circle:
        pad = 1e-12 * (np.abs(centers) + reach)
        return (np.arange(centers.size), x.searchsorted(centers - reach - pad, "left"),
                x.searchsorted(centers + reach + pad, "right"))
    per = grid.geometry.period
    pad = 1e-12 * (np.abs(centers) + abs(x[0]) + reach + per)
    c = x[0] + _fold(centers - x[0], per)  # the centres' images in the node range
    shifted = c[:, None] + np.array([-per, 0.0, per])
    lo = x.searchsorted(shifted - reach[:, None] - pad[:, None], "left")
    hi = x.searchsorted(shifted + reach[:, None] + pad[:, None], "right")
    wide = 2.0 * (reach + pad) >= per  # the three windows would overlap
    lo[wide], hi[wide] = (0, 0, 0), (grid.n, 0, 0)
    keep = hi > lo
    return np.nonzero(keep)[0], lo[keep], hi[keep]


def _bump_values(grid: RadialGrid, centers: np.ndarray, halfwidths: np.ndarray,
                 bump: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The C^2 bumps (1-s^2)^3 of the given centres and halfwidths in x on
    their node windows (bump, lo, hi) from _bump_windows, in one pass:
    (rows, node, value), the window nodes and their values bump by bump,
    bump i's at rows[i]:rows[i + 1]."""
    size = hi - lo
    node = _aranges(np.column_stack((lo, hi)))
    # s = (x - center) / hw, folded on a circle, then the profile: one
    # table worked in place, each node's value its own, 0 where |s| >= 1
    s = grid.nodes[node]
    s -= np.repeat(centers[bump], size)
    if grid.geometry.circle:
        per = grid.geometry.period
        s += per / 2
        s = _fold(s, per)
        s -= per / 2
    s /= np.repeat(halfwidths[bump], size)
    inside = np.abs(s) < 1.0
    s **= 2
    np.subtract(1.0, s, out=s)
    s **= 3
    s[~inside] = 0.0
    starts = np.concatenate(([0], np.cumsum(size)))
    return starts[np.searchsorted(bump, np.arange(centers.size + 1))], node, s


# Bytes per zero block of profile rows.  numpy asks for huge pages for
# arrays from 4 MiB, and one write into such a block then makes a whole
# 2 MiB page resident, where a row should fault in only its window.
_ZERO_BLOCK_BYTES = 1 << 21


def _zero_rows(count: int, n: int) -> list[np.ndarray]:
    """count zero rows of length n, views of zero blocks of at most
    _ZERO_BLOCK_BYTES (one row alone when it is longer): only the pages
    written to are faulted in."""
    per = max(1, _ZERO_BLOCK_BYTES // (8 * n))
    return [row for a in range(0, count, per) for row in np.zeros((min(per, count - a), n))]


def _bump_supports(rows: np.ndarray, node: np.ndarray, vals: np.ndarray):
    """(nonzero count, support) of each bump from its window rows
    (rows, node, vals) of _bump_values, whose nodes ascend per bump: the
    support is ((first, last + 1),) when every node from its first to its
    last nonzero node is nonzero, () when it has none, and None (scan the
    profile) otherwise, as for a bump across a circle's seam.  The window
    values are checked finite here; the rest of each profile is zero."""
    if not np.all(np.isfinite(vals)):
        raise ValueError("mode profiles must be finite-valued")
    nz = np.flatnonzero(vals)
    if not nz.size:
        return [(0, ())] * (rows.size - 1)
    cuts = np.searchsorted(nz, rows)  # each bump's nonzeros
    first = node[nz[np.minimum(cuts[:-1], nz.size - 1)]].tolist()
    last = node[nz[np.maximum(cuts[1:] - 1, 0)]].tolist()
    return [(c, () if not c else ((lo, hi + 1),) if hi + 1 - lo == c else None)
            for c, lo, hi in zip(np.diff(cuts).tolist(), first, last)]


def bump_profile(grid: RadialGrid, center: float, halfwidth: float) -> np.ndarray:
    """C^2 compactly supported bump (1-s^2)^3 around `center` in x,
    evaluated only on the node windows around its support."""
    c, h = np.array([center], dtype=float), np.array([halfwidth], dtype=float)
    _, node, vals = _bump_values(grid, c, h, *_bump_windows(grid, c, h))
    v = np.zeros(grid.n)
    v[node] = vals
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


def _first_nonzero_mode(geometry: RadialGeometry) -> float:
    """The least nonzero link eigenvalue, from the spectrum up to 4m: the
    second mode of a default bump family and of random_bump_pairs;
    ValueError if there is none up to 4m."""
    link, m = geometry.link, geometry.m
    modes = link.eigenvalues_below(4.0 * m)
    if len(modes) < 2:
        raise ValueError(f"link {link.spec_string()} has no nonzero eigenvalue up to 4m = "
                         f"{4 * m}, the range of a bump family's second mode")
    return modes[1][0]


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
    rescalings of each other.

    Attempt i takes centre i mod (number of centres) and the i-th of the
    jitter draws, made at once; an attempt whose bump has fewer than 5
    nonzero nodes is skipped, and at most 20 n_members attempts are
    made.  The attempts still needed are evaluated together on their
    windows, one _bump_values pass per round, so one round when none is
    skipped; the members' profiles are zero rows (_zero_rows)."""
    g = grid.geometry
    if n_members < 0:
        raise ValueError(f"n_members must be >= 0, got {n_members}")
    if modes is None:
        modes = (0.0, _first_nonzero_mode(g))
    elif len(modes) == 0:
        raise ValueError("modes must hold at least one link eigenvalue, got none")
    rng = np.random.default_rng(seed)
    centers = np.array(_candidate_centers(grid))
    if not centers.size:
        raise ValueError("geometry plan yields no bump centers")
    rho_c = np.asarray(g.rho(centers), dtype=float)
    attempts = 20 * n_members
    # one draw per attempt, skipped ones included
    wiggle = 1.0 + jitter * (rng.random(attempts) - 0.5)
    which = np.arange(attempts) % centers.size
    halfwidths = width_factor * rho_c[which] * wiggle
    out = []
    profiles = _zero_rows(n_members, grid.n)
    start = 0
    while len(out) < n_members and start < attempts:
        stop = min(start + n_members - len(out), attempts)
        c, h = centers[which[start:stop]], halfwidths[start:stop]
        rows, node, vals = _bump_values(grid, c, h, *_bump_windows(grid, c, h))
        supports = _bump_supports(rows, node, vals)
        for i, j, (count, support) in zip(rows[:-1], rows[1:], supports):
            if count < 5:
                continue
            prof = profiles[len(out)]
            prof[node[i:j]] = vals[i:j]
            e = float(modes[len(out) % len(modes)])
            out.append(ModeFunction(grid, (ModeProfile._built(e, prof, support),)))
        start = stop
    if len(out) < n_members:
        raise ValueError("could not place the requested number of bumps")
    return out


def random_bump_pairs(
    grid: RadialGrid, n_pairs: int, seed: int = 0
) -> list[tuple[ModeFunction, ModeFunction]]:
    """Seeded pairs for Hoelder / algebra sweeps: the first factor is
    always rotation-invariant so products stay computable.

    Each pair draws its two centres, two amplitudes, two widths and the
    second factor's mode, in that order; the 2 n_pairs bumps are then
    evaluated together on their windows, in one _bump_values pass, into
    zero rows (_zero_rows), with the supports read from the window values
    (_bump_supports)."""
    g = grid.geometry
    e1 = _first_nonzero_mode(g)
    rng = np.random.default_rng(seed)
    centers = np.array(_candidate_centers(grid, per_region=6))
    rho_c = np.asarray(g.rho(centers), dtype=float)
    which, amps, widths, modes = [], [], [], []  # u, v of each pair
    for _ in range(n_pairs):
        cu, cv = rng.choice(len(centers), size=2)
        which += [cu, cv]
        amps += rng.uniform(0.2, 5.0, size=2).tolist()
        widths += [0.6 * float(rho_c[cu]) * rng.uniform(0.5, 1.2),
                   0.6 * float(rho_c[cv]) * rng.uniform(0.5, 1.2)]
        modes += [0.0, 0.0 if rng.random() < 0.5 else float(e1)]
    c, h, amps = centers[np.array(which, dtype=int)], np.array(widths), np.array(amps)
    profiles = _zero_rows(2 * n_pairs, grid.n)
    rows, node, vals = _bump_values(grid, c, h, *_bump_windows(grid, c, h))
    vals *= np.repeat(amps, np.diff(rows))
    for prof, i, j in zip(profiles, rows[:-1], rows[1:]):
        prof[node[i:j]] = vals[i:j]
    supports = _bump_supports(rows, node, vals)
    funcs = [ModeFunction(grid, (ModeProfile._built(e, prof, support),))
             for e, prof, (_, support) in zip(modes, profiles, supports)]
    return list(zip(funcs[::2], funcs[1::2]))
