"""Per-mode radial discretization of the Laplacian and its extremal
constants on conifold models and glued families.

Separation of variables reduces the positive Laplacian on a warped
product dx^2 + f(x)^2 g' to the decoupled radial operators

    A_e u = -u'' - (m-1)(f'/f) u' + (e/f^2) u,

one per link eigenvalue e.  We discretize P = rho^2 A_e with
second-order three-point stencils on the graded mesh (uniform in log r
on end regions, where P is the log-coordinate form of the operator of
the cylindrical substitution r = e^z), close the boundaries by

    cap:            even/odd regularity at the smooth center,
    AC truncation:  Robin u' = (gamma/r) u with gamma the growing root
                    for e when the weight admits r^gamma (gamma < beta),
                    else (or with no weight) the decaying root,
    CS truncation:  Robin with the locally bounded root,

and measure everything against the weighted quadratic forms of the
k = 0, 1, 2 weighted Sobolev norms.  Invertibility constants are
inverse smallest generalized singular values of the resulting banded
pencils; the Poincare constant is sqrt(1 + 1/nu), nu the smallest
eigenvalue of the k = 1 form's gradient block against its L^2 mass;
kernel dimensions are counts of near-null singular values against a
grid-calibrated threshold.

Matrices are bands, one array per diagonal (weighted_calc defines the
format), from the grid's stencils d1, d2 and radial operator up to the
eigen solves: P, the reduction R, the forms, Pi = P[interior] R, the
pencil's A and B and Poincare's reduced gradient block and mass.  Every
entry of a product adds its terms over the inner index ascending,
starting from 0, and all-zero diagonals are dropped.  That is the order
of scipy's csr_matmat on the expressions the bands replace, so every
matrix is bit for bit what those expressions give.  The products are
built from what is known of their factors: a stencil holds entries off
its diagonals -1, 0, 1 only in its end rows, and R is the identity on
interior nodes plus closure entries in rows 0 and n - 1.  So a stencil
sandwich is the band product of the three full diagonals, and Pi and a
reduced form R^T M R are P's and M's interior entries + 0.0 (the sum of
their one term), except at a corner block of entries between nodes
within 2 of an end.  Those are summed again over every term, in the same
k-ascending order from 0.0 (weighted_calc's corner blocks); a zero term
added or skipped changes no bit, since such a sum never becomes -0.0.  A
band times a vector (P u, R u, R^T q, B x, a form's norm) is _band_rows,
which adds each row's terms over the offsets ascending, starting from 0,
as the DIA product and the product of the sorted CSR or CSC matrix do.
The polish numerator and residual_sigma add Pi v over the offsets
descending, the order of the CSR matrix scipy's csr_matmat leaves for
Pi, so near-null values stay bitwise.

Apart from the spline warp profile, this is the one module that uses
scipy, and it imports scipy at the first solve, not at load time: sp and
spla are handles that import scipy.sparse and scipy.sparse.linalg at
their first attribute lookup, and dpbtrf and dpbtrs call LAPACK through
a third one.  So the package and its norm-only experiments run without
loading scipy.  A band becomes
a scipy matrix (_csr, _dia, defined here) only at the call that needs
one, and only these remain: smallest_pencil_eigs builds A and B as DIA on
common ascending offsets, for ARPACK's B products, and the CSC matrix of
A - sigma B that splu factors; ModeOperator.solve factors Pi as CSC; and
LaplacePencil.A and B are CSC, built on first use for code that counts
stored entries (perfbench sums their nnz).

Two eigen engines share those bands.  _certified_smallest (a shift
certified by banded Cholesky and Sylvester inertia, then shift-invert
Lanczos on its factor) moves what it solves by rounding of the
assembled pencil only (at most 6e-9 relative), starting cold or warm
from an estimate near (_spectrum_slice); _constrained_smallest runs the
same Lanczos on a constraint's complement.  smallest_pencil_eigs (ARPACK
from the base shift, splu) keeps, bit for bit, the kernel scan (k = 4
near-null values) and two mode-0 values below.  Neither engine has a
fallback: a failed factorization or solve raises its own error
(SuperLU's, ARPACK's or the engine's), which an experiment passes on as
ExperimentError.__cause__.

The three constants that are extrema over link modes are one
_mode_sweep each.  Per mode it builds the constant's pencil and runs the
constant's mode-0 solver on e = 0 if it has one; else, if the constant
excludes, the exclusion test at s = (1 + _EXCLUSION_MARGIN) times the
running minimum of lam (_spectrum_above: A - s B factors iff the
spectrum lies above s), a mode that passes going to `bounded` unsolved;
else _certified_smallest, warm from the mode's value at the previous t
if the constant passes one.  The mode of the least lam is always solved.
invertibility_constant runs ARPACK on mode 0 (its eighth digit follows
the start vector, up to 5.5e-8 over random ones, and moves the sweep's
trend_slope) and excludes nothing, emitting each mode's sigma;
restricted_invertibility_compact runs ARPACK for mode 0's unconstrained
near-null value, then _constrained_smallest, and excludes from cold
starts; poincare_constant has no mode-0 solver and excludes.

Every per-mode loop builds and consumes its mode's pencil, operator or
form inside one call (_mode_value, _near_null_sigmas, _mode_harmonics,
_worst_harmonic), so reference counting frees it before the next mode's
is built: one mode's pencil is alive at a time.  A scan's threshold mesh
and each weight's form parts live as long as the thresholds and that
weight's row.  The live set is the same, but the heap grows less: the
benchmark's kernel_scan peak_rss_mb fell from 78.6 to 73.7 MB.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .conifold_model import (
    ConifoldModel,
    GluedModel,
    RadialGeometry,
    _smoothstep_c2,
    exact_cone_model,
)
from .link_spectra import Link
from .weighted_calc import (ModeFunction, RadialGrid, _band_rows, _columns, _ends, _inner,
                            _loglog_slope, _nonzero, _put, _row_product, _rows, _sandwich,
                            _scaled, _shifted, _sum, _transpose, build_grid)
from .weight_calculus import DEFAULT_TOL, distance_to_exceptional, gamma_roots

__all__ = [
    "ClosureRule",
    "ModeOperator",
    "assemble_mode_operator",
    "smallest_pencil_eigs",
    "near_null_threshold",
    "InvertibilityReport",
    "invertibility_constant",
    "CompactInvertibilityReport",
    "restricted_invertibility_compact",
    "PoincareReport",
    "poincare_constant",
    "WeightCrossingReport",
    "weight_crossing_kernel",
    "KernelScanRow",
    "kernel_dimension_scan",
    "WeightConditionError",
]


class WeightConditionError(ValueError):
    """A weight violates the structural conditions the estimate needs."""


# ---------------------------------------------------------------------------
# scipy, imported at the first solve


class _LazyModule:
    """The module `name`, imported at the first attribute lookup and kept.
    An attribute set on the handle overrides the module's for every
    lookup through the handle."""

    def __init__(self, name: str):
        self._name = name
        self._module = None

    def __getattr__(self, attr):
        if self._module is None:
            self._module = importlib.import_module(self._name)
        return getattr(self._module, attr)


sp = _LazyModule("scipy.sparse")
spla = _LazyModule("scipy.sparse.linalg")
_lapack = _LazyModule("scipy.linalg.lapack")


def dpbtrf(ab: np.ndarray):
    """LAPACK's banded Cholesky factorization: (factor, info)."""
    return _lapack.dpbtrf(ab)


def dpbtrs(c: np.ndarray, b: np.ndarray):
    """LAPACK's solve with dpbtrf's factor c: (x, info)."""
    return _lapack.dpbtrs(c, b)


def _csr(X: dict) -> sp.csr_matrix:
    """The CSR matrix of a band without its zeros, each row's entries in
    ascending column order."""
    offsets = sorted(X)
    data = np.stack([X[d] for d in offsets], axis=1)
    n = data.shape[0]
    keep = data != 0
    cols = np.arange(n, dtype=np.int32)[:, None] + np.array(offsets, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), dtype=np.int32, out=indptr[1:])
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(n, n))


def _dia(*bands: dict) -> list[sp.dia_matrix]:
    """The bands as DIA matrices on their common offsets, ascending
    (data[k, j] = M[j - offsets[k], j], scipy's layout), for ARPACK and
    SuperLU."""
    offsets = sorted(set().union(*bands))
    n = len(next(iter(bands[0].values())))
    out = []
    for X in bands:
        data = np.zeros((len(offsets), n))
        for row, d in zip(data, offsets):
            if d in X:
                row[:] = _shifted(X[d], d)
        out.append(sp.dia_matrix((data, offsets), shape=(n, n)))
    return out


# ---------------------------------------------------------------------------
# boundary closures


class ClosureRule(NamedTuple):
    """How one truncated boundary expresses its node through interior ones.

    kind 'cap_even' : smooth-center regularity for the rotation-invariant
                      mode (quadratic even extension).
    kind 'zero'     : node value 0 (center regularity for modes e > 0).
    kind 'robin'    : power-law extrapolation u_bnd = u_adj (r_bnd/r_adj)^s,
                      exact for cone-tail harmonics of rate s.
    """

    kind: str
    slope: float = 0.0


def _default_closures(grid: RadialGrid, e: float,
                      beta: float | None) -> tuple[ClosureRule | None, ClosureRule | None]:
    geo = grid.geometry
    m = geo.m
    gp, gm = gamma_roots(e, m)

    def rule(b):
        if b is None:
            return None
        if b.kind == "cap":
            return ClosureRule("cap_even") if e == 0.0 else ClosureRule("zero")
        if b.kind == "ac":
            if beta is not None and gp < beta:
                return ClosureRule("robin", gp)
            return ClosureRule("robin", gm)
        if b.kind == "cs":
            return ClosureRule("robin", gp)
        raise ValueError(b.kind)

    return rule(geo.left), rule(geo.right)


def _reduction_matrix(grid: RadialGrid, left: ClosureRule | None,
                      right: ClosureRule | None) -> tuple[dict, np.ndarray]:
    """R with u_full = R u_interior as an n x n band (R's column c is its
    column c + interior[0]), plus the interior node indices.  R is the
    identity on interior nodes; each closed end adds to its boundary row
    zero (zero), one (robin) or two (cap_even) entries, at offsets +-1
    and +-2.  A closure that would reach a node that is not interior (on
    a grid of fewer than 3 nodes for robin, 4 for cap_even) raises
    ValueError."""
    n = grid.n
    R = {0: np.ones(n)}
    if grid.geometry.circle:
        return R, np.arange(n)
    R[0][[0, -1]] = 0.0
    for i, rule, b, inward in ((0, left, grid.geometry.left, 1),
                               (n - 1, right, grid.geometry.right, -1)):
        i1, i2 = i + inward, i + 2 * inward  # the next two nodes inward
        if rule.kind == "cap_even":
            h1 = abs(grid.nodes[i1] - grid.nodes[i])
            h2 = abs(grid.nodes[i2] - grid.nodes[i])
            den = h2 * h2 - h1 * h1
            entries = {inward: h2 * h2 / den, 2 * inward: -h1 * h1 / den}
        elif rule.kind == "robin":
            r_b = b.sign * (grid.nodes[i] - b.x0)
            r_a = b.sign * (grid.nodes[i1] - b.x0)
            entries = {inward: (r_b / r_a) ** rule.slope}
        elif rule.kind == "zero":
            entries = {}
        else:
            raise ValueError(rule.kind)
        reach = max(map(abs, entries), default=0)
        if reach > n - 2:
            raise ValueError(f"the {rule.kind} closure at node {i} reaches node "
                             f"{i + reach * inward}, which is not interior: it needs a grid "
                             f"of at least {reach + 2} nodes, got {n}")
        for d, v in entries.items():
            R.setdefault(d, np.zeros(n))[i] = v
    return dict(sorted(R.items())), np.arange(1, n - 1)


# ---------------------------------------------------------------------------
# mode operators


@dataclass(eq=False, repr=False)
class ModeOperator:
    """Banded realization of P = rho^2 A_e with boundary closures.

    P has consistent rows at every node (boundary rows one-sided):
    the grid's radial_operator plus e rho^2 / f^2 on the diagonal, summed
    as scipy sums them.  Residuals and solves use its interior rows
    composed with the reduction R, the n x n band reduction that
    _reduction_matrix builds (R's column c is its column c + interior[0]).
    Pi = P[interior] R and the reduced forms R^T M R are bands on the
    interior: P's and M's interior entries + 0.0, with the entries near a
    closed end summed over every term (_closed)."""

    e: float
    grid: RadialGrid
    reduction: dict
    interior: np.ndarray
    P: dict = field(init=False)

    def __post_init__(self):
        P = self.grid.radial_operator
        self.P = {**P, 0: P[0] + self.e * self.grid.rho**2 / self.grid.f**2}

    def pi(self) -> dict:
        """Pi = P[interior] @ R, entry (i, j) the sum over k ascending of
        P[i, k] R[k, j], as scipy adds it: P's entry + 0.0 away from the
        closure columns, ((0.0 + P[i, 0] R[0, j]) + P[i, j]) + P[i, n - 1]
        R[n - 1, j] at them (_closed).  An interval's interior rows of P
        hold nothing off the diagonals -1, 0, 1."""
        P = self.P
        if self.interior.size < self.grid.n:
            P = {d: P[d] for d in (-1, 0, 1)}
        return self._closed(P, lambda near, R_rows: _row_product(_rows(self.P, near), R_rows,
                                                                 near))

    def reduce(self, M: dict) -> dict:
        """R^T M R for the form M as (M^T R)^T R: entry (i, j) adds
        (M^T R)[k, i] R[k, j] over k ascending, the terms and order in
        which scipy's R.T @ M @ R adds it.  That is M's entry + 0.0 away
        from the closure columns; at them (_closed) (M^T R)[l, i] is (0.0
        + M[0, l] R[0, i]) + M[i, l] for a left closure column i and (0.0
        + M[i, l]) + M[n - 1, l] R[n - 1, i] for a right one, and the
        second product adds its terms in the same order."""
        def corner(near, R_rows):
            ends = list(R_rows)
            MtR = _row_product(_columns(_rows(M, ends)), R_rows, ends)
            return _row_product(_columns(MtR), R_rows, near)
        return self._closed(M, corner)

    def _closed(self, X: dict, corner) -> dict:
        """X's interior rows and columns, each entry + 0.0, as a band on
        the interior.  Where R has closure entries (rows 0 and n - 1,
        columns within 2 of the end), the entries between the interior
        nodes within 2 of an end are corner(near, rows of R within 2 of an
        end), the rows of the product summed over every k they reach."""
        R, n = self.reduction, self.grid.n
        lo, hi = int(self.interior[0]), int(self.interior[-1]) + 1
        out = _inner(X, lo, hi)
        if len(R) > 1:
            ends = _ends(n, 3)
            near = [i for i in ends if lo <= i < hi]
            _put(out, corner(near, _rows(R, ends)), hi - lo, lo)
        return _nonzero(out)

    def solve(self, rhs_full_rows: np.ndarray) -> np.ndarray:
        """Solve P u = rhs on the reduced space; returns full nodal values."""
        lu = spla.splu(_csr(self.pi()).tocsc())
        u_full = np.zeros(self.grid.n)
        u_full[self.interior] = lu.solve(np.asarray(rhs_full_rows, dtype=float)[self.interior])
        return _band_rows(self.reduction, u_full)


def assemble_mode_operator(grid: RadialGrid, e: float, beta: float | None = None) -> ModeOperator:
    """Second-order discretization of rho^2 A_e on the grid.

    On log-graded end regions the three-point stencils are the uniform
    central differences of the log-coordinate operator (second-order
    consistent on cone harmonics r^gamma); the boundaries close by the
    rules described in the module docstring, an AC truncation on the
    growing root exactly when beta admits it."""
    left, right = _default_closures(grid, e, beta)
    reduction, interior = _reduction_matrix(grid, left, right)
    return ModeOperator(e=float(e), grid=grid, reduction=reduction, interior=interior)


# ---------------------------------------------------------------------------
# weighted quadratic forms


class _FormParts(NamedTuple):
    """The e-independent pieces of the weighted forms and of the pencil's
    image weight on one grid at one weight, built once before a loop over
    modes.  The matrix pieces are bands; weighted_form adds the
    e-dependent terms to them in the order of the scipy expressions they
    replace, so every form is bitwise what those expressions give.  The
    k = 1 form is a gradient block, S1 + diag(W1 e / f^2), plus the L^2
    mass diag(W0); poincare_constant solves the one against the other.
    Holds arrays only, never the grid."""

    beta: float | None
    W0: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    w_img: np.ndarray  # image weight of the pencil at every node
    D1: dict  # the grid's d1
    S1: dict  # D1^T diag(W1) D1
    M01: dict  # S1 + diag(W0)
    M2: dict  # D2^T diag(W2) D2
    M3: dict  # D1^T diag(c3) D1 of the angular block
    Bop: dict  # D1 - diag(f'/f) of the mixed block


def _form_parts(grid: RadialGrid, beta: float | None) -> _FormParts:
    """The e-independent pieces at the weight beta (None: the grid's own
    weight).  The sandwiches M01, M2 and M3 run the band product over the
    stencils' diagonals -1, 0, 1 and sum the entries near each end, which
    the one-sided end rows reach, again over every k in ascending order
    from 0.0 (weighted_calc._sandwich), so they are bit for bit the
    products over every diagonal."""
    g = grid
    m = g.geometry.m
    beta_vals = g.beta if beta is None else np.full(g.n, float(beta))
    w = g.wextra * g.rho ** (-beta_vals)
    base = g.volume
    D1, D2 = g.d1, g.d2
    W0 = w**2 * base
    W1 = (w * g.rho) ** 2 * base
    W2 = (w * g.rho**2) ** 2 * base
    c3 = (m - 1.0) * g.fp**2 * W2 / g.f**2
    w_img = w**2 * g.quad * g.f ** (m - 1) * g.volume_factor * g.rho ** (-float(m))
    S1 = _sandwich(D1, W1)
    return _FormParts(
        beta=beta, W0=W0, W1=W1, W2=W2, w_img=w_img, D1=D1,
        S1=S1, M01=_sum(S1, {0: W0}), M2=_sandwich(D2, W2), M3=_sandwich(D1, c3),
        Bop={**D1, 0: D1[0] - g.fp / g.f},
    )


def weighted_form(grid: RadialGrid, k: int, e: float, parts: _FormParts) -> dict:
    """The bands of the quadratic form ||.||^2_{W^2_{k,beta}} of a single
    mode e, beta being the weight of parts, the grid's _form_parts.

    For k = 0 the form is diagonal (quadrature weights); the k = 1, 2
    derivative blocks sandwich the same diagonal weights between the
    difference operators, so the form is banded SPD on the reduced
    space."""
    g = grid
    kappa = g.geometry.link.einstein_constant or 0.0

    # summed in the order of M01 + diag(W1 e / f^2) + M2 + Bop^T diag(mix) Bop
    #     + diag(c1) + M3 + diag(c2) D1 + D1^T diag(c2)
    terms = [{0: parts.W0}] if k == 0 else [parts.M01, {0: parts.W1 * e / g.f**2}]
    if k >= 2:
        W2 = parts.W2
        # mixed radial-angular block: 2 e f^-2 (u' - (f'/f) u)^2
        mix = 2.0 * e * W2 / g.f**2
        # pure angular block: f^-4 ((e^2 - kappa e) u^2
        #                     - 2 e f f' u u' + (m-1) f^2 f'^2 u'^2)
        hess_c = max(e * e - kappa * e, 0.0)
        c1 = hess_c * W2 / g.f**4
        c2 = -e * g.fp * W2 / g.f**3
        D1 = parts.D1
        c2_d1 = _scaled(c2, {d: D1[d] for d in (-1, 0, 1)})
        terms += [parts.M2, _sandwich(parts.Bop, mix), {0: c1}, parts.M3,
                  c2_d1, _transpose(c2_d1)]
    out = _sum(*terms)
    if k >= 2:
        # diag(c2) D1 off the diagonals -1, 0, 1: one entry per end row
        # (row 0 on offsets > 0, row n - 1 on offsets < 0), added after
        # every other term at its slot, then its transpose's, as in the
        # sum; M01 and M2 hold those offsets, so the sum has them
        corners = [(d, 0 if d > 0 else g.n - 1) for d in D1 if abs(d) > 1]
        for d in {d for d, _ in corners} | {-d for d, _ in corners}:
            out[d] = out[d].copy()
        for d, i in corners:
            out[d][i] += c2[i] * D1[d][i]
        for d, i in corners:
            out[-d][i + d] += c2[i] * D1[d][i]
    return out


@dataclass(eq=False, repr=False)
class LaplacePencil:
    """Factored pencil of Delta: W_{2,beta} -> W_{0,beta-2} for one mode.

    Pi, A_bands and B_bands are bands.  A = Pi^T diag(w_img) Pi is the
    assembled normal form; sigma evaluations should use the factored
    numerator sum w_img (Pi v)^2 (the assembled A loses near-null
    information to cancellation), which adds each row of Pi v over the
    offsets descending: the order of the CSR matrix the scipy expression
    in laplacian_pencil's docstring leaves, so the numerator is bit for
    bit scipy's.  A and B, built on first use, are the sorted CSC
    matrices of A_bands and B_bands without exact zeros."""

    op: ModeOperator
    Pi: dict
    w_img: np.ndarray
    A_bands: dict
    B_bands: dict

    @cached_property
    def A(self) -> sp.csc_matrix:
        return _csr(self.A_bands).tocsc()

    @cached_property
    def B(self) -> sp.csc_matrix:
        return _csr(self.B_bands).tocsc()

    def numerator(self, v_interior: np.ndarray) -> float:
        """v^T A v in the factored form sum w_img (Pi v)^2."""
        r = _band_rows(self.Pi, v_interior, descending=True)
        return float(np.sum(self.w_img * r * r))

    def residual_sigma(self, v_interior: np.ndarray) -> float:
        num = self.numerator(v_interior)
        den = float(v_interior @ _band_rows(self.B_bands, v_interior))
        return math.sqrt(max(num, 0.0) / max(den, 1e-300))


def laplacian_pencil(grid: RadialGrid, e: float, parts: _FormParts) -> LaplacePencil:
    """Factored realization of Delta between the k=2 and k=0 weighted
    spaces at the weight beta of parts, the grid's _form_parts: Pi
    applies rho^2 Delta at interior nodes on the reduced space, w_img
    carries the weight-(beta-2) mass of Delta u = rho^{-2} P u (the
    rho^2 factors cancel into plain rho^{-2 beta} weights), and B is the
    reduced k=2 form; the AC truncations close as beta chooses
    (assemble_mode_operator).

    The matrices are band products with the values, bit for bit, of
    Pi = (P[interior] @ R).tocsr(), A = (Pi.T @ diags(w_img) @
    Pi).tocsc() and B = (R.T @ M2 @ R).tocsc(); A is the sandwich of Pi,
    each entry's terms (w_img[k] Pi[k, i]) Pi[k, j] added over k
    ascending, as scipy adds them."""
    op = assemble_mode_operator(grid, e, beta=parts.beta)
    w_img = parts.w_img[op.interior]
    pi = op.pi()
    return LaplacePencil(op=op, Pi=pi, w_img=w_img, A_bands=_sandwich(pi, w_img),
                         B_bands=op.reduce(weighted_form(grid, 2, e, parts)))


# ---------------------------------------------------------------------------
# generalized eigen solves


def _deterministic_v0(n: int) -> np.ndarray:
    v = np.sin(0.7 + 1.3 * np.arange(n))
    return v / np.linalg.norm(v)


def _base_shift(A: dict, B: dict) -> float:
    """-1e-8 tr A / tr B: a shift just below the spectrum of the SPD pencil."""
    scale = max((A[0].sum() / max(B[0].sum(), 1e-300)), 1e-300)
    return -1e-8 * scale


def _polished(vals, vecs, B: dict, num_form) -> np.ndarray:
    """The eigenvalues sorted, or, with num_form, the Rayleigh quotients
    num_form(v) / v^T B v of the vectors sorted."""
    if num_form is None:
        return np.sort(vals)
    return np.sort([num_form(v) / max(float(v @ _band_rows(B, v)), 1e-300) for v in vecs.T])


def smallest_pencil_eigs(A: dict, B: dict, k: int = 1, num_form=None) -> np.ndarray:
    """The k smallest eigenvalues of the SPD pencil A v = lam B v by
    shift-inverted ARPACK from the base shift.  Deterministic (fixed
    start vector).

    num_form(v) -> v^T A v, when supplied, re-evaluates the Rayleigh
    quotients of the converged vectors in a cancellation-free factored
    form; the assembled normal matrix A floors tiny eigenvalues at
    roundoff times its entry magnitudes, so near-null detection needs
    this polish.

    A and B are bands.  The shift-invert operator is built here as
    eigsh's mode 3 builds it: splu of the sorted CSC matrix A - sigma B,
    one elementwise difference of the diagonals of A and B as DIA
    matrices on common ascending offsets, the only DIA matrices the
    package builds.  There is no fallback: a singular factor raises
    SuperLU's RuntimeError and a failed solve ARPACK's own error
    (ArpackNoConvergence, ArpackError), unchanged.  ARPACK asks for about
    three B products per solve (ARPACK Users' Guide, mode 3); it gets them
    as a LinearOperator whose matvec is the DIA product, which streams the
    diagonals where the CSC product scatters.  With ascending offsets it
    adds each row's terms in ascending column order, starting from 0, as
    the CSC product and _band_rows do, so every product and every
    eigenvalue is bit for bit what eigsh(A, k, M=B, sigma=sigma) and its
    polish give for the CSC matrices."""
    n = A[0].size
    k = min(k, n - 2)
    sigma = _base_shift(A, B)
    A_dia, B_dia = _dia(A, B)
    # eigsh's mode 3 operator: splu of the sorted CSC matrix of A - sigma B
    # without stored zeros (DIA's tocsc walks each column's rows ascending
    # when the offsets descend); ARPACK needs only the factor
    lu = spla.splu(sp.dia_matrix(((A_dia.data - sigma * B_dia.data)[::-1],
                                  A_dia.offsets[::-1]), shape=(n, n)).tocsc())
    OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # B's product as the DIA kernel itself: eigsh would wrap B in
    # aslinearoperator, whose matvec dispatches through matmat and dot
    M = spla.LinearOperator((n, n), matvec=B_dia.__matmul__, dtype=float)
    vals, vecs = spla.eigsh(A_dia, k=k, M=M, sigma=sigma, which="LM", OPinv=OPinv,
                            v0=_deterministic_v0(n))
    return _polished(vals, vecs, B, num_form)


def _upper_bands(A: dict, B: dict):
    """(order, ab_A, ab_B): the bands A and B in LAPACK's upper-band
    storage, rows and columns taken in the node order `order` (position a
    holds node order[a]).  On an interval the order is the natural one, and
    offset d >= 0 is row kd - d from column d on, sliced from the band of
    d.  On a circle, whose wrap-around diagonals sit at offsets near +-n,
    the order is the interleaved 0, n-1, 1, n-2, ..., which turns offsets
    +-2 and the wraps into a band of half-bandwidth 4; entry (a, b), b >=
    a, of the reordered matrix is scattered to row kd + a - b of column
    b."""
    n = A[0].size
    offsets = sorted(set(A) | set(B))
    if offsets[-1] <= n // 2:
        kd = offsets[-1]
        bands = []
        for X in (A, B):
            ab = np.zeros((kd + 1, n))
            for d in offsets:
                if d >= 0 and d in X:
                    ab[kd - d, d:] = X[d][:n - d]
            bands.append(ab)
        return np.arange(n), *bands
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    # entry (i, i + d) of offset d, for every row i inside the matrix
    entries = [(d, np.arange(max(0, -d), min(n, n - d))) for d in offsets]
    a = np.concatenate([pos[i] for _d, i in entries])
    b = np.concatenate([pos[i + d] for d, i in entries])
    upper = b >= a
    kd = int(np.max(b - a))
    bands = []
    for X in (A, B):
        values = np.concatenate([X[d][i] if d in X else np.zeros(i.size) for d, i in entries])
        ab = np.zeros((kd + 1, n))
        ab[kd + a[upper] - b[upper], b[upper]] = values[upper]
        bands.append(ab)
    return order, *bands


def _factor(ab_A: np.ndarray, ab_B: np.ndarray, sigma: float) -> np.ndarray:
    """dpbtrf's factor of A - sigma B on the bands of _upper_bands, or, if
    A - sigma B is not positive definite, a RuntimeError with its info."""
    c, info = dpbtrf(ab_A - sigma * ab_B)
    if info != 0:
        raise RuntimeError(f"A - sigma B is not positive definite at sigma = {sigma:.3e} "
                           f"(LAPACK dpbtrf info = {info})")
    return c


def _band_solver(order: np.ndarray, c: np.ndarray):
    """b -> S^-1 b in the caller's node order, c being dpbtrf's factor of S
    on the bands of _upper_bands, in its node order `order`."""
    if np.array_equal(order, np.arange(order.size)):  # no permutation copies
        return lambda b: dpbtrs(c, b)[0]

    def solve(b):
        x = np.empty(order.size)
        x[order] = dpbtrs(c, b[order])[0]
        return x
    return solve


# the warm start of _spectrum_slice: its two probes and its settling test,
# relative to lam_1, and the cap on its inverse iterations
_NEAR_PROBE = 1e-2
_SETTLED = 1e-7
_SETTLE_STEPS = 30
_FINAL_PROBE = 1e-4


def _spectrum_slice(A: dict, B: dict, near: float | None = None):
    """(lo, hi, solve, start) with lo < lam_1 <= hi for the SPD pencil A
    v = lam B v (bands) and hi - lo <= 0.02 hi; solve(b) is (A - lo B)^-1
    b, and start is the vector the Lanczos starts from.

    Spectrum slicing by Sylvester inertia (Parlett, The Symmetric
    Eigenvalue Problem): the banded Cholesky factorization (LAPACK
    dpbtrf) of A - sigma B on the bands of _upper_bands succeeds iff
    sigma lies below the spectrum, so every lo is a factorization that
    succeeded, and every hi a failed one or a Rayleigh quotient.

    Cold (near None), the factorization at the base shift of
    smallest_pencil_eigs must succeed, or the pencil is refused with
    LAPACK's info.  The Rayleigh quotient of three inverse iterations
    with that factor is the first hi, bisection on Cholesky success then
    moves lo up and hi down, and start is _deterministic_v0.

    Warm, near is an estimate of lam_1, such as the same mode's value at
    the previous t of a sweep.  The first factorization is at (1 -
    _NEAR_PROBE) near.  If it succeeds, that shift is lo, and inverse
    iteration on its factor from _deterministic_v0 runs until the
    Rayleigh quotient hi moves less than _SETTLED hi in a step (at most
    _SETTLE_STEPS steps).  One more factorization, at (1 - _FINAL_PROBE)
    hi, then becomes lo with its factor or, failing, hi; the bisection
    closes whatever bracket is left, and start is the iteration's last
    vector (a power of the operator applied to _deterministic_v0, so its
    Krylov spaces lie in those of the cold start).  If the first
    factorization fails, its shift is hi, and the cold start follows."""
    order, ab_A, ab_B = _upper_bands(A, B)
    hi, warm = math.inf, False
    if near is not None:
        lo = (1.0 - _NEAR_PROBE) * near
        c, info = dpbtrf(ab_A - lo * ab_B)
        warm = info == 0
        if not warm:
            hi = lo
    if not warm:
        lo = _base_shift(A, B)
        c = _factor(ab_A, ab_B, lo)
    solve, x = _band_solver(order, c), _deterministic_v0(order.size)
    Bx, rq = _band_rows(B, x), math.inf
    for _ in range(_SETTLE_STEPS if warm else 3):
        x = solve(Bx)
        x /= np.linalg.norm(x)
        Bx = _band_rows(B, x)
        previous, rq = rq, float(x @ _band_rows(A, x)) / float(x @ Bx)
        if warm and abs(previous - rq) <= _SETTLED * rq:
            break
    hi = min(hi, rq)
    if warm:
        s = (1.0 - _FINAL_PROBE) * hi
        c_s, info = dpbtrf(ab_A - s * ab_B)
        if info == 0:
            lo, c = s, c_s
        else:
            hi = s
    for _ in range(64):  # each step halves [lo, hi]; bounded for a singular pencil
        if hi - lo <= 0.02 * hi:
            break
        mid = 0.5 * (lo + hi)
        c_mid, info = dpbtrf(ab_A - mid * ab_B)
        if info == 0:
            lo, c = mid, c_mid
        else:
            hi = mid
    return lo, hi, _band_solver(order, c), x if warm else _deterministic_v0(order.size)


_LANCZOS_STEPS = 80  # the acceptance suite's pencils take 6-21
# relative margin of the exclusion test above a constant's running extremum:
# far above the ~1e-6 backward error of Cholesky on the assembled form, so a
# mode within 0.1 % of the extremum is solved, never ruled out
_EXCLUSION_MARGIN = 1e-3


def _spectrum_above(A: dict, B: dict, s: float) -> bool:
    """Whether every eigenvalue of the SPD pencil A v = lam B v (bands)
    lies above s: the banded Cholesky factorization of A - s B on the
    bands of _upper_bands succeeds (Sylvester inertia)."""
    _order, ab_A, ab_B = _upper_bands(A, B)
    return dpbtrf(ab_A - s * ab_B)[1] == 0


def _shift_invert_lanczos(solve, B: dict, start: np.ndarray):
    """(theta, x): the largest eigenvalue theta of the operator OP b =
    solve(B b), self-adjoint in the B inner product, and its Ritz vector.

    Lanczos from the vector start on a B-orthonormal basis Q, keeping the
    rows B Q so that a step takes one solve and one B product; each new
    vector is orthogonalized against all of Q twice (classical
    Gram-Schmidt; "twice is enough", Parlett).  theta is the largest
    eigenvalue of the tridiagonal T (np.linalg.eigh of its leading block,
    T being filled in place), s its eigenvector, and x = Q s; the solve
    stops at ARPACK's test, beta_j |s_j| <= eps theta.  No convergence
    within _LANCZOS_STEPS raises."""
    eps = np.finfo(float).eps
    n = start.size
    Q, BQ = np.empty((24, n)), np.empty((24, n))  # rows double past 24 steps
    T = np.zeros((_LANCZOS_STEPS + 1, _LANCZOS_STEPS + 1))  # a spare row for the last beta
    Bq = _band_rows(B, start)
    norm = math.sqrt(float(start @ Bq))
    Q[0], BQ[0] = start / norm, Bq / norm
    for j in range(_LANCZOS_STEPS):
        w = solve(BQ[j])
        c = BQ[:j + 1] @ w
        w -= c @ Q[:j + 1]
        c2 = BQ[:j + 1] @ w
        w -= c2 @ Q[:j + 1]
        T[j, j] = c[j] + c2[j]
        Bw = _band_rows(B, w)
        beta = math.sqrt(max(float(w @ Bw), 0.0))
        thetas, S = np.linalg.eigh(T[:j + 1, :j + 1])
        theta, s = float(thetas[-1]), S[:, -1]
        if beta * abs(s[-1]) <= eps * theta:
            return theta, s @ Q[:j + 1]
        T[j, j + 1] = T[j + 1, j] = beta
        if j + 2 > len(Q):
            Q, BQ = (np.concatenate([X, np.empty_like(X)]) for X in (Q, BQ))
        Q[j + 1], BQ[j + 1] = w / beta, Bw / beta
    raise RuntimeError(f"shift-invert Lanczos did not converge in {_LANCZOS_STEPS} steps")


def _certified_smallest(A: dict, B: dict, num_form=None, near: float | None = None) -> float:
    """The smallest eigenvalue of the SPD pencil A v = lam B v (bands),
    polished by num_form as in smallest_pencil_eigs; near, an estimate
    of it, only picks where _spectrum_slice starts.

    Shift-invert Lanczos (Ericsson & Ruhe, Math. Comp. 35, 1980;
    _shift_invert_lanczos) at the certified shift lo of _spectrum_slice,
    with lo's banded factor as the operator: the largest eigenvalue theta
    of (A - lo B)^-1 B gives lam = lo + 1/theta.  Its convergence test,
    ARPACK's, settles clustered values, which plain inverse iteration does
    not.  The eigenvalue must lie in [lo, hi] up to 1e-6 relative, the
    backward error of Cholesky on the assembled form, or the solve
    raises."""
    lo, hi, solve, start = _spectrum_slice(A, B, near)
    theta, x = _shift_invert_lanczos(solve, B, start)
    lam = lo + 1.0 / theta
    fuzz = 1e-6 * abs(hi)
    if not lo - fuzz <= lam <= hi + fuzz:
        raise RuntimeError(f"eigenvalue {lam:.17g} outside its certified bracket "
                           f"[{lo:.17g}, {hi:.17g}]")
    return float(_polished([lam], x[:, None], B, num_form)[0])


# the constrained solve's shift in units of the base shift: far below the
# mode-0 pencil's rounding floor (about -2e-6 in lam), which the base shift is not
_CONSTRAINED_SHIFT = 1e5


def _constrained_smallest(A: dict, B: dict, q: np.ndarray, num_form) -> float:
    """The smallest eigenvalue of the SPD pencil A v = lam B v (bands) on
    {v : q . v = 0} (Golub, SIAM Rev. 15, 1973), polished by num_form as
    in smallest_pencil_eigs.  With S = A - sigma B factored once at sigma
    = _CONSTRAINED_SHIFT times the base shift and z = S^-1 q, the solve b
    -> S^-1 b - z (q . S^-1 b) / (q . z) maps into q's complement;
    _shift_invert_lanczos on it, from the start vector projected there,
    gives theta and lam = sigma + 1/theta.  A Ritz vector x with |q . x| >
    1e-12 |q| |x| raises."""
    order, ab_A, ab_B = _upper_bands(A, B)
    sigma = _CONSTRAINED_SHIFT * _base_shift(A, B)
    solve = _band_solver(order, _factor(ab_A, ab_B, sigma))
    z = solve(q)
    qz = float(q @ z)

    def projected(b):
        y = solve(b)
        return y - z * (float(q @ y) / qz)

    v0 = _deterministic_v0(q.size)
    theta, x = _shift_invert_lanczos(projected, B, v0 - q * (q @ v0) / (q @ q))
    off = abs(float(q @ x)) / (np.linalg.norm(q) * np.linalg.norm(x))
    if off > 1e-12:
        raise RuntimeError(f"constrained Ritz vector leaves the constraint: "
                           f"|q.x| / (|q| |x|) = {off:.2e}")
    return float(_polished([sigma + 1.0 / theta], x[:, None], B, num_form)[0])


def _sigma_from(vals: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(vals, 0.0))


# ---------------------------------------------------------------------------
# cone harmonics and calibration


_THRESHOLD_SPAN = (1e-3, 1e3)  # radii of the exact-cone calibration mesh


class _ThresholdMesh(NamedTuple):
    """The weight-free half of near_null_threshold: the exact-cone grid
    and, per mode e, its interior nodes and, per root gamma, the harmonic
    rho**gamma with its interior residual (P @ rho**gamma)[interior].
    key is the (link, m, e_max, nodes_per_decade, r_span) it was built
    for.  The mode operators are not kept."""

    key: tuple
    grid: RadialGrid
    modes: tuple  # ((e, interior, ((u, resid), ...)), ...)


def _threshold_mesh(link: Link, m: int, e_max: float, nodes_per_decade: float,
                    r_span: tuple[float, float]) -> _ThresholdMesh:
    r_lo, r_hi = r_span
    # the end weights only label the geometry: the forms take the weight
    # as a constant, and the nodes and the operator do not depend on it
    model = exact_cone_model(link, m, 0.0, 0.0, math.sqrt(r_lo * r_hi))
    decades = math.log10(r_hi / r_lo)
    n = max(64, int(nodes_per_decade * decades / 2))
    grid = build_grid(model.geometry(0), n_per_region=n,
                      r_max=r_hi, r_min_factor=r_lo / math.sqrt(r_lo * r_hi))
    modes = tuple(_mode_harmonics(grid, e, m) for e, _ in link.eigenvalues_below(e_max))
    return _ThresholdMesh(key=(link, m, e_max, nodes_per_decade, tuple(r_span)),
                          grid=grid, modes=modes)


def _mode_harmonics(grid: RadialGrid, e: float, m: int) -> tuple:
    """(e, interior, ((u, resid), ...)) of _ThresholdMesh for mode e; its
    operator is freed on return.  P does not depend on the closures, so
    both harmonics share it."""
    op = assemble_mode_operator(grid, e)
    harmonics = [grid.rho**gamma for gamma in gamma_roots(e, m)]
    return e, op.interior, tuple((u, _band_rows(op.P, u)[op.interior]) for u in harmonics)


def near_null_threshold(
    link: Link, m: int, e_max: float, beta: float,
    nodes_per_decade: float, r_span: tuple[float, float] = _THRESHOLD_SPAN,
    mesh: _ThresholdMesh | None = None,
) -> float:
    """Grid-calibrated kernel-detection threshold: 10 times the largest
    pencil value of sampled exact-cone harmonics on an exact cone meshed
    at the same log density.  Residuals are taken on the interior rows
    only, so no closure enters and the value isolates interior
    discretization error.

    mesh, when given, is the exact-cone mesh with its harmonics and
    residuals, built once for several weights (it does not depend on
    beta); it is built here when None, and one built for another (link,
    m, e_max, nodes_per_decade, r_span) is refused.

    The denominator u^T F u (F the k = 2 form) is evaluated in float64 as
    u @ (F u), a sum that cancels: on the mesh of hyperboloid_capped's n =
    4000 scan (5 713 nodes, 952 per decade, beta = 2.243462) it differs
    from a long-double evaluation of the same bands by up to 3.4e-7
    relative, at the e = 0 harmonics, where sum |terms| / |sum terms|
    reaches 2.7e3.  The sum of squares sum W (L u)^2 would avoid that,
    but it moves the thresholds by about 1.6e-7, more than the rtol of
    1e-7 at which perfbench/reference.json pins them."""
    key = (link, m, e_max, nodes_per_decade, tuple(r_span))
    if mesh is None:
        mesh = _threshold_mesh(link, m, e_max, nodes_per_decade, r_span)
    elif mesh.key != key:
        raise ValueError(f"threshold mesh built for {mesh.key} used for {key}")
    parts = _form_parts(mesh.grid, beta)
    return 10.0 * max((_worst_harmonic(mesh.grid, e, interior, harmonics, parts)
                       for e, interior, harmonics in mesh.modes), default=0.0)


def _worst_harmonic(grid: RadialGrid, e: float, interior: np.ndarray, harmonics: tuple,
                    parts: _FormParts) -> float:
    """The largest pencil value (0.0 for none) of mode e's harmonics, as
    near_null_threshold takes it; the mode's k = 2 form is freed on
    return.  The k=0 diagonal W0 and the k=2 form do not depend on the
    closures, so both harmonics share them."""
    w_img = parts.W0[interior]
    form2 = weighted_form(grid, 2, e, parts)
    worst = 0.0
    for u, resid in harmonics:
        num = math.sqrt(float(np.sum(w_img * resid**2)))
        den = math.sqrt(max(u @ _band_rows(form2, u), 0.0))
        if den > 0:
            worst = max(worst, num / den)
    return worst


def _grid_nodes_per_decade(grid: RadialGrid) -> float:
    best = 0.0
    for seg in grid.geometry.plan:
        if seg.kind != "log":
            continue
        r = seg.sign * (grid.nodes - seg.x0)
        ok = r > 0
        if np.count_nonzero(ok) < 8:
            continue
        r = r[ok]
        decades = math.log10(np.max(r) / np.min(r))
        if decades > 0.1:
            best = max(best, np.count_nonzero(ok) / decades)
    return best if best > 0 else grid.n / 3.0


# ---------------------------------------------------------------------------
# geometry helpers shared by the constant computations


def _resolve_geometry(model) -> RadialGeometry:
    if isinstance(model, RadialGeometry):
        return model
    if isinstance(model, GluedModel):
        return model.geometry
    if isinstance(model, ConifoldModel):
        if len(model.components) != 1:
            raise ValueError("pass a single component (or its geometry)")
        return model.geometry(0)
    raise TypeError(f"cannot interpret {type(model).__name__} as a radial geometry")


def _residual_ends(geo: RadialGeometry):
    out = []
    for b in (geo.left, geo.right):
        if b is not None and b.kind in ("cs", "ac"):
            out.append(b)
    return out


def _check_host_ends(geo: RadialGeometry, beta: float):
    """Each host component keeps a residual end that excludes constants at
    beta: an AC end with beta < 0 or a CS end with beta > 0.  A host
    component without one (its marked CS ends admit constants at a neck
    weight below 0) carries an approximate kernel, the constant 1 on its
    body cut off in its necks, whose Laplacian and gradient shrink with t.
    On the sine spindle glued at each end to its own hyperboloid line the
    invertibility constant grows like 1/t and the Poincare constant 14 ->
    201 over t = 1e-1 ... 1e-4, so the condition is needed on every host
    component, not once on the glued manifold.

    geo is an interval (a circle has no end).  Junction j joins pieces j
    and j + 1 of its strip and points toward the host (direction -1:
    piece j is the host); only the first and the last piece keep an end.
    An unglued geometry is one host piece."""
    J = geo.junctions
    for j in range(len(J) + 1):
        if J and not ((j < len(J) and J[j].direction < 0) or (j > 0 and J[j - 1].direction > 0)):
            continue  # a partner piece
        ends = [b for b, here in ((geo.left, j == 0), (geo.right, j == len(J)))
                if here and b is not None]
        if any((b.kind == "ac" and beta < 0) or (b.kind == "cs" and beta > 0) for b in ends):
            continue
        where, why = "the model", ""
        if J:
            pairs = [J[k].pair for k in (j - 1, j) if 0 <= k < len(J)]
            where = f"the host component glued at marked pairs {pairs}"
            why = ("; the constant 1 on its body, cut off in its necks, is an approximate "
                   "kernel that shrinks with t, and no solver covers such a non-compact family")
        raise WeightConditionError(
            f"{where} keeps no residual end that excludes constants at weight {beta} "
            f"(an AC end with weight < 0 or a CS end with weight > 0){why}")


def _check_lemma_weights(geo: RadialGeometry, beta: float):
    """Structural weight conditions for uniform invertibility at the
    requested constant weight: AC ends strictly below 0, CS ends strictly
    above 2-m, on each host component a residual end whose weight alone
    forces injectivity (AC < 0 / CS > 0, _check_host_ends), and marked
    necks inside (2-m, 0)."""
    m = geo.m
    ends = _residual_ends(geo)
    if not ends:
        raise WeightConditionError(
            "model has no residual ends; use the transverse-subspace solver "
            "for compact glued manifolds"
        )
    for b in ends:
        if b.kind == "ac" and not beta < 0:
            raise WeightConditionError(
                f"AC end weight {beta} must be < 0 for injectivity"
            )
        if b.kind == "cs" and not beta > 2 - m:
            raise WeightConditionError(
                f"CS end weight {beta} must be > 2-m = {2 - m}"
            )
    _check_host_ends(geo, beta)
    if geo.junctions and not (2 - m < beta < 0):
        raise WeightConditionError(
            f"marked-end weight {beta} must lie in (2-m, 0) = ({2 - m}, 0)"
        )
    _check_matches_marked(geo, beta)


def _check_matches_marked(geo: RadialGeometry, beta: float):
    """On glued models the t-uniform weight bookkeeping is tied to the
    marked-end weight frozen into the necks; a different constant weight
    would mix two inconsistent weight functions."""
    for J in geo.junctions:
        if abs(beta - J.beta) > 1e-12:
            raise WeightConditionError(
                f"requested weight {beta} differs from the marked-end weight "
                f"{J.beta} of the glued family; rebuild the family at the "
                "desired weight"
            )


def _check_poincare_weights(geo: RadialGeometry, beta: float):
    """The weight conditions of poincare_constant, which keep constants
    out of the space: residual ends, each AC end with beta < 0 and each CS
    end with beta > 0, one on each host component (_check_host_ends),
    necks marked below 0, and beta their marked-end weight."""
    ends = _residual_ends(geo)
    if not ends:
        raise WeightConditionError("compact model: constants cannot be excluded")
    for b in ends:
        ok = (b.kind == "ac" and beta < 0) or (b.kind == "cs" and beta > 0)
        if not ok:
            raise WeightConditionError(
                f"{b.kind.upper()} end weight {beta} admits constants; "
                "the gradient cannot control the norm")
    _check_host_ends(geo, beta)
    for J in geo.junctions:
        if not J.beta < 0:
            raise WeightConditionError(
                f"marked-end weight {J.beta} must be < 0 on glued necks")
    _check_matches_marked(geo, beta)


def _check_exceptional_rate(gamma: float, e: float, link: Link, m: int):
    """Refuse a rate gamma that is not a cone-harmonic rate of mode e, or
    a mode e that is not an eigenvalue of link within DEFAULT_TOL (its
    rates are then no exceptional weights of the end)."""
    gp, gm = gamma_roots(e, m)
    if not (abs(gamma - gp) < 1e-9 or abs(gamma - gm) < 1e-9):
        raise ValueError(f"{gamma} is not an exceptional rate for eigenvalue {e}")
    if not any(abs(e - ev) <= DEFAULT_TOL for ev, _ in link.eigenvalues_below(e + DEFAULT_TOL)):
        raise ValueError(f"{e} is not an eigenvalue of the link {link.spec_string()}, so "
                         f"{gamma} is not an exceptional weight of its end")


def _crossing_setup(geo: RadialGeometry, gamma: float, e: float):
    """(the AC end, the weight of the residual) of weight_crossing_kernel's
    crossing of the rate gamma in mode e, after each of its refusals:
    gamma a rate of the link eigenvalue e, exactly one AC end, and
    surjectivity certified by the classifier just below gamma (the
    construction needs the cokernel already gone), at gamma less half the
    gap to the next rate below, at most 0.05.  The residual's weight is
    gamma plus half the gap to the next rate above, at most 0.25."""
    # call-time import: picks up perfbench's tracing patches, a top-level one would not
    from .weight_calculus import (EndDescriptor, WeightVector,
                                  classify_weight_region, exceptional_weights)
    _check_exceptional_rate(gamma, e, geo.link, geo.m)
    ac_ends = [b for b in _residual_ends(geo) if b.kind == "ac"]
    if len(ac_ends) != 1:
        raise ValueError("weight-crossing construction expects exactly one AC end "
                         "(plus a cap or a CS end)")
    rates = [w.gamma for w in exceptional_weights(geo.link, geo.m, (gamma - 10.0, gamma + 10.0))]
    below = [g for g in rates if g < gamma - 1e-9]
    above = [g for g in rates if g > gamma + 1e-9]
    gap = gamma - max(below) if below else 1.0
    facts = classify_weight_region("AC", [EndDescriptor("AC", geo.link)],
                                   WeightVector((gamma - min(0.5 * gap, 0.05),)), geo.m)
    if facts.surjective is not True:
        raise WeightConditionError(
            f"surjectivity below gamma={gamma} is not certified; "
            "the crossing construction does not apply")
    gap_up = (min(above) - gamma) if above else 1.0
    return ac_ends[0], gamma + min(0.5 * gap_up, 0.25)


def _check_compact_weight(geo: RadialGeometry, beta: float):
    """The compact-case conditions: geo closes up, and beta lies in (2-m, 0)."""
    if not geo.circle and _residual_ends(geo):
        raise WeightConditionError("model is not compact; use invertibility_constant")
    if not (2 - geo.m < beta < 0):
        raise WeightConditionError(
            f"compact-case weight must be constant in (2-m, 0), got {beta}")


def _check_e_max(e_max: float):
    """Refuse a mode cutoff that admits no link eigenvalue (all are >= 0)."""
    if not e_max >= 0:
        raise ValueError(f"e_max must be >= 0, got {e_max}")


def _check_nonexceptional(geo: RadialGeometry, beta: float):
    d = distance_to_exceptional(beta, geo.link, geo.m)
    if d <= DEFAULT_TOL:
        raise WeightConditionError(
            f"weight {beta} is exceptional for the link spectrum (distance {d:.2e})"
        )
    if d < 1e-3:
        warnings.warn(
            f"weight {beta} is within {d:.2e} of an exceptional weight; "
            "the pencil will be badly conditioned", stacklevel=3)


# the weight refusals of each constant, check(geo, beta) each, in the
# order its solver makes them (the experiments harness makes them too)
_INVERTIBILITY_CHECKS = (_check_lemma_weights, _check_nonexceptional)
_COMPACT_CHECKS = (_check_compact_weight, _check_matches_marked, _check_nonexceptional)
_POINCARE_CHECKS = (_check_poincare_weights,)


# ---------------------------------------------------------------------------
# invertibility / Poincare constants


def _mode_sweep(link: Link, e_max: float, pencil, near: dict, solve0=None, exclude=False):
    """(per_mode, bounded) as the module docstring describes: (e, lam) of
    each mode e <= e_max solved, and (e, s) of each mode ruled out, its
    spectrum lying above s.  pencil(e) -> (A, B, num_form), bands and a
    polish or None; solve0(A, B, num_form) -> lam of mode 0."""
    per_mode, bounded = [], []
    for e, _mult in link.eigenvalues_below(e_max):
        shift = (1.0 + _EXCLUSION_MARGIN) * min((v for _, v in per_mode), default=math.inf)
        lam = _mode_value(pencil, e, near.get(e), solve0 if e == 0.0 else None,
                          shift if exclude and per_mode else None)
        if lam is None:
            bounded.append((float(e), shift))
        else:
            per_mode.append((float(e), float(lam)))
    return per_mode, bounded


def _mode_value(pencil, e: float, near: float | None, solve0, shift: float | None):
    """One mode of _mode_sweep, its pencil built here and freed on return,
    before the next mode's is built: solve0's lam when given, else None if
    shift is given and the spectrum lies above it, else the certified lam
    started from near."""
    A, B, num_form = pencil(e)
    if solve0 is not None:
        return solve0(A, B, num_form)
    if shift is not None and _spectrum_above(A, B, shift):
        return None
    return _certified_smallest(A, B, num_form=num_form, near=near)


def _laplacian_pencils(grid: RadialGrid, beta: float):
    """e -> (A, B, num_form) of laplacian_pencil at the weight beta."""
    parts = _form_parts(grid, beta)

    def pencil(e: float):
        pen = laplacian_pencil(grid, e, parts)
        return pen.A_bands, pen.B_bands, pen.numerator

    return pencil


class InvertibilityReport(NamedTuple):
    constant: float
    sigma_min: float
    per_mode: tuple[tuple[float, float], ...]  # (e, sigma)
    beta: float
    grid_size: int


def invertibility_constant(
    model,
    beta: float,
    e_max: float = 40.0,
    n_per_region: int = 400,
    r_max: float = 1e3,
    grid: RadialGrid | None = None,
    previous: InvertibilityReport | None = None,
) -> InvertibilityReport:
    """1 / sigma_min of the Laplacian between the k=2 and k=0 weighted
    spaces: sigma_min = min over modes e <= e_max of the smallest
    generalized singular value of Delta as a map W^2_{2,beta} ->
    W^2_{0,beta-2}.  Weight preconditions are enforced, not assumed.

    A _mode_sweep (module docstring).  previous, the report at the
    neighbouring t of a sweep, gives each mode e > 0 the estimate near =
    sigma^2: it moves where the certified solve starts, not its result."""
    _check_e_max(e_max)
    geo = _resolve_geometry(model)
    for check in _INVERTIBILITY_CHECKS:
        check(geo, float(beta))
    if grid is None:
        grid = build_grid(geo, n_per_region=n_per_region, r_max=r_max)
    lams, _ = _mode_sweep(geo.link, e_max, _laplacian_pencils(grid, beta),
                          {e: s * s for e, s in previous.per_mode} if previous else {},
                          lambda A, B, nf: smallest_pencil_eigs(A, B, k=1, num_form=nf)[0])
    per_mode = tuple((e, float(_sigma_from(lam))) for e, lam in lams)
    sigma_min = min(s for _, s in per_mode)
    return InvertibilityReport(constant=1.0 / sigma_min, sigma_min=sigma_min,
                               per_mode=per_mode, beta=float(beta), grid_size=grid.n)


class CompactInvertibilityReport(NamedTuple):
    """per_mode holds (e, sigma) of the solved modes, mode 0's sigma
    constrained; bounded holds (e, bound) of the modes ruled out, bound a
    certified lower bound on that mode's sigma above sigma_constrained.
    Every mode up to e_max is in exactly one of the two."""

    constant: float
    sigma_constrained: float
    sigma_mode0_unconstrained: float
    per_mode: tuple[tuple[float, float], ...]
    bounded: tuple[tuple[float, float], ...]
    beta: float
    core: tuple[float, float]
    grid_size: int


def _host_core_interval(geo: RadialGeometry) -> tuple[float, float]:
    """A fixed core region of the host: the middle third of its body."""
    host_segs = [s for s in geo.plan if s.kind == "lin"]
    if not host_segs:
        raise ValueError("no core segment found for the transversality functional")
    seg = max(host_segs, key=lambda s: s.x_b - s.x_a)
    third = (seg.x_b - seg.x_a) / 3.0
    return (seg.x_a + third, seg.x_b - third)


def restricted_invertibility_compact(
    model,
    beta: float,
    e_max: float = 40.0,
    n_per_region: int = 400,
) -> CompactInvertibilityReport:
    """Uniform invertibility on compact glued manifolds, transverse to
    constants: the rotation-invariant mode is minimized over

        E_t = {u : Q(eta_t u) = 0},   Q(g) = integral of g over a fixed
                                       core region K of the host,

    while the higher modes are unconstrained.  Also reports the
    unconstrained mode-0 minimum (a near-zero sanity value: constants).

    model is one glued model of a compact family (family.at(t)), or its
    geometry, as invertibility_constant and poincare_constant take theirs.
    A _mode_sweep (module docstring); a mode ruled out has sigma >
    sqrt(s)."""
    _check_e_max(e_max)
    m_geo = _resolve_geometry(model)
    for check in _COMPACT_CHECKS:
        check(m_geo, float(beta))
    grid = build_grid(m_geo, n_per_region=n_per_region)
    core = _host_core_interval(m_geo)
    eta_vals = np.asarray(m_geo.eta(grid.nodes), dtype=float)
    in_core = (grid.nodes >= core[0]) & (grid.nodes <= core[1])
    vol = grid.quad * grid.f ** (m_geo.m - 1) * grid.volume_factor
    q = eta_vals * vol * in_core
    reduction, interior = _reduction_matrix(grid, *_default_closures(grid, 0.0, beta))
    q_red = _band_rows(_transpose(reduction), q)[interior]  # on mode 0's reduced space
    mode0 = {}

    def constrained(A, B, num_form):
        lam_u = smallest_pencil_eigs(A, B, k=1, num_form=num_form)
        mode0["sigma"] = float(_sigma_from(lam_u)[0])
        return _constrained_smallest(A, B, q_red, num_form)

    lams, bounded = _mode_sweep(m_geo.link, e_max, _laplacian_pencils(grid, beta), {},
                                constrained, exclude=True)
    per_mode = tuple((e, float(_sigma_from(lam))) for e, lam in lams)
    sigma_min = min(s for _, s in per_mode)
    return CompactInvertibilityReport(
        constant=1.0 / sigma_min, sigma_constrained=sigma_min,
        sigma_mode0_unconstrained=mode0["sigma"], per_mode=per_mode, beta=float(beta),
        bounded=tuple((e, math.sqrt(s)) for e, s in bounded), core=core, grid_size=grid.n)


def _poincare_pencils(grid: RadialGrid, beta: float):
    """e -> (A, B, None) of poincare_constant at the weight beta: the
    reduced gradient block and L^2 mass of the k = 1 form."""
    parts = _form_parts(grid, beta)

    def pencil(e: float):
        op = assemble_mode_operator(grid, e, beta=beta)
        gradient = _sum(parts.S1, {0: parts.W1 * e / grid.f**2})
        return op.reduce(gradient), op.reduce({0: parts.W0}), None

    return pencil


class PoincareReport(NamedTuple):
    """per_mode holds (e, ratio) of the solved modes; bounded holds (e,
    bound) of the modes ruled out, bound a certified upper bound on that
    mode's ratio below constant.  Every mode up to e_max is in exactly
    one of the two."""

    constant: float
    per_mode: tuple[tuple[float, float], ...]
    bounded: tuple[tuple[float, float], ...]
    beta: float
    grid_size: int


def poincare_constant(
    model,
    beta: float,
    e_max: float = 40.0,
    n_per_region: int = 400,
    r_max: float = 1e3,
    grid: RadialGrid | None = None,
    previous: PoincareReport | None = None,
) -> PoincareReport:
    """Largest ratio ||u||_{W_{1,beta}} / ||du||_{L_{beta-1}} over the
    discrete mode spaces.  The k = 1 form is the gradient block G_e (S1
    + diag(W1 e / f^2): |u'|^2 + (e/f^2) u^2 with weight rho^{2-2beta}
    rho^{-m}) plus the L^2 mass diag(W0), so a mode's ratio is sqrt(1 +
    1/nu), nu the smallest eigenvalue of its pencil (_poincare_pencils).

    Requires weights that keep constants out of the space: every residual
    AC end with beta < 0 or CS end with beta > 0.

    A _mode_sweep (module docstring) of nu; a mode ruled out has ratio <
    sqrt(1 + 1/s).  previous gives each mode it solved near = 1/(ratio^2
    - 1), as in invertibility_constant."""
    _check_e_max(e_max)
    geo = _resolve_geometry(model)
    for check in _POINCARE_CHECKS:
        check(geo, float(beta))
    if grid is None:
        grid = build_grid(geo, n_per_region=n_per_region, r_max=r_max)
    nus, bounded = _mode_sweep(geo.link, e_max, _poincare_pencils(grid, beta),
                               {e: 1.0 / (c * c - 1.0) for e, c in previous.per_mode}
                               if previous else {}, exclude=True)
    per_mode = tuple((e, math.sqrt(1.0 + 1.0 / max(nu, 1e-300))) for e, nu in nus)
    return PoincareReport(constant=max(c for _, c in per_mode), per_mode=per_mode,
                          bounded=tuple((e, math.sqrt(1.0 + 1.0 / s)) for e, s in bounded),
                          beta=float(beta), grid_size=grid.n)


# ---------------------------------------------------------------------------
# weight crossing and kernel scans


class WeightCrossingReport(NamedTuple):
    gamma: float
    e: float
    candidate: ModeFunction
    correction_norm: float
    tail_slope: float | None
    slope_bound: float
    residual_sigma: float
    threshold: float


def weight_crossing_kernel(
    model,
    gamma: float,
    e: float,
    slack: float = 0.2,
    n_per_region: int = 800,
    r_max: float = 1e3,
) -> WeightCrossingReport:
    """Kernel candidate generated by crossing the exceptional rate gamma:
    extend sigma = r^gamma (mode e) by an interior cutoff, solve
    A_e u = A_e sigma_ext in the decaying-closure space and return
    sigma_ext - u together with a fit of the correction's asymptotic
    slope (expected <= gamma + nu + slack) and the pencil residual of the
    candidate against the calibrated near-null threshold.

    Refused (_crossing_setup) unless e is a link eigenvalue with the
    rate gamma, the model has exactly one AC end, and the classifier
    certifies surjectivity just below gamma (crossing constructions need
    the cokernel already gone)."""
    geo = _resolve_geometry(model)
    m = geo.m
    ac, beta_res = _crossing_setup(geo, gamma, e)
    grid = build_grid(geo, n_per_region=n_per_region, r_max=r_max)
    nu = ac.nu if ac.nu is not None else -1.0

    r = ac.sign * (grid.nodes - ac.x0)
    has_cap = any(b is not None and b.kind == "cap" for b in (geo.left, geo.right))
    if has_cap:
        # interior cutoff: vanish near the cap, pure r^gamma beyond 2R
        R_chart = ac.chart_r
        chi = _smoothstep_c2(np.log(np.maximum(r, 1e-300) / R_chart) / math.log(2.0))
        sigma_ext = chi * np.maximum(r, 1e-300) ** gamma
        sigma_ext[r <= 0] = 0.0
    else:
        # no cap: r^gamma is globally defined, no extension cutoff needed
        sigma_ext = grid.rho**gamma

    op = assemble_mode_operator(grid, e)  # decaying closure gamma_minus
    rhs = _band_rows(op.P, sigma_ext)
    u_corr = op.solve(rhs)
    candidate_vals = sigma_ext - u_corr
    candidate = ModeFunction.single(grid, e, candidate_vals)

    tail = (r > r_max / 100.0) & (r <= r_max / 10.0)
    # the discrete solve excites the decaying homogeneous branch at an
    # O(h^2) amplitude relative to the correction's size; a slope fit is
    # meaningful only above that contamination level
    hz = math.log(10.0) / max(_grid_nodes_per_decade(grid), 1.0)
    floor = max(1e-12, 10.0 * hz * hz) * float(np.max(np.abs(u_corr)))
    slope = None
    if float(np.max(np.abs(u_corr[tail]))) > floor:
        slope = _loglog_slope(r[tail], np.maximum(np.abs(u_corr[tail]), 1e-300))

    # pencil residual of the candidate at a weight that admits it
    pen = laplacian_pencil(grid, e, _form_parts(grid, beta_res))
    residual_sigma = pen.residual_sigma(candidate_vals[pen.op.interior])
    thr = near_null_threshold(geo.link, m, e + 1.0, beta_res,
                              _grid_nodes_per_decade(grid))
    corr_norm = float(np.max(np.abs(u_corr)))
    return WeightCrossingReport(
        gamma=float(gamma), e=float(e), candidate=candidate,
        correction_norm=corr_norm, tail_slope=slope,
        slope_bound=float(gamma + nu + slack),
        residual_sigma=residual_sigma, threshold=thr,
    )


@dataclass(frozen=True)
class KernelScanRow:
    beta: float
    dimension: int
    per_mode: tuple[tuple[float, int, float], ...]  # (e, mult, smallest sigma)
    threshold: float
    ambiguous: bool


def kernel_dimension_scan(
    model,
    beta_list,
    e_max: float = 12.0,
    n_per_region: int = 400,
    grid: RadialGrid | None = None,
) -> list[KernelScanRow]:
    """Detected kernel dimension of Delta: W_{2,beta} -> W_{0,beta-2} per
    weight: per mode, near-null generalized singular values (below the
    calibrated threshold) are counted and weighted by the link
    multiplicity.  The truncation closure admits the growing harmonic
    branch whenever the weight does, so kernel elements with cone-rate
    gamma_plus < beta are representable.  Values clustering around the
    threshold are flagged as ambiguous."""
    _check_e_max(e_max)
    geo = _resolve_geometry(model)
    for b in _residual_ends(geo):
        if b.kind != "ac":
            raise ValueError("kernel scan expects AC (or capped) models")
    if grid is None:
        grid = build_grid(geo, n_per_region=n_per_region)
    npd = _grid_nodes_per_decade(grid)
    betas = [float(beta) for beta in beta_list]
    for beta in betas:
        _check_nonexceptional(geo, beta)
    thresholds = _scan_thresholds(geo, e_max, npd, betas)
    return [_scan_row(grid, geo.link.eigenvalues_below(e_max), beta, thr)
            for beta, thr in zip(betas, thresholds)]


def _scan_thresholds(geo: RadialGeometry, e_max: float, npd: float, betas: list) -> list:
    """near_null_threshold at each weight, on one exact-cone mesh, which is
    freed on return, before the scan builds its pencils."""
    mesh = _threshold_mesh(geo.link, geo.m, e_max, npd, _THRESHOLD_SPAN)
    return [near_null_threshold(geo.link, geo.m, e_max, beta, npd, mesh=mesh)
            for beta in betas]


def _scan_row(grid: RadialGrid, modes, beta: float, thr: float) -> KernelScanRow:
    """The KernelScanRow of one weight; its form parts are freed on return."""
    parts = _form_parts(grid, beta)
    total = 0
    per_mode = []
    ambiguous = False
    for e, mult in modes:
        sig = _near_null_sigmas(grid, e, parts)
        hits = int(np.count_nonzero(sig < thr))
        if np.any((sig >= thr / 3.0) & (sig <= 3.0 * thr)):
            ambiguous = True
        total += hits * mult
        per_mode.append((float(e), int(mult), float(sig[0])))
    return KernelScanRow(beta=beta, dimension=total, per_mode=tuple(per_mode),
                         threshold=thr, ambiguous=ambiguous)


def _near_null_sigmas(grid: RadialGrid, e: float, parts: _FormParts) -> np.ndarray:
    """The four smallest polished singular values of mode e's pencil, which
    is built here and freed on return, before the next mode's is built."""
    pen = laplacian_pencil(grid, e, parts)
    return _sigma_from(smallest_pencil_eigs(pen.A_bands, pen.B_bands, k=4,
                                            num_form=pen.numerator))
