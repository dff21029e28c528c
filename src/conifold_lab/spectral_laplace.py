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
    AC truncation:  Robin u' = (gamma/r) u with gamma the decaying root
                    for e (matching the cone-tail harmonic exactly), or
                    the growing root when scanning for kernel elements
                    that the target weight admits,
    CS truncation:  Robin with the locally bounded root,

and measure everything against the weighted quadratic forms of the
k = 0, 1, 2 weighted Sobolev norms.  Invertibility and Poincare
constants are smallest/largest generalized singular values of the
resulting banded pencils; kernel dimensions are counts of near-null
singular values against a grid-calibrated threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .conifold_model import (
    ConifoldModel,
    GluedFamily,
    GluedModel,
    RadialGeometry,
)
from .link_spectra import Link
from .weighted_calc import ModeFunction, RadialGrid, build_grid
from .weight_calculus import distance_to_exceptional, gamma_roots

__all__ = [
    "ClosureRule",
    "ModeOperator",
    "assemble_mode_operator",
    "WeightedQuadraticForm",
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
# boundary closures


@dataclass(frozen=True)
class ClosureRule:
    """How one truncated boundary expresses its node through interior ones.

    kind 'cap_even' : smooth-center regularity for the rotation-invariant
                      mode (quadratic even extension).
    kind 'zero'     : node value 0 (center regularity for modes e > 0).
    kind 'robin'    : power-law extrapolation u_bnd = u_adj (r_bnd/r_adj)^s,
                      exact for cone-tail harmonics of rate s.
    """

    kind: str
    slope: float = 0.0


def _default_closures(grid: RadialGrid, e: float, beta: float | None,
                      kernel_scan: bool) -> tuple[ClosureRule | None, ClosureRule | None]:
    geo = grid.geometry
    m = geo.m
    gp, gm = gamma_roots(e, m)

    def rule(b):
        if b is None:
            return None
        if b.kind == "cap":
            return ClosureRule("cap_even") if e == 0.0 else ClosureRule("zero")
        if b.kind == "ac":
            if kernel_scan and beta is not None and gp < beta:
                return ClosureRule("robin", gp)
            return ClosureRule("robin", gm)
        if b.kind == "cs":
            return ClosureRule("robin", gp)
        raise ValueError(b.kind)

    return rule(geo.left), rule(geo.right)


def _reduction_matrix(grid: RadialGrid, left: ClosureRule | None,
                      right: ClosureRule | None) -> tuple[sp.csr_matrix, np.ndarray]:
    """R with u_full = R u_interior, plus the interior node indices.  R is
    the identity on interior nodes; each closed end adds a row of zero
    (zero), one (robin) or two (cap_even) entries."""
    n = grid.n
    if grid.geometry.circle:
        return sp.identity(n, format="csr"), np.arange(n)
    interior = np.arange(1, n - 1)
    n_i = interior.size

    def boundary(i_bnd, rule, b):
        """(columns, values) of boundary row i_bnd, columns ascending."""
        if rule.kind == "zero":
            return [], []
        if rule.kind == "cap_even":
            i1, i2 = (1, 2) if i_bnd == 0 else (n - 2, n - 3)
            h1 = abs(grid.nodes[i1] - grid.nodes[i_bnd])
            h2 = abs(grid.nodes[i2] - grid.nodes[i_bnd])
            den = h2 * h2 - h1 * h1
            cols, vals = [i1 - 1, i2 - 1], [h2 * h2 / den, -h1 * h1 / den]
            return (cols, vals) if i_bnd == 0 else (cols[::-1], vals[::-1])
        if rule.kind == "robin":
            i_adj = 1 if i_bnd == 0 else n - 2
            r_b = b.sign * (grid.nodes[i_bnd] - b.x0)
            r_a = b.sign * (grid.nodes[i_adj] - b.x0)
            return [i_adj - 1], [(r_b / r_a) ** rule.slope]
        raise ValueError(rule.kind)

    lc, lv = boundary(0, left, grid.geometry.left)
    rc, rv = boundary(n - 1, right, grid.geometry.right)
    indptr = np.empty(n + 1, dtype=np.int32)
    indptr[0] = 0
    indptr[1:] = len(lc) + np.arange(n, dtype=np.int32)
    indptr[-1] = indptr[-2] + len(rc)
    R = sp.csr_matrix((np.concatenate([lv, np.ones(n_i), rv]),
                       np.concatenate([lc, np.arange(n_i), rc]).astype(np.int32), indptr),
                      shape=(n, n_i))
    return R, interior


# ---------------------------------------------------------------------------
# sparse products on fixed patterns


def _regular_rows(indptr: np.ndarray, indices: np.ndarray) -> tuple[int, int, tuple]:
    """(lo, hi, offsets): the run of rows around the middle row that store
    the columns row + offsets, in the middle row's storage order."""
    n = indptr.size - 1
    mid = n // 2
    offsets = indices[indptr[mid]:indptr[mid + 1]].astype(np.int64) - mid

    def run(bad):
        """the rows between the bad rows nearest to mid"""
        below, above = bad[bad < mid], bad[bad > mid]
        return (int(below[-1]) + 1 if below.size else 0,
                int(above[0]) if above.size else n)

    lo, hi = run(np.flatnonzero(np.diff(indptr) != offsets.size))
    block = indices[indptr[lo]:indptr[hi]].reshape(hi - lo, offsets.size)
    rows = np.arange(lo, hi)
    bad = np.zeros(hi - lo, dtype=bool)
    for j, o in enumerate(offsets):
        bad |= block[:, j] != rows + o
    lo2, hi2 = run(np.flatnonzero(bad) + lo)
    return max(lo, lo2), min(hi, hi2), tuple(int(o) for o in offsets)


def _transposed(indptr: np.ndarray, indices: np.ndarray, n_col: int):
    """The CSR pattern of the transpose, rows ascending within each of its
    rows (scipy's tocsc order), and the permutation taking data to it."""
    perm = np.argsort(indices, kind="stable").astype(np.int32)
    t_indptr = np.zeros(n_col + 1, dtype=np.int32)
    np.cumsum(np.bincount(indices, minlength=n_col), out=t_indptr[1:])
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int32), np.diff(indptr))
    return t_indptr, rows[perm], perm


def _gathered_terms(xp, xi, yp, yi, n_col: int, rows: np.ndarray):
    """csr_matmat(X, Y) symbolically, for the X rows `rows`: the output
    entries of each row in scipy's storage order (the reverse of the order
    of first touch), and per entry the positions in X.data and Y.data of
    its products, in the order scipy adds them (X's storage order, then
    Y's).  Returns (counts per row, indices, x, y, slots); slots[s, q] is
    the s-th product of entry q, padded with len(x)."""
    xcnt = (xp[rows + 1] - xp[rows]).astype(np.int64)
    xpos = np.repeat(xp[rows] - (np.cumsum(xcnt) - xcnt), xcnt) + np.arange(xcnt.sum())
    cols = xi[xpos]
    ycnt = (yp[cols + 1] - yp[cols]).astype(np.int64)
    n_terms = int(ycnt.sum())
    x = np.repeat(xpos, ycnt)
    y = np.repeat(yp[cols] - (np.cumsum(ycnt) - ycnt), ycnt) + np.arange(n_terms)
    row = np.repeat(np.repeat(np.arange(rows.size), xcnt), ycnt)
    key = row * n_col + yi[y]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.r_[True, key[1:] != key[:-1]] if n_terms else np.zeros(0, bool)
    head = np.flatnonzero(new)
    entry = np.cumsum(new) - 1
    # entries by first touch, then reversed within their row
    by_touch = np.full(n_terms, -1)
    by_touch[order[head]] = np.arange(head.size)
    by_touch = by_touch[by_touch >= 0]
    e_row = key[head] // n_col
    counts = np.bincount(e_row, minlength=rows.size)
    start = np.r_[0, np.cumsum(counts)]
    r = e_row[by_touch]
    stored = by_touch[start[r] + start[r + 1] - 1 - np.arange(head.size)]
    where = np.empty(head.size, dtype=np.int64)
    where[stored] = np.arange(head.size)
    rank = np.arange(n_terms) - head[entry]
    slots = np.full((int(rank.max()) + 1 if n_terms else 1, head.size), n_terms,
                    dtype=np.int32)
    slots[rank, where[entry]] = order
    return (counts, (key[head] % n_col)[stored].astype(np.int32),
            x.astype(np.int32), y.astype(np.int32), slots)


@dataclass(frozen=True)
class _Product:
    """scipy's csr_matmat(X, Y) on fixed patterns of X and Y: the pattern
    of the product in scipy's storage order, and a recipe that fills its
    values from X.data and Y.data, adding each entry's products in the
    order csr_matmat adds them, so the values are bit for bit scipy's.
    Exact zeros are kept (scipy drops them; callers drop them once, at
    the end, which leaves the other values unchanged).

    The rows [lo, hi) repeat one stencil, so they run as column slices of
    the regular blocks of X and Y: steps (p, q, s, first) multiply the
    p-th stored entry of X's row by the q-th of Y's row it points to and
    add the product to the s-th entry of the output row, whose column is
    the row plus keys[s].  The other rows (the truncated ends, a circle's
    seam) gather their products (x, y, slots as in _gathered_terms); they
    hold the output entries before head and from tail on.  Only these
    few end entries are stored: `pattern` rebuilds the whole one."""

    n_row: int
    nnz: int
    head: int
    tail: int
    lo: int
    hi: int
    keys: tuple  # column - row of each stored entry of the rows [lo, hi)
    end_counts: np.ndarray  # entries of each row outside [lo, hi)
    end_indices: np.ndarray  # their columns
    x_block: tuple  # (start, stop, width) of X's rows [lo, hi) in X.data
    y_blocks: tuple  # per p: (start, stop, width) of the Y rows it points to
    steps: tuple
    x: np.ndarray
    y: np.ndarray
    slots: np.ndarray

    @classmethod
    def build(cls, xp, xi, yp, yi, n_col: int) -> "_Product":
        n_row = xp.size - 1
        xa, xb, xo = _regular_rows(xp, xi)
        ya, yb, yo = _regular_rows(yp, yi)
        lo = max([xa] + [ya - d for d in xo])
        hi = min([xb] + [yb - d for d in xo])
        steps, keys = [], []
        for p, dx in enumerate(xo):
            for q, dy in enumerate(yo):
                first = dx + dy not in keys
                if first:
                    keys.append(dx + dy)
                steps.append((p, q, dx + dy, first))
        keys = keys[::-1]  # storage order: the reverse of the order of first touch
        steps = tuple((p, q, keys.index(k), first) for p, q, k, first in steps)
        if hi <= lo:
            lo = hi = 0
        counts, indices, x, y, slots = _gathered_terms(xp, xi, yp, yi, n_col,
                                                       _end_rows(lo, hi, n_row))
        head = int(counts[:lo].sum())
        return cls(
            n_row=n_row, nnz=int(counts.sum()) + (hi - lo) * len(keys), head=head,
            tail=head + (hi - lo) * len(keys), lo=lo, hi=hi, keys=tuple(keys),
            end_counts=counts.astype(np.int32), end_indices=indices,
            x_block=(int(xp[lo]), int(xp[hi]), len(xo)),
            y_blocks=tuple((int(yp[lo + d]), int(yp[hi + d]), len(yo)) for d in xo),
            steps=steps, x=x, y=y, slots=slots,
        )

    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the product, in scipy's storage order."""
        lo, hi, head, tail = self.lo, self.hi, self.head, self.tail
        row_nnz = np.full(self.n_row, len(self.keys), dtype=np.int32)
        row_nnz[_end_rows(lo, hi, self.n_row)] = self.end_counts
        indptr = np.zeros(self.n_row + 1, dtype=np.int32)
        np.cumsum(row_nnz, out=indptr[1:])
        indices = np.empty(self.nnz, dtype=np.int32)
        indices[:head] = self.end_indices[:head]
        indices[tail:] = self.end_indices[head:]
        if hi > lo:
            block = indices[head:tail].reshape(hi - lo, -1)
            for s, k in enumerate(self.keys):
                block[:, s] = np.arange(lo + k, hi + k)
        return indptr, indices

    def end_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of the stored entries outside the rows [lo, hi)."""
        return (np.repeat(_end_rows(self.lo, self.hi, self.n_row), self.end_counts),
                self.end_indices)

    def values(self, xdata: np.ndarray, ydata: np.ndarray) -> np.ndarray:
        out = np.empty(self.nnz)
        head, tail = self.head, self.tail
        if self.hi > self.lo:
            block = out[head:tail].reshape(self.hi - self.lo, -1)
            start, stop, width = self.x_block
            X = xdata[start:stop].reshape(-1, width)
            Y = [ydata[start:stop].reshape(-1, width) for start, stop, width in self.y_blocks]
            for p, q, s, first in self.steps:
                if first:
                    np.multiply(X[:, p], Y[p][:, q], out=block[:, s])
                else:
                    block[:, s] += X[:, p] * Y[p][:, q]
        if self.x.size:
            prod = np.empty(self.x.size + 1)
            np.multiply(xdata[self.x], ydata[self.y], out=prod[:-1])
            prod[-1] = 0.0
            ends = prod[self.slots[0]]
            for s in self.slots[1:]:
                ends += prod[s]
            out[:head] = ends[:head]
            out[tail:] = ends[head:]
        return out

    def matrix(self, cls, vals: np.ndarray) -> sp.spmatrix:
        """The product as a CSR (or, for a product holding a transpose,
        CSC) matrix of fresh values, exact zeros dropped."""
        return _compressed(cls, vals, *self.pattern(), (self.n_row, self.n_row))

    def dia_layout(self, offsets: np.ndarray) -> tuple:
        """Where the values of a product holding the transpose M^T of a
        square matrix M go in M's DIA layout on `offsets` (ascending): the
        row of each block slot, and the flat positions of the end entries."""
        rows, cols = self.end_entries()
        return (tuple(int(r) for r in np.searchsorted(offsets, [-k for k in self.keys])),
                np.searchsorted(offsets, rows - cols) * self.n_row + rows)

    def dia(self, layout: tuple, vals: np.ndarray, offsets: np.ndarray) -> sp.dia_matrix:
        """M as a DIA matrix on offsets from the values of this product of
        M^T (see dia_layout): the block slots are row slices of the
        diagonals."""
        n, lo, hi, head, tail = self.n_row, self.lo, self.hi, self.head, self.tail
        rows, ends = layout
        band = np.zeros((offsets.size, n))
        if hi > lo:
            block = vals[head:tail].reshape(hi - lo, -1)
            for s, r in enumerate(rows):
                band[r, lo:hi] = block[:, s]
        band.reshape(-1)[ends] = np.r_[vals[:head], vals[tail:]]
        return sp.dia_matrix((band, offsets), shape=(n, n))


def _end_rows(lo: int, hi: int, n: int) -> np.ndarray:
    return np.r_[np.arange(lo), np.arange(hi, n)]


def _compressed(cls, vals: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                shape: tuple) -> sp.spmatrix:
    """The CSR or CSC matrix of values on a pattern, exact zeros dropped
    (as scipy drops them); it may keep the arrays it is given."""
    keep = vals != 0
    if keep.all():
        return cls((vals, indices, indptr), shape=shape)
    kept = np.zeros(keep.size + 1, dtype=np.int32)
    np.cumsum(keep, dtype=np.int32, out=kept[1:])
    return cls((vals[keep], indices[keep], kept[indptr]), shape=shape)


@dataclass(frozen=True)
class _FormPattern:
    """The sorted CSR pattern of the weighted forms L^T diag(w) L on one
    grid (L = d1, d2, or any matrix on d1's pattern), and the product that
    fills it.  scipy evaluates L.T @ diags(w) @ L as csr_matmat(X, L),
    X = L^T diag(w); `sandwich` fills that product with `product`, a
    _Product on the patterns of L^T and L, and permutes it to sorted CSR
    by `order`, so each entry's terms add over the rows k of L ascending,
    starting from 0, bit for bit as scipy adds them.

    diag: pattern position of (r, r); stencil_diag: position of d1[r, r]
    in d1.data; stencil, stencil_t: pattern positions of each stored d1
    entry (r, c) and of its transpose (c, r); transposed: the position of
    the transpose of every entry (the pattern is symmetric, so
    values[transposed] are the values of the transpose on it, in scipy's
    tocsc order).  Built once per grid (see _form_pattern), from d1's
    pattern only."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    product: _Product
    l_t: np.ndarray  # L.data[l_t] is L^T's data
    l_t_rows: np.ndarray  # the row of L each entry of L^T comes from
    order: np.ndarray  # product values[order] are the sorted CSR values
    diag: np.ndarray
    stencil_diag: np.ndarray
    stencil: np.ndarray
    stencil_t: np.ndarray
    transposed: np.ndarray

    @classmethod
    def build(cls, d1: sp.csr_matrix) -> "_FormPattern":
        n = d1.shape[0]
        t_indptr, l_t_rows, l_t = _transposed(d1.indptr, d1.indices, n)
        product = _Product.build(t_indptr, l_t_rows, d1.indptr, d1.indices, n)
        indptr, indices = product.pattern()
        keys = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
        order = np.argsort(keys, kind="stable")  # a merge sort: rows are runs
        keys = keys[order]
        rows, cols = np.repeat(np.arange(n), np.diff(d1.indptr)), d1.indices
        at = np.searchsorted(keys, np.concatenate([np.arange(n) * (n + 1), rows * n + cols,
                                                   cols * n + rows])).astype(np.int32)
        indices = (keys % n).astype(np.int32)
        return cls(
            n=n, indptr=indptr, indices=indices, product=product, l_t=l_t,
            l_t_rows=l_t_rows, order=order.astype(np.int32), diag=at[:n],
            stencil_diag=np.flatnonzero(cols == rows).astype(np.int32),
            stencil=at[n:n + cols.size], stencil_t=at[n + cols.size:],
            transposed=np.argsort(indices, kind="stable").astype(np.int32),
        )

    @property
    def nnz(self) -> int:
        return self.indices.size

    def sandwich(self, stencil_data: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Pattern-aligned values of L^T diag(w) L, L the matrix with
        data stencil_data on d1's pattern."""
        x = w[self.l_t_rows] * stencil_data[self.l_t]
        return self.product.values(x, stencil_data)[self.order]

    def matrix(self, vals: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix of pattern-aligned values, exact zeros dropped
        (as scipy drops them); its arrays are copies, never vals or the
        pattern's."""
        return _compressed(sp.csr_matrix, vals.copy(), self.indptr.copy(),
                           self.indices.copy(), (self.n, self.n))


def _form_pattern(grid: RadialGrid) -> _FormPattern:
    """The grid's form pattern, built on first use."""
    patterns = grid.pencil_patterns
    if "form" not in patterns:
        patterns["form"] = _FormPattern.build(grid.d1)
    return patterns["form"]


@dataclass(frozen=True)
class _PencilPattern:
    """The sparse patterns of the pencil on one grid for one shape of the
    reduction R (the closure kinds at its two ends), with the products
    that fill them exactly as the scipy expressions

        Pi = (P_full[interior] @ R).tocsr()
        A  = (Pi.T @ diags(w) @ Pi).tocsc()
        M_red = (R.T @ M @ R).tocsc()      (M a form on the grid's form pattern)

    do: pi = P[interior] R; t = (Pi^T W)^T = W Pi and a = (Pi^T W Pi)^T
    row by row; u = (R^T M)^T and red = (R^T M R)^T; pi_t, m_t and r_t are
    the permutations scipy's tocsc applies to Pi, M and R before a
    product (m_t is the grid's _FormPattern.transposed).  R is the
    identity on interior nodes, so most entries are single products and
    only the rows next to a closed end are sums.  offsets are the
    diagonals of A and M_red together, so the two DIA matrices of a
    pencil share them; a_dia and red_dia place the values of a and red
    on them.  Built once per grid and closure kinds
    (RadialGrid.pencil_patterns), from patterns only: R's values change
    per mode."""

    p_start: int  # first stored P_full entry of the interior rows
    pi: _Product
    pi_t: np.ndarray
    t: _Product
    a: _Product
    m_t: np.ndarray
    u: _Product
    r_t: np.ndarray
    red: _Product
    offsets: np.ndarray
    a_dia: tuple
    red_dia: tuple

    @classmethod
    def build(cls, grid: RadialGrid, R: sp.csr_matrix, interior: np.ndarray) -> "_PencilPattern":
        n, n_i = grid.n, R.shape[1]
        d1, pat = grid.d1, _form_pattern(grid)
        p_start, p_stop = d1.indptr[interior[0]], d1.indptr[interior[-1] + 1]
        pi = _Product.build(d1.indptr[interior[0]:interior[-1] + 2] - p_start,
                            d1.indices[p_start:p_stop], R.indptr, R.indices, n_i)
        pi_p = pi.pattern()
        pi_tp, pi_ti, pi_t = _transposed(*pi_p, n_i)
        diag = np.arange(n_i + 1, dtype=np.int32)
        t = _Product.build(diag, diag[:-1], *pi_p, n_i)
        a = _Product.build(pi_tp, pi_ti, *t.pattern(), n_i)
        # the form pattern is symmetric: its transpose has its arrays
        u = _Product.build(pat.indptr, pat.indices, R.indptr, R.indices, n_i)
        r_tp, r_ti, r_t = _transposed(R.indptr, R.indices, n_i)
        red = _Product.build(r_tp, r_ti, *u.pattern(), n_i)
        # a and red hold A^T and M_red^T: an entry (r, c) sits on diagonal r - c
        offsets = np.unique(np.concatenate([np.subtract(*q.end_entries()) for q in (a, red)]
                                           + [[-k for k in q.keys] for q in (a, red)]))
        return cls(p_start=int(p_start), pi=pi, pi_t=pi_t, t=t, a=a, m_t=pat.transposed,
                   u=u, r_t=r_t, red=red, offsets=offsets, a_dia=a.dia_layout(offsets),
                   red_dia=red.dia_layout(offsets))


@dataclass
class ModeOperator:
    """Banded realization of P = rho^2 A_e with boundary closures.

    P_full has consistent rows at every node (boundary rows one-sided);
    residuals and solves use the interior rows composed with the
    reduction R.  P_full is the grid's radial_operator plus
    diags(e rho^2 / f^2), summed as scipy sums them; values holds its
    entries on the grid's stencil pattern (d1's storage, exact zeros
    kept), from which Pi and the reduced forms are filled on the grid's
    pencil pattern for R's shape."""

    e: float
    grid: RadialGrid
    R: sp.spmatrix
    interior: np.ndarray
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = self.grid
        self.values = g.radial_operator.data.copy()
        self.values[_form_pattern(g).stencil_diag] += self.e * g.rho**2 / g.f**2

    @cached_property
    def P_full(self) -> sp.csr_matrix:
        """P_full as a CSR matrix, built on first use."""
        g = self.grid
        return _compressed(sp.csr_matrix, self.values.copy(), g.d1.indptr.copy(),
                           g.d1.indices.copy(), (g.n, g.n))

    @property
    def n_interior(self) -> int:
        return self.R.shape[1]

    @property
    def pattern(self) -> _PencilPattern:
        """The grid's pencil pattern for R's shape (entries in its two
        boundary rows), built on first use."""
        key = (int(self.R.indptr[1]), int(self.R.indptr[-1] - self.R.indptr[-2]))
        patterns = self.grid.pencil_patterns
        if key not in patterns:
            patterns[key] = _PencilPattern.build(self.grid, self.R, self.interior)
        return patterns[key]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.P_full @ np.asarray(values, dtype=float)

    def pi_values(self) -> np.ndarray:
        """Pi = P_full[interior] @ R on pattern.pi, exact zeros kept."""
        pat = self.pattern
        return pat.pi.values(self.values[pat.p_start:], self.R.data)

    def reduced(self) -> sp.csc_matrix:
        """(P_full[interior] @ R).tocsc()."""
        return self.pattern.pi.matrix(sp.csr_matrix, self.pi_values()).tocsc()

    def reduce(self, form_values: np.ndarray) -> np.ndarray:
        """(R.T @ M @ R).tocsc() for the form M with values form_values on
        the grid's form pattern: its values on pattern.red, exact zeros
        kept (pattern.red.matrix and .dia make the matrices)."""
        pat = self.pattern
        u = pat.u.values(form_values[pat.m_t], self.R.data)
        return pat.red.values(self.R.data[pat.r_t], u)

    def solve(self, rhs_full_rows: np.ndarray) -> np.ndarray:
        """Solve P u = rhs on the reduced space; returns full nodal values."""
        lu = spla.splu(self.reduced())
        u_int = lu.solve(np.asarray(rhs_full_rows, dtype=float)[self.interior])
        return self.R @ u_int


def assemble_mode_operator(
    grid: RadialGrid,
    e: float,
    beta: float | None = None,
    kernel_scan: bool = False,
) -> ModeOperator:
    """Second-order discretization of rho^2 A_e on the grid.

    On log-graded end regions the three-point stencils are the uniform
    central differences of the log-coordinate operator (second-order
    consistent on cone harmonics r^gamma); the boundaries close by the
    rules described in the module docstring."""
    left, right = _default_closures(grid, e, beta, kernel_scan)
    R, interior = _reduction_matrix(grid, left, right)
    return ModeOperator(e=float(e), grid=grid, R=R, interior=interior)


# ---------------------------------------------------------------------------
# weighted quadratic forms


@dataclass
class WeightedQuadraticForm:
    """SPD realization of the squared weighted Sobolev norm of one mode.

    For k = 0 the matrix is diagonal (quadrature weights); the k = 1, 2
    derivative blocks sandwich the same diagonal weights between the
    difference operators, so the assembled matrix is banded SPD on the
    reduced space.  values are its entries on the grid's form pattern
    (_form_pattern: sorted CSR, exact zeros kept; ModeOperator.reduce
    takes them); matrix, built on first use, drops the zeros, as scipy
    does, and shares no array with values or the pattern.
    """

    grid: RadialGrid
    k: int
    beta: float | None
    e: float
    values: np.ndarray = field(repr=False)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return _form_pattern(self.grid).matrix(self.values)

    def norm(self, values: np.ndarray) -> float:
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(max(v @ (self.matrix @ v), 0.0)))


@dataclass(frozen=True)
class _FormParts:
    """The e-independent pieces of the weighted forms and of the pencil's
    image weight on one grid at one weight, built once before a loop over
    modes.  The matrix pieces are value arrays aligned with the grid's
    form pattern (_form_pattern; Bop with d1's stored entries), the
    sandwiches filled by its product; weighted_form adds the e-dependent
    terms to them in the order of the scipy expressions they replace, so
    every form is bitwise what those expressions give.  Holds arrays
    only, never the grid."""

    beta: float | None
    W0: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    w_img: np.ndarray  # image weight of the pencil at every node
    M01: np.ndarray  # diag(W0) + D1^T diag(W1) D1
    M2: np.ndarray  # D2^T diag(W2) D2
    M3: np.ndarray  # D1^T diag(c3) D1 of the angular block
    Bop: np.ndarray  # D1 - diag(f'/f) of the mixed block, as d1 data


def _beta_key(beta) -> float | None:
    return None if beta is None else float(beta)


def _parts_at(grid: RadialGrid, beta: float | None, parts: _FormParts | None) -> _FormParts:
    """parts, or the grid's form parts at beta when None; parts built at
    another weight are refused."""
    if parts is None:
        return _form_parts(grid, beta)
    if parts.beta != _beta_key(beta):
        raise ValueError(f"form parts of weight {parts.beta} used at weight {beta}")
    return parts


def _form_parts(grid: RadialGrid, beta: float | None) -> _FormParts:
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
    pat = _form_pattern(g)
    M01 = pat.sandwich(D1.data, W1)
    M01[pat.diag] += W0
    Bop = D1.data.copy()
    Bop[pat.stencil_diag] -= g.fp / g.f
    return _FormParts(
        beta=_beta_key(beta), W0=W0, W1=W1, W2=W2, w_img=w_img, M01=M01,
        M2=pat.sandwich(D2.data, W2), M3=pat.sandwich(D1.data, c3), Bop=Bop,
    )


def weighted_form(grid: RadialGrid, k: int, beta: float | None, e: float,
                  parts: _FormParts | None = None) -> WeightedQuadraticForm:
    """Quadratic form of ||.||^2_{W^2_{k,beta}} for a single mode e;
    parts, when given, are the grid's _form_parts at this beta."""
    parts = _parts_at(grid, beta, parts)
    g = grid
    pat = _form_pattern(g)
    kappa = g.geometry.link.einstein_constant or 0.0

    # values on the grid's form pattern, summed in the order of
    # M01 + diag(W1 e / f^2) + M2 + Bop^T diag(mix) Bop + diag(c1) + M3
    #     + diag(c2) D1 + D1^T diag(c2); exact zeros drop at the end
    if k == 0:
        M = np.zeros(pat.nnz)
        M[pat.diag] = parts.W0
    else:
        M = parts.M01.copy()
        M[pat.diag] += parts.W1 * e / g.f**2
    if k >= 2:
        W2, D1 = parts.W2, g.d1
        M += parts.M2
        # mixed radial-angular block: 2 e f^-2 (u' - (f'/f) u)^2
        mix = 2.0 * e * W2 / g.f**2
        M += pat.sandwich(parts.Bop, mix)
        # pure angular block: f^-4 ((e^2 - kappa e) u^2
        #                     - 2 e f f' u u' + (m-1) f^2 f'^2 u'^2)
        hess_c = max(e * e - kappa * e, 0.0)
        c1 = hess_c * W2 / g.f**4
        c2 = -e * g.fp * W2 / g.f**3
        M[pat.diag] += c1
        M += parts.M3
        # diag(c2) D1 puts c2[r] D1[r, c] at (r, c), D1^T diag(c2) at (c, r)
        c2_d1 = np.repeat(c2, 3) * D1.data
        M[pat.stencil] += c2_d1
        M[pat.stencil_t] += c2_d1
    return WeightedQuadraticForm(grid=grid, k=k, beta=beta, e=e, values=M)


@dataclass
class LaplacePencil:
    """Factored pencil of Delta: W_{2,beta} -> W_{0,beta-2} for one mode.

    A = Pi^T diag(w_img) Pi is the assembled normal form; sigma
    evaluations should use the factored residual ||w_img^(1/2) Pi v||
    (the assembled A loses near-null information to cancellation).
    A_dia and B_dia are A and B as DIA matrices on common offsets, the
    form smallest_pencil_eigs solves cheapest; A and B, built on first
    use, are the CSC matrices, and Pi the CSR matrix, that the scipy
    expressions in laplacian_pencil's docstring leave, storage order
    included."""

    op: ModeOperator
    Pi: sp.csr_matrix
    w_img: np.ndarray
    A_dia: sp.dia_matrix = field(repr=False)
    B_dia: sp.dia_matrix = field(repr=False)
    a: np.ndarray = field(repr=False)  # A's values on op.pattern.a
    b: np.ndarray = field(repr=False)  # B's values on op.pattern.red

    @cached_property
    def A(self) -> sp.csc_matrix:
        return self.op.pattern.a.matrix(sp.csc_matrix, self.a)

    @cached_property
    def B(self) -> sp.csc_matrix:
        return self.op.pattern.red.matrix(sp.csc_matrix, self.b)

    def residual_sigma(self, v_interior: np.ndarray) -> float:
        r = self.Pi @ v_interior
        num = float(np.sum(self.w_img * r * r))
        den = float(v_interior @ (self.B_dia @ v_interior))
        return math.sqrt(max(num, 0.0) / max(den, 1e-300))


def laplacian_pencil(grid: RadialGrid, e: float, beta: float | None,
                     kernel_scan: bool = False,
                     parts: _FormParts | None = None) -> LaplacePencil:
    """Factored realization of Delta between the k=2 and k=0 weighted
    spaces: Pi applies rho^2 Delta at interior nodes on the reduced
    space, w_img carries the weight-(beta-2) mass of Delta u =
    rho^{-2} P u (the rho^2 factors cancel into plain rho^{-2 beta}
    weights), and B is the reduced k=2 form.  parts, when given, are the
    grid's _form_parts at this beta.

    The matrices are filled on the grid's pencil pattern, bit for bit
    Pi = (P_full[interior] @ R).tocsr(), A = (Pi.T @ diags(w_img) @
    Pi).tocsc() and B = (R.T @ M2 @ R).tocsc()."""
    parts = _parts_at(grid, beta, parts)
    op = assemble_mode_operator(grid, e, beta=beta, kernel_scan=kernel_scan)
    pat = op.pattern
    w_img = parts.w_img[op.interior]
    pi = op.pi_values()
    a = pat.a.values(pi[pat.pi_t], pat.t.values(w_img, pi))
    b = op.reduce(weighted_form(grid, 2, beta, e, parts=parts).values)
    return LaplacePencil(op=op, Pi=pat.pi.matrix(sp.csr_matrix, pi), w_img=w_img,
                         A_dia=pat.a.dia(pat.a_dia, a, pat.offsets),
                         B_dia=pat.red.dia(pat.red_dia, b, pat.offsets), a=a, b=b)


# ---------------------------------------------------------------------------
# generalized eigen solves


def _deterministic_v0(n: int) -> np.ndarray:
    v = np.sin(0.7 + 1.3 * np.arange(n))
    return v / np.linalg.norm(v)


def _pencil_num(pen: "LaplacePencil"):
    def num_form(v):
        r = pen.Pi @ v
        return float(np.sum(pen.w_img * r * r))
    return num_form


def _diagonals(A: sp.spmatrix, B: sp.spmatrix):
    """A and B on their common diagonals, in scipy's DIA layout: offsets
    ascending, and row i of each array holds M[j - offsets[i], j] at
    column j (zero where M stores nothing).  DIA matrices on the same
    ascending offsets are taken as they are."""
    if (A.format == B.format == "dia" and np.array_equal(A.offsets, B.offsets)
            and np.all(np.diff(A.offsets) > 0)):
        return A.offsets, A.data, B.data
    n = A.shape[0]
    mats = (A.tocsc(), B.tocsc())
    cols = [np.repeat(np.arange(n), np.diff(M.indptr)) for M in mats]
    offs = [c - M.indices for c, M in zip(cols, mats)]
    present = np.zeros(2 * n - 1, dtype=bool)
    for o in offs:
        present[o + (n - 1)] = True
    offsets = np.flatnonzero(present) - (n - 1)
    row_of = np.empty(2 * n - 1, dtype=np.intp)
    row_of[offsets + (n - 1)] = np.arange(offsets.size)
    bands = []
    for M, c, o in zip(mats, cols, offs):
        band = np.zeros((offsets.size, n))
        band[row_of[o + (n - 1)], c] = M.data
        bands.append(band)
    return offsets, bands[0], bands[1]


def _shift_invert_parts(A: sp.spmatrix, B: sp.spmatrix,
                        sigma: float) -> tuple[sp.csc_matrix, sp.dia_matrix]:
    """A - sigma B as the sorted CSC matrix without stored zeros that
    splu factors in eigsh's mode 3, and B as a DIA matrix with ascending
    offsets."""
    n = A.shape[0]
    offsets, a, b = _diagonals(A, B)
    # row j of s holds column j of A - sigma B with the offsets descending,
    # so its rows ascending; filled diagonal by diagonal (short rows
    # broadcast slowly)
    s = np.empty((n, offsets.size))
    rows = np.empty(s.shape, dtype=np.int32)
    counts = np.zeros(n, dtype=np.int32)
    for i, k in enumerate(range(offsets.size - 1, -1, -1)):
        np.subtract(a[k], sigma * b[k], out=s[:, i])
        np.subtract(np.arange(n, dtype=np.int32), offsets[k], out=rows[:, i])
        counts += s[:, i] != 0
    stored = s != 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return (sp.csc_matrix((s[stored], rows[stored], indptr), shape=(n, n)),
            sp.dia_matrix((b, offsets), shape=(n, n)))


def smallest_pencil_eigs(
    A: sp.spmatrix,
    B: sp.spmatrix,
    k: int = 1,
    constraint: np.ndarray | None = None,
    num_form=None,
) -> np.ndarray:
    """The k smallest eigenvalues of the SPD pencil A v = lam B v,
    optionally restricted to {v : constraint . v = 0} via a bordered
    shift-inverted solve.  Deterministic (fixed start vector).

    num_form(v) -> v^T A v, when supplied, re-evaluates the Rayleigh
    quotients of the converged vectors in a cancellation-free factored
    form; the assembled normal matrix A floors tiny eigenvalues at
    roundoff times its entry magnitudes, so near-null detection needs
    this polish.

    The shift-invert operator is built here as eigsh's mode 3 builds it:
    splu of the sorted CSC matrix A - sigma B, inside the same try as
    ARPACK, so a singular factor reaches the dense fallback as before.
    A and B are taken on their common diagonals, so A - sigma B is one
    elementwise difference; DIA matrices on the same ascending offsets
    (a LaplacePencil's A_dia and B_dia, ModeOperator.reduce's forms) are
    used as they are, any other sparse A and B are scattered onto them.
    ARPACK asks for about three B products per solve (ARPACK Users'
    Guide, mode 3); it gets B as a DIA matrix, whose product streams the
    diagonals where the CSC product scatters.  With ascending offsets the
    DIA product adds each row's terms in ascending column order, starting
    from 0, as the CSC product does, so every product and every
    eigenvalue is bit for bit what eigsh(A, k, M=B, sigma=sigma) and its
    polish give for the CSC matrices."""
    n = A.shape[0]
    k = min(k, n - 2)
    scale = max((A.diagonal().sum() / max(B.diagonal().sum(), 1e-300)), 1e-300)
    sigma = -1e-8 * scale
    shifted, B_dia = _shift_invert_parts(A, B, sigma)

    def polish(vals, vecs):
        if num_form is None:
            return np.sort(vals)
        out = []
        for i in range(vecs.shape[1]):
            v = vecs[:, i]
            den = float(v @ (B_dia @ v))
            out.append(num_form(v) / max(den, 1e-300))
        return np.sort(out)

    if constraint is None:
        try:
            lu = spla.splu(shifted)
            del shifted  # ARPACK needs only the factor
            OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
            vals, vecs = spla.eigsh(A, k=k, M=B_dia, sigma=sigma, which="LM", OPinv=OPinv,
                                    v0=_deterministic_v0(n))
            return polish(vals, vecs)
        except RuntimeError:
            if n <= 4000:
                from scipy.linalg import eigh
                vals, vecs = eigh(A.toarray(), B.toarray(),
                                  subset_by_index=[0, k - 1])
                return polish(vals, vecs)
            raise

    q = np.asarray(constraint, dtype=float)
    K = sp.bmat([[shifted, q[:, None]], [q[None, :], None]], format="csc")
    lu = spla.splu(K)

    def op_inv(b):
        rhs = np.concatenate([b, [0.0]])
        return lu.solve(rhs)[:-1]

    OPinv = spla.LinearOperator((n, n), matvec=op_inv, dtype=float)
    v0 = _deterministic_v0(n)
    v0 = v0 - q * (q @ v0) / (q @ q)
    try:
        vals, vecs = spla.eigsh(A, k=k, M=B_dia, sigma=sigma, which="LM", OPinv=OPinv,
                                v0=v0)
        return polish(vals, vecs)
    except RuntimeError:
        if n > 4000:
            raise
        from scipy.linalg import eigh, null_space
        Z = null_space(q[None, :])
        Ad = Z.T @ (A @ Z)
        Bd = Z.T @ (B @ Z)
        vals, vecs = eigh(Ad, Bd, subset_by_index=[0, k - 1])
        return polish(vals, Z @ vecs)


def _sigma_from(vals: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(vals, 0.0))


# ---------------------------------------------------------------------------
# cone harmonics and calibration


_THRESHOLD_SPAN = (1e-3, 1e3)  # radii of the exact-cone calibration mesh


@dataclass(frozen=True)
class _ThresholdMesh:
    """The weight-free half of near_null_threshold: the exact-cone grid
    and, per mode e, its interior nodes and, per root gamma, the harmonic
    rho**gamma with its interior residual (P_full @ rho**gamma)[interior].
    key is the (link, m, e_max, nodes_per_decade, r_span) it was built
    for.  The mode operators are not kept."""

    key: tuple
    grid: RadialGrid
    modes: tuple  # ((e, interior, ((u, resid), ...)), ...)


def _threshold_mesh(link: Link, m: int, e_max: float, nodes_per_decade: float,
                    r_span: tuple[float, float]) -> _ThresholdMesh:
    from .conifold_model import Component, EndSpec, warp_preset

    r_lo, r_hi = r_span
    # the end weights only label the geometry: the forms take the weight
    # as a constant, and the nodes and the operator do not depend on it
    comp = Component(
        link=link, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", link, nu=1.0, beta=0.0, boundary=math.sqrt(r_lo * r_hi)),
        right=EndSpec("AC", link, nu=-1.0, beta=0.0, boundary=math.sqrt(r_lo * r_hi)),
    )
    model = ConifoldModel(m, (comp,))
    decades = math.log10(r_hi / r_lo)
    n = max(64, int(nodes_per_decade * decades / 2))
    grid = build_grid(model.geometry(0), n_per_region=n,
                      r_max=r_hi, r_min_factor=r_lo / math.sqrt(r_lo * r_hi))
    modes = []
    for e, _ in link.eigenvalues_below(e_max):
        # P_full does not depend on the closures, so both harmonics share it
        op = assemble_mode_operator(grid, e)
        harmonics = []
        for gamma in gamma_roots(e, m):
            u = grid.rho**gamma
            harmonics.append((u, (op.P_full @ u)[op.interior]))
        modes.append((e, op.interior, tuple(harmonics)))
    return _ThresholdMesh(key=(link, m, e_max, nodes_per_decade, tuple(r_span)),
                          grid=grid, modes=tuple(modes))


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
    m, e_max, nodes_per_decade, r_span) is refused."""
    key = (link, m, e_max, nodes_per_decade, tuple(r_span))
    if mesh is None:
        mesh = _threshold_mesh(link, m, e_max, nodes_per_decade, r_span)
    elif mesh.key != key:
        raise ValueError(f"threshold mesh built for {mesh.key} used for {key}")
    grid = mesh.grid
    parts = _form_parts(grid, beta)
    worst = 0.0
    for e, interior, harmonics in mesh.modes:
        # the k=0 diagonal W0 and the k=2 form do not depend on the
        # closures, so both harmonics share them
        w_img = parts.W0[interior]
        form2 = weighted_form(grid, 2, beta, e, parts=parts)
        for u, resid in harmonics:
            num = math.sqrt(float(np.sum(w_img * resid**2)))
            den = form2.norm(u)
            if den > 0:
                worst = max(worst, num / den)
    return 10.0 * worst


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


def _check_lemma_weights(geo: RadialGeometry, beta: float):
    """Structural weight conditions for uniform invertibility at the
    requested constant weight: AC ends strictly below 0, CS ends strictly
    above 2-m, at least one residual end whose weight alone forces
    injectivity (AC < 0 / CS > 0), and marked necks inside (2-m, 0)."""
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
    strong = any((b.kind == "ac" and beta < 0) or (b.kind == "cs" and beta > 0)
                 for b in ends)
    if not strong:
        raise WeightConditionError(
            "need one residual end with AC weight < 0 or CS weight > 0 "
            "to exclude constants"
        )
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


def _check_nonexceptional(geo: RadialGeometry, beta: float, tol: float = 1e-9,
                          warn_below: float = 1e-3):
    d = distance_to_exceptional(beta, geo.link, geo.m)
    if d <= tol:
        raise WeightConditionError(
            f"weight {beta} is exceptional for the link spectrum (distance {d:.2e})"
        )
    if d < warn_below:
        warnings.warn(
            f"weight {beta} is within {d:.2e} of an exceptional weight; "
            "the pencil will be badly conditioned", stacklevel=3)


# ---------------------------------------------------------------------------
# invertibility / Poincare constants


@dataclass(frozen=True)
class InvertibilityReport:
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
) -> InvertibilityReport:
    """1 / sigma_min of the Laplacian between the k=2 and k=0 weighted
    spaces: sigma_min = min over modes e <= e_max of the smallest
    generalized singular value of Delta as a map W^2_{2,beta} ->
    W^2_{0,beta-2}.  Weight preconditions are enforced, not assumed."""
    geo = _resolve_geometry(model)
    _check_lemma_weights(geo, float(beta))
    _check_nonexceptional(geo, beta)
    if grid is None:
        grid = build_grid(geo, n_per_region=n_per_region, r_max=r_max)
    parts = _form_parts(grid, beta)
    per_mode = []
    for e, _mult in geo.link.eigenvalues_below(e_max):
        pen = laplacian_pencil(grid, e, beta, parts=parts)
        lam = smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=1, num_form=_pencil_num(pen))
        per_mode.append((float(e), float(_sigma_from(lam)[0])))
    sigma_min = min(s for _, s in per_mode)
    return InvertibilityReport(constant=1.0 / sigma_min, sigma_min=sigma_min,
                               per_mode=tuple(per_mode), beta=float(beta),
                               grid_size=grid.n)


@dataclass(frozen=True)
class CompactInvertibilityReport:
    constant: float
    sigma_constrained: float
    sigma_mode0_unconstrained: float
    per_mode: tuple[tuple[float, float], ...]
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
    family: GluedFamily,
    beta: float,
    t,
    e_max: float = 40.0,
    n_per_region: int = 400,
    core: tuple[float, float] | None = None,
) -> CompactInvertibilityReport:
    """Uniform invertibility on compact glued manifolds, transverse to
    constants: the rotation-invariant mode is minimized over

        E_t = {u : Q(eta_t u) = 0},   Q(g) = integral of g over a fixed
                                       core region K of the host,

    while the higher modes are unconstrained.  Also reports the
    unconstrained mode-0 minimum (a near-zero sanity value: constants)."""
    m_geo = family.at(t).geometry
    if not m_geo.circle and _residual_ends(m_geo):
        raise WeightConditionError("model is not compact; use invertibility_constant")
    if not (2 - m_geo.m < beta < 0):
        raise WeightConditionError(
            f"compact-case weight must be constant in (2-m, 0), got {beta}")
    _check_matches_marked(m_geo, float(beta))
    _check_nonexceptional(m_geo, beta)
    grid = build_grid(m_geo, n_per_region=n_per_region)
    if core is None:
        core = _host_core_interval(m_geo)
    eta_vals = np.asarray(m_geo.eta(grid.nodes), dtype=float)
    in_core = (grid.nodes >= core[0]) & (grid.nodes <= core[1])
    vol = grid.quad * grid.f ** (m_geo.m - 1) * grid.volume_factor
    q = eta_vals * vol * in_core

    parts = _form_parts(grid, beta)
    per_mode = []
    sigma0_unc = None
    sigma0_con = None
    for e, _mult in m_geo.link.eigenvalues_below(e_max):
        pen = laplacian_pencil(grid, e, beta, parts=parts)
        nf = _pencil_num(pen)
        if e == 0.0:
            q_red = pen.op.R.T @ q
            lam_u = smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=1, num_form=nf)
            sigma0_unc = float(_sigma_from(lam_u)[0])
            lam_c = smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=1, constraint=q_red,
                                         num_form=nf)
            sigma0_con = float(_sigma_from(lam_c)[0])
            per_mode.append((0.0, sigma0_con))
        else:
            lam = smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=1, num_form=nf)
            per_mode.append((float(e), float(_sigma_from(lam)[0])))
    sigma_min = min(s for _, s in per_mode)
    return CompactInvertibilityReport(
        constant=1.0 / sigma_min,
        sigma_constrained=sigma_min,
        sigma_mode0_unconstrained=sigma0_unc,
        per_mode=tuple(per_mode),
        beta=float(beta),
        core=core,
        grid_size=grid.n,
    )


def _gradient_forms(grid: RadialGrid, beta: float):
    """e -> the values, on the grid's form pattern, of the weighted
    gradient form D1^T diag(wg) D1 + diag(wg e / f^2) of
    poincare_constant, wg = (wextra rho^{1-beta})^2 rho^{-m} times the
    volume element; the e-free product is built once."""
    m = grid.geometry.m
    pat = _form_pattern(grid)
    wg = (grid.wextra * grid.rho ** (1 - beta)) ** 2 * grid.quad \
        * grid.f ** (m - 1) * grid.volume_factor * grid.rho ** (-float(m))
    G0 = pat.sandwich(grid.d1.data, wg)

    def values(e: float) -> np.ndarray:
        G = G0.copy()
        G[pat.diag] += wg * e / grid.f**2
        return G

    return values


@dataclass(frozen=True)
class PoincareReport:
    constant: float
    per_mode: tuple[tuple[float, float], ...]
    beta: float
    grid_size: int


def poincare_constant(
    model,
    beta: float,
    e_max: float = 40.0,
    n_per_region: int = 400,
    r_max: float = 1e3,
    grid: RadialGrid | None = None,
) -> PoincareReport:
    """Largest ratio ||u||_{W_{1,beta}} / ||du||_{L_{beta-1}} over the
    discrete mode spaces, computed per mode as the extreme generalized
    eigenvalue of (k=1 form) against the weighted gradient form
    integrating |u'|^2 + (e/f^2) u^2 with weight rho^{2-2beta} rho^{-m}.

    Requires weights that keep constants out of the space: every residual
    AC end with beta < 0 or CS end with beta > 0."""
    geo = _resolve_geometry(model)
    ends = _residual_ends(geo)
    if not ends:
        raise WeightConditionError("compact model: constants cannot be excluded")
    for b in ends:
        ok = (b.kind == "ac" and beta < 0) or (b.kind == "cs" and beta > 0)
        if not ok:
            raise WeightConditionError(
                f"{b.kind.upper()} end weight {beta} admits constants; "
                "the gradient cannot control the norm")
    for J in geo.junctions:
        if not J.beta < 0:
            raise WeightConditionError(
                f"marked-end weight {J.beta} must be < 0 on glued necks")
    _check_matches_marked(geo, float(beta))
    if grid is None:
        grid = build_grid(geo, n_per_region=n_per_region, r_max=r_max)
    parts = _form_parts(grid, beta)
    gradient_values = _gradient_forms(grid, beta)
    per_mode = []
    for e, _mult in geo.link.eigenvalues_below(e_max):
        op = assemble_mode_operator(grid, e, beta=beta)
        red, layout, offsets = op.pattern.red, op.pattern.red_dia, op.pattern.offsets
        M1 = red.dia(layout, op.reduce(weighted_form(grid, 1, beta, e, parts=parts).values),
                     offsets)
        G_red = red.dia(layout, op.reduce(gradient_values(e)), offsets)
        lam = smallest_pencil_eigs(G_red, M1, k=1)
        lam0 = max(float(lam[0]), 1e-300)
        per_mode.append((float(e), 1.0 / math.sqrt(lam0)))
    constant = max(c for _, c in per_mode)
    return PoincareReport(constant=constant, per_mode=tuple(per_mode),
                          beta=float(beta), grid_size=grid.n)


# ---------------------------------------------------------------------------
# weight crossing and kernel scans


@dataclass(frozen=True)
class WeightCrossingReport:
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
    grid: RadialGrid | None = None,
) -> WeightCrossingReport:
    """Kernel candidate generated by crossing the exceptional rate gamma:
    extend sigma = r^gamma (mode e) by an interior cutoff, solve
    A_e u = A_e sigma_ext in the decaying-closure space and return
    sigma_ext - u together with a fit of the correction's asymptotic
    slope (expected <= gamma + nu + slack) and the pencil residual of the
    candidate against the calibrated near-null threshold.

    Refused unless the classifier certifies surjectivity just below
    gamma (crossing constructions need the cokernel already gone)."""
    geo = _resolve_geometry(model)
    m = geo.m
    gp, gm = gamma_roots(e, m)
    if not (abs(gamma - gp) < 1e-9 or abs(gamma - gm) < 1e-9):
        raise ValueError(f"{gamma} is not an exceptional rate for eigenvalue {e}")
    ends = _residual_ends(geo)
    ac_ends = [b for b in ends if b.kind == "ac"]
    if len(ac_ends) != 1:
        raise ValueError("weight-crossing construction expects exactly one AC end "
                         "(plus a cap or a CS end)")

    # call-time import: picks up perfbench's tracing patches, a top-level one would not
    from .weight_calculus import (EndDescriptor, WeightVector,
                                  classify_weight_region, exceptional_weights)
    below = [w.gamma for w in exceptional_weights(geo.link, m, (gamma - 10.0, gamma))
             if w.gamma < gamma - 1e-9]
    gap = gamma - max(below) if below else 1.0
    beta_check = gamma - min(0.5 * gap, 0.05)
    facts = classify_weight_region("AC", [EndDescriptor("AC", geo.link)],
                                   WeightVector((beta_check,)), m)
    if facts.surjective is not True:
        raise WeightConditionError(
            f"surjectivity below gamma={gamma} is not certified; "
            "the crossing construction does not apply")

    if grid is None:
        grid = build_grid(geo, n_per_region=n_per_region, r_max=r_max)
    ac = ac_ends[0]
    nu = ac.nu if ac.nu is not None else -1.0

    r = ac.sign * (grid.nodes - ac.x0)
    has_cap = any(b is not None and b.kind == "cap" for b in (geo.left, geo.right))
    if has_cap:
        # interior cutoff: vanish near the cap, pure r^gamma beyond 2R
        R_chart = ac.chart_r
        s = np.clip(np.log(np.maximum(r, 1e-300) / R_chart) / math.log(2.0), 0.0, 1.0)
        chi = np.where(r <= R_chart, 0.0, np.where(r >= 2 * R_chart, 1.0,
                       s**3 * (10 - 15 * s + 6 * s * s)))
        sigma_ext = chi * np.maximum(r, 1e-300) ** gamma
        sigma_ext[r <= 0] = 0.0
    else:
        # no cap: r^gamma is globally defined, no extension cutoff needed
        sigma_ext = grid.rho**gamma

    op = assemble_mode_operator(grid, e)  # decaying closure gamma_minus
    rhs = op.apply(sigma_ext)
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
        lr = np.log(r[tail])
        ly = np.log(np.maximum(np.abs(u_corr[tail]), 1e-300))
        lr = lr - lr.mean()
        slope = float(np.sum(lr * (ly - ly.mean())) / np.sum(lr * lr))

    # pencil residual of the candidate at a weight that admits it
    above = [w.gamma for w in exceptional_weights(geo.link, m, (gamma, gamma + 10.0))
             if w.gamma > gamma + 1e-9]
    gap_up = (min(above) - gamma) if above else 1.0
    beta_res = gamma + min(0.5 * gap_up, 0.25)
    pen = laplacian_pencil(grid, e, beta_res, kernel_scan=True)
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
    r_max: float = 1e3,
    grid: RadialGrid | None = None,
) -> list[KernelScanRow]:
    """Detected kernel dimension of Delta: W_{2,beta} -> W_{0,beta-2} per
    weight: per mode, near-null generalized singular values (below the
    calibrated threshold) are counted and weighted by the link
    multiplicity.  The truncation closure admits the growing harmonic
    branch whenever the weight does, so kernel elements with cone-rate
    gamma_plus < beta are representable.  Values clustering around the
    threshold are flagged as ambiguous."""
    geo = _resolve_geometry(model)
    for b in _residual_ends(geo):
        if b.kind != "ac":
            raise ValueError("kernel scan expects AC (or capped) models")
    if grid is None:
        grid = build_grid(geo, n_per_region=n_per_region, r_max=r_max)
    npd = _grid_nodes_per_decade(grid)
    betas = [float(beta) for beta in beta_list]
    for beta in betas:
        _check_nonexceptional(geo, beta)
    mesh = _threshold_mesh(geo.link, geo.m, e_max, npd, _THRESHOLD_SPAN)
    thresholds = [near_null_threshold(geo.link, geo.m, e_max, beta, npd, mesh=mesh)
                  for beta in betas]
    del mesh  # freed before the pencils are built
    rows = []
    for beta, thr in zip(betas, thresholds):
        parts = _form_parts(grid, beta)
        total = 0
        per_mode = []
        ambiguous = False
        for e, mult in geo.link.eigenvalues_below(e_max):
            pen = laplacian_pencil(grid, e, beta, kernel_scan=True, parts=parts)
            k = min(4, pen.op.n_interior - 2)
            sig = _sigma_from(smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=k,
                                                   num_form=_pencil_num(pen)))
            hits = int(np.count_nonzero(sig < thr))
            if np.any((sig >= thr / 3.0) & (sig <= 3.0 * thr)):
                ambiguous = True
            total += hits * mult
            per_mode.append((float(e), int(mult), float(sig[0])))
        rows.append(KernelScanRow(beta=beta, dimension=total,
                                  per_mode=tuple(per_mode), threshold=thr,
                                  ambiguous=ambiguous))
    return rows
