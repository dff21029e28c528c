"""Loop references for the grid's stencils and the closure reduction R,
shared by the exactness oracles.

The package stores d1, d2, the radial operator and R as bands; the
references build them node by node as scipy CSR matrices.  These are the
matrices the scipy reference implementations of the forms, the pencils
and the densities take as their stencil and R inputs: a CSR view of a
band (`_csr`) is not one of them, since it drops the exact-zero middle
coefficient of the uniform rows, which these matrices store."""

import numpy as np
import scipy.sparse as sp


def ref_derivatives(grid):
    """(d1, d2) as CSR matrices, three sorted entries per row."""
    n = grid.n
    hm, hp = grid.spacings()
    rows, cols, v1, v2 = [], [], [], []

    def stencil(i, im, ip, a, b):
        rows.extend([i, i, i])
        cols.extend([im, i, ip])
        v1.extend([-b / (a * (a + b)), (b - a) / (a * b), a / (b * (a + b))])
        v2.extend([2.0 / (a * (a + b)), -2.0 / (a * b), 2.0 / (b * (a + b))])

    if grid.geometry.circle:
        for i in range(n):
            stencil(i, (i - 1) % n, (i + 1) % n, hm[i], hp[i])
    else:
        for i in range(1, n - 1):
            stencil(i, i - 1, i + 1, hm[i], hp[i])
        h1, h2 = grid.nodes[1] - grid.nodes[0], grid.nodes[2] - grid.nodes[1]
        rows.extend([0, 0, 0])
        cols.extend([0, 1, 2])
        v1.extend([-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2),
                   -h1 / (h2 * (h1 + h2))])
        v2.extend([2.0 / (h1 * (h1 + h2)), -2.0 / (h1 * h2), 2.0 / (h2 * (h1 + h2))])
        g1, g2 = grid.nodes[-1] - grid.nodes[-2], grid.nodes[-2] - grid.nodes[-3]
        rows.extend([n - 1, n - 1, n - 1])
        cols.extend([n - 1, n - 2, n - 3])
        v1.extend([(2 * g1 + g2) / (g1 * (g1 + g2)), -(g1 + g2) / (g1 * g2),
                   g1 / (g2 * (g1 + g2))])
        v2.extend([2.0 / (g1 * (g1 + g2)), -2.0 / (g1 * g2), 2.0 / (g2 * (g1 + g2))])
    return (sp.csr_matrix((v1, (rows, cols)), shape=(n, n)),
            sp.csr_matrix((v2, (rows, cols)), shape=(n, n)))


def ref_reduction_matrix(grid, left, right):
    """(R, interior): R the n x n_interior CSR matrix with
    u_full = R u_interior."""
    n = grid.n
    if grid.geometry.circle:
        return sp.identity(n, format="csr"), np.arange(n)
    interior = np.arange(1, n - 1)
    rows, cols, vals = [], [], []
    for i_local, i in enumerate(interior):
        rows.append(i)
        cols.append(i_local)
        vals.append(1.0)

    def add_boundary(i_bnd, rule, b):
        if rule.kind == "zero":
            return
        if rule.kind == "cap_even":
            i1, i2 = (1, 2) if i_bnd == 0 else (n - 2, n - 3)
            h1 = abs(grid.nodes[i1] - grid.nodes[i_bnd])
            h2 = abs(grid.nodes[i2] - grid.nodes[i_bnd])
            den = h2 * h2 - h1 * h1
            rows.extend([i_bnd, i_bnd])
            cols.extend([i1 - 1, i2 - 1])
            vals.extend([h2 * h2 / den, -h1 * h1 / den])
            return
        i_adj = 1 if i_bnd == 0 else n - 2
        r_b = b.sign * (grid.nodes[i_bnd] - b.x0)
        r_a = b.sign * (grid.nodes[i_adj] - b.x0)
        rows.append(i_bnd)
        cols.append(i_adj - 1)
        vals.append((r_b / r_a) ** rule.slope)

    add_boundary(0, left, grid.geometry.left)
    add_boundary(n - 1, right, grid.geometry.right)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, interior.size)), interior


def assert_same_csr(got, want):
    """Same type, shape, data, indices and index pointers, dtypes
    included."""
    assert type(got) is type(want)
    assert got.shape == want.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        assert np.array_equal(a, b), attr
