"""Exactness oracles for the pencil solves and the band fills.

smallest_pencil_eigs takes A and B as DIA matrices on common offsets,
gives splu the CSC matrix of A - sigma B and gives ARPACK B as a DIA
matrix; the radial operator, the reduction R, the pencils and the
reduced forms are bands, filled diagonal by diagonal; densities and form
products multiply by bands row by row, densities on the window's stencil
rows only.  The scipy versions they replace are kept here as reference
implementations, taking the stencils and R from the loop references in
stencil_refs, and the package versions must reproduce them bit for bit:
the same arrays, the same bytes of every product, the same eigenvalues.
Grids: an interval with two AC ends (dumbbell), a circle (spindle: its
stencils wrap) and an interval with a cap (hyperboloid)."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conifold_lab import spectral_laplace as sl
from conifold_lab.conifold_model import dumbbell_family, preset_model, spindle_family
from conifold_lab.spectral_laplace import (
    ClosureRule,
    _default_closures,
    _csr,
    _deterministic_v0,
    _dia,
    _form_parts,
    _gradient_forms,
    _reduction_matrix,
    assemble_mode_operator,
    laplacian_pencil,
    smallest_pencil_eigs,
    weighted_form,
)
from conifold_lab.weighted_calc import (
    ModeFunction,
    ModeProfile,
    _band_rows,
    _support_window,
    build_grid,
    densities,
)
from stencil_refs import assert_same_csr, ref_derivatives, ref_reduction_matrix

# ---------------------------------------------------------------------------
# reference implementations


def ref_radial_operator(grid):
    m = grid.geometry.m
    rho2 = grid.rho**2
    d1, d2 = ref_derivatives(grid)
    return (sp.diags(-rho2) @ d2
            + sp.diags(-(m - 1.0) * rho2 * grid.fp / grid.f) @ d1)


def ref_smallest_pencil_eigs(A, B, k=1, constraint=None, num_form=None):
    """eigsh's own mode 3 (it factors A - sigma B itself), or the
    bordered solve on (A - sigma B).tocsc(), plus the polish."""
    n = A.shape[0]
    k = min(k, n - 2)
    scale = max((A.diagonal().sum() / max(B.diagonal().sum(), 1e-300)), 1e-300)
    sigma = -1e-8 * scale

    def polish(vals, vecs):
        if num_form is None:
            return np.sort(vals)
        return np.sort([num_form(v) / max(float(v @ (B @ v)), 1e-300) for v in vecs.T])

    if constraint is None:
        vals, vecs = spla.eigsh(A, k=k, M=B, sigma=sigma, which="LM",
                                v0=_deterministic_v0(n))
        return polish(vals, vecs)
    q = np.asarray(constraint, dtype=float)
    K = sp.bmat([[(A - sigma * B).tocsc(), q[:, None]], [q[None, :], None]], format="csc")
    lu = spla.splu(K)
    OPinv = spla.LinearOperator((n, n), matvec=lambda b: lu.solve(np.r_[b, 0.0])[:-1])
    v0 = _deterministic_v0(n)
    v0 = v0 - q * (q @ v0) / (q @ q)
    vals, vecs = spla.eigsh(A, k=k, M=B, sigma=sigma, which="LM", OPinv=OPinv, v0=v0)
    return polish(vals, vecs)


# ---------------------------------------------------------------------------
# grids and the solves on them


GEOMETRIES = {
    "dumbbell_t1e-3": lambda: dumbbell_family().at(1e-3).geometry,
    "spindle_t1e-2": lambda: spindle_family().at(1e-2).geometry,
    "hyperboloid_capped": lambda: preset_model("hyperboloid_capped").geometry(0),
}
E_MAX = 12.0


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def grid(request):
    return build_grid(GEOMETRIES[request.param](), n_per_region=200)


def modes(grid):
    return [e for e, _ in grid.geometry.link.eigenvalues_below(E_MAX)]


def core_functional(grid):
    """The transversality functional of the compact solve, on the nodes."""
    return np.asarray(grid.quad * grid.f**2)


def solves(grid):
    """(label, A, B, constraint, num_form, pencil-side A and B): the
    pencils unconstrained (k = 1 and the kernel scan's k = 4) and, at
    e = 0, bordered; and Poincare's pencil, whose forms come as bands
    from ModeOperator.reduce."""
    out = []
    for e in modes(grid)[:3]:
        for kernel_scan in (False, True):
            pen = laplacian_pencil(grid, e, _form_parts(grid, -0.5), kernel_scan=kernel_scan)
            out.append((f"pencil e={e}", pen.A, pen.B, None, pen.numerator,
                        pen.A_dia, pen.B_dia))
        if e == 0.0:
            q = _csr(pen.op.reduction)[:, pen.op.interior].T @ core_functional(grid)
            out.append(("bordered", pen.A, pen.B, q, pen.numerator, pen.A_dia, pen.B_dia))
    op = assemble_mode_operator(grid, 2.0, beta=-0.5)
    G, M1 = _dia(op.reduce(_gradient_forms(grid, -0.5)(2.0)),
                 op.reduce(weighted_form(grid, 1, 2.0, _form_parts(grid, -0.5))))
    out.append(("poincare", G.tocsc(), M1.tocsc(), None, None, G, M1))
    return out


def vectors(n):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    sparse = np.zeros(n)
    sparse[[0, 1, n // 2, n - 1]] = (1.0, -3.0, 0.5, 2.0)
    return [x, sparse, _deterministic_v0(n), np.abs(x) * 1e-200]


# ---------------------------------------------------------------------------
# the radial operator and the reduction


def test_radial_operator_matches_reference(grid):
    assert list(grid.radial_operator) == list(grid.d1)
    assert_same_csr(_csr(grid.radial_operator), ref_radial_operator(grid).tocsr())


def test_reduction_matrix_matches_reference(grid):
    cases = {_default_closures(grid, e, b, ks) for e in modes(grid)
             for b in (None, 0.5) for ks in (False, True)}
    if not grid.geometry.circle:
        def rules(end):
            robin = [ClosureRule("robin", -1.5)] if end.kind in ("ac", "cs") else []
            return [ClosureRule("zero"), ClosureRule("cap_even")] + robin

        cases |= {(left, right) for left in rules(grid.geometry.left)
                  for right in rules(grid.geometry.right)}
    for left, right in cases:
        reduction, interior = _reduction_matrix(grid, left, right)
        assert set(reduction) <= {-2, -1, 0, 1, 2}
        R_ref, interior_ref = ref_reduction_matrix(grid, left, right)
        assert np.array_equal(interior, interior_ref)
        assert_same_csr(_csr(reduction)[:, interior], R_ref)


def test_reduced_forms_and_operator_match_scipy(grid, monkeypatch):
    """Poincare's reduced forms and the matrix the operator solve
    factors: the values of the scipy products, entry for entry; the
    solve's nodal values are R applied to the interior solution."""
    factored = []
    splu = spla.splu
    monkeypatch.setattr(sl.spla, "splu", lambda M: factored.append(M) or splu(M))
    parts = _form_parts(grid, -0.5)
    rhs = np.linspace(-1.0, 2.0, grid.n)
    for e in modes(grid)[:3]:
        op = assemble_mode_operator(grid, e, beta=-0.5)
        R, _ = ref_reduction_matrix(grid, *_default_closures(grid, e, -0.5, False))
        for bands in (weighted_form(grid, 1, e, parts), _gradient_forms(grid, -0.5)(e),
                      weighted_form(grid, 2, e, parts)):
            form = _csr(bands)
            _assert_same_entries(_csr(op.reduce(bands)).tocsc(), (R.T @ form @ R).tocsc())
        want = (_csr(op.P)[op.interior] @ R).tocsc()
        factored.clear()
        got_u = op.solve(rhs)
        got, = factored
        assert got.format == "csc"
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        u_int = splu(want).solve(rhs[op.interior])
        assert got_u.tobytes() == (R @ u_int).tobytes()


def _assert_same_entries(got, want):
    got, want = got.sorted_indices(), want.sorted_indices()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


# ---------------------------------------------------------------------------
# solves


def test_dia_products_are_the_csc_products_byte_for_byte(grid):
    for label, A, B, _q, _nf, A_dia, B_dia in solves(grid):
        assert np.all(np.diff(B_dia.offsets) > 0), label
        assert np.array_equal(A_dia.offsets, B_dia.offsets), label
        for X, X_dia in ((A, A_dia), (B, B_dia)):
            assert np.array_equal(X_dia.toarray(), X.toarray()), label
            for x in vectors(X.shape[0]):
                assert (X_dia @ x).tobytes() == (X @ x).tobytes(), label


def test_solve_refuses_all_but_dia_on_common_ascending_offsets(grid):
    pen = laplacian_pencil(grid, 2.0, _form_parts(grid, -0.5))
    A, B = pen.A_dia, pen.B_dia
    reversed_ = [sp.dia_matrix((X.data[::-1], X.offsets[::-1]), shape=X.shape) for X in (A, B)]
    fewer = sp.dia_matrix((A.data[1:], A.offsets[1:]), shape=A.shape)
    for pair in ((pen.A, pen.B), (A, pen.B), (A.toarray(), B), reversed_, (fewer, B)):
        with pytest.raises(ValueError, match="DIA"):
            smallest_pencil_eigs(*pair, k=1)


def test_shifted_operator_is_what_splu_gets_from_eigsh(grid, monkeypatch):
    factored = []
    splu = spla.splu
    monkeypatch.setattr(sl.spla, "splu", lambda M: factored.append(M) or splu(M))
    for label, A, B, _q, _nf, A_dia, B_dia in solves(grid):
        sigma = -1e-8 * A.diagonal().sum() / B.diagonal().sum()
        want = (A - sigma * B).tocsc()
        want.sum_duplicates()  # splu's first step: sorted, canonical
        factored.clear()
        smallest_pencil_eigs(A_dia, B_dia, k=1)
        shifted, = factored
        assert shifted.format == "csc" and shifted.has_sorted_indices, label
        for attr in ("data", "indices", "indptr"):
            got, ref = getattr(shifted, attr), getattr(want, attr)
            assert got.dtype == ref.dtype, (label, attr)
            assert np.array_equal(got, ref), (label, attr)


def test_eigenvalues_equal_eigsh_with_its_own_operator(grid):
    for label, A, B, q, nf, A_dia, B_dia in solves(grid):
        for k in ((1, 4) if q is None else (1,)):
            want = ref_smallest_pencil_eigs(A, B, k=k, constraint=q, num_form=nf)
            got = smallest_pencil_eigs(A_dia, B_dia, k=k, constraint=q, num_form=nf)
            assert got.tobytes() == np.asarray(want).tobytes(), (label, k)


def test_every_solve_factors_once_before_arpack(grid, monkeypatch):
    calls = []

    def splu(M, *args, **kwargs):
        calls.append(("splu", M.format, M.has_sorted_indices))
        return spla.splu(M, *args, **kwargs)

    def eigsh(A, *args, M=None, OPinv=None, **kwargs):
        calls.append(("eigsh", M.format, OPinv is not None))
        return spla.eigsh(A, *args, M=M, OPinv=OPinv, **kwargs)

    monkeypatch.setattr(sl, "spla", type("spla", (), {
        "splu": staticmethod(splu), "eigsh": staticmethod(eigsh),
        "LinearOperator": spla.LinearOperator}))
    for _label, _A, _B, q, nf, A_dia, B_dia in solves(grid):
        calls.clear()
        smallest_pencil_eigs(A_dia, B_dia, k=1, constraint=q, num_form=nf)
        assert calls == [("splu", "csc", True), ("eigsh", "dia", True)]


def test_singular_factor_reaches_the_dense_fallback(monkeypatch):
    grid = build_grid(GEOMETRIES["hyperboloid_capped"](), n_per_region=60)
    pen = laplacian_pencil(grid, 2.0, _form_parts(grid, -0.5))
    want = smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=1)

    def singular(_M):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sl.spla, "splu", singular)
    assert smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=1) == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------------------
# window rows of the derivatives


def window_cases(grid):
    n = grid.n
    yield from (slice(0, 3), slice(0, 6), slice(1, 4), slice(n - 3, n), slice(n - 6, n),
                slice(n - 4, n - 1), slice(n // 2 - 3, n // 2 + 3), slice(0, n))


def functions(grid):
    rng = np.random.default_rng(3)
    e1 = modes(grid)[1]
    dense = ModeFunction(grid, (ModeProfile(0.0, rng.standard_normal(grid.n)),
                                ModeProfile(e1, rng.standard_normal(grid.n))))
    v = np.zeros(grid.n)
    v[[2, grid.n - 3]] = 1.0  # reached by the one-sided rows 0 and n - 1
    return [dense, ModeFunction.single(grid, e1, v)]


def test_window_rows_are_the_full_products_byte_for_byte(grid):
    """The band product of the stencils d1 and d2, whose rows the
    windowed densities use: the DIA product and the loop reference's CSR
    product, byte for byte, including row 0, row n - 1 and (on the
    circle) the seam."""
    stencils = list(zip((grid.d1, grid.d2), ref_derivatives(grid)))
    for u in functions(grid):
        for mp in u.modes:
            for D, ref in stencils:
                full = _dia(D)[0] @ mp.values
                assert full.tobytes() == (ref @ mp.values).tobytes()
                assert _band_rows(D, mp.values).tobytes() == full.tobytes()


def test_form_norms_are_the_dia_products_byte_for_byte(grid):
    for e in modes(grid)[:3]:
        for k in (0, 1, 2):
            form = weighted_form(grid, k, e, _form_parts(grid, -0.5))
            M = _dia(form)[0]
            for v in vectors(grid.n):
                assert _band_rows(form, v).tobytes() == (M @ v).tobytes()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_windowed_densities_are_slices_of_the_full_ones(grid, k):
    for u in functions(grid):
        full = densities(u, k)
        for win in window_cases(grid):
            for got, want in zip(densities(u, k, win), full):
                assert np.array_equal(got, want[win])


def test_support_window_reaches_the_one_sided_rows():
    """A function living on node 2 (or n - 3) has derivatives at node 0
    (or n - 1), where the one-sided stencils reach two columns."""
    grid = build_grid(GEOMETRIES["hyperboloid_capped"](), n_per_region=60)
    n = grid.n
    for node, end in ((2, 0), (n - 3, n - 1)):
        v = np.zeros(n)
        v[node] = 1.0
        (lo, hi), = _support_window(ModeFunction.single(grid, 0.0, v))
        assert lo <= end < hi
        assert _band_rows(grid.d1, v)[end] != 0.0
