"""Exactness oracles for the pencil solves and the band fills.

smallest_pencil_eigs takes A and B as bands, builds their DIA matrices
on common offsets, gives splu the CSC matrix of A - sigma B and gives
ARPACK the DIA product of B; the radial operator, the reduction R, the
pencils and the reduced forms are bands, filled diagonal by diagonal;
densities, form products and the engine's B products multiply by bands
row by row, densities on the window's stencil rows only.  The scipy versions they replace are kept here as reference
implementations, taking the stencils and R from the loop references in
stencil_refs, and the package versions must reproduce them bit for bit:
the same arrays, the same bytes of every product, the same eigenvalues.
Grids: an interval with two AC ends (dumbbell), a circle (spindle: its
stencils wrap) and an interval with a cap (hyperboloid).

The certified-shift engine (_upper_bands, _spectrum_slice,
_shift_invert_lanczos, _certified_smallest) changes the arithmetic, so it
is held to dense scipy.linalg.eigh on these grids at a stated relative
tolerance, to its own bracket, and to the ARPACK solve from the base
shift on a clustered mode; it calls neither ARPACK nor scipy.linalg.eigh.
Its interval bands are sliced and kept bitwise equal to the general
scatter, kept here as the reference.  A warm start from an estimate of
the smallest value (near) is held to the cold solve and to dense eigh,
also for estimates far above and below it, and to at most three
factorizations between neighbouring t of a smooth sweep.

The constrained mode-0 solve of the compact constant
(_constrained_smallest: one factorization, projected Lanczos) is held to
dense scipy.linalg.eigh on the complement of the constraint at a stated
relative tolerance, to interlacing with the unconstrained pencil, and to
its two refusals.

The exclusion test (_spectrum_above: one factorization of A - s B) is
held to pencils with known eigenvalues, and the two constants that use
it (compact and Poincare) to the extremum of solving every mode.  Their
one mode sweep (_mode_sweep) is held, on diagonal pencils, to testing
each mode against the running minimum as a later mode lowers it.
Poincare's pencil (the k = 1 form's gradient block against its L^2
mass) is held to the norms of sampled profiles and, in its ratio, to the
pencil (gradient form, k = 1 form) it replaced, solved densely."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.lapack import dpbtrf

from conifold_lab import spectral_laplace as sl
from conifold_lab.conifold_model import dumbbell_family, preset_model, spindle_family
from conifold_lab.link_spectra import make_link
from conifold_lab.spectral_laplace import (
    ClosureRule,
    _base_shift,
    _certified_smallest,
    _constrained_smallest,
    _default_closures,
    _csr,
    _deterministic_v0,
    _dia,
    _form_parts,
    _poincare_pencils,
    _polished,
    _reduction_matrix,
    _shift_invert_lanczos,
    _spectrum_above,
    _spectrum_slice,
    _upper_bands,
    assemble_mode_operator,
    laplacian_pencil,
    poincare_constant,
    restricted_invertibility_compact,
    smallest_pencil_eigs,
    weighted_form,
)
from conifold_lab.weighted_calc import (
    ModeFunction,
    ModeProfile,
    WeightSpec,
    _band_rows,
    _support_window,
    build_grid,
    densities,
    gradient_norm,
    weighted_sobolev_norm,
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


def ref_smallest_pencil_eigs(A, B, k=1, num_form=None):
    """eigsh's own mode 3 (it factors A - sigma B itself), plus the
    polish."""
    n = A.shape[0]
    k = min(k, n - 2)
    scale = max((A.diagonal().sum() / max(B.diagonal().sum(), 1e-300)), 1e-300)
    sigma = -1e-8 * scale
    vals, vecs = spla.eigsh(A, k=k, M=B, sigma=sigma, which="LM", v0=_deterministic_v0(n))
    if num_form is None:
        return np.sort(vals)
    return np.sort([num_form(v) / max(float(v @ (B @ v)), 1e-300) for v in vecs.T])


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


def solves(grid):
    """(label, A, B, num_form, A and B as bands): the pencils (k = 1 and
    the kernel scan's k = 4) and Poincare's pencil, whose forms come as
    bands from ModeOperator.reduce; A and B are the sorted CSC matrices."""
    out = []
    for e in modes(grid)[:3]:
        for beta in (-0.5, 0.5):  # closed on the decaying, the growing root at e = 0
            pen = laplacian_pencil(grid, e, _form_parts(grid, beta))
            out.append((f"pencil e={e} beta={beta}", pen.A, pen.B, pen.numerator,
                        pen.A_bands, pen.B_bands))
    G, M, _ = _poincare_pencils(grid, -0.5)(2.0)
    out.append(("poincare", _csr(G).tocsc(), _csr(M).tocsc(), None, G, M))
    return out


def dense(X):
    """The band X as a dense array."""
    return _csr(X).toarray()


def shifted(A, B, s):
    """The band A - s B."""
    return {d: A.get(d, 0.0) - s * B.get(d, 0.0) for d in sorted(set(A) | set(B))}


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
    cases = {_default_closures(grid, e, b) for e in modes(grid) for b in (None, 0.5, 2.5)}
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


def kernel_scan_weights():
    """The weights of the benchmark's kernel_scan workload, every input seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return sorted({w for s in range(inputs.REFERENCE_SEEDS)
                   for w in inputs.make_inputs("kernel_scan", s)["weights"]})


def test_ac_closure_follows_the_weight():
    """An AC truncation closes on the growing root gamma_+ of the indicial
    polynomial gamma^2 + (m - 2) gamma - e exactly when the weight admits
    r^gamma_+ (gamma_+ < beta), else (or with no weight) on the decaying
    root gamma_-.  The weights: the acceptance suite's -0.5, a grid
    between the exceptional rates -2 .. 4 and the benchmark's kernel-scan
    weights, which lie below gamma_+(0) = 0 and above gamma_+(12) = 3."""
    geo = preset_model("hyperboloid_capped").geometry(0)
    grid = build_grid(geo, n_per_region=20)
    assert (geo.left.kind, geo.right.kind) == ("cap", "ac")
    bench = kernel_scan_weights()
    assert min(bench) < 0.0 and max(bench) > 3.0
    betas = [None, -0.5] + [k + j / 10 for k in range(-2, 5) for j in range(1, 10)] + bench
    for beta in betas:
        for e in (0.0, 0.5, 2.0, 6.0, 12.0, 20.0, 30.0):
            gm, gp = sorted(np.roots([1.0, geo.m - 2.0, -e]).real)
            left, right = _default_closures(grid, e, beta)
            assert left == ClosureRule("cap_even" if e == 0.0 else "zero")
            want = gp if beta is not None and gp < beta else gm
            assert right.kind == "robin"
            assert right.slope == pytest.approx(want, abs=1e-12), (beta, e)


def test_reduced_forms_and_operator_match_scipy(grid, monkeypatch):
    """The reduced forms (k = 0, 1, 2 and Poincare's S1) and the matrix
    the operator solve factors: the values of the scipy products, entry
    for entry; the solve's nodal values are R applied to the interior
    solution."""
    factored = []
    splu = spla.splu
    monkeypatch.setattr(sl.spla, "splu", lambda M: factored.append(M) or splu(M))
    parts = _form_parts(grid, -0.5)
    rhs = np.linspace(-1.0, 2.0, grid.n)
    for e in modes(grid)[:3]:
        op = assemble_mode_operator(grid, e, beta=-0.5)
        R, _ = ref_reduction_matrix(grid, *_default_closures(grid, e, -0.5))
        for bands in (weighted_form(grid, 0, e, parts), parts.S1,
                      weighted_form(grid, 1, e, parts), weighted_form(grid, 2, e, parts)):
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
    """The DIA matrices smallest_pencil_eigs builds from the bands share
    their offsets, ascending; their products, and the band products the
    engine and the polish take, are the CSC products byte for byte."""
    for label, A, B, _nf, A_bands, B_bands in solves(grid):
        A_dia, B_dia = _dia(A_bands, B_bands)
        assert np.all(np.diff(B_dia.offsets) > 0), label
        assert np.array_equal(A_dia.offsets, B_dia.offsets), label
        for X, X_dia, X_bands in ((A, A_dia, A_bands), (B, B_dia, B_bands)):
            assert np.array_equal(X_dia.toarray(), X.toarray()), label
            for x in vectors(X.shape[0]):
                assert (X_dia @ x).tobytes() == (X @ x).tobytes(), label
                assert _band_rows(X_bands, x).tobytes() == (X @ x).tobytes(), label


def test_shifted_operator_is_what_splu_gets_from_eigsh(grid, monkeypatch):
    factored = []
    splu = spla.splu
    monkeypatch.setattr(sl.spla, "splu", lambda M: factored.append(M) or splu(M))
    for label, A, B, _nf, A_bands, B_bands in solves(grid):
        sigma = -1e-8 * A.diagonal().sum() / B.diagonal().sum()
        want = (A - sigma * B).tocsc()
        want.sum_duplicates()  # splu's first step: sorted, canonical
        factored.clear()
        smallest_pencil_eigs(A_bands, B_bands, k=1)
        shifted, = factored
        assert shifted.format == "csc" and shifted.has_sorted_indices, label
        for attr in ("data", "indices", "indptr"):
            got, ref = getattr(shifted, attr), getattr(want, attr)
            assert got.dtype == ref.dtype, (label, attr)
            assert np.array_equal(got, ref), (label, attr)


def test_eigenvalues_equal_eigsh_with_its_own_operator(grid):
    for label, A, B, nf, A_bands, B_bands in solves(grid):
        for k in (1, 4):
            want = ref_smallest_pencil_eigs(A, B, k=k, num_form=nf)
            got = smallest_pencil_eigs(A_bands, B_bands, k=k, num_form=nf)
            assert got.tobytes() == np.asarray(want).tobytes(), (label, k)


def test_every_solve_factors_once_before_arpack(grid, monkeypatch):
    calls, products = [], []

    def splu(M, *args, **kwargs):
        calls.append(("splu", M.format, M.has_sorted_indices))
        return spla.splu(M, *args, **kwargs)

    def eigsh(A, *args, M=None, OPinv=None, **kwargs):
        calls.append(("eigsh", OPinv is not None))
        products.append(M)
        return spla.eigsh(A, *args, M=M, OPinv=OPinv, **kwargs)

    monkeypatch.setattr(sl, "spla", type("spla", (), {
        "splu": staticmethod(splu), "eigsh": staticmethod(eigsh),
        "LinearOperator": spla.LinearOperator}))
    for label, _A, B, nf, A_bands, B_bands in solves(grid):
        calls.clear()
        products.clear()
        smallest_pencil_eigs(A_bands, B_bands, k=1, num_form=nf)
        assert calls == [("splu", "csc", True), ("eigsh", True)]
        # ARPACK's B product is the DIA product, byte for byte
        M, = products
        for x in vectors(B.shape[0]):
            assert M.matvec(x).tobytes() == (_dia(B_bands)[0] @ x).tobytes(), label
            assert M.matvec(x).tobytes() == (B @ x).tobytes(), label


def test_dia_is_built_only_for_arpack(monkeypatch):
    """The DIA matrices exist only inside smallest_pencil_eigs: the
    Poincare constant builds none, and the invertibility constant one
    pair per ARPACK solve, that of mode 0."""
    built, arpack = [], []
    dia, eigsh = sl._dia, sl.spla.eigsh
    monkeypatch.setattr(sl, "_dia", lambda *bands: built.append(len(bands)) or dia(*bands))
    monkeypatch.setattr(sl.spla, "eigsh", lambda *a, **kw: arpack.append(1) or eigsh(*a, **kw))
    geo = dumbbell_family().at(1e-2)
    poincare_constant(geo, beta=-0.5, e_max=E_MAX, n_per_region=100)
    assert built == [] and arpack == []
    rep = sl.invertibility_constant(geo, beta=-0.5, e_max=E_MAX, n_per_region=100)
    assert rep.per_mode[0][0] == 0.0 and len(rep.per_mode) > 1
    assert built == [2] and len(arpack) == 1


# ---------------------------------------------------------------------------
# the certified-shift engine

# in lambda: the engine's ARPACK solve against LAPACK's dense solver on the
# same assembled pencil; both converge to rounding of the assembled entries
# (measured: at most 2e-12 on these grids)
DENSE_RTOL = 1e-9


def engine_solves(grid):
    """(label, A, B, num_form) as the engine's callers hand them over: the
    pencils of the modes e > 0 with their polish and, where constants are
    excluded (not on the circle), Poincare's forms at every mode."""
    parts, poincare = _form_parts(grid, -0.5), _poincare_pencils(grid, -0.5)
    out = []
    for e in modes(grid):
        if e > 0:
            pen = laplacian_pencil(grid, e, parts)
            out.append((f"pencil e={e}", pen.A_bands, pen.B_bands, pen.numerator))
        if not grid.geometry.circle:
            out.append((f"poincare e={e}", *poincare(e)))
    return out


def test_engine_matches_dense_eigh(grid):
    assert grid.n <= 1500
    for label, A, B, nf in engine_solves(grid):
        vals, vecs = eigh(dense(A), dense(B), subset_by_index=[0, 0])
        want = _polished(vals, vecs, B, nf)[0]
        assert _certified_smallest(A, B, num_form=nf) == pytest.approx(want, rel=DENSE_RTOL), \
            label


def test_band_storage_round_trips(grid):
    """The bands of A and B in LAPACK's upper storage, on the node order
    that _upper_bands picks, hold the upper triangle of the reordered
    matrices exactly, and the inverse order gives back A and B (to the
    rounding by which the assembled products are not symmetric); a
    circle's order is the interleaved 0, n-1, 1, n-2, ... with
    half-bandwidth 4."""
    pen = laplacian_pencil(grid, 2.0, _form_parts(grid, -0.5))
    n = pen.A.shape[0]
    order, *bands = _upper_bands(pen.A_bands, pen.B_bands)
    kd = bands[0].shape[0] - 1
    if grid.geometry.circle:
        assert kd == 4
        assert list(order[:4]) == [0, n - 1, 1, n - 2]
        assert np.array_equal(np.sort(order), np.arange(n))
    else:
        assert kd == 2
        assert np.array_equal(order, np.arange(n))
    for X, ab in zip((pen.A, pen.B), bands):
        upper = np.zeros((n, n))
        for d in range(kd + 1):  # row kd - d holds offset d
            upper[np.arange(n - d), np.arange(d, n)] = ab[kd - d, d:]
        full = X.toarray()
        assert np.array_equal(upper, np.triu(full[np.ix_(order, order)]))
        back = np.argsort(order)
        symmetric = (upper + np.triu(upper, 1).T)[np.ix_(back, back)]
        assert np.abs(symmetric - full).max() <= 1e-15 * np.abs(full).max()


def test_spectrum_slice_brackets_the_smallest_eigenvalue(grid):
    """lo < lam_1 <= hi within 2 % of hi, and the solve at lo is the
    backward-stable solve of (A - lo B) x = b in the caller's node order."""
    for label, A, B, _nf in engine_solves(grid):
        lam = eigh(dense(A), dense(B), eigvals_only=True, subset_by_index=[0, 0])[0]
        lo, hi, solve, _start = _spectrum_slice(A, B)
        assert lo < lam <= hi, label
        assert hi - lo <= 0.02 * hi, label
        M = _csr(shifted(A, B, lo))
        for b in vectors(M.shape[0])[:3]:
            x = solve(b)
            scale = abs(M).sum(axis=1).max() * np.abs(x).max()
            assert np.abs(M @ x - b).max() <= 1e-12 * scale, label


def test_engine_refuses_a_pencil_indefinite_at_the_base_shift():
    grid = build_grid(GEOMETRIES["hyperboloid_capped"](), n_per_region=60)
    pen = laplacian_pencil(grid, 2.0, _form_parts(grid, -0.5))
    B = pen.B_bands
    lam = smallest_pencil_eigs(pen.A_bands, B)[0]
    A = shifted(pen.A_bands, B, 2.0 * lam)
    _order, ab_A, ab_B = _upper_bands(A, B)
    info = dpbtrf(ab_A - _base_shift(A, B) * ab_B)[1]
    assert info > 0
    with pytest.raises(RuntimeError, match=rf"not positive definite .*dpbtrf info = {info}\)"):
        _certified_smallest(A, B)


def ref_upper_bands(A, B):
    """The general scatter of _upper_bands, entry by entry through every
    (offset, row) pair inside the matrix, in the node order it picks."""
    n = A[0].size
    offsets = sorted(set(A) | set(B))
    order = np.arange(n)
    if offsets[-1] > n // 2:
        order[0::2] = np.arange((n + 1) // 2)
        order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    entries = [(d, i, pos[i], pos[i + d]) for d in offsets
               for i in range(n) if 0 <= i + d < n and pos[i + d] >= pos[i]]
    kd = max(b - a for _d, _i, a, b in entries)
    bands = []
    for X in (A, B):
        ab = np.zeros((kd + 1, n))
        for d, i, a, b in entries:
            if d in X:
                ab[kd + a - b, b] = X[d][i]
        bands.append(ab)
    return order, *bands


def test_band_storage_is_the_general_scatter(grid):
    """Interval bands are written by slicing, circle bands by the
    scatter; both are the scatter's arrays exactly, for the pencils and
    Poincare's reduced forms."""
    for label, A, B, _nf in engine_solves(grid):
        for got, want in zip(_upper_bands(A, B), ref_upper_bands(A, B)):
            assert got.dtype == want.dtype and got.shape == want.shape, label
            assert np.array_equal(got, want), label


def test_engine_calls_neither_arpack_nor_dense_eigh(grid, monkeypatch):
    def refused(*_args, **_kwargs):
        raise AssertionError("the engine must not call this")

    monkeypatch.setattr(sl.spla, "eigsh", refused)
    monkeypatch.setattr(scipy.linalg, "eigh", refused)
    for label, A, B, nf in engine_solves(grid):
        assert _certified_smallest(A, B, num_form=nf) > 0.0, label


def test_clustered_mode_matches_arpack():
    """The dumbbell at t = 0.1 and n_per_region 2000, mode e = 12: its
    smallest values crowd the bottom of the truncated continuum, so a
    plain inverse iteration from a shift 1 % under the Rayleigh quotient
    stops on a mixture (sigma 0.81548 for 0.81516).  The engine's sigma
    matches the ARPACK solve from the base shift to 1e-9."""
    grid = build_grid(dumbbell_family().at(1e-1).geometry, n_per_region=2000)
    pen = laplacian_pencil(grid, 12.0, _form_parts(grid, -0.5))
    A, B, nf = pen.A_bands, pen.B_bands, pen.numerator
    lams = smallest_pencil_eigs(A, B, k=2, num_form=nf)
    assert lams[1] < 1.02 * lams[0]  # a cluster: the next value within 2 %
    want = np.sqrt(smallest_pencil_eigs(A, B, num_form=nf)[0])
    assert np.sqrt(_certified_smallest(A, B, num_form=nf)) == pytest.approx(want, rel=1e-9)


def test_lanczos_finds_a_known_spectrum():
    """A diagonal pencil A = 2 diag(lam), B = 2 I at shift 0 whose values
    1, 1.2, 1.22, ... crowd the smallest one: the Lanczos needs about 40
    steps, more than the rows it starts with, and returns lam_1 = 1 to
    rounding with the first unit vector as its Ritz vector."""
    n = 400
    lam = 1.0 + np.r_[0.0, 0.2 * (1.0 + np.arange(n - 1) / 10.0)]
    B = {0: np.full(n, 2.0)}
    steps = []

    def solve(b):
        steps.append(1)
        return b / (2.0 * lam)

    theta, x = _shift_invert_lanczos(solve, B, _deterministic_v0(n))
    assert 24 < len(steps) < sl._LANCZOS_STEPS
    assert 1.0 / theta == pytest.approx(1.0, rel=1e-14)
    assert np.abs(x[1:]).max() <= 1e-12 * abs(x[0])


def test_lanczos_raises_past_its_step_budget(monkeypatch):
    """The clustered e = 12 pencil of the dumbbell needs more than 5
    Lanczos steps at its certified shift; with a budget of 5 the solve
    raises and names the budget."""
    grid = build_grid(dumbbell_family().at(1e-1).geometry, n_per_region=2000)
    pen = laplacian_pencil(grid, 12.0, _form_parts(grid, -0.5))
    monkeypatch.setattr(sl, "_LANCZOS_STEPS", 5)
    with pytest.raises(RuntimeError, match="did not converge in 5 steps"):
        _certified_smallest(pen.A_bands, pen.B_bands, num_form=pen.numerator)


# ---------------------------------------------------------------------------
# warm starts: the certified solve from an estimate of lam_1


def dense_smallest(A, B, nf):
    """(lam_1, lam_1 polished by nf) of the pencil by dense eigh."""
    vals, vecs = eigh(dense(A), dense(B), subset_by_index=[0, 0])
    return vals[0], _polished(vals, vecs, B, nf)[0]


def test_hinted_solve_matches_the_cold_one_and_dense_eigh(grid):
    """Hints 0.3 % below and above lam_1, as from the previous t of a
    sweep, give the cold solve's value and dense eigh's to DENSE_RTOL."""
    for label, A, B, nf in engine_solves(grid):
        lam, want = dense_smallest(A, B, nf)
        cold = _certified_smallest(A, B, num_form=nf)
        for near in (0.997 * lam, 1.003 * lam):
            warm = _certified_smallest(A, B, num_form=nf, near=near)
            assert warm == pytest.approx(cold, rel=DENSE_RTOL), label
            assert warm == pytest.approx(want, rel=DENSE_RTOL), label


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_a_poor_hint_still_gives_the_certified_value(grid, factor):
    """A hint twice lam_1 fails its first factorization and one half of
    lam_1 starts far below it; either way the slice brackets lam_1 within
    2 % and the solve returns dense eigh's value."""
    for label, A, B, nf in engine_solves(grid):
        lam, want = dense_smallest(A, B, nf)
        lo, hi, _solve, _start = _spectrum_slice(A, B, near=factor * lam)
        assert lo < lam <= hi, label
        assert hi - lo <= 0.02 * hi, label
        got = _certified_smallest(A, B, num_form=nf, near=factor * lam)
        assert got == pytest.approx(want, rel=DENSE_RTOL), label


def test_a_warm_solve_on_a_smooth_sweep_factors_at_most_three_times(monkeypatch):
    """Each mode e > 0 of the dumbbell at t = 1e-3, hinted with its value
    at t = 1e-2, costs at most three banded Cholesky factorizations (the
    cold solve takes about eight) and gives the cold value."""
    factorizations = []
    monkeypatch.setattr(sl, "dpbtrf", lambda *a: factorizations.append(1) or dpbtrf(*a))
    grids = [build_grid(dumbbell_family().at(t).geometry, n_per_region=200)
             for t in (1e-2, 1e-3)]
    assert max(g.n for g in grids) <= 1500
    pencils = [{e: laplacian_pencil(g, e, _form_parts(g, -0.5)) for e in modes(g)[1:]}
               for g in grids]
    for e, pen in pencils[1].items():
        near = _certified_smallest(pencils[0][e].A_bands, pencils[0][e].B_bands,
                                   num_form=pencils[0][e].numerator)
        args = pen.A_bands, pen.B_bands, pen.numerator
        factorizations.clear()
        warm = _certified_smallest(*args, near=near)
        assert 1 <= len(factorizations) <= 3, e
        factorizations.clear()
        assert warm == pytest.approx(_certified_smallest(*args), rel=DENSE_RTOL), e
        assert len(factorizations) > 3, e


# ---------------------------------------------------------------------------
# the constrained mode-0 solve of the compact constant

# in lambda, after the polish: the projected Lanczos against LAPACK's dense
# solver on the complement of q (measured: at most 3.6e-9 on these grids,
# the polish's own reproducibility at t = 0.1)
CONSTRAINED_RTOL = 2e-8
CONSTRAINED_TS = (1e-1, 1e-4)


def compact_mode0(t, n_per_region=400):
    """(pencil, q): the spindle's mode-0 pencil at t with the reduced
    transversality functional of restricted_invertibility_compact, eta
    times the volume on the host's core, zero elsewhere."""
    geo = spindle_family().at(t).geometry
    grid = build_grid(geo, n_per_region=n_per_region)
    lo, hi = sl._host_core_interval(geo)
    in_core = (grid.nodes >= lo) & (grid.nodes <= hi)
    q = (np.asarray(geo.eta(grid.nodes)) * grid.quad * grid.f ** (geo.m - 1)
         * grid.volume_factor * in_core)
    pen = laplacian_pencil(grid, 0.0, _form_parts(grid, -0.5))
    return pen, (_csr(pen.op.reduction)[:, pen.op.interior].T @ q)


def complement_basis(q):
    """An orthonormal basis Z of q's complement that mixes only the nodes
    where q is nonzero (the host core): unit vectors elsewhere, so that
    Z^T A Z adds no terms across the scales of the graded mesh (a basis
    mixing every node, as null_space gives, moves the dense value by up to
    1e-3)."""
    n = q.size
    support = np.flatnonzero(q)
    rest = np.setdiff1d(np.arange(n), support)
    Z = np.zeros((n, n - 1))
    Z[rest, np.arange(rest.size)] = 1.0
    Z[np.ix_(support, np.arange(rest.size, n - 1))] = scipy.linalg.null_space(
        q[support][None, :])
    return Z


@pytest.mark.parametrize("t", CONSTRAINED_TS)
def test_constrained_solve_matches_dense_eigh(t, monkeypatch):
    """The polished constrained value is the polished smallest eigenvalue
    of (Z^T A Z, Z^T B Z), found without ARPACK or SuperLU, and it is the
    compact report's mode 0."""
    pen, q = compact_mode0(t)
    A, B = pen.A_bands, pen.B_bands
    assert q.size <= 1500
    Z = complement_basis(q)
    assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() <= 1e-13
    assert np.abs(q @ Z).max() <= 1e-13 * np.linalg.norm(q)
    vals, Y = eigh(Z.T @ dense(A) @ Z, Z.T @ dense(B) @ Z, subset_by_index=[0, 0])
    want = _polished(vals, Z @ Y, B, pen.numerator)[0]

    def refused(*_args, **_kwargs):
        raise AssertionError("the constrained solve must not call this")

    with monkeypatch.context() as patched:
        patched.setattr(sl.spla, "eigsh", refused)
        patched.setattr(sl.spla, "splu", refused)
        got = _constrained_smallest(A, B, q, pen.numerator)
    assert got == pytest.approx(want, rel=CONSTRAINED_RTOL)
    rep = restricted_invertibility_compact(spindle_family().at(t), beta=-0.5, e_max=2.0,
                                           n_per_region=400)
    assert rep.per_mode[0] == (0.0, float(np.sqrt(got)))


@pytest.mark.parametrize("t", CONSTRAINED_TS)
def test_constrained_value_interlaces(t):
    """A rank-one constraint puts the smallest value between the first two
    of the unconstrained pencil (Cauchy interlacing), all unpolished; here
    lam_1 is the pencil's rounding floor and lam_c lies 1-13 % under
    lam_2."""
    pen, q = compact_mode0(t)
    A, B = pen.A_bands, pen.B_bands
    lam_1, lam_2 = eigh(dense(A), dense(B), eigvals_only=True, subset_by_index=[0, 1])
    lam_c = _constrained_smallest(A, B, q, None)
    assert lam_1 < lam_c < lam_2
    assert abs(lam_1) < 1e-4 * lam_c


def test_constrained_solve_raises_off_the_constraint(monkeypatch):
    """A Ritz vector is accepted up to |q.x| = 1e-12 |q| |x| and refused
    beyond it."""
    pen, q = compact_mode0(1e-1, n_per_region=100)
    lanczos = sl._shift_invert_lanczos

    def tilted(off):
        def run(solve, B, start):
            theta, x = lanczos(solve, B, start)
            return theta, x + off * np.linalg.norm(x) / np.linalg.norm(q) * q
        return run

    monkeypatch.setattr(sl, "_shift_invert_lanczos", tilted(1e-13))
    assert _constrained_smallest(pen.A_bands, pen.B_bands, q, pen.numerator) > 0.0
    monkeypatch.setattr(sl, "_shift_invert_lanczos", tilted(1e-11))
    with pytest.raises(RuntimeError, match="leaves the constraint"):
        _constrained_smallest(pen.A_bands, pen.B_bands, q, pen.numerator)


def test_constrained_solve_refuses_a_pencil_indefinite_at_its_shift():
    """A - sigma B shifted down by twice the constrained value is
    indefinite at the solve's shift: the solve raises with LAPACK's
    info."""
    pen, q = compact_mode0(1e-1, n_per_region=100)
    B = pen.B_bands
    lam_c = _constrained_smallest(pen.A_bands, B, q, None)
    A = shifted(pen.A_bands, B, 2.0 * lam_c)
    _order, ab_A, ab_B = _upper_bands(A, B)
    sigma = sl._CONSTRAINED_SHIFT * _base_shift(A, B)
    assert sigma < 0.0
    info = dpbtrf(ab_A - sigma * ab_B)[1]
    assert info > 0
    with pytest.raises(RuntimeError, match=rf"not positive definite .*dpbtrf info = {info}\)"):
        _constrained_smallest(A, B, q, None)


# ---------------------------------------------------------------------------
# ruling modes out of a constant by one factorization


def known_pencil(kind):
    """(A, B, lam_1) as bands.  interval: A = 2 diag(lam), B = 2 I, lam =
    1, 1 + 1/n, ...  circle: the cycle Laplacian plus I (offsets +-1 and
    the wraps +-(n - 1)) against B = I, with eigenvalues 3 - 2 cos(2 pi k
    / n), the smallest 1 on the constants."""
    n = 101
    if kind == "interval":
        return {0: 2.0 * (1.0 + np.arange(n) / n)}, {0: np.full(n, 2.0)}, 1.0
    A = {0: np.full(n, 3.0)}
    for d in (-(n - 1), -1, 1, n - 1):
        A[d] = np.zeros(n)
        A[d][max(0, -d):n - max(0, d)] = -1.0
    return dict(sorted(A.items())), {0: np.ones(n)}, 1.0


@pytest.mark.parametrize("kind", ["interval", "circle"])
def test_exclusion_test_splits_at_the_smallest_eigenvalue(kind):
    A, B, lam = known_pencil(kind)
    assert lam == pytest.approx(eigh(dense(A), dense(B), eigvals_only=True)[0], rel=1e-14)
    order = _upper_bands(A, B)[0]
    assert np.array_equal(order, np.arange(order.size)) == (kind == "interval")
    assert _spectrum_above(A, B, lam * (1.0 - 1e-9))
    assert not _spectrum_above(A, B, lam * (1.0 + 1e-9))


EXCLUSION_TS = (1e-1, 1e-4)
EXCLUSION_N = 150


def compact_reports(t):
    glued = spindle_family().at(t)
    return glued, restricted_invertibility_compact(glued, beta=-0.5, e_max=E_MAX,
                                                   n_per_region=EXCLUSION_N)


def poincare_reports(t):
    geo = dumbbell_family().at(t)
    return geo, poincare_constant(geo, beta=-0.5, e_max=E_MAX, n_per_region=EXCLUSION_N)


def assert_split(rep, modes_all):
    """Every mode is in exactly one of per_mode and bounded."""
    solved, ruled_out = [e for e, _ in rep.per_mode], [e for e, _ in rep.bounded]
    assert sorted(solved + ruled_out) == modes_all
    assert not set(solved) & set(ruled_out)


@pytest.mark.parametrize("t", EXCLUSION_TS)
def test_compact_constant_is_the_min_over_every_mode_solved(t):
    """The spindle's compact constant equals 1 / min sigma with every mode
    e > 0 solved by _certified_smallest (mode 0 is the report's own
    constrained solve); each bound lies below its mode's solved sigma, and
    no mode's pencil passes the test at the margin above its own value."""
    glued, rep = compact_reports(t)
    grid = build_grid(glued.geometry, n_per_region=EXCLUSION_N)
    parts = _form_parts(grid, -0.5)
    sigma = {0.0: rep.per_mode[0][1]}
    for e in modes(grid)[1:]:
        pen = laplacian_pencil(grid, e, parts)
        lam = _certified_smallest(pen.A_bands, pen.B_bands, num_form=pen.numerator)
        sigma[e] = float(np.sqrt(max(lam, 0.0)))
        assert not _spectrum_above(pen.A_bands, pen.B_bands,
                                   (1.0 + sl._EXCLUSION_MARGIN) * lam)
    assert rep.per_mode[0][0] == 0.0
    assert_split(rep, modes(grid))
    assert rep.bounded  # mode 0 sets the constant at these t
    assert rep.constant == 1.0 / min(sigma.values())
    for e, s in rep.per_mode:
        assert s == sigma[e], e
    for e, bound in rep.bounded:
        assert rep.sigma_constrained < bound < sigma[e], e


@pytest.mark.parametrize("t", EXCLUSION_TS)
def test_poincare_constant_is_the_max_over_every_mode_solved(t):
    """The dumbbell's Poincare constant equals the max ratio with every
    mode solved by _certified_smallest; each bound lies above its mode's
    solved ratio, and no mode's pencil passes the test at the margin
    above its own value."""
    geo, rep = poincare_reports(t)
    grid = build_grid(geo.geometry, n_per_region=EXCLUSION_N, r_max=1e3)
    poincare = _poincare_pencils(grid, -0.5)
    ratio = {}
    for e in modes(grid):
        G, M, _ = poincare(e)
        nu = _certified_smallest(G, M)
        ratio[e] = np.sqrt(1.0 + 1.0 / nu)
        assert not _spectrum_above(G, M, (1.0 + sl._EXCLUSION_MARGIN) * nu)
    assert_split(rep, modes(grid))
    assert rep.bounded
    assert rep.constant == max(ratio.values())
    for e, c in rep.per_mode:
        assert c == ratio[e], e
    for e, bound in rep.bounded:
        assert ratio[e] < bound < rep.constant, e


def test_poincare_forms_are_the_norms_of_the_profiles(grid):
    """Per mode, Poincare's numerator and mass forms give, at a sampled
    reduced vector v, gradient_norm(u)**2 and the squared k = 0
    weighted_sobolev_norm of its profile u = R v."""
    assert grid.n <= 1500
    rng = np.random.default_rng(3)
    poincare = _poincare_pencils(grid, -0.5)
    for e in modes(grid):
        G, M, _ = poincare(e)
        op = assemble_mode_operator(grid, e, beta=-0.5)
        for _ in range(3):
            v = rng.standard_normal(op.interior.size)
            full = np.zeros(grid.n)
            full[op.interior] = v
            u = ModeFunction.single(grid, e, _band_rows(op.reduction, full))
            assert v @ _band_rows(G, v) == pytest.approx(gradient_norm(u, 2.0, -0.5) ** 2,
                                                         rel=1e-12), e
            mass = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=0, beta=-0.5)) ** 2
            assert v @ _band_rows(M, v) == pytest.approx(mass, rel=1e-12), e


@pytest.mark.parametrize("name", ["dumbbell_t1e-3", "hyperboloid_capped"])
def test_poincare_ratio_is_the_old_pencils(name):
    """Per mode, sqrt(1 + 1/nu_1) of Poincare's pencil, solved by the
    engine, is 1/sqrt(lam_1) of the pencil (gradient form, k = 1 form) it
    replaced, built densely here with that gradient form's own weight
    (wextra rho^{1-beta})^2 rho^{-m} times the volume element.  Not on the
    circle, which keeps the constants (lam_1 = 0 at e = 0)."""
    g, beta = build_grid(GEOMETRIES[name](), n_per_region=200), -0.5
    m = g.geometry.m
    wg = (g.wextra * g.rho ** (1 - beta)) ** 2 * g.quad \
        * g.f ** (m - 1) * g.volume_factor * g.rho ** (-float(m))
    w = g.wextra * g.rho ** (-beta)
    W0, W1 = w**2 * g.volume, (w * g.rho) ** 2 * g.volume
    D1 = dense(g.d1)
    poincare = _poincare_pencils(g, beta)
    for e in modes(g):
        op = assemble_mode_operator(g, e, beta=beta)
        R = dense(op.reduction)[:, op.interior]
        gradient = D1.T @ np.diag(wg) @ D1 + np.diag(wg * e / g.f**2)
        form1 = np.diag(W0) + D1.T @ np.diag(W1) @ D1 + np.diag(W1 * e / g.f**2)
        lam = eigh(R.T @ gradient @ R, R.T @ form1 @ R, subset_by_index=[0, 0],
                   eigvals_only=True)[0]
        nu = _certified_smallest(*poincare(e)[:2])
        assert np.sqrt(1.0 + 1.0 / nu) == pytest.approx(1.0 / np.sqrt(lam), rel=1e-10), e


@pytest.mark.parametrize("solve0", [None, lambda A, B, num_form: float(A[0][0])])
def test_the_sweep_tests_each_mode_against_the_running_minimum(monkeypatch, solve0):
    """Diagonal pencils on the sphere's modes 0, 2, 6, 12 with smallest
    eigenvalues 4, 1, 2, 0.5: mode 2 lowers the running minimum, so mode
    6 (below the old minimum, above the new one) is tested against the
    new one and ruled out, and mode 12 is solved.  Mode 0 goes to solve0
    when there is one; each certified solve starts from near.get(e)."""
    link = make_link("sphere", dim=2)
    least = {0.0: 4.0, 2.0: 1.0, 6.0: 2.0, 12.0: 0.5}
    near = {2.0: 0.99, 6.0: 2.0, 12.0: 0.51}
    n = 12
    shifts, starts = [], []
    above, certified = sl._spectrum_above, sl._certified_smallest
    monkeypatch.setattr(sl, "_spectrum_above",
                        lambda A, B, s: shifts.append(s) or above(A, B, s))
    monkeypatch.setattr(sl, "_certified_smallest",
                        lambda A, B, num_form=None, near=None: starts.append(near)
                        or certified(A, B, num_form=num_form, near=near))
    per_mode, bounded = sl._mode_sweep(
        link, 12.0, lambda e: ({0: least[e] * (1.0 + np.arange(n))}, {0: np.ones(n)}, None),
        near, solve0, exclude=True)
    margin = 1.0 + sl._EXCLUSION_MARGIN
    assert shifts == pytest.approx([4.0 * margin, margin, margin], rel=1e-12)
    assert [e for e, _ in per_mode] == [0.0, 2.0, 12.0]
    for e, lam in per_mode:
        assert lam == pytest.approx(least[e], rel=1e-12), e
    assert [e for e, _ in bounded] == [6.0] and bounded[0][1] == shifts[1]
    assert starts == ([None] if solve0 is None else []) + [0.99, 0.51]


@pytest.mark.parametrize("reports", [compact_reports, poincare_reports])
def test_a_failed_exclusion_test_solves_the_mode(reports, monkeypatch):
    """With every exclusion test failing, every mode is solved and the
    constant is the same."""
    _, rep = reports(1e-1)
    monkeypatch.setattr(sl, "_spectrum_above", lambda A, B, s: False)
    _, solved = reports(1e-1)
    assert rep.bounded and not solved.bounded
    assert [e for e, _ in solved.per_mode] == sorted(
        [e for e, _ in rep.per_mode + rep.bounded])
    assert solved.constant == rep.constant
    assert set(rep.per_mode) <= set(solved.per_mode)


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
