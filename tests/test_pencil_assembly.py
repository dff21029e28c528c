"""Exactness oracles for the pencil assembly.

The mode operator, the weighted forms, the pencil and the near-null
threshold build their e-independent parts once per grid (or once per
grid and weight) and add only the e-dependent terms per mode.  The
forms, Poincare's gradient block and mass, Pi, A and B are bands (one
array per diagonal) filled by one band product that adds each entry's
terms over the inner index ascending, starting from 0, as scipy's
csr_matmat does.  The per-mode scipy versions that rebuild everything
are kept here as reference implementations, taking the stencils and R
from the loop references in stencil_refs; the package versions must
reproduce them bit for bit (same CSR data, indices and index pointers;
A and B, whose unsorted CSC order only scipy's product leaves, entry for
entry; same weights, threshold and factored numerator).  Weights are visited in the
order b1, b2, b1, so parts kept from another weight would show; the
forms are also checked on a coarse grid (n_per_region=20), where few
rows are regular.  The mode operators and pencils are checked at weights
that close every AC truncation on the decaying root (None, -0.5) and at
weights that close some of them on the growing root (0.5, 2.5)."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from conifold_lab.conifold_model import (
    Component,
    ConifoldModel,
    EndSpec,
    dumbbell_family,
    preset_model,
    spindle_family,
    warp_preset,
)
from conifold_lab import spectral_laplace as sl
from conifold_lab.spectral_laplace import (
    KernelScanRow,
    WeightConditionError,
    _default_closures,
    _csr,
    _form_parts,
    _grid_nodes_per_decade,
    _poincare_pencils,
    _sigma_from,
    assemble_mode_operator,
    kernel_dimension_scan,
    laplacian_pencil,
    near_null_threshold,
    smallest_pencil_eigs,
    weighted_form,
)
from conifold_lab.weight_calculus import gamma_roots
from conifold_lab.weighted_calc import _band_rows, build_grid
from stencil_refs import assert_same_csr, ref_derivatives, ref_reduction_matrix

# ---------------------------------------------------------------------------
# reference implementations (everything rebuilt per mode)


def ref_mode_operator(grid, e, beta=None):
    """(P, R, interior)."""
    closures = _default_closures(grid, e, beta)
    f, fp, rho = grid.f, grid.fp, grid.rho
    m = grid.geometry.m
    coeff2 = sp.diags(-(rho**2))
    coeff1 = sp.diags(-(m - 1.0) * rho**2 * fp / f)
    coeff0 = sp.diags(e * rho**2 / f**2)
    d1, d2 = ref_derivatives(grid)
    P = (coeff2 @ d2 + coeff1 @ d1 + coeff0).tocsr()
    R, interior = ref_reduction_matrix(grid, closures[0], closures[1])
    return P, R, interior


def ref_weighted_form(grid, k, beta, e):
    g = grid
    m = g.geometry.m
    beta_vals = g.beta if beta is None else np.full(g.n, float(beta))
    w = g.wextra * g.rho ** (-beta_vals)
    base = g.volume
    kappa = g.geometry.link.einstein_constant or 0.0
    D1, D2 = ref_derivatives(g)

    W0 = w**2 * base
    M = sp.diags(W0).tocsr()
    if k >= 1:
        W1 = (w * g.rho) ** 2 * base
        M = M + D1.T @ sp.diags(W1) @ D1 + sp.diags(W1 * e / g.f**2)
    if k >= 2:
        W2 = (w * g.rho**2) ** 2 * base
        M = M + D2.T @ sp.diags(W2) @ D2
        mix = sp.diags(2.0 * e * W2 / g.f**2)
        B = D1 - sp.diags(g.fp / g.f)
        M = M + B.T @ mix @ B
        hess_c = max(e * e - kappa * e, 0.0)
        c1 = hess_c * W2 / g.f**4
        c2 = -e * g.fp * W2 / g.f**3
        c3 = (m - 1.0) * g.fp**2 * W2 / g.f**2
        M = M + sp.diags(c1) + D1.T @ sp.diags(c3) @ D1
        M = M + sp.diags(c2) @ D1 + D1.T @ sp.diags(c2)
    return M.tocsr()


def ref_poincare_forms(grid, beta, e):
    """(gradient block, L^2 mass) of the k = 1 form, the forms that
    poincare_constant solves against each other."""
    g = grid
    w = g.wextra * g.rho ** (-np.full(g.n, float(beta)))  # as ref_weighted_form
    W1 = (w * g.rho) ** 2 * g.volume
    d1, _ = ref_derivatives(g)
    return d1.T @ sp.diags(W1) @ d1 + sp.diags(W1 * e / g.f**2), sp.diags(w**2 * g.volume)


def ref_laplacian_pencil(grid, e, beta):
    """(P, A, B, Pi, w_img)."""
    P, R, interior = ref_mode_operator(grid, e, beta=beta)
    g = grid
    m = g.geometry.m
    beta_vals = g.beta if beta is None else np.full(g.n, float(beta))
    w_img_full = (g.wextra * g.rho ** (-beta_vals)) ** 2 * g.quad * g.f ** (m - 1) \
        * g.volume_factor * g.rho ** (-float(m))
    Pi = (P[interior] @ R).tocsr()
    w_img = w_img_full[interior]
    A = (Pi.T @ sp.diags(w_img) @ Pi).tocsc()
    B = (R.T @ ref_weighted_form(grid, 2, beta, e) @ R).tocsc()
    return P, A, B, Pi, w_img


def ref_near_null_threshold(link, m, e_max, beta, nodes_per_decade,
                            r_span=(1e-3, 1e3)):
    r_lo, r_hi = r_span
    comp = Component(
        link=link, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", link, nu=1.0, beta=beta, boundary=math.sqrt(r_lo * r_hi)),
        right=EndSpec("AC", link, nu=-1.0, beta=beta, boundary=math.sqrt(r_lo * r_hi)),
    )
    model = ConifoldModel(m, (comp,))
    decades = math.log10(r_hi / r_lo)
    n = max(64, int(nodes_per_decade * decades / 2))
    grid = build_grid(model.geometry(0), n_per_region=n,
                      r_max=r_hi, r_min_factor=r_lo / math.sqrt(r_lo * r_hi))
    worst = 0.0
    for e, _ in link.eigenvalues_below(e_max):
        gp, gm = gamma_roots(e, m)
        for gamma in (gp, gm):
            # P and the interior nodes do not depend on the closures
            P, _R, interior = ref_mode_operator(grid, e)
            u = grid.rho**gamma
            w_img = ref_weighted_form(grid, 0, beta, e).diagonal()[interior]
            resid = (P @ u)[interior]
            num = math.sqrt(float(np.sum(w_img * resid**2)))
            M2 = ref_weighted_form(grid, 2, beta, e)
            den = float(np.sqrt(max(u @ (M2 @ u), 0.0)))
            if den > 0:
                worst = max(worst, num / den)
    return 10.0 * worst


def ref_kernel_dimension_scan(geo, grid, beta_list, e_max):
    npd = _grid_nodes_per_decade(grid)
    rows = []
    for beta in beta_list:
        thr = ref_near_null_threshold(geo.link, geo.m, e_max, float(beta), npd)
        total, per_mode, ambiguous = 0, [], False
        for e, mult in geo.link.eigenvalues_below(e_max):
            P, A, B, Pi, w_img = ref_laplacian_pencil(grid, e, float(beta))

            def num_form(v, Pi=Pi, w_img=w_img):
                r = Pi @ v
                return float(np.sum(w_img * r * r))

            k = min(4, A.shape[0] - 2)
            sig = _sigma_from(smallest_pencil_eigs(*band_pair(A, B), k=k, num_form=num_form))
            hits = int(np.count_nonzero(sig < thr))
            if np.any((sig >= thr / 3.0) & (sig <= 3.0 * thr)):
                ambiguous = True
            total += hits * mult
            per_mode.append((float(e), int(mult), float(sig[0])))
        rows.append(KernelScanRow(beta=float(beta), dimension=total,
                                  per_mode=tuple(per_mode), threshold=thr,
                                  ambiguous=ambiguous))
    return rows


# ---------------------------------------------------------------------------
# grids: interval with AC ends, circle, interval with a cap and an AC end


GEOMETRIES = {
    "dumbbell_t1e-3": lambda: dumbbell_family().at(1e-3).geometry,
    "spindle_t1e-2": lambda: spindle_family().at(1e-2).geometry,
    "hyperboloid_capped": lambda: preset_model("hyperboloid_capped").geometry(0),
}
E_MAX = 12.0
BETAS = (None, 0.5, None)  # b1, b2, b1
# weights b1, b2, b1 that close no AC truncation on the growing root
# (False) and some (True): gamma_plus is 0, 1, 2, 3 at e = 0, 2, 6, 12 on
# the 2-sphere link, so 0.5 admits it at e = 0 and 2.5 up to e = 6
CLOSING_WEIGHTS = {False: (None, -0.5, None), True: (0.5, 2.5, 0.5)}


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def grid(request):
    return build_grid(GEOMETRIES[request.param](), n_per_region=200)


def dia_pair(A, B):
    """Sparse A and B as DIA matrices on their common diagonals, offsets
    ascending: the matrices smallest_pencil_eigs builds from bands."""
    n = A.shape[0]
    offsets = np.union1d(A.todia().offsets, B.todia().offsets)
    pair = []
    for X in (A, B):
        data = np.zeros((offsets.size, n))
        for row, k in zip(data, offsets):
            row[max(k, 0):n + min(k, 0)] = X.diagonal(k)
        pair.append(sp.dia_matrix((data, offsets), shape=(n, n)))
    return pair


def band_pair(A, B):
    """Sparse A and B as bands on their common diagonals: the input
    smallest_pencil_eigs takes."""
    n = A.shape[0]
    offsets = np.union1d(A.todia().offsets, B.todia().offsets)
    pair = []
    for X in (A, B):
        bands = {int(k): np.zeros(n) for k in offsets}
        for k, x in bands.items():
            x[max(-k, 0):n - max(k, 0)] = X.diagonal(k)
        pair.append(bands)
    return pair


def modes(grid):
    return [e for e, _ in grid.geometry.link.eigenvalues_below(E_MAX)]


def with_coarse(grid):
    """grid and the same geometry at n_per_region=20."""
    return grid, build_grid(grid.geometry, n_per_region=20)


def test_mode_operator_matches_reference(grid):
    assert modes(grid)[0] == 0.0
    for beta in CLOSING_WEIGHTS[False] + CLOSING_WEIGHTS[True]:
        for e in modes(grid):
            op = assemble_mode_operator(grid, e, beta=beta)
            P, R, interior = ref_mode_operator(grid, e, beta)
            assert_same_csr(_csr(op.P), P)
            assert_same_csr(_csr(op.reduction)[:, op.interior], R)
            assert np.array_equal(op.interior, interior)


def test_weighted_forms_match_reference(grid):
    for g in with_coarse(grid):
        for beta in BETAS:
            parts = _form_parts(g, beta)
            for e in modes(g):
                for k in (0, 1, 2):
                    want = ref_weighted_form(g, k, beta, e)
                    assert_same_csr(_csr(weighted_form(g, k, e, parts)), want)
        # e = 0.5 lies strictly between 0 and the Einstein constant 1, so
        # the Hessian coefficient c1 clips to 0 while mix and c2 do not;
        # e = 30 is beyond every scanned mode
        assert g.geometry.link.einstein_constant == 1.0
        parts = _form_parts(g, 0.5)
        for e in (0.5, 30.0):
            for k in (0, 1, 2):
                assert_same_csr(_csr(weighted_form(g, k, e, parts)),
                                ref_weighted_form(g, k, 0.5, e))


def test_gradient_form_matches_reference(grid):
    """poincare_constant's pencil: the reduced gradient block and mass of
    the k = 1 form, entry for entry what scipy's R^T G R and R^T M R give
    (their unsorted CSC order aside)."""
    for g in with_coarse(grid):
        for beta in (-0.5, 0.5):
            pencil = _poincare_pencils(g, beta)
            for e in modes(g) + [0.5, 30.0]:
                R, _ = ref_reduction_matrix(g, *_default_closures(g, e, beta))
                for got, want in zip(pencil(e), ref_poincare_forms(g, beta, e)):
                    assert_same_csr(_csr(got), (R.T @ want @ R).tocsr().sorted_indices())


def test_stencils_are_bands_on_five_offsets(grid):
    """d1, d2 and the radial operator share their offsets, ascending:
    -2 .. 2 on an interval (the one-sided end rows reach +-2), and
    -1, 0, 1 plus the wrap entries at +-(n - 1) on a circle; every slot
    outside the matrix holds 0."""
    n = grid.n
    want = [1 - n, -1, 0, 1, n - 1] if grid.geometry.circle else [-2, -1, 0, 1, 2]
    for D in (grid.d1, grid.d2, grid.radial_operator):
        assert list(D) == want
        for d, x in D.items():
            assert np.all((x[n - d:] if d >= 0 else x[:-d]) == 0), d


@pytest.mark.parametrize("growing", [False, True])
def test_pencils_match_reference(grid, growing):
    for beta in CLOSING_WEIGHTS[growing]:
        parts = _form_parts(grid, beta)
        for e in modes(grid):
            P, A, B, Pi, w_img = ref_laplacian_pencil(grid, e, beta)
            pen = laplacian_pencil(grid, e, parts)
            assert_same_csr(_csr(pen.op.P), P)
            # A and B entry for entry: scipy's product leaves their
            # CSC columns unsorted, in an order no code reads
            assert_same_csr(pen.A.sorted_indices(), A.sorted_indices())
            assert_same_csr(pen.B.sorted_indices(), B.sorted_indices())
            assert pen.A.nnz + pen.B.nnz == A.nnz + B.nnz
            assert_same_csr(_csr(pen.Pi), Pi.sorted_indices())
            assert pen.w_img.dtype == w_img.dtype
            assert np.array_equal(pen.w_img, w_img)


@pytest.mark.parametrize("growing", [False, True])
def test_factored_numerator_matches_reference(grid, growing):
    """The polish numerator and residual_sigma add each row of Pi v in
    Pi's storage order (columns descending), as the scipy expressions do."""
    rng = np.random.default_rng(11)
    for beta in CLOSING_WEIGHTS[growing]:
        parts = _form_parts(grid, beta)
        for e in modes(grid):
            _P, _A, B, Pi, w_img = ref_laplacian_pencil(grid, e, beta)
            pen = laplacian_pencil(grid, e, parts)
            for v in (rng.standard_normal(Pi.shape[1]), np.linspace(-1.0, 2.0, Pi.shape[1])):
                r = Pi @ v
                num = float(np.sum(w_img * r * r))
                assert pen.numerator(v) == num
                den = float(v @ (B @ v))
                assert pen.residual_sigma(v) == math.sqrt(max(num, 0.0) / max(den, 1e-300))


def test_numerator_and_residual_are_the_scipy_products_byte_for_byte(grid):
    """The polish's products are the reference pipeline's, byte for byte:
    Pi v, added over Pi's offsets descending, is the product of the CSR
    Pi that scipy's csr_matmat leaves (each row's columns descending), and
    v^T B v takes the product of B as the DIA matrix smallest_pencil_eigs
    gives ARPACK; so pen.numerator and pen.residual_sigma are the values
    those products give."""
    rng = np.random.default_rng(5)
    for beta in (-0.5, 0.5):
        parts = _form_parts(grid, beta)
        for e in modes(grid):
            _P, A, B, Pi, w_img = ref_laplacian_pencil(grid, e, beta)
            assert all(np.all(np.diff(Pi.indices[a:b]) < 0)
                       for a, b in zip(Pi.indptr[:-1], Pi.indptr[1:]))
            _A_dia, B_dia = dia_pair(A, B)
            pen = laplacian_pencil(grid, e, parts)
            for v in (rng.standard_normal(Pi.shape[1]), np.linspace(-1.0, 2.0, Pi.shape[1])):
                r, Bv = Pi @ v, B_dia @ v
                assert _band_rows(pen.Pi, v, descending=True).tobytes() == r.tobytes()
                assert _band_rows(pen.B_bands, v).tobytes() == Bv.tobytes()
                num = float(np.sum(w_img * r * r))
                assert pen.numerator(v) == num
                assert pen.residual_sigma(v) == math.sqrt(max(num, 0.0)
                                                          / max(float(v @ Bv), 1e-300))


@pytest.mark.parametrize("beta_list", [(0.5, 1.5, 0.5), (2.5, -0.5, 2.5)])
def test_threshold_matches_reference(beta_list):
    link = preset_model("hyperboloid_capped").geometry(0).link
    for beta in beta_list:
        for npd in (90.0, 150.0):
            assert near_null_threshold(link, 3, E_MAX, beta, npd) \
                == ref_near_null_threshold(link, 3, E_MAX, beta, npd)


def test_threshold_mesh_is_shared_across_weights():
    link = preset_model("hyperboloid_capped").geometry(0).link
    mesh = sl._threshold_mesh(link, 3, E_MAX, 90.0, (1e-3, 1e3))
    for beta in (0.5, 2.5, -0.5, 0.5):
        assert near_null_threshold(link, 3, E_MAX, beta, 90.0, mesh=mesh) \
            == ref_near_null_threshold(link, 3, E_MAX, beta, 90.0)
    for args in ((link, 3, 6.0, 0.5, 90.0), (link, 3, E_MAX, 0.5, 150.0),
                 (link, 3, E_MAX, 0.5, 90.0, (1e-2, 1e2))):
        with pytest.raises(ValueError, match="threshold mesh"):
            near_null_threshold(*args, mesh=mesh)


def test_kernel_scan_checks_every_weight_before_any_threshold(monkeypatch):
    def no_threshold(*args, **kwargs):
        raise AssertionError("threshold computed before the weights were checked")

    monkeypatch.setattr(sl, "near_null_threshold", no_threshold)
    monkeypatch.setattr(sl, "_threshold_mesh", no_threshold)
    geo = preset_model("hyperboloid_capped").geometry(0)
    grid = build_grid(geo, n_per_region=60)
    with pytest.raises(WeightConditionError, match="exceptional"):
        kernel_dimension_scan(geo, [0.5, 1.0], e_max=E_MAX, grid=grid)


def test_kernel_scan_matches_reference():
    geo = preset_model("hyperboloid_capped").geometry(0)
    grid = build_grid(geo, n_per_region=200)
    betas = [0.5, 1.5, 0.5]
    assert kernel_dimension_scan(geo, betas, e_max=E_MAX, grid=grid) \
        == ref_kernel_dimension_scan(geo, grid, betas, E_MAX)


# ---------------------------------------------------------------------------
# lifetime: nothing built per grid may keep its grid alive


def test_grid_is_freed_without_the_cycle_collector():
    geo = preset_model("hyperboloid_capped").geometry(0)
    grid = build_grid(geo, n_per_region=200)
    ref = weakref.ref(grid)
    gc.disable()
    try:
        pen = laplacian_pencil(grid, 2.0, _form_parts(grid, 0.5))
        form = weighted_form(grid, 2, 2.0, _form_parts(grid, 0.5))
        rows = kernel_dimension_scan(geo, [0.5], e_max=E_MAX, grid=grid)
        assert rows[0].dimension >= 0 and pen.A.nnz and form
        assert grid.radial_operator is not None
        del pen, form, rows, grid
        assert ref() is None
    finally:
        gc.enable()
