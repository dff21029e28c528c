"""Corner-block products against the full band products, byte for byte.

Pi = P[interior] R, the reduced forms R^T M R and the stencil sandwiches
L^T diag(w) L are built from the known structure of their factors: a
stencil's diagonals past +-1 and R's closure entries hold entries only in
rows 0 and n - 1, near an end, so the products are the full diagonals'
(or plain entries + 0.0) but at a small block of entries near each end,
summed densely.  The reference here is the band product over every
stored diagonal, each entry's terms added over the inner index ascending
from 0, and every band the package builds from those products must equal
it byte for byte: same offsets, same bytes per diagonal (a -0.0 where the
reference holds +0.0 fails).  The grids cover every closure (cap_even,
zero, Robin on the decaying and on the growing root, CS), intervals and a
circle, fine and coarse meshes and the smallest grids build_grid makes,
whose end blocks meet."""

import numpy as np
import pytest

from conifold_lab.conifold_model import dumbbell_family, preset_model, spindle_family
from conifold_lab.spectral_laplace import (
    _default_closures,
    _form_parts,
    _gradient_forms,
    assemble_mode_operator,
    laplacian_pencil,
    weighted_form,
)
from conifold_lab.weighted_calc import _sandwich, build_grid

# ---------------------------------------------------------------------------
# reference: the band product over every stored diagonal


def ref_nonzero(X):
    return {d: X[d] for d in sorted(X) if X[d].any()}


def ref_product(X, Y):
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
    return ref_nonzero(out)


def ref_shifted(x, d):
    out = np.zeros_like(x)
    if d >= 0:
        out[d:] = x[:x.size - d]
    else:
        out[:d] = x[-d:]
    return out


def ref_transpose(X):
    return {-d: ref_shifted(x, d) for d, x in X.items()}


def ref_scaled(w, X):
    return {d: w * x for d, x in X.items()}


def ref_sandwich(L, w):
    return ref_product(ref_transpose(ref_scaled(w, L)), L)


def ref_sum(*terms):
    out = {}
    for X in terms:
        for d, x in X.items():
            out[d] = out[d] + x if d in out else x
    return out


def ref_restricted(X, interior):
    lo, hi = int(interior[0]), int(interior[-1]) + 1
    return ref_nonzero({d: x[lo:hi] for d, x in X.items()})


def ref_pi(op):
    return ref_restricted(ref_product(op.P, op.reduction), op.interior)


def ref_reduce(op, M):
    R = op.reduction
    return ref_restricted(ref_product(ref_transpose(ref_product(ref_transpose(M), R)), R),
                          op.interior)


def ref_form_parts(g, beta):
    m = g.geometry.m
    beta_vals = g.beta if beta is None else np.full(g.n, float(beta))
    w = g.wextra * g.rho ** (-beta_vals)
    base = g.volume
    D1, D2 = g.d1, g.d2
    W0 = w**2 * base
    W1 = (w * g.rho) ** 2 * base
    W2 = (w * g.rho**2) ** 2 * base
    c3 = (m - 1.0) * g.fp**2 * W2 / g.f**2
    return {"W0": W0, "W1": W1, "W2": W2, "D1": D1,
            "M01": ref_sum(ref_sandwich(D1, W1), {0: W0}), "M2": ref_sandwich(D2, W2),
            "M3": ref_sandwich(D1, c3), "Bop": {**D1, 0: D1[0] - g.fp / g.f}}


def ref_weighted_form(g, k, e, parts):
    kappa = g.geometry.link.einstein_constant or 0.0
    terms = [{0: parts["W0"]}] if k == 0 else [parts["M01"], {0: parts["W1"] * e / g.f**2}]
    if k >= 2:
        W2 = parts["W2"]
        mix = 2.0 * e * W2 / g.f**2
        hess_c = max(e * e - kappa * e, 0.0)
        c1 = hess_c * W2 / g.f**4
        c2 = -e * g.fp * W2 / g.f**3
        c2_d1 = ref_scaled(c2, parts["D1"])
        terms += [parts["M2"], ref_sandwich(parts["Bop"], mix), {0: c1}, parts["M3"],
                  c2_d1, ref_transpose(c2_d1)]
    return ref_sum(*terms)


def ref_gradient_form(g, beta, e):
    m = g.geometry.m
    wg = (g.wextra * g.rho ** (1 - beta)) ** 2 * g.quad \
        * g.f ** (m - 1) * g.volume_factor * g.rho ** (-float(m))
    return ref_sum(ref_sandwich(g.d1, wg), {0: wg * e / g.f**2})


# ---------------------------------------------------------------------------
# grids


GEOMETRIES = {
    "dumbbell_t1e-3": lambda: dumbbell_family().at(1e-3).geometry,  # two AC ends
    "spindle_t1e-2": lambda: spindle_family().at(1e-2).geometry,  # a circle
    "hyperboloid_capped": lambda: preset_model("hyperboloid_capped").geometry(0),  # cap + AC
    "exact_cone_cs_ac": lambda: preset_model("exact_cone_cs_ac").geometry(0),  # CS + AC
    "sine_spindle": lambda: preset_model("sine_spindle").geometry(0),  # two CS ends
}
MESHES = {
    "fine": {"n_per_region": 200},
    "coarse": {"n_per_region": 20},
    # the smallest grids build_grid makes, 4 to 6 nodes, whose end blocks
    # meet; the capped model takes 3 nodes per region (5 in all), as on 3
    # the cap's second inward node would be the far boundary node
    "smallest": {"n_per_region": 1, "min_region_nodes": 1},
}
SMALLEST_CAPPED = {"n_per_region": 1, "min_region_nodes": 3}
# gamma_plus is 0, 1, 2, 3 at e = 0, 2, 6, 12 on the 2-sphere link: beta 2.5
# closes an AC truncation on the growing root up to e = 6, None and -0.5 on
# the decaying one; e = 0.5 lies between 0 and the Einstein constant 1
BETAS = (None, -0.5, 2.5)
MODES = (0.0, 0.5, 2.0, 6.0, 12.0, 30.0)


@pytest.fixture(scope="module", params=[(g, m) for g in GEOMETRIES for m in MESHES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def grid(request):
    geometry, mesh = request.param
    spec = MESHES[mesh]
    if mesh == "smallest" and geometry == "hyperboloid_capped":
        spec = SMALLEST_CAPPED
    g = build_grid(GEOMETRIES[geometry](), **spec)
    assert mesh != "smallest" or g.n <= 6
    return g


def assert_same_band(got, want):
    assert list(got) == list(want)
    for d in want:
        assert got[d].dtype == want[d].dtype, d
        assert got[d].tobytes() == want[d].tobytes(), d


def test_form_parts_are_the_full_products(grid):
    for beta in BETAS:
        parts, ref = _form_parts(grid, beta), ref_form_parts(grid, beta)
        for name in ("M01", "M2", "M3", "Bop"):
            assert_same_band(getattr(parts, name), ref[name])


def test_forms_and_reductions_are_the_full_products(grid):
    closures = set()
    for beta in BETAS:
        parts, ref = _form_parts(grid, beta), ref_form_parts(grid, beta)
        gradient = _gradient_forms(grid, -0.5 if beta is None else beta)
        for e in MODES:
            op = assemble_mode_operator(grid, e, beta=beta)
            closures.update((c.kind, c.slope) for c in _default_closures(grid, e, beta) if c)
            assert_same_band(op.pi(), ref_pi(op))
            for k in (0, 1, 2):
                form = weighted_form(grid, k, e, parts)
                assert_same_band(form, ref_weighted_form(grid, k, e, ref))
                if k:
                    assert_same_band(op.reduce(form), ref_reduce(op, form))
            G = gradient(e)
            assert_same_band(G, ref_gradient_form(grid, -0.5 if beta is None else beta, e))
            assert_same_band(op.reduce(G), ref_reduce(op, G))
            pen = laplacian_pencil(grid, e, parts)
            assert_same_band(pen.A_bands, ref_sandwich(ref_pi(op), pen.w_img))
    kinds = {kind for kind, _ in closures}
    if grid.geometry.circle:
        assert not kinds
    elif grid.geometry.left.kind == "cap":
        assert {"cap_even", "zero", "robin"} <= kinds
    else:
        assert kinds == {"robin"}
    if any(b.kind == "ac" for b in (grid.geometry.left, grid.geometry.right) if b):
        # the AC truncation closes on both roots over the weights
        assert len({s for kind, s in closures if kind == "robin"}) >= 2 * len(MODES) - 2


def test_end_rows_hold_every_entry_off_the_full_diagonals(grid):
    """The premise of the corner blocks.  A stencil's diagonals past +-1
    (d1, d2, the radial operator) hold entries only in row 0 (offsets > 0)
    and row n - 1 (offsets < 0), at columns within 2 nodes of an end; R's
    off-diagonal entries, the closures, lie only in rows 0 and n - 1, at
    most two nodes inward, and R is 1 on every interior node."""
    n = grid.n
    near_end = set(range(3)) | set(range(n - 3, n))
    for D in (grid.d1, grid.d2, grid.radial_operator):
        assert {-1, 0, 1} <= set(D)
        for d, x in D.items():
            if abs(d) > 1:
                row = 0 if d > 0 else n - 1
                assert np.flatnonzero(x).tolist() in ([], [row]), d
                assert row + d in near_end, d
    for beta in BETAS:
        for e in MODES:
            op = assemble_mode_operator(grid, e, beta=beta)
            R = op.reduction
            assert np.all(R[0][op.interior] == 1.0)
            for d, x in R.items():
                if d == 0:
                    assert np.all(np.delete(x, op.interior) == 0.0)
                    continue
                assert 1 <= abs(d) <= 2 and not grid.geometry.circle, d
                assert set(np.flatnonzero(x).tolist()) <= ({0} if d > 0 else {n - 1}), d


def signed_zeros(X):
    """X with -0.0 at every third slot of each diagonal, inside the matrix
    or not, end rows included."""
    return {d: np.where(np.arange(x.size) % 3 == 1, -0.0, x) for d, x in X.items()}


def test_signed_zeros_of_the_factors_do_not_reach_the_products(grid):
    """Each entry of the products is a sum from +0.0, so a -0.0 in a
    factor (an exact-zero entry of P or of a form) comes out as +0.0 in
    the bulk copies as in the reference."""
    parts = _form_parts(grid, -0.5)
    for e in (0.0, 6.0):
        op = assemble_mode_operator(grid, e, beta=-0.5)
        M = signed_zeros(weighted_form(grid, 2, e, parts))
        assert_same_band(op.reduce(M), ref_reduce(op, M))
        op.P = signed_zeros(op.P)
        assert_same_band(op.pi(), ref_pi(op))
    for L in (grid.d1, grid.d2):
        L = signed_zeros(L)
        assert_same_band(_sandwich(L, parts.W1), ref_sandwich(L, parts.W1))


def test_a_closure_that_reaches_past_the_interior_is_refused():
    """On the 3-node capped grid the cap_even closure's second entry would
    sit at node 2, the AC boundary node: refused, naming the node count
    it needs.  A zero closure (e > 0) reaches no node, and the 5-node
    smallest capped grid above assembles."""
    geo = GEOMETRIES["hyperboloid_capped"]()
    short = build_grid(geo, n_per_region=1, min_region_nodes=1)
    assert short.n == 3
    with pytest.raises(ValueError, match="the cap_even closure at node 0 reaches node 2, "
                                         "which is not interior: it needs a grid of at "
                                         "least 4 nodes, got 3"):
        assemble_mode_operator(short, 0.0)
    assert assemble_mode_operator(short, 2.0).interior.tolist() == [1]
    smallest = build_grid(geo, **SMALLEST_CAPPED)
    assert smallest.n == 5
    op = assemble_mode_operator(smallest, 0.0)
    assert_same_band(op.pi(), ref_pi(op))
    laplacian_pencil(smallest, 0.0, _form_parts(smallest, -0.5))
