"""Oracles for the support-local norm quadrature.

The full-grid densities, weighted_sobolev_norm and gradient_norm are
kept here as reference implementations, taking the stencils from the
loop references in stencil_refs.  The package's norm engine sums each
member of a family over its support window only (two arcs for a support
across a circle's seam), all members in one pass; the nodes outside a
window contribute exact zeros, so engine and reference may differ only
by the order of summation."""

import numpy as np
import pytest

from conifold_lab import experiments as ex
from conifold_lab import weighted_calc as wc
from conifold_lab.conifold_model import dumbbell_family, preset_model, spindle_family
from conifold_lab.weighted_calc import (
    ModeFunction,
    ModeProfile,
    WeightSpec,
    _family_norms,
    _holder_sweep,
    _support_window,
    build_grid,
    bump_family,
    bump_profile,
    densities,
    gradient_norm,
    embedding_constant_estimate,
    holder_check,
    mode_product,
    random_bump_pairs,
    weighted_sobolev_norm,
)
from stencil_refs import ref_derivatives

RTOL = 1e-13

# ---------------------------------------------------------------------------
# reference implementations (all nodes)


def ref_densities(u, k):
    g = u.grid
    f, fp = g.f, g.fp
    m = g.geometry.m
    kappa = g.geometry.link.einstein_constant or 0.0
    D1, D2 = ref_derivatives(g)
    d0 = np.zeros(g.n)
    d1 = np.zeros(g.n)
    d2 = np.zeros(g.n)
    for mp in u.modes:
        un, e = mp.values, mp.e
        d0 += un**2
        if k >= 1:
            dun = D1 @ un
            d1 += dun**2 + (e / f**2) * un**2
        if k >= 2:
            ddun = D2 @ un
            mixed = dun - (fp / f) * un
            hess_c = max(e * e - kappa * e, 0.0)
            angular = (hess_c * un**2
                       - 2.0 * e * f * fp * un * dun
                       + (m - 1.0) * (f * fp) ** 2 * dun**2) / f**4
            d2 += ddun**2 + 2.0 * (e / f**2) * mixed**2 + np.maximum(angular, 0.0)
    return [np.sqrt(d) for d in (d0, d1, d2)[:k + 1]]


def ref_beta(grid, beta):
    return grid.beta if beta is None else np.full(grid.n, float(beta))


def ref_weighted_sobolev_norm(u, spec, weight_fn=None):
    g = u.grid
    if weight_fn is not None:
        w = np.asarray(weight_fn(g.nodes), dtype=float)
    else:
        w = g.wextra * g.rho ** (-ref_beta(g, spec.beta))
    total = 0.0
    for j, dj in enumerate(ref_densities(u, spec.k)):
        total += float(np.sum((w * g.rho**j * dj) ** spec.p * g.volume))
    return total ** (1.0 / spec.p)


def ref_family_norms_rows(family, norms, beta=None, weight_fn=None):
    """The norm engine with its weights taken per row: w = wextra
    rho^(-beta) (or weight_fn's) and w rho^j at the pass's rows."""
    grid = family[0].grid
    k = max(j for _, js in norms for j in js)
    windows = [_support_window(u) for u in family]
    dens, node, member = wc._densities_on(grid, [u.modes for u in family], windows, k)
    rho, volume = grid.rho[node], grid.volume[node]
    if weight_fn is not None:
        w = np.asarray(weight_fn(grid.nodes), dtype=float)[node]
    else:
        w = grid.wextra[node] * rho ** (-(grid.beta[node] if beta is None
                                           else np.full(rho.size, float(beta))))
    sums = np.zeros((len(norms), len(family)))
    for i, (p, js) in enumerate(norms):
        for j in js:
            wj = w * rho**j if j else w
            sums[i] += np.bincount(member, (wj * dens[j]) ** p * volume, len(family))
    return np.array([[s ** (1.0 / p) for s in row] for row, (p, _) in zip(sums.tolist(), norms)])


def ref_gradient_norm(u, p, beta=None):
    g = u.grid
    w = g.wextra * g.rho ** (1.0 - ref_beta(g, beta))
    return float(np.sum((w * ref_densities(u, 1)[1]) ** p * g.volume)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# grids and test functions

GEOMETRIES = {
    "dumbbell_t1e-3": lambda: dumbbell_family().at(1e-3).geometry,
    "spindle_t1e-2": lambda: spindle_family().at(1e-2).geometry,
    "hyperboloid_capped": lambda: preset_model("hyperboloid_capped").geometry(0),
}


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def grid(request):
    return build_grid(GEOMETRIES[request.param](), n_per_region=300)


def end_profiles(grid):
    """Profiles whose support starts at node 0, 1, 2 or ends at node
    n-1, n-2, n-3: the one-sided end rows of d1/d2 reach two nodes in."""
    n = grid.n
    out = []
    for lo in (0, 1, 2):
        v = np.zeros(n)
        v[lo:lo + 30] = np.linspace(1.0, 2.0, 30)
        out.append(v)
    for hi in (n, n - 1, n - 2):
        v = np.zeros(n)
        v[hi - 30:hi] = np.linspace(2.0, 1.0, 30)
        out.append(v)
    return out


def functions_on(grid):
    e1 = grid.geometry.link.eigenvalues_below(4.0 * grid.geometry.m)[1][0]
    fam = bump_family(grid, n_members=12, seed=4)
    funcs = list(fam)
    funcs += [ModeFunction.single(grid, e, v)
              for v, e in zip(end_profiles(grid), (0.0, e1) * 3)]
    # two modes with disjoint supports, and a rotation-invariant product
    funcs.append(ModeFunction(grid, (ModeProfile(0.0, fam[0].modes[0].values),
                                     ModeProfile(e1, fam[5].modes[0].values))))
    (lo, hi), = fam[2].modes[0].support
    x = grid.nodes
    c, hw = x[(lo + hi) // 2], 0.5 * (x[hi - 1] - x[lo])
    u0 = ModeFunction.single(grid, 0.0, bump_profile(grid, c, hw))
    v1 = ModeFunction.single(grid, e1, bump_profile(grid, x[(lo + hi) // 2 + 3], 1.5 * hw))
    funcs.append(mode_product(u0, v1))
    # full support and the zero function
    funcs.append(ModeFunction.single(grid, e1, grid.rho ** 0.7))
    funcs.append(ModeFunction.single(grid, 0.0, np.zeros(grid.n)))
    if grid.geometry.circle:
        x = grid.nodes
        funcs.append(ModeFunction.single(grid, 0.0, bump_profile(grid, x[1], 6 * (x[2] - x[0]))))
        funcs.append(ModeFunction.single(grid, e1, bump_profile(grid, x[-2], 6 * (x[-1] - x[-3]))))
    return funcs


def assert_close(got, want):
    assert got == pytest.approx(want, rel=RTOL, abs=0.0) or got == want == 0.0, (got, want)


# ---------------------------------------------------------------------------


def test_support_is_the_nonzero_node_range(grid):
    v = np.zeros(grid.n)
    v[5:9] = 1.0
    assert ModeProfile(0.0, v).support == ((5, 9),)
    v[20:30] = 2.0  # split around the longest run of zeros
    v[10] = 3.0
    assert ModeProfile(0.0, v).support == ((5, 11), (20, 30))
    assert ModeProfile(0.0, np.zeros(grid.n)).support == ()
    assert ModeProfile(0.0, np.ones(grid.n)).support == ((0, grid.n),)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_windowed_densities_equal_full_densities(grid, k):
    for u in functions_on(grid):
        win = _support_window(u)
        inside = np.zeros(grid.n, bool)
        for lo, hi in win:
            assert not inside[lo:hi].any()  # disjoint
            inside[lo:hi] = True
        assert win == sorted(win)
        full = ref_densities(u, k)
        for got, want in zip(densities(u, k, win), full):
            assert np.array_equal(got, np.concatenate([want[lo:hi] for lo, hi in win] + [[]]))
            assert not np.any(want[~inside])


@pytest.mark.parametrize("beta", [None, 0.3])
@pytest.mark.parametrize("p", [1.0, 2.0, 6.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_sobolev_norm_matches_full_grid(grid, k, p, beta):
    for u in functions_on(grid):
        spec = WeightSpec(p=p, k=k, beta=beta)
        assert_close(weighted_sobolev_norm(u, spec), ref_weighted_sobolev_norm(u, spec))


@pytest.mark.parametrize("beta", [None, -0.2])
@pytest.mark.parametrize("p", [1.0, 2.0, 6.0])
def test_gradient_norm_matches_full_grid(grid, p, beta):
    for u in functions_on(grid):
        assert_close(gradient_norm(u, p, beta), ref_gradient_norm(u, p, beta))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_weight_fn_path_matches_full_grid(grid, k):
    """The override rescaling_invariance_check passes: a weight computed
    from the mapped grid's own arrays."""
    t = 1e-3
    grid_t = grid.mapped(t)
    spec = WeightSpec(p=2.0, k=k, beta=None)

    def weight_fn(x, _bp=-0.5):
        return t ** (grid_t.beta - _bp) * grid_t.rho ** (-grid_t.beta) * grid_t.wextra

    for u in functions_on(grid):
        u_t = u.push_to(grid_t)
        assert_close(weighted_sobolev_norm(u_t, spec, weight_fn=weight_fn),
                     ref_weighted_sobolev_norm(u_t, spec, weight_fn=weight_fn))


@pytest.mark.parametrize("beta", [None, 0.3])
@pytest.mark.parametrize("p", [1.0, 2.0, 6.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_family_engine_matches_full_grid_per_member(grid, k, p, beta):
    """One engine pass over a whole family: bumps, members touching the
    first and last three nodes, two modes, a product, full support, zero
    and (spindle) bumps across the seam; each member's W^p_k and gradient
    norm is the full-grid reference's."""
    funcs = functions_on(grid)
    if grid.geometry.circle:
        assert sum(len(_support_window(u)) == 2 for u in funcs) >= 2
    sob, grad = _family_norms(funcs, [(p, range(k + 1)), (p, (1,))], beta)
    for u, got_sob, got_grad in zip(funcs, sob, grad):
        assert_close(float(got_sob), ref_weighted_sobolev_norm(u, WeightSpec(p=p, k=k, beta=beta)))
        assert_close(float(got_grad), ref_gradient_norm(u, p, beta))


def test_family_engine_weight_fn_path(grid):
    t = 1e-3
    grid_t = grid.mapped(t)

    def weight_fn(x, _bp=-0.5):
        return t ** (grid_t.beta - _bp) * grid_t.rho ** (-grid_t.beta) * grid_t.wextra

    funcs = [u.push_to(grid_t) for u in functions_on(grid)]
    got = _family_norms(funcs, [(2.0, range(k + 1)) for k in (0, 1, 2)], None, weight_fn)
    for k, row in enumerate(got):
        for u, value in zip(funcs, row):
            assert_close(float(value), ref_weighted_sobolev_norm(
                u, WeightSpec(p=2.0, k=k, beta=None), weight_fn=weight_fn))


NODE_WEIGHT_NORMS = [(6.0, (0,)), (2.0, (0, 1)), (2.0, (1,)), (3.0, range(3)), (1.0, (2,))]


@pytest.mark.parametrize("beta", [None, 0.3, "weight_fn"])
def test_family_engine_node_weights_match_row_weights(grid, beta):
    """Weights taken once on the nodes and gathered onto the rows give the
    per-row weights' norms bit for bit."""
    funcs = functions_on(grid) + bump_family(grid, n_members=32, seed=6)
    funcs += [ModeFunction.single(grid, 0.0, grid.rho ** (0.1 * i)) for i in range(6)]
    weight_fn = None
    if beta == "weight_fn":
        beta = None

        def weight_fn(x):
            return 1e-3 ** (grid.beta + 0.5) * grid.rho ** (-grid.beta) * grid.wextra

    got = _family_norms(funcs, NODE_WEIGHT_NORMS, beta, weight_fn)
    assert np.array_equal(got, ref_family_norms_rows(funcs, NODE_WEIGHT_NORMS, beta, weight_fn))


def test_norms_that_share_a_weight_read_it_unchanged(grid):
    """A one-range member's rows are a slice of the span's weights; every
    norm that reads w rho^j reads the same values."""
    u = bump_family(grid, n_members=1, seed=2)[0]
    assert len(_support_window(u)) == 1
    norms = [(2.0, (0,)), (6.0, (0, 1)), (2.0, (1,)), (3.0, (0, 1, 2)), (1.5, (0,))]
    got = _family_norms([u], norms, -0.5)
    assert got[:, 0].tolist() == [_family_norms([u], [norm], -0.5)[0, 0] for norm in norms]


@pytest.fixture(scope="module")
def cone_2000():
    """norm_identities' exact cone at n_per_region 2000."""
    geo = preset_model("exact_cone_cs_ac", beta=-0.5).geometry(0)
    return build_grid(geo, n_per_region=2000, r_max=1e3)


def test_family_engine_node_weights_match_row_weights_on_the_hoelder_factors(cone_2000):
    """The first factors of norm_identities' Hoelder sweep: one pass of
    35 575 rows, with per-row weights' norms bit for bit."""
    us = [u for u, _ in random_bump_pairs(cone_2000, 100, seed=3)]
    assert sum(hi - lo for u in us for lo, hi in _support_window(u)) == 35575
    for beta in (-0.5, None):
        got = _family_norms(us, NODE_WEIGHT_NORMS, beta)
        assert np.array_equal(got, ref_family_norms_rows(us, NODE_WEIGHT_NORMS, beta))


@pytest.mark.parametrize("p", [2.0, 6.0])
def test_family_members_are_their_one_member_norms(grid, p):
    """A member's norms do not depend on the rest of the family."""
    funcs = functions_on(grid)
    spec = WeightSpec(p=p, k=2, beta=None)
    sob, grad = _family_norms(funcs, [(p, range(3)), (p, (1,))], None)
    assert [float(v) for v in sob] == [weighted_sobolev_norm(u, spec) for u in funcs]
    assert [float(v) for v in grad] == [gradient_norm(u, p) for u in funcs]


def test_seam_straddling_bump_gets_two_arcs():
    grid = build_grid(GEOMETRIES["spindle_t1e-2"](), n_per_region=300)
    x, n = grid.nodes, grid.n
    across = ModeFunction.single(grid, 0.0, bump_profile(grid, x[0], 5 * (x[1] - x[0])))
    (lo0, hi0), (lo1, hi1) = across.modes[0].support
    assert lo0 == 0 and hi1 == n and hi0 < lo1
    assert _support_window(across) == [(0, hi0 + 2), (lo1 - 2, n)]
    for k in (0, 1, 2):
        for beta in (None, 0.3):
            spec = WeightSpec(p=2.0, k=k, beta=beta)
            assert_close(weighted_sobolev_norm(across, spec),
                         ref_weighted_sobolev_norm(across, spec))
    v = np.zeros(n)
    v[1:20] = 1.0  # the reach wraps from node 1 to node n - 1
    assert _support_window(ModeFunction.single(grid, 0.0, v)) == [(0, 22), (n - 1, n)]
    v = np.zeros(n)
    v[10:20] = 1.0
    assert _support_window(ModeFunction.single(grid, 0.0, v)) == [(8, 22)]
    v[n - 3:] = 1.0  # a second range, whose reach wraps to nodes 0 and 1
    assert _support_window(ModeFunction.single(grid, 0.0, v)) == [(0, 2), (8, 22), (n - 5, n)]
    v[1] = 1.0  # the widened ranges meet across the seam
    assert _support_window(ModeFunction.single(grid, 0.0, v)) == [(0, 22), (n - 5, n)]


# ---------------------------------------------------------------------------
# supports handed over by the builders, and the batched Hoelder sweep


def assert_scanned_supports(funcs):
    """Every mode's support is the one the constructor's full scan
    finds; returns the number of two-arc supports."""
    two = 0
    for u in funcs:
        for mp in u.modes:
            assert mp.support == ModeProfile(mp.e, mp.values).support
            two += len(mp.support) == 2
    return two


def test_builder_supports_are_the_full_scan(grid):
    fam = [u for seed in (0, 4, 9) for u in bump_family(grid, n_members=32, seed=seed)]
    pairs = random_bump_pairs(grid, 60, seed=5)
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    products = [mode_product(u, v) for u, v in pairs]
    products += [mode_product(fam[i], fam[i + 2]) for i in range(0, 30, 2)]  # mode-0 first factors
    pushed = [u.push_to(grid.mapped(1e-2)) for u in fam[:12] + us[:12]]
    two_arcs = [assert_scanned_supports(f) for f in (fam, us + vs, products, pushed)]
    if grid.geometry.circle:  # members across the seam keep their two arcs
        assert min(two_arcs) > 0
    else:
        assert max(two_arcs) == 0
    for u, w in zip(fam[:12] + us[:12], pushed):
        assert w.modes[0].support == u.modes[0].support
        assert np.array_equal(w.modes[0].values, u.modes[0].values)
        assert w.modes[0].values is not u.modes[0].values


def test_mode_product_scans_the_first_factor_span(grid):
    n = grid.n
    u, v = np.zeros(n), np.zeros(n)
    u[10:40], v[30:n - 5] = 2.0, 3.0
    uv = mode_product(ModeFunction.single(grid, 0.0, u), ModeFunction.single(grid, 1.5, v))
    assert uv.modes[0].support == ((30, 40),) == ModeProfile(0.0, u * v).support
    u[n - 3:], v[n - 5:] = 1.0, 3.0  # a span with a zero gap: the scan splits around it
    uv = mode_product(ModeFunction.single(grid, 0.0, u), ModeFunction.single(grid, 1.5, v))
    assert uv.modes[0].support == ((30, 40), (n - 3, n)) == ModeProfile(0.0, u * v).support
    u[12] = 1e200  # the span is checked for finiteness
    v[12] = 1e200
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        mode_product(ModeFunction.single(grid, 0.0, u), ModeFunction.single(grid, 1.5, v))
    zero = ModeFunction.single(grid, 0.0, np.zeros(n))
    assert mode_product(zero, ModeFunction.single(grid, 1.5, v)).modes[0].support == ()


def one_pair_reports(pairs, p, beta1, beta2):
    """The three single-function norms per pair, as holder_check used to
    take them."""
    out = []
    for u, v in pairs:
        p_prime = p / (p - 1.0)
        lhs = weighted_sobolev_norm(mode_product(u, v), WeightSpec(p=1.0, k=0, beta=beta1 + beta2))
        nu = weighted_sobolev_norm(u, WeightSpec(p=p, k=0, beta=beta1))
        nv = weighted_sobolev_norm(v, WeightSpec(p=p_prime, k=0, beta=beta2))
        out.append((lhs, nu * nv))
    return out


@pytest.mark.parametrize("p", [1.5, 2.0, 6.0])
def test_holder_sweep_is_the_one_pair_norms(grid, p):
    pairs = random_bump_pairs(grid, 40, seed=2)
    zero = ModeFunction.single(grid, 0.0, np.zeros(grid.n))
    pairs += [(zero, pairs[0][1]), (pairs[1][0], zero)]
    reports = _holder_sweep(pairs, p, -0.5, 0.25)
    want = one_pair_reports(pairs, p, -0.5, 0.25)
    assert [(r.lhs, r.rhs) for r in reports] == want
    assert reports[-2].lhs == reports[-2].rhs == reports[-1].lhs == reports[-1].rhs == 0.0
    assert not any(r.violated for r in reports)
    assert [holder_check(u, v, p, -0.5, 0.25) for u, v in pairs[:5]] == reports[:5]


def test_holder_sweep_edges(grid):
    assert _holder_sweep([], 2.0, 0.0, 0.0) == [] == random_bump_pairs(grid, 0)
    pairs = random_bump_pairs(grid, 2, seed=1)
    for p in (1.0, 0.5):
        with pytest.raises(ValueError, match="needs p > 1"):
            _holder_sweep(pairs, p, 0.0, 0.0)
        with pytest.raises(ValueError, match="needs p > 1"):
            _holder_sweep([], p, 0.0, 0.0)
        with pytest.raises(ValueError, match="needs p > 1"):
            holder_check(*pairs[0], p, 0.0, 0.0)
    other = random_bump_pairs(build_grid(GEOMETRIES["dumbbell_t1e-3"](), n_per_region=100), 1)
    with pytest.raises(ValueError, match="one grid"):
        _holder_sweep(pairs + other, 2.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# zero members: one rule on both ratio paths


def test_embedding_names_the_zero_member(grid):
    fam = bump_family(grid, n_members=3, seed=1)
    zero = ModeFunction.single(grid, 0.0, np.zeros(grid.n))
    with pytest.raises(ValueError, match="member 2 has a zero"):
        embedding_constant_estimate(fam[:2] + [zero, fam[2]], p=2.0, beta=-0.5)


def test_gns_row_names_the_zero_member(monkeypatch):
    fam = dumbbell_family()
    cfg = ex.ExperimentConfig.from_dict({"experiment": "gns_uniformity", "t_list": [0.1, 0.01],
                                         "n_per_region": 100, "family_size": 4})
    build = wc.bump_family

    def with_zero(grid, **kwargs):
        members = build(grid, **kwargs)
        return members[:1] + [ModeFunction.single(grid, 0.0, np.zeros(grid.n))] + members[1:]

    monkeypatch.setattr(wc, "bump_family", with_zero)
    with pytest.raises(ValueError, match="member 1 has a zero"):
        ex._gns_row(cfg, fam.at(0.1))


# ---------------------------------------------------------------------------
# one pass per family


def spy(monkeypatch, name):
    """Record the arguments of every call of weighted_calc.<name>."""
    calls, real = [], getattr(wc, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wc, name, recorded)
    return calls


@pytest.mark.parametrize("experiment", ["embedding_uniformity", "gns_uniformity"])
def test_a_spindle_sweep_takes_one_pass_per_family(monkeypatch, experiment):
    """Each t of a 32-bump spindle sweep at n_per_region 2000 builds its
    family in one _bump_values pass (no attempt is skipped, so one round)
    and takes its norms in one _densities_on pass, whatever the family's
    row count (about 14 600 to 35 400 window rows here)."""
    t_list = [10.0 ** -k for k in range(1, 9)]
    cfg = ex.ExperimentConfig.from_dict({"experiment": experiment, "model": "spindle",
                                         "t_list": t_list, "n_per_region": 2000,
                                         "family_size": 32, "seed": 3})
    bumps, dens = spy(monkeypatch, "_bump_values"), spy(monkeypatch, "_densities_on")
    ex.run(cfg)
    assert [args[1].size for args in bumps] == [32] * len(t_list)
    assert [len(args[1]) for args in dens] == [32] * len(t_list)
    assert min(sum(hi - lo for win in args[2] for lo, hi in win) for args in dens) > 10000


def test_the_hoelder_sweep_takes_one_pass_per_factor_family(monkeypatch, cone_2000):
    """norm_identities' 100 pairs at n_per_region 2000: one _bump_values
    pass for the 200 bumps, one _densities_on pass for each of the three
    norm-engine calls (products, first and second factors)."""
    bumps, dens = spy(monkeypatch, "_bump_values"), spy(monkeypatch, "_densities_on")
    pairs = random_bump_pairs(cone_2000, 100, seed=3)
    assert [args[1].size for args in bumps] == [200]
    reports = _holder_sweep(pairs, 6.0, -0.5, 0.25)
    assert len(reports) == 100 and not any(r.violated for r in reports)
    assert [(len(args[1]), args[3]) for args in dens] == [(100, 0)] * 3
