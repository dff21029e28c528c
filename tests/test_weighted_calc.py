"""Norm evaluation against 1-D quadrature oracles, scaling identities,
and the inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conifold_lab.conifold_model import (
    Cap,
    Component,
    ConifoldModel,
    EndSpec,
    dumbbell_family,
    preset_model,
    spindle_family,
    warp_preset,
)
from conifold_lab import weighted_calc as wc
from conifold_lab.link_spectra import make_link
from conifold_lab.spectral_laplace import invertibility_constant
from conifold_lab.weighted_calc import (
    ModeFunction,
    RadialGrid,
    WeightSpec,
    _family_norms,
    banach_algebra_check,
    build_grid,
    bump_family,
    bump_profile,
    embedding_constant_estimate,
    gradient_norm,
    holder_check,
    mode_product,
    norm_ratios,
    random_bump_pairs,
    rescaling_invariance_check,
    weighted_ck_norm,
    weighted_sobolev_norm,
    weighted_sobolev_norm_report,
)

S2 = make_link("sphere", dim=2)


@pytest.fixture(scope="module")
def cone_grid():
    cone = preset_model("exact_cone_cs_ac")
    return build_grid(cone.geometry(0), n_per_region=600)


def window(r, lo=1.0, hi=2.0):
    s = np.clip((np.log(r) - np.log(lo)) / (np.log(hi) - np.log(lo)), 0.0, 1.0)
    return np.where((r >= lo) & (r <= hi), (1.0 - (2 * s - 1) ** 2) ** 3, 0.0)


def test_mode0_bump_matches_classical_integral(cone_grid):
    # theta-constant bump r^s chi(r) on the cone over the unit 2-sphere:
    # the squared L^2_{beta=0} norm is int |u|^2 r^-3 r^2 (4 pi) dr
    s_exp = 0.7
    prof = cone_grid.rho**s_exp * window(cone_grid.rho)
    u = ModeFunction.single(cone_grid, 0.0, prof)
    got = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=0, beta=0.0))
    oracle_sq = quad(
        lambda r: (r**s_exp * float(window(np.array([r]))[0])) ** 2
        * r ** (-3) * r**2 * 4.0 * math.pi,
        1.0, 2.0, limit=200,
    )[0]
    assert got == pytest.approx(math.sqrt(oracle_sq), rel=1e-9)


def test_first_derivative_norm_matches_quadrature_oracle(cone_grid):
    # pure k=1 contribution of a mode-0 bump: int |u'|^2 r^{2-2b} r^{-3} r^2 4pi
    prof = window(cone_grid.rho)
    u = ModeFunction.single(cone_grid, 0.0, prof)
    b = -0.5
    got = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=1, beta=b))

    def chi_prime(r):
        lo, hi = 1.0, 2.0
        s = (math.log(r) - math.log(lo)) / (math.log(hi) - math.log(lo))
        if not 0.0 < s < 1.0:
            return 0.0
        ds = 1.0 / (r * (math.log(hi) - math.log(lo)))
        v = 2.0 * s - 1.0
        return 3.0 * (1.0 - v * v) ** 2 * (-2.0 * v) * 2.0 * ds

    i0 = quad(lambda r: float(window(np.array([r]))[0]) ** 2 * r ** (-2 * b) * r ** (-1) * 4 * math.pi,
              1.0, 2.0, limit=200)[0]
    i1 = quad(lambda r: chi_prime(r) ** 2 * r ** (2 - 2 * b) * r ** (-1) * 4 * math.pi,
              1.0, 2.0, limit=200)[0]
    # finite differences enter through D_1, so agreement is to O(h^2)
    assert got == pytest.approx(math.sqrt(i0 + i1), rel=5e-3)
    fine = build_grid(preset_model("exact_cone_cs_ac").geometry(0), n_per_region=1200)
    u_fine = ModeFunction.single(fine, 0.0, window(fine.rho))
    got_fine = weighted_sobolev_norm(u_fine, WeightSpec(p=2.0, k=1, beta=b))
    err_coarse = abs(got - math.sqrt(i0 + i1))
    err_fine = abs(got_fine - math.sqrt(i0 + i1))
    assert err_fine < 0.5 * err_coarse


def test_zero_function_zero_norm(cone_grid):
    u = ModeFunction.single(cone_grid, 2.0, np.zeros(cone_grid.n))
    assert weighted_sobolev_norm(u, WeightSpec(p=2.0, k=2, beta=-0.5)) == 0.0


def test_standard_lp_recovered_at_unit_scale():
    # a compact cap/cap piece has rho = 1: the weighted norm is the plain
    # L^p norm of the mode sum
    comp = Component(link=S2, warp=warp_preset("hyperboloid", 1.0),
                     left=Cap(), right=Cap(), length=2.0)
    model = ConifoldModel(3, (comp,))
    grid = build_grid(model.geometry(0), n_per_region=400)
    prof = np.sin(math.pi * grid.nodes / 2.0) ** 2
    u = ModeFunction.single(grid, 0.0, prof)
    p = 3.0
    got = weighted_sobolev_norm(u, WeightSpec(p=p, k=0, beta=0.0))
    vol = grid.quad * grid.f**2 * 4.0 * math.pi
    expect = float(np.sum(np.abs(prof) ** p * vol)) ** (1.0 / p)
    assert got == pytest.approx(expect, rel=1e-14)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(-100.0, 100.0))
def test_norm_homogeneity(c):
    cone = preset_model("exact_cone_cs_ac")
    grid = build_grid(cone.geometry(0), n_per_region=150)
    u = ModeFunction.single(grid, 2.0, window(grid.rho))
    base = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=2, beta=-0.5))
    scaled = weighted_sobolev_norm(ModeFunction.single(grid, 2.0, c * window(grid.rho)),
                                   WeightSpec(p=2.0, k=2, beta=-0.5))
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


def test_norm_monotone_in_k(cone_grid):
    u = ModeFunction.single(cone_grid, 2.0, window(cone_grid.rho))
    vals = [weighted_sobolev_norm(u, WeightSpec(p=2.0, k=k, beta=-0.5)) for k in (0, 1, 2)]
    assert vals[0] <= vals[1] <= vals[2]


def test_grid_refinement_stability():
    cone = preset_model("exact_cone_cs_ac")
    vals = []
    for n in (300, 600):
        grid = build_grid(cone.geometry(0), n_per_region=n)
        u = ModeFunction.single(grid, 2.0, window(grid.rho))
        vals.append(weighted_sobolev_norm(u, WeightSpec(p=2.0, k=2, beta=-0.5)))
    assert abs(vals[1] - vals[0]) / vals[1] < 0.01


def _dumbbell(t):
    return lambda: dumbbell_family().at(t).geometry


SOFT_END_CASES = {
    "dumbbell_t0.1_n10": (_dumbbell(1e-1), 10),
    "dumbbell_t0.1_n5": (_dumbbell(1e-1), 5),
    "dumbbell_t1e-4_n24": (_dumbbell(1e-4), 24),
    "cone_n10": (lambda: preset_model("exact_cone_cs_ac").geometry(0), 10),
    "dumbbell_t0.1_n250": (_dumbbell(1e-1), 250),
    "cone_n250": (lambda: preset_model("exact_cone_cs_ac").geometry(0), 250),
}


@pytest.mark.parametrize("case", sorted(SOFT_END_CASES))
def test_soft_ends_stop_within_a_step_of_the_truncation(case):
    """Each AC end reaches r_max = 1e3 and each CS end chart_r times
    r_min_factor = 1e-3, and passes it by less than its own last log step,
    also where min_region_nodes binds (n_per_region 5-24; the dumbbell's
    AC ends once reached 2.7e6 at 10 and 3.7e12 at 5)."""
    geometry, n_per_region = SOFT_END_CASES[case]
    geo = geometry()
    grid = build_grid(geo, n_per_region=n_per_region, r_max=1e3)
    for b in (geo.left, geo.right):
        r = b.sign * (grid.nodes - b.x0)
        r = np.sort(r[r > 0])
        if b.kind == "ac":
            beyond, step = math.log(r[-1] / 1e3), math.log(r[-1] / r[-2])
        else:
            beyond, step = math.log(b.chart_r * 1e-3 / r[0]), math.log(r[1] / r[0])
        assert -1e-12 <= beyond < step, (b.kind, beyond, step)


def test_grid_stops_growing_once_min_region_nodes_binds():
    """At n_per_region 5 and 10 every region of the dumbbell at t = 0.1
    takes min_region_nodes nodes: the grids, and the invertibility
    constant on them, are the same (at 5 the constant was 1.1e10)."""
    geo = dumbbell_family().at(1e-1)
    grids = [build_grid(geo.geometry, n_per_region=n) for n in (5, 10)]
    assert np.array_equal(grids[0].nodes, grids[1].nodes)
    reps = [invertibility_constant(geo, beta=-0.5, e_max=6.0, n_per_region=n) for n in (5, 10)]
    assert reps[0].constant == reps[1].constant < 10.0


def test_a_grid_that_absolute_x_cannot_resolve_is_refused():
    """At t = 1e-10 the spindle's neck nodes lie within 1e-12 |x| of each
    other: 107 merges where its regions share 4 endpoints (2 198 nodes at
    t = 0.1 became 2 096).  Refused, with the count."""
    geo = spindle_family().at(1e-10).geometry
    with pytest.raises(ValueError, match=r"would lose 103 nodes.*ROADMAP item 4"):
        build_grid(geo, n_per_region=800)


@pytest.mark.parametrize("family, shared", [(dumbbell_family, 3), (spindle_family, 4)])
@pytest.mark.parametrize("n", [800, 2000])
def test_grids_down_to_t_1e_8_merge_only_shared_endpoints(monkeypatch, family, shared, n):
    """The dumbbell (an interval of 4 regions) and the spindle (a circle
    of 4) merge their 3 and 4 shared region endpoints and nothing else,
    so the check keeps every node and weight, bit for bit."""
    geo = family().at(1e-8).geometry
    checked = build_grid(geo, n_per_region=n)
    with pytest.raises(ValueError, match="would lose 1 nodes"):
        wc._check_merges(geo, shared + 1)
    merged = []
    monkeypatch.setattr(wc, "_check_merges", lambda geometry, count: merged.append(count))
    unchecked = build_grid(geo, n_per_region=n)
    assert merged == [shared]
    assert checked.nodes.tobytes() == unchecked.nodes.tobytes()
    assert checked.quad.tobytes() == unchecked.quad.tobytes()


def test_ck_norm_constant_is_one():
    for name in ("exact_cone_cs_ac", "hyperboloid_capped"):
        model = preset_model(name)
        grid = build_grid(model.geometry(0), n_per_region=200)
        u = ModeFunction.single(grid, 0.0, np.ones(grid.n))
        rep = weighted_ck_norm(u, k=0, beta=0.0)
        assert rep.value == pytest.approx(1.0, rel=1e-12)
        assert not rep.divergent


def test_ck_norm_power_matched_weight_flat(cone_grid):
    gamma = 0.6
    u = ModeFunction.single(cone_grid, 0.0, cone_grid.rho**gamma)
    rep = weighted_ck_norm(u, k=0, beta=gamma)
    assert rep.value == pytest.approx(1.0, rel=1e-10)
    assert not rep.divergent


def test_ck_norm_divergence_flagged(cone_grid):
    # on an AC end, sup of rho^(gamma-beta) diverges with the truncation
    # radius whenever the growth rate gamma exceeds the weight beta
    gamma = 0.5
    u = ModeFunction.single(cone_grid, 0.0, cone_grid.rho**gamma)
    rep = weighted_ck_norm(u, k=0, beta=gamma - 0.4)
    assert rep.divergent
    assert max(rep.tail_slopes) == pytest.approx(0.4, abs=0.05)


def test_rescaling_invariance_examples(cone_grid):
    u = ModeFunction.single(cone_grid, 0.0, window(cone_grid.rho))
    # scaled norm (w = 1): exact identity, roundoff only
    assert rescaling_invariance_check(u, WeightSpec(p=2.0, k=1, beta=0.0), 0.37) <= 1e-10
    # weighted norm with constant beta
    assert rescaling_invariance_check(u, WeightSpec(p=2.0, k=2, beta=-0.5), 0.1) <= 1e-10
    # t = 1 is exact
    assert rescaling_invariance_check(u, WeightSpec(p=2.0, k=2, beta=-0.5), 1.0) == 0.0


def test_rescaling_invariance_variable_weight_reference():
    var = ConifoldModel(3, (Component(
        link=S2, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", S2, nu=1.0, beta=-0.3, boundary=2.0),
        right=EndSpec("AC", S2, nu=-1.0, beta=0.7, boundary=2.0),
    ),))
    grid = build_grid(var.geometry(0), n_per_region=400)
    u = ModeFunction.single(grid, 0.0, window(grid.rho, 0.5, 8.0))
    for bp in (-0.3, 0.7, 0.0):
        defect = rescaling_invariance_check(
            u, WeightSpec(p=2.0, k=1, beta=None, beta_prime=bp), 0.05)
        assert defect <= 1e-10


def test_holder_equality_case(cone_grid):
    u = ModeFunction.single(cone_grid, 0.0, window(cone_grid.rho))
    rep = holder_check(u, u, p=2.0, beta1=-0.4, beta2=-0.4)
    assert not rep.violated
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    nu = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=0, beta=-0.4))
    assert rep.lhs == pytest.approx(nu * nu, rel=1e-12)


def test_holder_random_pairs_never_violated():
    fam = dumbbell_family()
    grid = build_grid(fam.at(1e-2).geometry, n_per_region=250)
    pairs = random_bump_pairs(grid, 100, seed=11)
    for u, v in pairs:
        rep = holder_check(u, v, p=2.0, beta1=-0.5, beta2=0.3)
        assert not rep.violated


def test_holder_zero_factor(cone_grid):
    u = ModeFunction.single(cone_grid, 0.0, np.zeros(cone_grid.n))
    v = ModeFunction.single(cone_grid, 2.0, window(cone_grid.rho))
    rep = holder_check(u, v, p=2.0, beta1=0.0, beta2=0.0)
    assert rep.lhs == 0.0
    assert not rep.violated


def test_mode_product_requires_invariant_factor(cone_grid):
    u = ModeFunction.single(cone_grid, 2.0, window(cone_grid.rho))
    with pytest.raises(ValueError, match="rotation-invariant"):
        mode_product(u, u)


def test_banach_algebra_consistency_constant():
    comp = Component(link=S2, warp=warp_preset("hyperboloid", 1.0),
                     left=Cap(), right=Cap(), length=2.0)
    model = ConifoldModel(3, (comp,))
    grid = build_grid(model.geometry(0), n_per_region=300)
    one = ModeFunction.single(grid, 0.0, np.ones(grid.n))
    rep = banach_algebra_check(one, one, p=2.0, beta1=0.0, beta2=0.0)
    norm1 = weighted_sobolev_norm(one, WeightSpec(p=2.0, k=2, beta=0.0))
    assert rep.rhs_ratio == pytest.approx(1.0 / norm1, rel=1e-12)


def test_banach_algebra_zero_factor(cone_grid):
    u = ModeFunction.single(cone_grid, 0.0, window(cone_grid.rho))
    z = ModeFunction.single(cone_grid, 0.0, np.zeros(cone_grid.n))
    rep = banach_algebra_check(u, z, p=2.0, beta1=0.0, beta2=0.0)
    assert rep.lhs == 0.0


def test_banach_algebra_rejects_low_p(cone_grid):
    u = ModeFunction.single(cone_grid, 0.0, window(cone_grid.rho))
    with pytest.raises(ValueError, match="2p > m"):
        banach_algebra_check(u, u, p=1.2, beta1=0.0, beta2=0.0)


def test_banach_algebra_ratio_stable_under_refinement():
    fam = dumbbell_family()
    maxima = []
    for n in (250, 500):
        grid = build_grid(fam.at(1e-2).geometry, n_per_region=n)
        pairs = random_bump_pairs(grid, 25, seed=3)
        ratios = [banach_algebra_check(u, v, p=4.0, beta1=-0.5, beta2=-0.5).rhs_ratio
                  for u, v in pairs]
        maxima.append(max(ratios))
    assert abs(maxima[1] - maxima[0]) / maxima[1] < 0.05


def test_embedding_ratio_flat_on_exact_cone():
    cone = preset_model("exact_cone_cs_ac")
    grid = build_grid(cone.geometry(0), n_per_region=500)
    fam = bump_family(grid, n_members=12, modes=(0.0,), seed=0, jitter=0.0)
    rep = embedding_constant_estimate(fam, p=2.0, beta=-0.5)
    assert max(rep.ratios) / min(rep.ratios) < 1.04  # flat to +-2 percent


def test_embedding_rejects_zero_member(cone_grid):
    z = ModeFunction.single(cone_grid, 0.0, np.zeros(cone_grid.n))
    with pytest.raises(ValueError, match="zero"):
        embedding_constant_estimate([z], p=2.0, beta=-0.5)


def test_empty_families_are_refused():
    with pytest.raises(ValueError, match="empty test family"):
        norm_ratios([], -0.5, (2.0, (0,)), (2.0, (1,)))


@pytest.mark.parametrize("name", ["f", "rho", "wextra", "d1", "volume", "radial_operator"])
def test_grid_fields_are_not_constructor_arguments(cone_grid, name):
    with pytest.raises(TypeError, match=name):
        RadialGrid(cone_grid.geometry, cone_grid.nodes, cone_grid.quad,
                   **{name: getattr(cone_grid, name)})
    rebuilt = RadialGrid(cone_grid.geometry, cone_grid.nodes, cone_grid.quad)
    assert np.array_equal(rebuilt.f, cone_grid.f)
    assert getattr(rebuilt, name) is getattr(rebuilt, name)


def test_grid_builds_its_stencils_once(monkeypatch, cone_grid):
    """d1 and d2 come from one cached _build_derivatives call (the method
    the benchmark's tracer times), and the radial operator reads them."""
    calls = []
    build = RadialGrid._build_derivatives
    monkeypatch.setattr(RadialGrid, "_build_derivatives",
                        lambda self: calls.append(self) or build(self))
    grid = RadialGrid(cone_grid.geometry, cone_grid.nodes, cone_grid.quad)
    assert calls == []
    d1, d2 = grid.d1, grid.d2
    assert grid.radial_operator.keys() == d1.keys() == d2.keys()
    assert grid.d1 is d1 and grid.d2 is d2 and calls == [grid]


def test_embedding_rejects_supercritical_p(cone_grid):
    u = ModeFunction.single(cone_grid, 0.0, window(cone_grid.rho))
    with pytest.raises(ValueError, match="no L"):
        embedding_constant_estimate([u], p=3.0, beta=-0.5)  # p = 3 = m


def test_norm_report_tail_extrapolation(cone_grid):
    # an integrand decaying like a pure power: the extrapolated norm must
    # exceed the truncated one and stay finite
    u = ModeFunction.single(cone_grid, 0.0, cone_grid.rho**-2.0)
    rep = weighted_sobolev_norm_report(u, WeightSpec(p=2.0, k=0, beta=0.0))
    assert rep.tail_estimate >= rep.value
    assert not rep.tail_divergent


def test_bump_family_spans_regions():
    fam = dumbbell_family()
    grid = build_grid(fam.at(1e-3).geometry, n_per_region=300)
    bumps = bump_family(grid, n_members=32, seed=0)
    assert len(bumps) == 32
    modes = {u.modes[0].e for u in bumps}
    assert modes == {0.0, 2.0}
    centers = [float(grid.nodes[np.argmax(np.abs(u.modes[0].values))]) for u in bumps]
    assert min(centers) < -1.0 and max(centers) > 1.0  # both tails reached
    assert any(abs(c) < 0.1 for c in centers)  # neck reached


@pytest.mark.parametrize("kwargs,name", [({"modes": ()}, "modes"),
                                         ({"n_members": -1}, "n_members")])
def test_bump_family_refuses_empty_modes_and_negative_counts(cone_grid, kwargs, name):
    with pytest.raises(ValueError, match=name):
        bump_family(cone_grid, **kwargs)


@pytest.mark.parametrize("r_max,anchor", [(0.5, "2.0"), (2.0, "2.0"), (0.1, "0.1")])
def test_build_grid_refuses_r_max_inside_an_ac_end(r_max, anchor):
    """The dumbbell at t = 0.1 anchors its AC ends at r = 0.1 (left) and
    r = 2 (right): an r_max at or below either radius is refused, naming
    both."""
    geo = dumbbell_family().at(0.1).geometry
    with pytest.raises(ValueError, match=rf"r_max {r_max} .*AC end.* radius {anchor}$"):
        build_grid(geo, n_per_region=100, r_max=r_max)


@pytest.mark.parametrize("factor", [1.0, 3.0])
def test_build_grid_refuses_r_min_factor_inside_a_cs_end(factor):
    """The exact cone anchors its CS end at r = 2: an r_min_factor of 1 or
    more puts the truncation at or above it and is refused."""
    geo = preset_model("exact_cone_cs_ac").geometry(0)
    with pytest.raises(ValueError, match=rf"r_min_factor {factor} .*CS end.* radius 2.0$"):
        build_grid(geo, n_per_region=100, r_min_factor=factor)


def test_gradient_norm_matches_k1_difference(cone_grid):
    u = ModeFunction.single(cone_grid, 2.0, window(cone_grid.rho))
    g = gradient_norm(u, p=2.0, beta=-0.5)
    full = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=1, beta=-0.5))
    base = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=0, beta=-0.5))
    assert g == pytest.approx(math.sqrt(full**2 - base**2), rel=1e-10)


def test_embedding_ratio_invariant_under_rescaling():
    cone = preset_model("exact_cone_cs_ac")
    grid = build_grid(cone.geometry(0), n_per_region=400)
    u = ModeFunction.single(grid, 0.0, window(grid.rho))
    t = 0.2
    grid_t = grid.mapped(t)
    u_t = u.push_to(grid_t)

    def ratio(v):
        num = weighted_sobolev_norm(v, WeightSpec(p=2.0, k=0, beta=-0.5))
        den = weighted_sobolev_norm(v, WeightSpec(p=2.0, k=1, beta=-0.5))
        return num / den

    # p* = p = 2 would be trivial; use the L^2 / W^1 quotient, which obeys
    # the same t^(-beta) cancellation on matched grids
    assert abs(ratio(u) - ratio(u_t)) / ratio(u) <= 1e-10


def test_hessian_density_matches_closed_form_on_cone():
    # |grad^2 (r^g s_e)|^2 on the exact cone over the unit 2-sphere:
    #   r^(2g-4) [ g^2(g-1)^2 + 2e(g-1)^2 + (e^2 - kappa e) - 2eg + (m-1)g^2 ]
    # with kappa = 1 the sphere's Einstein constant; checks the mixed and
    # angular blocks of the k=2 assembly independently of the norms
    from conifold_lab.weighted_calc import densities
    grid = build_grid(preset_model("exact_cone_cs_ac").geometry(0), n_per_region=800)
    m, kappa = 3, 1.0
    for e, g in ((2.0, 1.7), (6.0, -0.8), (0.0, 2.3)):
        u = ModeFunction.single(grid, e, grid.rho**g)
        d2 = densities(u, 2)[2]
        coef = (g * g * (g - 1) ** 2 + 2 * e * (g - 1) ** 2
                + (e * e - kappa * e) - 2 * e * g + (m - 1) * g * g)
        exact = np.sqrt(max(coef, 0.0)) * grid.rho ** (g - 2)
        inner = slice(2, -2)
        rel = np.max(np.abs(d2[inner] - exact[inner]) / np.maximum(exact[inner], 1e-300))
        assert rel < 1e-4, (e, g, rel)


# The embedding and GNS extremal problems on the exact cone, m = 3, p = 2.
# With z = log r and v = r^(-beta) u (so rho = r, f = r and the norm volume
# is V dz, V = |S^2| = 4 pi):
#   ||u||^2 of W^2_{1,beta} = V int v'^2 + (1 + beta^2) v^2 dz,
#   ||du||^2 of L^2_{beta-1} = V int v'^2 + beta^2 v^2 dz,
#   ||u||^6 of L^6_beta     = V int v^6 dz,
# and Sz.-Nagy's sharp inequality makes sup ||u||_6 / (V int v'^2 + c v^2)^(1/2)
# = (16 / (27 pi^2 c^2))^(1/6) V^(-1/3), attained by v = sech(kappa z)^(1/2)
# at kappa = 2 sqrt(c): c = 1 + beta^2 for the embedding, beta^2 for GNS.
SZ_NAGY_NORMS = {"embedding": (lambda beta: 1.0 + beta**2, (2.0, (0, 1))),
                 "gns": (lambda beta: beta**2, (2.0, (1,)))}


def sz_nagy_sup(c):
    return (16.0 / (27.0 * math.pi**2 * c**2)) ** (1.0 / 6.0) * (4.0 * math.pi) ** (-1.0 / 3.0)


def test_sz_nagy_closed_form_values():
    assert sz_nagy_sup(1.25) == pytest.approx(0.24986, abs=5e-6)
    assert sz_nagy_sup(0.25) == pytest.approx(0.42726, abs=5e-6)


@pytest.mark.parametrize("beta", [-0.5, -0.75, -1.0])
@pytest.mark.parametrize("norm", sorted(SZ_NAGY_NORMS))
def test_norm_engine_reaches_the_sz_nagy_closed_form(norm, beta):
    """A scan of sech(kappa z)^(1/2) profiles through _family_norms peaks
    at kappa = 2 sqrt(c) with the closed form.  Tolerances: 1e-4 relative
    for the quadrature (trapezoid in log r, three-point derivatives;
    n_per_region 2000 reads within 1e-5) and, above it, the truncation
    of the profile at r = eps 1e-3 and r_max = 1e3: the missing tails,
    (e^(-kappa |z_lo|) + e^(-kappa z_hi)) / pi of the denominator's
    integrals at leading order, make the ratio read high by about half
    that (GNS at beta = -0.5, kappa = 1, reads 0.09 % high).  The 32-bump
    family stays below the closed form."""
    c_of, den = SZ_NAGY_NORMS[norm]
    c = c_of(beta)
    grid = build_grid(preset_model("exact_cone_cs_ac", beta=beta).geometry(0),
                      n_per_region=2000)
    z = np.log(grid.rho)
    k0 = 2.0 * math.sqrt(c)
    kappas = k0 * np.linspace(0.8, 1.25, 46)
    family = [ModeFunction.single(grid, 0.0, grid.rho**beta / np.sqrt(np.cosh(k * z)))
              for k in kappas]
    top, bottom = _family_norms(family, [(6.0, (0,)), den], beta)
    ratios = top / bottom
    best = int(np.argmax(ratios))
    sup = sz_nagy_sup(c)
    truncation = (math.exp(-k0 * abs(z[0])) + math.exp(-k0 * z[-1])) / math.pi
    assert sup * (1.0 - 1e-4) <= ratios[best] <= sup * (1.0 + 1e-4 + truncation)
    assert abs(kappas[best] / k0 - 1.0) <= 0.02
    bumps = bump_family(grid, n_members=32)
    top, bottom = _family_norms(bumps, [(6.0, (0,)), den], beta)
    assert np.max(top / bottom) < sup
