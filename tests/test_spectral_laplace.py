"""Mode operators, pencils, extremal constants and kernel detection."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

import conifold_lab.spectral_laplace as sl
from conifold_lab.conifold_model import (
    dumbbell_family,
    preset_model,
    spindle_family,
)
from conifold_lab.link_spectra import make_link
from conifold_lab.spectral_laplace import (
    WeightConditionError,
    _form_parts,
    assemble_mode_operator,
    invertibility_constant,
    kernel_dimension_scan,
    laplacian_pencil,
    poincare_constant,
    restricted_invertibility_compact,
    smallest_pencil_eigs,
    weight_crossing_kernel,
)
from conifold_lab.weight_calculus import exceptional_weights, gamma_roots
from conifold_lab.weighted_calc import _band_rows, build_grid, bump_profile, rescaled_geometry

S2 = make_link("sphere", dim=2)


def multiplicity(link, e):
    """Link multiplicity of eigenvalue e (0 when e is not in the spectrum)."""
    return sum(mult for ev, mult in link.eigenvalues_below(e + 1.0)
               if abs(ev - e) <= 1e-9 * max(1.0, e))


def cone_residual(grid, e, gamma):
    op = assemble_mode_operator(grid, e)
    u = grid.rho**gamma
    res = _band_rows(op.P, u)[op.interior]
    return float(np.max(np.abs(res) / (np.abs(u[op.interior]) + 1e-300)))


def test_exact_harmonics_annihilated_second_order():
    cone = preset_model("exact_cone_cs_ac")
    geo = cone.geometry(0)
    cases = [(0.0, -1.0), (2.0, -2.0), (6.0, -3.0), (20.0, 4.0)]
    res_coarse = {c: cone_residual(build_grid(geo, n_per_region=400), *c) for c in cases}
    res_fine = {c: cone_residual(build_grid(geo, n_per_region=800), *c) for c in cases}
    for c in cases:
        ratio = res_coarse[c] / res_fine[c]
        assert 3.5 <= ratio <= 4.5, (c, ratio)
    # polynomial harmonics are annihilated to roundoff
    grid = build_grid(geo, n_per_region=400)
    for e, gamma in ((0.0, 0.0), (2.0, 1.0), (6.0, 2.0)):
        assert cone_residual(grid, e, gamma) < 1e-10


def test_constants_harmonic_on_any_model():
    for name in ("hyperboloid_capped", "exact_cone_cs_ac"):
        grid = build_grid(preset_model(name).geometry(0), n_per_region=300)
        op = assemble_mode_operator(grid, 0.0)
        res = _band_rows(op.P, np.ones(grid.n))[op.interior]
        assert np.max(np.abs(res)) < 1e-11


def test_harmonic_basis_examples():
    # cone harmonics r^gamma s(theta): rates from gamma_roots, one harmonic
    # per link eigenfunction
    assert gamma_roots(2.0, 3) == (1.0, -2.0) and multiplicity(S2, 2.0) == 3
    assert gamma_roots(0.0, 3) == (0.0, -1.0) and multiplicity(S2, 0.0) == 1
    s3 = make_link("sphere", dim=3)
    assert gamma_roots(3.0, 4) == (1.0, -3.0) and multiplicity(s3, 3.0) == 4
    assert multiplicity(S2, 3.0) == 0


def test_harmonic_basis_agrees_with_exceptional_weights():
    for link, m in ((S2, 3), (make_link("sphere", dim=3), 4)):
        table = {}
        for w in exceptional_weights(link, m, (-6.0, 5.0)):
            table.setdefault(w.source_eigenvalue, set()).add((w.gamma, w.mult))
        for e, pairs in table.items():
            gp, gm = gamma_roots(e, m)
            for gamma, wm in pairs:
                assert wm == multiplicity(link, e)
                assert min(abs(gamma - gp), abs(gamma - gm)) < 1e-12


def ibp_defect(grid, e, u, v):
    """Relative defect of <v, Delta u> = <du, dv> for compactly supported
    nodal vectors (quadrature + stencil accuracy)."""
    m = grid.geometry.m
    vol = grid.quad * grid.f ** (m - 1) * grid.volume_factor
    op = assemble_mode_operator(grid, e)
    lap_u = _band_rows(op.P, u) / grid.rho**2
    lhs = float(np.sum(vol * v * lap_u))
    du = _band_rows(grid.d1, u)
    dv = _band_rows(grid.d1, v)
    rhs = float(np.sum(vol * (du * dv + (e / grid.f**2) * u * v)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def test_duality_spot_check():
    # <v, Delta u> = <du, dv> holds to quadrature/stencil accuracy: the
    # defect is O(h^2) and small at production resolution
    fam = dumbbell_family()
    defects = {}
    for n in (600, 2400):
        grid = build_grid(fam.at(1e-2).geometry, n_per_region=n)
        u = bump_profile(grid, 0.7, 0.3)
        v = bump_profile(grid, 0.9, 0.4)
        defects[n] = max(ibp_defect(grid, e, u, v) for e in (0.0, 2.0))
    assert defects[2400] < 1e-3
    assert 10.0 < defects[600] / defects[2400] < 24.0  # ~ (h ratio)^2 = 16


def test_nonexceptional_check_examples():
    # the solvers' Fredholm test: refuse weights within 1e-9 of an
    # exceptional rate (S2, m = 3: ..., -1, 0, 1, 2, ...), warn within 1e-3
    geo = preset_model("hyperboloid_capped").geometry(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sl._check_nonexceptional(geo, -0.5)
    for beta in (0.0, 1.0 - 1e-12, 2.0):
        with pytest.raises(WeightConditionError, match="exceptional"):
            sl._check_nonexceptional(geo, beta)
    with pytest.warns(UserWarning, match="within"):
        sl._check_nonexceptional(geo, 1.0 - 1e-4)


def test_invertibility_refuses_exceptional_weight():
    # beta = 0 is refused on glued models (it also violates the weight
    # window); the exceptional-distance refusal fires on base AC models
    fam = dumbbell_family(beta=-0.5)
    with pytest.raises(WeightConditionError):
        invertibility_constant(fam.at(1e-2), beta=0.0, e_max=2.0, n_per_region=100)
    hyp = preset_model("hyperboloid_capped", beta=-0.5)
    with pytest.raises(WeightConditionError, match="exceptional"):
        invertibility_constant(hyp, beta=-2.0, e_max=6.0, n_per_region=100)


def test_invertibility_refuses_bad_weight_window():
    fam = dumbbell_family(beta=-0.5)
    glued = fam.at(1e-2)
    with pytest.raises(WeightConditionError, match="AC end weight"):
        invertibility_constant(glued, beta=0.5, e_max=2.0, n_per_region=100)


def test_invertibility_warns_near_exceptional():
    fam = dumbbell_family(beta=-0.5)
    fam2 = dumbbell_family(beta=-1.0 + 5e-4)
    glued = fam2.at(1e-2)
    with pytest.warns(UserWarning, match="exceptional"):
        invertibility_constant(glued, beta=-1.0 + 5e-4, e_max=2.0, n_per_region=150)


def test_invertibility_scale_invariance():
    # sigma_min of the weighted pencil is invariant under rescaling the
    # model with matched grids and the corrected weight bookkeeping
    hyp = preset_model("hyperboloid_capped", beta=-0.5)
    geo = hyp.geometry(0)
    grid = build_grid(geo, n_per_region=200)
    base = invertibility_constant(geo, beta=-0.5, e_max=6.0, grid=grid)
    t = 0.125
    grid_t = grid.mapped(t)
    scaled = invertibility_constant(rescaled_geometry(geo, t), beta=-0.5,
                                    e_max=6.0, grid=grid_t)
    assert abs(scaled.constant - base.constant) / base.constant < 1e-8


def test_kernel_scan_matches_region_arithmetic():
    hyp = preset_model("hyperboloid_capped")
    rows = kernel_dimension_scan(hyp, [-0.5, 0.5, 1.5, 2.5], e_max=12.0,
                                 n_per_region=400)
    assert [r.dimension for r in rows] == [0, 1, 4, 9]
    assert not any(r.ambiguous for r in rows)


def test_kernel_scan_monotone_in_beta():
    hyp = preset_model("hyperboloid_capped")
    betas = [-0.5, 0.3, 0.8, 1.2, 1.7, 2.2]
    rows = kernel_dimension_scan(hyp, betas, e_max=12.0, n_per_region=300)
    dims = [r.dimension for r in rows]
    assert dims == sorted(dims)


def test_weight_crossing_constant_mode():
    hyp = preset_model("hyperboloid_capped")
    rep = weight_crossing_kernel(hyp, gamma=0.0, e=0.0, n_per_region=400)
    # sigma = 1 is exactly harmonic: the correction is supported near the
    # cap and the candidate is (numerically) the constant
    vals = rep.candidate.modes[0].values
    r = np.asarray(hyp.geometry(0).rho(rep.candidate.grid.nodes))
    outer = r > 10.0
    assert np.max(np.abs(vals[outer] - 1.0)) < 1e-8
    assert rep.residual_sigma < rep.threshold


def test_weight_crossing_gamma_one():
    hyp = preset_model("hyperboloid_capped")
    rep = weight_crossing_kernel(hyp, gamma=1.0, e=2.0, n_per_region=400)
    assert rep.tail_slope is None or rep.tail_slope <= rep.slope_bound
    assert rep.residual_sigma < rep.threshold


def test_weight_crossing_gamma_two_nontrivial_decay():
    hyp = preset_model("hyperboloid_capped")
    rep = weight_crossing_kernel(hyp, gamma=2.0, e=6.0, n_per_region=600)
    assert rep.correction_norm > 0
    assert rep.tail_slope is not None
    assert rep.tail_slope <= rep.slope_bound  # gamma + nu + slack = 0.2
    assert rep.residual_sigma < rep.threshold


def test_weight_crossing_global_harmonic_needs_no_correction():
    cone = preset_model("exact_cone_cs_ac")
    rep = weight_crossing_kernel(cone, gamma=1.0, e=2.0, n_per_region=400)
    # r^gamma is globally harmonic on the exact cone: u_sigma = 0
    assert rep.correction_norm < 1e-9 * 1e3  # relative to sup sigma ~ r_max
    vals = rep.candidate.modes[0].values
    assert np.allclose(vals, rep.candidate.grid.rho, rtol=1e-9)


def test_weight_crossing_refused_without_surjectivity():
    hyp = preset_model("hyperboloid_capped")
    with pytest.raises(WeightConditionError, match="surjectivity"):
        weight_crossing_kernel(hyp, gamma=-1.0, e=0.0, n_per_region=200)


def test_restricted_compact_rejects_noncompact():
    fam = dumbbell_family()
    with pytest.raises(WeightConditionError, match="not compact"):
        restricted_invertibility_compact(fam, beta=-0.5, t=1e-2, e_max=2.0,
                                         n_per_region=100)


def test_restricted_compact_detects_constants():
    fam = spindle_family()
    rep = restricted_invertibility_compact(fam, beta=-0.5, t=1e-2, e_max=6.0,
                                           n_per_region=250)
    assert rep.sigma_mode0_unconstrained < 1e-2 * rep.sigma_constrained
    assert rep.sigma_constrained > 0.05


def test_poincare_preconditions():
    fam = spindle_family()
    glued = fam.at(1e-2)
    with pytest.raises(WeightConditionError, match="compact"):
        poincare_constant(glued, beta=-0.5, e_max=2.0, n_per_region=100)


def test_poincare_finite_on_dumbbell():
    fam = dumbbell_family()
    rep = poincare_constant(fam.at(1e-2), beta=-0.5, e_max=6.0, n_per_region=300)
    assert 0.0 < rep.constant < 100.0


def _raising(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


def _solver_cases():
    """(A, B, num_form): a hyperboloid pencil and the spindle's mode 0."""
    grid = build_grid(preset_model("hyperboloid_capped").geometry(0), n_per_region=200)
    pen = laplacian_pencil(grid, 2.0, _form_parts(grid, -0.5))
    yield pen.A_dia, pen.B_dia, pen.numerator
    grid = build_grid(spindle_family().at(1e-2).geometry, n_per_region=200)
    pen = laplacian_pencil(grid, 0.0, _form_parts(grid, -0.5))
    yield pen.A_dia, pen.B_dia, pen.numerator


def test_pencil_solver_lets_programming_errors_through(monkeypatch):
    monkeypatch.setattr(sl.spla, "eigsh", _raising(ValueError("bad argument")))
    for A, B, nf in _solver_cases():
        with pytest.raises(ValueError, match="bad argument"):
            smallest_pencil_eigs(A, B, k=1, num_form=nf)


@pytest.mark.parametrize("solver", ["eigsh", "splu"])
def test_pencil_solver_reraises_solver_failures(monkeypatch, solver):
    # there is no dense fallback: ARPACK's or SuperLU's own error reaches
    # the caller, on small pencils and on large ones
    n = 4001
    A = sp.diags(np.arange(1.0, n + 1), format="dia")
    B = sp.identity(n, format="dia")
    cases = [*_solver_cases(), (A, B, None)]
    err = (ArpackNoConvergence("no convergence", np.empty(0), np.empty((n, 0)))
           if solver == "eigsh" else RuntimeError("Factor is exactly singular"))
    monkeypatch.setattr(sl.spla, solver, _raising(err))
    for A, B, nf in cases:
        with pytest.raises(type(err)) as info:
            smallest_pencil_eigs(A, B, k=1, num_form=nf)
        assert info.value is err


def test_pencil_solver_reraises_arpack_failure_on_large_pencils(monkeypatch):
    n = 4001
    A = sp.diags(np.arange(1.0, n + 1), format="dia")
    B = sp.identity(n, format="dia")
    err = ArpackNoConvergence("no convergence", np.empty(0), np.empty((n, 0)))
    monkeypatch.setattr(sl.spla, "eigsh", _raising(err))
    with pytest.raises(ArpackNoConvergence) as info:
        smallest_pencil_eigs(A, B, k=1)
    assert info.value is err


def test_torus_link_irrational_rates_annihilated():
    # cone over the square flat torus: the nonzero rates are irrational,
    # exercising the Robin extrapolation away from integer powers
    import math
    from conifold_lab.conifold_model import Component, ConifoldModel, EndSpec, warp_preset
    tor = make_link("flat_torus", lengths=(2 * math.pi, 2 * math.pi))
    model = ConifoldModel(3, (Component(
        link=tor, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", tor, nu=1.0, beta=-0.5, boundary=2.0),
        right=EndSpec("AC", tor, nu=-1.0, beta=-0.5, boundary=2.0),
    ),))
    res = {}
    for n in (400, 800):
        grid = build_grid(model.geometry(0), n_per_region=n)
        gp, gm = gamma_roots(1.0, 3)
        assert multiplicity(tor, 1.0) == 4
        assert gp == pytest.approx((-1 + math.sqrt(5)) / 2, rel=1e-14)
        op = assemble_mode_operator(grid, 1.0)
        u = grid.rho**gp
        r = _band_rows(op.P, u)[op.interior]
        res[n] = float(np.max(np.abs(r) / np.abs(u[op.interior])))
    assert 3.5 < res[400] / res[800] < 4.5


def test_invertibility_deterministic_reruns():
    fam = dumbbell_family()
    glued = fam.at(1e-2)
    a = invertibility_constant(glued, beta=-0.5, e_max=6.0, n_per_region=200)
    b = invertibility_constant(glued, beta=-0.5, e_max=6.0, n_per_region=200)
    assert a.constant == b.constant
    assert a.per_mode == b.per_mode


def test_chain_glued_compact_interval_transverse_solve():
    from conifold_lab.conifold_model import Cap, Component, ConifoldModel, EndSpec, warp_preset
    L = preset_model("sine_spindle", beta=-0.5)
    def capped(label):
        return Component(
            link=S2, warp=warp_preset("hyperboloid", 0.5),
            left=Cap(),
            right=EndSpec("AC", S2, nu=-2.0, beta=-0.5, boundary=0.5, marked=True),
            label=label,
        )
    partner = ConifoldModel(3, (capped("h1"), capped("h2")), label="two_caps")
    from conifold_lab.conifold_model import GluedFamily
    fam = GluedFamily(L, partner, tau=0.5, a=0.4, b=0.2)
    rep = restricted_invertibility_compact(fam, beta=-0.5, t=1e-2, e_max=6.0,
                                           n_per_region=250)
    assert rep.sigma_mode0_unconstrained < 1e-2 * rep.sigma_constrained
    assert rep.sigma_constrained > 0.05


def test_poincare_refuses_weight_admitting_constants():
    fam = dumbbell_family(beta=-0.5)
    with pytest.raises(WeightConditionError, match="admits constants|marked-end weight"):
        poincare_constant(fam.at(1e-2), beta=0.5, e_max=2.0, n_per_region=100)


def test_glued_solvers_refuse_mismatched_weight():
    fam = dumbbell_family(beta=-0.5)
    with pytest.raises(WeightConditionError, match="marked-end weight"):
        invertibility_constant(fam.at(1e-2), beta=-0.7, e_max=2.0, n_per_region=100)
    sp = spindle_family(beta=-0.5)
    with pytest.raises(WeightConditionError, match="marked-end weight"):
        restricted_invertibility_compact(sp, beta=-0.7, t=1e-2, e_max=2.0,
                                         n_per_region=100)


def test_invertibility_reference_value():
    # implementation-defined reference for the standard benchmark,
    # recorded to catch silent regressions (deterministic solve)
    fam = dumbbell_family()
    rep = invertibility_constant(fam.at(1e-1), beta=-0.5, e_max=12.0,
                                 n_per_region=500)
    assert rep.constant == pytest.approx(5.5677, rel=0.05)


def test_invertibility_sigma_matches_mellin_symbol_oracle():
    """Independent oracle for the whole pencil stack: on the exact cone
    the radial problem diagonalizes under r = e^z Fourier modes
    u = r^(beta + i xi), giving

        sigma(e)^2 = min_xi |p(xi)|^2 / S(xi),
        p = e - q(beta) + xi^2 - i xi (2 beta + m - 2),  q(b) = b(b+m-2),

    with S the symbol of the k=2 weighted norm assembled from the same
    densities.  The discrete sigma on a long truncated cone must approach
    this continuum minimum (the e=0 minimizer sits at xi = 0, the slowest
    to resolve, hence its looser tolerance)."""
    import numpy as np
    from conifold_lab.conifold_model import Component, ConifoldModel, EndSpec, warp_preset

    m, beta, kappa = 3, -0.5, 1.0
    model = ConifoldModel(m, (Component(
        link=S2, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", S2, nu=1.0, beta=beta, boundary=1.0),
        right=EndSpec("AC", S2, nu=-1.0, beta=beta, boundary=1.0),
    ),))

    def symbol_sigma(e):
        xi = np.linspace(0.0, 40.0, 200001)
        q = beta * (beta + m - 2.0)
        p2 = (e - q + xi**2) ** 2 + xi**2 * (2 * beta + m - 2.0) ** 2
        s2 = beta * beta + xi * xi
        sm12 = (beta - 1.0) ** 2 + xi * xi
        ss1 = (beta * beta - beta - xi * xi) ** 2 + xi * xi * (2 * beta - 1.0) ** 2
        S = 1.0 + (s2 + e) + (ss1 + 2 * e * sm12 + (e * e - kappa * e)
                              - 2 * e * beta + (m - 1) * s2)
        return float(np.sqrt(np.min(p2 / S)))

    grid = build_grid(model.geometry(0), n_per_region=1500, r_max=1e4,
                      r_min_factor=1e-4)
    tolerances = {0.0: 0.08, 2.0: 0.02, 6.0: 0.01}
    for e, tol in tolerances.items():
        pen = laplacian_pencil(grid, e, _form_parts(grid, beta))
        lam = smallest_pencil_eigs(pen.A_dia, pen.B_dia, k=1, num_form=pen.numerator)
        disc = float(np.sqrt(max(lam[0], 0.0)))
        ana = symbol_sigma(e)
        assert abs(disc - ana) / ana < tol, (e, disc, ana)


def test_poincare_pencil_dominates_variational_family():
    # the pencil maximizes the Rayleigh quotient over the discrete space
    # of admissible (decaying) functions; compactly supported test
    # functions belong to it, so their ratios must sit below the pencil
    # value, which in turn must exceed the pure-cone-tail symbol bound
    # sqrt(1 + 1/beta^2) attained by near-critical tails
    from conifold_lab.weighted_calc import (WeightSpec, bump_family,
                                            gradient_norm, weighted_sobolev_norm)
    fam = dumbbell_family()
    glued = fam.at(1e-2)
    grid = build_grid(glued.geometry, n_per_region=400)
    rep = poincare_constant(glued, beta=-0.5, e_max=6.0, grid=grid)
    best = 0.0
    for u in bump_family(grid, n_members=30, seed=5):
        num = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=1, beta=-0.5))
        den = gradient_norm(u, p=2.0, beta=-0.5)
        best = max(best, num / den)
    assert best <= rep.constant * (1.0 + 1e-8)
    assert rep.constant >= math.sqrt(2.0)  # any admissible tail already gives this


def test_quadratic_forms_match_quadrature_norms():
    # the pencil denominators and the norm evaluations must realize the
    # same quadratic functional on single-mode functions
    from conifold_lab.spectral_laplace import weighted_form
    from conifold_lab.weighted_calc import ModeFunction, WeightSpec, weighted_sobolev_norm
    for name, e in (("hyperboloid_capped", 2.0), ("exact_cone_cs_ac", 6.0)):
        grid = build_grid(preset_model(name).geometry(0), n_per_region=300)
        prof = bump_profile(grid, float(np.median(grid.nodes[grid.nodes > 0])), 0.8)
        u = ModeFunction.single(grid, e, prof)
        for k in (0, 1, 2):
            form = weighted_form(grid, k, e, _form_parts(grid, -0.5))
            via_form = math.sqrt(max(prof @ _band_rows(form, prof), 0.0))
            via_norm = weighted_sobolev_norm(u, WeightSpec(p=2.0, k=k, beta=-0.5))
            assert via_form == pytest.approx(via_norm, rel=1e-10), (name, e, k)


def test_kernel_scan_torus_link_irrational_rates():
    # capped AC model over the square flat torus: exceptional rates are
    # irrational ((-1 + sqrt(5))/2 for e = 1, multiplicity 4) and the
    # detected kernels must still track the index arithmetic
    import math
    from conifold_lab.conifold_model import Cap, Component, ConifoldModel, EndSpec, warp_preset
    from conifold_lab.weight_calculus import EndDescriptor, WeightVector, index_change
    tor = make_link("flat_torus", lengths=(2 * math.pi, 2 * math.pi))
    model = ConifoldModel(3, (Component(
        link=tor, warp=warp_preset("hyperboloid", 1.0),
        left=Cap(),
        right=EndSpec("AC", tor, nu=-2.0, beta=-0.5, boundary=1.0),
    ),))
    betas = [-0.5, 0.3, 0.8, 1.2]
    rows = kernel_dimension_scan(model, betas, e_max=4.0, n_per_region=500)
    ends = [EndDescriptor("AC", tor)]
    expected = [index_change(WeightVector((-0.5,)), WeightVector((b,)), ends, 3)
                for b in betas]
    assert [r.dimension for r in rows] == expected == [0, 1, 5, 9]
    assert not any(r.ambiguous for r in rows)
