"""Model construction, compatibility, gluing, cutoff and rescaling."""

import math
from pathlib import Path

import numpy as np
import pytest

from conifold_lab.conifold_model import (
    FIELDS,
    BoundaryInfo,
    Cap,
    Component,
    ConifoldModel,
    EndSpec,
    GluedFamily,
    GluingError,
    PlanSegment,
    RadialGeometry,
    check_compatible,
    cutoff_eta,
    dumbbell_family,
    load_model,
    model_from_config,
    neck_convergence_check,
    preset_model,
    spindle_family,
    warp_preset,
)
from conifold_lab.link_spectra import make_link
from conifold_lab.weighted_calc import build_grid, rescaled_geometry

S2 = make_link("sphere", dim=2)


def hyperboloid_marked(beta=-0.5, Rhat=1.0):
    return ConifoldModel(3, (Component(
        link=S2, warp=warp_preset("hyperboloid", 1.0),
        left=Cap(),
        right=EndSpec("AC", S2, nu=-2.0, beta=beta, boundary=Rhat, marked=True),
    ),), label="hyperboloid_marked")


def test_check_compatible_pass():
    L = preset_model("exact_cone_cs_ac", beta=-0.5)  # CS eps = 2 marked
    report = check_compatible(L, hyperboloid_marked(beta=-0.5, Rhat=1.0))
    assert report.passed, report.failures()


def test_check_compatible_weight_mismatch():
    L = preset_model("exact_cone_cs_ac", beta=-0.5)
    report = check_compatible(L, hyperboloid_marked(beta=-0.4, Rhat=1.0))
    assert not report.passed
    assert any("weights" in c.code for c in report.failures())


def test_check_compatible_radius_violation():
    L = preset_model("exact_cone_cs_ac", beta=-0.5)
    report = check_compatible(L, hyperboloid_marked(beta=-0.5, Rhat=3.0))
    assert not report.passed
    assert any("radii" in c.code for c in report.failures())


def test_parametric_connect_sum_rejects_large_t():
    # a tight host chart (eps = 0.5) forces 2 t^tau < 0.5, so t = 0.1 is too big
    cone = ConifoldModel(3, (Component(
        link=S2, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", S2, nu=1.0, beta=-0.5, boundary=0.5, marked=True),
        right=EndSpec("AC", S2, nu=-1.0, beta=-0.5, boundary=2.0),
    ),))
    partner = ConifoldModel(3, (Component(
        link=S2, warp=warp_preset("hyperboloid", 0.1),
        left=Cap(),
        right=EndSpec("AC", S2, nu=-2.0, beta=-0.5, boundary=0.25, marked=True),
    ),))
    fam = GluedFamily(cone, partner, tau=0.5, a=0.4, b=0.2)
    with pytest.raises(GluingError, match="t\\*Rhat < t\\^tau"):
        fam.at(0.1)
    assert fam.at(0.01).geometry.junctions[0].eps == 0.5
    # eta_t must reach 1 inside the neck: t^b = 0.01^0.1 = 0.631 > eps is
    # refused although t*Rhat < t^tau < 2 t^tau < eps holds
    with pytest.raises(GluingError, match="t\\^b <= eps"):
        GluedFamily(cone, partner, tau=0.9, a=0.5, b=0.1).at(0.01)
    assert 0.0625**0.25 == 0.5  # t^b = eps exactly still glues
    geo = GluedFamily(cone, partner, tau=0.9, a=0.5, b=0.25).at(0.0625).geometry
    assert geo.eta(geo.junctions[0].center + geo.junctions[0].direction * 0.5) == 1.0


def test_glued_family_requires_ordered_cutoffs():
    L = preset_model("exact_cone_cs_ac")
    with pytest.raises(GluingError, match="0 < b < a < tau"):
        GluedFamily(L, preset_model("rxs2"), tau=0.5, a=0.2, b=0.4)


def test_exact_cone_gluing_is_identity_profile():
    cone = preset_model("exact_cone_cs_ac")
    hat = ConifoldModel(3, (Component(
        link=S2, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", S2, nu=1.0, beta=-0.5, boundary=2.0),
        right=EndSpec("AC", S2, nu=-1.0, beta=-0.5, boundary=1.0, marked=True),
    ),))
    glued = GluedFamily(cone, hat, tau=0.5, a=0.4, b=0.2).at(0.01)
    xs = np.geomspace(1e-4, 500.0, 200)
    assert np.max(np.abs(glued.geometry.f(xs) - xs)) < 1e-14
    rows = neck_convergence_check(glued.family, 0.01)
    assert all(row["sup"] < 1e-12 for row in rows)


def test_dumbbell_neck_layout_matches_parameters():
    fam = dumbbell_family()
    glued = fam.at(0.01)
    (J,) = glued.geometry.junctions
    assert J.t * J.Rhat == pytest.approx(0.01)
    assert J.eps == 2.0
    # interpolation band [t^tau, 2 t^tau] = [0.1, 0.2]
    assert 0.01**0.5 == pytest.approx(0.1)
    f_in = float(glued.geometry.f(0.099))
    f_band = float(glued.geometry.f(0.15))
    f_out = float(glued.geometry.f(0.21))
    assert f_in == pytest.approx(math.sqrt(0.099**2 + 0.01**2), rel=1e-12)
    assert f_out == pytest.approx(0.21, rel=1e-12)
    assert min(f_in, f_out) < f_band < max(math.sqrt(0.15**2 + 1e-4), 0.16)


def test_glued_fields_continuous_and_positive():
    for fam, t in ((dumbbell_family(), 1e-3), (spindle_family(), 1e-2)):
        geo = fam.at(t).geometry
        if geo.circle:
            xs = np.linspace(0.0, geo.period, 4001, endpoint=False)
        else:
            xs = np.concatenate([-np.geomspace(1e-6, 100.0, 1500)[::-1],
                                 np.geomspace(1e-6, 100.0, 1500)])
        f = geo.f(xs)
        rho = geo.rho(xs)
        assert np.all(f > 0)
        assert np.all(rho > 0)
        # continuity: successive samples differ by O(local spacing)
        rel_jump = np.abs(np.diff(f)) / np.maximum(f[:-1], 1e-12)
        dx = np.abs(np.diff(xs))
        assert np.all(rel_jump < 50.0 * dx / np.maximum(rho[:-1], 1e-12) + 1e-9)


def test_glued_radius_continuous_and_blend_c2():
    fam = dumbbell_family()
    t = 1e-3
    geo = fam.at(t).geometry
    (J,) = geo.junctions
    r1, r2 = t**0.5, 2 * t**0.5
    # radius function continuity across all region boundaries
    for edge in (t * J.Rhat, r1, r2, J.eps):
        lo, hi = (1 - 1e-9) * edge, (1 + 1e-9) * edge
        vals = geo.rho(np.array([lo, hi]))
        assert abs(vals[1] - vals[0]) < 1e-6 * edge
    # the squared-warp blend is C^2 at both band edges: f and f' match,
    # and the one-sided difference quotients of f' (step h = 1e-6 edge),
    # each f'' on its side up to O(h), differ by at most 1e-4 max(1, |f''|);
    # they differ by 1.5e-6 and 1.8e-7 here, and a blend that is only C^1
    # (a cubic smoothstep, chi'' jumping) moves them apart by 0.20 and 0.025
    for edge in (r1, r2):
        eps_ = 1e-8 * edge
        xs = np.array([edge - eps_, edge + eps_])
        f = geo.f(xs)
        fp = geo.fp(xs)
        assert abs(f[1] - f[0]) < 1e-6 * f[0]
        assert abs(fp[1] - fp[0]) < 1e-5 * max(1.0, abs(fp[0]))
        h = 1e-6 * edge
        fp = geo.fp(np.array([edge - h, edge, edge + h]))
        below, above = (fp[1] - fp[0]) / h, (fp[2] - fp[1]) / h
        assert abs(above - below) < 1e-4 * max(1.0, abs(below))


def test_beta_locally_constant_on_necks():
    fam = dumbbell_family()
    geo = fam.at(1e-3).geometry
    (J,) = geo.junctions
    r = np.geomspace(J.t * J.Rhat, J.eps, 100)
    assert np.all(geo.beta(J.center + J.direction * r) == -0.5)


def test_spindle_circle_period_is_t_independent():
    fam = spindle_family()
    for t in (1e-1, 1e-2, 1e-3):
        geo = fam.at(t).geometry
        assert geo.circle
        assert geo.period == pytest.approx(math.pi, rel=1e-12)


def test_spindle_t_vector_must_match_within_component():
    fam = spindle_family()
    with pytest.raises(GluingError, match="agree within partner component"):
        fam.at((1e-2, 2e-2))


def test_rescale_examples():
    hyp = preset_model("hyperboloid_capped").geometry(0)
    scaled = rescaled_geometry(hyp, 2.0)
    xs = np.linspace(0.1, 10.0, 50)
    assert np.allclose(scaled.f(xs), np.sqrt(xs**2 + 4.0), rtol=1e-14)
    # chart radii scale, rates do not
    assert hyp.right.chart_r == 1.0
    assert scaled.right.chart_r == 2.0
    assert scaled.right.nu == hyp.right.nu == -2.0


def test_rescale_group_action():
    hyp = preset_model("hyperboloid_capped").geometry(0)
    double = rescaled_geometry(rescaled_geometry(hyp, 0.5), 3.0)
    direct = rescaled_geometry(hyp, 1.5)
    xs = np.linspace(0.05, 20.0, 101)
    for field in ("f", "rho"):
        a = getattr(double, field)(xs)
        b = getattr(direct, field)(xs)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-14
    assert double.right.chart_r == direct.right.chart_r


def test_rescale_exact_cone_invariant():
    cone = preset_model("exact_cone_cs_ac").geometry(0)
    scaled = rescaled_geometry(cone, 0.3)
    xs = np.geomspace(1e-3, 100, 64)
    assert np.allclose(scaled.f(xs), xs, rtol=1e-14)


def test_cutoff_eta_support_and_values():
    eta = cutoff_eta(1e-3, 0.4, 0.2)
    t = 1e-3
    assert float(eta(t**0.4)) == 0.0
    assert float(eta(t**0.2)) == 1.0
    assert float(eta(t**0.5)) == 0.0  # below t^a
    assert float(eta.deriv(t**0.45, 1)) == 0.0  # outside the transition
    assert float(eta.deriv(t**0.1, 1)) == 0.0


def test_cutoff_eta_derivative_ratio_two():
    def max_r_eta1(t):
        eta = cutoff_eta(t, 0.4, 0.2)
        s = np.linspace(0.2, 0.4, 20001)
        r = t**s
        return float(np.max(np.abs(r * eta.deriv(r, 1))))

    ratio = max_r_eta1(1e-2) / max_r_eta1(1e-4)
    assert abs(ratio - 2.0) < 0.2  # |log 1e-4| / |log 1e-2| = 2, within 10%


def test_cutoff_eta_log_bound_uniform_over_four_decades():
    vals = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        eta = cutoff_eta(t, 0.4, 0.2)
        s = np.linspace(0.2, 0.4, 20001)
        r = t**s
        vals.append(float(np.max(np.abs(r * eta.deriv(r, 1)))) * abs(math.log(t)))
    assert max(vals) / min(vals) < 1.0 + 1e-9


def test_neck_convergence_decreasing_on_dumbbell():
    fam = dumbbell_family()
    sups = {0: [], 1: []}
    for t in (1e-1, 1e-2, 1e-3):
        rows = neck_convergence_check(fam, t)
        for row in rows:
            sups[row["j"]].append(row["sup"])
    for j in (0, 1):
        seq = sups[j]
        assert all(b < a for a, b in zip(seq, seq[1:]))


def test_model_from_config_matches_preset():
    # the documented model schema (README), written out by hand
    cfg = {
        "m": 3,
        "label": "exact_cone_cs_ac",
        "components": [{
            "link": "sphere:2",
            "profile": "exact_cone",
            "ends": [
                {"kind": "CS", "nu": 1.0, "beta": -0.5, "boundary": 2.0, "marked": True},
                {"kind": "AC", "nu": -1.0, "beta": -0.5, "boundary": 2.0},
            ],
        }],
    }
    model = preset_model("exact_cone_cs_ac", beta=-0.5)
    back = model_from_config(cfg)
    assert back.m == model.m
    assert back.label == model.label
    (c0,), (c1,) = model.components, back.components
    assert c0.link == c1.link
    assert (c1.left, c1.right) == (c0.left, c0.right)
    assert c1.length is None
    xs = np.geomspace(0.01, 50, 20)
    assert np.array_equal(c0.warp.f(xs), c1.warp.f(xs))


def test_marked_weights_must_agree_within_component():
    with pytest.raises(ValueError, match="equal weights"):
        ConifoldModel(3, (Component(
            link=S2, warp=warp_preset("sine_spindle"),
            left=EndSpec("CS", S2, nu=2.0, beta=-0.5, boundary=1.0, marked=True),
            right=EndSpec("CS", S2, nu=2.0, beta=-0.4, boundary=1.0, marked=True),
            length=math.pi,
        ),))


def test_single_ac_must_sit_right():
    with pytest.raises(ValueError, match="right"):
        Component(link=S2, warp=warp_preset("hyperboloid", 1.0),
                  left=EndSpec("AC", S2, nu=-2.0, beta=-0.5, boundary=1.0),
                  right=Cap())


def test_end_sign_conventions_enforced():
    with pytest.raises(ValueError, match="nu > 0"):
        EndSpec("CS", S2, nu=-1.0, beta=0.0, boundary=1.0)
    with pytest.raises(ValueError, match="nu < 0"):
        EndSpec("AC", S2, nu=1.0, beta=0.0, boundary=1.0)


def test_marked_window_for_gluing():
    # marked weights outside (2-m, 0) still glue (the window is checked by
    # the solvers); but compatibility requires equality, verified here
    L = preset_model("exact_cone_cs_ac", beta=-0.5)
    H = hyperboloid_marked(beta=-0.5)
    fam = GluedFamily(L, H, tau=0.5, a=0.4, b=0.2)
    glued = fam.at(1e-2)
    assert glued.geometry.junctions[0].beta == -0.5


def test_chain_gluing_two_partners_caps_both_ends():
    # spindle host with two marked conical points, each desingularized by
    # its own capped partner: the glued space is a compact interval with
    # smooth centers at both ends and two necks
    L = preset_model("sine_spindle", beta=-0.5)
    def capped(label):
        return Component(
            link=S2, warp=warp_preset("hyperboloid", 0.5),
            left=Cap(),
            right=EndSpec("AC", S2, nu=-2.0, beta=-0.5, boundary=0.5, marked=True),
            label=label,
        )
    partner = ConifoldModel(3, (capped("h1"), capped("h2")), label="two_caps")
    fam = GluedFamily(L, partner, tau=0.5, a=0.4, b=0.2)
    glued = fam.at(1e-2)
    geo = glued.geometry
    assert not geo.circle
    assert geo.left.kind == "cap" and geo.right.kind == "cap"
    assert len(geo.junctions) == 2
    xs = np.linspace(geo.left.x0 + 1e-9, geo.right.x0 - 1e-9, 3001)
    f = geo.f(xs)
    assert np.all(f > 0)
    # far from the necks the host warp is untouched
    mid = xs[np.argmin(np.abs(xs - math.pi / 2))]
    assert float(geo.f(mid)) == pytest.approx(math.sin(mid), rel=1e-12)


# ---------------------------------------------------------------------------
# a base model is the strip of one host piece: the reference is the
# separate base-geometry builder it replaced


def ref_base_geometry(model, ci):
    """Component ci's geometry assembled on its own: boundaries, a beta
    split mid-core, a plan of end segments and a core of weight 0.5, the
    warp's own callables."""
    comp = model.components[ci]
    warp = comp.warp

    def const_like(value):
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)

    binfo = {}
    for w in ("left", "right"):
        s = comp.side(w)
        if isinstance(s, Cap):
            binfo[w] = BoundaryInfo("cap", comp.tip(w), comp.r_sign(w))
        else:
            binfo[w] = BoundaryInfo(s.kind.lower(), comp.tip(w), comp.r_sign(w),
                                    chart_r=s.boundary, beta=s.beta, nu=s.nu)
    betas = {w: (comp.side(w).beta if isinstance(comp.side(w), EndSpec) else None)
             for w in ("left", "right")}
    if betas["left"] is None and betas["right"] is None:
        beta_of = const_like(0.0)
    elif betas["left"] is None or betas["right"] is None or betas["left"] == betas["right"]:
        beta_of = const_like(betas["left"] if betas["left"] is not None else betas["right"])
    else:
        lo_edge = binfo["left"].x0 + binfo["left"].sign * binfo["left"].chart_r
        hi_edge = binfo["right"].x0 + binfo["right"].sign * binfo["right"].chart_r
        mid = 0.5 * (lo_edge + hi_edge)

        def beta_of(x):
            return np.where(np.asarray(x, dtype=float) <= mid, betas["left"], betas["right"])

    plan = [PlanSegment("log", x0=b.x0, sign=b.sign,
                        r_lo=b.chart_r if b.kind == "ac" else None,
                        r_hi=b.chart_r if b.kind == "cs" else None)
            for b in (binfo["left"], binfo["right"]) if b.kind in ("ac", "cs")]
    core = sorted(b.x0 if b.kind == "cap" else b.x0 + b.sign * b.chart_r
                  for b in (binfo["left"], binfo["right"]))
    if core[1] > core[0]:
        plan.append(PlanSegment("lin", x_a=core[0], x_b=core[1], weight=0.5))
    # its one-pass fields are its per-field callables, one after another
    ref = RadialGeometry(
        m=model.m, link=comp.link, f=warp.f, fp=warp.fp,
        rho=comp.default_rho(), beta=beta_of,
        wextra=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        fields=lambda x: tuple(getattr(ref, a)(x) for a in FIELDS),
        circle=False, period=None, left=binfo["left"], right=binfo["right"],
        plan=tuple(plan), label=comp.label or model.label or f"component{ci}")
    return ref


def two_weight_models():
    """Components whose two ends carry different weights (beta split
    mid-core): a CS/AC cone and an unmarked spindle."""
    cone = ConifoldModel(3, (Component(
        link=S2, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", S2, nu=1.0, beta=-0.5, boundary=2.0),
        right=EndSpec("AC", S2, nu=-1.0, beta=0.5, boundary=2.0)),))
    spindle = ConifoldModel(3, (Component(
        link=S2, warp=warp_preset("sine_spindle"),
        left=EndSpec("CS", S2, nu=2.0, beta=-0.5, boundary=1.3),
        right=EndSpec("CS", S2, nu=2.0, beta=-0.2, boundary=1.3),
        length=math.pi, label="split_spindle"),), label="ignored")
    return {"cs_ac_two_weights": (cone, 0), "spindle_two_weights": (spindle, 0)}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASE_CASES = {
    **{f"{name}_beta{beta:g}": ((lambda n=name, b=beta: preset_model(n, beta=b)), 0)
       for name in ("exact_cone_cs_ac", "hyperboloid_capped", "rxs2", "sine_spindle")
       for beta in (-0.5, 0.3)},
    **{name: ((lambda m=model: m), ci) for name, (model, ci) in two_weight_models().items()},
    **{f"dumbbell_file_component{ci}": ((lambda: load_model(CONFIGS / "dumbbell_family.json")), ci)
       for ci in (0, 1)},
}


def _bits(v):
    v = np.asarray(v)
    assert v.dtype == np.float64
    return v.view(np.uint64)


@pytest.mark.parametrize("case", sorted(BASE_CASES))
def test_base_geometry_is_the_one_piece_strip(case):
    make_model, ci = BASE_CASES[case]
    model = make_model()
    geo, ref = model.geometry(ci), ref_base_geometry(model, ci)
    assert (geo.left, geo.right, geo.plan, geo.label) == (ref.left, ref.right, ref.plan, ref.label)
    assert repr(geo.plan) == repr(ref.plan)
    assert geo.eta is None and not geo.circle and geo.junctions == ()
    grid, ref_grid = build_grid(geo, n_per_region=400), build_grid(ref, n_per_region=400)
    assert np.array_equal(_bits(grid.nodes), _bits(ref_grid.nodes))
    for a in FIELDS:
        assert np.array_equal(_bits(getattr(grid, a)), _bits(getattr(ref_grid, a))), a
    # nodes, midpoints, chart edges, caps and the beta split, each +-1 ulp
    comp = model.components[ci]
    edges = [comp.tip(w) + (comp.r_sign(w) * s.boundary if isinstance(s, EndSpec) else 0.0)
             for w, s in (("left", comp.left), ("right", comp.right))]
    x = np.concatenate([grid.nodes, 0.5 * (grid.nodes[1:] + grid.nodes[:-1]),
                        edges, [0.5 * sum(edges)]])
    if isinstance(comp.left, Cap):  # a point past a cap centre is refused
        x = x[x >= edges[0]]
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    if isinstance(comp.left, Cap):
        x = x[x >= edges[0] - 1e-12]
    want = [np.asarray(getattr(ref, a)(x), dtype=float) for a in FIELDS]
    for a, w, together in zip(FIELDS, want, geo.fields(x)):
        assert np.array_equal(_bits(getattr(geo, a)(x)), _bits(w)), a
        assert np.array_equal(_bits(together), _bits(w)), a
    assert geo.fpp is None
    for x0 in (float(x[0]), float(x[len(x) // 2]), edges[0], 0.5 * sum(edges)):
        for a in FIELDS:
            got = getattr(geo, a)(x0)
            assert type(got) is np.float64, a
            assert _bits(got) == _bits(np.asarray(getattr(ref, a)(x0), dtype=float)), a


def test_base_geometry_refuses_points_past_a_cap_centre():
    geo = preset_model("hyperboloid_capped").geometry(0)
    assert geo.f(0.0) == 1.0
    for field in FIELDS:
        with pytest.raises(ValueError, match="point outside the glued domain"):
            getattr(geo, field)(-0.5)
    with pytest.raises(ValueError, match="point outside the glued domain"):
        geo.fields(np.array([0.5, -0.5]))
