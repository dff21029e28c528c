"""Acceptance suite: one test per criterion, each printing a pass line.

Every criterion runs at its stated tolerance and runtime budget; nothing
is deferred to later calibration.  Benchmarks: the dumbbell (exact cone
host + two-ended hyperboloid partner, two residual AC ends) and the
spindle (sine host + hyperboloid partner, compact), both over the unit
2-sphere link with m = 3 and marked weight -0.5.
"""

import math
import time

import numpy as np
import pytest

from conifold_lab.conifold_model import (
    Component,
    ConifoldModel,
    EndSpec,
    GluedFamily,
    dumbbell_family,
    neck_convergence_check,
    preset_model,
    spindle_family,
    warp_preset,
)
from conifold_lab.experiments import ExperimentConfig, run
from conifold_lab.link_spectra import make_link
from conifold_lab.spectral_laplace import (
    assemble_mode_operator,
    kernel_dimension_scan,
    weight_crossing_kernel,
)
from conifold_lab.weight_calculus import (
    EndDescriptor,
    WeightVector,
    exceptional_weights,
    gamma_roots,
    index_change,
)
from conifold_lab.weighted_calc import _band_rows, build_grid


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, detail


def exact_cone_model(link, m):
    return ConifoldModel(m, (Component(
        link=link, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", link, nu=1.0, beta=-0.5, boundary=2.0),
        right=EndSpec("AC", link, nu=-1.0, beta=-0.5, boundary=2.0),
    ),))


def test_criterion_1_exceptional_weight_oracle():
    """Exceptional weights agree with cone harmonics and the discrete
    radial operator annihilates each sampled r^gamma at second order."""
    t0 = time.perf_counter()
    checked = 0
    for link, m in ((make_link("sphere", dim=2), 3), (make_link("sphere", dim=3), 4)):
        listed = exceptional_weights(link, m, (-6.0, 5.0))
        # exact (gamma, mult) agreement with the cone-harmonic roots, one
        # harmonic per link eigenfunction
        expected = []
        for e, mult in link.eigenvalues_below(40.0):
            gp, gm = gamma_roots(e, m)
            for gamma in (gm, gp):
                if -6.0 < gamma < 5.0:
                    expected.append((gamma, mult))
        expected.sort()
        got = [(w.gamma, w.mult) for w in listed]
        assert got == expected

        # brute-force radial check on the exact cone, both resolutions
        model = exact_cone_model(link, m)
        grids = {n: build_grid(model.geometry(0), n_per_region=n) for n in (400, 800)}
        for w in listed:
            res = {}
            for n, grid in grids.items():
                op = assemble_mode_operator(grid, w.source_eigenvalue)
                u = grid.rho**w.gamma
                r = _band_rows(op.P, u)[op.interior]
                res[n] = float(np.max(np.abs(r) / np.abs(u[op.interior])))
            assert res[800] < 5e-2
            if res[800] > 1e-9:  # above roundoff: at least second order
                assert res[400] / res[800] > 3.2, (m, w.gamma)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 1.0,
           f"{checked} rates verified against cone harmonics, runtime {elapsed:.2f}s < 1s")


def test_criterion_2_index_arithmetic():
    """Kernel dimensions {0,1,4,9} on the capped hyperboloid equal the
    cumulative index change from the isomorphism region."""
    t0 = time.perf_counter()
    hyp = preset_model("hyperboloid_capped")
    betas = [-0.5, 0.5, 1.5, 2.5]
    rows = kernel_dimension_scan(hyp, betas, e_max=12.0, n_per_region=2000)
    dims = [r.dimension for r in rows]
    ends = [EndDescriptor("AC", make_link("sphere", dim=2))]
    expected = [index_change(WeightVector((-0.5,)), WeightVector((b,)), ends, 3)
                for b in betas]
    elapsed = time.perf_counter() - t0
    ok = dims == [0, 1, 4, 9] == expected and elapsed < 30.0
    report(2, ok, f"kernel dims {dims} = cumulative index change {expected}, "
                  f"runtime {elapsed:.1f}s < 30s")


def test_criterion_3_norm_identities():
    """Rescaling identities to 1e-10 on 10 preset cases; weighted Hoelder
    never violated on 100 seeded pairs."""
    res = run(ExperimentConfig(experiment="norm_identities", n_per_region=400))
    id_rows = [r for r in res.rows if r["case"] != "holder_sweep"]
    worst = max(r["defect"] for r in id_rows)
    viol = res.summary["holder_violations"]
    ok = res.passed and len(id_rows) == 10 and viol == 0
    report(3, ok, f"10 rescaling cases, worst defect {worst:.2e} <= 1e-10; "
                  f"Hoelder violations {viol}/100")


def test_criterion_4_uniform_embedding():
    """Family-max embedding ratio bounded over the t-sweep with no
    monotone blow-up trend."""
    t0 = time.perf_counter()
    res = run(ExperimentConfig(experiment="embedding_uniformity",
                               n_per_region=2000, family_size=32))
    elapsed = time.perf_counter() - t0
    s = res.summary
    ok = (s["max_over_min"] <= 2.0 and abs(s["trend_slope"]) <= 0.1
          and all(r["family_size"] >= 30 for r in res.rows) and elapsed < 120.0)
    report(4, ok, f"ratio sweep max/min {s['max_over_min']:.4f} <= 2, "
                  f"|slope| {abs(s['trend_slope']):.4f} <= 0.1, "
                  f"runtime {elapsed:.1f}s < 120s")


def test_criterion_5_uniform_invertibility():
    """C(t) = 1/sigma_min bounded within a factor 2 over the t-sweep."""
    t0 = time.perf_counter()
    res = run(ExperimentConfig(experiment="invertibility_uniformity",
                               n_per_region=2000, e_max=12.0))
    elapsed = time.perf_counter() - t0
    s = res.summary
    ok = s["max_over_min"] <= 2.0 and elapsed < 300.0
    report(5, ok, f"C(t) in [{s['min']:.3f}, {s['max']:.3f}], "
                  f"max/min {s['max_over_min']:.4f} <= 2, runtime {elapsed:.1f}s < 300s")


def test_criterion_6_compact_transverse_invertibility():
    """Spindle: constants detected by the unconstrained rotation-invariant
    mode; transverse-subspace constant uniformly bounded."""
    res = run(ExperimentConfig(experiment="compact_invertibility", model="spindle",
                               n_per_region=800, e_max=12.0))
    s = res.summary
    ok = s["max_over_min"] <= 2.0 and s["constants_detected"]
    worst_sigma0 = max(r["sigma_mode0_unconstrained"] for r in res.rows)
    report(6, ok, f"constrained C max/min {s['max_over_min']:.4f} <= 2, "
                  f"unconstrained mode-0 sigma <= {worst_sigma0:.1e} (constants)")


def test_criterion_7_poincare_and_gns():
    """Uniform weighted Poincare and Gagliardo-Nirenberg-Sobolev proxies."""
    res_p = run(ExperimentConfig(experiment="poincare_uniformity",
                                 n_per_region=800, e_max=12.0))
    res_g = run(ExperimentConfig(experiment="gns_uniformity",
                                 n_per_region=800, family_size=32))
    rp, rg = res_p.summary["max_over_min"], res_g.summary["max_over_min"]
    ok = rp <= 2.0 and rg <= 2.0
    report(7, ok, f"Poincare ratio {rp:.4f} <= 2, GNS ratio {rg:.4f} <= 2")


def test_criterion_8_eta_bounds():
    """Fitted exponents of the cutoff derivative maxima against
    1/|log t|: first derivative within 10 percent of 1, second within 15."""
    res = run(ExperimentConfig(experiment="eta_bounds", tau=0.95, a=0.9, b=0.05,
                               t_list=(1e-8, 1e-10, 1e-12, 1e-14)))
    e1, e2 = res.summary["exponent_first"], res.summary["exponent_second"]
    ok = abs(e1 - 1.0) <= 0.1 and abs(e2 - 1.0) <= 0.15
    report(8, ok, f"first-derivative exponent {e1:.3f} (within 10%), "
                  f"second {e2:.3f} (within 15%)")


def test_criterion_9_neck_convergence():
    """Neck sup-norms strictly decrease along the sweep; exact-cone
    gluing reports identically zero."""
    fam = dumbbell_family()
    sups = {0: [], 1: []}
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        for row in neck_convergence_check(fam, t):
            sups[row["j"]].append(row["sup"])
    decreasing = all(all(b < a for a, b in zip(seq, seq[1:])) for seq in sups.values())

    link = make_link("sphere", dim=2)
    cone = preset_model("exact_cone_cs_ac")
    hat = ConifoldModel(3, (Component(
        link=link, warp=warp_preset("exact_cone"),
        left=EndSpec("CS", link, nu=1.0, beta=-0.5, boundary=2.0),
        right=EndSpec("AC", link, nu=-1.0, beta=-0.5, boundary=1.0, marked=True),
    ),))
    glued = GluedFamily(cone, hat, tau=0.5, a=0.4, b=0.2).at(0.01)
    zero_rows = neck_convergence_check(glued.family, 0.01)
    exact_zero = all(r["sup"] < 1e-12 for r in zero_rows)
    ok = decreasing and exact_zero
    report(9, ok, f"j=0 sweep {['%.1e' % v for v in sups[0]]} strictly decreasing; "
                  f"exact-cone gluing sup = {max(r['sup'] for r in zero_rows):.1e}")


def test_criterion_10_weight_crossing():
    """The gamma = 1 kernel candidate on the capped hyperboloid decays at
    the predicted rate and is annihilated below the calibrated threshold."""
    hyp = preset_model("hyperboloid_capped")
    rep = weight_crossing_kernel(hyp, gamma=1.0, e=2.0, n_per_region=800)
    slope_ok = rep.tail_slope is None or rep.tail_slope <= rep.slope_bound
    resid_ok = rep.residual_sigma < rep.threshold
    slope_str = "at numerical floor" if rep.tail_slope is None else f"{rep.tail_slope:.3f}"
    ok = slope_ok and resid_ok
    report(10, ok, f"remainder slope {slope_str} <= {rep.slope_bound:.2f}, "
                   f"residual {rep.residual_sigma:.2e} < threshold {rep.threshold:.2e}")
