"""Exactness oracle for the one-pass glued-geometry field evaluator.

The per-field glued evaluation (each of f, f', f'', rho, beta and wextra
classifying the points on its own with per-point masks, the f^2-blend
recomputed per field, np.mod for every wrap, the three periodic source
branches compared one at a time, base geometries rebuilt per call) is
kept here as the reference; the grid arrays taken from the one-pass
`fields` evaluator, the rescaled geometries' one-pass `fields`, and the
public per-field callables, must reproduce it bit for bit, on sorted,
shuffled and seam-crossing points.  The zone lookup must give the zone
indices of the reference's loop over every zone, at grid nodes, between
them and at and around every zone edge.  The neck cutoff eta_t,
evaluated per zone like the other fields, must equal the minimum over
every junction's cutoff with partner bodies zeroed, the formula it had
while it had its own evaluator.  The periodic fold equals np.mod."""

import math

import numpy as np
import pytest

from conifold_lab import conifold_model as cm
from conifold_lab.conifold_model import (
    _FOLD_MIN_SIZE,
    FIELDS,
    EndSpec,
    _base_geometry,
    _fold,
    _smoothstep_c2,
    _smoothstep_c2_d1,
    _smoothstep_c2_d2,
    cutoff_eta,
    dumbbell_family,
    spindle_family,
)
from conifold_lab.weighted_calc import build_grid, rescaled_geometry

# the per-field callables: the grid FIELDS and f''
CALLABLES = (*FIELDS, "fpp")

# ---------------------------------------------------------------------------
# reference: the per-field glued evaluation


def ref_to_src(piece, x, period):
    """The piece's source coordinate of x: on a circle, of the three
    periodic branches the first one nearest the source domain's centre."""
    x = np.asarray(x, dtype=float)
    if period is None:
        return (x - piece.offset) / piece.direction
    cands = [((x + n * period) - piece.offset) / piece.direction for n in (-1, 0, 1)]
    lo, hi = piece.x_src_lo, piece.x_src_hi
    center = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else 0.0
    best, best_d = cands[0], np.abs(cands[0] - center)
    for c in cands[1:]:
        d = np.abs(c - center)
        take = d < best_d
        best, best_d = np.where(take, c, best), np.where(take, d, best_d)
    return best


def ref_zone_membership(zones, circle, period, xw):
    """Index into `zones` per point, every zone tested in turn (the first
    matching zone wins); -1 outside all of them."""
    n = xw.shape[0]
    res = np.full(n, -1, dtype=int)
    for z_i, (lo, hi, _, _) in enumerate(zones):
        if circle and math.isfinite(lo) and math.isfinite(hi):
            d = np.mod(xw - lo, period)
            sel = d <= (hi - lo) + 1e-12 * max(1.0, abs(hi), abs(lo))
        else:
            sel = (xw >= lo - 1e-12 * max(1.0, abs(lo)) if math.isfinite(lo) else np.ones(n, bool))
            if math.isfinite(hi):
                sel = sel & (xw <= hi + 1e-12 * max(1.0, abs(hi)))
        res = np.where((res < 0) & sel, z_i, res)
    return res


def ref_glued_fields(L, L_hat, family, pieces, junctions, junction_sides,
                     circle, period, x_origin):
    """{name: callable} for the six fields, one classification per call;
    junction_sides[j] is the (host piece, partner piece) of junction j."""
    tau = family.tau

    def comp_of(piece):
        return (L if piece.source == "L" else L_hat).components[piece.comp_index]

    def src_model(piece):
        return L if piece.source == "L" else L_hat

    def wrap(x):
        x = np.asarray(x, dtype=float)
        if not circle:
            return x
        return x_origin + np.mod(x - x_origin, period)

    def rdist(J, xw):
        d = xw - J.center
        if circle:
            d = np.mod(d + 0.5 * period, period) - 0.5 * period
        return J.direction * d

    host_of = {j: hp for j, (hp, pp) in enumerate(junction_sides)}
    partner_of = {j: pp for j, (hp, pp) in enumerate(junction_sides)}

    zones = []
    for j, J in enumerate(junctions):
        e1 = J.center + J.direction * (J.t * J.Rhat)
        e2 = J.center + J.direction * J.eps
        zones.append((min(e1, e2), max(e1, e2), "neck", j))
    for p_i, p in enumerate(pieces):
        comp = comp_of(p)
        edges = []
        for which in ("left", "right"):
            s = comp.side(which)
            if isinstance(s, EndSpec) and s.marked:
                edges.append(float(p.from_src(comp.tip(which) + comp.r_sign(which) * s.boundary)))
            elif isinstance(s, EndSpec):
                edges.append(math.copysign(math.inf, p.direction) if which == "right"
                             else math.copysign(math.inf, -p.direction))
            else:
                edges.append(float(p.from_src(comp.tip(which))))
        zones.append((min(edges), max(edges), "host" if p.source == "L" else "partner", p_i))

    def zone_membership(xw):
        res = ref_zone_membership(zones, circle, period, xw)
        assert np.all(res >= 0)
        return res

    def classify(xw, inner, outer_fn):
        z = zone_membership(xw)
        cat = np.empty(xw.shape[0], dtype=int)
        idx = np.empty(xw.shape[0], dtype=int)
        for z_i, (lo, hi, tag, ref) in enumerate(zones):
            sel = z == z_i
            if not np.any(sel):
                continue
            if tag in ("partner", "host"):
                cat[sel] = 1 if tag == "partner" else 2
                idx[sel] = ref
            else:
                J = junctions[ref]
                r = rdist(J, xw[sel])
                sub_cat = np.where(r < inner(J), 1, np.where(r <= outer_fn(J), 0, 2))
                cat[sel] = sub_cat
                idx[sel] = np.where(sub_cat == 1, partner_of[ref],
                                    np.where(sub_cat == 0, ref, host_of[ref]))
        return cat, idx

    def weight_classify(xw):
        z = zone_membership(xw)
        cat = np.empty(xw.shape[0], dtype=int)
        idx = np.empty(xw.shape[0], dtype=int)
        for z_i, (lo, hi, tag, ref) in enumerate(zones):
            sel = z == z_i
            if np.any(sel):
                cat[sel] = {"neck": 0, "partner": 1, "host": 2}[tag]
                idx[sel] = ref
        return cat, idx

    def piece_warp(piece, xw, attr):
        comp = comp_of(piece)
        xs = ref_to_src(piece, xw, period)
        scale = abs(piece.direction)
        d = piece.direction
        if attr == "f":
            return scale * np.asarray(comp.warp.f(xs), dtype=float)
        if attr == "fp":
            return scale * np.asarray(comp.warp.fp(xs), dtype=float) / d
        return scale * np.asarray(comp.warp.fpp(xs), dtype=float) / d**2

    def blend(J, xw, attr):
        ci, wi, cj, wj = family.pairs[J.pair]
        host = L.components[ci]
        part = L_hat.components[cj]
        t = J.t
        r = rdist(J, xw)
        r1 = t**tau
        sgn_h = host.r_sign(wi)
        xh = host.tip(wi) + sgn_h * r
        Fh = np.asarray(host.warp.f(xh), dtype=float)
        Fh_p = sgn_h * np.asarray(host.warp.fp(xh), dtype=float)
        Fh_pp = np.asarray(host.warp.fpp(xh), dtype=float)
        sgn_p = part.r_sign(wj)
        xp = sgn_p * (r / t)
        Fp = t * np.asarray(part.warp.f(xp), dtype=float)
        Fp_p = sgn_p * np.asarray(part.warp.fp(xp), dtype=float)
        Fp_pp = np.asarray(part.warp.fpp(xp), dtype=float) / t
        Qh, Qh_p, Qh_pp = Fh**2, 2 * Fh * Fh_p, 2 * (Fh_p**2 + Fh * Fh_pp)
        Qp, Qp_p, Qp_pp = Fp**2, 2 * Fp * Fp_p, 2 * (Fp_p**2 + Fp * Fp_pp)
        ln2 = math.log(2.0)
        s = np.log(r / r1) / ln2
        ds = 1.0 / (r * ln2)
        d2s = -1.0 / (r * r * ln2)
        chi = 1.0 - _smoothstep_c2(s)
        chi_p = -_smoothstep_c2_d1(s) * ds
        chi_pp = -(_smoothstep_c2_d2(s) * ds * ds + _smoothstep_c2_d1(s) * d2s)
        Q = chi * Qp + (1 - chi) * Qh
        Q_p = chi_p * (Qp - Qh) + chi * Qp_p + (1 - chi) * Qh_p
        Q_pp = (chi_pp * (Qp - Qh) + 2 * chi_p * (Qp_p - Qh_p)
                + chi * Qp_pp + (1 - chi) * Qh_pp)
        F = np.sqrt(Q)
        if attr == "f":
            return F
        if attr == "fp":
            return Q_p / (2 * F) * J.direction
        return (Q_pp / (2 * F) - Q_p**2 / (4 * F**3)) * J.direction**2

    def make_warp(attr):
        def ev(x):
            x = np.asarray(x, dtype=float)
            scalar = x.ndim == 0
            xw = wrap(np.atleast_1d(x))
            cat, idx = classify(xw, lambda J: J.t**tau, lambda J: 2.0 * J.t**tau)
            out = np.empty_like(xw)
            for j in range(len(junctions)):
                sel = (cat == 0) & (idx == j)
                if np.any(sel):
                    out[sel] = blend(junctions[j], xw[sel], attr)
            for c in (1, 2):
                for p_i in set(idx[cat == c]):
                    sel = (cat == c) & (idx == p_i)
                    out[sel] = piece_warp(pieces[p_i], xw[sel], attr)
            return out[0] if scalar else out
        return ev

    def make_field(neck_val, partner_val, host_val):
        def ev(x):
            x = np.asarray(x, dtype=float)
            scalar = x.ndim == 0
            xw = wrap(np.atleast_1d(x))
            cat, idx = weight_classify(xw)
            out = np.empty_like(xw)
            for j in range(len(junctions)):
                sel = (cat == 0) & (idx == j)
                if np.any(sel):
                    out[sel] = neck_val(junctions[j], xw[sel])
            for c, val in ((1, partner_val), (2, host_val)):
                for p_i in set(idx[cat == c]):
                    sel = (cat == c) & (idx == p_i)
                    out[sel] = val(pieces[p_i], xw[sel])
            return out[0] if scalar else out
        return ev

    def src_rho(piece, xw):
        rho = comp_of(piece).default_rho()
        return abs(piece.direction) * np.asarray(rho(ref_to_src(piece, xw, period)), dtype=float)

    def src_beta(piece, xw):
        geo = _base_geometry(src_model(piece), piece.comp_index)
        return np.asarray(geo.beta(ref_to_src(piece, xw, period)), dtype=float)

    def partner_wextra(piece, xs):
        ref = next(s.beta for _, s in comp_of(piece).ends() if s.marked)
        return abs(piece.direction) ** (src_beta(piece, xs) - ref)

    return {
        "f": make_warp("f"), "fp": make_warp("fp"), "fpp": make_warp("fpp"),
        "rho": make_field(lambda J, xs: rdist(J, xs), src_rho, src_rho),
        "beta": make_field(lambda J, xs: np.full_like(xs, J.beta), src_beta, src_beta),
        "wextra": make_field(lambda J, xs: np.ones_like(xs), partner_wextra,
                             lambda p, xs: np.ones_like(xs)),
    }


def ref_eta(family, pieces, junctions, circle, period, x_origin):
    """eta_t as the minimum over every junction of its cutoff (1 behind
    the junction, r <= 0), then 0 on every partner body."""
    zones = []
    for j, J in enumerate(junctions):
        e1 = J.center + J.direction * (J.t * J.Rhat)
        e2 = J.center + J.direction * J.eps
        zones.append((min(e1, e2), max(e1, e2), "neck", j))
    for p_i, p in enumerate(pieces):
        comp = (family.L if p.source == "L" else family.L_hat).components[p.comp_index]
        ends = []
        for which, side in (("left", -1.0), ("right", 1.0)):
            s = comp.side(which)
            if isinstance(s, EndSpec) and not s.marked:
                ends.append(math.copysign(math.inf, side * p.direction))
            else:
                edge = comp.tip(which) + (comp.r_sign(which) * s.boundary
                                          if isinstance(s, EndSpec) else 0.0)
                ends.append(float(p.from_src(edge)))
        zones.append((min(ends), max(ends), "host" if p.source == "L" else "partner", p_i))
    is_partner = np.array([tag == "partner" for _, _, tag, _ in zones])

    def eta(x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xw = np.atleast_1d(x)
        if circle:
            xw = x_origin + np.mod(xw - x_origin, period)
        vals = np.ones_like(xw)
        for J in junctions:
            cut = cutoff_eta(J.t, family.a, family.b)
            d = xw - J.center
            if circle:
                d = np.mod(d + 0.5 * period, period) - 0.5 * period
            r = J.direction * d
            contrib = np.ones_like(xw)
            pos = r > 0
            rp = np.maximum(r[pos], 1e-300)
            contrib[pos] = np.where(rp <= J.t**family.a, 0.0,
                                    np.where(rp >= J.t**family.b, 1.0, cut(rp)))
            vals = np.minimum(vals, contrib)
        zone = ref_zone_membership(zones, circle, period, xw)
        assert np.all(zone >= 0)
        vals[is_partner[zone]] = 0.0
        return vals[0] if scalar else vals

    return eta


def glued_with_reference(monkeypatch, family, t):
    """The glued model at t and the reference fields built from the same
    pieces and junctions.  Each junction's (host piece, partner piece)
    comes from its marked pair: the host piece is the host component
    ("L", ci) and the partner piece the partner component ("H", cj)."""
    captured = []
    build = cm._glued_geometry

    def spy(*args):
        captured.append(args)
        return build(*args)

    monkeypatch.setattr(cm, "_glued_geometry", spy)
    glued = family.at(t)
    L, L_hat, fam, pieces, junctions, circle, period, x_origin = captured[-1]
    piece_of = {(p.source, p.comp_index): i for i, p in enumerate(pieces)}
    junction_sides = []
    for J in junctions:
        ci, _, cj, _ = family.pairs[J.pair]
        junction_sides.append((piece_of[("L", ci)], piece_of[("H", cj)]))
    return glued.geometry, ref_glued_fields(L, L_hat, fam, pieces, junctions,
                                            junction_sides, circle, period, x_origin)


def chain_family():
    """partner - host - partner: the sine spindle glued on both ends to
    two copies of the hyperboloid line, each with its right AC end marked,
    so each neck can carry its own t."""
    L = cm.preset_model("sine_spindle")
    rxs2 = cm.preset_model("rxs2").components[0]
    L_hat = cm.ConifoldModel(3, (rxs2, rxs2), label="rxs2_twice")
    return cm.GluedFamily(L, L_hat, tau=0.5, a=0.4, b=0.2, label="chain")


CASES = {
    "dumbbell_t1e-1": (dumbbell_family, 1e-1),
    "dumbbell_t1e-4": (dumbbell_family, 1e-4),
    "dumbbell_t1e-8": (dumbbell_family, 1e-8),
    "spindle_t1e-2": (spindle_family, 1e-2),
    "spindle_t1e-6": (spindle_family, 1e-6),
    "chain_t1e-2_1e-3": (chain_family, (1e-2, 1e-3)),
}


def assert_bitwise(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert np.array_equal(got, want), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_fields_match_per_field_evaluation(monkeypatch, case):
    make_family, t = CASES[case]
    geo, ref = glued_with_reference(monkeypatch, make_family(), t)
    assert geo.fields is not None
    grid = build_grid(geo, n_per_region=400)
    assert FIELDS == ("f", "fp", "rho", "beta", "wextra") and not hasattr(grid, "fpp")
    for name in FIELDS:
        assert_bitwise(getattr(grid, name), ref[name](grid.nodes), name)


def rescaled_reference(ref, s):
    """The reference fields of the geometry rescaled by s, at x."""
    rule = {"f": lambda v: s * v, "fpp": lambda v: v / s, "rho": lambda v: s * v}
    return {name: (lambda x, name=name: rule.get(name, lambda v: v)(
        np.asarray(ref[name](np.asarray(x) / s)))) for name in CALLABLES}


@pytest.mark.parametrize("case", ["dumbbell_t1e-4", "spindle_t1e-2"])
def test_mapped_grid_fields_match_per_field_evaluation(monkeypatch, case):
    """The mapped grid takes its arrays from the rescaled geometry's
    one-pass fields, equal to the rescaled reference bit for bit; so are
    the one-pass fields and the per-field callables, f'' included, at
    shuffled off-node points.  At a scalar point each is an np.float64, as
    every base and glued geometry returns, eta included."""
    make_family, t = CASES[case]
    geo, ref = glued_with_reference(monkeypatch, make_family(), t)
    grid = build_grid(geo, n_per_region=400)
    s = 0.37
    mapped = grid.mapped(s)
    assert mapped.geometry.fields is not None
    want = rescaled_reference(ref, s)
    for name in FIELDS:
        assert_bitwise(getattr(mapped, name), want[name](mapped.nodes), name)
    x = np.concatenate([mapped.nodes[::5], 0.5 * (mapped.nodes[1:] + mapped.nodes[:-1])[::3]])
    x = x[np.random.default_rng(1).permutation(x.size)]
    for name, v in zip(FIELDS, mapped.geometry.fields(x)):
        assert_bitwise(v, want[name](x), name)
    for name in CALLABLES:
        assert_bitwise(getattr(mapped.geometry, name)(x), want[name](x), name)
    x0 = float(x[7])
    scalars = [*zip(FIELDS, mapped.geometry.fields(x0)),
               *((name, getattr(mapped.geometry, name)(x0)) for name in (*CALLABLES, "eta"))]
    for name, v in scalars:
        assert type(v) is np.float64, name
    for name, v in scalars[:-1]:
        assert v == want[name](x0), name
    assert scalars[-1][1] == geo.eta(x0 / s)


@pytest.mark.parametrize("case", sorted(CASES))
def test_per_field_callables_match_reference(monkeypatch, case):
    make_family, t = CASES[case]
    geo, ref = glued_with_reference(monkeypatch, make_family(), t)
    grid = build_grid(geo, n_per_region=200)
    # off-node points: every zone, the blend bands and (circles) a wrap
    x = np.concatenate([grid.nodes[::7], 0.5 * (grid.nodes[1:] + grid.nodes[:-1])[::11]])
    if geo.circle:
        x = np.concatenate([x, x[:20] + geo.period, x[:20] - geo.period])
    for name in CALLABLES:
        assert_bitwise(getattr(geo, name)(x), ref[name](x), name)
        for x0 in (float(x[0]), float(x[len(x) // 2]), float(x[-1])):
            got, want = getattr(geo, name)(x0), ref[name](x0)
            assert np.shape(got) == () and type(got) is type(want), name
            assert np.array_equal(got, want), name
    fields = geo.fields(float(x[3]))
    assert len(fields) == len(FIELDS)
    for name, v in zip(FIELDS, fields):
        assert np.shape(v) == () and np.array_equal(v, ref[name](float(x[3]))), name


def test_chain_glues_two_partners_at_their_own_t(monkeypatch):
    geo, _ = glued_with_reference(monkeypatch, chain_family(), (1e-2, 1e-3))
    assert [J.t for J in geo.junctions] == [1e-2, 1e-3]
    assert [J.direction for J in geo.junctions] == [1.0, -1.0]  # host in the middle
    assert not geo.circle and geo.left.kind == geo.right.kind == "ac"
    assert (geo.left.chart_r, geo.right.chart_r) == (1e-2, 1e-3)


@pytest.mark.parametrize("case", sorted(CASES))
def test_zone_lookup_matches_the_loop_over_zones(monkeypatch, case):
    make_family, t = CASES[case]
    args, lookups = [], []
    build, lookup_of = cm._glued_geometry, cm._zone_lookup
    monkeypatch.setattr(cm, "_glued_geometry", lambda *a: args.append(a) or build(*a))
    monkeypatch.setattr(cm, "_zone_lookup", lambda *a: lookups.append((a, lookup_of(*a)))
                        or lookups[-1][1])
    geo = make_family().at(t).geometry
    *_, circle, period, x_origin = args[-1]
    (zones, _, _), lookup = lookups[-1]
    assert [tag for *_, tag, _ in zones[:len(geo.junctions)]] == ["neck"] * len(geo.junctions)
    grid = build_grid(geo, n_per_region=400)
    edges = np.array([e for lo, hi, _, _ in zones for e in (lo, hi) if math.isfinite(e)])
    points = [grid.nodes, 0.5 * (grid.nodes[1:] + grid.nodes[:-1]), edges]
    for toward in (np.inf, -np.inf):  # the floats next to each edge
        e = edges
        for _ in range(4):
            e = np.nextafter(e, toward)
            points.append(e)
    for rel in (3e-13, 1e-12, 3e-12, 1e-11):  # around the 1e-12 fuzz
        points += [edges * (1 + rel), edges * (1 - rel), edges + rel, edges - rel]
    x = np.concatenate(points)
    if circle:
        x = np.concatenate([x, [x_origin, x_origin + period, np.nextafter(x_origin + period, 0)]])
        x = x_origin + np.mod(x - x_origin, period)
    want = ref_zone_membership(zones, circle, period, x)
    inside = want >= 0
    assert np.array_equal(lookup(x[inside]), want[inside])
    if not inside.all():
        with pytest.raises(ValueError, match="outside the glued domain"):
            lookup(x[~inside])


ETA_CASES = {**CASES, "spindle_t1e-2_tau0.95": (
    lambda: spindle_family(tau=0.95, a=0.9, b=0.05), 1e-2)}


@pytest.mark.parametrize("case", sorted(ETA_CASES))
def test_eta_matches_the_minimum_over_junctions(monkeypatch, case):
    make_family, t = ETA_CASES[case]
    args = []
    build = cm._glued_geometry
    monkeypatch.setattr(cm, "_glued_geometry", lambda *a: args.append(a) or build(*a))
    family = make_family()
    geo = family.at(t).geometry
    _, _, fam, pieces, junctions, circle, period, x_origin = args[-1]
    ref = ref_eta(fam, pieces, junctions, circle, period, x_origin)
    grid = build_grid(geo, n_per_region=400)
    special = []  # neck edges, t^a, t^b, t^tau and 2 t^tau on every neck
    for J in junctions:
        radii = np.array([J.t * J.Rhat, J.eps, J.t**family.a, J.t**family.b,
                          J.t**family.tau, 2.0 * J.t**family.tau])
        special += [J.center + J.direction * radii, [J.center]]
    special = np.concatenate(special)
    points = [grid.nodes, 0.5 * (grid.nodes[1:] + grid.nodes[:-1]), special,
              np.random.default_rng(0).uniform(grid.nodes[0], grid.nodes[-1], 4000)]
    for toward in (np.inf, -np.inf):
        points.append(np.nextafter(special, toward))
    points += [special + 1e-12, special - 1e-12]
    x = np.concatenate(points)
    if circle:
        x = np.concatenate([x, x + period, x - period])
    assert_bitwise(geo.eta(x), ref(x), "eta")
    for x0 in (float(special[0]), float(special[-1]), float(grid.nodes[len(grid.nodes) // 3])):
        got, want = geo.eta(x0), ref(x0)
        assert type(got) is type(want) is np.float64 and np.array_equal(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_zone_slices_match_per_point_masks(monkeypatch, case):
    """Each zone's points are evaluated as slices of the sorted points:
    sorted input (no sort), the same points shuffled (sorted first, put
    back after), points across every neck's band edges and, on a circle,
    points across the seam give the per-point-mask reference bit for
    bit, one-pass and per field."""
    make_family, t = CASES[case]
    args = []
    build = cm._glued_geometry
    monkeypatch.setattr(cm, "_glued_geometry", lambda *a: args.append(a) or build(*a))
    geo, ref = glued_with_reference(monkeypatch, make_family(), t)
    _, _, fam, pieces, junctions, circle, period, x_origin = args[-1]
    ref = {**ref, "eta": ref_eta(fam, pieces, junctions, circle, period, x_origin)}
    grid = build_grid(geo, n_per_region=300)
    ordered = np.sort(np.concatenate([grid.nodes, 0.5 * (grid.nodes[1:] + grid.nodes[:-1])]))
    rng = np.random.default_rng(2)
    crossing = []
    for J in junctions:
        for r in (J.t * J.Rhat, J.t**fam.tau, 2.0 * J.t**fam.tau, J.eps):
            crossing.append(J.center + J.direction * np.linspace(0.95 * r, 1.05 * r, 41))
    inputs = {"sorted": ordered, "shuffled": ordered[rng.permutation(ordered.size)],
              "crossing": np.concatenate(crossing)}
    if circle:
        inputs["seam"] = np.concatenate([ordered[-40:] - period, ordered[:40]])
        inputs["seam_shifted"] = np.concatenate([ordered[-40:], ordered[:40] + period])
    for label, x in inputs.items():
        for name, v in zip(FIELDS, geo.fields(x)):
            assert_bitwise(v, ref[name](x), f"{label}: {name}")
        for name in (*CALLABLES, "eta"):
            assert_bitwise(getattr(geo, name)(x), ref[name](x), f"{label}: {name}")


def fold_cases(period, dtype):
    """Points at and next to the fold's edges, and the same padded with
    points of [-period, 2 period) to the size where the fold does its own
    arithmetic."""
    if np.issubdtype(dtype, np.integer):
        edges = np.arange(-period, 2 * period, dtype=dtype)
    else:
        p = dtype(period)
        edges = np.array([0.0, -0.0, p, -p, np.nextafter(2 * p, 0), np.nextafter(p, 0),
                          np.nextafter(p, 2 * p), np.nextafter(-p, 0), np.nextafter(0, -1),
                          -1e-300, 0.5 * p, -0.5 * p, 1.5 * p], dtype=dtype)
    rng = np.random.default_rng(3)
    fill = rng.uniform(-period, 2 * period, _FOLD_MIN_SIZE).astype(dtype)
    return {"edges": edges, "padded": np.concatenate([edges, fill]),
            "padded_reversed": np.concatenate([fill, edges])[::-1]}


def assert_same_as_mod(x, period):
    with np.errstate(invalid="ignore"):
        got, want = _fold(x, period), np.mod(x, period)
    assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(np.atleast_1d(got).view(np.uint8), np.atleast_1d(want).view(np.uint8))


@pytest.mark.parametrize("period, dtype", [(math.pi, np.float64), (2.5, np.float64),
                                           (7.3e-5, np.float64), (1.5, np.float32),
                                           (7, np.int64), (5500, np.int64)])
def test_fold_equals_np_mod(period, dtype):
    """Bit for bit and in np.mod's dtype: +-0.0 (-0.0 becomes +0.0),
    +-period, 2 period less one ulp, the floats next to 0 and period, on
    the fold's own path and on np.mod's below its minimum size."""
    for x in fold_cases(period, dtype).values():
        assert_same_as_mod(x, period)
    assert _FOLD_MIN_SIZE > 1


@pytest.mark.parametrize("extra", [[np.nan], [2 * math.pi], [-math.pi - 1e-9], [1e6], [np.inf],
                                   [-np.inf]])
def test_fold_falls_back_to_np_mod(extra):
    """Outside [-period, 2 period), and on NaN, the whole call is np.mod's."""
    x = np.concatenate([fold_cases(math.pi, np.float64)["padded"], extra])
    assert_same_as_mod(x, math.pi)
    assert_same_as_mod(x[::-1], math.pi)


def test_fold_empty_and_mixed_dtypes():
    for x, period in ((np.array([]), 2.0), (np.array([], dtype=np.int64), 3),
                      (np.array([], dtype=np.int64), 2.5),
                      (np.arange(-3, _FOLD_MIN_SIZE, dtype=np.int64), 2.5),
                      (np.asarray(-0.0), 1.0), (np.asarray(5), 3)):
        assert_same_as_mod(x, period)
