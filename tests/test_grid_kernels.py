"""Exactness oracles for the vectorised grid kernels.

The per-node loop versions of the derivative stencils, the closure
reduction matrix (in stencil_refs) and the bump profiles are kept as
reference implementations, and so is bump_family's loop over attempts
(one jitter draw and one bump at a time); the package versions must
reproduce them bit for bit (every entry of the band stencils; the same
CSR data, indices and index pointers for R's CSR view; the same profile
arrays, modes and member order)."""

import numpy as np
import pytest

from conifold_lab.conifold_model import dumbbell_family, preset_model, spindle_family
from conifold_lab.spectral_laplace import _csr, _default_closures, assemble_mode_operator
from conifold_lab.weighted_calc import (
    _ZERO_BLOCK_BYTES,
    ModeFunction,
    _candidate_centers,
    _zero_rows,
    build_grid,
    bump_family,
    bump_profile,
    random_bump_pairs,
)
from stencil_refs import assert_same_csr, ref_derivatives, ref_reduction_matrix

# ---------------------------------------------------------------------------
# reference implementations (per-node loops)


def ref_bump_profile(grid, center, halfwidth):
    s = (grid.nodes - center) / halfwidth
    if grid.geometry.circle:
        per = grid.geometry.period
        s = (np.mod(grid.nodes - center + per / 2, per) - per / 2) / halfwidth
    return np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 3, 0.0)


def ref_bump_family(grid, n_members=32, modes=None, seed=0, width_factor=0.6, jitter=0.1):
    g = grid.geometry
    if modes is None:
        modes = (0.0, g.link.eigenvalues_below(4.0 * g.m)[1][0])
    rng = np.random.default_rng(seed)
    centers = _candidate_centers(grid)
    out = []
    i = 0
    while len(out) < n_members:
        c = centers[i % len(centers)]
        wiggle = 1.0 + jitter * (rng.random() - 0.5)
        hw = width_factor * float(g.rho(c)) * wiggle
        prof = ref_bump_profile(grid, c, hw)
        if np.count_nonzero(prof) < 5:
            i += 1
            continue
        out.append(ModeFunction.single(grid, modes[len(out) % len(modes)], prof))
        i += 1
        if i > 20 * n_members:
            raise ValueError("could not place the requested number of bumps")
    return out


def loop_bump_family(grid, n_members=32, modes=None, seed=0, width_factor=0.6, jitter=0.1):
    """bump_family as a loop over attempts: one scalar jitter draw and one
    windowed bump_profile per attempt."""
    g = grid.geometry
    if modes is None:
        modes = (0.0, g.link.eigenvalues_below(4.0 * g.m)[1][0])
    rng = np.random.default_rng(seed)
    centers = _candidate_centers(grid)
    rho_c = np.asarray(g.rho(np.array(centers)), dtype=float)
    out = []
    i = 0
    while len(out) < n_members:
        c = i % len(centers)
        wiggle = 1.0 + jitter * (rng.random() - 0.5)
        hw = width_factor * float(rho_c[c]) * wiggle
        prof = bump_profile(grid, centers[c], hw)
        if np.count_nonzero(prof) < 5:
            i += 1
            continue
        out.append(ModeFunction.single(grid, modes[len(out) % len(modes)], prof))
        i += 1
        if i > 20 * n_members:
            raise ValueError("could not place the requested number of bumps")
    return out


def ref_random_bump_pairs(grid, n_pairs, seed=0):
    g = grid.geometry
    e1 = g.link.eigenvalues_below(4.0 * g.m)[1][0]
    rng = np.random.default_rng(seed)
    centers = _candidate_centers(grid, per_region=6)
    pairs = []
    for _ in range(n_pairs):
        cu, cv = rng.choice(len(centers), size=2)
        amp_u, amp_v = rng.uniform(0.2, 5.0, size=2)
        wu = 0.6 * float(g.rho(centers[cu])) * rng.uniform(0.5, 1.2)
        wv = 0.6 * float(g.rho(centers[cv])) * rng.uniform(0.5, 1.2)
        u = ModeFunction.single(grid, 0.0, amp_u * ref_bump_profile(grid, centers[cu], wu))
        ev = 0.0 if rng.random() < 0.5 else e1
        v = ModeFunction.single(grid, ev, amp_v * ref_bump_profile(grid, centers[cv], wv))
        pairs.append((u, v))
    return pairs


# ---------------------------------------------------------------------------
# grids: interval with AC ends, circle, interval with a cap and an AC end


GEOMETRIES = {
    "dumbbell_t1e-3": lambda: dumbbell_family().at(1e-3).geometry,
    "spindle_t1e-2": lambda: spindle_family().at(1e-2).geometry,
    "hyperboloid_capped": lambda: preset_model("hyperboloid_capped").geometry(0),
}


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def grid(request):
    return build_grid(GEOMETRIES[request.param](), n_per_region=400)


def assert_same_members(got, want):
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert [m.e for m in u.modes] == [m.e for m in v.modes]
        for mu, mv in zip(u.modes, v.modes):
            assert np.array_equal(mu.values, mv.values)
            assert mu.support == mv.support


def test_derivative_stencils_match_loop(grid):
    """Every entry of the band stencils is the loop reference's entry,
    and the reference has no entry on a diagonal the band lacks."""
    n = grid.n
    for D, ref in zip((grid.d1, grid.d2), ref_derivatives(grid)):
        assert set(ref.todia().offsets) <= set(D)
        for d, x in D.items():
            assert x.shape == (n,)
            assert np.array_equal(x[:n - d] if d >= 0 else x[-d:], ref.diagonal(d)), d


@pytest.mark.parametrize("growing", [False, True])
def test_reduction_matrix_matches_loop(grid, growing):
    # at beta 2.5 the AC truncations close on the growing root at e = 0
    # and e1, at beta -0.5 on the decaying root
    beta = 2.5 if growing else -0.5
    e1 = grid.geometry.link.eigenvalues_below(4.0 * grid.geometry.m)[1][0]
    for e in (0.0, e1):
        op = assemble_mode_operator(grid, e, beta=beta)
        R_ref, interior_ref = ref_reduction_matrix(grid, *_default_closures(grid, e, beta))
        assert_same_csr(_csr(op.reduction)[:, op.interior], R_ref)
        assert np.array_equal(op.interior, interior_ref)


def test_norm_volume_keeps_association_order(grid):
    m = grid.geometry.m
    want = grid.quad * grid.f ** (m - 1) * grid.volume_factor * grid.rho ** (-float(m))
    assert np.array_equal(grid.volume, want)
    assert grid.volume is grid.volume


@pytest.mark.parametrize("seed", [0, 7])
def test_bump_family_matches_loop(grid, seed):
    assert_same_members(bump_family(grid, n_members=32, seed=seed),
                        ref_bump_family(grid, n_members=32, seed=seed))


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_batched_bump_family_matches_the_attempt_loop(grid, seed):
    """All attempts' jitter drawn at once and their bumps evaluated
    together: the same members (values, modes, order) as one draw and
    one profile per attempt."""
    assert_same_members(bump_family(grid, n_members=32, seed=seed),
                        loop_bump_family(grid, n_members=32, seed=seed))


def test_random_bump_pairs_match_loop(grid):
    got = random_bump_pairs(grid, 12, seed=3)
    want = ref_random_bump_pairs(grid, 12, seed=3)
    assert_same_members([u for u, _ in got], [u for u, _ in want])
    assert_same_members([v for _, v in got], [v for _, v in want])


@pytest.mark.parametrize("count, n", [(0, 10), (5, 7), (200, 4002), (3, 300_000)])
def test_zero_rows_come_in_blocks_below_the_huge_page_size(count, n):
    """Profile rows are views of zero blocks small enough that numpy does
    not ask for huge pages (it does from 4 MiB), one row per block when a
    row alone is larger than a block."""
    rows = _zero_rows(count, n)
    assert len(rows) == count
    assert all(r.shape == (n,) and r.dtype == float and not r.any() for r in rows)
    blocks = {id(r.base): r.base for r in rows}.values()
    assert all(b.nbytes <= max(_ZERO_BLOCK_BYTES, 8 * n) < 1 << 22 for b in blocks)
    assert sum(b.shape[0] for b in blocks) == count


def test_bump_vanishes_at_unit_distance(grid):
    x = grid.nodes
    k = grid.n // 2
    hw = x[k + 1] - x[k]
    if grid.geometry.circle:
        per = grid.geometry.period
        hw = np.mod(hw + per / 2, per) - per / 2  # the profile's own distance
    prof = bump_profile(grid, x[k], hw)
    assert prof[k + 1] == 0.0 and prof[k] == 1.0
    assert np.array_equal(prof, ref_bump_profile(grid, x[k], hw))


def test_circle_bump_wraps_across_the_period():
    grid = build_grid(GEOMETRIES["spindle_t1e-2"](), n_per_region=400)
    x = grid.nodes
    center, hw = x[1], 4.0 * (x[1] - x[0])
    prof = bump_profile(grid, center, hw)
    assert prof[-1] > 0.0 and prof[0] > 0.0
    assert np.array_equal(prof, ref_bump_profile(grid, center, hw))


def test_narrow_members_are_skipped_at_the_same_rng_step():
    grid = build_grid(GEOMETRIES["spindle_t1e-2"](), n_per_region=400)
    width_factor = 0.02
    support = [np.count_nonzero(bump_profile(grid, c, width_factor * float(grid.geometry.rho(c))))
               for c in _candidate_centers(grid)]
    assert min(support) < 5 <= max(support)  # some members are skipped, not all
    got = bump_family(grid, n_members=6, seed=5, width_factor=width_factor)
    assert_same_members(got, ref_bump_family(grid, n_members=6, seed=5,
                                             width_factor=width_factor))
    assert_same_members(got, loop_bump_family(grid, n_members=6, seed=5,
                                              width_factor=width_factor))


# ---------------------------------------------------------------------------
# bump windows: the profile is evaluated on node windows around its support


def spindle_grid():
    return build_grid(GEOMETRIES["spindle_t1e-2"](), n_per_region=400)


@pytest.mark.parametrize("side", ["first", "last", "below", "above"])
def test_circle_bump_straddling_the_seam_matches_loop(side):
    grid = spindle_grid()
    x, per = grid.nodes, grid.geometry.period
    h = x[1] - x[0]
    center = {"first": x[1], "last": x[-2], "below": x[0] - 0.5 * h,
              "above": x[-1] + 0.5 * (x[0] + per - x[-1])}[side]
    hw = 7.0 * h
    prof = bump_profile(grid, center, hw)
    assert prof[0] > 0.0 and prof[-1] > 0.0
    assert np.array_equal(prof, ref_bump_profile(grid, center, hw))


@pytest.mark.parametrize("frac", [0.2499, 0.25, 0.3, 0.49, 0.5, 0.75])
def test_wide_circle_bump_matches_loop(frac):
    grid = spindle_grid()
    per = grid.geometry.period
    for center in (grid.nodes[3], grid.nodes[grid.n // 2], grid.nodes[-4]):
        prof = bump_profile(grid, center, frac * per)
        assert np.count_nonzero(prof) > grid.n // 4
        assert np.array_equal(prof, ref_bump_profile(grid, center, frac * per))


def test_bump_centre_outside_the_node_range_matches_loop(grid):
    x = grid.nodes
    if grid.geometry.circle:
        per = grid.geometry.period
        cases = [(x[5] + 3.0 * per, 4.0 * (x[6] - x[5])), (x[-6] - 2.0 * per, 4.0 * (x[-5] - x[-6]))]
    else:
        span = x[-1] - x[0]
        cases = [(x[-1] + 0.1 * span, 0.2 * span), (x[0] - 0.1 * span, 0.2 * span),
                 (x[-1] + span, 0.1 * span)]
    for center, hw in cases:
        prof = bump_profile(grid, center, hw)
        assert np.array_equal(prof, ref_bump_profile(grid, center, hw))
    assert np.any(bump_profile(grid, *cases[0]))


def test_bump_narrower_than_the_spacing_is_empty(grid):
    x = grid.nodes
    for k in (0, grid.n // 3, grid.n - 2):
        center = 0.5 * (x[k] + x[k + 1])
        hw = 0.1 * (x[k + 1] - x[k])
        prof = bump_profile(grid, center, hw)
        assert not np.any(prof)
        assert np.array_equal(prof, ref_bump_profile(grid, center, hw))
