"""Exceptional-weight arithmetic, index changes, region classification."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold_lab.link_spectra import make_link
from conifold_lab.weight_calculus import (
    EndDescriptor,
    ExceptionalWeightError,
    WeightOrderingError,
    WeightVector,
    classify_weight_region,
    conjugate_exponents,
    distance_to_exceptional,
    exceptional_weights,
    gamma_roots,
    index_change,
)

S2 = make_link("sphere", dim=2)
S3 = make_link("sphere", dim=3)


def test_exceptional_weights_s2_m3_open_interval():
    got = [(w.gamma, w.mult) for w in exceptional_weights(S2, 3, (-4, 3))]
    assert got == [(-3.0, 5), (-2.0, 3), (-1.0, 1), (0.0, 1), (1.0, 3), (2.0, 5)]


def test_exceptional_weights_contain_trivial_rates():
    for link, m in ((S2, 3), (S3, 4), (make_link("flat_torus", lengths=(1, 2)), 3)):
        got = {(w.gamma, w.mult) for w in exceptional_weights(link, m, (2.0 - m - 0.5, 0.5))}
        assert (0.0, 1) in got
        assert (float(2 - m), 1) in got


def test_exceptional_weights_s3_m4():
    got = [(w.gamma, w.mult) for w in exceptional_weights(S3, 4, (-0.5, 2.0))]
    assert got == [(0.0, 1), (1.0, 4)]


def test_exceptional_weights_symmetric_about_midpoint():
    m = 3
    ws = exceptional_weights(S2, m, (-6.0, 5.0))
    mid = (2.0 - m) / 2.0
    table = {round(w.gamma - mid, 9): w.mult for w in ws}
    for offset, mult in table.items():
        if -offset in table or abs(offset) < 1e-12:
            assert table.get(round(-offset, 9), mult) == mult


@settings(max_examples=50, deadline=None)
@given(m=st.integers(3, 7), n=st.integers(0, 6))
def test_root_pair_vieta(m, n):
    e = n * (n + 1.0)
    gp, gm = gamma_roots(e, m)
    assert abs((gp + gm) - (2.0 - m)) < 1e-12
    assert abs(gp * gm + e) < 1e-12
    assert gp >= 0.0  # nonneg eigenvalues give a nonnegative growing rate


def test_index_change_examples():
    ac = [EndDescriptor("AC", S2)]
    cs = [EndDescriptor("CS", S2)]
    assert index_change(WeightVector((-0.5,)), WeightVector((1.5,)), ac, 3) == 4
    assert index_change(WeightVector((-0.5,)), WeightVector((-0.5,)), ac, 3) == 0
    assert index_change(WeightVector((0.5,)), WeightVector((-0.5,)), cs, 3) == 1


def test_index_change_rejects_misordered_and_exceptional():
    ac = [EndDescriptor("AC", S2)]
    with pytest.raises(WeightOrderingError):
        index_change(WeightVector((1.5,)), WeightVector((-0.5,)), ac, 3)
    with pytest.raises(ExceptionalWeightError):
        index_change(WeightVector((-0.5,)), WeightVector((1.0,)), ac, 3)


@pytest.mark.parametrize("w1,w2,w3", [(-0.5, 0.5, 1.5), (-2.5, -0.5, 2.5)])
def test_index_change_additive_along_ordered_chains(w1, w2, w3):
    ac = [EndDescriptor("AC", S2)]
    total = index_change(WeightVector((w1,)), WeightVector((w3,)), ac, 3)
    split = (index_change(WeightVector((w1,)), WeightVector((w2,)), ac, 3)
             + index_change(WeightVector((w2,)), WeightVector((w3,)), ac, 3))
    assert total == split


def test_classify_compact():
    facts = classify_weight_region("compact", [], None, 3)
    assert facts.kernel_dim == 1
    assert facts.index == 0
    assert facts.surjective is False


def test_classify_ac_region_a_isomorphism():
    facts = classify_weight_region("AC", [EndDescriptor("AC", S2)],
                                   WeightVector((-0.5,)), 3)
    assert facts == type(facts)(injective=True, surjective=True, index=0, kernel_dim=0)


def test_classify_ac_surjective_kernel_from_index_change():
    facts = classify_weight_region("AC", [EndDescriptor("AC", S2)],
                                   WeightVector((1.5,)), 3)
    assert facts.surjective is True
    assert facts.kernel_dim == 4
    assert facts.index == 4


def test_classify_ac_never_contradicts_index_change():
    ends = [EndDescriptor("AC", S2)]
    base = WeightVector((-0.5,))
    for beta in (0.5, 1.5, 2.5):
        facts = classify_weight_region("AC", ends, WeightVector((beta,)), 3)
        assert facts.kernel_dim == index_change(base, WeightVector((beta,)), ends, 3)


def test_classify_cs_quadrants():
    ends = [EndDescriptor("CS", S2), EndDescriptor("CS", S2)]
    inj = classify_weight_region("CS", ends, WeightVector((0.2, -0.3)), 3)
    assert inj.injective is True and inj.kernel_dim == 0
    a = classify_weight_region("CS", ends, WeightVector((-0.5, -0.5)), 3)
    assert a.kernel_dim == 1 and a.index == 0
    srj = classify_weight_region("CS", ends, WeightVector((-1.2, -0.6)), 3)
    assert srj.surjective is True
    # chamber B: one entry one crossing below 2-m, kernel still R
    b = classify_weight_region("CS", ends, WeightVector((-1.5, -0.5)), 3)
    assert b.kernel_dim == 1 and b.index == 1


def test_classify_cs_single_end_open_question_left_unknown():
    ends = [EndDescriptor("CS", S2)]
    # between (2-m)/2 and 0 the kernel is not claimed
    facts = classify_weight_region("CS", ends, WeightVector((-0.25,)), 3)
    assert facts.kernel_dim is None
    # at or below the duality anchor the chamber fact is claimed
    facts = classify_weight_region("CS", ends, WeightVector((-0.6,)), 3)
    assert facts.kernel_dim == 1


def test_classify_csac():
    ends = [EndDescriptor("CS", S2), EndDescriptor("AC", S2)]
    a = classify_weight_region("CSAC", ends, WeightVector((-0.5, -0.5)), 3)
    assert a.injective is True and a.surjective is True and a.index == 0
    inj = classify_weight_region("CSAC", ends, WeightVector((0.5, -0.5)), 3)
    assert inj.injective is True and inj.kernel_dim == 0
    srj = classify_weight_region("CSAC", ends, WeightVector((-0.5, 1.5)), 3)
    assert srj.surjective is True and srj.kernel_dim == 4


def test_classify_rejects_exceptional():
    with pytest.raises(ExceptionalWeightError):
        classify_weight_region("AC", [EndDescriptor("AC", S2)], WeightVector((0.0,)), 3)


def test_conjugate_exponents_examples():
    ce = conjugate_exponents(2.0, 4, 1)
    assert ce.p_prime == 2.0
    assert ce.p_star == 4.0
    ce = conjugate_exponents(1.0, 3, 2)
    assert ce.p_star_l == pytest.approx(3.0)
    assert ce.p_prime is None
    ce = conjugate_exponents(2.0, 4, 2)
    assert ce.p_star_l is None
    assert ce.exceptional is True  # lp = m borderline


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.01, 10.0), m=st.integers(3, 9))
def test_conjugate_identity(p, m):
    ce = conjugate_exponents(p, m, 1)
    if ce.p_star is None:
        return
    assert abs(1.0 / ce.p_star + 1.0 / ce.p_prime - (m - 1.0) / m) < 1e-14


def test_distance_to_exceptional():
    assert distance_to_exceptional(-0.5, S2, 3) == pytest.approx(0.5)
    assert distance_to_exceptional(0.9, S2, 3) == pytest.approx(0.1)
