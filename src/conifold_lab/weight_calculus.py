"""Exceptional-weight arithmetic for the Laplacian on conifolds.

On a cone dr^2 + r^2 g' over a link with Laplace eigenvalues e, the
homogeneous harmonics r^gamma sigma(theta) exist exactly at the rates

    gamma = ((2-m) +- sqrt((2-m)^2 + 4e)) / 2,

and these rates are precisely the weights at which the Laplacian fails
to be Fredholm between weighted Sobolev spaces.  This module computes
those weights with their multiplicities, the distance of a weight to the
nearest one and index changes between ordered weight vectors; it
classifies (injective / surjective / index / kernel) facts per weight
region for compact, AC, CS and CS/AC geometries, and provides the
Sobolev conjugate-exponent bookkeeping p', p*, p*_l.

All comparisons against exceptional values use an explicit tolerance
(default 1e-9): link spectra may be irrational, and solvers need a
consistent "distance to exceptional" notion for conditioning warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .link_spectra import Link

__all__ = [
    "ExceptionalWeight",
    "WeightVector",
    "EndDescriptor",
    "RegionFacts",
    "ConjugateExponents",
    "WeightOrderingError",
    "ExceptionalWeightError",
    "gamma_roots",
    "exceptional_weights",
    "distance_to_exceptional",
    "index_change",
    "classify_weight_region",
    "conjugate_exponents",
]

DEFAULT_TOL = 1e-9


class WeightOrderingError(ValueError):
    """Weight vectors violate the ordering required by the index-change formula."""


class ExceptionalWeightError(ValueError):
    """A weight sits on (or within tolerance of) an exceptional value."""


@dataclass(frozen=True)
class ExceptionalWeight:
    """One exceptional rate gamma with its multiplicity.

    Satisfies gamma^2 + (m-2) gamma = source_eigenvalue; mult equals the
    link multiplicity of source_eigenvalue (homogeneous and
    polynomially-growing harmonics coincide for the Laplacian, so no
    extra multiplicity bookkeeping is needed).
    """

    gamma: float
    mult: int
    source_eigenvalue: float


@dataclass(frozen=True)
class WeightVector:
    """One weight per end.  For CS/AC manifolds the CS entries are the
    'mu' block and the AC entries the 'lambda' block."""

    beta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))

    def __len__(self):
        return len(self.beta)

    def __iter__(self):
        return iter(self.beta)


@dataclass(frozen=True)
class EndDescriptor:
    """Kind and link of one end, as needed by index/region arithmetic."""

    kind: str  # 'CS' | 'AC'
    link: Link


def gamma_roots(e: float, m: int) -> tuple[float, float]:
    """Both homogeneity rates (gamma_plus, gamma_minus) for eigenvalue e."""
    if e < 0:
        raise ValueError("link eigenvalues are nonnegative")
    disc = math.sqrt((2.0 - m) ** 2 + 4.0 * e)
    return ((2.0 - m) + disc) / 2.0, ((2.0 - m) - disc) / 2.0


def exceptional_weights(
    link: Link, m: int, gamma_range: tuple[float, float]
) -> list[ExceptionalWeight]:
    """All exceptional weights of the cone over `link` inside the open
    interval gamma_range, sorted ascending by gamma.

    Every link eigenvalue e contributes both roots of
    gamma^2 + (m-2) gamma = e that fall in the range, with mult equal to
    the eigenvalue multiplicity.
    """
    if m < 3:
        raise ValueError("cone dimension m must be >= 3")
    lo, hi = float(gamma_range[0]), float(gamma_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"gamma range must be a bounded interval, got {gamma_range}")
    # gamma in (lo, hi) corresponds to e = gamma^2 + (m-2) gamma, maximised
    # at one of the endpoints.
    q = lambda g: g * g + (m - 2.0) * g
    e_max = max(q(lo), q(hi), 0.0)
    out = []
    for e, mult in link.eigenvalues_below(e_max * (1 + 1e-12) + 1e-12):
        for gamma in gamma_roots(e, m):
            if lo < gamma < hi:
                out.append(ExceptionalWeight(gamma=gamma, mult=mult, source_eigenvalue=e))
    out.sort(key=lambda w: w.gamma)
    return out


def distance_to_exceptional(beta: float, link: Link, m: int, span: float = 1.0) -> float:
    """Distance from beta to the nearest exceptional weight of the end."""
    exc = exceptional_weights(link, m, (beta - span, beta + span))
    if not exc:
        return span
    return min(abs(beta - w.gamma) for w in exc)


def _crossed_multiplicity(link: Link, m: int, g1: float, g2: float, tol: float,
                          check_endpoints: bool = True) -> int:
    """Sum of multiplicities of exceptional weights strictly between g1 and g2."""
    lo, hi = min(g1, g2), max(g1, g2)
    total = 0
    for w in exceptional_weights(link, m, (lo - 1.0, hi + 1.0)):
        if check_endpoints and (abs(w.gamma - g1) <= tol or abs(w.gamma - g2) <= tol):
            raise ExceptionalWeightError(
                f"weight {w.gamma} is exceptional (eigenvalue {w.source_eigenvalue}); "
                "index change is undefined at exceptional endpoints"
            )
        if lo + tol < w.gamma < hi - tol:
            total += w.mult
    return total


def index_change(
    w1: WeightVector,
    w2: WeightVector,
    ends: list[EndDescriptor],
    m: int,
    tol: float = DEFAULT_TOL,
) -> int:
    """Index difference i(w2) - i(w1) of the Laplacian between weighted
    spaces, for ordered weight pairs.

    Ordering requirement: on CS ends mu1 >= mu2, on AC ends
    lambda1 <= lambda2, i.e. w2 corresponds to a larger function space on
    every end.  The change equals the total multiplicity of exceptional
    weights strictly between the entries, summed per end, and is >= 0.
    Pairs violating the ordering are rejected rather than sign-juggled;
    exceptional endpoints are rejected.
    """
    if not (len(w1) == len(w2) == len(ends)):
        raise ValueError("weight vectors and end list must have equal length")
    total = 0
    for i, (b1, b2, end) in enumerate(zip(w1, w2, ends)):
        if end.kind == "CS":
            if b1 < b2 - tol:
                raise WeightOrderingError(
                    f"CS end {i}: require mu1 >= mu2, got {b1} < {b2}"
                )
        elif end.kind == "AC":
            if b1 > b2 + tol:
                raise WeightOrderingError(
                    f"AC end {i}: require lambda1 <= lambda2, got {b1} > {b2}"
                )
        else:
            raise ValueError(f"unknown end kind {end.kind!r}")
        total += _crossed_multiplicity(end.link, m, b1, b2, tol)
    return total


def _signed_index_from_anchor(
    beta: tuple[float, ...], ends: list[EndDescriptor], m: int, tol: float
) -> int:
    """Index at beta relative to the isomorphism region A, as a per-end
    signed sum of crossed multiplicities (the index-change formula applied
    one end at a time, with sign + when the space grows)."""
    anchor = (2.0 - m) / 2.0  # never exceptional: e = -(2-m)^2/4 < 0 has no root
    total = 0
    for b, end in zip(beta, ends):
        crossed = _crossed_multiplicity(end.link, m, anchor, b, tol)
        if end.kind == "AC":
            total += crossed if b > anchor else -crossed
        else:  # CS: spaces grow as the weight decreases
            total += crossed if b < anchor else -crossed
    return total


@dataclass(frozen=True)
class RegionFacts:
    """Facts about Delta: W^p_{k,beta} -> W^p_{k-2,beta-2} at one weight.

    None means the source material does not state the fact for that
    region and we refuse to guess.
    """

    injective: bool | None = None
    surjective: bool | None = None
    index: int | None = None
    kernel_dim: int | None = None


def _require_nonexceptional(beta, ends, m, tol):
    for i, (b, end) in enumerate(zip(beta, ends)):
        d = distance_to_exceptional(b, end.link, m)
        if d <= tol:
            raise ExceptionalWeightError(
                f"weight {b} on end {i} is within {tol} of an exceptional weight"
            )


def classify_weight_region(
    kind: str,
    ends: list[EndDescriptor],
    weights: WeightVector | None,
    m: int,
    tol: float = DEFAULT_TOL,
) -> RegionFacts:
    """Region classification of the Laplacian between weighted spaces.

    kind: 'compact' | 'AC' | 'CS' | 'CSAC'.  For 'compact' the end list
    and weights are ignored.  Only the prose-level quadrant facts are
    encoded; anything finer is reported as unknown (None).

    AC: injective when every weight < 0; surjective when every weight
    > 2-m; isomorphism with index zero in between (region A); in the
    surjective region the kernel dimension equals the index change from
    region A since the cokernel stays zero.

    CS: injective when all weights > (2-m)/2 with at least one > 0;
    surjective in the dual region (all < (2-m)/2, at least one < 2-m);
    kernel = R in the chamber (2-m, 0)^e for e >= 2 ends and in the
    adjacent chambers reached by pushing exactly one entry just below
    2-m.  For a single CS end the kernel claim is made only for
    beta <= (2-m)/2 (weights in ((2-m)/2, 0) are left unknown: the
    duality argument is anchored at (2-m)/2 and the source does not
    state the extension).

    CSAC: injective when AC weights < 0 and CS weights > 2-m; surjective
    in the dual region; isomorphism with index zero in (2-m, 0)^e.
    """
    if kind == "compact":
        return RegionFacts(injective=False, surjective=False, index=0, kernel_dim=1)
    if weights is None:
        raise ValueError("weights required for non-compact classification")
    beta = tuple(weights)
    if len(beta) != len(ends):
        raise ValueError("need one weight per end")
    _require_nonexceptional(beta, ends, m, tol)
    index = _signed_index_from_anchor(beta, ends, m, tol)
    lo = 2.0 - m

    if kind == "AC":
        if any(e.kind != "AC" for e in ends):
            raise ValueError("AC classification requires AC ends only")
        injective = True if all(b < 0 for b in beta) else None
        surjective = True if all(b > lo for b in beta) else None
        kernel = None
        if injective:
            kernel = 0
        if surjective:
            kernel = index if not injective else 0
        return RegionFacts(injective=injective, surjective=surjective, index=index, kernel_dim=kernel)

    if kind == "CS":
        if any(e.kind != "CS" for e in ends):
            raise ValueError("CS classification requires CS ends only")
        half = lo / 2.0
        injective = True if (all(b > half for b in beta) and any(b > 0 for b in beta)) else None
        surjective = True if (all(b < half for b in beta) and any(b < lo for b in beta)) else None
        kernel = None
        if injective:
            kernel = 0
        elif surjective:
            kernel = index  # cokernel zero there
        else:
            in_A = all(lo < b < 0 for b in beta)
            if in_A:
                if len(beta) >= 2 or all(b <= half for b in beta):
                    kernel = 1
                    injective = False
                    surjective = False
            elif len(beta) >= 2:
                # chambers B/C: exactly one entry pushed one crossing below 2-m
                below = [i for i, b in enumerate(beta) if b < lo]
                if len(below) == 1 and all(lo < b < 0 for i, b in enumerate(beta) if i not in below):
                    i = below[0]
                    crossed = _crossed_multiplicity(ends[i].link, m, beta[i], lo, tol,
                                                    check_endpoints=False)
                    if crossed == 0:  # only the 2-m line itself was crossed
                        kernel = 1
                        surjective = True
        return RegionFacts(injective=injective, surjective=surjective, index=index, kernel_dim=kernel)

    if kind == "CSAC":
        kinds = [e.kind for e in ends]
        if "CS" not in kinds or "AC" not in kinds:
            raise ValueError("CSAC classification requires both CS and AC ends")
        mu = [b for b, e in zip(beta, ends) if e.kind == "CS"]
        lam = [b for b, e in zip(beta, ends) if e.kind == "AC"]
        injective = True if (all(x < 0 for x in lam) and all(x > lo for x in mu)) else None
        surjective = True if (all(x > lo for x in lam) and all(x < 0 for x in mu)) else None
        kernel = None
        if injective:
            kernel = 0
        elif surjective:
            kernel = index
        if injective and surjective:
            kernel = 0
        return RegionFacts(injective=injective, surjective=surjective, index=index, kernel_dim=kernel)

    raise ValueError(f"unknown region kind {kind!r}")


@dataclass(frozen=True)
class ConjugateExponents:
    """Sobolev conjugate exponents of (p, m, l).

    p_prime: Hoelder dual p/(p-1), None at p = 1.
    p_star: mp/(m-p) (the l=1 case), None when p >= m.
    p_star_l: mp/(m-lp), None when lp >= m; `exceptional` marks lp == m
    (borderline embeddings into all q < infinity) and `part_two` marks
    lp > m (embeddings into C^k instead).
    """

    p: float
    m: int
    l: int
    p_prime: float | None
    p_star: float | None
    p_star_l: float | None
    exceptional: bool
    part_two: bool


def conjugate_exponents(p: float, m: int, l: int = 1) -> ConjugateExponents:
    if p < 1:
        raise ValueError("p must be >= 1")
    if l < 1:
        raise ValueError("l must be >= 1")
    p_prime = p / (p - 1.0) if p > 1 else None
    p_star = m * p / (m - p) if p < m else None
    lp = l * p
    if lp < m:
        p_star_l = m * p / (m - lp)
        exceptional = False
        part_two = False
    else:
        p_star_l = None
        exceptional = lp == m
        part_two = lp > m
    return ConjugateExponents(p, m, l, p_prime, p_star, p_star_l, exceptional, part_two)
