"""Link manifolds represented by their Laplace spectra.

A link is the compact cross-section (Sigma, g') of a model cone
dr^2 + r^2 g'.  Everything computed downstream -- exceptional weights,
radial mode operators, weighted norms of mode-decomposed functions --
consumes the link only through its eigenvalue/multiplicity stream and
its dimension, so links are stored as spectra: closed forms for round
spheres, lattice enumeration for flat tori, CSV ingestion for anything
else.  No mesh on Sigma is ever built.

Spectrum conventions: the positive Laplacian, eigenvalues sorted
ascending starting at 0 with multiplicity 1 (all built-in links are
connected), multiplicities positive integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

__all__ = [
    "Link",
    "SpectrumError",
    "SpectrumRangeError",
    "make_link",
    "link_from_string",
    "cone_link",
    "eigenvalues_below",
    "sphere_eigenvalue",
    "sphere_multiplicity",
]


class SpectrumError(ValueError):
    """Malformed or inconsistent spectrum data."""


class SpectrumRangeError(SpectrumError):
    """A query exceeded the eigenvalue range covered by a custom spectrum."""


def sphere_eigenvalue(n: int, d: int, radius: float = 1.0) -> float:
    """Eigenvalue n(n+d-1)/a^2 of the round d-sphere of radius a."""
    return n * (n + d - 1) / radius**2


def sphere_multiplicity(n: int, d: int) -> int:
    """Dimension of the degree-n spherical harmonics on S^d.

    Equals (2n+d-1)(n+d-2)! / (n! (d-1)!), computed here as the stable
    binomial identity C(n+d-1, d-1) + C(n+d-2, d-1).
    """
    if n < 0:
        raise ValueError("harmonic degree must be >= 0")
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    if n == 0:
        return 1
    return math.comb(n + d - 1, d - 1) + math.comb(n + d - 2, d - 1)


def _torus_spectrum_below(lengths: tuple[float, ...], lam: float):
    """Spectrum of the flat torus R^d / (L_1 Z x ... x L_d Z) up to lam.

    Eigenvalues are 4 pi^2 sum_i (k_i / L_i)^2 over integer vectors k.
    Multiplicities are merged exactly: the rational part sum k_i^2 / L_i^2
    is accumulated with Fraction arithmetic (every float is an exact
    binary rational), so ties are resolved without tolerances and the
    common factor 4 pi^2 is applied once at the end.
    """
    from fractions import Fraction  # only tori need it: sphere runs never load it

    if lam < 0:
        return []
    four_pi_sq = 4.0 * math.pi**2
    inv_sq = [Fraction(1) / (Fraction(L) * Fraction(L)) for L in lengths]
    bounds = [int(math.floor(L * math.sqrt(lam) / (2.0 * math.pi))) for L in lengths]
    counts: dict[Fraction, int] = {}
    for k in product(*(range(-b, b + 1) for b in bounds)):
        q = sum(ki * ki * w for ki, w in zip(k, inv_sq))
        if four_pi_sq * float(q) <= lam * (1 + 1e-15) or q == 0:
            counts[q] = counts.get(q, 0) + 1
    pairs = [(four_pi_sq * float(q), mult) for q, mult in sorted(counts.items())]
    return [(e, mult) for e, mult in pairs if e <= lam]


def _parse_spectrum_csv(path: Path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.replace(",", " ").split()]
            if len(parts) != 2:
                raise SpectrumError(f"{path}:{lineno}: expected 'eigenvalue,multiplicity', got {raw!r}")
            try:
                e = float(parts[0])
                mult = int(parts[1])
            except ValueError:
                if lineno == 1:
                    continue  # optional header
                raise SpectrumError(f"{path}:{lineno}: non-numeric row {raw!r}") from None
            rows.append((e, mult))
    if not rows:
        raise SpectrumError(f"{path}: no spectrum rows found")
    if rows[0][0] != 0.0:
        raise SpectrumError(f"{path}: spectrum must start at eigenvalue 0, got {rows[0][0]}")
    prev = -math.inf
    for e, mult in rows:
        if e < 0:
            raise SpectrumError(f"{path}: negative eigenvalue {e}")
        if mult < 1:
            raise SpectrumError(f"{path}: multiplicity {mult} < 1 at eigenvalue {e}")
        if e <= prev:
            raise SpectrumError(f"{path}: eigenvalues not strictly ascending near {e}")
        prev = e
    return tuple(rows)


@dataclass(frozen=True)
class Link:
    """A compact link manifold known through its Laplace spectrum.

    kind: 'sphere' | 'flat_torus' | 'custom'.
    dim:  link dimension, i.e. m-1 for the ambient cone dimension m.
    params: (radius,) for spheres, lattice lengths for tori, (path,) for
        custom files.
    volume: Riemannian volume when known (None for custom links; norm
        evaluations then use 1).
    einstein_constant: kappa with Ric = kappa * g' when known; used for
        the exact Hessian reduction of mode functions (0 assumed, i.e.
        flat, when unknown).
    """

    kind: str
    dim: int
    params: tuple = ()
    volume: float | None = None
    einstein_constant: float | None = None
    _entries: tuple = field(default=(), repr=False, compare=False)

    def eigenvalues_below(self, lam: float) -> list[tuple[float, int]]:
        return eigenvalues_below(self, lam)

    def spec_string(self) -> str:
        if self.kind == "sphere":
            return f"sphere:{self.dim}:{self.params[0]!r}"
        if self.kind == "flat_torus":
            return "torus:" + ",".join(repr(L) for L in self.params)
        return f"custom:{self.params[0]}"


def make_link(kind: str, **kwargs) -> Link:
    """Construct a link.

    make_link('sphere', dim=2, radius=1.0)
    make_link('flat_torus', lengths=(1.0, 2.0))
    make_link('custom', path='spectrum.csv')

    Link dimension must be >= 2: the cone dimension m = dim + 1 is
    assumed >= 3 throughout.  A custom spectrum file that cannot be read
    raises ValueError naming the path, chained to the OSError.
    """
    if kind == "sphere":
        d = int(kwargs["dim"])
        radius = float(kwargs.get("radius", 1.0))
        if d < 2:
            raise ValueError(f"sphere link dimension {d} < 2: cone dimension m = d+1 must be >= 3")
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        vol_unit = 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
        return Link(
            kind="sphere",
            dim=d,
            params=(radius,),
            volume=vol_unit * radius**d,
            einstein_constant=(d - 1) / radius**2,
        )
    if kind == "flat_torus":
        lengths = tuple(float(L) for L in kwargs["lengths"])
        if len(lengths) < 2:
            raise ValueError(f"torus link dimension {len(lengths)} < 2: cone dimension must be >= 3")
        if any(L <= 0 for L in lengths):
            raise ValueError("torus lengths must be positive")
        return Link(
            kind="flat_torus",
            dim=len(lengths),
            params=lengths,
            volume=math.prod(lengths),
            einstein_constant=0.0,
        )
    if kind == "custom":
        path = Path(kwargs["path"])
        try:
            entries = _parse_spectrum_csv(path)
        except OSError as exc:
            raise ValueError(f"cannot read the custom link spectrum {str(path)!r}: "
                             f"{exc.strerror or exc}") from exc
        dim = int(kwargs.get("dim", 2))
        if dim < 2:
            raise ValueError(f"custom link dimension {dim} < 2: cone dimension must be >= 3")
        return Link(
            kind="custom",
            dim=dim,
            params=(str(path),),
            volume=kwargs.get("volume"),
            einstein_constant=kwargs.get("einstein_constant"),
            _entries=entries,
        )
    raise ValueError(f"unknown link kind {kind!r}")


def link_from_string(spec: str) -> Link:
    """Parse CLI shorthand: 'sphere:2', 'sphere:3:0.5', 'torus:1,2', 'custom:path.csv'."""
    head, _, rest = spec.partition(":")
    if head == "sphere":
        bits = rest.split(":")
        return make_link("sphere", dim=int(bits[0]), radius=float(bits[1]) if len(bits) > 1 else 1.0)
    if head in ("torus", "flat_torus"):
        return make_link("flat_torus", lengths=tuple(float(x) for x in rest.split(",")))
    if head == "custom":
        return make_link("custom", path=rest)
    raise ValueError(f"cannot parse link spec {spec!r}")


def cone_link(spec: str, m: int) -> Link:
    """The link parsed from spec; ValueError unless it has dimension m - 1,
    as the link of a cone of dimension m does."""
    link = link_from_string(spec)
    if link.dim != m - 1:
        raise ValueError(f"link {spec!r} has dimension {link.dim}, but the link of a "
                         f"cone of dimension m = {m} has dimension m-1 = {m - 1}")
    return link


def eigenvalues_below(link: Link, lam: float) -> list[tuple[float, int]]:
    """All (eigenvalue, multiplicity) with eigenvalue <= lam, ascending.

    Deterministic: repeated calls with equal arguments return identical
    lists.  For custom links the file must cover the requested range;
    otherwise SpectrumRangeError is raised rather than silently
    truncating.
    """
    if not math.isfinite(lam):
        raise ValueError("eigenvalue cutoff must be finite")
    if lam < 0:
        return []
    if link.kind == "sphere":
        (radius,) = link.params
        out = []
        n = 0
        while True:
            e = sphere_eigenvalue(n, link.dim, radius)
            if e > lam:
                break
            out.append((e, sphere_multiplicity(n, link.dim)))
            n += 1
        return out
    if link.kind == "flat_torus":
        return _torus_spectrum_below(link.params, lam)
    if link.kind == "custom":
        entries = link._entries
        if lam > entries[-1][0]:
            raise SpectrumRangeError(
                f"custom spectrum covers eigenvalues up to {entries[-1][0]}, requested {lam}"
            )
        return [(e, mult) for e, mult in entries if e <= lam]
    raise ValueError(f"unknown link kind {link.kind!r}")
