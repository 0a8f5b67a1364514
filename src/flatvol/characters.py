"""Weyl characters, dimensions, and dominant-weight enumeration.

Characters are evaluated by the direct Weyl-group sums
chi_lambda(e^mu) = sum_w det(w) e^{2 pi i <w(lambda+rho), mu>} /
                   sum_w det(w) e^{2 pi i <w rho, mu>},
which is the period-1 convention in which the alcove constraint reads
<alpha_0, mu> <= 1.  Singular denominators fall back to a deterministic
limit along the rho direction with 3-point Richardson extrapolation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .exact import Q, Vec, vadd, vec
from .kappa import OnWallError
from .liecore import RootSystem

__all__ = [
    "DominantWeight",
    "CharacterValue",
    "weyl_dimension",
    "character_eval",
    "character_table",
    "enumerate_dominant",
]


@dataclass(frozen=True)
class DominantWeight:
    """Weight with nonnegative integer fundamental-weight coordinates."""

    coords: tuple[int, ...]

    def vector(self, rs: RootSystem) -> Vec:
        return rs.from_weight_coords(vec(self.coords))

    def __post_init__(self):
        if any(c < 0 for c in self.coords):
            raise ValueError("dominant weights need nonnegative coordinates")


@dataclass(frozen=True)
class CharacterValue:
    value: complex
    condition: str  # "regular-evaluation" | "limit-evaluation"


def weyl_dimension(rs: RootSystem, lam: DominantWeight) -> int:
    """prod_{alpha>0} <lambda+rho, alpha> / <rho, alpha>, exact."""
    lam_rho = vadd(lam.vector(rs), rs.rho)
    num = Q(1)
    den = Q(1)
    for a in rs.positive_roots:
        num *= rs.ip(lam_rho, a)
        den *= rs.ip(rs.rho, a)
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise RuntimeError(f"non-integral Weyl dimension {d} for {lam}")
    return int(d)


def character_table(rs: RootSystem, lam_rho: np.ndarray, mu: Vec) -> np.ndarray:
    """chi_lambda(e^mu) for all rows of lam_rho (lambda + rho in simple-root
    coordinates), by the Weyl-group sums in floating point.

    Raises OnWallError when the denominator vanishes (mu not regular).
    """
    gram = np.array([[float(x) for x in row] for row in rs.gram])
    gmu = gram @ np.array([float(c) for c in mu])
    num = np.zeros(len(lam_rho), dtype=complex)
    den = 0.0 + 0.0j
    rho_f = np.array([float(c) for c in rs.rho])
    for w in rs.weyl_elements():
        wm = np.array([[float(x) for x in row] for row in w.matrix])
        phases = (lam_rho @ wm.T) @ gmu
        num += w.sign * np.exp(2j * np.pi * phases)
        den += w.sign * np.exp(2j * np.pi * float((wm @ rho_f) @ gmu))
    if abs(den) < 1e-12 * len(rs.weyl_elements()):
        raise OnWallError("marking is not regular; character table undefined")
    return num / den


def character_eval(rs: RootSystem, lam: DominantWeight, mu: Vec) -> CharacterValue:
    """chi_lambda at exp(mu), for mu with exact rational coordinates."""
    lam_rho = vadd(lam.vector(rs), rs.rho)
    try:
        table = character_table(rs, np.array([[float(c) for c in lam_rho]]), mu)
        return CharacterValue(value=complex(table[0]), condition="regular-evaluation")
    except OnWallError:
        pass  # singular denominator: take the limit below
    # Deterministic limit along rho: steps h, h/2, h/4 with Neville
    # extrapolation to 0.  rho is regular for every mu.  The alternating
    # sums cancel to order h^n near a singular point, so the ratios are
    # computed in high-precision arithmetic before extrapolating.
    scale = 1.0 + math.sqrt(abs(float(rs.ip(lam_rho, lam_rho))))
    h0 = 1e-4 / scale
    hs = [h0, h0 / 2, h0 / 4]
    vals = [complex(_ratio_mp(rs, lam_rho, mu, h)) for h in hs]
    return CharacterValue(value=_neville(hs, vals, 0.0), condition="limit-evaluation")


def _ratio_mp(rs: RootSystem, lam_rho: Vec, mu: Vec, h: float) -> complex:
    import mpmath as mp

    with mp.workdps(60):
        hq = mp.mpf(h)
        shifted = [mp.mpf(m.numerator) / m.denominator + hq * float(r) for m, r in zip(mu, rs.rho)]
        gram = [[mp.mpf(x.numerator) / x.denominator for x in row] for row in rs.gram]
        gmu = [
            sum(gram[i][j] * shifted[j] for j in range(rs.rank)) for i in range(rs.rank)
        ]

        def alt(xi: Vec):
            total = mp.mpc(0)
            for w in rs.weyl_elements():
                wxi = w.act(xi)
                phase = sum(
                    (mp.mpf(c.numerator) / c.denominator) * gmu[i]
                    for i, c in enumerate(wxi)
                )
                total += w.sign * mp.expjpi(2 * phase)
            return total

        ratio = alt(lam_rho) / alt(rs.rho)
        return complex(ratio)


def _neville(xs, ys, x):
    """Value at x of the polynomial through the points (xs, ys)."""
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            vals[i] = (
                (x - xs[i + level]) * vals[i] - (x - xs[i]) * vals[i + 1]
            ) / (xs[i] - xs[i + level])
    return vals[0]


def _shifted_norms(rs: RootSystem, casimir_cutoff):
    """Yield (g |lambda+rho|^2, coords) for the dominant weights lambda with
    |lambda+rho|^2 <= cutoff, in lexicographic order of the coordinates.

    g is the common denominator of the fundamental-weight Gram matrix, so
    the norms are ints.  Every entry of that matrix is positive, so the
    norm grows in each coordinate and each loop stops at its first miss.
    """
    cutoff = Fraction(casimir_cutoff).limit_denominator(10**12) if isinstance(
        casimir_cutoff, float
    ) else Fraction(casimir_cutoff)
    if cutoff < 0:
        return
    gram_w = [
        [rs.ip(a, b) for b in rs.fundamental_weights] for a in rs.fundamental_weights
    ]
    g = math.lcm(*(x.denominator for row in gram_w for x in row))
    gram = [[int(x * g) for x in row] for row in gram_w]
    limit = math.floor(cutoff * g)
    last = rs.rank - 1
    v = [1] * rs.rank  # lambda + rho in fundamental-weight coordinates

    def rec(i: int, q: int):
        row = gram[i]
        if i == last:
            # only v_i moves here, so the increment grows by 2 G_ii a step
            head = tuple(c - 1 for c in v[:last])
            step = 2 * sum(map(operator.mul, row, v)) + row[i]
            c = 0
            while q <= limit:
                yield q, (*head, c)
                q += step
                step += 2 * row[i]
                c += 1
            return
        while q <= limit:
            yield from rec(i + 1, q)
            # |v + e_i|^2 - |v|^2 = 2 (G v)_i + G_ii
            q += 2 * sum(map(operator.mul, row, v)) + row[i]
            v[i] += 1
        v[i] = 1

    yield from rec(0, sum(map(sum, gram)))


def enumerate_dominant(rs: RootSystem, casimir_cutoff) -> list[DominantWeight]:
    """Dominant weights with <lambda+rho, lambda+rho> <= cutoff.

    Sorted by the shifted norm, ties broken lexicographically on the
    fundamental-weight coordinates.
    """
    return [DominantWeight(coords) for _, coords in sorted(_shifted_norms(rs, casimir_cutoff))]


def casimir_cutoff_for_count(rs: RootSystem, count: int) -> Fraction:
    """Smallest convenient cutoff whose weight list has >= count entries."""
    cutoff = rs.ip(rs.rho, rs.rho) * 4
    while sum(1 for _ in islice(_shifted_norms(rs, cutoff), count)) < count:
        cutoff *= 2
    return cutoff
