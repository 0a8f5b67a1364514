"""Weyl characters, dimensions, and dominant-weight enumeration.

Characters are evaluated by the direct Weyl-group sums
chi_lambda(e^mu) = sum_w det(w) e^{2 pi i <w(lambda+rho), mu>} /
                   sum_w det(w) e^{2 pi i <w rho, mu>},
which is the period-1 convention in which the alcove constraint reads
<alpha_0, mu> <= 1.  At a singular mu (the identity, central elements,
alcove walls) both sums vanish; their ratio is then taken exactly as the
limit along rho, as in the proof of Weyl's dimension formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Vec, _int_form, vadd, vec
from .kappa import OnWallError
from .liecore import RootSystem, rho_product

__all__ = [
    "DominantWeight",
    "CharacterValue",
    "weyl_dimension",
    "character_eval",
    "character_table",
    "singular_order",
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
    d = math.prod(rs.ip(lam_rho, a) for a in rs.positive_roots) / rho_product(rs)
    if d.denominator != 1 or d <= 0:
        raise RuntimeError(f"non-integral Weyl dimension {d} for {lam}")
    return int(d)


def singular_order(rs: RootSystem, mu: Vec) -> int:
    """Number of positive roots alpha with <alpha, mu> an integer, exactly:
    the order to which both Weyl sums at mu vanish along rho."""
    return sum(1 for a in rs.positive_roots if rs.ip(a, mu).denominator == 1)


def character_table(rs: RootSystem, lam_rho: np.ndarray, mu: Vec) -> np.ndarray:
    """chi_lambda(e^mu) for all rows of lam_rho (lambda + rho in simple-root
    coordinates), by the Weyl-group sums in floating point.

    At a singular mu both sums vanish to order k = singular_order(rs, mu)
    along rho, and their k-th derivatives there weight each term by
    <w(lambda+rho), rho>^k and <w rho, rho>^k; the ratio of those is the
    limit (at k = 0, the plain sums).  Raises OnWallError when the
    denominator is too small to divide by in floating point.
    """
    k = singular_order(rs, mu)
    gram = np.array([[float(x) for x in row] for row in rs.gram])
    gmu = gram @ np.array([float(c) for c in mu])
    num = np.zeros(len(lam_rho), dtype=complex)
    den = 0.0 + 0.0j
    rho_f = np.array([float(c) for c in rs.rho])
    grho = gram @ rho_f
    mats, signs, _ = rs.weyl_array
    for wm, sign in zip(mats.astype(float), signs.tolist()):
        wl, wr = lam_rho @ wm.T, wm @ rho_f
        num += sign * np.exp(2j * np.pi * (wl @ gmu)) * (wl @ grho) ** k
        den += sign * np.exp(2j * np.pi * float(wr @ gmu)) * float(wr @ grho) ** k
    if abs(den) < 1e-12 * len(mats):
        raise OnWallError("marking is not regular; character table undefined")
    return num / den


def character_eval(rs: RootSystem, lam: DominantWeight, mu: Vec) -> CharacterValue:
    """chi_lambda at exp(mu), for mu with exact rational coordinates.

    The condition is "limit-evaluation" exactly when mu is singular.  A
    regular mu so near a wall that the float guard of character_table
    trips raises OnWallError."""
    lam_rho = vadd(lam.vector(rs), rs.rho)
    table = character_table(rs, np.array([[float(c) for c in lam_rho]]), mu)
    condition = "limit-evaluation" if singular_order(rs, mu) else "regular-evaluation"
    return CharacterValue(value=complex(table[0]), condition=condition)


def _weight_gram(rs: RootSystem) -> tuple[np.ndarray, int]:
    """(G, g): g the common denominator of the fundamental-weight Gram
    matrix, G that matrix times g, in ints (read-only); made once per root
    system and kept on it."""
    if "_weight_gram" not in rs.__dict__:
        weights = rs.fundamental_weights
        ints, g = _int_form(tuple(tuple(rs.ip(a, b) for b in weights) for a in weights))
        gram = np.array(ints)
        gram.setflags(write=False)
        rs._weight_gram = gram, g
    return rs._weight_gram


def _shifted_norms(rs: RootSystem, casimir_cutoff) -> tuple[np.ndarray, np.ndarray]:
    """(g |lambda+rho|^2, coords) for the dominant weights lambda with
    |lambda+rho|^2 <= cutoff, as int64 arrays sorted by the norm, ties in
    lexicographic order of the fundamental-weight coordinates.

    g is the common denominator of the fundamental-weight Gram matrix G,
    so the norms are ints.  Every entry of G is positive, so v = lambda +
    rho >= 1 has g |v|^2 >= G_ii v_i^2: the box v_i <= sqrt(limit / G_ii),
    enumerated in lexicographic order, holds every weight; it is filtered
    by the norm and stably sorted by it.
    """
    gram, g = _weight_gram(rs)
    limit = math.floor(Fraction(casimir_cutoff) * g)
    box = [math.isqrt(max(0, limit) // int(gram[i, i])) for i in range(rs.rank)]
    v = np.indices(box).reshape(rs.rank, -1).T + 1
    q = ((v @ gram) * v).sum(axis=1)
    v, q = v[q <= limit], q[q <= limit]
    order = np.argsort(q, kind="stable")
    return q[order], v[order] - 1


def enumerate_dominant(rs: RootSystem, casimir_cutoff) -> list[DominantWeight]:
    """Dominant weights with <lambda+rho, lambda+rho> <= cutoff.

    Sorted by the shifted norm, ties broken lexicographically on the
    fundamental-weight coordinates.
    """
    return [DominantWeight(tuple(c)) for c in _shifted_norms(rs, casimir_cutoff)[1].tolist()]


def casimir_cutoff_for_count(rs: RootSystem, count: int) -> Fraction:
    """Smallest convenient cutoff whose weight list has >= count entries."""
    return _cutoff_and_weights(rs, count)[0]


def _first_step(count: int, n0: int, rank: int) -> int:
    """The doubling step at which the cutoff search builds its first box
    after c0's: one below the first j with n0 2^(j rank/2) >= count."""
    return max(1, math.ceil(2 * math.log2(count / n0) / rank) - 1)


def _cutoff_and_weights(rs: RootSystem, count: int) -> tuple[Fraction, np.ndarray]:
    """`casimir_cutoff_for_count`'s cutoff and the weight coordinates of
    `_shifted_norms` at it.

    The cutoff is the first of c0 2^j, c0 = 4 |rho|^2, whose weight list
    has count entries.  The number of weights grows at least 2^(rank/2)-fold
    per doubling (the volume of the region does, and the share of it lost
    near the walls shrinks), so from the n0 weights at c0 the first j with
    n0 2^(j rank/2) >= count bounds the search.  One box is built a step
    below that bound and doubled until it holds count weights.  A box
    filtered by the norm and stably sorted by it, in lexicographic order,
    holds the list of every smaller cutoff as a prefix, so the first
    cutoff of the search and its list are read off the box's sorted norms,
    whatever step the box was built at.
    """
    c0 = rs.ip(rs.rho, rs.rho) * 4
    norms, weights = _shifted_norms(rs, c0)
    j = 0
    if len(norms) < count:
        j = _first_step(count, len(norms), rs.rank)
        while len((box := _shifted_norms(rs, c0 * 2**j))[0]) < count:
            j += 1
        norms, weights = box
    g = _weight_gram(rs)[1]
    ends = np.searchsorted(norms, [math.floor(c0 * 2**i * g) for i in range(j + 1)], side="right")
    i = int(np.searchsorted(ends, count))
    return c0 * 2**i, weights[: ends[i]]
