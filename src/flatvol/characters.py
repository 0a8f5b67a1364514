"""Weyl characters, dimensions, and dominant-weight enumeration.

Characters are evaluated by the direct Weyl-group sums
chi_lambda(e^mu) = sum_w det(w) e^{2 pi i <w(lambda+rho), mu>} /
                   sum_w det(w) e^{2 pi i <w rho, mu>},
which is the period-1 convention in which the alcove constraint reads
<alpha_0, mu> <= 1.  At a singular mu (the identity, central elements,
alcove walls) both sums vanish; their ratio is then taken exactly as the
limit along rho, as in the proof of Weyl's dimension formula.

The phases are roots of unity, read from exact integers: lambda + rho is
given by its integer fundamental-weight coordinates n, and with
P[w, i] = D <w omega_i, mu> mod D over one denominator D the phase of a
term is exp(2 pi i (sum_i n_i P[w, i] mod D) / D), the product over i of
the entries T[w, i, n_i] of a power table
T[w, i, m] = exp(2 pi i ((m P[w, i]) mod D) / D), m <= max n
(`character_table`).  No weight needs its own exp, and every exp
argument is reduced exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .exact import Vec, _int_form, common_denominator, scaled, vadd, vec
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


def character_table(rs: RootSystem, n: np.ndarray, mu: Vec) -> np.ndarray:
    """chi_lambda(e^mu) for all rows of n, the ints n = lambda + rho in
    fundamental-weight coordinates, by the Weyl-group sums.

    The phase of a term is exp(2 pi i <w(lambda+rho), mu>), and
    D <w(lambda+rho), mu> = sum_i n_i P[w, i] with P[w, i] = D <w omega_i, mu>
    mod D exact ints (`_weyl_pairings`).  So each phase is the product over
    i of T[w, i, n_i], from a power table T[w, i, m] = exp(2 pi i ((m P[w, i])
    mod D) / D), m <= max n (only the n_i present, when there are fewer):
    every exp argument is reduced exactly, in int64 when D max n < 2^63 and
    in Python ints (an object array, whose `/` is correctly rounded) above.
    The denominator's sum is the same sum at the row n = (1, ..., 1).

    At a singular mu both sums vanish to order k = singular_order(rs, mu)
    along rho, and their k-th derivatives there weight each term by
    <w(lambda+rho), rho>^k and <w rho, rho>^k, exact ints over one
    denominator before the power; the ratio of those is the limit (at
    k = 0, the plain sums).  Raises OnWallError when the denominator is too
    small to divide by in floating point.
    """
    k = singular_order(rs, mu)
    signs = rs.weyl_array[1]
    pairings, d = _weyl_pairings(rs, mu)
    n = np.vstack([n, np.ones(rs.rank, dtype=n.dtype)])  # the last row, rho, is the denominator's
    top = int(n.max())
    if top < n.size:  # the table holds every power m <= max n
        ms, cols = np.arange(top + 1), n.T
    else:  # or, for a few large weights, only the powers present
        ms, inverse = np.unique(n, return_inverse=True)
        cols = inverse.reshape(n.shape).T
    dtype = np.int64 if d * top < 2**63 else object
    powers = (pairings % d).astype(dtype)[:, :, None] * ms.astype(dtype)
    table = np.exp(2j * np.pi * (powers % d / d).astype(float))
    table[:, 0] *= signs[:, None]  # each term's sign rides on its first factor
    if k:
        rho_pairings, rho_d = _weyl_pairings(rs, rs.rho)
        rho_pairings = rho_pairings.astype(np.int64)
    sums = np.zeros(len(n), dtype=complex)
    for w, row in enumerate(table):
        term = row[0, cols[0]]
        for i in range(1, rs.rank):
            term = term * row[i, cols[i]]
        if k:
            term = term * (n @ rho_pairings[w] / rho_d) ** k
        sums += term
    num, den = sums[:-1], sums[-1]
    if abs(den) < 1e-12 * len(signs):
        raise OnWallError("marking is not regular; character table undefined")
    return num / den


def _weyl_pairings(rs: RootSystem, mu: Vec) -> tuple[np.ndarray, int]:
    """(A, D): A[w, i] = D <w omega_i, mu> as Python ints (an object array)
    for the elements w of `rs.weyl_array` and the fundamental weights
    omega_i, D the least denominator of them all.  The Weyl images of the
    weights are int64 (`RootSystem.int_weights`);
    mu, scaled by its own and paired with the int Gram, is in Python ints."""
    igram, g = rs.int_gram
    d_mu = common_denominator(mu)
    gmu = np.array([sum(map(mul, row, scaled(mu, d_mu))) for row in igram], dtype=object)
    weights, d_w, _ = rs.int_weights
    weights = np.array(weights, dtype=np.int64)
    images = rs.weyl_array[0] @ weights.T  # images[w, :, i] = d_w w omega_i
    pairings = gmu @ images.astype(object)
    d = g * d_w * d_mu
    common = math.gcd(d, *pairings.ravel().tolist())
    return pairings // common, d // common


def character_eval(rs: RootSystem, lam: DominantWeight, mu: Vec) -> CharacterValue:
    """chi_lambda at exp(mu), for mu with exact rational coordinates.

    The condition is "limit-evaluation" exactly when mu is singular.  A
    regular mu so near a wall that the float guard of character_table
    trips raises OnWallError."""
    table = character_table(rs, np.array([lam.coords], dtype=np.int64) + 1, mu)
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


def _box(rs: RootSystem, casimir_cutoff) -> tuple[np.ndarray, np.ndarray]:
    """(g |lambda+rho|^2, coords) for the dominant weights lambda with
    |lambda+rho|^2 <= cutoff, as int64 arrays in lexicographic order of
    the fundamental-weight coordinates.

    g is the common denominator of the fundamental-weight Gram matrix G,
    so the norms are ints.  Every entry of G is positive, so v = lambda +
    rho >= 1 has g |v|^2 >= G_ii v_i^2: the box v_i <= sqrt(limit / G_ii)
    holds every weight.  Its norms sum_i G_ii v_i^2 + 2 sum_(i<j) G_ij v_i v_j
    are made by broadcasting each coordinate's range over the box, and the
    box is filtered by them.
    """
    gram, g = _weight_gram(rs)
    limit = math.floor(Fraction(casimir_cutoff) * g)
    rank = rs.rank
    ranges = [np.arange(1, math.isqrt(max(0, limit) // int(gram[i, i])) + 1).reshape(
        [-1 if k == i else 1 for k in range(rank)]) for i in range(rank)]
    q = sum(int(gram[i, i]) * ranges[i] ** 2 for i in range(rank))
    for i in range(rank):
        for j in range(i + 1, rank):
            q = q + 2 * int(gram[i, j]) * ranges[i] * ranges[j]
    inside = q <= limit
    return q[inside], np.stack(np.nonzero(inside), axis=1)


def _stable_order(q: np.ndarray) -> np.ndarray:
    """argsort(q, kind="stable") for nonnegative int64 q: below 2^31, each
    norm and its index are packed into one int64 key, whose plain sort is
    several times faster than a stable argsort."""
    if not len(q) or q.max() >= 2**31 or len(q) >= 2**32:
        return np.argsort(q, kind="stable")
    keys = (q << 32) | np.arange(len(q))
    keys.sort()
    return keys & 0xFFFFFFFF


def _shifted_norms(rs: RootSystem, casimir_cutoff) -> tuple[np.ndarray, np.ndarray]:
    """(g |lambda+rho|^2, coords) for the dominant weights lambda with
    |lambda+rho|^2 <= cutoff (`_box`), sorted by the norm, ties in
    lexicographic order of the fundamental-weight coordinates."""
    q, v = _box(rs, casimir_cutoff)
    order = _stable_order(q)
    return q[order], v[order]


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
    filtered by the norm holds the list of every smaller cutoff, so the
    first cutoff of the search is read off its norms by counting, whatever
    step the box was built at, and only that cutoff's rows are stably
    sorted by the norm, in lexicographic order.
    """
    c0 = rs.ip(rs.rho, rs.rho) * 4
    norms, weights = _box(rs, c0)
    j = 0
    if len(norms) < count:
        j = _first_step(count, len(norms), rs.rank)
        while len((box := _box(rs, c0 * 2**j))[0]) < count:
            j += 1
        norms, weights = box
    g = _weight_gram(rs)[1]
    for i in range(j + 1):  # the first cutoff with count weights: sort only its list
        inside = norms <= math.floor(c0 * 2**i * g)
        if i == j or np.count_nonzero(inside) >= count:
            break
    if i < j:
        norms, weights = norms[inside], weights[inside]
    return c0 * 2**i, weights[_stable_order(norms)]
