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
the entries T_i[w, n_i] of power tables
T_i[w, m] = exp(2 pi i ((m P[w, i]) mod D) / D), one per coordinate over
the values m of the box of coordinate values that holds the weights.  No
weight needs its own exp, and every exp argument is reduced exactly.

At a regular mu the Weyl sum sum_w det(w) prod_i T_i[w, m_i] of every
point m of that box is one complex matrix product L^T R, L and R the
Khatri-Rao products of the first half's and the other half's power
tables, and each weight's sum is gathered from it by its flat index in
the box (`character_tables`); the box is made in blocks, shared by every
marking of a series.  The limit at a singular mu is summed Weyl element
by Weyl element.  A series' weights, norms, Weyl dimensions and
character products come from one call (`series_table`): the norms are
the integers by which the cutoff search sorts the weights, and the
dimensions come from the integer coroot pairings (`_coroot_pairings`),
kept on the root system.
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
    "character_tables",
    "series_table",
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
    the order to which both Weyl sums at mu vanish along rho.  With x = D mu
    in ints and the int Gram (I, g), <alpha, mu> = alpha.(I x) / (g D)."""
    d = common_denominator(mu)
    igram, g = rs.int_gram
    x = scaled(mu, d)
    gmu = [sum(map(mul, row, x)) for row in igram]
    return sum(1 for a in rs.positive_roots if not sum(map(mul, scaled(a, 1), gmu)) % (g * d))


TABLE_ENTRIES = 2**17  # box entries per block of `_box_sums`' product (2 MB of complex)


def character_tables(rs: RootSystem, n: np.ndarray, mus: list[Vec]) -> np.ndarray:
    """chi_lambda(e^mu) for all rows of n, the ints n = lambda + rho in
    fundamental-weight coordinates, and every marking mu of mus: one row
    per marking.

    The phase of a term is exp(2 pi i <w(lambda+rho), mu>), and
    D <w(lambda+rho), mu> = sum_i n_i P[w, i] with P[w, i] = D <w omega_i, mu>
    mod D exact ints (`_weyl_pairings`).  So each phase is the product over
    i of T_i[w, n_i], from a power table T_i[w, m] = exp(2 pi i ((m P[w, i])
    mod D) / D) per coordinate over the values m of the box that holds the
    rows (`_box_axes`, `_power_tables`): every exp argument is reduced
    exactly, in int64 when D max n < 2^63 and in Python ints (an object
    array, whose `/` is correctly rounded) above.  The denominator's sum is
    the same sum at the row n = (1, ..., 1).

    At a regular mu the sums are read off a table over the whole box
    (`_box_sums`): sum_w det(w) prod_i T_i[w, m_i] is, for every m of the
    box at once, one complex matrix product, and the box, each row's place
    in it and its blocks are made once for all the markings.  At a
    singular mu both sums vanish to order k = singular_order(rs, mu) along
    rho, and their k-th derivatives there weight each term by
    <w(lambda+rho), rho>^k and <w rho, rho>^k, exact ints over one
    denominator before the power; the ratio of those, summed Weyl element
    by Weyl element, is the limit.  The rows are expected to fill their
    box, as the series' weights and `character_eval`'s two rows do: a
    few rows far apart in every coordinate make a box of up to rows^rank
    entries.  Raises OnWallError when a denominator is too small to
    divide by in floating point.
    """
    signs = rs.weyl_array[1]
    n = np.vstack([n, np.ones(rs.rank, dtype=n.dtype)])  # the last row, rho, is the denominator's
    values, cols = _box_axes(n)
    sums = np.empty((len(mus), len(n)), dtype=complex)
    boxed = []  # (marking index, power tables) read off the box
    for j, mu in enumerate(mus):
        tables = _power_tables(*_weyl_pairings(rs, mu), values)
        tables[0] *= signs[:, None]  # each term's sign rides on its first factor
        if k := singular_order(rs, mu):
            sums[j] = _weyl_loop(rs, tables, cols, n, k)
        else:
            boxed.append((j, tables))
    if boxed:
        _box_sums([tables for _, tables in boxed], cols, [sums[j] for j, _ in boxed])
    den = sums[:, -1:].copy()
    if (abs(den) < 1e-12 * len(signs)).any():
        raise OnWallError("marking is not regular; character table undefined")
    sums /= den
    return sums[:, :-1]


def _box_axes(n: np.ndarray) -> tuple[list, list]:
    """(values, cols): per coordinate of the rows n, the values m of the box
    that holds them, and each row's index into those.  A coordinate's
    values are its range min..max, or only the values present when that
    range is longer than the rows are many (`character_eval` of one far
    weight builds a few entries, not 10^6)."""
    values, cols = [], []
    for col in n.T:
        lo, top = int(col.min()), int(col.max())
        if top - lo < len(col):
            values.append(np.arange(lo, top + 1))
            cols.append(col - lo)
        else:
            values.append(ms := np.array(sorted(set(col.tolist()))))
            cols.append(np.searchsorted(ms, col))
    return values, cols


def _power_tables(pairings: np.ndarray, d: int, values: list) -> list:
    """T_i[w, m] = exp(2 pi i ((m P[w, i]) mod D) / D) for each coordinate
    i and its box values m, from P = pairings and D = d (`_weyl_pairings`)."""
    tables = []
    for i, ms in enumerate(values):
        dtype = np.int64 if d * int(ms[-1]) < 2**63 else object
        powers = (pairings[:, i] % d).astype(dtype)[:, None] * ms.astype(dtype)
        tables.append(np.exp(2j * np.pi * (powers % d / d).astype(float)))
    return tables


def _weyl_loop(rs: RootSystem, tables: list, cols: list, n: np.ndarray, k: int) -> np.ndarray:
    """sum_w prod_i tables[i][w, cols[i]] for every row, Weyl element by
    Weyl element, each term weighted by <w(lambda+rho), rho>^k (the limit
    along rho, k >= 1)."""
    rho_pairings, rho_d = _weyl_pairings(rs, rs.rho)
    rho_pairings = rho_pairings.astype(np.int64)
    sums = np.zeros(len(n), dtype=complex)
    for w, first in enumerate(tables[0]):
        term = first[cols[0]]
        for table, col in zip(tables[1:], cols[1:]):
            term = term * table[w, col]
        sums += term * (n @ rho_pairings[w] / rho_d) ** k
    return sums


def _box_sums(tables: list[list], cols: list, out: list[np.ndarray]) -> None:
    """out[j][:] = sum_w prod_i tables[j][i][w, cols[i]] for every row and
    each marking j's power tables, over the box of the tables' values.

    With the first h = ceil(rank / 2) coordinates on one side, the box's
    table is L^T R: L[w, a] = prod_(i < h) T_i[w, a_i] and R[w, b] =
    prod_(i >= h) T_i[w, b_i] are the Khatri-Rao products of the two
    sides' tables (`_khatri_rao`), so the Weyl sum of every box entry is
    one complex matrix product, and each row is gathered from the table
    by its flat index in the box.  The table is made in blocks
    (`_box_blocks`), each written into one buffer and its rows gathered
    before the next is made; the blocks are found once for all the
    markings, and one marking's L and R are made at a time.
    """
    count, sizes = len(tables[0][0]), [len(table[0]) for table in tables[0]]
    h = (len(sizes) + 1) // 2
    step, parts = _box_blocks(cols, sizes)
    buffer = np.empty(step * math.prod(sizes[1:]), dtype=complex)

    def fill(first: np.ndarray, rest: list, row: np.ndarray) -> None:
        inner, right = _khatri_rao(rest[:h - 1], count), _khatri_rao(rest[h - 1:], count)
        for lo, rows, index in parts:
            left = (first[:, lo:lo + step, None] * inner[:, None, :]).reshape(count, -1)
            table = np.matmul(left.T, right, out=buffer[:left.shape[1] * right.shape[1]]
                              .reshape(-1, right.shape[1])).ravel()
            if rows is None:  # every index is in range: "clip" writes row unbuffered
                np.take(table, index, out=row, mode="clip")
            else:
                row[rows] = table[index]

    for (first, *rest), row in zip(tables, out):
        fill(first, rest, row)


def _box_blocks(cols: list, sizes: list[int]) -> tuple[int, list]:
    """(step, parts): the box of the given sizes cut into as few blocks of
    step values of the first coordinate as keep a block within
    TABLE_ENTRIES entries (or at one value), and per block (its first
    value, the rows in it, their indices in it); rows None for all of
    them, in one block.  The rows of the blocks come from one sort of the
    rows' block numbers."""
    stride = math.prod(sizes[1:])  # box entries per value of the first coordinate
    flat = cols[0] * stride  # each row's index in the box
    for i, col in enumerate(cols[1:], 1):
        flat += col * math.prod(sizes[i + 1:])
    blocks = min(sizes[0], -(-sizes[0] * stride // TABLE_ENTRIES))
    step = -(-sizes[0] // blocks)
    if blocks == 1:
        return step, [(0, None, flat)]
    numbers = cols[0] // step
    order = np.argsort(numbers)
    ends = np.cumsum(np.bincount(numbers, minlength=blocks)).tolist()
    return step, [(lo, rows, flat[rows] - lo * stride)
                  for lo, start, end in zip(range(0, sizes[0], step), [0, *ends], ends)
                  if len(rows := order[start:end])]


def _khatri_rao(tables: list, count: int) -> np.ndarray:
    """The column-wise Kronecker product of (count, m_i) tables: entry
    [w, (j_1, ..., j_s) flat] is prod_t tables[t][w, j_t]; ones (count, 1)
    for no tables."""
    out = np.ones((count, 1), dtype=complex)
    for table in tables:
        out = (out[:, :, None] * table[:, None, :]).reshape(count, -1)
    return out


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
    regular mu so near a wall that the float guard of character_tables
    trips raises OnWallError."""
    table = character_tables(rs, np.array([lam.coords], dtype=np.int64) + 1, [mu])[0]
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


def _coroot_pairings(rs: RootSystem) -> np.ndarray:
    """C[i, a] = <omega_i, alpha_a^vee> for the fundamental weights omega_i
    and the positive roots alpha_a, in ints (read-only), so that the
    pairings <lambda+rho, alpha^vee> of weights n = lambda + rho in
    fundamental-weight coordinates are n @ C; made once per root system
    and kept on it."""
    if "_coroot_pairings" not in rs.__dict__:
        pairings = np.array([[int(rs.pair_coroot(w, a)) for a in rs.positive_roots]
                             for w in rs.fundamental_weights], dtype=np.int64)
        pairings.setflags(write=False)
        rs._coroot_pairings = pairings
    return rs._coroot_pairings


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


def _cutoff_and_weights(rs: RootSystem, count: int) -> tuple[Fraction, np.ndarray, np.ndarray]:
    """`casimir_cutoff_for_count`'s cutoff and the weight coordinates of
    `_shifted_norms` at it, then their norms g |lambda+rho|^2.

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
    order = _stable_order(norms)
    return c0 * 2**i, weights[order], norms[order]


def series_table(rs: RootSystem, mus: list[Vec], casimir_cutoff=None,
                 weight_count: int | None = None) -> tuple:
    """(cutoff, norms, dims, chars) of the character series over the
    dominant weights lambda in the order of `enumerate_dominant`: the first
    weight_count with |lambda+rho|^2 <= casimir_cutoff, or without a cutoff
    those of the cutoff search for weight_count (2 000 by default).  Per
    weight: |lambda+rho|^2, the sorted ints g |lambda+rho|^2 over g; the
    Weyl dimension, the float product of the quotients <lambda+rho,
    alpha^vee> / <rho, alpha^vee> of int coroot pairings; the product of
    chi_lambda(e^mu) over the markings mus.  Raises ValueError on an empty weight list and
    OnWallError at a marking that is not regular."""
    if casimir_cutoff is None:
        casimir_cutoff, weights, norms = _cutoff_and_weights(rs, weight_count or 2000)
    else:
        norms, weights = _shifted_norms(rs, casimir_cutoff)
    weights, norms = weights[:weight_count], norms[:weight_count]
    if not len(weights):
        raise ValueError("empty weight list; raise the cutoff")
    n = weights + 1  # lambda + rho in fundamental-weight coordinates
    coroots = _coroot_pairings(rs)
    dims = np.prod(coroots.T @ n.T.astype(float) / coroots.sum(axis=0)[:, None], axis=0)
    if any(singular_order(rs, mu) for mu in mus):
        raise OnWallError("marking is not regular; character table undefined")
    chars = np.ones(len(n), dtype=complex)
    for table in character_tables(rs, n, mus):
        chars = chars * table
    return casimir_cutoff, norms / _weight_gram(rs)[1], dims, chars
