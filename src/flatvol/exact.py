"""Exact rational linear algebra on tuples of Fractions.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  All
routines are exact; no floats enter until a caller asks for them.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Q = Fraction
Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def as_q(x) -> Q:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        return Q(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def vec(xs: Iterable) -> Vec:
    return tuple(as_q(x) for x in xs)


def vzero(n: int) -> Vec:
    return (Q(0),) * n


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Q, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Q:
    return sum((a * b for a, b in zip(u, v)), Q(0))


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def mat_t(a: Mat) -> Mat:
    return tuple(zip(*a))


def identity(n: int) -> Mat:
    return tuple(tuple(Q(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def det(a: Sequence[Sequence[Q | int]]) -> Q | int:
    """Determinant by fraction-free (Bareiss) elimination.

    Each row is scaled to integers by the lcm of its denominators, so the
    elimination runs in Python ints and every division in it is exact.
    Rows of ints give an int, rows holding a Fraction give a Fraction.
    """
    n = len(a)
    m = []
    scale = 1
    for row in a:
        s = math.lcm(*(x.denominator for x in row))
        scale *= s
        m.append([x.numerator * (s // x.denominator) for x in row])
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            prev = 0
            break
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top, pk = m[k], m[k][k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - f * top[j]) // prev
        prev = pk
    if all(type(x) is int for row in a for x in row):
        return sign * prev
    return Q(sign * prev, scale)


def solve(a: Mat, b: Vec) -> Vec | None:
    """Solve a @ x = b exactly; None when the system is singular."""
    n = len(a)
    m = [list(row) + [bv] for row, bv in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


def inverse(a: Mat) -> Mat:
    n = len(a)
    cols = []
    for j in range(n):
        e = tuple(Q(1 if i == j else 0) for i in range(n))
        x = solve(a, e)
        if x is None:
            raise ValueError("matrix is singular")
        cols.append(x)
    return tuple(zip(*cols))


def rref(rows: Sequence[Sequence[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(a: Sequence[Sequence[Q]], ncols: int) -> list[Vec]:
    """Basis of {x : a @ x = 0} for a matrix given as rows of length ncols."""
    m, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Q(0)] * ncols
        x[f] = Q(1)
        for i, p in enumerate(pivots):
            x[p] = -m[i][f]
        basis.append(tuple(x))
    return basis


def lattice_points_in_ball(gram: Mat, radius_sq: Q) -> list[Vec]:
    """Integer coefficient vectors n with n^T gram n <= radius_sq.

    gram must be positive definite.  Enumerates an exact bounding box
    |n_i|^2 <= radius_sq * (gram^{-1})_{ii} in lexicographic order and
    filters exactly, in ints: gram is scaled by its common denominator.
    """
    if radius_sq < 0:
        return []
    bounds = [math.isqrt(math.floor(radius_sq * g)) for g in _inverse_diagonal(gram)]
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    igram = [[int(x * scale) for x in row] for row in gram]
    limit = math.floor(radius_sq * scale)
    return [
        vec(n)
        for n in itertools.product(*(range(-b, b + 1) for b in bounds))
        if sum(c * sum(map(operator.mul, row, n)) for c, row in zip(n, igram)) <= limit
    ]


@lru_cache(maxsize=64)
def _inverse_diagonal(gram: Mat) -> Vec:
    """Diagonal of gram^-1; callers pass the few lattice Gram matrices of
    the supported root systems again and again."""
    ginv = inverse(gram)
    return tuple(ginv[i][i] for i in range(len(gram)))


def pairwise_sum(values: Sequence[float]) -> float:
    """Deterministic fixed-order pairwise summation of floats."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]
