"""Exact rational linear algebra on tuples of Fractions.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  All
routines are exact; no floats enter until a caller asks for them.

Rationals are put over one denominator by two helpers, used wherever
the package moves to integer arithmetic: `common_denominator` is the lcm
of their denominators, and `scaled` multiplies them by such a multiple
into Python ints.

Every linear-algebra result is read from one fraction-free elimination
(Bareiss's integer-preserving Gaussian elimination, Math. Comp. 22,
1968): each row is scaled to Python ints by the lcm of its denominators
(rows that are already ints, such as the integer root configurations of
`kappa`, enter unchanged, with scale 1), a forward pass with pivot
skipping brings the rows to echelon form with exact integer divisions
only, and a fraction-free back substitution returns the solutions times
the last pivot, for all right-hand columns in one pass.  `det` reads
that pivot, `solve` back-substitutes one right-hand column,
`scaled_inverse` (and `inverse`) eliminates [A | I] once and
back-substitutes the columns of I, `pivot_columns` reads the echelon
form, and `nullspace` back-substitutes one column per non-pivot column.
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


def mat_t(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def common_denominator(xs: Iterable[Q | int]) -> int:
    """The least common denominator of rationals (1 when there are none)."""
    return math.lcm(*(x.denominator for x in xs))


def scaled(xs: Iterable[Q | int], scale: int) -> list[int]:
    """scale * x in ints for each x, scale a multiple of every denominator."""
    return [x.numerator * (scale // x.denominator) for x in xs]


def _int_rows(rows: Iterable[Sequence[Q | int]]) -> tuple[list[list[int]], int]:
    """The rows as lists of ints, and a scale: rows of ints are copied
    unchanged, with scale 1; otherwise each row is scaled to ints by the
    lcm of its denominators, and the scale is the product of those lcms."""
    m = [list(row) for row in rows]
    if all(type(x) is int for row in m for x in row):
        return m, 1
    scale = 1
    for i, row in enumerate(m):
        s = common_denominator(row)
        scale *= s
        m[i] = scaled(row, s)
    return m, scale


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Forward fraction-free (Bareiss) elimination of int rows, in place.

    Pivots are sought in the first ncols columns, left to right, skipping
    a column with no nonzero entry at or below the current row; the rest
    of each row is carried along.  Every division is exact, because each
    entry is a minor of the input (Sylvester's identity), and the pivot of
    pivot row k is the minor on rows 0..k and pivot columns 0..k of the
    permuted input.  Entries below a pivot are left as they were: nothing
    reads them again.  Returns (pivot columns, sign of the row
    permutation, last pivot); the last pivot of a nonsingular square
    matrix is its determinant times that sign.
    """
    nrows = len(m)
    width = len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        pk = top[c]
        rest = range(c + 1, width)
        for row in m[r + 1:]:
            f = row[c]
            for j in rest:
                row[j] = (pk * row[j] - f * top[j]) // prev
        pivots.append(c)
        prev = pk
        r += 1
    return pivots, sign, prev


def _back_substitute(
    m: list[list[int]], pivots: list[int], last: int, rhs: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Fraction-free back substitution on an eliminated system.

    Solves the pivot rows of m for the unknowns on the pivot columns, for
    every right-hand column at once: rhs[i] holds pivot row i's entry of
    each column.  Returns the unknowns times `last`, the last pivot, in
    the same layout (one list per pivot row).  By Cramer's rule those
    products are ints, so every division is exact.
    """
    y: list[list[int]] = [[]] * len(pivots)
    for i in reversed(range(len(pivots))):
        row = m[i]
        s = [last * b for b in rhs[i]]
        for k in range(i + 1, len(pivots)):
            if f := row[pivots[k]]:
                s = [a - f * t for a, t in zip(s, y[k])]
        p = row[pivots[i]]
        y[i] = [a // p for a in s]
    return y


def det(a: Sequence[Sequence[Q | int]]) -> Q | int:
    """Determinant: the last pivot of the fraction-free elimination.

    Rows of ints give an int, rows holding a Fraction give a Fraction.
    """
    ints = all(type(x) is int for row in a for x in row)
    m, scale = _int_rows(a)
    pivots, sign, last = _eliminate(m, len(m))
    d = sign * last if len(pivots) == len(m) else 0
    return d if ints else Q(d, scale)


def solve(a: Mat, b: Vec) -> Vec | None:
    """Solve a @ x = b exactly; None when the system is singular."""
    n = len(a)
    m, _ = _int_rows([*row, bv] for row, bv in zip(a, b))
    pivots, _, last = _eliminate(m, n)
    if len(pivots) < n:
        return None
    return tuple(Q(y, last) for y, in _back_substitute(m, pivots, last, [row[n:] for row in m]))


def scaled_inverse(a: Mat) -> tuple[list[list[int]], int, Q] | None:
    """(N, e, det a) with a^-1 = N / e, N in ints and e > 0, from one
    elimination of [a | I]; None when a is singular."""
    n = len(a)
    m, scale = _int_rows([*row, *(0,) * i, 1, *(0,) * (n - 1 - i)] for i, row in enumerate(a))
    pivots, sign, last = _eliminate(m, n)
    if len(pivots) < n:
        return None
    flip = -1 if last < 0 else 1
    # scaled by e = |last| in place of last, the solutions are e a^-1
    rows = _back_substitute(m, pivots, flip * last, [row[n:] for row in m])
    return rows, flip * last, Q(sign * last, scale)


def inverse(a: Mat) -> Mat:
    """a^-1; ValueError when a is singular."""
    result = scaled_inverse(a)
    if result is None:
        raise ValueError("matrix is singular")
    rows, e, _ = result
    return tuple(tuple(Q(x, e) for x in row) for row in rows)


def pivot_columns(rows: Sequence[Sequence[Q | int]]) -> list[int]:
    """Indices of the pivot columns of the row echelon form of a matrix."""
    m, _ = _int_rows(rows)
    return _eliminate(m, len(m[0]) if m else 0)[0]


def nullspace(a: Sequence[Sequence[Q]], ncols: int) -> list[Vec]:
    """Basis of {x : a @ x = 0} for a matrix given as rows of length ncols:
    one vector per non-pivot column f, with x_f = 1 and the other
    non-pivot entries 0."""
    m, _ = _int_rows(a)
    pivots, _, last = _eliminate(m, ncols)
    free = [f for f in range(ncols) if f not in pivots]
    y = _back_substitute(m, pivots, last, [[-row[f] for f in free] for row in m])
    basis = []
    for k, f in enumerate(free):
        x = [Q(0)] * ncols
        x[f] = Q(1)
        for p, yp in zip(pivots, y):
            x[p] = Q(yp[k], last)
        basis.append(tuple(x))
    return basis


def int_bilinear(igram: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    """x^T igram y for an integer form and int vectors."""
    return sum(c * sum(map(operator.mul, row, y)) for c, row in zip(x, igram))


def lattice_points_in_ball(gram: Mat, radius_sq: Q) -> list[tuple[int, ...]]:
    """Integer coefficient vectors n with n^T gram n <= radius_sq, as int
    tuples.

    gram must be positive definite.  Enumerates an exact bounding box
    |n_i|^2 <= radius_sq * (gram^{-1})_{ii} in lexicographic order and
    filters exactly, in ints: gram is scaled by its common denominator.
    """
    if radius_sq < 0:
        return []
    ginv = inverse(gram)
    bounds = [math.isqrt(math.floor(radius_sq * ginv[i][i])) for i in range(len(gram))]
    igram, scale = _int_form(gram)
    limit = math.floor(radius_sq * scale)
    return [n for n in itertools.product(*(range(-b, b + 1) for b in bounds))
            if int_bilinear(igram, n, n) <= limit]


@lru_cache(maxsize=64)
def _int_form(gram: Mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(gram scaled to ints by its common denominator, that denominator);
    callers pass the few Gram matrices of the supported root systems again
    and again."""
    scale = common_denominator(itertools.chain.from_iterable(gram))
    return tuple(tuple(scaled(row, scale)) for row in gram), scale
