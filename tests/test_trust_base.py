"""The shared trust base against closed forms that no route reads.

Every kappa evaluator (the fiber-polytope `density`, the vertex formula
behind `chamber_polynomial_at` and the truncated-power recurrence) reads
the same `VectorConfig`, and all of them lean on `exact`'s elimination,
so a wrong entry there would pass every cross-check between routes.  Here
kappa is read off a vector partition function instead: P_X(y), the number
of n in Z^N_{>=0} with sum_i n_i v_i = y, is counted by a short dynamic
program that shares no code with `kappa` (numpy and `fractions` only).
For y inside a chamber whose fiber polytope has integral vertices,
k -> P_X(k y) is that polytope's Ehrhart polynomial, of degree
d = N - rank, and its leading coefficient is the kappa density T_X(y)
(M. Brion and M. Vergne, J. AMS 10, 1997; De Concini and Procesi,
*Topics in Hyperplane Arrangements*, 2010, ch. 13).  `exact`'s linear
algebra is checked against a Gauss-Jordan elimination in Fractions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

# positive roots in simple-root coordinates, in `liecore`'s order
POSITIVE_ROOTS = {
    "A1": [(1,)],
    "A2": [(0, 1), (1, 0), (1, 1)],
    "B2": [(0, 1), (1, 0), (1, 1), (1, 2)],
    "G2": [(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3)],
    "A3": [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)],
}

CASES = [(g, m) for g in ("A1", "A2", "B2", "G2") for m in (1, 2)] + [("A3", 1)]


def partition_counts(vectors, top) -> np.ndarray:
    """P_X(y) for every integer y in the box [0, top], as Python ints: the
    generating function prod_v 1 / (1 - z^v), each factor taken as
    (1 + z^v)(1 + z^2v)(1 + z^4v)... until the shift leaves the box."""
    table = np.zeros([c + 1 for c in top], dtype=np.int64).astype(object)
    table[(0,) * len(top)] = 1
    for v in vectors:
        step = list(v)
        while all(s <= c for s, c in zip(step, top)):
            source = table[tuple(slice(0, c + 1 - s) for s, c in zip(step, top))].copy()
            table[tuple(slice(s, None) for s in step)] += source
            step = [2 * s for s in step]
    return table


def small_det(m) -> int:
    """The determinant of a small integer matrix, by Laplace expansion."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * small_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def vertex_period(vectors) -> int:
    """The lcm of |det B| over the bases B of the vectors: at y = period * x,
    x integral, every vertex B^-1 y of a fiber polytope is integral."""
    rank = len(vectors[0])
    dets = [abs(small_det([list(col) for col in zip(*basis)]))
            for basis in _subsets(vectors, rank)]
    return math.lcm(*(d for d in dets if d))


def _subsets(items, size):
    if size == 0:
        yield ()
        return
    for i in range(len(items) - size + 1):
        for rest in _subsets(items[i + 1:], size - 1):
            yield (items[i], *rest)


def leading_coefficient(values: list[int], degree: int) -> Fraction:
    """The coefficient of k^degree of the polynomial through (k, values[k]),
    k = 0, 1, ...: its degree-th finite difference over degree!.  The two
    values past degree + 1 must make the next difference vanish."""
    assert len(values) == degree + 3
    diffs = list(values)
    for _ in range(degree):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert diffs[1] == diffs[0] and diffs[2] == diffs[1], "not a polynomial of this degree"
    return Fraction(diffs[0], math.factorial(degree))


def chamber_points(vectors, config) -> list[tuple[int, ...]]:
    """Integer points, one in each chamber met: for rank 2 the sum of each
    two neighbouring rays of the vectors (one per support chamber), for
    rank 1 the point 1, and for rank 3 the off-wall points of the box
    [1, 5]^3, the first of each sign vector."""
    rank = len(vectors[0])
    if rank == 1:
        return [(1,)]
    if rank == 2:
        rays = sorted({(a // math.gcd(a, b), b // math.gcd(a, b)) for a, b in vectors},
                      key=lambda r: math.atan2(r[1], r[0]))
        return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(rays, rays[1:])]
    seen = {}
    for x in np.ndindex(*(5,) * rank):
        point = tuple(c + 1 for c in x)
        signs = config.sign_vector(tuple(Fraction(c) for c in point))
        if 0 not in signs:
            seen.setdefault(signs, point)
    return list(seen.values())


def test_positive_roots_are_liecores():
    from flatvol import build_root_system

    for name, roots in POSITIVE_ROOTS.items():
        assert [tuple(map(int, a)) for a in build_root_system(name).positive_roots] == roots
        assert all(c == int(c) for a in build_root_system(name).positive_roots for c in a)


@pytest.mark.parametrize("name, multiplicity", CASES)
def test_kappa_is_the_partition_functions_leading_coefficient(name, multiplicity):
    """At one integer point per chamber met, scaled so that its fiber
    polytope has integral vertices, the truncated-power recurrence, the
    fiber-polytope volume and the chamber polynomial all equal the leading
    coefficient of k -> P_X(k y)."""
    from flatvol import build_root_system, kappa_build
    from flatvol.poly import poly_eval

    vectors = POSITIVE_ROOTS[name] * multiplicity
    rank, degree = len(vectors[0]), len(vectors) - len(vectors[0])
    spline = kappa_build(build_root_system(name), multiplicity)
    period = vertex_period(vectors)
    points = [tuple(period * c for c in x) for x in chamber_points(vectors, spline.config)]
    assert len({spline.config.sign_vector(tuple(map(Fraction, y))) for y in points}) == len(points)
    steps = degree + 3
    counts = partition_counts(vectors, [max(y[i] for y in points) * (steps - 1)
                                        for i in range(rank)])
    for y in points:
        lead = leading_coefficient([counts[tuple(k * c for c in y)] for k in range(steps)],
                                   degree)
        assert lead > 0
        xi = tuple(map(Fraction, y))
        assert spline.config.truncated_power(xi) == lead, (name, multiplicity, y)
        assert spline.config.density(xi) == lead, (name, multiplicity, y)
        assert poly_eval(spline.chamber_polynomial_at(xi), xi) == lead, (name, multiplicity, y)


def test_partition_counts_by_hand():
    """The counting program on configurations small enough to count by
    hand: A1 x3 (compositions into three parts) and A2."""
    a1 = partition_counts([(1,)] * 3, [6])
    assert a1.tolist() == [math.comb(k + 2, 2) for k in range(7)]
    a2 = partition_counts(POSITIVE_ROOTS["A2"], [3, 2])
    # (a, b) = n2 (1, 0) + n1 (0, 1) + n3 (1, 1): one solution per n3 <= min(a, b)
    assert a2.tolist() == [[min(a, b) + 1 for b in range(3)] for a in range(4)]


# ---------------------------------------------------------------------------
# exact linear algebra against Gauss-Jordan in Fractions
# ---------------------------------------------------------------------------


def gauss_jordan(rows, ncols):
    """(reduced rows, pivot columns, determinant of the first ncols
    columns when they are square) by Gauss-Jordan elimination in
    Fractions, the first nonzero entry at or below the current row as
    pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, det, r = [], Fraction(1), 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots, det if len(rows) == ncols else None


def seeded_matrices(rng, square: bool):
    """Integer matrices of sizes up to 5, of small and of huge entries,
    full rank and rank-deficient."""
    for n in range(1, 6):
        for ncols in ([n] if square else [max(1, n - 1), n + 1]):
            for hi in (9, 2**66):
                for deficient in (False, True):
                    m = [[rng.randint(-hi, hi) for _ in range(ncols)] for _ in range(n)]
                    if deficient:
                        m[-1] = ([3 * a - 2 * b for a, b in zip(m[0], m[-2])] if n > 1
                                 else [0] * ncols)
                    yield m


def test_exact_square_routines_match_gauss_jordan():
    from flatvol.exact import det, inverse, scaled_inverse, solve

    rng = random.Random(2101)
    for m in seeded_matrices(rng, square=True):
        n = len(m)
        b = [rng.randint(-50, 50) for _ in range(n)]
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        reduced, pivots, want_det = gauss_jordan([row + [c] + e for row, c, e in zip(m, b, unit)],
                                                 n)
        assert det(m) == want_det
        if len(pivots) < n:
            assert solve(m, b) is None and scaled_inverse(m) is None
            with pytest.raises(ValueError):
                inverse(m)
            continue
        assert list(solve(m, b)) == [row[n] for row in reduced]
        want_inverse = [row[n + 1:] for row in reduced]
        assert [list(row) for row in inverse(m)] == want_inverse
        rows, e, d = scaled_inverse(m)
        assert e > 0 and d == want_det
        assert [[Fraction(c, e) for c in row] for row in rows] == want_inverse


def test_exact_echelon_routines_match_gauss_jordan():
    from flatvol.exact import nullspace, pivot_columns

    rng = random.Random(2102)
    for m in seeded_matrices(rng, square=False):
        ncols = len(m[0])
        reduced, pivots, _ = gauss_jordan(m, ncols)
        assert pivot_columns(m) == pivots
        free = [f for f in range(ncols) if f not in pivots]
        want = []
        for f in free:
            x = [Fraction(0)] * ncols
            x[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                x[p] = -row[f]
            want.append(x)
        assert [list(x) for x in nullspace(m, ncols)] == want


def test_batched_adjugates_match_gauss_jordan():
    """`adjugates` over stacks of seeded integer matrices, in int64 and on
    Python-int objects, singular ones included: each determinant is the
    Gauss-Jordan one, each adjugate is det times the Gauss-Jordan inverse,
    and a singular matrix times its adjugate is zero."""
    from flatvol.exact import adjugates

    rng = random.Random(2103)
    matrices = [m for _ in range(4) for m in seeded_matrices(rng, square=True)]
    for n in range(1, 6):
        for hi, dtype in ((9, np.int64), (2**66, object)):
            stack = [m for m in matrices
                     if len(m) == n and max(abs(c) for row in m for c in row) <= hi]
            top = max(abs(c) for m in stack for row in m for c in row)
            adj, dets = adjugates(np.array(stack, dtype=dtype), top)
            for m, a, d in zip(stack, adj.tolist(), dets.tolist()):
                unit = [[int(i == j) for j in range(n)] for i in range(n)]
                reduced, pivots, want = gauss_jordan([row + e for row, e in zip(m, unit)], n)
                assert d == want
                if len(pivots) == n:
                    assert [[Fraction(c) for c in row] for row in a] == [
                        [d * c for c in row[n:]] for row in reduced]
                else:
                    assert all(sum(r * c for r, c in zip(row, col)) == 0
                               for row in m for col in zip(*a))
    adj, dets = adjugates(np.zeros((2, 0, 0), dtype=np.int64), 0)
    assert adj.shape == (2, 0, 0) and dets.tolist() == [1, 1]
