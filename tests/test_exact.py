import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from flatvol.exact import det, inverse, nullspace, pivot_columns, scaled_inverse, solve


def leibniz(m):
    """Reference determinant: the signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def random_matrix(rng, n, fractions):
    if fractions:
        return [[Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
def test_det_matches_leibniz(fractions):
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(20):
            m = random_matrix(rng, n, fractions)
            got = det(m)
            assert got == leibniz(m)
            assert type(got) is (Q if fractions else int)


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
def test_det_singular_and_row_swaps(fractions):
    rng = random.Random(8)
    for n in range(2, 6):
        m = random_matrix(rng, n, fractions)
        m[-1] = [2 * a - b for a, b in zip(m[0], m[-2])]  # dependent row
        assert det(m) == 0 == leibniz(m)
        m = random_matrix(rng, n, fractions)
        for row in m:
            row[0] = 0 * row[0]  # zero column
        assert det(m) == 0
        # zero leading entries force a row swap at every step
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][n - 1 - i] = Q(i + 2, 3) if fractions else i + 2
            for j in range(n - i, n):
                m[i][j] = Q(rng.randint(-9, 9), 5) if fractions else rng.randint(-9, 9)
        assert det(m) == leibniz(m) != 0


def test_det_empty_matrix():
    assert det(()) == 1


def random_echelon_product(rng, nrows, ncols, rank, fractions):
    """(L @ E, pivots): E in row echelon form with `rank` rows whose
    leading entries sit on the columns `pivots`, L a random nonsingular
    matrix.  Row operations keep the pivot columns, so they are the
    pivot columns of the product."""
    pivots = sorted(rng.sample(range(ncols), rank))
    entry = (lambda: Q(rng.randint(-9, 9), rng.randint(1, 7))) if fractions else (
        lambda: rng.randint(-9, 9))
    e = [[0] * ncols for _ in range(nrows)]
    for i, p in enumerate(pivots):
        e[i][p] = rng.choice([-3, -2, -1, 1, 2, 3])
        for j in range(p + 1, ncols):
            e[i][j] = entry()
    while True:
        lower = random_matrix(rng, nrows, fractions)
        if leibniz(lower) != 0:
            break
    product = [[sum(lower[i][k] * e[k][j] for k in range(nrows)) for j in range(ncols)]
               for i in range(nrows)]
    return product, pivots


def shapes():
    """(fractions, nrows, ncols, rank) over int and Fraction matrices up to
    5 x 5, full rank and rank-deficient, 0 x 0 and 1 x 1 included."""
    for fractions in (False, True):
        for nrows in range(6):
            for ncols in range(6):
                for rank in range(min(nrows, ncols) + 1):
                    yield fractions, nrows, ncols, rank


def matvec(a, x):
    return [sum(r * c for r, c in zip(row, x)) for row in a]


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
def test_solve_and_inverse_square(fractions):
    rng = random.Random(9)
    for n in range(6):
        for rank in range(n + 1):
            for _ in range(6):
                a, _ = random_echelon_product(rng, n, n, rank, fractions)
                b = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                x = solve(a, b)
                if rank < n:
                    assert x is None
                    with pytest.raises(ValueError):
                        inverse(a)
                    assert scaled_inverse(a) is None
                    continue
                assert matvec(a, x) == b
                assert all(type(c) is Q for c in x)
                inv = inverse(a)
                assert scaled_inverse(a)[2] == leibniz(a)
                unit = [[int(i == j) for j in range(n)] for i in range(n)]
                assert [matvec(a, col) for col in zip(*inv)] == [list(r) for r in zip(*unit)]
                assert [matvec(inv, col) for col in zip(*a)] == [list(r) for r in zip(*unit)]


def test_pivot_columns_and_nullspace():
    rng = random.Random(10)
    for fractions, nrows, ncols, rank in shapes():
        for _ in range(3):
            a, pivots = random_echelon_product(rng, nrows, ncols, rank, fractions)
            assert pivot_columns(a) == pivots
            basis = nullspace(a, ncols)
            assert len(basis) == ncols - rank
            for x in basis:
                assert matvec(a, x) == [0] * nrows
            # the basis vectors are independent: each has a 1 on its own
            # non-pivot column and 0 on the others
            free = [j for j in range(ncols) if j not in pivots]
            assert [[x[j] for j in free] for x in basis] == [
                [int(i == j) for j in free] for i in free
            ]


def test_solve_one_by_one_and_empty():
    assert solve(((Q(3),),), (Q(2),)) == (Q(2, 3),)
    assert solve(((Q(0),),), (Q(2),)) is None
    assert solve((), ()) == ()
    assert inverse(()) == ()
    assert inverse(((Q(-2, 5),),)) == ((Q(-5, 2),),)
    assert scaled_inverse(((Q(-2, 5),),))[2] == Q(-2, 5)


def integer_matrices(rng):
    """Seeded square int matrices of sizes 1-5, with small entries and with
    entries above 2^63, nonsingular and singular (the last row a
    combination of two others, or zero in size 1)."""
    for n in range(1, 6):
        for hi in (9, 2**70):
            for singular in (False, True):
                for _ in range(4):
                    m = [[rng.randint(-hi, hi) for _ in range(n)] for _ in range(n)]
                    if singular:
                        m[-1] = [2 * a - 3 * b for a, b in zip(m[0], m[-2])] if n > 1 else [0]
                    yield m


def test_integer_rows_give_the_fraction_rows_results(monkeypatch):
    """Rows of ints enter the elimination unchanged: `scaled_inverse`,
    `pivot_columns`, `nullspace` and `solve` give exactly what they give
    for the same matrix written in Fractions, without scaling a row."""
    from flatvol import exact

    rng = random.Random(12)
    cases = []
    for m in integer_matrices(rng):
        n = len(m)
        wide = [row + [rng.randint(-9, 9), rng.randint(-2**70, 2**70)] for row in m]
        b = [rng.randint(-2**70, 2**70) for _ in range(n)]
        cases.append((m, wide, b))

    def results(convert):
        out = []
        for m, wide, b in cases:
            m, wide = ([[convert(x) for x in row] for row in a] for a in (m, wide))
            b = [convert(x) for x in b]
            out.append((scaled_inverse(m), pivot_columns(m), pivot_columns(wide),
                        nullspace(m, len(m)), nullspace(wide, len(wide[0])), solve(m, b)))
        return out

    want = results(Q)
    assert any(r[0] is None for r in want) and any(r[0] is not None for r in want)

    def refuse(*args):
        raise AssertionError("an integer row was scaled")

    monkeypatch.setattr(exact, "scaled", refuse)
    monkeypatch.setattr(exact, "common_denominator", refuse)
    got = results(int)
    assert got == want
    for inv, *_, x in got:
        if inv is not None:
            assert type(inv[2]) is Q and all(type(c) is int for row in inv[0] for c in row)
            assert all(type(c) is Q for c in x)
