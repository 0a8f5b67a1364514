import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from flatvol.exact import det


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
