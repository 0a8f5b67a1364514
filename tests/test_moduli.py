import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

from flatvol import (
    ConvergenceError,
    GroupSpec,
    Marking,
    OnWallError,
    RootSystem,
    Surface,
    SymmetricPoly,
    UnsupportedDecompositionError,
    alcove_membership,
    build_root_system,
    conjugacy_volume,
    enumerate_dominant,
    glue_volume,
    mixed_characteristic_number,
    moduli_dimension,
    pants_volume_kappa,
    pants_volume_poly,
    sphere_volume_kappa,
    star,
    toric_decomposition,
    vec,
    volume_G,
    witten_volume,
)
from flatvol.characters import casimir_cutoff_for_count
from flatvol.exact import common_denominator, det, lattice_points_in_ball, scaled, vadd, vscale, vsub
from flatvol.kappa import PiecewisePolynomial, VectorConfig, kappa_build, kappa_point, pullback_operator
from flatvol import gluing, liecore, moduli
from flatvol.cli import _line_rows
from flatvol.moduli import _kappa_arguments, _moments, _scaled, _support_radius
from flatvol.poly import poly_add, poly_eval, poly_shift, poly_subs_affine
from flatvol.exact import nullspace
from flatvol.liecore import _SUPPORTED

from conftest import (
    ORACLE_FORBIDDEN, SERIES_FORBIDDEN, coroot_vector, forbid, rational_alcove_point,
    rational_triple,
)


def t_mu(rs, t):
    return rs.from_weight_coords(vec([Q(t)]))


def support_ball(rs, mus):
    """The lattice ball that `sphere_volume_kappa` sums for the markings
    mus: the last one's, at the support bound of the others."""
    return rs.coroot_balls([_scaled(mus[-1:])], _support_radius(rs, _scaled(mus[:-1])))[0]


def test_moduli_dimension(a1, a2, b2):
    assert moduli_dimension(a1, Surface(0, 3)) == 0
    assert moduli_dimension(a2, Surface(0, 3)) == 1
    assert moduli_dimension(b2, Surface(0, 3)) == 2
    with pytest.raises(ValueError):
        moduli_dimension(a1, Surface(1, 1))


def test_a1_region_dichotomy(a1):
    # positive constant on the admissible region, zero outside
    inside = [("1/2", "1/2", "1/2"), ("2/5", "1/2", "3/5"), ("1/4", "1/2", "2/3")]
    outside = [("1/10", "1/10", "4/5"), ("1/10", "4/5", "1/10"), ("9/10", "9/10", "9/10")]
    vals = set()
    for ts in inside:
        rep = pants_volume_kappa(a1, *(t_mu(a1, t) for t in ts))
        vals.add(rep.exact["rational"])
        assert rep.value > 0
    assert len(vals) == 1
    for ts in outside:
        rep = pants_volume_kappa(a1, *(t_mu(a1, t) for t in ts))
        assert rep.exact["rational"] == 0


def test_a1_wall_error_for_degree_zero(a1):
    with pytest.raises(OnWallError):
        pants_volume_kappa(a1, t_mu(a1, "1/2"), t_mu(a1, "1/4"), t_mu(a1, "1/4"))


@pytest.mark.parametrize("ts", [("0", "1/3", "1/3"), ("1", "1/3", "2/3")])
def test_a1_wall_error_survives_cancellation(a1, ts):
    """The on-wall argument's merged coefficient cancels to zero here; the
    degree-0 wall error must still be raised, at the first such argument."""
    mus = [t_mu(a1, t) for t in ts]
    message = "on-wall evaluation at (Fraction(0, 1),) for a degree-0 spline"
    with pytest.raises(OnWallError, match=re.escape(message)):
        sphere_volume_kappa(a1, mus)
    with pytest.raises(OnWallError, match=re.escape(message)):
        pants_volume_poly(a1, mus[0], mus[1]).value_exact(mus[2])


def reference_groups(rs, mus, support_only):
    """The kappa-sum term by term, grouped by lattice vector: for each l
    of the centred ball |l|^2 <= R = 2 |mu_b|^2 + 2 r, in
    `lattice_points_in_ball` order, whether it lies in the support ball
    |mu_b + l|^2 <= r (r = (b - 1) sum_{j<b} |mu_j|^2, read in Fractions),
    the sum of sign * value_exact over the Weyl tuples, and how many of
    those arguments are nonnegative and on a chamber wall.  With
    support_only the points outside the support ball are skipped, so
    nothing is evaluated there."""
    spline = kappa_build(rs, len(mus) - 2)
    bound_sq = (len(mus) - 1) * sum(rs.norm_sq(m) for m in mus[:-1])
    radius_sq = 2 * rs.norm_sq(mus[-1]) + 2 * bound_sq
    rows = [[(w.sign, w.act(m)) for w in rs.weyl_elements()] for m in mus[:-1]]
    for coeffs in lattice_points_in_ball(rs.coroot_gram, radius_sq):
        tail = vadd(mus[-1], coroot_vector(rs, coeffs))
        inside = rs.norm_sq(tail) <= bound_sq
        if support_only and not inside:
            continue
        group, on_wall = Q(0), 0
        for choice in itertools.product(*rows):
            arg, sign = tail, 1
            for s, img in choice:
                arg, sign = vadd(arg, img), sign * s
            on_wall += min(arg) >= 0 and spline.on_wall(arg)
            group += sign * spline.value_exact(arg)
        yield coeffs, inside, group, on_wall


def reference_kappa_sum(rs, mus, ball="centred"):
    """The kappa-sum term by term over the centred ball (ball="centred"),
    or over the support ball that sphere_volume_kappa sums, in its term
    order (ball="support"); also returns how many nonnegative arguments
    lie on a chamber wall."""
    groups = list(reference_groups(rs, mus, ball == "support"))
    total = sum((group for _, _, group, _ in groups), Q(0))
    return (-1) ** rs.n_positive * rs.center_order * total, sum(w for *_, w in groups)


# common denominators above 2^63 (the products of the primes 4294967311 and
# 4294967357 with small ones): the kappa-sum's object-dtype arrays.  The A1
# markings are so small that the only lattice vector is zero, so the scale
# alone must send the sum to object arrays.
HUGE_DENOMINATORS = [
    ("A1", ["1/4294967311", "1/4294967357", "1/4294967357"], False),
    ("A2", ["1431655775/4294967311,1/3", "1/3,2/7", "2/7,1431655792/4294967357"], False),
    ("G2", ["715827886/4294967311,1/2", "1/6,7/12", "1/6,715827894/4294967357"], False),
]
# the one rank-3 case: seven walls packed into each chamber code
A3_TRIPLE = ("A3", ["1/4,1/5,1/6", "1/6,1/5,1/4", "1/5,1/6,1/4"], False)
# prime denominators, as in the bench's triples: the chamber moments
# overflow int64 and are rebuilt from residues (`_moments`)
PRIME_G2 = ("G2", ["1/37,1/41", "1/43,1/47", "2/53,1/59"], False)


@pytest.mark.parametrize(
    "name, marks, hits_walls",
    [
        ("A2", ["1/4,1/5", "1/3,1/7", "2/7,1/6"], False),
        ("A2", ["1/2,1/2", "1/4,1/5", "1/5,1/4"], True),
        ("A2", ["1/4,1/4", "1/4,1/4", "1/4,1/4"], True),
        ("B2", ["1/4,1/5", "1/3,1/7", "1/7,1/6"], False),
        ("B2", ["1/4,1/4", "1/4,1/4", "1/2,0"], True),
        ("G2", ["1/9,1/11", "1/10,1/12", "1/8,1/13"], False),
        ("G2", ["1/8,1/8", "1/8,1/8", "1/8,1/8"], True),
        ("B2", ["1/4,1/5", "0,1/3", "1/3,1/7", "1/5,1/4"], True),
        ("B2", ["1/4,1/4", "1/4,1/4", "1/4,1/4", "1/4,1/4"], True),
        ("A2", ["1/3,1/3", "1/4,1/5", "0,1/2", "1/3,1/7", "1/5,1/4"], False),
        ("A2", ["1/3,1/3", "1/3,1/3", "1/3,1/3", "1/3,1/3", "1/3,1/3"], True),
        *HUGE_DENOMINATORS,
        A3_TRIPLE,
        PRIME_G2,
    ],
)
def test_kappa_sum_matches_term_by_term_reference(name, marks, hits_walls):
    """Markings on alcove walls, and repeated markings, put kappa arguments
    on chamber walls, where the value comes from closure continuity."""
    rs = build_root_system(name)
    mus = [rs.from_weight_coords(vec(m.split(","))) for m in marks]
    expect, on_wall = reference_kappa_sum(rs, mus)
    assert sphere_volume_kappa(rs, mus).exact["rational"] == expect
    if hits_walls:
        assert on_wall > 0


@pytest.mark.parametrize(
    "name, marks",
    [
        ("B2", ["1/4,1/4", "1/4,1/4", "1/2,0"]),
        ("G2", ["1/8,1/8", "1/8,1/8", "1/8,1/8"]),
        ("A2", ["0,1/2", "1/2,0", "1/4,1/4", "1/4,1/4", "1/3,1/3"]),
        *((name, marks) for name, marks, _ in HUGE_DENOMINATORS),
        A3_TRIPLE[:2],
        # a chamber first met at an argument whose merged coefficient is zero
        ("B2", ["1/8,1/2", "1/2,11/40", "17/40,9/40", "5/8,13/40"]),
        PRIME_G2[:2],
    ],
)
def test_kappa_sum_builds_chambers_in_term_order(name, marks):
    """On a fresh root system the engine builds the same chambers, with the
    same sample points and in the same order, as the term-by-term sum, so
    a dump of the chambers (`to_json_dict`) after either is the same."""
    built = []
    for evaluate in (sphere_volume_kappa, lambda rs, mus: reference_kappa_sum(rs, mus, "support")):
        rs = RootSystem(GroupSpec.parse(name))
        mus = [rs.from_weight_coords(vec(m.split(","))) for m in marks]
        evaluate(rs, mus)
        chambers = kappa_build(rs, len(mus) - 2).chambers.values()
        built.append([(c.signs, c.sample_point) for c in chambers])
    assert built[0] == built[1]


# markings whose centred ball holds points outside the support ball: A1,
# every simple type of rank 2, A3 and C3, multiplicities 1 to 3, markings on
# alcove walls and huge denominators (of those, the A1 ball holds the
# origin alone)
SUPPORT_CASES = [
    ("A1", ["9/10", "4/5", "5/7"]),
    ("A1", ["1/2", "3/7", "1/3", "9/10"]),
    ("A1", ["1/2", "3/7", "1/3", "2/5", "9/10"]),
    ("A2", ["1/2,1/2", "1/4,1/5", "1/5,1/4"]),
    ("A2", ["1/3,1/3", "1/4,1/5", "0,1/2", "1/3,1/7", "1/5,1/4"]),
    ("B2", ["1/3,1/3", "1/5,1/2", "1/2,0"]),
    ("B2", ["1/4,1/5", "0,1/3", "1/3,1/7", "1/5,1/4"]),
    ("C2", ["1,0", "1/4,1/4", "1/3,1/7"]),
    ("C2", ["1/3,1/3", "1/4,1/4", "1/2,1/7"]),
    ("G2", ["1/3,1/4", "1/5,1/3", "1/6,1/3"]),
    ("G2", ["0,1/2", "1/5,1/4", "1/3,1/6", "1/5,1/3"]),
    *((name, marks) for name, marks, _ in HUGE_DENOMINATORS[1:]),
    A3_TRIPLE[:2],
    ("A3", ["1/2,0,1/2", "1/4,1/5,1/6", "1/3,1/6,1/5"]),
    ("C3", ["0,0,1", "1/4,1/4,1/4", "1/5,1/6,1/3"]),
]


@pytest.mark.parametrize("name, marks", SUPPORT_CASES)
def test_points_outside_the_support_ball_cancel(name, marks):
    """At every point l of the centred ball outside the support ball
    |mu_b + l|^2 <= r, the terms over all Weyl tuples sum to exactly 0,
    so summing the support ball alone gives the centred ball's rational;
    the kappa-sum sums exactly the support ball's points, in table order,
    as int64 rows also where its test runs on Python ints."""
    rs = build_root_system(name)
    mus = [rs.from_weight_coords(vec(m.split(","))) for m in marks]
    assert all(alcove_membership(rs, m)[0] != "outside" for m in mus)
    groups = list(reference_groups(rs, mus, support_only=False))
    assert all(group == 0 for _, inside, group, _ in groups if not inside)
    report = sphere_volume_kappa(rs, mus)
    kept = [list(coroot_vector(rs, coeffs)) for coeffs, inside, _, _ in groups if inside]
    ball = support_ball(rs, mus)
    assert ball.dtype == np.int64 and ball.tolist() == kept
    assert report.parameters["lattice_points"] == len(kept)
    total = sum(group for _, _, group, _ in groups)
    assert report.exact["rational"] == (-1) ** rs.n_positive * rs.center_order * total
    assert len(kept) < len(groups)


# markings whose support ball holds no lattice point: G2's chosen by hand,
# the others found once by a seeded search (random.Random("empty-support-ball-"
# + group): weight coordinates 1/p of the fixed pair, p a prime from 37 to
# 73, and a third of small denominators) and pinned here
EMPTY_BALLS = {
    "A1": ("1/59", "1/61", "1/11"),
    "A2": ("1/43,1/41", "1/67,1/41", "1/13,1/9"),
    "B2": ("1/47,1/61", "1/67,1/37", "1/4,3/13"),
    "G2": ("1/37,1/41", "1/43,1/47", "1/7,1/9"),
    "A3": ("1/67,1/37,1/43", "1/59,1/53,1/37", "2/9,1/3,1/7"),
}


def test_empty_support_ball():
    """A support ball can hold no lattice point at all: then nothing is
    summed, no chamber is built, and the volume is 0, as the centred ball's
    terms give; alone or twice in one batched pass."""
    for name, marks in EMPTY_BALLS.items():
        rs = RootSystem(GroupSpec.parse(name))
        mus = [rs.from_weight_coords(vec(m.split(","))) for m in marks]
        assert not len(support_ball(rs, mus)), name
        report = sphere_volume_kappa(rs, mus)
        assert (report.exact["rational"], report.parameters["lattice_points"]) == (0, 0), name
        assert moduli.pants_volumes_exact(rs, *mus[:2], [mus[2], mus[2]]) == [0, 0], name
        assert not kappa_build(rs).chambers, name
        assert reference_kappa_sum(rs, mus)[0] == 0, name


# (group, mu1, mu2, the third markings of one batched pass): A1 rows on a
# wall of the degree-0 spline, rows of different denominators (so
# different scales D_j), a row that needs object arrays beside small ones,
# prime denominators whose moments overflow int64, rank 3, and empty
# support balls between rows whose balls hold points
BATCHES = [
    ("A1", "1/2", "1/2", [str(Q(j, 8)) for j in range(9)]),
    ("A1", "1/2", "1/4", ["0", "1/4", "1/3", "1/2", "3/4", "1"]),
    ("A2", "1/4,1/5", "1/3,1/7", ["2/7,1/6", "1/5,1/9", "1/11,1/3", "1/4,1/4", "0,1/2"]),
    ("B2", "1/4,1/4", "1/4,1/4", ["0,0", "1/10,0", "1/4,0", "1/2,0"]),
    ("A2", *HUGE_DENOMINATORS[1][1][:2], [HUGE_DENOMINATORS[1][1][2], "1/5,1/5"]),
    ("G2", *PRIME_G2[1][:2], [PRIME_G2[1][2], "1/7,1/9", "1/8,1/13"]),
    ("A3", *A3_TRIPLE[1][:2], [A3_TRIPLE[1][2], "1/9,1/8,1/7"]),
    ("A1", *EMPTY_BALLS["A1"][:2], ["1/79", "1/11", "1/83", "1/11", "1/89"]),
    ("A2", *EMPTY_BALLS["A2"][:2], ["1/29,1/31", "1/13,1/9", "1/31,1/37", "1/13,1/9", "1/37,1/29"]),
    ("B2", *EMPTY_BALLS["B2"][:2], ["1/29,1/31", "1/4,3/13", "1/31,1/37", "1/4,3/13", "1/37,1/29"]),
    ("G2", *EMPTY_BALLS["G2"][:2], ["1/59,1/61", "1/7,1/9", "1/61,1/67", "1/7,1/9", "1/67,1/71"]),
]


def batch_markings(rs, m1, m2, lasts):
    return [rs.from_weight_coords(vec(m.split(","))) for m in (m1, m2, *lasts)]


@pytest.mark.parametrize("name, m1, m2, lasts", BATCHES)
def test_batched_sums_match_term_by_term_reference(name, m1, m2, lasts):
    """Each sum of one batched pass over several third markings equals the
    term-by-term sum of its own; a degree-0 wall gives None for its row
    alone, where the term-by-term sum raises."""
    rs = build_root_system(name)
    mu1, mu2, *mu3s = batch_markings(rs, m1, m2, lasts)
    expect = []
    for mu3 in mu3s:
        try:
            expect.append(reference_kappa_sum(rs, [mu1, mu2, mu3])[0])
        except OnWallError:
            expect.append(None)
    assert moduli.pants_volumes_exact(rs, mu1, mu2, mu3s) == expect
    if name == "A1" and m2 == "1/2":
        assert expect[0] is expect[-1] is None and None not in expect[1:-1]


@pytest.mark.parametrize("name, m1, m2, lasts", BATCHES)
def test_batched_sums_build_chambers_as_the_row_loop(name, m1, m2, lasts):
    """On a fresh root system one batched pass builds the same chambers,
    at the same sample points and in the same order, as the term-by-term
    sum of each row in turn, so a scan leaves the chambers, in their
    order, that row-by-row volumes leave."""
    built = []
    for batched in (True, False):
        rs = RootSystem(GroupSpec.parse(name))
        mu1, mu2, *mu3s = batch_markings(rs, m1, m2, lasts)
        if batched:
            moduli.pants_volumes_exact(rs, mu1, mu2, mu3s)
        for mu3 in mu3s if not batched else ():
            try:
                reference_kappa_sum(rs, [mu1, mu2, mu3], "support")
            except OnWallError:
                pass
        built.append([(c.signs, c.sample_point) for c in kappa_build(rs).chambers.values()])
    assert built[0] == built[1]


@pytest.mark.parametrize("name, m1, m2, lasts", BATCHES)
def test_batched_sums_read_each_rows_own_ball(name, m1, m2, lasts, monkeypatch):
    """The rows of a batch take the fixed pair's support bound once, and
    each row's lattice ball is still the one `RootSystem.coroot_balls`
    gives its own three markings."""
    rs = build_root_system(name)
    mu1, mu2, *mu3s = batch_markings(rs, m1, m2, lasts)
    balls = []
    engine = moduli._kappa_sums
    monkeypatch.setattr(moduli, "_kappa_sums", lambda spline, rs, fixed, lasts, lattices, op:
                        balls.extend(lattices) or engine(spline, rs, fixed, lasts, lattices, op))
    moduli.pants_volumes_exact(rs, mu1, mu2, mu3s)
    assert len(balls) == len(mu3s)
    for ball, mu3 in zip(balls, mu3s):
        assert np.array_equal(ball, support_ball(rs, [mu1, mu2, mu3]))


@pytest.mark.parametrize("name, m1, m2, lasts", [BATCHES[0], BATCHES[2], BATCHES[5]])
@pytest.mark.parametrize("per_pass", [1, 2])
def test_batched_sums_split_into_bounded_passes(name, m1, m2, lasts, per_pass, monkeypatch):
    """`pants_volumes_exact` takes its markings in consecutive passes of
    at most MOMENT_ROWS argument rows, or of one marking whose rows alone
    exceed it, each as large as the bound allows: below the smallest rows
    of a marking that has rows, no pass holds two markings with rows (a
    marking whose support ball is empty has none, and takes no room), at
    twice the largest every pass but the last holds two or more.  The
    values and the chambers built, in order, are those of one pass over
    all the markings."""
    rs = RootSystem(GroupSpec.parse(name))
    mu1, mu2, *mu3s = batch_markings(rs, m1, m2, lasts)
    tuples = len(rs.weyl_array[0]) ** 2
    rows = [len(support_ball(rs, [mu1, mu2, mu3])) * tuples for mu3 in mu3s]
    one_pass = moduli.pants_volumes_exact(rs, mu1, mu2, mu3s)
    built = [(c.signs, c.sample_point) for c in kappa_build(rs).chambers.values()]

    cap = min(r for r in rows if r) - 1 if per_pass == 1 else 2 * max(rows)
    monkeypatch.setattr(moduli, "MOMENT_ROWS", cap)
    passes = []
    engine = moduli._kappa_sums
    monkeypatch.setattr(moduli, "_kappa_sums", lambda spline, rs, fixed, lasts, lattices, op:
                        passes.append(len(lasts)) or engine(spline, rs, fixed, lasts, lattices, op))
    rs = RootSystem(GroupSpec.parse(name))
    mu1, mu2, *mu3s = batch_markings(rs, m1, m2, lasts)
    assert moduli.pants_volumes_exact(rs, mu1, mu2, mu3s) == one_pass
    assert [(c.signs, c.sample_point) for c in kappa_build(rs).chambers.values()] == built
    assert sum(passes) == len(mu3s)
    ends = list(itertools.accumulate(passes))
    for lo, hi in zip([0, *ends], ends):
        assert hi - lo == 1 or sum(rows[lo:hi]) <= cap
        assert hi == len(mu3s) or sum(rows[lo:hi + 1]) > cap
    if per_pass == 1:
        assert all(np.count_nonzero(rows[lo:hi]) <= 1 for lo, hi in zip([0, *ends], ends))
    else:
        assert min(passes[:-1], default=2) >= 2 and len(passes) < len(mu3s)


def brute_support_ball(rs, mu, radius_sq):
    """The support ball by brute force: the centred ball |l|^2 <= 2 |mu|^2 +
    2 r of `lattice_points_in_ball`, kept where |mu + l|^2 <= r in
    Fractions, in its order."""
    centred = lattice_points_in_ball(rs.coroot_gram, 2 * rs.norm_sq(mu) + 2 * radius_sq)
    vectors = (coroot_vector(rs, coeffs) for coeffs in centred)
    return [list(l) for l in vectors if rs.norm_sq(vadd(mu, l)) <= radius_sq]


def one_marking_ball(rs, last, radius_sq):
    """The support ball of one marking (D, [x]) by its own product with
    the lattice table, one marking a call: the reference a batch of one
    must reproduce, array for array."""
    scale, (x,) = last
    igram, g = rs.int_gram
    ix = [sum(a * b for a, b in zip(row, x)) for row in igram]
    xix, n, d = sum(a * b for a, b in zip(x, ix)), radius_sq.numerator, radius_sq.denominator
    rows, width = rs.coroot_table((2 * xix * d + 2 * g * n * scale * scale) // (scale * scale * d))
    weights = [*(2 * scale * c for c in ix), scale * scale]
    limit = g * scale * scale * n // d - xix
    bound = max(1, width) * sum(map(abs, weights))
    dtype = np.int64 if bound < 2**62 else object
    lhs = rows.astype(dtype, copy=False) @ np.array(weights, dtype=dtype)
    return rows[lhs <= max(limit, -bound), :-1]


# (group, mu1, mu2, the last markings of one batch): A1 rows on the walls
# of the degree-0 spline, a row of denominator 2^61 - 1 whose test needs
# Python ints among rows that fit int64, and longer rank-2 and rank-3 lines
BALL_BATCHES = [
    BATCHES[0],
    ("A2", "1/2,1/2", "1,0", ["2/7,1/6", f"1/{2**61 - 1},1/3", "1/5,1/9", "0,1/2", "1/4,1/4"]),
    ("B2", "0,1", "1/2,1/2", [f"{Q(j, 40)},{Q(j, 80)}" for j in range(21)]),
    ("G2", "1/3,1/4", "1/5,1/3", [f"{Q(j, 30)},{Q(1, 7)}" for j in range(11)]),
    ("A3", "1/2,0,1/2", "1/4,1/4,1/4", ["1/9,1/8,1/7", "1/4,1/5,1/6", "0,0,0", "1/2,0,1/2"]),
]


@pytest.mark.parametrize("name, m1, m2, lasts", BALL_BATCHES)
def test_batched_balls_match_the_support_ball(name, m1, m2, lasts, monkeypatch):
    """The balls of one batch (`RootSystem.coroot_balls`) are the support
    balls |mu_b + l|^2 <= r found by brute
    force, as int64 rows, whether the batch is one column block, blocks of
    three markings (rows on both sides of a block boundary) or one block a
    marking; a batch of one marking gives exactly the array of its own
    product with the table."""
    rs = build_root_system(name)
    mu1, mu2, *mu3s = batch_markings(rs, m1, m2, lasts)
    radius_sq = _support_radius(rs, _scaled([mu1, mu2]))
    points = [_scaled([mu3]) for mu3 in mu3s]
    expect = [brute_support_ball(rs, mu3, radius_sq) for mu3 in mu3s]
    assert all(expect) and (name != "A2" or points[1][0] % (2**61 - 1) == 0)
    table = len(rs.coroot_balls(points, radius_sq) and rs.coroot_table(0)[0])
    for entries in (liecore.BALL_ENTRIES, 3 * table + 1, 1):
        monkeypatch.setattr(liecore, "BALL_ENTRIES", entries)
        balls = rs.coroot_balls(points, radius_sq)
        assert [ball.tolist() for ball in balls] == expect, entries
        assert all(ball.dtype == np.int64 and ball.shape[1:] == (rs.rank,) for ball in balls)
    for point in points:
        (ball,) = rs.coroot_balls([point], radius_sq)
        single = one_marking_ball(rs, point, radius_sq)
        assert ball.dtype == single.dtype and ball.shape == single.shape
        assert np.array_equal(ball, single)


def test_scan_rows_read_the_lattice_table_once(monkeypatch):
    """A 2 001-row `_sphere_sums`, its rows placed in ints as a 2 000-step
    `scan` places them (`cli._line_rows`), reads the lattice table once
    for all its column blocks, not once a row, and gives each row the
    rational of its own `pants_volume_kappa`."""
    rs = RootSystem(GroupSpec.parse("B2"))
    mu1, mu2, start, end = batch_markings(rs, "1/4,1/5", "1/3,1/7", ["0,0", "1/2,1/4"])
    lines = _line_rows(start, end, 2000)
    calls = []
    table = RootSystem.coroot_table
    monkeypatch.setattr(RootSystem, "coroot_table",
                        lambda self, limit: calls.append(limit) or table(self, limit))
    monkeypatch.setattr(liecore, "BALL_ENTRIES", 4096)
    values = moduli._sphere_sums(rs, [mu1, mu2], lines)[0]
    step = liecore.BALL_ENTRIES // len(table(rs, 0)[0])
    assert len(values) == 2001 and 1 <= step and len(calls) == 1 < -(-2001 // step)
    for j in (0, 377, 2000):
        (den, (x,)) = lines[j]
        mu3 = tuple(Q(c, den) for c in x)
        assert values[j] == pants_volume_kappa(rs, mu1, mu2, mu3).exact["rational"]


@pytest.mark.parametrize("name, marks, dtype", [
    *((name, marks, object) for name, marks, _ in HUGE_DENOMINATORS),
    (*A3_TRIPLE[:2], np.int64),
])
def test_kappa_arguments_dtype(name, marks, dtype):
    """The argument arrays hold Python ints exactly when int64 could
    overflow."""
    rs = build_root_system(name)
    mus = [rs.from_weight_coords(vec(m.split(","))) for m in marks]
    args, coefs, _, _ = _kappa_arguments(rs, kappa_build(rs).config, _scaled(mus[:-1]),
                                         [_scaled(mus[-1:])], [support_ball(rs, mus)])
    assert args.dtype == coefs.dtype == dtype
    assert all(type(x) is int for x in args[0].tolist())


def python_moments(points, coefs, starts, exponents):
    """The moments of `_moments`, summed term by term in Python ints."""
    ends = [*starts[1:], len(points)]
    return [[sum(c * math.prod(x**e for x, e in zip(p, m))
                 for p, c in zip(points[lo:hi], coefs[lo:hi]))
             for m in exponents]
            for lo, hi in zip(starts, ends)]


def group_prime_count(points, coefs, starts, exponents, crt_basis):
    """The number of primes that the per-group bound asks for: the least k
    whose moduli's product exceeds twice the largest
    max(1, max|x|_g)^t sum_g|coef| over the groups g (t the largest
    degree, max|x|_g and sum_g over the group's rows)."""
    top = max(map(sum, exponents), default=0)
    ends = [*starts[1:], len(points)]
    bound = max((max([1, *(abs(v) for p in points[lo:hi] for v in p)]) ** top
                 * sum(map(abs, coefs[lo:hi])) for lo, hi in zip(starts, ends)), default=0)
    return next(k for k in itertools.count() if crt_basis(k)[1] > 2 * bound)


@pytest.mark.parametrize("bits, step, dtype", [
    (30, 0, np.int64), (62, 0, np.int64), (63, 0, np.int64), (63, 1, np.int64),
    (160, 0, np.int64), (30, 0, object), (400, 0, object),
])
def test_moments_match_python_ints(bits, step, dtype, monkeypatch):
    """`_moments` equals the moments summed in Python ints on seeded points
    with negative entries.  The bound max|x|^t sum|coef| over all rows lies
    below 2^bits (step 0) or just above it (step 1): one pass modulo 2^64
    when B < 2^63, residues modulo primes and the CRT at and above; object
    arrays of Python ints enter alike.  Each case runs in one block and
    in blocks of 7 rows, in which groups straddle blocks, a block opens
    at a group start, and the one-group case spans six blocks.  A third
    case has that bound over all rows at or above 2^63 and every group's
    below it: B is then the largest bound of a group, so no prime is used.
    Two more cases: rank-1 rows at A1's degree-0 exponents (t = 0), and no
    rows and no groups, as an empty support ball gives.  In every case the
    number of primes is the one the per-group bound asks for, so trying
    the bound over all rows first never adds or drops a pass."""
    rng = random.Random(bits + step)
    n, rank, top = 40, 3, 4
    exponents = [m for m in itertools.product(range(top + 1), repeat=rank) if sum(m) <= top]
    coefs = [rng.randint(-3, 3) for _ in range(n)]
    total = sum(map(abs, coefs))
    lo, hi = 0, 2 ** (bits // top + 1)  # the largest x with x^t sum|coef| < 2^bits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**top * total < 2**bits else (lo, mid - 1)
    x = lo + step
    assert (x**top * total < 2**63) == (bits <= 63 and not step)
    points = [[rng.randint(-x, x) for _ in range(rank)] for _ in range(n)]
    points[0][0] = -x
    starts = sorted({0, 14, *rng.sample(range(1, n), 6)})  # a 7-row block opens at row 14
    # coefficients +-1 and entries up to y, y^t times the largest group's
    # size below 2^63 and y^t n not
    sizes = np.diff([*starts, n])
    y = math.isqrt(math.isqrt((2**63 - 1) // int(sizes.max())))
    while (y + 1) ** top * int(sizes.max()) < 2**63:
        y += 1
    assert y**top * n >= 2**63
    spread = [[rng.randint(-y, y) for _ in range(rank)] for _ in range(n)]
    spread[0][0] = -y
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    primes = []
    crt_basis = moduli._crt_basis
    monkeypatch.setattr(moduli, "_crt_basis", lambda k: primes.append(k) or crt_basis(k))
    assert group_prime_count(spread, signs, starts, exponents, crt_basis) == 0
    # seeded rows in seven groups, one group whose largest moment is its
    # bound (every row at -x with coefficient 3), the spread rows, A1's
    # rows at degree 0, and no rows
    cases = [(points, coefs, starts, exponents),
             ([[-x] * rank] * n, [3] * n, [0], exponents),
             (spread, signs, starts, exponents),
             ([[rng.randint(-x, x)] for _ in range(n)], coefs, starts, [(0,)]),
             ([], [], [], exponents)]
    for rows in (moduli.MOMENT_ROWS, 7):
        monkeypatch.setattr(moduli, "MOMENT_ROWS", rows)
        for points, coefs, starts, exps in cases:
            primes.clear()
            got = _moments(np.array(points, dtype=dtype).reshape(-1, len(exps[0])),
                           np.array(coefs, dtype=dtype), np.array(starts, dtype=np.int64),
                           np.array(exps))
            assert got == python_moments(points, coefs, starts, exps)
            assert all(type(v) is int for row in got for v in row)
            assert primes[-1] == group_prime_count(points, coefs, starts, exps, crt_basis)


@pytest.mark.parametrize("ts, built", [
    (("1/2", "1/4", "1/4"), [((1,), (Q(1, 2),))]),
    (("1", "1/3", "2/3"), []),
])
def test_kappa_sum_degree_zero_wall_after_chambers(ts, built):
    """At degree 0 the first on-wall argument raises OnWallError, and the
    chambers met before it in term order are built first, as the
    term-by-term sum builds them."""
    for evaluate in (sphere_volume_kappa, lambda rs, mus: reference_kappa_sum(rs, mus, "support")):
        rs = RootSystem(GroupSpec.parse("A1"))
        with pytest.raises(OnWallError):
            evaluate(rs, [t_mu(rs, t) for t in ts])
        chambers = kappa_build(rs, 1).chambers.values()
        assert [(c.signs, c.sample_point) for c in chambers] == built


def reference_pants_poly(vol, mu3):
    """(on_wall, polynomial_at) of a PantsVolumePoly term by term in
    Fractions, over every lattice vector and Weyl pair; the polynomial is
    None on a cell wall."""
    rs, spline = vol.rs, vol.spline
    weyl = rs.weyl_elements()
    terms = [
        (w1.sign * w2.sign, vadd(vadd(w1.act(vol.mu1), w2.act(vol.mu2)), l))
        for l in vol.lattice
        for w1 in weyl
        for w2 in weyl
    ]
    args = [(s, c, vadd(c, mu3)) for s, c in terms]
    if any(min(arg) >= 0 and spline.on_wall(arg) for _, _, arg in args):
        return True, None
    total = {}
    for s, c, arg in args:
        if min(arg) > 0:
            shifted = poly_shift(spline.chamber_polynomial_at(arg), c)
            total = poly_add(total, {m: s * c for m, c in shifted.items()})
    scale = (-1) ** rs.n_positive * rs.center_order
    return False, {m: scale * c for m, c in total.items()}


@pytest.mark.parametrize(
    "name, marks, thirds, walls",
    [
        ("A2", ["1/2,1/2", "1/4,1/5"], ["1/5,1/4", "1/3,1/3", "1/7,2/7"], 1),
        ("A2", ["0,1/2", "1/4,1/5"], ["1/5,1/4", "1/3,1/3"], 0),
        ("B2", ["1/4,1/4", "1/4,1/4"], ["1/2,0", "1/5,1/7", "1/9,1/3"], 1),
        ("B2", ["1/4,1/5", "0,1/3"], ["1/6,1/5", "1/5,1/7"], 1),
        ("G2", ["1/8,1/8", "1/8,1/8"], ["1/8,1/8", "1/7,1/9"], 1),
        ("A3", ["1/4,1/5,1/6", "1/6,1/5,1/4"], ["1/5,1/6,1/4"], 0),
    ],
)
def test_pants_poly_matches_term_by_term_reference(name, marks, thirds, walls):
    """on_wall and polynomial_at agree with the term-by-term reference, and
    on fresh root systems both build the same chambers in the same order.
    A marking with a zero coordinate is fixed by a reflection, so merged
    coefficients cancel; the chambers are built all the same."""
    results, built = [], []
    for use_reference in (False, True):
        rs = RootSystem(GroupSpec.parse(name))
        m1, m2 = (rs.from_weight_coords(vec(m.split(","))) for m in marks)
        vol = pants_volume_poly(rs, m1, m2)
        out = []
        for t in thirds:
            mu3 = rs.from_weight_coords(vec(t.split(",")))
            if use_reference:
                out.append(reference_pants_poly(vol, mu3))
            elif vol.on_wall(mu3):
                with pytest.raises(OnWallError):
                    vol.polynomial_at(mu3)
                out.append((True, None))
            else:
                out.append((False, vol.polynomial_at(mu3)))
        results.append(out)
        built.append([(c.signs, c.sample_point) for c in vol.spline.chambers.values()])
    assert results[0] == results[1]
    assert built[0] == built[1]
    assert [wall for wall, _ in results[0]].count(True) == walls


def test_pants_poly_on_wall_builds_nothing():
    """An on-wall third marking raises OnWallError before any chamber is
    built, so it leaves the spline's chambers as they were: for the cell
    polynomial and for a characteristic number, each on a fresh root
    system."""
    e1 = SymmetricPoly.elementary(1, 1)
    for route in (lambda vol, *mus: vol.polynomial_at(mus[2]),
                  lambda vol, *mus: mixed_characteristic_number(vol.rs, *mus, e1)):
        rs = RootSystem(GroupSpec.parse("A2"))
        m1, m2, m3 = (rs.from_weight_coords(vec(m.split(",")))
                      for m in ("1/2,1/2", "1/4,1/5", "1/5,1/4"))
        vol = pants_volume_poly(rs, m1, m2)
        message = f"{m3}: a kappa argument of its lattice ball lies on a wall of kappa"
        with pytest.raises(OnWallError, match=re.escape(message)):
            route(vol, m1, m2, m3)
        assert not vol.spline.chambers


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_kappa_sum_at_alcove_vertices(name):
    rs = build_root_system(name)
    others = [rs.from_weight_coords(vec(m.split(","))) for m in ("1/2,0", "1/4,1/4")]
    for vertex in rs.alcove.vertices[1:]:
        mus = [vertex, *others]
        expect, on_wall = reference_kappa_sum(rs, mus)
        assert on_wall > 0
        assert sphere_volume_kappa(rs, mus).exact["rational"] == expect


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_s3_and_star_invariance_exact(name):
    rs = build_root_system(name)
    rng = random.Random(17)
    for _ in range(6):
        mus = rational_triple(rs, rng)
        try:
            base = pants_volume_kappa(rs, *mus).exact["rational"]
        except OnWallError:
            continue
        for perm in itertools.permutations(mus):
            assert pants_volume_kappa(rs, *perm).exact["rational"] == base
        starred = [star(rs, m) for m in mus]
        assert pants_volume_kappa(rs, *starred).exact["rational"] == base


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_truncation_radius_stability(name):
    rs = build_root_system(name)
    rng = random.Random(23)
    mus = rational_triple(rs, rng)
    try:
        base = pants_volume_kappa(rs, *mus)
    except OnWallError:
        mus = rational_triple(rs, rng)
        base = pants_volume_kappa(rs, *mus)
    bigger = pants_volume_kappa(
        rs, *mus, radius_sq=base.parameters["lattice_radius_sq"] * 3 + 8
    )
    assert bigger.exact["rational"] == base.exact["rational"]
    assert bigger.parameters["lattice_points"] > base.parameters["lattice_points"]
    # a radius that leaves no lattice point sums nothing
    empty = pants_volume_kappa(rs, *mus, radius_sq=-8 * base.parameters["lattice_radius_sq"] - 8)
    assert (empty.exact["rational"], empty.parameters["lattice_points"]) == (0, 0)


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_toric_equals_kappa_sum_exact(name):
    rs = build_root_system(name)
    rng = random.Random(31)
    checked = 0
    while checked < 8:
        mus = rational_triple(rs, rng)
        try:
            pants = pants_volume_kappa(rs, *mus)
            terms, totrep = toric_decomposition(rs, *mus)
        except OnWallError:
            continue
        assert totrep.exact["rational"] == pants.exact["rational"]
        for term in terms:
            assert term.sign in (1, -1)
        checked += 1


def test_toric_term_count_stable_and_signs(a1):
    mus = (t_mu(a1, "2/5"), t_mu(a1, "1/2"), t_mu(a1, "3/5"))
    terms, rep = toric_decomposition(a1, *mus)
    terms2, rep2 = toric_decomposition(a1, *mus, radius_sq=rep.parameters["radius_sq"] * 4)
    assert len(terms) == len(terms2)
    assert rep.exact["rational"] == rep2.exact["rational"]
    assert not rep.parameters["truncation_warning"]
    small = toric_decomposition(a1, *mus, radius_sq=Q(0))
    assert small[1].parameters["truncation_warning"]


def test_toric_on_wall_term_reads_the_fiber_volume():
    """Two A3 toric terms have their kappa argument on a wall, inside the
    support cone, where the truncated-power recurrence refuses: they carry
    the fiber-polytope value, pinned here.  Every term, on a wall or off,
    equals sign |Z| times the fiber-polytope kappa."""
    rs = build_root_system("A3")
    mus = [rs.from_weight_coords(vec([Q(x) for x in m.split(",")]))
           for m in ("1/6,1/9,1/12", "1/5,1/7,1/8", "1/8,1/5,1/5")]
    terms, _ = toric_decomposition(rs, *mus)
    config = kappa_build(rs).config
    on_wall = []
    for term in terms:
        arg = vscale(Q(-1), term.shift)
        assert term.rational == term.sign * rs.center_order * kappa_point(rs, arg).rational
        if config.on_wall(arg):
            with pytest.raises(OnWallError):
                config.truncated_power(arg)
            on_wall.append((term.sign, term.shift, term.rational))
    assert len(terms) == 12
    assert on_wall == [
        (-1, vec([Q(-31, 5040), Q(-451, 2520), Q(-871, 5040)]), Q(-1240651, 96018048000)),
        (1, vec([Q(-31, 5040), Q(-451, 2520), Q(-31, 5040)]), Q(29791, 96018048000)),
    ]


def _toric_record(rs, mus, radius_sq=None):
    """Everything `toric_decomposition` returns, as text: each term's sign,
    shift, value and rational, and the report's parameters and rational;
    or the message of the wall error it raises."""
    try:
        terms, rep = toric_decomposition(rs, *mus, radius_sq=radius_sq)
    except OnWallError as exc:
        return ["wall", str(exc)]
    return [[[t.sign, [str(c) for c in t.shift], repr(t.value), str(t.rational)] for t in terms],
            {k: str(v) for k, v in rep.parameters.items()}, str(rep.exact["rational"])]


# sha256 of `_toric_record` for seeded triples, each at the provable radius
# and at 4 R + 1: two interior ones (wall margin 1/20) and two of the closed
# alcove (denominator 4, no margin, so some A1 ones raise the wall error),
# but one interior triple alone for C3, whose terms take seconds
TORIC_DIGEST = "f280de569b3709a3fd80f7fdbfef6ef9704d887af6aa6ccfc49866e68f675ec6"


def test_toric_decomposition_pinned():
    records = []
    for seed, name in enumerate(["A1", "A2", "B2", "C2", "G2", "A3", "C3"]):
        rs, rng = build_root_system(name), random.Random(100 + seed)
        interior, closed = (1, 0) if name == "C3" else (2, 2)
        triples = [rational_triple(rs, rng) for _ in range(interior)]
        triples += [rational_triple(rs, rng, denom=4, margin=0) for _ in range(closed)]
        for mus in triples:
            records.append(_toric_record(rs, mus))
            radius_sq = 2 * rs.norm_sq(mus[2]) + 2 * _support_radius(rs, _scaled(mus[:2]))  # R
            records.append(_toric_record(rs, mus, 4 * radius_sq + 1))
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == TORIC_DIGEST


# what the toric route checks, the kappa-sum and its vertex-formula spline,
# and so must not read
TORIC_FORBIDDEN = [(moduli, ["_sphere_sums", "_kappa_sums", "_scaled", "_support_radius",
                            "_kappa_arguments", "_weyl_fold", "_chamber_groups", "_code_signs",
                            "_moments"]),
                   (VectorConfig, ["vertex_table", "vertex_arrays", "extension_t", "wall_norm",
                                   "nudge_side"]),
                   (PiecewisePolynomial, ["_vertex_sums", "chamber_at", "chambers_at", "_build",
                                          "_passes_checks"])]


def test_readme_route_table_names_every_forbidden_path():
    """README's table "Routes and what each may not read" names, in each
    route's row, every owner and name that its sentinel test forbids: the
    toric row `TORIC_FORBIDDEN`, the series row `SERIES_FORBIDDEN`, and
    the oracle row what `ORACLE_FORBIDDEN` adds to the series' list.  A
    name counts when it is the last dotted part of a code span of the
    row, an owner when it is the first."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Routes and what each may not read", 1)[1].split("\n## ", 1)[0]
    rows = {cells[1].strip(): cells[3] for line in section.splitlines()
            if line.startswith("| ") and len(cells := line.split("|")) == 6}
    for route, forbidden in [("toric", TORIC_FORBIDDEN), ("series", SERIES_FORBIDDEN),
                             ("oracle histogram", ORACLE_FORBIDDEN[len(SERIES_FORBIDDEN):])]:
        spans = re.findall(r"`([^`]+)`", rows[route])
        for owner, names in forbidden:
            assert owner.__name__.rsplit(".", 1)[-1] in {s.split(".")[0] for s in spans}, (
                route, owner)
            missing = set(names) - {s.rsplit(".", 1)[-1] for s in spans}
            assert not missing, (route, owner.__name__, sorted(missing))
    assert rows["oracle histogram"].strip().startswith("all that the series may not read")


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_toric_route_reads_no_kappa_sum_path(monkeypatch, name):
    """On a fresh root system, with the kappa-sum's private paths and the
    vertex-formula spline replaced by sentinels that raise,
    `toric_decomposition` gives the same terms, rationals and wall errors
    as unpatched, at interior and closed-alcove triples; the kappa-sum
    itself stops at a sentinel."""
    rng = random.Random(f"toric-independence-{name}")
    rs = build_root_system(name)
    triples = [rational_triple(rs, rng) for _ in range(2)]
    triples += [rational_triple(rs, rng, denom=4, margin=0) for _ in range(2)]
    expected = [_toric_record(rs, mus) for mus in triples]
    for owner, names in TORIC_FORBIDDEN:
        forbid(monkeypatch, owner, *names)
    fresh = RootSystem(GroupSpec.parse(name))
    assert [_toric_record(fresh, mus) for mus in triples] == expected
    with pytest.raises(AssertionError, match="is forbidden here"):
        pants_volume_kappa(fresh, *triples[0])


def _series_record(rs, surface, mus):
    """`witten_volume`'s report at 2 000 weights, every float as its repr,
    so bit for bit."""
    report = witten_volume(rs, surface, Marking.of(rs, mus), weight_count=2000)
    return json.dumps(report.to_json_dict(), sort_keys=True)


# two interior triples per group at which the series converges at 2 000
# weights; a (1,1) surface takes each triple's first marking
SERIES_TRIPLES = {
    "A1": ["2/5 1/2 3/5", "1/4 1/2 2/3"],
    "A2": ["1/4,1/5 1/3,1/7 2/7,1/6", "1/5,1/4 1/6,1/5 1/7,2/7"],
    "B2": ["1/4,1/5 1/3,1/7 2/7,1/6", "1/5,1/4 1/6,1/5 1/7,2/7"],
    "G2": ["1/8,1/5 1/9,1/7 1/7,1/6", "1/10,1/4 1/11,1/6 1/8,1/5"],
}


@pytest.mark.parametrize("name, genus, boundary", [
    ("A1", 0, 3), ("A2", 0, 3), ("B2", 0, 3), ("G2", 0, 3), ("A1", 1, 1), ("A2", 1, 1)])
def test_series_route_reads_no_kappa_toric_or_gluing_path(monkeypatch, name, genus, boundary):
    """On a fresh root system, with every kappa-sum, spline, toric and
    gluing path replaced by a sentinel that raises (`SERIES_FORBIDDEN`),
    the character series gives the same reports as unpatched, bit for bit;
    the kappa-sum itself stops at a sentinel."""
    rs, surface = build_root_system(name), Surface(genus, boundary)
    markings = [[rs.from_weight_coords(vec(m.split(","))) for m in triple.split()[:boundary]]
                for triple in SERIES_TRIPLES[name]]
    expected = [_series_record(rs, surface, mus) for mus in markings]
    for owner, names in SERIES_FORBIDDEN:
        forbid(monkeypatch, owner, *names)
    fresh = RootSystem(GroupSpec.parse(name))
    assert [_series_record(fresh, surface, mus) for mus in markings] == expected
    with pytest.raises(AssertionError, match="is forbidden here"):
        pants_volume_kappa(fresh, *[markings[0][0]] * 3)


def test_nonnegativity_grid(a1, a2, b2):
    """Volume >= 0 at every point of a 15^3 interior grid per type."""
    for rs in (a1, a2, b2):
        if rs.rank == 1:
            pts = [t_mu(rs, Q(2 * k + 1, 31)) for k in range(15)]
        else:
            # 15 interior weight-coordinate pairs spread over the alcove
            pts = []
            k = 0
            while len(pts) < 15:
                k += 1
                x = Q(2 * (k % 5) + 1, 11)
                y = Q(2 * (k % 7) + 1, 17)
                mu = rs.from_weight_coords(vec([x, y]))
                if alcove_membership_interior(rs, mu):
                    pts.append(mu)
        for m1 in pts:
            for m2 in pts:
                for m3 in pts:
                    try:
                        rep = pants_volume_kappa(rs, m1, m2, m3)
                    except OnWallError:
                        continue
                    assert rep.exact["rational"] >= 0


def alcove_membership_interior(rs, mu) -> bool:
    from flatvol import alcove_membership

    return alcove_membership(rs, mu)[0] == "interior"


# -- piecewise-polynomial volume ----------------------------------------------


def test_pants_poly_matches_kappa_sum(a2, b2, g2):
    rows = []
    # a prime denominator keeps B2 and G2 third markings off the cell walls
    for rs, count, denom in ((a2, 10, 40), (b2, 6, 37), (g2, 4, 37)):
        rng = random.Random(5)
        m1, m2 = rational_alcove_point(rs, rng), rational_alcove_point(rs, rng)
        rows.append((rs, m1, m2, [rational_alcove_point(rs, rng, denom=denom)
                                  for _ in range(count)]))
    # rank 3, at the A3 markings of the pinned `chern` bytes (test_cli.py)
    a3 = build_root_system("A3")
    rows.append((a3, *(a3.from_weight_coords(vec(m.split(",")))
                       for m in ("1/5,1/7,1/9", "1/6,1/8,1/7")),
                 [a3.from_weight_coords(vec(["1/9", "1/5", "1/8"]))]))
    checked = set()
    for rs, m1, m2, thirds in rows:
        vol = pants_volume_poly(rs, m1, m2)
        for m3 in thirds:
            if vol.on_wall(m3):
                continue
            assert vol.value_exact(m3) == pants_volume_kappa(rs, m1, m2, m3).exact["rational"]
            cell = vol.polynomial_at(m3)
            assert poly_eval(cell, m3) == vol.value_exact(m3)
            checked.add(rs.spec.name)
    assert checked == {"A2", "B2", "G2", "A3"}


def test_pants_poly_a1_piecewise_constant(a1):
    vol = pants_volume_poly(a1, t_mu(a1, "2/5"), t_mu(a1, "1/2"))
    vals = set()
    for k in range(1, 40):
        m3 = t_mu(a1, Q(2 * k + 1, 81))
        vals.add(vol.value_exact(m3))
    assert vals == {Q(0), Q(2)}  # rational parts: 0 and c0 * normalization


def test_pants_poly_vanishes_far_corner(a2):
    rng = random.Random(6)
    m1 = a2.from_weight_coords(vec([Q(1, 9), Q(1, 9)]))
    m2 = a2.from_weight_coords(vec([Q(1, 9), Q(1, 8)]))
    vol = pants_volume_poly(a2, m1, m2)
    corner = a2.from_weight_coords(vec([Q(8, 9), Q(1, 18)]))
    assert vol.value_exact(corner) == 0


def test_pants_poly_continuity_across_walls(a2, b2):
    """Cell polynomials agree where cells meet (exact value at the wall).

    Bisect along a segment until the starting cell's polynomial stops
    reproducing the exact kappa-sum value; the crossing point lies on a
    cell wall, where both side polynomials must give the same value.
    """
    for rs in (a2, b2):
        rng = random.Random(8)
        m1, m2 = rational_alcove_point(rs, rng), rational_alcove_point(rs, rng)
        vol = pants_volume_poly(rs, m1, m2)
        weyl = rs.weyl_elements()
        # each kappa argument is mu3 + shift
        shifts = {
            vadd(vadd(w1.act(m1), w2.act(m2)), l)
            for l in vol.lattice
            for w1 in weyl
            for w2 in weyl
        }
        tested = 0
        attempts = 0
        while tested < 2 and attempts < 40:
            attempts += 1
            p = rational_alcove_point(rs, rng, denom=33)
            q = rational_alcove_point(rs, rng, denom=37)
            if vol.on_wall(p) or vol.on_wall(q):
                continue
            poly_p = vol.polynomial_at(p)
            if poly_eval(poly_p, q) == vol.value_exact(q):
                continue  # same polynomial piece along the whole segment
            lo, hi = Q(0), Q(1)
            for _ in range(48):
                mid = (lo + hi) / 2
                pt = vadd(p, vscale(mid, vsub_(q, p)))
                if poly_eval(poly_p, pt) == vol.value_exact(pt):
                    lo = mid
                else:
                    hi = mid
            lo_pt = vadd(p, vscale(lo, vsub_(q, p)))
            hi_pt = vadd(p, vscale(hi, vsub_(q, p)))
            poly_b = vol.polynomial_at(hi_pt)
            assert poly_b != poly_p
            # identify the affine wall crossed inside the bracket
            crossings = set()
            for c in shifts:
                for u in vol.spline.config.walls:
                    a_lo = sum(uu * (cc + xx) for uu, cc, xx in zip(u, c, lo_pt))
                    a_hi = sum(uu * (cc + xx) for uu, cc, xx in zip(u, c, hi_pt))
                    if (a_lo > 0 > a_hi) or (a_lo < 0 < a_hi):
                        du = sum(uu * (qq - pp) for uu, qq, pp in zip(u, q, p))
                        off = sum(uu * (cc + pp) for uu, cc, pp in zip(u, c, p))
                        crossings.add((u, -off / du))
            assert crossings, "no wall found in the bracket"
            tstars = {t for _, t in crossings}
            if len(tstars) != 1:
                continue  # two walls inside the bracket; resample
            (u, tstar) = next(iter(crossings))
            wall_pt = vadd(p, vscale(tstar, vsub_(q, p)))
            # restrict the polynomial difference to the affine wall exactly
            diff = dict(poly_p)
            for m, cc in poly_b.items():
                nc = diff.get(m, Q(0)) - cc
                if nc == 0:
                    diff.pop(m, None)
                else:
                    diff[m] = nc
            basis = nullspace([u], rs.rank)
            forms = []
            for i in range(rs.rank):
                form = {}
                if wall_pt[i] != 0:
                    form[(0,) * len(basis)] = wall_pt[i]
                for k, bv in enumerate(basis):
                    if bv[i] != 0:
                        mono = tuple(1 if j == k else 0 for j in range(len(basis)))
                        form[mono] = form.get(mono, Q(0)) + bv[i]
                forms.append(form)
            assert poly_subs_affine(diff, forms) == {}
            tested += 1
        assert tested >= 1


def vsub_(u, v):
    return tuple(a - b for a, b in zip(u, v))


# -- characteristic numbers ---------------------------------------------------


def test_mixed_characteristic_number_identity(a2):
    rng = random.Random(12)
    m1, m2, m3 = rational_triple(a2, rng)
    one = SymmetricPoly.constant(Q(1))
    vol = pants_volume_kappa(a2, m1, m2, m3)
    assert mixed_characteristic_number(a2, m1, m2, m3, one) == vol.value


def _e_monomial(rng, k: int, weight: int) -> tuple[int, ...]:
    """A random e-monomial in k variables of weighted degree sum_l l m_l = weight."""
    expo = [0] * k
    while weight:
        l = rng.randint(1, min(k, weight))
        expo[l - 1] += 1
        weight -= l
    return tuple(expo)


@pytest.mark.parametrize("name, marks", [
    ("A2", ("1/4,1/5", "1/3,1/7", "1/10,1/10")),
    ("B2", ("1/4,1/5", "1/3,1/7", "2/7,1/6")),
    ("G2", ("1/9,1/11", "1/10,1/12", "1/8,1/13")),
    ("A3", ("1/5,1/7,1/9", "1/6,1/8,1/7", "1/9,1/5,1/8")),
], ids=["A2", "B2", "G2", "A3"])
def test_mixed_characteristic_number_equals_cell_polynomial_route(monkeypatch, name, marks):
    """The characteristic number's rational (the kappa-sum with the
    operator applied to each chamber polynomial) equals exactly the
    operator applied to the cell polynomial (`polynomial_at`) and evaluated
    at mu3.  Each seeded polynomial holds the constant 1, two e-monomials of
    weighted degree at most d = |R+| - rank and one above d, which the
    characteristic number drops and the reference applies."""
    rs = build_root_system(name)
    m1, m2, m3 = (rs.from_weight_coords(vec(m.split(","))) for m in marks)
    k = d = moduli_dimension(rs, Surface(0, 3))
    assert d == rs.n_positive - rs.rank
    cell = pants_volume_poly(rs, m1, m2).polynomial_at(m3)
    monkeypatch.setattr(moduli, "_normalized", lambda rs, rational: rational)
    rng = random.Random(8)
    values = []
    for _ in range(4):
        terms = {(0,) * k: Q(1)}
        for weight in (rng.randint(1, d), rng.randint(1, d), rng.randint(d + 1, d + 2)):
            terms[_e_monomial(rng, k, weight)] = Q(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        p = SymmetricPoly(terms, k)
        op = pullback_operator(rs, p)
        values.append(poly_eval(op.apply_poly(cell), m3))
        assert mixed_characteristic_number(rs, m1, m2, m3, p) == values[-1]
    assert len(set(values)) > 1


def test_mixed_characteristic_number_where_only_cancelling_terms_meet_a_wall(monkeypatch):
    """At this B2 third marking a kappa argument of the alcove ball lies on
    a wall (`polynomial_at` raises), but only in a group of terms that
    cancels exactly, outside mu3's support ball, so the characteristic
    number is defined.  Nudged along seeded directions, mu3 meets one cell
    polynomial in every direction that leaves the wall, and the number's
    rational is the operator applied to it at mu3, exactly."""
    rs = build_root_system("B2")
    m1, m2, m3 = (rs.from_weight_coords(vec(m.split(",")))
                  for m in ("43/101,1/101", "63/101,32/101", "21/101,41/101"))
    vol = pants_volume_poly(rs, m1, m2)
    with pytest.raises(OnWallError):
        vol.polynomial_at(m3)
    rng = random.Random(5)
    directions = [*rs.positive_roots, *(vscale(Q(-1), a) for a in rs.positive_roots)]
    directions += [vec([rng.randint(-9, 9) for _ in range(rs.rank)]) for _ in range(30)]
    cells = []
    for d in directions:
        try:
            cells.append(vol.polynomial_at(vadd(m3, vscale(Q(1, 10**6), d))))
        except OnWallError:  # along the wall
            pass
    assert len(cells) >= 30 and all(cell == cells[0] for cell in cells)
    p = SymmetricPoly.elementary(1, moduli_dimension(rs, Surface(0, 3)))
    monkeypatch.setattr(moduli, "_normalized", lambda rs, rational: rational)
    number = mixed_characteristic_number(rs, m1, m2, m3, p)
    assert number == poly_eval(pullback_operator(rs, p).apply_poly(cells[0]), m3) == Q(2, 101)


def _alcove_ball_rationals(rs, m1, m2, m3, p):
    """The characteristic number's and the value's rationals as sums over
    the lattice ball of the slots [mu1, mu2, NU], which covers every mu3
    of the alcove (`PantsVolumePoly.lattice`); the number is None when a
    kappa argument of that ball lies on a wall at m3."""
    vol, last = pants_volume_poly(rs, m1, m2), _scaled([m3])

    def total(op=None):
        (value,), walls = moduli._kappa_sums(vol.spline, rs, vol.fixed, [last], [vol.lattice], op)
        assert not walls  # degree-0 walls are A1's, which no case here reads
        return value

    value = total()
    if vol.on_wall(m3):
        return None, value
    return total(pullback_operator(rs, p)), value


# seeded triples per group, of denominator 40 (many kappa arguments on
# walls) and with a prime denominator per marking (few), and the A4
# markings of BENCH_21.json, whose alcove ball has 123 567 argument rows
# against 9 603
BALL_CASES = [("A2", 16), ("B2", 12), ("G2", 12), ("A3", 6), ("C3", 4)]
PRIMES = (37, 41, 43, 47, 53, 59, 61)
A4_MARKS = ("1/9,1/11,1/13,1/10", "1/10,1/12,1/14,1/9", "1/8,1/13,1/11,1/12")


@pytest.mark.parametrize("name, count", [*BALL_CASES, ("A4", 0)],
                         ids=[*(n for n, _ in BALL_CASES), "A4"])
def test_point_values_match_the_alcove_ball(monkeypatch, name, count):
    """`mixed_characteristic_number` and `PantsVolumePoly.value_exact` sum
    over mu3's own lattice ball, a subset of the alcove ball of the slots
    [mu1, mu2, NU]; the terms outside it cancel identically near mu3, so
    both rationals equal the alcove ball's: the value everywhere, walls
    included, and the number wherever the alcove ball meets no wall.  Each
    case applies e1 plus seeded e-monomials of weighted degree at most
    |R+| - rank."""
    rs = build_root_system(name)
    monkeypatch.setattr(moduli, "_normalized", lambda rs, rational: rational)
    rng = random.Random(30)
    k = moduli_dimension(rs, Surface(0, 3))
    triples = [tuple(rational_alcove_point(rs, rng, d)
                     for d in (rng.sample(PRIMES, 3) if j % 2 else (40,) * 3))
               for j in range(count)] or [
        tuple(rs.from_weight_coords(vec(m.split(","))) for m in A4_MARKS)]
    numbers = 0
    for m1, m2, m3 in triples:
        terms = {_e_monomial(rng, k, rng.randint(1, k)): Q(rng.randint(1, 3)) for _ in range(2)}
        p = SymmetricPoly({**terms, (1,) + (0,) * (k - 1): Q(1)}, k)
        number, value = _alcove_ball_rationals(rs, m1, m2, m3, p)
        assert pants_volume_poly(rs, m1, m2).value_exact(m3) == value
        if number is not None:
            assert mixed_characteristic_number(rs, m1, m2, m3, p) == number
            numbers += 1
    assert numbers >= max(1, count // 2)


def test_mixed_characteristic_number_fd(a2):
    rng = random.Random(13)
    e1 = SymmetricPoly.elementary(1, 1)
    h = Q(1, 100000)
    checked = 0
    while checked < 5:
        m1, m2, m3 = rational_triple(a2, rng)
        vol = pants_volume_poly(a2, m1, m2)
        if vol.on_wall(m3):
            continue
        try:
            cn = mixed_characteristic_number(a2, m1, m2, m3, e1)
        except OnWallError:
            continue
        fd = 0.0
        for d in a2.positive_roots:
            up, dn = vadd(m3, vscale(h, d)), vadd(m3, vscale(-h, d))
            fd += (vol.value(up) - vol.value(dn)) / (2 * float(h))
        assert abs(cn - fd) < 1e-6
        checked += 1


def test_mixed_characteristic_number_degree_error(a1):
    e1 = SymmetricPoly.elementary(1, 1)
    with pytest.raises(ValueError):
        mixed_characteristic_number(
            a1, t_mu(a1, "1/2"), t_mu(a1, "1/2"), t_mu(a1, "1/2"), e1
        )


# -- conjugacy volumes ---------------------------------------------------------


def test_conjugacy_volume_su2_sphere(a1):
    # equatorial class at t = 1/2: round 2-sphere of radius sqrt(2), area 8 pi
    v = conjugacy_volume(a1, t_mu(a1, "1/2"))
    assert abs(v - 8 * math.pi) < 1e-9
    # general t: area 8 pi sin^2(pi t)
    for t in (Q(1, 5), Q(2, 7)):
        v = conjugacy_volume(a1, t_mu(a1, t))
        assert abs(v - 8 * math.pi * math.sin(math.pi * float(t)) ** 2) < 1e-9


def test_conjugacy_volume_degenerates_and_star(a1, a2):
    vals = [conjugacy_volume(a1, t_mu(a1, Q(1, k))) for k in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(ValueError):
        conjugacy_volume(a1, t_mu(a1, 0))
    rng = random.Random(2)
    mu = rational_alcove_point(a2, rng)
    assert abs(conjugacy_volume(a2, mu) - conjugacy_volume(a2, star(a2, mu))) < 1e-12 * conjugacy_volume(a2, mu)


# -- character series -----------------------------------------------------------


def test_witten_pants_matches_kappa_a1(a1):
    mus = [t_mu(a1, "2/5"), t_mu(a1, "1/2"), t_mu(a1, "3/5")]
    w = witten_volume(a1, Surface(0, 3), Marking.of(a1, mus), weight_count=3000)
    k = pants_volume_kappa(a1, *mus)
    assert abs(w.value - k.value) < 1e-6


def test_witten_hypothesis_violation(a1):
    with pytest.raises(ValueError):
        witten_volume(a1, Surface(0, 2), Marking.of(a1, [t_mu(a1, "1/2")] * 2))


def test_witten_lambda_zero_term_closed_surface(a1):
    # the lambda = 0 term of a closed surface contributes #Z Vol(G)^{2h-2}
    rep = witten_volume(a1, Surface(2, 0), Marking.of(a1, []), weight_count=1)
    expect = a1.center_order * volume_G(a1) ** 2
    assert abs(rep.value - expect) < 1e-9 * expect


def test_witten_closed_genus2_zeta(a1):
    rep = witten_volume(a1, Surface(2, 0), Marking.of(a1, []), weight_count=10**4)
    target = 2 * volume_G(a1) ** 2 * math.pi**2 / 6
    assert abs(rep.value - target) <= 1e-6 * target


def test_witten_divergence_guard(a1):
    # a absurdly small weight list cannot pass the Cauchy criterion for
    # a conditionally convergent pants series at a generic marking
    mus = [t_mu(a1, "2/5"), t_mu(a1, "9/20"), t_mu(a1, "3/5")]
    with pytest.raises(ConvergenceError):
        witten_volume(
            a1,
            Surface(0, 3),
            Marking.of(a1, mus),
            weight_count=6,
            eps_schedule=[0.4, 0.2, 0.1, 0.05],
        )


@pytest.mark.parametrize(
    "schedule",
    [[0.4], [], [0.4, 0.4], [0.4, 0.0], [0.4, -0.2], [0.4, math.nan], [math.inf, 0.4]],
)
def test_witten_rejects_degenerate_eps_schedule(a1, schedule):
    # with one node the extrapolation would be its own residual, and a
    # nonpositive epsilon undamps the series
    mus = [t_mu(a1, "2/5"), t_mu(a1, "9/20"), t_mu(a1, "3/5")]
    with pytest.raises(ValueError, match="epsilon schedule"):
        witten_volume(a1, Surface(0, 3), Marking.of(a1, mus), eps_schedule=schedule)


def test_witten_caps_the_weight_count(monkeypatch):
    """A count above MAX_WEIGHTS is refused before the cutoff search, which
    allocates a box of up to 51 times as many weight vectors (D4)."""
    d4 = build_root_system("D4")
    monkeypatch.setattr(moduli, "series_table", None)  # never reached
    mus = [d4.from_weight_coords(vec([Q(1, 9)] * 4))] * 3
    with pytest.raises(ValueError, match=f"weight count {10**9} is above {moduli.MAX_WEIGHTS}"):
        witten_volume(d4, Surface(0, 3), Marking.of(d4, mus), weight_count=10**9)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_witten_weights_are_those_of_the_cutoff_search(name):
    """With no cutoff given, the series reuses the weight box of the cutoff
    search: its cutoff and weight count are those of
    `casimir_cutoff_for_count` and `enumerate_dominant`, and its value is
    that of the same cutoff given explicitly, bit for bit."""
    rs = build_root_system(name)
    rng = random.Random(5)
    mk = Marking.of(rs, [rational_alcove_point(rs, rng) for _ in range(4)])
    for count in (None, 300):
        report = witten_volume(rs, Surface(0, 4), mk, weight_count=count)
        cutoff = casimir_cutoff_for_count(rs, count or 2000)
        assert report.parameters["casimir_cutoff"] == str(cutoff)
        assert report.parameters["weights"] == len(enumerate_dominant(rs, cutoff)[:count])
        given = witten_volume(rs, Surface(0, 4), mk, casimir_cutoff=cutoff, weight_count=count)
        assert given.parameters == report.parameters and given.value == report.value


# -- gluing ----------------------------------------------------------------------


def test_glue_one_handle_matches_witten(a1):
    mk = Marking.of(a1, [t_mu(a1, "2/5")])
    g = glue_volume(a1, Surface(1, 1), mk)
    w = witten_volume(a1, Surface(1, 1), mk, weight_count=3000)
    assert abs(g.value - w.value) <= 1e-3 * max(abs(w.value), 1e-9)
    assert abs(g.value - 0.6) < 1e-12  # closed form 1 - t


def test_glue_degenerate_marking_finite(a1):
    rep = glue_volume(a1, Surface(1, 1), Marking.of(a1, [t_mu(a1, 1)]))
    assert rep.value == 0.0  # admissible region empty at the alcove corner


def test_glue_two_pants_matches_four_marked_kappa(a1):
    mus = [t_mu(a1, t) for t in ("2/5", "1/2", "3/5", "1/3")]
    g = glue_volume(a1, Surface(0, 4), Marking.of(a1, mus))
    k = sphere_volume_kappa(a1, mus)
    assert abs(g.value - k.value) <= 1e-6


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_glue_two_pants_rank2_matches_four_marked_kappa(name):
    """The gluing integral covers the alcove, whose vertices are not
    always the fundamental weights (G2), with the |dnu| normalization."""
    rs = build_root_system(name)
    mus = [
        rs.from_weight_coords(vec([Q(a), Q(b)]))
        for a, b in [("1/8", "1/5"), ("1/9", "1/7"), ("1/7", "1/6"), ("1/10", "1/4")]
    ]
    g = glue_volume(rs, Surface(0, 4), Marking.of(rs, mus))
    k = sphere_volume_kappa(rs, mus)
    assert abs(g.value - k.value) <= 1e-12 * k.value


# (group, markings, cells of the jump-line arrangement) of four-marked spheres
TWO_PANTS = [
    ("A1", ["2/5", "1/2", "3/5", "1/3"], 5),
    ("A1", ["1/2", "1/2", "1/2", "1/2"], 1),
    ("A2", ["1/4,1/5", "1/3,1/7", "2/7,1/6", "1/5,1/4"], 141),
    ("B2", ["1/4,1/5", "1/3,1/7", "2/7,1/6", "1/5,1/4"], 518),
    ("C2", ["1/8,1/5", "1/9,1/7", "1/7,1/6", "1/10,1/4"], 573),
    ("G2", ["1/4,1/5", "1/5,1/4", "1/6,1/4", "1/4,1/6"], 1373),
]


@pytest.mark.parametrize("name, marks, cells", TWO_PANTS,
                         ids=[f"{name}-marks{i}" for i, (name, *_) in enumerate(TWO_PANTS)])
def test_glue_two_pants_exact_rational(name, marks, cells):
    """Gluing two pants along a circle gives the four-marked kappa-sum
    exactly: the same rational with the same normalization.  The cell
    count of the jump-line arrangement is pinned."""
    rs = build_root_system(name)
    mus = [rs.from_weight_coords(vec(m.split(","))) for m in marks]
    g = glue_volume(rs, Surface(0, 4), Marking.of(rs, mus))
    k = sphere_volume_kappa(rs, mus)
    assert g.exact == k.exact
    assert k.exact["rational"] > 0
    assert g.value == k.value
    assert g.parameters["cells"] == cells


def _boundary_marking(rs, rng):
    """A marking of the closed alcove with denominators 4-8, now and then
    with a coordinate on the boundary."""
    while True:
        coords = [Q(rng.randint(1, d // 3), d) for d in (rng.randint(4, 8) for _ in range(rs.rank))]
        if rng.random() < 0.15:
            coords[rng.randrange(rs.rank)] = Q(0)
        mu = rs.from_weight_coords(vec(coords))
        if alcove_membership(rs, mu)[0] != "outside":
            return mu


def test_glue_two_pants_random_markings_exact():
    """On seeded four-marked spheres, boundary coordinates included, the
    gluing integral equals the kappa-sum exactly, or both fail alike."""
    rng = random.Random(1)
    nonzero = 0
    for i in range(24):
        rs = build_root_system(["A1", "A2", "B2", "C2"][i % 4])
        mus = [_boundary_marking(rs, rng) for _ in range(4)]
        out = []
        for route in (lambda: glue_volume(rs, Surface(0, 4), Marking.of(rs, mus)),
                      lambda: sphere_volume_kappa(rs, mus)):
            try:
                out.append(route().exact)
            except ValueError as exc:
                out.append(type(exc))
        assert out[0] == out[1], (rs.spec.name, mus)
        nonzero += isinstance(out[0], dict) and out[0]["rational"] != 0
    assert nonzero >= 5


def _factor_record(rs, slots) -> list:
    """An `AlcoveFactor`'s lines (with the indices of their arguments) and
    jumps, in dict order: line, cuts, and each jump's integer form."""
    factor = gluing.AlcoveFactor(rs, slots)
    return [[[list(line), arguments] for line, arguments in factor.lines.items()],
            [[list(line), [str(c) for c in cuts], [[list(ints.items()), den] for ints, den in polys]]
             for line, (cuts, polys) in factor.jumps().items()]]


# sha256 of the factor records and `glue_volume` reports of seeded markings
# (denominator 12): the (1,1) factor [m0, *NU, NU], the (0,4) factors
# [m0, m1, NU] (the A1 oracle's) and [m2, m3, *NU], and both reports
GLUE_RECORD_DIGESTS = {
    "A1": "e0c0fdd423934e6729f6a8697b0fba19092391d4bb9d7646e9678ca83f326587",
    "A2": "2204021b01f8c9511edf1d7140ab5c5d41423f17e4c5fb7ab5691557540ef897",
    "B2": "051eec63b8aa3b07d5e6e6f56ee8ceedb6217c25d1aaf61d5bc3cf631014735c",
    "G2": "90fbb74ba6cb27c411c3b573937c7b4d6902c833c3b60435738d6c56a33c6103",
}


@pytest.mark.parametrize("name", sorted(GLUE_RECORD_DIGESTS))
def test_glue_records_pinned(name):
    rs = build_root_system(name)
    kappa_build(rs).enumerate_support_chambers()  # jumps read every support chamber
    rng = random.Random(f"glue-pin-{name}")
    m = [rational_alcove_point(rs, rng, 12) for _ in range(4)]
    records = [_factor_record(rs, slots) for slots in
               ([m[0], moduli.STAR_NU, moduli.NU], [m[0], m[1], moduli.NU],
                [m[2], m[3], moduli.STAR_NU])]
    records += [glue_volume(rs, Surface(1, 1), Marking.of(rs, m[:1])).to_json_dict(),
                glue_volume(rs, Surface(0, 4), Marking.of(rs, m)).to_json_dict()]
    digest = hashlib.sha256(json.dumps(records, default=str).encode()).hexdigest()
    assert digest == GLUE_RECORD_DIGESTS[name]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_alcove_factor_on_a_fresh_root_system(name):
    """`jumps` and `cell_polynomial` build the support chambers they read:
    on a fresh root system, whichever is called first, they equal those of
    a factor whose chambers were all built beforehand."""
    def factor(rs):
        marks = [[Q(1, 4), Q(1, 5)], [Q(1, 3), Q(1, 7)]] if rs.rank == 2 else [[Q(1, 4)], [Q(1, 3)]]
        return gluing.AlcoveFactor(rs, [*(rs.from_weight_coords(vec(m)) for m in marks), moduli.NU])

    warm = build_root_system(name)
    kappa_build(warm).enumerate_support_chambers()
    corners = gluing._alcove_corners(warm)
    middle = [sum(Q(c[i], c[-1]) for c in corners) / len(corners) for i in range(warm.rank)]
    points = [*corners, gluing._point(scaled(middle, d := common_denominator(middle)), d)]
    direction = (1,) * warm.rank

    def cells(f):
        return [f.cell_polynomial(p, direction) for p in points]

    expected_jumps, expected_cells = factor(warm).jumps(), cells(factor(warm))
    assert expected_jumps and any(ints for ints, _ in expected_cells)
    fresh = factor(RootSystem(GroupSpec.parse(name)))
    assert (fresh.jumps(), cells(fresh)) == (expected_jumps, expected_cells)
    fresh = factor(RootSystem(GroupSpec.parse(name)))
    assert (cells(fresh), fresh.jumps()) == (expected_cells, expected_jumps)


# exact (rational, cells) of the rank-2 one-holed tori below
ONE_HANDLE_RANK2 = {"B2": (Q(143, 32000), 93), "G2": (Q(59587, 4915200000), 573),
                    "A2": (Q(33, 800), 28)}


@pytest.mark.parametrize("name, mark, rel_tol", [
    ("B2", "1/4,1/5", 1e-9),
    ("G2", "1/8,1/5", 1e-9),
    ("A2", "1/4,1/5", 1e-3),  # the series residual is larger here
])
def test_glue_one_handle_rank2_matches_witten(name, mark, rel_tol):
    rs = build_root_system(name)
    mk = Marking.of(rs, [rs.from_weight_coords(vec(mark.split(",")))])
    g = glue_volume(rs, Surface(1, 1), mk)
    w = witten_volume(rs, Surface(1, 1), mk, weight_count=20000)
    assert abs(g.value - w.value) <= rel_tol * abs(w.value)
    assert g.exact["normalization"] == "1" and g.value == float(g.exact["rational"])
    assert (g.exact["rational"], g.parameters["cells"]) == ONE_HANDLE_RANK2[name]


@pytest.mark.parametrize("name, mark", [
    ("A2", "1/2,0"), ("B2", "0,1/3"), ("C2", "1/2,0"), ("G2", "0,1/2")])
def test_glue_one_handle_rank2_boundary_marking(name, mark):
    """A marking on a wall of the alcove gives a one-holed torus of volume
    0, with no line across which the pants volume jumps: one cell."""
    rs = build_root_system(name)
    g = glue_volume(rs, Surface(1, 1), Marking.of(rs, [rs.from_weight_coords(vec(mark.split(",")))]))
    assert (g.exact["rational"], g.parameters["cells"]) == (0, 1)


def test_glue_one_handle_singular_argument_maps():
    """At the A2 barycenter *mu = mu, and arguments w1 mu + w2 *nu + nu
    with a singular w2 * + 1 meet one line with several walls; each
    argument counts once in the jump across it.  The cells' polynomials
    agree with the kappa-sum at their centroids, and a 512-node midpoint
    grid gives 0.03703."""
    rs = build_root_system("A2")
    mk = Marking.of(rs, [rs.from_weight_coords(vec(["1/3", "1/3"]))])
    assert glue_volume(rs, Surface(1, 1), mk).exact["rational"] == Q(1, 27)


def test_rank2_alcove_corners_counterclockwise():
    """The gluing walk takes the alcove's edges counterclockwise in the
    order `Alcove.vertices` lists them, which every rank-2 alcove does."""
    for series, rank in sorted(_SUPPORTED):
        if rank == 2:
            rs = build_root_system(f"{series}{rank}")
            v0, v1, v2 = verts = rs.alcove.vertices
            assert det([vsub(v1, v0), vsub(v2, v0)]) > 0, series
            assert [tuple(Q(x, p[-1]) for x in p[:-1])
                    for p in gluing._alcove_corners(rs)] == list(verts)


def test_glue_whole_alcove_on_wall(a1):
    # at t = 0 the argument w1 = -1, l = 0 lies on the wall for every nu,
    # where the degree-0 kappa jumps
    with pytest.raises(OnWallError):
        glue_volume(a1, Surface(1, 1), Marking.of(a1, [t_mu(a1, 0)]))


def test_a4_pants_kappa_sum_equals_toric_decomposition():
    rs = build_root_system("A4")
    mus = [
        rs.from_weight_coords(vec(s.split(",")))
        for s in ("1/9,1/11,1/13,1/10", "1/10,1/12,1/14,1/9", "1/8,1/13,1/11,1/12")
    ]
    pants = pants_volume_kappa(rs, *mus)
    terms, toric = toric_decomposition(rs, *mus)
    assert toric.exact["rational"] == pants.exact["rational"] > 0
    assert len(terms) == 167


def test_glue_unsupported(a1):
    with pytest.raises(UnsupportedDecompositionError):
        glue_volume(a1, Surface(2, 1), Marking.of(a1, [t_mu(a1, "1/2")]))


def test_four_marked_sphere_symmetry(a1):
    mus = [t_mu(a1, t) for t in ("2/5", "1/2", "3/5", "1/3")]
    base = sphere_volume_kappa(a1, mus).exact["rational"]
    for perm in itertools.permutations(mus):
        assert sphere_volume_kappa(a1, list(perm)).exact["rational"] == base


@pytest.mark.parametrize("surface, count", [((1, 1), 2), ((0, 4), 3), ((0, 4), 5)])
def test_glue_rejects_wrong_marking_count(a1, surface, count):
    mk = Marking.of(a1, [t_mu(a1, "1/3")] * count)
    with pytest.raises(ValueError, match="boundary count"):
        glue_volume(a1, Surface(*surface), mk)
