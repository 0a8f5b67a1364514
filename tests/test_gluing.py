"""The gluing walk's parts against slow references: the line-restricted
facet integrals against the triangle rule, the line arrangement's sorted
crossings against Fractions, and a factor's polynomial read along one
direction, then across by another, against one combined direction."""

import itertools
import math
import operator
import random
from fractions import Fraction as Q
from functools import reduce

import pytest

from flatvol import Marking, Surface, build_root_system, glue_volume
from flatvol import gluing, moduli
from flatvol.kappa import _primitive


def _cone_integral(factors: list[tuple[dict, int]], points: tuple) -> Q:
    """Integral of a product of integer forms over the cone from the origin
    over a facet, signed by its orientation: conv(0, p, q) with det(p, q),
    or for rank 1 conv(0, p) with p.

    On s p + t q the product is a sum of terms h s^(n-j) t^j, and the
    simplex integral of s^(n-j) t^j is j! (n - j)! / (n + 2)!; for rank 1,
    q = 0 and (n + 1)! replaces (n + 2)!.  (The walk's triangle rule
    before it integrated along lines.)
    """
    rank = len(points[0]) - 1
    den = math.lcm(*(x[-1] for x in points))
    pts = [tuple(x * (den // pt[-1]) for x in pt[:-1]) for pt in points]
    if rank == 1:
        (p,), q, volume = pts, (0,), pts[0][0]
    else:
        (p, q), volume = pts, pts[0][0] * pts[1][1] - pts[0][1] * pts[1][0]
    tops = [max(map(sum, ints)) for ints, _ in factors]
    top = sum(tops)
    fact = [math.factorial(n) for n in range(top + rank + 1)]
    lifts = []  # coefficients in t of (p_i s + q_i t)^e
    for pi, qi in zip(p, q):
        rows = [[1]]
        for _ in range(max(tops)):
            last = rows[-1]
            rows.append([a * pi + b * qi for a, b in zip(last + [0], [0] + last)])
        lifts.append(rows)
    product = {(0, 0): 1}  # (degree n, power j of t) -> coefficient, times den^top
    for (ints, _), degree in zip(factors, tops):
        restricted: dict = {}
        for m, c in ints.items():
            n = sum(m)
            coeffs = [c * den ** (degree - n)]
            for rows, e in zip(lifts, m):
                row = rows[e]
                nxt = [0] * (len(coeffs) + len(row) - 1)
                for i, a in enumerate(coeffs):
                    for j, b in enumerate(row):
                        nxt[i + j] += a * b
                coeffs = nxt
            for j, v in enumerate(coeffs):
                restricted[n, j] = restricted.get((n, j), 0) + v
        nxt_product: dict = {}
        for (n1, j1), a in product.items():
            for (n2, j2), b in restricted.items():
                key = (n1 + n2, j1 + j2)
                nxt_product[key] = nxt_product.get(key, 0) + a * b
        product = nxt_product
    total = sum(v * fact[j] * fact[n - j] * (fact[top + rank] // fact[n + rank])
                for (n, j), v in product.items())
    dens = math.prod(d for _, d in factors)
    return Q(volume * total, fact[top + rank] * den ** (top + rank) * dens)


def _form(rng, rank: int, degree: int) -> tuple[dict, int]:
    """A random integer form of degree `degree` (its top monomial nonzero)."""
    monomials = [m for m in itertools.product(range(degree + 1), repeat=rank) if sum(m) <= degree]
    ints = {m: rng.randint(-40, 40) for m in monomials if rng.random() < 0.7}
    ints[(degree,) + (0,) * (rank - 1)] = rng.choice([-1, 1]) * rng.randint(1, 40)
    return {m: c for m, c in ints.items() if c}, rng.randint(1, 30)


def _rational_point(rng, rank: int) -> tuple[int, ...]:
    den = rng.randint(1, 13)
    return gluing._point([rng.randint(-3 * den, 3 * den) for _ in range(rank)], den)


def test_line_rule_matches_triangle_rule():
    """On seeded rational segments [p, q], the cone integral of a product
    of random integer forms restricted to the line through p and q (some
    of degree 0) equals the triangle rule's, exactly; so does a sum of
    such products, carried as restricted forms."""
    rng = random.Random(37)
    for case in range(60):
        p, q = _rational_point(rng, 2), _rational_point(rng, 2)
        if p == q:
            continue
        line = gluing._Line(gluing._cross(p, q))
        degrees = [rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(rng.randint(1, 3))]
        forms = [_form(rng, 2, d) for d in degrees]
        restricted = [line.restrict(f, d) for f, d in zip(forms, degrees)]
        product = reduce(gluing._times, restricted)
        assert line.integral(product, p, q) == _cone_integral(forms, (p, q)), case
        # the reverse facet has the opposite sign
        assert line.integral(product, q, p) == -_cone_integral(forms, (p, q))
        # a second product of the same degrees, summed as restricted forms
        others = [_form(rng, 2, d) for d in degrees]
        total = gluing._plus(product, reduce(gluing._times, (
            line.restrict(f, d) for f, d in zip(others, degrees))), -1)
        assert line.integral(total, p, q) == (_cone_integral(forms, (p, q))
                                               - _cone_integral(others, (p, q))), case


def test_point_rule_matches_triangle_rule():
    """Rank 1 keeps point facets: the integral over [0, p] of a product of
    random forms equals the triangle rule's, exactly."""
    rng = random.Random(38)
    for case in range(40):
        p = _rational_point(rng, 1)
        forms = [_form(rng, 1, rng.choice([0, 0, 1, 3])) for _ in range(rng.randint(1, 3))]
        assert gluing._point_integral(forms, p) == _cone_integral(forms, (p,)), case


def _reference_stops(corners, line, lines):
    """A line's ends on the alcove's boundary and its crossings with the
    other lines inside, as Fractions sorted by their position along it,
    each with the set of lines through it."""
    def affine(p):
        return tuple(Q(x, p[-1]) for x in p[:-1])

    def position(z):
        return line[1] * z[0] - line[0] * z[1]

    edges = [gluing._cross(p, q) for p, q in zip(corners, corners[1:] + corners[:1])]

    def inside(z):
        return all(e[0] * z[0] + e[1] * z[1] + e[2] > 0 for e in edges)

    ends = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        fp, fq = (gluing._line_value(line, v) for v in (p, q))
        if not fp:
            ends.append(affine(p))
        elif fp * fq < 0:
            zp, zq = affine(p), affine(q)
            s = Q(fp * q[-1], fp * q[-1] - fq * p[-1])  # where the line meets [p, q]
            ends.append(tuple(a + s * (b - a) for a, b in zip(zp, zq)))
    crossings: dict = {}
    for other in lines:
        x, y, den = gluing._cross(line, other)
        if den and inside(z := (Q(x, den), Q(y, den))):
            crossings.setdefault(z, set()).add(other)
    first, last = sorted(ends, key=position)
    inner = sorted(crossings, key=position)
    return [first, *inner, last], [crossings[z] for z in inner]


def _lines_through(rng, corners, count):
    """Primitive lines through two random points of the open alcove."""
    def interior():
        weights = [rng.randint(1, 9) for _ in corners]
        total = sum(weights)
        return tuple(sum(Q(w * c[i], c[-1]) for w, c in zip(weights, corners)) / total
                     for i in range(2))

    out = []
    while len(out) < count:
        (x0, y0), (x1, y1) = interior(), interior()
        if (x0, y0) == (x1, y1):
            continue
        a, b, k = y0 - y1, x1 - x0, x0 * y1 - x1 * y0
        d = math.lcm(a.denominator, b.denominator, k.denominator)
        out.append(_primitive((int(a * d), int(b * d), int(k * d))))
    return out


@pytest.mark.parametrize("name", ["A2", "G2"])
def test_arrangement_matches_fraction_reference(name):
    """Each line's stops (its ends and its crossings inside the alcove, in
    order along it) and the lines through them equal a Fraction-sorted
    reference; four of the lines meet in one point, and one of those
    passes through an alcove corner."""
    rs = build_root_system(name)
    corners = gluing._alcove_corners(rs)
    rng = random.Random(f"arrangement-{name}")
    lines = _lines_through(rng, corners, 14)
    centre = tuple(sum(Q(c[i], c[-1]) for c in corners) / 3 for i in range(2))
    # three lines through the centre, and a fourth through it and corner 1
    for a, b in [(1, 2), (2, -1), (3, 1)]:
        k = -(a * centre[0] + b * centre[1])
        lines.append(_primitive((a * k.denominator, b * k.denominator, int(k * k.denominator))))
    c1 = tuple(Q(x, corners[1][-1]) for x in corners[1][:-1])
    a, b = centre[1] - c1[1], c1[0] - centre[0]
    k = -(a * c1[0] + b * c1[1])
    d = math.lcm(a.denominator, b.denominator, k.denominator)
    lines.append(_primitive((int(a * d), int(b * d), int(k * d))))
    lines = sorted(set(lines))
    arrangement = gluing._Arrangement(rs, lines)
    den = math.lcm(*(x.denominator for x in centre))
    centre_point = gluing._point([int(x * den) for x in centre], den)
    assert sum(centre_point in arrangement.index[line] for line in lines) == 4
    for line in lines:
        stops, through = _reference_stops(corners, line, lines)
        got = arrangement.stops[line]
        assert [tuple(Q(x, p[-1]) for x in p[:-1]) for p in got] == stops, line
        assert [set(t) for t in arrangement.through[line][1:-1]] == through, line
        assert arrangement.through[line][0] == arrangement.through[line][-1] == []
        assert arrangement.index[line] == {p: s for s, p in enumerate(got)}
    # each end lies on the edge whose (corner e, corner e + 1] holds it, in order
    ends = {}
    for e, stops in enumerate(arrangement.edges):
        assert stops[-1] == (corners[(e + 1) % 3], stops[-1][1])
        for point, on in stops:
            for line in on:
                ends.setdefault(line, set()).add(point)
    assert ends == {line: {stops[0], stops[-1]} for line, stops in arrangement.stops.items()}
    assert any(corners[1] in arrangement.stops[line] for line in lines)


def test_along_orders_float_ties_exactly():
    """Points whose positions round to one float are ordered by exact
    cross-multiplication."""
    big = 10**20
    points = [gluing._point([x, 0], d) for x, d in
              [(big + 1, 3 * big), (1, 3), (big - 1, 3 * big), (2, 3), (-1, 7)]]
    assert gluing._along((0, 1, 0), points) == [points[i] for i in (4, 2, 1, 0, 3)]
    assert gluing._along((0, -1, 0), points) == [points[i] for i in (3, 0, 1, 2, 4)]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2"])
@pytest.mark.parametrize("surface", ["0,4", "1,1"])
def test_cell_polynomial_reads_along_then_across(name, surface):
    """`cell_polynomial(p, along, across)` reads each wall through p from
    `along`, else from `across`: the same as one direction M along + across
    with M = 1 + max |a.across| over the factor's wall normals a.  It is
    read at the alcove's corners, its edge midpoints and its centroid,
    with (along, across) an edge's counterclockwise direction and inward
    normal, as the walk starts, on a factor of the slot pattern of the
    surface's glue.  The (0,4) factor's second marking is the dual of the
    first, so walls of kappa pass through corner 0; in B2, C2 and G2 some
    run along an edge there, where `across` decides."""
    rs = build_root_system(name)
    m0 = rs.from_weight_coords([Q(1, 4)] if rs.rank == 1 else [Q(1, 4), Q(1, 5)])
    slots = [m0, moduli.star(rs, m0) if surface == "0,4" else moduli.STAR_NU, moduli.NU]
    factor = gluing.AlcoveFactor(rs, slots)
    args = factor._alcove_args
    normals = [a for *_, walls, _ in args for a, _ in walls]
    corners = gluing._alcove_corners(rs)
    if rs.rank == 1:
        points, pairs = [*corners, gluing._centroid(corners)], [((1,), (0,)), ((-1,), (0,))]
    else:
        sides = list(zip(corners, corners[1:] + corners[:1]))
        points = [*corners, *(gluing._centroid(list(side)) for side in sides),
                  gluing._centroid(corners)]
        pairs = [((e[1], -e[0]), e[:2]) for e in (gluing._cross(*side) for side in sides)]
    decided = 0
    for along, across in pairs:
        big = 1 + max(abs(sum(map(operator.mul, a, across))) for a in normals)
        beside = tuple(big * x + y for x, y in zip(along, across))
        for p in points:
            assert factor.cell_polynomial(p, along, across) == factor.cell_polynomial(p, beside)
            decided += any(
                not sum(map(operator.mul, a, p[:-1])) + k * p[-1]
                and not sum(map(operator.mul, a, along)) and sum(map(operator.mul, a, across))
                for *_, walls, _ in args for a, k in walls)
    assert decided or name in ("A1", "A2") or surface == "1,1"


# (group, surface, weight coordinates, exact rational, cells) at markings of
# denominator 2^61 - 1, whose lines and arguments leave int64: the
# Python-int paths of the factor set-up and of the arrangement
BIG = 2**61 - 1
BIG_DENOMINATOR = [
    ("A1", (1, 1), [[Q(BIG // 3, BIG)]],
     Q(1537228672809129301, 2305843009213693951), 3),
    ("A2", (0, 4), [[Q(BIG // 4, BIG), Q(BIG // 5, BIG)], [Q(1, 3), Q(1, 7)],
                    [Q(2, 7), Q(1, 6)], [Q(1, 5), Q(1, 4)]],
     Q(163812209720210360953834041802600568818919578453590004635899471,
       91558276694980279503244893209041903008833755311790003075078310400), 141),
]


@pytest.mark.parametrize("name, surface, marks, rational, cells", BIG_DENOMINATOR,
                         ids=[f"{name}-{h}{b}" for name, (h, b), *_ in BIG_DENOMINATOR])
def test_glue_big_denominator_pinned(name, surface, marks, rational, cells):
    rs = build_root_system(name)
    mus = [rs.from_weight_coords(tuple(m)) for m in marks]
    second = moduli.STAR_NU if surface == (1, 1) else mus[1]
    factor = gluing.AlcoveFactor(rs, [mus[0], second, moduli.NU])
    assert max(abs(x) for line in factor.lines for x in line) ** 2 > 2**62
    report = glue_volume(rs, Surface(*surface), Marking.of(rs, mus))
    assert (report.exact["rational"], report.parameters["cells"]) == (rational, cells)
