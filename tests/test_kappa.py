import hashlib
import json
import math
import random
from fractions import Fraction as Q
from itertools import combinations, count
from operator import add, mul

import numpy as np
import pytest

from flatvol import (
    GroupSpec,
    OnWallError,
    RootSystem,
    SymmetricPoly,
    build_root_system,
    kappa_build,
    kappa_point,
    pullback_operator,
    vec,
)
from flatvol.kappa import (
    DegenerateArrangementError, PiecewisePolynomial, VectorConfig, _row_products,
)
from flatvol.liecore import _SUPPORTED
from flatvol.poly import poly_add, poly_const, poly_eval, poly_mul, poly_subs_affine
from flatvol.exact import common_denominator, det, inverse, mat_t, nullspace, scaled, vdot

from conftest import forbid


def test_a1_value_and_wall(a1):
    kv = kappa_point(a1, vec([Q(1, 3)]))
    assert kv.rational == 1 and kv.det_gram == 2
    assert abs(kv.value - 1 / math.sqrt(2)) < 1e-15
    with pytest.raises(OnWallError):
        kappa_point(a1, vec([0]))
    assert kappa_point(a1, vec([Q(-1, 5)])).rational == 0


def test_a2_min_formula(a2):
    # fiber of (a, b) is a segment of length min(a, b) in the kernel line
    for (a, b), expect in [((2, 1), 1), ((1, 3), 1), ((Q(1, 2), Q(1, 3)), Q(1, 3))]:
        assert kappa_point(a2, vec([a, b])).rational == expect
    onwall = kappa_point(a2, vec([3, 3]))
    assert onwall.rational == 3 and onwall.on_wall
    assert kappa_point(a2, vec([-1, 2])).rational == 0


def test_outside_support_everywhere_zero(b2, g2):
    rng = random.Random(1)
    for rs in (b2, g2):
        for _ in range(20):
            xi = vec([-Q(rng.randint(1, 9), 7), Q(rng.randint(-9, 9), 5)])
            assert kappa_point(rs, xi).rational == 0


@pytest.mark.parametrize(
    "name,multiplicity",
    [("A1", 1), ("A2", 1), ("B2", 1), ("C2", 1), ("G2", 1), ("A3", 1),
     ("B2", 2), ("A2", 3), ("G2", 2)],
    ids=["A1", "A2", "B2", "C2", "G2", "A3", "B2x2", "A2x3", "G2x2"],
)
def test_spline_equals_fiber_volumes(name, multiplicity):
    rs = build_root_system(name)
    spline = kappa_build(rs, multiplicity)
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        xi = vec([Q(rng.randint(1, 40), rng.randint(1, 13)) for _ in range(rs.rank)])
        if spline.on_wall(xi):
            continue
        assert spline.value_exact(xi) == kappa_point(rs, xi, multiplicity).rational
        checked += 1


def reference_vertex_sum(cfg, xi):
    """Lawrence's vertex formula term by term in Fractions: a Fraction
    inverse and feasibility test per basis, and w_s y_s^d as d successive
    products by the linear form y_s, with the same objective c_j = 1/(k+j)
    (least k >= 2 with every reduced cost nonzero) as the spline."""
    bases = []
    for sigma in combinations(range(cfg.n), cfg.rank):
        basis = mat_t(tuple(cfg.vectors[i] for i in sigma))
        d = det(basis)
        if d:
            bases.append((sigma, inverse(basis), d))
    for k in count(2):
        c = [Q(1, k + j) for j in range(cfg.n)]
        terms = []
        for sigma, inv, d in bases:
            y = [sum((c[i] * row[col] for i, row in zip(sigma, inv)), Q(0))
                 for col in range(cfg.rank)]
            costs = [c[j] - vdot(y, cfg.vectors[j]) for j in range(cfg.n) if j not in sigma]
            if 0 in costs:
                break
            weight = 1 / (math.factorial(cfg.degree) * abs(d) * math.prod(-g for g in costs))
            terms.append((inv, weight, y))
        else:
            break
    out = {}
    for inv, weight, y in terms:
        if all(vdot(row, xi) > 0 for row in inv):
            form = {tuple(int(i == col) for i in range(cfg.rank)): yc
                    for col, yc in enumerate(y) if yc}
            term = poly_const(weight, cfg.rank)
            for _ in range(cfg.degree):
                term = poly_mul(term, form)
            out = poly_add(out, term)
    return out


@pytest.mark.parametrize(
    "name,multiplicity",
    [("A2", 1), ("A2", 2), ("A2", 3), ("B2", 1), ("B2", 2), ("G2", 1), ("G2", 2), ("A3", 1)],
    ids=["A2", "A2x2", "A2x3", "B2", "B2x2", "G2", "G2x2", "A3"],
)
def test_integer_vertex_table_matches_reference_sum(name, multiplicity):
    """The integer vertex table and one-denominator vertex sums give every
    chamber polynomial of the Fraction vertex formula, coefficient by
    coefficient and in the same monomial order."""
    rs = build_root_system(name)
    spline = kappa_build(rs, multiplicity)
    if rs.rank == 2:
        points = [ch.sample_point for ch in spline.enumerate_support_chambers()]
    else:
        grid = [vec(p) for p in [(1, 2, 3), (3, 2, 1), (2, 3, 2), (1, 1, 3), (4, 1, 2), (1, 4, 2),
                                    (5, 3, 1), (2, 5, 4)]]
        points = [xi for xi in grid if not spline.on_wall(xi)]
    assert points
    for xi in points:
        poly = spline.chamber_polynomial_at(xi)
        assert list(poly.items()) == list(reference_vertex_sum(spline.config, xi).items())


def per_basis_vertex_sum(cfg, xi):
    """`PiecewisePolynomial._vertex_sum` basis by basis: each entry of the
    vertex table tested for feasibility by Python dot products, the
    feasible term lists added, and the sum reduced with the denominator."""
    entries, den = cfg.vertex_table
    x = scaled(xi, common_denominator(xi))
    acc = [0] * len(cfg.monomials)
    for rows, term in entries:
        if all(sum(map(mul, row, x)) > 0 for row in rows):
            acc = list(map(add, acc, term))
    g = math.gcd(den, *acc)
    return [c // g for c in acc], den // g


def per_basis_truncated_power(cfg, xi):
    """`VectorConfig.truncated_power` with each basis's coordinates t made
    by Python dot products, and the program's nodes evaluated in turn."""
    nodes, rows, leaf, leaf_den, common = cfg.power_program
    den = common_denominator(xi)
    x = scaled(xi, den)
    taus = [[sum(map(mul, row, x)) for row in inv] for inv in rows]
    values = []
    for key, children in nodes:
        tau = taus[key]
        if children is None:
            values.append(leaf[key] if all(t > 0 for t in tau) else 0)
        else:
            values.append(sum(tau[pos] * values[child] for pos, child in children))
    return Q(values[-1], leaf_den * math.factorial(cfg.degree) * (common * den) ** cfg.degree)


# every group at multiplicities 1-3, but C3 x3, A4 x2-3 and D4 x2-3, whose
# vertex tables take 10 s and more to build
STACKED_CASES = [(g, m) for g in ("A1", "A2", "B2", "C2", "G2", "A3") for m in (1, 2, 3)] + [
    ("C3", 1), ("C3", 2), ("A4", 1), ("D4", 1)]


@pytest.mark.parametrize("name,multiplicity", STACKED_CASES)
def test_stacked_passes_match_per_basis_reference(name, multiplicity):
    """The stacked feasibility test of the vertex sum and the stacked basis
    coordinates of the recurrence give the per-basis reference's chamber
    numerators and values: in int64 at seeded points, and on Python-int
    objects at points of denominator 2^61 - 1, whose scaled coordinates
    lie above 2^62."""
    rs = build_root_system(name)
    spline = kappa_build(rs, multiplicity)
    cfg = spline.config
    assert cfg.vertex_arrays[0][0].dtype == np.int64 and cfg.power_rows[0].dtype == np.int64
    rng = random.Random(f"stacked-{name}-{multiplicity}")
    prime = 2**61 - 1
    for huge in (False, True):
        checked = 0
        while checked < 3:
            if huge:
                xi = vec([Q(rng.randint(2**62, 2**64), prime) for _ in range(rs.rank)])
            else:
                xi = vec([Q(rng.randint(1, 40), rng.randint(1, 13)) for _ in range(rs.rank)])
            if cfg.on_wall(xi):
                continue
            x = scaled(xi, common_denominator(xi))
            dtype = object if huge else np.int64
            assert _row_products(cfg.power_rows, x).dtype == dtype
            assert _row_products(cfg.vertex_arrays[0], x).dtype == dtype
            numerators, den = per_basis_vertex_sum(cfg, xi)
            chamber = PiecewisePolynomial(cfg, spline.label).chamber_at(xi)
            assert (chamber.numerators, chamber.den) == (numerators, den)
            assert cfg.truncated_power(xi) == per_basis_truncated_power(cfg, xi)
            checked += 1


def test_spline_slow_types_smoke():
    for name, pts in [("C3", 2), ("A4", 2), ("D4", 1)]:
        rs = build_root_system(name)
        spline = kappa_build(rs)
        rng = random.Random(5)
        done = 0
        while done < pts:
            xi = vec([Q(rng.randint(1, 10), rng.randint(1, 5)) for _ in range(rs.rank)])
            if spline.on_wall(xi):
                continue
            assert spline.value_exact(xi) == kappa_point(rs, xi).rational
            done += 1


@pytest.mark.parametrize(
    "name,multiplicity",
    [(g, m) for g in ("A1", "A2", "B2", "C2", "G2", "A3") for m in (1, 2, 3)]
    + [("C3", 1), ("A4", 1), ("D4", 1)],
)
def test_truncated_power_equals_fiber_volume(name, multiplicity):
    """The truncated-power recurrence equals the fiber-polytope volume
    exactly at seeded points off every wall, inside the support cone and
    outside it (a negative coordinate, or for A1 a negative point).  A
    fiber volume of A3 x3 takes seconds at a generic interior point, so
    that case has one interior point near the alpha_3 ray instead."""
    rs = build_root_system(name)
    cfg = kappa_build(rs, multiplicity).config
    rng = random.Random(f"truncated-power-{name}-{multiplicity}")
    points = []
    while len(points) < (0 if (name, multiplicity) == ("A3", 3) else 3):
        xi = vec([Q(rng.randint(1, 12), rng.randint(1, 7)) for _ in range(rs.rank)])
        if not cfg.on_wall(xi):
            points.append(xi)
    if (name, multiplicity) == ("A3", 3):
        points.append(vec([Q(1, 40), Q(1, 60), 1]))
    while len(points) < 5:
        xi = vec([-Q(rng.randint(1, 12), rng.randint(1, 7))]
                 + [Q(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(rs.rank - 1)])
        if not cfg.on_wall(xi):
            points.append(xi)
    for xi in points:
        assert cfg.truncated_power(xi) == cfg.density(xi), (name, multiplicity, xi)
    assert cfg.truncated_power(points[0]) > 0
    nodes = cfg.power_program[0]
    if name == "A1" and multiplicity == 1:  # degree 0: one basis, value 1/|det| = 1
        assert nodes == [(0, None)] and cfg.truncated_power(points[0]) == 1
    if (name, multiplicity) == ("A2", 2):  # the recursion drops a child that does not span
        assert any(kids is not None and len(kids) < cfg.rank for _, kids in nodes)


def test_truncated_power_refuses_wall_points(a1, a2):
    with pytest.raises(OnWallError):
        kappa_build(a2).config.truncated_power(vec([3, 3]))
    with pytest.raises(OnWallError):
        kappa_build(a1, 2).config.truncated_power(vec([0]))


# sha256 of the JSON of `vertex_table` (entries, denominator) and of
# `power_program` (nodes, rows, leaf values, L, E), per (group, multiplicity):
# both are pure ints, so any change of scale or of basis order shows
CONFIG_TABLE_DIGESTS = {
    ("A1", 1): ("c5a0c55e5955b72a6aec05eca113a500ef97eab1e8a6b1a7ad0361eb3bda2274",
                "927ba5f2940796a582b8f7213d9cd37990277adace78fc144d9f1724b9e847d0"),
    ("A2", 1): ("49ac2517988ee1b928c763bdac51788c77e67f8f13fedf118c526e0e60143f88",
                "3ab22778b6ad612b873ed5ae189053f05c654ca63399782671a28ef8ed750cc9"),
    ("A3", 1): ("228a88f6d9a100be94ac5b6d3de79d2d9fb3a792f3812139317fb06755eaf0f5",
                "ad2fb8de800349c338b4ca0de39e9718ae6d0ae1138a65f2e83605fc719aaea7"),
    ("A4", 1): ("ef128804576e82b91fde7203cfd910b4c252e7dc34909ff822a5fcfb55017001",
                "65205448f7696f0cd4ad7698e98cd041a727fd15e54d06f6098aae3bbf101311"),
    ("B2", 1): ("f2975c125f9c7b8157865886927f6409640f57fab7142ff16553dc911f14e040",
                "ca0e886a175f3bbe9dc4b5f1af7d7c4a1b2209168405e5009ba9167b499a024e"),
    ("C2", 1): ("2d216d2e3338345a98f6ce6f81e6f132935b54116e67a246e8268278d2c18178",
                "53d301a12ef10d9709ca8467b582a22edf1af5eb32ca90ce233ec7e96826ecb0"),
    ("C3", 1): ("f793657f6fef1a780eea458a5e1297eab7f8857f49eef4039fdd230d468807f1",
                "627cf9ae46bcb3344b458dc371717d893426875014306f59ca63f76008b0138a"),
    ("D4", 1): ("d7e9ec1342eab2c76b23a18c32950a007ec1153cbc007b1210416f66bde1746e",
                "f73cd3ccf4efa641573ceaa80ac1bbc778402314bffb4787584ed077d45a8d8f"),
    ("G2", 1): ("d6f484ca10406943e785e3c1e9bc7c50375b3a8bf94f8c7f50113d2b1119fb51",
                "e00e5198bca63703e726aeaf5d505097865c9e0f3ae6cc2157ad8730e6a78bef"),
    ("A1", 2): ("7a2779c9ffc8f0b3c79f37809e79cd58016e22e18d29e7de4ea6be1740af3b27",
                "b949d30f1dee3cbe7d5713240347e5e141c1831d0b0b7dfda7f15e6e16d90d7a"),
    ("A2", 2): ("063deb80fd9c0fd1973964d26cb47cdff26fba203cba1b2c8e5fb90e3b576325",
                "425eddc86ca4d56f4c75820ac8efe2414b2027b60b82952eb9ff0ce65f342c12"),
    ("B2", 2): ("954521c2bb7942edd9e3cb32376affd38e141d87fccf5ec4b945944062940bcd",
                "ea5fcebd0d8185587528e13a298a97c8253cb18c5a678f142233991cb0a4c285"),
    ("G2", 2): ("7727f2da09df961bf6fa1c5347585f84c64c71ab4ae412d296ee4f5aacdc6692",
                "dd8d5a58aabbd02d531b2f8897a61d57e23760d1aad090e0a3cdb47d049aa15d"),
    ("A2", 3): ("c78d4b395ba827119710dd7f898751be25d24a8b489258c24544f0effdb01e03",
                "de1c14338f70d4c9bc641142c3c81495ef5d88cac98e6a8b378d4d3fa95dbc0e"),
}


@pytest.mark.parametrize("name, multiplicity", sorted(CONFIG_TABLE_DIGESTS))
def test_config_tables_pinned(name, multiplicity):
    cfg = kappa_build(build_root_system(name), multiplicity).config
    digests = tuple(hashlib.sha256(json.dumps(table).encode()).hexdigest()
                    for table in (cfg.vertex_table, cfg.power_program))
    assert digests == CONFIG_TABLE_DIGESTS[name, multiplicity]


# sha256 of `kappa_point`'s (rational, on_wall), or the error's name, at
# seeded points of small numerators and denominators: many lie on walls
# and about a third have a negative coordinate
KAPPA_POINT_DIGESTS = {
    ("A1", 1): "8255643e099c03b773f4271e3d66368c39d05cd51f85f50ebbbad1ead47d9e87",
    ("A1", 2): "20e268f4e305b81bd705fe97a4b099b04232ef7ae39f8e8edcfcaec8e23ceac5",
    ("A1", 3): "e775607921e7eec692ed2bd75eb73011683168e8564919ff5f68706759ceba1b",
    ("A2", 1): "e6565c28f99904ed8c57f95fb3f1e6b181fe17d1cfc623f26095d8e342dfaf3b",
    ("A2", 2): "7098084f0416b36450d1b6d172594f38837d45ced50739dbfdc86a9ff0c2310b",
    ("A2", 3): "26228fe0fb4d0228c8ca1d3b5e5b1c1253ec5e8475993b94ad4b5c1f4e79f945",
    ("B2", 1): "e1b75c149dc20d877a6ca4ee13cef13b0d6408a901a32ba20ad8098a09637fe6",
    ("B2", 2): "a5c502d90fbf11c1653000e3eb688b61085ff5fb8b568381b4638d0980bb4c52",
    ("B2", 3): "763ab940dec48431f19464b2ddc87dfcb45b21f48b9e22c2b836ecbd2f39943e",
    ("G2", 1): "62cef92a041e8084652710bbd2b24410001bb1ce45f1bf067cad7f4c553f1103",
    ("G2", 2): "0a3ee7acd4a856d90266c70bffd0345373f47e61eec526b8f3c6e0bc8441be6b",
    ("G2", 3): "3965b5e6a745a0de75123929f723fe041d311a40398a4da18110c17af308ef6d",
}


def _kappa_point_records(rs, multiplicity: int) -> list:
    """`kappa_point` at 16 seeded points of small denominators, some on
    walls: [rational, on_wall] each, or the name of the error raised."""
    rng = random.Random(f"kappa-point-{rs.spec.name}-{multiplicity}")
    records = []
    for _ in range(16):
        xi = vec([Q(rng.randint(-1, 4), rng.randint(1, 3)) for _ in range(rs.rank)])
        try:
            kv = kappa_point(rs, xi, multiplicity)
            records.append([str(kv.rational), kv.on_wall])
        except OnWallError as exc:
            records.append(type(exc).__name__)
    return records


@pytest.mark.parametrize("name, multiplicity", sorted(KAPPA_POINT_DIGESTS))
def test_kappa_point_pinned(name, multiplicity):
    records = _kappa_point_records(build_root_system(name), multiplicity)
    assert any(r == "OnWallError" or r[1] for r in records)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == KAPPA_POINT_DIGESTS[name, multiplicity]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_kappa_point_reads_no_vertex_table_or_recurrence(monkeypatch, name):
    """On a fresh root system, with the vertex formula's table and the
    truncated-power recurrence's program replaced by sentinels that raise,
    `kappa_point` (the fiber-polytope volume) gives the same values, wall
    flags and wall errors as unpatched; the recurrence itself stops at
    its sentinel."""
    expected = [_kappa_point_records(build_root_system(name), m) for m in (1, 2)]
    forbid(monkeypatch, VectorConfig, "vertex_table", "power_program")
    fresh = RootSystem(GroupSpec.parse(name))
    assert [_kappa_point_records(fresh, m) for m in (1, 2)] == expected
    config = kappa_build(fresh).config
    xi = vec([Q(1, p) for p in (2, 3, 7)[:fresh.rank]])
    assert not config.on_wall(xi)
    with pytest.raises(AssertionError, match="is forbidden here"):
        config.truncated_power(xi)


def test_chamber_check_catches_a_wrong_vertex_sum(monkeypatch):
    """A vertex sum with one numerator of its integer form shifted fails
    the one-point check."""
    vertex_sum = PiecewisePolynomial._vertex_sum

    def shifted(self, xi):
        numerators, den = vertex_sum(self, xi)
        return [numerators[0] + 1, *numerators[1:]], den

    monkeypatch.setattr(PiecewisePolynomial, "_vertex_sum", shifted)
    rs = build_root_system("A2")
    spline = PiecewisePolynomial(kappa_build(rs).config, label="A2:kappa^1")
    with pytest.raises(DegenerateArrangementError):
        spline.value_exact(vec([2, 1]))
    assert not spline.chambers


def test_chamber_check_reads_the_signs_once(monkeypatch):
    """A new chamber's wall signs are read by `chamber_at` and once more by
    its check, whose recurrence makes no second wall test; a chamber
    loaded from a dump is checked in full, its signs read once.  A dumped
    chamber whose sample point lies on a wall or on another side fails."""
    rs = build_root_system("A2")
    config = kappa_build(rs).config
    reads = []
    sign_vector = VectorConfig.sign_vector
    monkeypatch.setattr(VectorConfig, "sign_vector",
                        lambda self, xi: reads.append(xi) or sign_vector(self, xi))
    spline = PiecewisePolynomial(config, label="A2:kappa^1")
    spline.value_exact(vec([2, 1]))
    assert reads == [vec([2, 1])] * 2
    data = spline.to_json_dict()
    reads.clear()
    PiecewisePolynomial(config, label=spline.label).load_chambers_json(data)
    assert reads == [vec([2, 1])]
    for point in (["3/2", "3/2"], ["1", "2"]):
        data["chambers"][0]["sample_point"] = point
        fresh = PiecewisePolynomial(config, label=spline.label)
        with pytest.raises(ValueError, match="one-point check"):
            fresh.load_chambers_json(data)
        assert not fresh.chambers


def test_homogeneity_exact(a2, b2, g2):
    rng = random.Random(2)
    for rs in (a2, b2, g2):
        deg = rs.n_positive - rs.rank
        spline = kappa_build(rs)
        for _ in range(100):
            xi = vec([Q(rng.randint(1, 30), rng.randint(1, 11)) for _ in range(rs.rank)])
            t = Q(rng.randint(1, 9), rng.randint(1, 9))
            lhs = spline.value_exact(vec([t * c for c in xi]))
            rhs = t**deg * spline.value_exact(xi)
            assert lhs == rhs


def test_a1_single_chamber_constant(a1):
    spline = kappa_build(a1)
    chambers = spline.enumerate_support_chambers()
    assert len(chambers) == 1
    assert chambers[0].polynomial == {(0,): Q(1)}


def test_a2_chambers_piecewise_linear(a2):
    spline = kappa_build(a2)
    chambers = spline.enumerate_support_chambers()
    # walls along alpha1, alpha2 and alpha1+alpha2 cut the support cone
    # into two full-dimensional sectors
    assert len(chambers) == 2
    polys = sorted(str(sorted(c.polynomial.items())) for c in chambers)
    assert polys == ["[((0, 1), Fraction(1, 1))]", "[((1, 0), Fraction(1, 1))]"]


def test_nudge_direction_crosses_every_wall():
    """The nudge direction has a nonzero product with every wall normal of
    every supported group (walls do not depend on multiplicity); a
    configuration with a wall through it is refused."""
    for series, rank in sorted(_SUPPORTED):
        rs = build_root_system(f"{series}{rank}")
        cfg = VectorConfig(list(rs.positive_roots), det_gram=rs.det_gram)
        assert all(vdot(u, cfg.nudge) != 0 for u in cfg.walls)
    with pytest.raises(DegenerateArrangementError):
        VectorConfig([vec([1, 0]), vec([0, 1]), vec([4, 1])], det_gram=Q(1))


def test_vector_config_refuses_a_negative_coordinate():
    """Every evaluator reads a point with a negative coordinate as outside
    the support, which holds only when the vectors have none."""
    with pytest.raises(ValueError, match="negative coordinate"):
        VectorConfig([vec([1, 0]), vec([0, 1]), vec([1, -1])], det_gram=Q(1))


def test_vector_config_refuses_a_non_integral_vector():
    """The vertex table and the truncated-power program are built in ints
    from the vectors themselves."""
    with pytest.raises(ValueError, match="integral"):
        VectorConfig([vec([1, 0]), vec([0, 1]), vec([Q(1, 2), 1])], det_gram=Q(1))


@pytest.mark.parametrize(
    "name,multiplicity",
    [(f"{s}{r}", 1) for s, r in sorted(_SUPPORTED)] + [("B2", 2), ("A2", 3)],
)
def test_values_stay_fractions(name, multiplicity):
    """The three evaluators return Fractions, and so do the coefficients of
    every built chamber, at dyadic points: a float leak there passes an
    equality test, since 0.5 == Fraction(1, 2)."""
    rs = build_root_system(name)
    spline = kappa_build(rs, multiplicity)
    cfg = spline.config
    rng = random.Random(f"fractions-{name}-{multiplicity}")
    points = []
    while len(points) < 2:
        xi = vec([Q(rng.randint(1, 16), 2 ** rng.randint(0, 3)) for _ in range(rs.rank)])
        if not cfg.on_wall(xi):
            points.append(xi)
    for xi in points:
        values = (cfg.density(xi), cfg.truncated_power(xi), spline.value_exact(xi))
        assert all(type(v) is Q for v in values) and len(set(values)) == 1, (xi, values)
    assert all(type(c) is Q for ch in spline.chambers.values() for c in ch.polynomial.values())


def test_chamber_polynomial_on_a_wall(a1, a2):
    """On a wall, positive degree reads the chamber the nudge direction
    points to, whose polynomial gives the value there; degree 0 raises."""
    xi = vec([3, 3])  # on the wall spanned by alpha1 + alpha2
    poly = kappa_build(a2).chamber_polynomial_at(xi)
    assert poly_eval(poly, xi) == kappa_point(a2, xi).rational == 3
    with pytest.raises(OnWallError, match="degree-0"):
        kappa_build(a1).chamber_polynomial_at(vec([0]))


@pytest.mark.parametrize(
    "name,multiplicity,points",
    [
        ("B2", 2, [(3, 3), (1, 2), (2, 4), (0, Q(3, 2)), (Q(5, 2), 0), (0, 0)]),
        ("A2", 3, [(3, 3), (Q(7, 5), Q(7, 5)), (0, 2), (Q(7, 3), 0), (0, 0)]),
        ("G2", 2, [(1, 1), (2, 3), (Q(3, 2), Q(9, 4)), (0, Q(5, 2)), (Q(5, 3), 0), (0, 0)]),
        ("D4", 1, [(3, 4, 3, 3), (1, 2, 1, 1), (2, 3, 2, 2), (0, 3, 2, 1)]),
    ],
    ids=["B2x2", "A2x3", "G2x2", "D4"],
)
def test_fiber_volume_at_degenerate_points(name, multiplicity, points):
    """At points on one wall, on several walls and on the support-cone
    boundary several bases give one vertex of the fiber polytope; its
    volume still equals the adjacent chamber polynomial there."""
    rs = build_root_system(name)
    spline = kappa_build(rs, multiplicity)
    walls_hit = set()
    for p in points:
        xi = vec(p)
        walls_hit.add(spline.config.sign_vector(xi).count(0))
        expect = poly_eval(spline.chamber_polynomial_at(xi), xi)
        assert kappa_point(rs, xi, multiplicity).rational == expect, (name, p)
    assert 0 not in walls_hit and max(walls_hit) >= 2


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_wall_continuity_exact(name):
    """Chamber polynomials agree identically on every shared wall.

    Support-facet walls compare the inside polynomial against zero; the
    difference of the two side polynomials, restricted to an exact
    parametrization of the wall, must vanish as a polynomial.
    """
    rs = build_root_system(name)
    spline = kappa_build(rs)
    cfg = spline.config
    rng = random.Random(7)
    tested = 0
    for u in cfg.walls:
        on_wall_vectors = [v for v in set(cfg.vectors) if vdot(u, v) == 0]
        if not on_wall_vectors:
            continue
        basis = nullspace([u], rs.rank)
        pt = None
        for _ in range(40):
            coeffs = [Q(rng.randint(1, 9), rng.randint(1, 5)) for _ in on_wall_vectors]
            cand = tuple(
                sum(c * v[i] for c, v in zip(coeffs, on_wall_vectors))
                for i in range(rs.rank)
            )
            if cfg.sign_vector(cand).count(0) == 1:
                pt = cand
                break
        if pt is None:
            continue
        pt_signs = cfg.sign_vector(pt)
        side_polys = []
        for side in (1, -1):
            eps = Q(1, 10**7)
            poly = None
            for _ in range(24):
                cand = tuple(p + side * eps * uu for p, uu in zip(pt, u))
                s = cfg.sign_vector(cand)
                adjacent = 0 not in s and all(
                    a == b for a, b in zip(s, pt_signs) if b != 0
                )
                if adjacent:
                    if all(c >= 0 for c in cand):
                        poly = spline.chamber_polynomial_at(cand)
                    else:
                        poly = {}  # outside the support: kappa vanishes
                    break
                eps /= 2
            assert poly is not None, (name, u)
            side_polys.append(poly)
        diff = dict(side_polys[0])
        for m, c in side_polys[1].items():
            nc = diff.get(m, Q(0)) - c
            if nc == 0:
                diff.pop(m, None)
            else:
                diff[m] = nc
        forms = []
        for i in range(rs.rank):
            form = {}
            for k, bv in enumerate(basis):
                if bv[i] != 0:
                    mono = tuple(1 if j == k else 0 for j in range(len(basis)))
                    form[mono] = bv[i]
            forms.append(form)
        restricted = poly_subs_affine(diff, forms)
        assert restricted == {}, (name, u)
        tested += 1
    assert tested >= rs.rank + 1


def test_a2_fiber_area_vs_monte_carlo(a2):
    """Pushforward density at a point agrees with a Monte-Carlo estimate."""
    xi = vec([Q(3, 2), Q(1)])
    exact = kappa_point(a2, xi).value
    rng = np.random.default_rng(42)
    n = 10**6
    # sample x3 uniform on [0, c]; fiber nonempty iff x3 <= min(a, b);
    # reconstruct density of a = x1 + x3, b = x2 + x3 pushforward by
    # counting mass of the box [0,A]x[0,B]x[0,C] mapping into a cell.
    # Direct check instead: area of {x >= 0: x1 + x3 = 3/2, x2 + x3 = 1}
    # equals min(3/2, 1) along x3 with the kernel-line metric folded into
    # the coordinate Jacobian; estimate by rejection on the x3 segment.
    a, b = 1.5, 1.0
    x3 = rng.uniform(0, 2, size=n)
    inside = (x3 <= a) & (x3 <= b)
    seg = 2 * inside.mean()  # length of feasible x3 interval
    sigma = 2 * inside.std() / math.sqrt(n)
    coord_density = seg  # kappa_c equals the x3 segment length for A2
    est = coord_density / math.sqrt(float(a2.det_gram))
    assert abs(est - exact) < 3 * sigma + 1e-12
    assert exact > 0


def test_product_configuration_factorizes():
    """Union of two orthogonal rank-1 configurations: the truncated power
    is the product of the factors (convolution of measures on
    complementary axes), checked pointwise and by box quadrature."""
    cfg = VectorConfig([vec([1, 0]), vec([0, 1])], det_gram=Q(1))
    pp = PiecewisePolynomial(cfg, label="a1xa1")
    rng = random.Random(9)
    for _ in range(25):
        x, y = Q(rng.randint(1, 9), 5), Q(rng.randint(1, 9), 7)
        assert pp.value_exact(vec([x, y])) == 1  # 1 * 1
        assert pp.value_exact(vec([-x, y])) == 0
    # 2-d quadrature of the density over [0,2]^2 vs product of 1-d masses
    grid = 64
    total = 0.0
    for i in range(grid):
        for j in range(grid):
            x = Q(2 * i + 1, grid)
            y = Q(2 * j + 1, grid)
            total += float(pp.value_exact(vec([x, y]))) * (2 / grid) ** 2
    assert abs(total - 4.0) < 1e-6


@pytest.mark.parametrize(
    "name,multiplicity",
    [("A2", 1), ("B2", 1), ("C2", 1), ("G2", 1), ("A3", 1), ("A2", 2), ("B2", 2)],
    ids=["A2", "B2", "C2", "G2", "A3", "A2x2", "B2x2"],
)
def test_serialization_roundtrip(name, multiplicity, tmp_path):
    """A dump loaded into a fresh spline dumps to the same bytes, each
    loaded chamber has the built chamber's reduced integer form, and the
    two splines agree at a point."""
    rs = build_root_system(name)
    spline = kappa_build(rs, multiplicity)
    if rs.rank == 2:
        spline.enumerate_support_chambers()
    else:
        for p in [(1, 2, 3), (3, 2, 1), (2, 3, 2), (1, 1, 3), (4, 1, 2), (5, 3, 1)]:
            spline.value_exact(vec(p))
    assert len(spline.chambers) > 1
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    spline.dump_json(str(first))
    fresh = PiecewisePolynomial(spline.config, label=spline.label)
    fresh.load_chambers_json(json.loads(first.read_text()))
    fresh.dump_json(str(second))
    assert second.read_bytes() == first.read_bytes()
    assert list(fresh.chambers) == list(spline.chambers)
    for signs, ch in spline.chambers.items():
        assert math.gcd(ch.den, *ch.numerators) == 1
        loaded = fresh.chambers[signs]
        assert (loaded.numerators, loaded.den) == (ch.numerators, ch.den)
    xi = next(ch.sample_point for ch in spline.chambers.values())
    assert fresh.value_exact(xi) == spline.value_exact(xi)


@pytest.mark.parametrize("key", ["5,5", "0,0,0", "1", "-1,2"])
def test_cache_refuses_a_key_off_the_monomials(a2, key):
    """A polynomial key that is not an exponent tuple of degree d in rank
    variables is refused, even with a zero coefficient, and nothing is
    adopted."""
    spline = kappa_build(a2)
    spline.enumerate_support_chambers()
    data = spline.to_json_dict()
    data["chambers"][0]["polynomial"][key] = "0"
    fresh = PiecewisePolynomial(spline.config, label=spline.label)
    with pytest.raises(ValueError, match="exponent tuple"):
        fresh.load_chambers_json(data)
    assert not fresh.chambers


# -- symmetric polynomials and the operator calculus -------------------------


def test_symmetric_extension_examples():
    """A polynomial in k variables reads each e_l in more variables as it is."""
    e1 = SymmetricPoly.elementary(1, 1)
    assert e1.expand_monomials(3) == {
        (1, 0, 0): Q(1),
        (0, 1, 0): Q(1),
        (0, 0, 1): Q(1),
    }
    # e1^2 in two variables extends to (x1+x2+x3)^2
    e1sq = SymmetricPoly({(2, 0): Q(1)}, 2)
    expanded = e1sq.expand_monomials(3)
    expect = {}
    for i in range(3):
        mono = tuple(2 if j == i else 0 for j in range(3))
        expect[mono] = Q(1)
    for i in range(3):
        for j in range(i + 1, 3):
            mono = tuple(1 if k in (i, j) else 0 for k in range(3))
            expect[mono] = Q(2)
    assert expanded == expect


def test_pullback_operator_a2_by_hand(a2):
    """The A2 roots a1, a2, a1 + a2 pull back to d1, d2 and d1 + d2, so each
    e_l becomes their l-th elementary symmetric polynomial."""
    def op(index):
        return {m: c for c, m in pullback_operator(a2, SymmetricPoly.elementary(index, 3)).terms}

    assert op(1) == {(1, 0): 2, (0, 1): 2}
    assert op(2) == {(2, 0): 1, (1, 1): 3, (0, 2): 1}
    assert op(3) == {(2, 1): 1, (1, 2): 1}


@pytest.mark.parametrize("group", ["A2", "B2", "G2", "A3"])
def test_pullback_operator_equals_root_monomial_route(group):
    """The operator in the rank coordinate derivatives equals, coefficient by
    coefficient, p expanded into monomials in the n root derivatives with
    each root a then replaced by the linear form sum_j a_j d_j."""
    rs = build_root_system(group)
    n, r = rs.n_positive, rs.rank
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = [{u: c for u, c in zip(units, a) if c} for a in rs.positive_roots]
    rng = random.Random(23)
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            expo = [0] * n
            for _ in range(rng.randint(0, 3)):
                expo[rng.randrange(3)] += 1  # e_1, e_2, e_3
            terms[tuple(expo)] = Q(rng.randint(-9, 9), rng.randint(1, 5))
        p = SymmetricPoly(terms, n)
        op = {m: c for c, m in pullback_operator(rs, p).terms}
        assert op == poly_subs_affine(p.expand_monomials(n), roots)


def test_pullback_operator_identity_and_direction(a1, a2):
    one = SymmetricPoly.constant(Q(1))
    op = pullback_operator(a2, one)
    spline = kappa_build(a2)
    xi = vec([Q(5, 2), Q(1)])
    assert poly_eval(op.apply_poly(spline.chamber_polynomial_at(xi)), xi) == spline.value_exact(xi)
    # A1: p = x1 acts as the derivative along alpha
    p = SymmetricPoly.elementary(1, 1)
    op1 = pullback_operator(a1, p)
    sp1 = kappa_build(a1)
    # derivative of the constant chamber polynomial vanishes off walls
    xi = vec([Q(2, 3)])
    assert poly_eval(op1.apply_poly(sp1.chamber_polynomial_at(xi)), xi) == 0


def test_apply_operator_finite_difference(a2):
    """A first-order operator applied to a chamber polynomial equals the
    central difference of the spline, exactly: the chambers are linear."""
    spline = kappa_build(a2)
    p = SymmetricPoly.elementary(1, 1)
    op = pullback_operator(a2, p)
    rng = random.Random(21)
    checked = 0
    h = Q(1, 100000)
    while checked < 20:
        xi = vec([Q(rng.randint(2, 40), 13), Q(rng.randint(2, 40), 13)])
        if spline.on_wall(xi):
            continue
        val = poly_eval(op.apply_poly(spline.chamber_polynomial_at(xi)), xi)
        fd = Q(0)
        crossed = False
        for d in a2.positive_roots:
            up = vec([x + h * c for x, c in zip(xi, d)])
            dn = vec([x - h * c for x, c in zip(xi, d)])
            if spline.config.sign_vector(up) != spline.config.sign_vector(dn):
                crossed = True
                break
            fd += (spline.value_exact(up) - spline.value_exact(dn)) / (2 * h)
        if crossed:
            continue
        assert val == fd
        checked += 1


def test_second_derivative_of_linear_piece_vanishes(a2):
    spline = kappa_build(a2)
    p2 = SymmetricPoly({(2, 0, 0): Q(1)}, 3)  # e1^2 in three variables
    op = pullback_operator(a2, p2)
    xi = vec([Q(7, 3), Q(1)])
    assert poly_eval(op.apply_poly(spline.chamber_polynomial_at(xi)), xi) == 0


def test_pullback_operator_is_kept_per_root_system(a2):
    """Equal polynomials, in any term order, give the same operator object;
    another polynomial gives another."""
    p = SymmetricPoly({(2, 1): Q(1, 2), (1, 0): Q(3)}, 2)
    op = pullback_operator(a2, p)
    assert pullback_operator(a2, SymmetricPoly(dict(reversed(p.terms.items())), 2)) is op
    assert pullback_operator(a2, SymmetricPoly.elementary(1, 2)) != op
