import cmath
import gc
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import weakref
from fractions import Fraction as Q

import numpy as np
import pytest

from flatvol import (
    DominantWeight,
    GroupSpec,
    Marking,
    RootSystem,
    Surface,
    build_root_system,
    character_eval,
    enumerate_dominant,
    kappa_point,
    star,
    vec,
    weyl_dimension,
    witten_volume,
)
from flatvol import characters
from flatvol.characters import (
    _cutoff_and_weights,
    _shifted_norms,
    _stable_order,
    casimir_cutoff_for_count,
    singular_order,
)
from flatvol.moduli import MAX_WEIGHTS
from flatvol.exact import vadd, vscale

from conftest import rational_alcove_point


def test_dimension_examples(a1, a2):
    assert weyl_dimension(a1, DominantWeight((0,))) == 1
    for m in range(8):
        assert weyl_dimension(a1, DominantWeight((m,))) == m + 1
    # adjoint of A2 sits at rho
    assert weyl_dimension(a2, DominantWeight((1, 1))) == 8
    assert weyl_dimension(a2, DominantWeight((1, 0))) == 3


def test_dimension_positive_integer_everywhere(b2, g2):
    for rs in (b2, g2):
        for lam in enumerate_dominant(rs, casimir_cutoff_for_count(rs, 30))[:30]:
            assert weyl_dimension(rs, lam) >= 1


def test_a1_closed_form():
    rs = build_root_system("A1")
    for m in (1, 2, 3, 7):
        for t in (Q(1, 3), Q(2, 5), Q(1, 2), Q(9, 11)):
            cv = character_eval(rs, DominantWeight((m,)), vec([t / 2]))
            expect = math.sin((m + 1) * math.pi * float(t)) / math.sin(math.pi * float(t))
            assert cv.condition == "regular-evaluation"
            assert abs(cv.value - expect) < 1e-12
    # chi_2 at t = 1/2: sin(3 pi/2)/sin(pi/2) = -1
    cv = character_eval(rs, DominantWeight((2,)), vec([Q(1, 4)]))
    assert abs(cv.value - (-1)) < 1e-12


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_character_at_identity_equals_dimension(name):
    rs = build_root_system(name)
    zero = vec([0] * rs.rank)
    for lam in enumerate_dominant(rs, casimir_cutoff_for_count(rs, 40))[:40]:
        d = weyl_dimension(rs, lam)
        if d > 10**4:
            continue
        cv = character_eval(rs, lam, zero)
        assert cv.condition == "limit-evaluation"
        assert abs(cv.value - d) <= 1e-9 * d


def test_characters_need_no_mpmath():
    code = "\n".join([
        "import sys",
        "sys.modules['mpmath'] = None",
        "from flatvol import build_root_system, character_eval, vec, weyl_dimension",
        "from flatvol.characters import enumerate_dominant",
        "for name in ('A1', 'A2', 'B2', 'G2'):",
        "    rs = build_root_system(name)",
        "    for lam in enumerate_dominant(rs, 60)[:10]:",
        "        cv = character_eval(rs, lam, vec([0] * rs.rank))",
        "        assert abs(cv.value - weyl_dimension(rs, lam)) < 1e-9, (name, lam)",
        "print('ok')",
    ])
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "ok\n"


def test_a1_at_central_element(a1):
    # t = 1 is the center -1 of SU(2): chi_m = (-1)^m (m + 1)
    for m in range(12):
        cv = character_eval(a1, DominantWeight((m,)), vec([Q(1, 2)]))
        assert cv.condition == "limit-evaluation"
        assert abs(cv.value - (-1) ** m * (m + 1)) <= 1e-12 * (m + 1)


def test_a2_at_central_vertices(a2):
    # the nonzero alcove vertices are the central elements of SU(3):
    # chi = dim times a cube root of unity
    weights = enumerate_dominant(a2, casimir_cutoff_for_count(a2, 30))[:30]
    for vertex in a2.alcove.vertices:
        if not any(vertex):
            continue
        for lam in weights:
            d = weyl_dimension(a2, lam)
            cv = character_eval(a2, lam, vertex)
            assert cv.condition == "limit-evaluation"
            assert abs(abs(cv.value) - d) <= 1e-10 * d
            assert abs((cv.value / d) ** 3 - 1) <= 1e-10


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_edge_midpoints_match_nearby_regular_points(name):
    # on one alcove wall (k = 1) the limit equals the regular value a
    # step 1e-7 along rho away, up to that step times the gradient
    rs = build_root_system(name)
    weights = enumerate_dominant(rs, casimir_cutoff_for_count(rs, 10))[:10]
    for a, b in itertools.combinations(rs.alcove.vertices, 2):
        mid = vec([(x + y) / 2 for x, y in zip(a, b)])
        assert singular_order(rs, mid) == 1
        near = vadd(mid, vscale(Q(1, 10**7), rs.rho))
        for lam in weights:
            cv, cn = character_eval(rs, lam, mid), character_eval(rs, lam, near)
            assert (cv.condition, cn.condition) == ("limit-evaluation", "regular-evaluation")
            assert abs(cv.value - cn.value) <= 1e-5 * weyl_dimension(rs, lam)


def test_w_invariance(a2):
    rng = random.Random(4)
    lam = DominantWeight((2, 1))
    mu = vec([Q(1, 5), Q(1, 7)])
    base = character_eval(a2, lam, mu).value
    for w in a2.weyl_elements():
        v = character_eval(a2, lam, w.act(mu)).value
        assert abs(v - base) < 1e-10


def test_duality_via_star(a2, b2):
    for rs in (a2, b2):
        lam = DominantWeight((1, 1))
        mu = rs.from_weight_coords(vec([Q(1, 5), Q(2, 7)]))
        v = character_eval(rs, lam, mu).value
        vd = character_eval(rs, lam, star(rs, mu)).value
        assert abs(vd - v.conjugate()) < 1e-10


def test_real_when_self_dual_at_star_fixed_points(a1, a2):
    # characters are real exactly when conjugation symmetry fixes the data:
    # all of A1, and self-dual weights of A2 at star-fixed alcove points
    cv = character_eval(a1, DominantWeight((5,)), vec([Q(1, 5)]))
    assert abs(cv.value.imag) <= 1e-9 * (1 + abs(cv.value.real))
    lam = DominantWeight((2, 2))
    mu = a2.from_weight_coords(vec([Q(1, 7), Q(1, 7)]))
    assert star(a2, mu) == mu
    cv = character_eval(a2, lam, mu)
    assert abs(cv.value.imag) <= 1e-9 * (1 + abs(cv.value.real))


def test_enumerate_dominant(a1, a2):
    rho_sq = a2.ip(a2.rho, a2.rho)
    assert [w.coords for w in enumerate_dominant(a2, rho_sq)] == [(0, 0)]
    r1 = a1.ip(a1.rho, a1.rho)
    ws = enumerate_dominant(a1, r1 * 25)
    assert [w.coords for w in ws] == [(0,), (1,), (2,), (3,), (4,)]
    # monotone growth in the cutoff
    c1 = len(enumerate_dominant(a2, 20))
    c2 = len(enumerate_dominant(a2, 80))
    assert c2 > c1
    # sorted by shifted norm
    ws2 = enumerate_dominant(a2, 60)
    norms = [
        a2.ip(
            a2.from_weight_coords(vec([c + 1 for c in w.coords])),
            a2.from_weight_coords(vec([c + 1 for c in w.coords])),
        )
        for w in ws2
    ]
    assert norms == sorted(norms)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_dominant_weights_match_exact_walk(name):
    """The array walk gives every dominant weight with |lambda+rho|^2 <= cutoff,
    in the order of sorted (norm, coords), as an exact Fraction walk of
    the same box does; the cutoff for a count is the first doubling of
    4 |rho|^2 that reaches it."""
    rs = build_root_system(name)
    cutoff = 12 * rs.ip(rs.rho, rs.rho)
    top = [int(math.isqrt(math.floor(cutoff / rs.ip(w, w)))) for w in rs.fundamental_weights]
    walk = []
    for v in itertools.product(*(range(1, t + 1) for t in top)):
        lam_rho = rs.from_weight_coords(vec(v))
        if rs.ip(lam_rho, lam_rho) <= cutoff:
            walk.append((rs.ip(lam_rho, lam_rho), tuple(c - 1 for c in v)))
    assert [w.coords for w in enumerate_dominant(rs, cutoff)] == [c for _, c in sorted(walk)]
    for count in (1, 7, 40):
        cut = casimir_cutoff_for_count(rs, count)
        assert len(enumerate_dominant(rs, cut)) >= count
        assert cut == 4 * rs.ip(rs.rho, rs.rho) or len(enumerate_dominant(rs, cut / 2)) < count


def doubling_cutoff_search(rs, count):
    """The cutoff search box by box: 4 |rho|^2 doubled until the weight
    list of `_shifted_norms` holds count entries, and that list."""
    cutoff = rs.ip(rs.rho, rs.rho) * 4
    while len((box := _shifted_norms(rs, cutoff))[0]) < count:
        cutoff *= 2
    return cutoff, box[1]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_cutoff_search_matches_doubling_loop(name, monkeypatch):
    """The cutoff read off one box's sorted norms is the doubling loop's,
    and the weights are its last box, element for element; also when the
    first box is built steps above or below the loop's last one."""
    rs = build_root_system(name)
    for count in (1, 2000, 4000, 20000, MAX_WEIGHTS):
        cutoff, weights = _cutoff_and_weights(rs, count)
        ref_cutoff, ref_weights = doubling_cutoff_search(rs, count)
        assert cutoff == ref_cutoff and type(cutoff) is type(ref_cutoff), count
        assert weights.dtype == ref_weights.dtype and np.array_equal(weights, ref_weights), count
    for count in (2000, 4000):
        ref_cutoff, ref_weights = doubling_cutoff_search(rs, count)
        last = int(math.log2(ref_cutoff / (4 * rs.ip(rs.rho, rs.rho))))
        for step in (1, max(1, last - 1), last + 1, last + 2):
            monkeypatch.setattr(characters, "_first_step", lambda *_: step)
            cutoff, weights = _cutoff_and_weights(rs, count)
            assert cutoff == ref_cutoff and np.array_equal(weights, ref_weights), (count, step)


# sha256 of the Weyl dimensions of the first 60 dominant weights and of
# `_cutoff_and_weights` (cutoff, weight coordinates) at counts 1, 500, 4 000
WEIGHT_TABLE_DIGESTS = {
    "A1": "f6dd1a6386286fd9063dccf7579060afedfc87d36eac87058644d60cb826b944",
    "A2": "5eb30d121c948f3c93af3d73b08944b8b855b9b8687a3550893872a39c6a3009",
    "A3": "d695e8e3bef955be2d49a1f1ee1539bf1b7c6e202e70e25621bd67c1d9dc5f4f",
    "A4": "94316ce9c1ddfaf564ff48db3c4ea1cd4091e11c20a7694ca421855062b3c607",
    "B2": "d8f4bc1d68ae4f32f9648171bd4cd8c764835e25874204d2a0af4b5b3f93412c",
    "C2": "c892e84643245d75e3ea20fcb5bbb4531653695e9ce5b72045591da185fb2a0d",
    "C3": "f767f9b2fcca084b3a914b614b2b22b0a0ac80c087752912cb78c7f3dd15f84f",
    "D4": "20ea606d7d1130d33fb716a751b4c7e42d9844687cc4c5697442bb4c11eebc7e",
    "G2": "c6bfbe831fdd08cee1d9e831b925f7acc800e7674dd81ca7af90ab0736aebaa9",
}


@pytest.mark.parametrize("name", sorted(WEIGHT_TABLE_DIGESTS))
def test_weight_tables_pinned(name):
    rs = build_root_system(name)
    weights = enumerate_dominant(rs, casimir_cutoff_for_count(rs, 60))[:60]
    records = [[weyl_dimension(rs, lam) for lam in weights]]
    for count in (1, 500, 4000):
        cutoff, coords = _cutoff_and_weights(rs, count)
        records.append([str(cutoff), coords.tolist()])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == WEIGHT_TABLE_DIGESTS[name]


def test_root_system_tables_do_not_outlive_it():
    """The weight and kappa tables are kept on the root system, not in a
    module-level cache: a root system nothing refers to is collected."""
    rs = RootSystem(GroupSpec("A", 2))
    ref = weakref.ref(rs)
    _shifted_norms(rs, 60)
    mus = [rs.from_weight_coords(vec(m)) for m in ([Q(1, 4), Q(1, 5)], [Q(1, 3), Q(1, 7)],
                                                    [Q(2, 7), Q(1, 6)])]
    witten_volume(rs, Surface(0, 3), Marking.of(rs, mus), weight_count=500)
    kappa_point(rs, vec([Q(1, 2), Q(1, 3)]))
    del rs
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["A1", "A2"])
def test_weyl_orthogonality_quadrature(name):
    """int_A chi_lam chi_sig-bar |Delta|^2 dmu = delta * covol within 1e-6.

    Computed without divisions: the integrand is the product of the
    alternating numerator sums, which stays finite on the alcove walls.
    This pins the measure normalization used by the gluing integrals.
    """
    rs = build_root_system(name)
    weights = enumerate_dominant(rs, casimir_cutoff_for_count(rs, 6))[:6]
    covol = math.sqrt(float(rs.det_coroot_gram))
    gram = np.array([[float(x) for x in row] for row in rs.gram])

    if rs.rank == 1:
        xs, qws = np.polynomial.legendre.leggauss(100)
        xs, qws = (xs + 1) / 2, qws / 2
        alpha_len = math.sqrt(float(rs.norm_sq(rs.simple_roots[0])))
        mus = (xs / 2)[:, None]  # simple-root coordinate of (t/2) alpha
        wts = qws * alpha_len / 2
    else:
        n1d = 100
        xs, qws = np.polynomial.legendre.leggauss(n1d)
        xs, qws = (xs + 1) / 2, qws / 2
        gw = [[float(rs.ip(a, b)) for b in rs.fundamental_weights]
              for a in rs.fundamental_weights]
        area = math.sqrt(gw[0][0] * gw[1][1] - gw[0][1] * gw[1][0])
        w1 = np.array([float(c) for c in rs.fundamental_weights[0]])
        w2 = np.array([float(c) for c in rs.fundamental_weights[1]])
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        WX, WY = np.meshgrid(qws, qws, indexing="ij")
        x = X.ravel()
        y = (Y * (1 - X)).ravel()  # Duffy map of the square onto the triangle
        mus = x[:, None] * w1[None, :] + y[:, None] * w2[None, :]
        wts = (WX * WY * (1 - X)).ravel() * area
    gmu = mus @ gram.T
    numerators = []
    for w in weights:
        lam_rho = np.array([float(a + b) for a, b in zip(w.vector(rs), rs.rho)])
        total = np.zeros(len(gmu), dtype=complex)
        for welt in rs.weyl_elements():
            wm = np.array([[float(c) for c in row] for row in welt.matrix])
            total += welt.sign * np.exp(2j * np.pi * (gmu @ (wm @ lam_rho)))
        numerators.append(total)
    for i in range(len(weights)):
        for j in range(len(weights)):
            total = np.sum(wts * numerators[i] * np.conj(numerators[j]))
            expect = covol if i == j else 0.0
            assert abs(total - expect) < 1e-6, (name, i, j, total)


def _reference_sums(rs, weights, mu) -> tuple[np.ndarray, complex]:
    """The Weyl sums of chi_lambda(e^mu), (numerators per weight, denominator),
    each phase taken exactly modulo 1 as a Fraction before `cmath.exp`; at a
    singular mu each term is weighted by <w(lambda+rho), rho>^k,
    k = singular_order(rs, mu)."""
    k = singular_order(rs, mu)

    def weyl_sum(v):
        return sum(w.sign * cmath.exp(2j * math.pi * (rs.ip(w.act(v), mu) % 1))
                   * float(rs.ip(w.act(v), rs.rho)) ** k for w in rs.weyl_elements())

    return (np.array([weyl_sum(vadd(rs.from_weight_coords(vec(lam)), rs.rho))
                      for lam in weights.tolist()]), weyl_sum(rs.rho))


def _assert_table_matches_reference(rs, weights, mu, near_wall=False):
    """`character_table` against `_reference_sums`, normwise to 1e-12.

    Near a wall the denominator is about the distance to it, and any float
    evaluation's rounding in the numerators, some ulps of their unit terms,
    is divided by it; there the numerators, table * denominator, are
    compared at the scale of their terms, |W| per weight."""
    table = characters.character_table(rs, weights + 1, mu)
    nums, den = _reference_sums(rs, weights, mu)
    if near_wall:
        error = np.linalg.norm(table * den - nums)
        scale = len(rs.weyl_elements()) * math.sqrt(len(weights))
    else:
        error, scale = np.linalg.norm(table - nums / den), np.linalg.norm(nums / den)
    assert error <= 1e-12 * scale, (rs.spec.name, mu, error, scale)


def _spread_weights(rs, terms=1200):
    """About terms / |W| weights, 40 at most, spread over the first 2 000 of
    the series."""
    count = min(40, terms // len(rs.weyl_elements()))
    weights = _cutoff_and_weights(rs, 2000)[1][:2000]
    return weights[:: len(weights) // count][:count]


@pytest.mark.parametrize("name", sorted(WEIGHT_TABLE_DIGESTS))
def test_character_table_matches_exact_reduction(name):
    """Seeded regular markings, and markings 1e-7 off a wall: a seeded point
    of a facet (the alcove vertices but one) moved 1e-7 of the way to the
    alcove's centroid."""
    rs = build_root_system(name)
    rng = random.Random(f"character-table-{name}")
    weights = _spread_weights(rs)
    verts = rs.alcove.vertices
    centroid = [sum(c) / len(verts) for c in zip(*verts)]
    for _ in range(3):
        mu = rational_alcove_point(rs, rng, 97)
        assert singular_order(rs, mu) == 0
        _assert_table_matches_reference(rs, weights, mu)
    for j in range(len(verts)):
        coefs = [Q(rng.randint(1, 9)) for _ in range(len(verts) - 1)]
        facet = [sum(c * v[i] for c, v in zip(coefs, verts[:j] + verts[j + 1:])) / sum(coefs)
                 for i in range(rs.rank)]
        mu = vec([f + Q(1, 10**7) * (c - f) for f, c in zip(facet, centroid)])
        assert singular_order(rs, mu) == 0
        _assert_table_matches_reference(rs, weights, mu, near_wall=True)


@pytest.mark.parametrize("name", sorted(WEIGHT_TABLE_DIGESTS))
def test_character_table_limit_matches_exact_reduction(name):
    """At the alcove vertices and edge midpoints (singular, k >= 1) the
    table is the limit along rho of the exactly reduced sums."""
    rs = build_root_system(name)
    weights = _spread_weights(rs, 600)
    verts = rs.alcove.vertices
    mids = [vec([(x + y) / 2 for x, y in zip(a, b)]) for a, b in itertools.combinations(verts, 2)
            if rs.rank > 1]  # the A1 alcove's midpoint is regular
    for mu in [*verts, *mids]:
        assert singular_order(rs, mu) >= 1
        _assert_table_matches_reference(rs, weights, mu)


def test_character_table_huge_denominators(a2):
    """A marking of denominator about 2^32, whose pairings stay int64 (the
    fundamental character nearly vanishes there), and one of denominator
    2^61 - 1, whose power table is made from Python ints."""
    mu = a2.from_weight_coords(vec([Q(1431655775, 4294967311), Q(1, 3)]))
    weights = _spread_weights(a2)
    _assert_table_matches_reference(a2, weights, mu)
    fundamental = characters.character_table(a2, np.array([[2, 1]]), mu)[0]
    assert abs(fundamental - (-5.9123e-9 - 3.4135e-9j)) < 1e-13
    p = 2**61 - 1
    mu = a2.from_weight_coords(vec([Q(p // 3 - 5, p), Q(1, 3)]))
    assert characters._weyl_pairings(a2, mu)[1] * (int(weights.max()) + 1) >= 2**63
    _assert_table_matches_reference(a2, weights, mu)


def test_character_eval_large_weight(a2, b2):
    """A single weight far out in the series reads only the powers it has."""
    for rs in (a2, b2):
        mu = rs.from_weight_coords(vec([Q(1, 5), Q(2, 7)]))
        lam = np.array([[10**6, 3]])
        value = character_eval(rs, DominantWeight((10**6, 3)), mu).value
        nums, den = _reference_sums(rs, lam, mu)
        assert abs(value - nums[0] / den) <= 1e-12 * abs(nums[0] / den)


def test_stable_order_is_the_stable_argsort():
    """The packed-key sort orders norms like a stable argsort, ties by
    index, and so does its fallback for norms from 2^31 up."""
    rng = np.random.default_rng(5)
    for top in (1, 50, 2**31 - 1, 2**40):
        q = rng.integers(0, top, size=3000, dtype=np.int64)
        assert np.array_equal(_stable_order(q), np.argsort(q, kind="stable")), top
    assert len(_stable_order(np.zeros(0, dtype=np.int64))) == 0

