import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from flatvol import (
    GroupSpec,
    UnsupportedTypeError,
    alcove_membership,
    build_root_system,
    covolume_T,
    enumerate_waff_positive,
    star,
    volume_G,
)
from flatvol.exact import (
    _int_form, det, lattice_points_in_ball, mat_t, matvec, solve, vadd, vec, vdot, vscale, vsub,
)
from flatvol.liecore import RootSystem

from conftest import coroot_vector, run_for_chambers

SUPPORTED = {
    # name: (positive roots, Weyl order, center order)
    "A1": (1, 2, 2),
    "A2": (3, 6, 3),
    "A3": (6, 24, 4),
    "A4": (10, 120, 5),
    "B2": (4, 8, 2),
    "C2": (4, 8, 2),
    "C3": (9, 48, 2),
    "D4": (12, 192, 4),
    "G2": (6, 12, 1),
}


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_root_system_counts(name):
    npos, worder, center = SUPPORTED[name]
    rs = build_root_system(name)
    assert rs.n_positive == npos
    assert len(rs.weyl_elements()) == worder
    assert rs.center_order == center
    assert (rs.dim_g - rs.rank) // 2 == npos


def reference_weyl(rs):
    """The Weyl group generated in Fractions: close the simple reflections
    under products, count inversions, sort by (length, matrix)."""
    refl = [
        tuple(tuple(Q(int(k == j)) - (rs.cartan_matrix[i][j] if k == i else 0)
                    for j in range(rs.rank)) for k in range(rs.rank))
        for i in range(rs.rank)
    ]
    seen = {tuple(tuple(Q(int(i == j)) for j in range(rs.rank)) for i in range(rs.rank))}
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for r in refl:
                img = tuple(tuple(vdot(row, col) for col in zip(*m)) for row in r)
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return sorted(
        (sum(all(c <= 0 for c in matvec(m, r)) for r in rs.positive_roots), m) for m in seen
    )


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_integer_weyl_group(name):
    """The Weyl group is stored once, as integer matrices: they equal the
    Fraction generation entry for entry, with the same lengths and order,
    each sign is the determinant, and acting on Fractions gives Fractions."""
    rs = RootSystem(GroupSpec.parse(name))
    weyl = rs.weyl_elements()
    assert len(weyl) == SUPPORTED[name][1]
    assert [(w.length, w.matrix) for w in weyl] == reference_weyl(rs)
    assert all(type(x) is int for w in weyl for row in w.matrix for x in row)
    assert all(w.sign == det(w.matrix) for w in weyl)
    assert all(type(x) is Q for w in weyl for x in w.act(rs.rho))


def reference_positive_roots(rs):
    """The positive roots generated in Fractions: the orbit of the simple
    roots under the reflections r -> r - <r, a^vee> a in the simple roots
    a, cut to the nonnegative vectors, sorted by (height, coordinates)."""
    roots = set(rs.simple_roots)
    frontier = set(roots)
    while frontier:
        frontier = {vsub(r, vscale(rs.pair_coroot(r, a), a))
                    for r in frontier for a in rs.simple_roots} - roots
        roots |= frontier
    return sorted((r for r in roots if min(r) >= 0), key=lambda r: (sum(r), r))


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_positive_roots_are_the_reflection_orbit(name):
    """The positive roots, read off the columns of the Weyl matrices, are
    the reflection orbit of the simple roots in content and order; the
    highest root is the last of them and w0 the one longest element."""
    rs = RootSystem(GroupSpec.parse(name))
    expect = reference_positive_roots(rs)
    assert list(rs.positive_roots) == expect
    assert all(type(c) is Q for r in rs.positive_roots for c in r)
    assert rs.highest_root == expect[-1]
    longest = max(w.length for w in rs.weyl_elements())
    assert [w for w in rs.weyl_elements() if w.length == longest] == [rs.w0]
    assert rs.w0.length == len(expect)


# sha256 of the kappa chambers that `volume` builds in a fresh process
# (`conftest.run_for_chambers`)
CACHE_DIGESTS = [
    (("G2", "1/8,1/5", "1/9,1/7", "1/7,1/6"),
     "c6beb200a8e192ac039782669b27ec3e010043c29aa934e15ffaaa2a5e1f54de"),
    (("A3", "1/5,1/7,1/9", "1/6,1/8,1/7", "1/9,1/5,1/8"),
     "5980d12ffdfc3b2531093ea1081b996d28491dd571b758169c59dc96ef2857c8"),
]


@pytest.mark.parametrize("args,digest", CACHE_DIGESTS, ids=["G2", "A3"])
def test_spline_cache_bytes_pinned(args, digest):
    r = run_for_chambers(args[0], ["volume", *args])
    assert r.codes == [0], r.stderr
    assert r.chambers == digest


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_normalization_and_highest_root(name):
    rs = build_root_system(name)
    norms = {rs.norm_sq(r) for r in rs.positive_roots}
    assert rs.norm_sq(rs.highest_root) == 2
    assert max(norms) == 2
    # short-to-long squared ratio is 1, 1/2 or 1/3
    assert all(n in (Q(2), Q(1), Q(2, 3)) for n in norms)
    # highest root dominant
    assert all(rs.ip(rs.highest_root, a) >= 0 for a in rs.simple_roots)
    # positive roots are nonnegative integer combinations of simples
    for r in rs.positive_roots:
        assert all(c >= 0 and c.denominator == 1 for c in r)


def test_g2_short_roots():
    rs = build_root_system("G2")
    norms = sorted({rs.norm_sq(r) for r in rs.positive_roots})
    assert norms == [Q(2, 3), Q(2)]


def test_unsupported_types():
    with pytest.raises(UnsupportedTypeError):
        build_root_system("Z9")
    with pytest.raises(UnsupportedTypeError):
        build_root_system("E6")
    with pytest.raises(UnsupportedTypeError):
        GroupSpec.parse("B5")


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_fundamental_weights_pairing(name):
    rs = build_root_system(name)
    for i, w in enumerate(rs.fundamental_weights):
        for j, a in enumerate(rs.simple_roots):
            assert rs.pair_coroot(w, a) == (1 if i == j else 0)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "G2", "C3"])
def test_weyl_orthogonality_and_sign(name):
    rs = build_root_system(name)
    rng = random.Random(3)
    u = vec([Q(rng.randint(-5, 5), 7) for _ in range(rs.rank)])
    v = vec([Q(rng.randint(-5, 5), 3) for _ in range(rs.rank)])
    for w in rs.weyl_elements():
        assert rs.ip(w.act(u), w.act(v)) == rs.ip(u, v)
        # (-1)^length = det, checked via the inversion count definition
        det_sign = 1 if _det_sign(w.matrix) > 0 else -1
        assert det_sign == w.sign


def _det_sign(m):
    from flatvol.exact import det

    return 1 if det(m) > 0 else -1


def test_longest_element_and_star(a1, a2):
    assert a1.w0.length == 1
    assert a2.w0.length == 3
    # A1: star is the identity on the alcove
    mu = vec([Q(1, 3)])
    assert star(a1, mu) == mu
    # A2: star maps omega1 to omega2
    w1, w2 = a2.fundamental_weights
    assert star(a2, w1) == w2
    # star is an involution preserving the alcove vertex set
    for rs in (a1, a2):
        verts = set(rs.alcove.vertices)
        assert {star(rs, v) for v in verts} == verts
        for v in verts:
            assert star(rs, star(rs, v)) == v
    assert star(a2, vec([Q(0), Q(0)])) == (0, 0)


def test_alcove_membership(a1, a2):
    assert alcove_membership(a1, vec([Q(1, 4)]))[0] == "interior"
    kind, faces = alcove_membership(a1, vec([Q(0)]))
    assert kind == "boundary" and faces == ["alpha_1"]
    kind, faces = alcove_membership(a1, vec([Q(1, 2)]))
    assert kind == "boundary" and faces == ["alpha_0"]
    # omega1 + omega2 pairs to 2 with the highest root
    outside = a2.from_weight_coords(vec([1, 1]))
    assert alcove_membership(a2, outside)[0] == "outside"


def reference_waff_positive(rs, radius_sq):
    """The affine Weyl representatives by the Fraction route, for each
    coroot vector m of the ball in `lattice_points_in_ball` order: the
    first element of `weyl_elements()` taking b + m (b the alcove
    barycenter) into the dominant chamber, as its index u and t = w_u m."""
    verts = rs.alcove.vertices
    bary = vscale(Q(1, len(verts)), tuple(map(sum, zip(*verts))))
    out = []
    for coeffs in lattice_points_in_ball(rs.coroot_gram, Q(radius_sq)):
        m = vec(coroot_vector(rs, coeffs))
        p = vadd(bary, m)
        for u, w in enumerate(rs.weyl_elements()):
            if all(rs.ip(w.act(p), a) >= 0 for a in rs.simple_roots):
                out.append((u, w.act(m)))
                break
    return out


def waff_rows(rs, radius_sq):
    """(w_u, t) for each representative of `enumerate_waff_positive`."""
    u, t = enumerate_waff_positive(rs, radius_sq)
    return [(rs.weyl_elements()[i], vec(row)) for i, row in zip(u.tolist(), t.tolist())]


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_waff_positive_matches_fraction_reference(name):
    rs = build_root_system(name)
    radii = [-1, 0, Q(1, 3), 2] + ([] if name in ("A4", "D4") else [Q(37, 5)])
    for radius_sq in radii:
        u, t = enumerate_waff_positive(rs, radius_sq)
        assert u.dtype == t.dtype == np.int64 and t.shape == (len(u), rs.rank)
        got = [(i, tuple(row)) for i, row in zip(u.tolist(), t.tolist())]
        assert got == reference_waff_positive(rs, radius_sq), radius_sq


def test_enumerate_waff_positive_counts(a1, a2):
    rows = waff_rows(a1, 0)
    assert len(rows) == 1 and rows[0][0].length == 0
    rows = waff_rows(a1, 2)
    assert len(rows) == 3
    # the coset W.w is labelled by the lattice vector w_u^-1 t
    labels = sorted(solve(w.matrix, t) for w, t in rows)
    assert labels == [(-1,), (0,), (1,)]
    # count equals the brute-force lattice-point count in the ball
    for rs, r2 in [(a1, Q(8)), (a2, Q(6))]:
        u, t = enumerate_waff_positive(rs, r2)
        pts = lattice_points_in_ball(rs.coroot_gram, r2)
        assert len(u) == len(t) == len(pts)


def test_waff_positive_elements_map_alcove_into_chamber(a2):
    for w, t in waff_rows(a2, 8):
        for v in a2.alcove.vertices:
            img = vadd(w.act(v), t)
            assert all(a2.ip(img, a) >= 0 for a in a2.simple_roots)
        # the sign is det w_u, i.e. inversion-count parity
        assert w.sign == det(w.matrix)


def test_waff_representatives_unique_per_coset(a2):
    seen = set()
    for w, t in waff_rows(a2, 8):
        label = solve(w.matrix, t)
        assert label not in seen
        seen.add(label)
        coords = solve(mat_t(a2.coroot_basis), t)  # in the coroot basis
        assert all(c.denominator == 1 for c in coords)


def test_covolume(a1, a2):
    assert abs(covolume_T(a1) - math.sqrt(2)) < 1e-15
    assert abs(covolume_T(a2) - math.sqrt(3)) < 1e-14
    for name in SUPPORTED:
        assert covolume_T(build_root_system(name)) > 0


def test_volume_G_closed_forms(a1, a2):
    # SU(2) is the round 3-sphere of radius sqrt(2)
    assert abs(volume_G(a1) - 2 * math.pi**2 * 2**1.5) < 1e-10
    # SU(3) with the trace metric: sqrt(3) (2 pi)^5 / 2
    assert abs(volume_G(a2) - math.sqrt(3) * (2 * math.pi) ** 5 / 2) < 1e-8
    assert all(volume_G(build_root_system(n)) > 0 for n in SUPPORTED)


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_weyl_integration_identity(name):
    """int_A prod_{a>0} (2 sin pi<a,mu>)^2 dmu = covol, by quadrature.

    This is the class-integration identity that pins Vol(G)/Vol(T) in the
    normalized metric; dmu is inner-product Lebesgue measure.
    """
    import numpy as np

    rs = build_root_system(name)
    if rs.rank == 1:
        xs, ws = np.polynomial.legendre.leggauss(200)
        xs = (xs + 1) / 2
        ws = ws / 2
        total = 0.0
        alpha = rs.simple_roots[0]
        scale = math.sqrt(float(rs.norm_sq(alpha))) / 2  # arclength of v -> (v/2) a
        for x, w in zip(xs, ws):
            total += w * (2 * math.sin(math.pi * x)) ** 2 * scale
    else:
        n1d = 120
        xs, ws = np.polynomial.legendre.leggauss(n1d)
        xs = (xs + 1) / 2
        ws = ws / 2
        gw = [[float(rs.ip(a, b)) for b in rs.fundamental_weights]
              for a in rs.fundamental_weights]
        area_scale = math.sqrt(gw[0][0] * gw[1][1] - gw[0][1] * gw[1][0])
        w1, w2 = rs.fundamental_weights
        total = 0.0
        for xi, wi in zip(xs, ws):
            # Duffy map of the unit square onto the triangle x + y <= 1
            for yj, wj in zip(xs, ws):
                x = xi
                y = yj * (1 - xi)
                jac = 1 - xi
                prod = 1.0
                for a in rs.positive_roots:
                    pairing = x * float(rs.ip(a, w1)) + y * float(rs.ip(a, w2))
                    prod *= (2 * math.sin(math.pi * pairing)) ** 2
                total += wi * wj * jac * prod * area_scale
    assert abs(total - covolume_T(rs)) < 1e-6 * covolume_T(rs)


def test_barycenter_interior(a2):
    verts = a2.alcove.vertices
    kind, _ = alcove_membership(a2, vscale(Q(1, len(verts)), tuple(map(sum, zip(*verts)))))
    assert kind == "interior"


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "C2", "C3", "D4", "G2"])
def test_coroot_ball_table_matches_enumeration(name):
    """After a growing, then shrinking, sequence of radii the lattice table
    gives `lattice_points_in_ball` exactly, in order, in root coordinates."""
    rs = RootSystem(GroupSpec.parse(name))
    g = _int_form(rs.gram)[1]
    for radius in (Q(1, 2), 3, Q(7, 3), 6, 5, 1, 0, Q(1, 5), -1):
        expect = [list(coroot_vector(rs, n))
                  for n in lattice_points_in_ball(rs.coroot_gram, radius)]
        assert rs.coroot_ball(math.floor(g * radius)).tolist() == expect


def reference_point(rs, coeffs):
    """from_weight_coords by its definition: sum of c_i omega_i, in Fractions."""
    out = (Q(0),) * rs.rank
    for c, w in zip(coeffs, rs.fundamental_weights):
        out = vadd(out, vscale(c, w))
    return out


def reference_membership(rs, mu):
    """alcove_membership by its definition: one Fraction `rs.ip` a facet."""
    tight = []
    for i, a in enumerate(rs.simple_roots):
        v = rs.ip(a, mu)
        if v < 0:
            return "outside", []
        if v == 0:
            tight.append(f"alpha_{i + 1}")
    h = rs.ip(rs.highest_root, mu)
    if h > 1:
        return "outside", []
    if h == 1:
        tight.append("alpha_0")
    return ("boundary", tight) if tight else ("interior", [])


HUGE = (2**32 + 15, 2**61 - 1)


def alcove_battery(rs, rng):
    """Seeded points of every kind: interior points, points on each facet
    (no weight on the vertex opposite it), the vertices, points just
    outside each facet (by 1/(2^61 - 1) along a fundamental weight), and
    combinations with denominators 2^32 + 15 and 2^61 - 1."""
    verts, eps = rs.alcove.vertices, Q(1, HUGE[1])

    def combination(weights):
        total = sum(weights)
        return tuple(sum(w * v[j] for w, v in zip(weights, verts)) / total
                     for j in range(rs.rank))

    points = list(verts)
    for den in (7, 40, *HUGE):
        points.append(combination([Q(rng.randint(1, den), den) for _ in verts]))
        for k in range(len(verts)):  # on the facet opposite vertex k, and just outside it
            on = combination([0 if i == k else Q(rng.randint(1, den), den)
                              for i in range(len(verts))])
            step = rs.fundamental_weights[max(k, 1) - 1]
            sign = -1 if k else 1  # alpha_k, k >= 1, decreases; alpha_0 increases
            points += [on, tuple(c + sign * eps * s for c, s in zip(on, step))]
    return points


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "C2", "C3", "D4", "G2"])
def test_integer_alcove_forms_match_their_definitions(name):
    """`alcove_membership`, `from_weight_coords` and `to_weight_coords`
    read the integer forms cached on the root system (`int_alcove`,
    `int_weights`), built on first use only, and give what the Fraction
    definitions give: on interior, facet, vertex and just-outside points,
    with huge denominators, from a generator (read once) and from plain
    ints; `to_weight_coords` undoes `from_weight_coords`."""
    rs = RootSystem(GroupSpec.parse(name))
    assert "int_alcove" not in vars(rs) and "int_weights" not in vars(rs)
    rng = random.Random(f"integer-alcove-forms-{name}")
    points = alcove_battery(rs, rng)
    seen = [reference_membership(rs, mu) for mu in points]
    assert {label for _, tight in seen for label in tight} == {
        f"alpha_{i}" for i in range(rs.rank + 1)}
    assert [kind for kind, _ in seen].count("outside") == 4 * (rs.rank + 1)
    for mu in points:
        assert alcove_membership(rs, mu) == reference_membership(rs, mu), mu
        coords = rs.to_weight_coords(mu)
        assert coords == tuple(rs.pair_coroot(mu, a) for a in rs.simple_roots)
        assert rs.from_weight_coords(c for c in coords) == mu == reference_point(rs, coords)
    for ints in ([1] * rs.rank, [rng.randint(-3, 3) for _ in range(rs.rank)]):
        mu = rs.from_weight_coords(ints)
        assert mu == reference_point(rs, ints) and all(type(c) is Q for c in mu)
        assert rs.to_weight_coords(mu) == tuple(map(Q, ints))
    assert "int_alcove" in vars(rs) and "int_weights" in vars(rs)
