"""Acceptance suite: one test per criterion, tolerances pinned here.

Each test prints a single PASS line (visible with pytest -s) including the
measured runtime, and fails hard otherwise.
"""

import itertools
import math
import random
import time
from fractions import Fraction as Q

import numpy as np

from flatvol import (
    DominantWeight,
    Marking,
    OnWallError,
    Surface,
    SymmetricPoly,
    build_root_system,
    character_eval,
    enumerate_dominant,
    glue_volume,
    kappa_build,
    kappa_point,
    mixed_characteristic_number,
    pants_volume_kappa,
    pants_volume_poly,
    product_class_histogram,
    shape_compare,
    sphere_volume_kappa,
    star,
    toric_decomposition,
    vec,
    volume_G,
    weyl_dimension,
    witten_volume,
)
from flatvol.characters import casimir_cutoff_for_count
from flatvol.exact import vadd, vscale

from conftest import rational_triple


def t_mu(rs, t):
    return rs.from_weight_coords(vec([Q(t)]))


def _report(num, text, t0):
    print(f"ACCEPTANCE {num} PASS — {text} ({time.time() - t0:.1f}s)")


def test_criterion_01_su2_region_law(a1):
    """Constant on the admissible region, zero outside, exact, 20^3 grid."""
    t0 = time.time()
    grid = [Q(2 * k - 1, 40) for k in range(1, 21)]
    region_vals = set()
    outside_vals = set()
    for t1 in grid:
        mu1 = t_mu(a1, t1)
        for t2 in grid:
            mu2 = t_mu(a1, t2)
            for t3 in grid:
                rep = pants_volume_kappa(a1, mu1, mu2, t_mu(a1, t3))
                inside = abs(t1 - t2) < t3 < min(t1 + t2, 2 - t1 - t2)
                (region_vals if inside else outside_vals).add(rep.exact["rational"])
    assert outside_vals == {Q(0)}
    assert len(region_vals) == 1
    c0 = region_vals.pop()
    assert c0 > 0
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"region-law scan took {elapsed:.1f}s (> 10s)"
    _report(1, f"SU(2) region law on 20^3 grid, c0 = {c0} (exact)", t0)


def test_criterion_02_mc_oracle_shape(a1):
    """KS < 0.01 vs the kappa-derived density at 1e6 samples; control > 0.2."""
    t0 = time.time()
    pairs = [("1/2", "1/2"), ("1/5", "3/10"), ("7/10", "1/5")]
    for i, (t1, t2) in enumerate(pairs):
        hist = product_class_histogram(
            a1, t_mu(a1, t1), t_mu(a1, t2), bins=400, n_samples=10**6, seed=1000 + i
        )

        def vol(t, _t1=t1, _t2=t2):
            tq = Q(t).limit_denominator(1 << 16)
            if not 0 < tq < 1:
                return 0.0
            try:
                return pants_volume_kappa(
                    a1, t_mu(a1, _t1), t_mu(a1, _t2), t_mu(a1, tq)
                ).value
            except OnWallError:
                return 0.0

        stat = shape_compare(hist, vol)
        assert stat < 0.01, (t1, t2, stat)
    # negative control: density supported on a shifted interval
    hist = product_class_histogram(
        a1, t_mu(a1, "1/5"), t_mu(a1, "3/10"), bins=400, n_samples=10**5, seed=77
    )
    bad = shape_compare(hist, lambda t: 1.0 if 0.55 < t < 0.95 else 0.0)
    assert bad > 0.2
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s (> 60s)"
    _report(2, f"MC oracle shape agreement (3 pairs, control {bad:.2f})", t0)


def _regular_triple_for_series(rs, rng, cell_margin=Q(1, 24)):
    """Random interior triple whose volume-cell radius at mu3 is at least
    cell_margin (exact probes), so the heat-kernel smoothing scale of the
    regularized series fits inside the cell.  This is the regularity the
    series route needs; near-kink points are not regular at this budget.
    """
    from flatvol.poly import poly_eval

    walls = kappa_build(rs).config.walls
    while True:
        mus = rational_triple(rs, rng, denom=20, margin=Q(1, 10))
        try:
            vol = pants_volume_poly(rs, mus[0], mus[1])
            if vol.on_wall(mus[2]):
                continue
            poly = vol.polynomial_at(mus[2])
            if poly_eval(poly, mus[2]) == 0:
                continue
            ok = True
            for u in walls:
                from flatvol.exact import vdot

                step = vscale(cell_margin / vdot(u, u), u)
                for s in (1, -1):
                    probe = vadd(mus[2], vscale(Q(s), step))
                    if vol.value_exact(probe) != poly_eval(poly, probe):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return mus
        except OnWallError:
            continue


def test_criterion_03_cross_method_pants(a1, a2):
    """Character series matches the kappa-sum within 1e-3 relative."""
    t0 = time.time()
    rng = random.Random(303)
    cases = (
        (a1, dict(weight_count=4000)),
        (a2, dict(casimir_cutoff=150000,
                  eps_schedule=[1e-3 / 2**i for i in range(4)])),
    )
    for rs, series_args in cases:
        for _ in range(10):
            mus = _regular_triple_for_series(rs, rng)
            krep = pants_volume_kappa(rs, *mus)
            wrep = witten_volume(
                rs, Surface(0, 3), Marking.of(rs, list(mus)), **series_args
            )
            rel = abs(wrep.value - krep.value) / krep.value
            assert rel < 1e-3, (rs.spec.name, mus, rel)
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"cross-method suite took {elapsed:.1f}s (> 5min)"
    _report(3, "character series = kappa-sum (A1, A2; 10 triples each, 1e-3)", t0)


def test_criterion_04_toric_exactness(a1, a2, b2):
    """Signed toric total equals the kappa-sum, exact rationals, 50 each."""
    t0 = time.time()
    rng = random.Random(404)
    for rs in (a1, a2, b2):
        checked = 0
        while checked < 50:
            mus = rational_triple(rs, rng)
            try:
                pants = pants_volume_kappa(rs, *mus)
                _, toric = toric_decomposition(rs, *mus)
            except OnWallError:
                continue
            assert toric.exact["rational"] == pants.exact["rational"], (
                rs.spec.name,
                mus,
            )
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"toric suite took {elapsed:.1f}s (> 2min)"
    _report(4, "toric decomposition = kappa-sum exactly (50 triples x 3 types)", t0)


def test_criterion_05_symmetry_suite(a1, a2, b2):
    """S3 and star invariance exact at 100 triples per type; radius stable."""
    t0 = time.time()
    rng = random.Random(505)
    for rs in (a1, a2, b2):
        checked = 0
        while checked < 100:
            mus = rational_triple(rs, rng)
            try:
                base = pants_volume_kappa(rs, *mus)
            except OnWallError:
                continue
            val = base.exact["rational"]
            for perm in itertools.permutations(mus):
                assert pants_volume_kappa(rs, *perm).exact["rational"] == val
            starred = [star(rs, m) for m in mus]
            assert pants_volume_kappa(rs, *starred).exact["rational"] == val
            if checked % 25 == 0:
                bigger = pants_volume_kappa(
                    rs, *mus, radius_sq=base.parameters["lattice_radius_sq"] * 2 + 8
                )
                assert bigger.exact["rational"] == val
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"symmetry suite took {elapsed:.1f}s (> 1min)"
    _report(5, "S3 + star invariance exact (100 triples x 3 types)", t0)


def test_criterion_06_characteristic_numbers(a2):
    """Operator route equals finite differences (1e-6) and the volume (exact)."""
    t0 = time.time()
    rng = random.Random(606)
    e1 = SymmetricPoly.elementary(1, 1)
    one = SymmetricPoly.constant(Q(1))
    h = Q(1, 100000)
    checked = 0
    while checked < 20:
        m1, m2, m3 = rational_triple(a2, rng)
        vol = pants_volume_poly(a2, m1, m2)
        if vol.on_wall(m3):
            continue
        try:
            cn = mixed_characteristic_number(a2, m1, m2, m3, e1)
        except OnWallError:
            continue
        fd = 0.0
        crossed = False
        for d in a2.positive_roots:
            up, dn = vadd(m3, vscale(h, d)), vadd(m3, vscale(-h, d))
            if vol.on_wall(up) or vol.on_wall(dn):
                crossed = True
                break
            fd += (vol.value(up) - vol.value(dn)) / (2 * float(h))
        if crossed:
            continue
        assert abs(cn - fd) < 1e-6, (m1, m2, m3, cn, fd)
        # p = 1 returns the volume exactly (same rational0)
        v_ident = mixed_characteristic_number(a2, m1, m2, m3, one)
        assert v_ident == pants_volume_kappa(a2, m1, m2, m3).value
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"characteristic-number suite took {elapsed:.1f}s (> 30s)"
    _report(6, "mixed characteristic numbers vs finite differences (20 points)", t0)


def test_criterion_07_gluing_consistency(a1):
    """Alcove quadrature = character series (1e-3); doubling = b=4 sum (1e-6)."""
    t0 = time.time()
    for t in ("2/5", "1/3", "7/10"):
        mk = Marking.of(a1, [t_mu(a1, t)])
        g = glue_volume(a1, Surface(1, 1), mk)
        w = witten_volume(a1, Surface(1, 1), mk, weight_count=4000)
        assert abs(g.value - w.value) <= 1e-3 * max(abs(w.value), 1e-12), (t, g.value, w.value)
    for ts in (("2/5", "1/2", "3/5", "1/3"), ("1/2", "1/2", "1/2", "1/2")):
        mus = [t_mu(a1, t) for t in ts]
        g4 = glue_volume(a1, Surface(0, 4), Marking.of(a1, mus))
        k4 = sphere_volume_kappa(a1, mus)
        assert abs(g4.value - k4.value) <= 1e-6, (ts, g4.value, k4.value)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gluing suite took {elapsed:.1f}s (> 2min)"
    _report(7, "gluing: quadrature = series (1e-3), doubling = b=4 sum (1e-6)", t0)


def test_criterion_08_character_suite():
    """Dimensions, orthogonality and the A1 closed form."""
    t0 = time.time()
    for name in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(name)
        zero = vec([0] * rs.rank)
        weights = enumerate_dominant(rs, casimir_cutoff_for_count(rs, 50))[:50]
        assert len(weights) == 50
        for lam in weights:
            d = weyl_dimension(rs, lam)
            cv = character_eval(rs, lam, zero)
            assert abs(cv.value - d) <= 1e-9 * d, (name, lam, cv.value, d)
    # numerical Weyl orthogonality for the first 6 weights of A1 and A2
    for name in ("A1", "A2"):
        _orthogonality_check(build_root_system(name))
    # A1 closed-form characters within 1e-12
    a1 = build_root_system("A1")
    for m in (0, 1, 2, 5, 9):
        for t in (Q(1, 3), Q(2, 5), Q(5, 7)):
            cv = character_eval(a1, DominantWeight((m,)), vec([t / 2]))
            expect = math.sin((m + 1) * math.pi * float(t)) / math.sin(
                math.pi * float(t)
            )
            assert abs(cv.value - expect) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"character suite took {elapsed:.1f}s (> 1min)"
    _report(8, "character suite: dims (50/type), orthogonality, closed form", t0)


def _orthogonality_check(rs):
    weights = enumerate_dominant(rs, casimir_cutoff_for_count(rs, 6))[:6]
    covol = math.sqrt(float(rs.det_coroot_gram))
    gram = np.array([[float(x) for x in row] for row in rs.gram])
    if rs.rank == 1:
        xs, qws = np.polynomial.legendre.leggauss(100)
        xs, qws = (xs + 1) / 2, qws / 2
        mus = (xs / 2)[:, None]
        wts = qws * math.sqrt(float(rs.norm_sq(rs.simple_roots[0]))) / 2
    else:
        xs, qws = np.polynomial.legendre.leggauss(100)
        xs, qws = (xs + 1) / 2, qws / 2
        gw = [
            [float(rs.ip(a, b)) for b in rs.fundamental_weights]
            for a in rs.fundamental_weights
        ]
        area = math.sqrt(gw[0][0] * gw[1][1] - gw[0][1] * gw[1][0])
        w1 = np.array([float(c) for c in rs.fundamental_weights[0]])
        w2 = np.array([float(c) for c in rs.fundamental_weights[1]])
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        WX, WY = np.meshgrid(qws, qws, indexing="ij")
        x, y = X.ravel(), (Y * (1 - X)).ravel()
        mus = x[:, None] * w1[None, :] + y[:, None] * w2[None, :]
        wts = (WX * WY * (1 - X)).ravel() * area
    gmu = mus @ gram.T
    numerators = []
    for w in weights:
        lam_rho = np.array([float(a + b) for a, b in zip(w.vector(rs), rs.rho)])
        tot = np.zeros(len(gmu), dtype=complex)
        for welt in rs.weyl_elements():
            wm = np.array([[float(c) for c in row] for row in welt.matrix])
            tot += welt.sign * np.exp(2j * np.pi * (gmu @ (wm @ lam_rho)))
        numerators.append(tot)
    for i in range(6):
        for j in range(6):
            val = np.sum(wts * numerators[i] * np.conj(numerators[j]))
            expect = covol if i == j else 0.0
            assert abs(val - expect) < 1e-6, (rs.spec.name, i, j, val)


def test_criterion_09_kappa_properties():
    """Homogeneity, support, wall continuity, dual-route exact agreement."""
    t0 = time.time()
    rng = random.Random(909)
    fast = ["A1", "A2", "A3", "B2", "C2", "G2"]
    for name in fast:
        rs = build_root_system(name)
        spline = kappa_build(rs)
        deg = rs.n_positive - rs.rank
        checked = 0
        while checked < 200:
            xi = vec(
                [Q(rng.randint(-5, 40), rng.randint(1, 13)) for _ in range(rs.rank)]
            )
            if spline.on_wall(xi):
                continue
            kv = kappa_point(rs, xi)
            assert spline.value_exact(xi) == kv.rational
            # support exactness
            if any(c < 0 for c in xi):
                assert kv.rational == 0
            # homogeneity
            if checked % 10 == 0:
                t = Q(rng.randint(1, 7), rng.randint(1, 7))
                assert spline.value_exact(vec([t * c for c in xi])) == t**deg * spline.value_exact(xi)
            checked += 1
    # slow types: reduced dual-route counts (D4's interpolation needs ~165
    # fiber volumes per chamber, so it is checked by exact homogeneity of
    # the fiber-polytope route instead)
    for name, count in (("C3", 2), ("A4", 1)):
        rs = build_root_system(name)
        spline = kappa_build(rs)
        done = 0
        while done < count:
            xi = vec([Q(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(rs.rank)])
            if spline.on_wall(xi):
                continue
            assert spline.value_exact(xi) == kappa_point(rs, xi).rational
            done += 1
    rs = build_root_system("D4")
    deg = rs.n_positive - rs.rank
    xi = vec([Q(3, 2), Q(5, 2), Q(7, 3), Q(11, 6)])
    base = kappa_point(rs, xi).rational
    assert base > 0
    assert kappa_point(rs, vec([2 * c for c in xi])).rational == 2**deg * base
    # wall continuity is covered exactly, per type, in test_kappa; rerun the
    # A2 facet identity here as the acceptance-level witness
    from test_kappa import test_wall_continuity_exact

    for name in ("A2", "B2", "A3"):
        test_wall_continuity_exact(name)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"kappa property suite took {elapsed:.1f}s (> 2min)"
    _report(9, "kappa: homogeneity/support/continuity exact; dual routes agree", t0)


def test_criterion_10_closed_genus_two(a1):
    """#Z Vol(G)^2 zeta(2): partial sums of 1/n^2 to 10^4, within 1e-6."""
    t0 = time.time()
    rep = witten_volume(a1, Surface(2, 0), Marking.of(a1, []), weight_count=10**4)
    target = 2 * volume_G(a1) ** 2 * math.pi**2 / 6
    assert abs(rep.value - target) <= 1e-6, (rep.value, target)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"genus-2 value took {elapsed:.1f}s (> 5s)"
    _report(10, f"closed genus-2 value = 2 Vol(G)^2 zeta(2) = {target:.6f}", t0)
