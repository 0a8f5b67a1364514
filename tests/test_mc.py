import hashlib
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from flatvol import (
    GroupSpec,
    RootSystem,
    build_root_system,
    pants_volume_kappa,
    product_class_histogram,
    shape_compare,
    vec,
)
from flatvol.mc import (
    _CHUNK,
    MAX_CELLS,
    _a1_parameter,
    _bin_index,
    class_parameter_batch,
    class_representative,
    haar_sample,
)

from conftest import ORACLE_FORBIDDEN, forbid


def t_mu(rs, t):
    return rs.from_weight_coords(vec([Q(t)]))


def test_haar_moment_su2(a1):
    # E |tr g|^2 = 1 on Haar
    g = haar_sample(a1, 200000, np.random.default_rng(7))
    m = (np.abs(np.einsum("nii->n", g)) ** 2).mean()
    assert abs(m - 1) < 0.01
    defect = np.abs(g @ np.conj(np.swapaxes(g, 1, 2)) - np.eye(2)).max()
    assert defect < 1e-12
    dets = np.linalg.det(g)
    assert np.abs(dets - 1).max() < 1e-10


def test_haar_moment_su3(a2):
    g = haar_sample(a2, 100000, np.random.default_rng(9))
    m = (np.abs(np.einsum("nii->n", g)) ** 2).mean()
    assert abs(m - 1) < 0.02
    dets = np.linalg.det(g)
    assert np.abs(dets - 1).max() < 1e-10


def haar_conjugates(rs, mu, n, seed):
    rep = class_representative(rs, mu)
    g = haar_sample(rs, n, np.random.default_rng(seed))
    return g @ rep @ np.conj(np.swapaxes(g, 1, 2))


def test_sample_class_central(a1):
    # arccos has a square-root singularity at trace 2, so t = 0 is read to 1e-8
    conj = haar_conjugates(a1, t_mu(a1, 0), 16, 1)
    assert np.abs(conj - np.eye(2)).max() < 1e-12
    assert np.allclose(class_parameter_batch(a1, conj), 0.0, rtol=0, atol=1e-8)


def test_sample_class_traceless(a1):
    conj = haar_conjugates(a1, t_mu(a1, "1/2"), 16, 2)
    assert np.abs(np.einsum("nii->n", conj)).max() < 1e-10
    assert np.allclose(class_parameter_batch(a1, conj), 0.5, rtol=0, atol=1e-12)


def test_parameter_recovery_degenerate(a1):
    """The batched class parameter of Haar conjugates of exp(mu) is t, with
    <alpha, mu> = t."""
    for t in ("1/5", "2/7", "9/10"):
        conj = haar_conjugates(a1, t_mu(a1, t), 16, 3)
        assert np.allclose(class_parameter_batch(a1, conj), float(Q(t)), rtol=0, atol=1e-12)


def test_su3_class_recovery(a2):
    mu = a2.from_weight_coords(vec([Q(1, 4), Q(1, 3)]))
    rep = class_representative(a2, mu)
    g = haar_sample(a2, 64, np.random.default_rng(5))
    conj = g @ rep @ np.conj(np.swapaxes(g, 1, 2))
    params = class_parameter_batch(a2, conj)
    assert np.allclose(params, [0.25, 1 / 3], atol=1e-9)


def _per_group_class_representative(rs, mu):
    """exp(mu) by a formula per group: the angle pi <alpha, mu> for A1,
    the root coordinates (c1, c2 - c1, -c2) for A2."""
    if rs.spec.name == "A1":
        t = float(rs.ip(rs.simple_roots[0], mu))
        return np.diag([np.exp(1j * math.pi * t), np.exp(-1j * math.pi * t)])
    c1, c2 = float(mu[0]), float(mu[1])
    return np.diag(np.exp(2j * math.pi * np.array([c1, c2 - c1, -c2])))


# sha256 of the bytes of `class_representative` at the seeded markings of
# test_class_representative_pinned, and of haar_sample(a2, 64, default_rng(5))
CLASS_REPRESENTATIVE_DIGESTS = {
    "A1": "80e238c0516cc1ad29ce503f08a9a380481b6f7bdc4700a0bc42ca40106643ed",
    "A2": "1723ab3efcb43737b1969143ff6ab9148e3f05be4019327cd332edf32e552292",
}
HAAR_A2_DIGEST = "625503e8e6703469b579c21da06b208310001358038aa544b5c00d7bbe279b4f"


@pytest.mark.parametrize("group", sorted(CLASS_REPRESENTATIVE_DIGESTS))
def test_class_representative_pinned(group):
    """class_representative equals the per-group formulas bit for bit at
    seeded markings (weight coordinates k/60 in the closed alcove)."""
    rs = build_root_system(group)
    rng = random.Random(group)
    reps = []
    while len(reps) < 8:
        w = [Q(rng.randint(0, 60), 60) for _ in range(rs.rank)]
        if sum(w) <= 1:
            mu = rs.from_weight_coords(vec(w))
            reps.append(class_representative(rs, mu))
            assert reps[-1].tobytes() == _per_group_class_representative(rs, mu).tobytes(), w
    digest = hashlib.sha256(b"".join(r.tobytes() for r in reps)).hexdigest()
    assert digest == CLASS_REPRESENTATIVE_DIGESTS[group]


def test_haar_sample_pinned(a2):
    g = haar_sample(a2, 64, np.random.default_rng(5))
    assert hashlib.sha256(g.tobytes()).hexdigest() == HAAR_A2_DIGEST


def test_histogram_degenerate_factor(a1):
    h = product_class_histogram(a1, t_mu(a1, "1/2"), t_mu(a1, 0),
                                bins=100, n_samples=5000, seed=4)
    assert h.counts[50] == 5000
    assert h.counts.sum() == h.total


def test_histogram_support_triangle(a1):
    h = product_class_histogram(a1, t_mu(a1, "1/5"), t_mu(a1, "3/10"),
                                bins=200, n_samples=100000, seed=5)
    nz = np.nonzero(h.counts)[0]
    assert abs(nz.min() / 200 - 0.1) < 0.01
    assert abs((nz.max() + 1) / 200 - 0.5) < 0.01


def test_histogram_determinism(a1):
    a = product_class_histogram(a1, t_mu(a1, "1/2"), t_mu(a1, "1/3"),
                                bins=128, n_samples=50000, seed=42)
    b = product_class_histogram(a1, t_mu(a1, "1/2"), t_mu(a1, "1/3"),
                                bins=128, n_samples=50000, seed=42)
    assert np.array_equal(a.counts, b.counts)


def test_conjugation_invariance(a1):
    # conjugating both factors by a common element leaves the product class
    # distribution unchanged; proxy: histograms from different seeds agree
    # within a 3-sigma KS band
    n = 200000
    h1 = product_class_histogram(a1, t_mu(a1, "2/5"), t_mu(a1, "1/3"),
                                 bins=100, n_samples=n, seed=1)
    h2 = product_class_histogram(a1, t_mu(a1, "2/5"), t_mu(a1, "1/3"),
                                 bins=100, n_samples=n, seed=2)
    c1 = np.cumsum(h1.counts) / n
    c2 = np.cumsum(h2.counts) / n
    ks = np.abs(c1 - c2).max()
    assert ks < 3 * 1.22 * math.sqrt(2 / n)


def test_shape_compare_self(a1):
    """Against its own empirical density the statistic is below resolution."""
    h = product_class_histogram(a1, t_mu(a1, "1/2"), t_mu(a1, "1/2"),
                                bins=256, n_samples=400000, seed=6)
    # model equal to the true density: vol = const on (0, 1)
    stat = shape_compare(h, lambda t: 1.0 if 0 < t < 1 else 0.0)
    assert stat < 1.0 / 256 + 0.01


def test_shape_compare_vs_kappa_density(a1):
    h = product_class_histogram(a1, t_mu(a1, "1/5"), t_mu(a1, "3/10"),
                                bins=256, n_samples=300000, seed=7)

    def vol(t: float) -> float:
        tq = Q(t).limit_denominator(1 << 16)
        if not 0 < tq < 1:
            return 0.0
        try:
            return pants_volume_kappa(a1, t_mu(a1, "1/5"), t_mu(a1, "3/10"),
                                      t_mu(a1, tq)).value
        except Exception:
            return 0.0

    stat = shape_compare(h, vol)
    assert stat < 0.01


def test_shape_compare_negative_control(a1):
    h = product_class_histogram(a1, t_mu(a1, "1/5"), t_mu(a1, "3/10"),
                                bins=256, n_samples=100000, seed=8)

    def wrong_vol(t: float) -> float:
        # shifted support: pretend the triangle sits at [0.5, 0.9]
        return 1.0 if 0.5 < t < 0.9 else 0.0

    stat = shape_compare(h, wrong_vol)
    assert stat > 0.2


def test_shape_compare_degenerate_error(a1):
    h = product_class_histogram(a1, t_mu(a1, "1/2"), t_mu(a1, "1/2"),
                                bins=64, n_samples=1000, seed=9)
    with pytest.raises(ValueError):
        shape_compare(h, lambda t: 0.0)


def test_oracle_rejects_high_rank():
    rs = build_root_system("B2")
    with pytest.raises(ValueError):
        product_class_histogram(rs, rs.rho, rs.rho, bins=8, n_samples=10, seed=0)


def test_histogram_rejects_no_bins(a1):
    with pytest.raises(ValueError, match="bin"):
        product_class_histogram(a1, t_mu(a1, "1/3"), t_mu(a1, "1/4"),
                                bins=0, n_samples=10, seed=0)


@pytest.mark.parametrize("group, bins", [("A1", MAX_CELLS), ("A2", 1 << 10)])
def test_histogram_cells_capped(group, bins):
    """A histogram of MAX_CELLS cells (bins for A1, bins^2 for A2) is
    drawn; one bin more is refused before any allocation."""
    rs = build_root_system(group)
    zero = rs.from_weight_coords(vec([Q(0)] * rs.rank))
    h = product_class_histogram(rs, zero, zero, bins=bins, n_samples=10, seed=0)
    assert h.counts.size == MAX_CELLS and h.counts.sum() == 10
    with pytest.raises(ValueError, match="bins"):
        product_class_histogram(rs, zero, zero, bins=bins + 1, n_samples=10, seed=0)


def test_conjugation_invariance_exact(a1, a2):
    """Conjugating a sample by a common element fixes the class parameter."""
    for rs in (a1, a2):
        rng = np.random.default_rng(31)
        mu = rs.from_weight_coords(vec([Q(1, 5)] * rs.rank))
        rep = class_representative(rs, mu)
        g = haar_sample(rs, 32, rng)
        h = haar_sample(rs, 1, rng)[0]
        samples = g @ rep @ np.conj(np.swapaxes(g, 1, 2))
        conjugated = h @ samples @ h.conj().T
        p1 = class_parameter_batch(rs, samples)
        p2 = class_parameter_batch(rs, conjugated)
        assert np.abs(p1 - p2).max() < 1e-10


def test_product_unitarity_defect(a1):
    rng = np.random.default_rng(33)
    d = class_representative(a1, a1.from_weight_coords(vec([Q(2, 5)])))
    g1 = haar_sample(a1, 10000, rng)
    g2 = haar_sample(a1, 10000, rng)
    u = (g1 @ d @ np.conj(np.swapaxes(g1, 1, 2))) @ (
        g2 @ d @ np.conj(np.swapaxes(g2, 1, 2))
    )
    defect = np.abs(u @ np.conj(np.swapaxes(u, 1, 2)) - np.eye(2)).max()
    assert defect < 1e-10


def _a1_unitaries(s, phase_rng):
    """SU(2) matrices w with |w_01|^2 = s, the phases of w_00 and w_01
    drawn from phase_rng."""
    a, b = np.exp(2j * math.pi * phase_rng.random((2, len(s))))
    w = np.empty((len(s), 2, 2), dtype=complex)
    w[:, 0, 0], w[:, 0, 1] = np.sqrt(1 - s) * a, np.sqrt(s) * b
    w[:, 1, 0], w[:, 1, 1] = -np.sqrt(s) * np.conj(b), np.sqrt(1 - s) * np.conj(a)
    return w


def _same_draw_parameters(rs, mu1, mu2, n_samples, seed):
    """Class parameters of the explicit complex products d1 @ w @ d2 @ w^H,
    drawn chunk by chunk in the order of `product_class_histogram`: the
    products g1 d1 g1^H g2 d2 g2^H at g1 = 1, g2 = w.  For A2, w is
    `haar_sample`'s; for A1 it is a unitary with |w_01|^2 = s for the same
    uniform draw of s, with phases from a second generator, since the
    class depends on s only."""
    rng = np.random.default_rng(seed)
    phase_rng = np.random.default_rng([seed, 1])
    d1 = class_representative(rs, mu1)
    d2 = class_representative(rs, mu2)
    params = []
    for done in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - done)
        if rs.spec.name == "A1":
            w = _a1_unitaries(rng.random(m), phase_rng)
        else:
            w = haar_sample(rs, m, rng)
        params.append(class_parameter_batch(rs, d1 @ w @ d2 @ np.conj(np.swapaxes(w, 1, 2))))
    return np.concatenate(params)


def _two_factor_parameters(rs, mu1, mu2, n_samples, seed):
    """Class parameters of g1 d1 g1^H g2 d2 g2^H from two independent
    `haar_sample` draws per chunk: the oracle's product as defined."""
    rng = np.random.default_rng(seed)
    d1 = class_representative(rs, mu1)
    d2 = class_representative(rs, mu2)
    params = []
    for done in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - done)
        g1 = haar_sample(rs, m, rng)
        g2 = haar_sample(rs, m, rng)
        u = (g1 @ d1 @ np.conj(np.swapaxes(g1, 1, 2))) @ (
            g2 @ d2 @ np.conj(np.swapaxes(g2, 1, 2))
        )
        params.append(class_parameter_batch(rs, u))
    return np.concatenate(params)


def _binned(params, bins):
    """Counts of `params` (n, rank) in the histogram's cells."""
    idx = np.minimum((params * bins).astype(int), bins - 1)
    shape = (bins,) * idx.shape[1]
    return np.bincount(np.ravel_multi_index(tuple(idx.T), shape), minlength=math.prod(shape))


@pytest.mark.parametrize(
    "t1, t2",
    [("0", "1/3"), ("1/2", "1/2"), ("1/2", "2/5"), ("3/8", "3/8"), ("1/5", "7/10"),
     ("13/40", "19/40")],
)
def test_histogram_matches_five_product_reference(a1, t1, t2):
    # the trace S + (C - S) s of one uniform s bins every sample as the
    # complex product d1 w d2 w^H does, for a unitary w with |w_01|^2 = s
    # and any phases; 70 001 samples end in a partial chunk
    n = 70001
    for seed in (0, 17, 2024):
        params = _same_draw_parameters(a1, t_mu(a1, t1), t_mu(a1, t2), n, seed)
        for bins in (1, 64, 400):
            h = product_class_histogram(a1, t_mu(a1, t1), t_mu(a1, t2),
                                        bins=bins, n_samples=n, seed=seed)
            assert np.array_equal(h.counts, _binned(params, bins)), (t1, t2, seed, bins)


@pytest.mark.parametrize("w1, w2", [("1/4,1/5", "1/3,1/7"), ("1/2,1/6", "2/9,3/8")])
def test_a2_histogram_matches_same_draw_reference(a2, w1, w2):
    """The A2 histogram's d1 (w d2 w^H), formed by diagonal scalings,
    bins every sample as the explicit product d1 @ w @ d2 @ w^H of the
    same Haar draw does."""
    mu1, mu2 = (a2.from_weight_coords(vec([Q(x) for x in w.split(",")])) for w in (w1, w2))
    n = 70001
    for seed in (0, 17, 2024):
        params = _same_draw_parameters(a2, mu1, mu2, n, seed)
        h = product_class_histogram(a2, mu1, mu2, bins=16, n_samples=n, seed=seed)
        assert np.array_equal(h.counts, _binned(params, 16)), (w1, w2, seed)


@pytest.mark.parametrize("name, w1, w2", [("A1", "2/5", "1/3"), ("A2", "1/4,1/5", "1/3,1/7")])
def test_oracle_histogram_reads_no_kappa_gluing_or_character_path(monkeypatch, name, w1, w2):
    """On a fresh root system, with every kappa-sum, spline, toric,
    gluing and character path replaced by a sentinel that raises
    (`ORACLE_FORBIDDEN`), the histogram of 70 001 samples (the last chunk
    partial) has the same counts as unpatched; the kappa-sum itself stops
    at a sentinel."""
    def marks(rs):
        return [rs.from_weight_coords(vec([Q(x) for x in w.split(",")])) for w in (w1, w2)]

    def counts(rs):
        return product_class_histogram(rs, *marks(rs), bins=16, n_samples=70001, seed=3).counts

    expected = counts(build_root_system(name))
    for owner, names in ORACLE_FORBIDDEN:
        forbid(monkeypatch, owner, *names)
    fresh = RootSystem(GroupSpec.parse(name))
    assert np.array_equal(counts(fresh), expected)
    with pytest.raises(AssertionError, match="is forbidden here"):
        pants_volume_kappa(fresh, *marks(fresh), marks(fresh)[0])


def _ks_two_sample_bound(n, alpha=1e-6):
    """Threshold for the sup-distance of two empirical CDFs of n samples
    each from one law: |F_n - G_n| <= |F_n - F| + |G_n - F|, and the
    Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant puts
    each term above eps / 2 with probability at most 2 exp(-n eps^2 / 2),
    so the distance exceeds sqrt(ln(4 / alpha)) * sqrt(2 / n) with
    probability at most alpha.  Binning only lowers the distance."""
    return math.sqrt(math.log(4 / alpha)) * math.sqrt(2 / n)


def _cdf_distance(c1, c2):
    return float(np.abs(np.cumsum(c1) / c1.sum() - np.cumsum(c2) / c2.sum()).max())


def test_off_diagonal_draw_has_the_haar_law(a1):
    """One uniform per sample, the A1 histogram's draw of s (pinned draw
    for draw by test_histogram_matches_five_product_reference), and
    |w_01|^2 of `haar_sample` agree within the two-sample KS bound at
    alpha = 1e-6, the exact statistic of the two unbinned samples."""
    n = 200000
    s = np.sort(np.random.default_rng(50).random(n))
    w = haar_sample(a1, n, np.random.default_rng(51))
    ref = np.sort(np.abs(w[:, 0, 1]) ** 2)
    points = np.concatenate([s, ref])
    ks = np.abs(np.searchsorted(s, points, side="right")
                - np.searchsorted(ref, points, side="right")).max() / n
    assert ks < _ks_two_sample_bound(n)


@pytest.mark.parametrize("t1, t2", [("1/2", "2/5"), ("1/5", "7/10"), ("13/40", "19/40")])
def test_one_draw_histogram_has_the_two_factor_law_a1(a1, t1, t2):
    """The one-draw histogram and the two-factor product drawn with
    another seed agree within the two-sample KS bound at alpha = 1e-6."""
    n, bins = 200000, 1024
    mu1, mu2 = t_mu(a1, t1), t_mu(a1, t2)
    h = product_class_histogram(a1, mu1, mu2, bins=bins, n_samples=n, seed=40)
    ref = _binned(_two_factor_parameters(a1, mu1, mu2, n, seed=41), bins)
    assert _cdf_distance(h.counts, ref) < _ks_two_sample_bound(n)


def test_one_draw_histogram_has_the_two_factor_law_a2(a2):
    """Both weight-coordinate marginals of the one-draw A2 histogram agree
    with those of the two-factor product drawn with another seed within
    the two-sample KS bound at alpha = 1e-6."""
    n, bins = 200000, 1024
    mu1 = a2.from_weight_coords(vec([Q(1, 4), Q(1, 5)]))
    mu2 = a2.from_weight_coords(vec([Q(1, 3), Q(1, 7)]))
    h = product_class_histogram(a2, mu1, mu2, bins=bins, n_samples=n, seed=42)
    ref = _binned(_two_factor_parameters(a2, mu1, mu2, n, seed=43), bins)
    grid, ref_grid = h.counts.reshape(bins, bins), ref.reshape(bins, bins)
    for axis in (0, 1):
        assert _cdf_distance(grid.sum(axis=axis), ref_grid.sum(axis=axis)) < (
            _ks_two_sample_bound(n)
        ), axis


@pytest.mark.parametrize("t1, t2, bins", [
    ("0", "1/3", 3), ("1", "1/3", 3), ("1/3", "0", 3), ("0", "1/4", 4),
    ("1", "1/4", 4), ("0", "3/5", 5), ("1", "2/5", 5), ("0", "1/6", 6),
])
def test_central_factor_on_bin_edge_fills_one_bin(a1, t1, t2, bins):
    # a central factor leaves the other class fixed, here on a bin edge:
    # the point mass lands in one bin, not split by rounding noise
    for seed in (0, 1):
        h = product_class_histogram(a1, t_mu(a1, t1), t_mu(a1, t2),
                                    bins=bins, n_samples=5000, seed=seed)
        assert np.count_nonzero(h.counts) == 1


def test_a1_bins_match_the_plain_expression():
    """The A1 binning, `_bin_index(_a1_parameter(tr), bins)` run in place
    in two arrays, gives the bins of the plain expression
    min(floor(arccos(clip(tr / 2, -1, 1)) / pi * bins), bins - 1), at the
    ends of the trace range and past them too.  On a strided column view,
    as the A2 path calls it, `_bin_index` bins that column and leaves the
    other one untouched."""
    rng = np.random.default_rng(11)
    tr = np.concatenate([rng.uniform(-2.0, 2.0, 5000), [-2.0, 2.0, 0.0, -2.0000001, 2.0000001,
                                                      2 * math.cos(math.pi / 3)]])
    for bins in (1, 7, 64):
        plain = np.minimum((np.arccos(np.clip(tr / 2.0, -1.0, 1.0)) / math.pi * bins).astype(int),
                           bins - 1)
        assert np.array_equal(_bin_index(_a1_parameter(tr), bins), plain), bins
        params = rng.uniform(0.0, 1.0, (1000, 2))
        params[:4] = [[0.0, 1.0], [1.0, 0.0], [0.5, np.nextafter(1.0, 0.0)], [1 - 1e-12, 0.25]]
        first, second = params[:, 0].copy(), params[:, 1].copy()
        idx = _bin_index(params[:, 0], bins)
        assert np.array_equal(idx, np.minimum((first * bins).astype(int), bins - 1)), bins
        assert np.array_equal(params[:, 1], second), bins
