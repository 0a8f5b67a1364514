"""Monte-Carlo holonomy oracle for SU(2) and SU(3).

Validates the shape of volume functions: the class parameter of a product
of independent uniform conjugacy-class elements has density proportional
to vol(mu1, mu2, *s) times the class Jacobian prod_a 2 sin(pi<a, s>)
(one net sine power per positive root, the same resolution as the
character-series bookkeeping).  Everything is seed-deterministic.

One Haar element w is drawn per sample, and the oracle stays a simulation.
The map (g1, g2) -> (g1, g1^H g2) preserves Haar x Haar measure, and
conjugating by g1 turns g1 d1 g1^H g2 d2 g2^H into d1 w d2 w^H, so the
class of the product of the two uniform class elements has the law of the
class of d1 w d2 w^H, w Haar (Mezzadri, Notices AMS 54, 2007, for the Haar
draws).  For SU(2) only the real trace of the product is needed.  For
diagonal d1, d2 and w in SU(2), |w_00|^2 = |w_11|^2 = 1 - s and
|w_10|^2 = s with s = |w_01|^2, so
tr(d1 w d2 w^H) = S + (C - S) s,
with S = Re(d1_0 d2_0 + d1_1 d2_1) and C = Re(d1_0 d2_1 + d1_1 d2_0).
The first row of a Haar w in SU(2) is uniform on the unit sphere of C^2
(its law is invariant under w -> w h), as a normalized standard complex
normal 2-vector is, whose squared moduli are independent exponentials:
(|w_00|^2, |w_01|^2) has the flat Dirichlet law, so s has the Beta(1, 1)
law, uniform on [0, 1].  The A1 oracle draws s as one uniform per sample
and forms no complex matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import Vec
from .liecore import RootSystem

__all__ = [
    "ClassHistogram",
    "product_class_histogram",
    "shape_compare",
    "model_grid",
    "haar_sample",
    "class_representative",
    "class_parameter_batch",
]

_CHUNK = 1 << 16
MAX_CELLS = 1 << 20  # histogram cells: bins for A1, bins^2 for A2


@dataclass
class ClassHistogram:
    """Histogram of alcove parameters; 1-d for A1, triangular grid for A2."""

    group: str
    bins: int
    counts: np.ndarray
    total: int
    seed: int
    edges: np.ndarray | None = None


def _check_group(rs: RootSystem) -> None:
    if rs.spec.name not in ("A1", "A2"):
        raise ValueError("the holonomy oracle supports A1 and A2 only")


def haar_sample(rs: RootSystem, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-uniform SU(d) matrices, d = rank + 1, batched (n, d, d)."""
    _check_group(rs)
    d = rs.rank + 1
    z = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    qmat, rmat = np.linalg.qr(z)
    diag = np.einsum("nii->ni", rmat)
    qmat = qmat * (diag / np.abs(diag))[:, None, :]
    dets = np.linalg.det(qmat)
    return qmat * (dets ** (-1.0 / d))[:, None, None]


def class_representative(rs: RootSystem, mu: Vec) -> np.ndarray:
    """exp(mu) as a diagonal special unitary matrix (period-1 convention);
    alpha_i = e_i - e_(i+1), so mu's root coordinates c give c_i - c_(i-1)."""
    _check_group(rs)
    return np.diag(np.exp(2j * math.pi * np.diff([0.0, *map(float, mu), 0.0])))


def class_parameter_batch(rs: RootSystem, u: np.ndarray) -> np.ndarray:
    """Alcove coordinates for a batch: t for A1, (x, y) weight coords for A2."""
    if rs.spec.name == "A1":
        return _a1_parameter(np.real(np.einsum("nii->n", u)))[:, None]
    phases = np.angle(np.linalg.eigvals(u)) / (2 * math.pi)
    f = np.mod(phases, 1.0)
    f.sort(axis=1)
    f = f[:, ::-1]
    s = np.rint(f.sum(axis=1)).astype(int)
    v = f.copy()
    for k in (1, 2):
        mask = s == k
        v[mask, :k] -= 1.0
    v.sort(axis=1)
    v = v[:, ::-1]
    x = v[:, 0] - v[:, 1]
    y = v[:, 1] - v[:, 2]
    return np.stack([x, y], axis=1)


def _a1_parameter(tr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Alcove parameter t in [0, 1] of SU(2) elements from their real
    traces, arccos(clip(tr / 2, -1, 1)) / pi: written into `out` (tr
    itself may be given) or into one new array, each later step in place
    in it (np.clip as its maximum, then its minimum)."""
    t = np.divide(tr, 2.0, out=out)
    np.maximum(t, -1.0, out=t)
    np.minimum(t, 1.0, out=t)
    np.arccos(t, out=t)
    return np.divide(t, math.pi, out=t)


def _bin_index(params: np.ndarray, bins: int, out: np.ndarray | None = None) -> np.ndarray:
    """min(floor(params * bins), bins - 1), the bins of parameters in
    [0, 1]: params is multiplied in place (a column view too), and the int
    result is written into `out`, an int array of params' shape, or into
    one new array."""
    np.multiply(params, bins, out=params)
    idx = np.empty(params.shape, dtype=int) if out is None else out
    idx[...] = params  # truncated, as astype(int) truncates
    return np.minimum(idx, bins - 1, out=idx)


def product_class_histogram(
    rs: RootSystem,
    mu1: Vec,
    mu2: Vec,
    bins: int,
    n_samples: int,
    seed: int,
) -> ClassHistogram:
    """Histogram of the class parameter of g1 d1 g1^H g2 d2 g2^H, d_i =
    exp(mu_i) and g_i Haar-uniform, so each factor is uniform on C_{mu_i}.

    Each sample is the class of d1 w d2 w^H for one Haar element w, which
    has the same law (module docstring).  A1 draws s = |w_01|^2 directly,
    one uniform per sample (s has the Beta(1, 1) law), and reads the real
    trace as S + (C - S) s, without forming a complex matrix: every step,
    from the draw to the bin, runs in place in one reused buffer.  A2 draws one
    `haar_sample` per chunk and forms d1 (w d2 w^H) by diagonal scalings
    around one batched product; the Haar QR and `eigvals` take most of its
    time.  A histogram has bins cells for A1 and bins^2 for A2, at most
    MAX_CELLS.
    """
    _check_group(rs)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if bins < 1:
        raise ValueError("need at least one bin")
    cells = bins**rs.rank
    if cells > MAX_CELLS:
        raise ValueError(f"{bins} bins make {cells} histogram cells, more than {MAX_CELLS}")
    rng = np.random.default_rng(seed)
    e1 = np.diag(class_representative(rs, mu1))
    e2 = np.diag(class_representative(rs, mu2))
    a1 = rs.spec.name == "A1"
    counts = np.zeros(cells, dtype=np.int64)
    if a1:
        coef = np.real(np.outer(e1, e2))  # Re(d1_j d2_k)
        same, cross = coef[0, 0] + coef[1, 1], coef[0, 1] + coef[1, 0]
        # one float and one int buffer of 2^14 entries (128 KB each) serve
        # every chunk: the draws, the traces, the parameters and the bins
        # are made in place; uniforms drawn in chunks of any size follow
        # each other in the generator's stream
        draws = np.empty(min(n_samples, 1 << 14))
        ints = np.empty(draws.size, dtype=int)
    done = 0
    while done < n_samples:
        m = min(draws.size if a1 else _CHUNK, n_samples - done)
        if a1:
            tr = rng.random(out=draws[:m])  # s = |w_01|^2
            np.multiply(tr, cross - same, out=tr)
            np.add(tr, same, out=tr)  # same + (cross - same) s
            idx = _bin_index(_a1_parameter(tr, out=tr), bins, out=ints[:m])
        else:
            w = haar_sample(rs, m, rng)
            u = e1[:, None] * ((w * e2) @ np.conj(np.swapaxes(w, 1, 2)))
            params = class_parameter_batch(rs, u)
            idx = _bin_index(params[:, 0], bins) * bins + _bin_index(params[:, 1], bins)
        counts += np.bincount(idx, minlength=cells)
        done += m
    return ClassHistogram(
        group=rs.spec.name,
        bins=bins,
        counts=counts,
        total=n_samples,
        seed=seed,
        edges=np.linspace(0.0, 1.0, bins + 1),
    )


def model_grid(bins: int) -> np.ndarray:
    """The 4 bins + 1 points t of [0, 1] at which `shape_compare` reads the
    model density."""
    return np.linspace(0.0, 1.0, 4 * bins + 1)


def shape_compare(hist: ClassHistogram, vol) -> float:
    """Sup-distance between the empirical CDF and the model CDF.

    vol maps an alcove parameter t in [0, 1] (A1 convention <alpha,mu> = t)
    to the moduli volume, or is the array of its values at the points of
    `model_grid(hist.bins)`; the model density is vol(t) * 2 sin(pi t).
    Only the rank-1 statistic is implemented; A2 histograms compare by
    total-variation over bins.
    """
    if hist.group != "A1":
        raise ValueError("KS-style comparison implemented for A1 histograms")
    bins = hist.bins
    grid = model_grid(bins)
    values = vol if isinstance(vol, np.ndarray) else [vol(t) for t in grid]
    sines = np.array([math.sin(math.pi * t) for t in grid.tolist()])
    dens = np.asarray(values, dtype=float) * 2.0 * sines
    if not np.all(dens >= -1e-12):
        raise ValueError("volume function must be nonnegative")
    cdf_fine = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2)])
    if cdf_fine[-1] <= 0:
        raise ValueError("volume function integrates to zero on the alcove")
    cdf_fine /= cdf_fine[-1]
    model_cdf = cdf_fine[::4]
    emp_cdf = np.concatenate([[0.0], np.cumsum(hist.counts) / hist.total])
    return float(np.abs(emp_cdf - model_cdf).max())
