"""Root systems, Weyl groups, lattices and alcoves.

Every vector lives in the simple-root basis of t*, with exact rational
coordinates; t is identified with t* through the invariant inner product,
normalized so that long roots have squared length 2.  The exponential map
underlying all alcove conventions is exp(mu) = exp_matrix(2*pi*mu), so the
integral lattice is the coroot lattice and weights pair with alcove points
as e^{2*pi*i*<lambda, mu>}.

Irrational scalars appear in exactly two places: the covolume of the
coroot lattice (sqrt of a rational determinant) and the Riemannian volume
of the group.  Everything else is a Fraction, except the integer objects:
the Weyl group and the coroot basis are stored once, as integer matrices,
and as int64 tables for the lattice sums (`coroot_table`, and
`coroot_balls`, every point's lattice ball from one blocked product) and
the affine Weyl representatives of the toric route
(`enumerate_waff_positive`).  Points enter and leave the Fraction world
through integer forms, made on first use: the inner product through the
integer Gram matrix (`int_gram`), the alcove test through the simple and
highest roots paired with it (`int_alcove`, read by `alcove_membership`),
and the change to and from fundamental-weight coordinates through the
fundamental weights scaled to ints and the integer Cartan matrix
(`int_weights`, read by `from_weight_coords` and `to_weight_coords`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import mul

import numpy as np

from .exact import (
    Mat,
    Q,
    Vec,
    _int_form,
    as_q,
    common_denominator,
    det,
    int_bilinear,
    inverse,
    lattice_points_in_ball,
    mat,
    mat_t,
    matvec,
    scaled,
    vec,
    vscale,
    vzero,
)

IntMat = tuple[tuple[int, ...], ...]

BALL_ENTRIES = 1 << 16  # table rows times points in one block of `RootSystem.coroot_balls`

__all__ = [
    "GroupSpec",
    "WeylElement",
    "Alcove",
    "RootSystem",
    "UnsupportedTypeError",
    "build_root_system",
    "star",
    "alcove_membership",
    "enumerate_waff_positive",
    "covolume_T",
    "volume_G",
]


class UnsupportedTypeError(ValueError):
    """Raised for group types outside the supported table."""


# Cartan matrix C[i][j] = <alpha_j, alpha_i^vee> and root-length vector
# d_i = |alpha_i|^2 / 2, normalized so the long roots have d = 1.
_SUPPORTED: dict[tuple[str, int], tuple[list[list[int]], list[Fraction]]] = {
    ("A", 1): ([[2]], [Q(1)]),
    ("A", 2): ([[2, -1], [-1, 2]], [Q(1)] * 2),
    ("A", 3): ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [Q(1)] * 3),
    ("A", 4): (
        [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        [Q(1)] * 4,
    ),
    ("B", 2): ([[2, -1], [-2, 2]], [Q(1), Q(1, 2)]),
    ("C", 2): ([[2, -2], [-1, 2]], [Q(1, 2), Q(1)]),
    ("C", 3): ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [Q(1, 2), Q(1, 2), Q(1)]),
    ("D", 4): (
        [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
        [Q(1)] * 4,
    ),
    ("G", 2): ([[2, -1], [-3, 2]], [Q(1), Q(1, 3)]),
}


@dataclass(frozen=True)
class GroupSpec:
    """Series letter and rank of a simple, simply connected group."""

    series: str
    rank: int

    @classmethod
    def parse(cls, name: str) -> "GroupSpec":
        name = name.strip()
        if len(name) < 2 or not name[0].isalpha() or not name[1:].isdigit():
            raise UnsupportedTypeError(f"cannot parse group spec {name!r}")
        spec = cls(name[0].upper(), int(name[1:]))
        if (spec.series, spec.rank) not in _SUPPORTED:
            raise UnsupportedTypeError(f"unsupported group type {name!r}")
        return spec

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal action on simple-root coordinates, an integer matrix,
    plus its length."""

    matrix: IntMat
    length: int

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def act(self, v: Vec) -> Vec:
        return matvec(self.matrix, v)


@dataclass(frozen=True)
class Alcove:
    """Fundamental alcove: <alpha_i, mu> >= 0 for simple i, <alpha_0, mu> <= 1."""

    vertices: tuple[Vec, ...]


class RootSystem:
    """Root and weight data of one supported simple type.

    Single source of truth for inner products, lattices and the alcove.
    The roots, the Weyl group with its lengths, the weights, the lattice
    bases and the alcove are fixed at construction.  Caches grow on use:
    the lattice table of `coroot_table`, `weyl_array`, `int_alcove` and
    `int_weights` on their first read, and
    the entries that `kappa`, `characters` and `gluing` keep in the
    instance's __dict__ (`_kappa_splines`, `_pullback_operators`, the
    weight Gram `_weight_gram`, `_affine_matrices`), so they go with it.
    """

    def __init__(self, spec: GroupSpec):
        key = (spec.series, spec.rank)
        if key not in _SUPPORTED:
            raise UnsupportedTypeError(f"unsupported group type {spec.name}")
        cartan_rows, lengths = _SUPPORTED[key]
        self.spec = spec
        self.rank = spec.rank
        self.cartan_matrix: Mat = mat(cartan_rows)
        self._d = tuple(lengths)
        # Gram matrix of the simple roots: B_ij = d_i * C[i][j].
        self.gram: Mat = tuple(
            tuple(self._d[i] * self.cartan_matrix[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self.det_gram: Q = det(self.gram)
        # (gram scaled to ints by its common denominator g, g), kept here
        # because hashing the Fraction gram for a cache lookup costs more
        # than the integer products it serves
        self.int_gram: tuple[IntMat, int] = _int_form(self.gram)
        self.simple_roots: tuple[Vec, ...] = tuple(
            tuple(Q(1 if i == j else 0) for j in range(self.rank))
            for i in range(self.rank)
        )
        # One breadth-first closure of the simple reflections, in ints.  An
        # element's level is its word length, which is its inversion count,
        # and the matrices' columns, the Weyl images of the simple roots, are
        # all the roots (J. E. Humphreys, Reflection Groups and Coxeter
        # Groups, 1990, 1.5-1.7).  s_i(v) = v - <v, alpha_i^vee> alpha_i
        # changes only coordinate i, so s_i m changes only row i of m.
        eye = tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))
        levels = {eye: 0}
        frontier = [eye]
        while frontier:
            new = []
            for m in frontier:
                cols = tuple(zip(*m))
                for i, crow in enumerate(cartan_rows):
                    row = tuple(x - sum(map(mul, crow, col)) for x, col in zip(m[i], cols))
                    img = m[:i] + (row,) + m[i + 1:]
                    if img not in levels:
                        levels[img] = levels[m] + 1
                        new.append(img)
            frontier = new
        # elements sort by (length, matrix), so the longest comes last
        self._weyl_elements: tuple[WeylElement, ...] = tuple(
            WeylElement(matrix=m, length=n) for n, m in sorted((n, m) for m, n in levels.items())
        )
        self.w0: WeylElement = self._weyl_elements[-1]
        roots = {col for m in levels for col in zip(*m)}
        # sorted by (height, coordinates): the highest root comes last
        self.positive_roots: tuple[Vec, ...] = tuple(
            vec(r) for _, r in sorted((sum(r), r) for r in roots if min(r) >= 0)
        )
        self.n_positive = len(self.positive_roots)
        self.dim_g = self.rank + 2 * self.n_positive
        self.highest_root: Vec = self.positive_roots[-1]
        # Fundamental weights: the columns of C^-1, solving C x = e_i.
        self.fundamental_weights: tuple[Vec, ...] = mat_t(inverse(self.cartan_matrix))
        self.rho: Vec = vec(
            sum(w[j] for w in self.fundamental_weights) for j in range(self.rank)
        )
        # the simple coroots alpha_i / d_i, integral in root coordinates
        # (1 / d_i is an integer)
        assert all((1 / d).denominator == 1 for d in self._d)
        self.coroot_basis: IntMat = tuple(
            tuple(int(i == j) * int(1 / self._d[i]) for j in range(self.rank))
            for i in range(self.rank)
        )
        self.coroot_gram: Mat = tuple(
            tuple(self.ip(a, b) for b in self.coroot_basis) for a in self.coroot_basis
        )
        self.det_coroot_gram: Q = det(self.coroot_gram)
        # sqrt(det coroot Gram * det Gram), which divides the exact rational
        # part of a volume, as a float and as its stamp
        dets = self.det_coroot_gram * self.det_gram
        self.volume_normalization: tuple[float, str] = math.sqrt(float(dets)), f"1/sqrt({dets})"
        self.center_order: int = int(det(self.cartan_matrix))
        # the gram matrix is symmetric, so the rows of its inverse are
        # the dual basis of the simple roots
        self.alcove = Alcove(
            vertices=(vzero(self.rank),)
            + tuple(self._alcove_vertex(u) for u in inverse(self.gram))
        )
        self._lattice_table = (-1, np.zeros((0, self.rank + 1), dtype=np.int64), 0)

    # -- inner products and pairings -------------------------------------

    def ip(self, u: Vec, v: Vec) -> Q:
        """Invariant inner product, exact: u and v scaled to ints by their
        common denominators, paired with the integer-scaled gram
        (`exact.int_bilinear`), and one Fraction, as in `norm_sq`."""
        du, dv = common_denominator(u), common_denominator(v)
        igram, scale = self.int_gram
        return Q(int_bilinear(igram, scaled(u, du), scaled(v, dv)), scale * du * dv)

    def norm_sq(self, u: Vec) -> Q:
        """ip(u, u): u scaled to ints by its common denominator, paired with
        itself by the integer-scaled gram (`exact.int_bilinear`), and one
        Fraction."""
        den = common_denominator(u)
        igram, scale = self.int_gram
        x = scaled(u, den)
        return Q(int_bilinear(igram, x, x), scale * den * den)

    def pair_coroot(self, mu: Vec, root: Vec) -> Q:
        """<mu, root^vee> = 2 <mu, root> / <root, root>."""
        return 2 * self.ip(mu, root) / self.norm_sq(root)

    # -- basis conversions -------------------------------------------------

    @cached_property
    def int_weights(self) -> tuple[IntMat, int, IntMat]:
        """(F, e, C): the fundamental weights as integer rows F = e omega_i,
        e their common denominator, and the Cartan matrix in ints, which
        takes root coordinates to weight coordinates (<mu, alpha_i^vee> =
        sum_j C_ij mu_j), so that C F^T = e.  Made on first use."""
        e = common_denominator(chain.from_iterable(self.fundamental_weights))
        return (tuple(tuple(scaled(w, e)) for w in self.fundamental_weights), e,
                tuple(tuple(map(int, row)) for row in self.cartan_matrix))

    @cached_property
    def int_alcove(self) -> tuple[IntMat, int]:
        """(A, g): the simple roots and then the highest root paired with
        `int_gram` (I, g), as integer rows, so that <alpha, mu> = (A x) / (g D)
        for x = D mu in ints.  Made on first use."""
        igram, g = self.int_gram
        theta = scaled(self.highest_root, 1)
        return (*igram, tuple(sum(map(mul, theta, col)) for col in zip(*igram))), g

    def from_weight_coords(self, coeffs) -> Vec:
        """Vector with the given fundamental-weight coordinates (rationals
        or ints, any iterable): F^T y / (D e) for y = D c in ints
        (`int_weights`), one Fraction per coordinate."""
        coeffs = tuple(coeffs)
        weights, e, _ = self.int_weights
        den = common_denominator(coeffs)
        y = scaled(coeffs, den)
        return tuple(Q(sum(map(mul, y, col)), den * e) for col in zip(*weights))

    def to_weight_coords(self, v: Vec) -> Vec:
        """Coordinates of v in the fundamental-weight basis, <v, alpha_i^vee>:
        C x / D for x = D v in ints (`int_weights`)."""
        den = common_denominator(v)
        x = scaled(v, den)
        return tuple(Q(sum(map(mul, row, x)), den) for row in self.int_weights[2])

    # -- roots -------------------------------------------------------------

    def _alcove_vertex(self, u: Vec) -> Vec:
        h = self.ip(self.highest_root, u)
        return vscale(1 / h, u)

    def coroot_table(self, limit: int) -> tuple[np.ndarray, int]:
        """(rows, width): the lattice table, one int64 row [l, g |l|^2] for
        each coroot-lattice vector l (root coordinates) with g |l|^2 <= top
        for some top >= limit (g the scale of `int_gram`), in the order of
        `lattice_points_in_ball`, and the largest absolute entry.  Its
        radius doubles as needed: filtering a larger ball keeps that (lex)
        order."""
        top, rows, width = self._lattice_table
        if limit > top:
            igram, g = self.int_gram
            top = max(limit, 2 * top)
            coeffs = lattice_points_in_ball(self.coroot_gram, Q(top, g))
            vectors = np.array(coeffs, dtype=np.int64) @ np.array(self.coroot_basis, dtype=np.int64)
            norms = ((vectors @ np.array(igram, dtype=np.int64)) * vectors).sum(axis=1)
            rows = np.column_stack((vectors, norms))
            self._lattice_table = top, rows, int(np.abs(rows).max(initial=0))
        return self._lattice_table[1:]

    def coroot_ball(self, limit: int) -> np.ndarray:
        """The coroot-lattice vectors l with g |l|^2 <= limit, read off
        `coroot_table` in its order."""
        rows, _ = self.coroot_table(limit)
        return rows[rows[:, -1] <= limit, :-1]

    def coroot_balls(self, points, radius_sq: Q) -> list[np.ndarray]:
        """For each point mu, given in ints as (D, [x]) with x = D mu, the
        coroot-lattice vectors l with |mu + l|^2 <= r = radius_sq, as int64
        rows in the order of `coroot_table`: one array a point.

        As |l| <= |mu| + sqrt(r), each lies in the centred ball
        |l|^2 <= R = 2 |mu|^2 + 2 r, and floor(g R), read from x.I x and r
        ((I, g) = `int_gram`), the largest over the points, sizes the
        table.  One product of the table's rows [l, n] (n = g |l|^2) with
        a weight matrix whose row j is [2 D_j I x_j, D_j^2] then tests
            g D^2 |mu + l|^2 = D^2 n + 2 D l.(I x) + x.I x <= floor(g D^2 r)
        for every point at once (a ball does not depend on the scale D).
        The product is taken in blocks of at most BALL_ENTRIES // |table|
        points, so its transient memory stays bounded, in int64 when a
        bound on every entry is below 2^62 and on Python-int objects above
        it.  A single point, the last marking of one volume, takes one
        matrix-vector product, which costs less than a block of one."""
        igram, g = self.int_gram
        n, d = radius_sq.numerator, radius_sq.denominator
        # per point the test less x.I x, D^2 n + l.(2 D I x) <= limit, as a
        # row [2 D I x, D^2, limit]; the largest of a row's weight sizes
        # summed and its |limit|, and floor(g R), over all points
        tests, size, top = [], 0, 0
        for scale, (x,) in points:
            ix, square = [sum(map(mul, row, x)) for row in igram], scale * scale
            xix = sum(map(mul, x, ix))
            top = max(top, (2 * xix * d + 2 * g * n * square) // (square * d))
            test = [*(2 * scale * c for c in ix), square, g * square * n // d - xix]
            size = max(size, sum(map(abs, test[:-1])), abs(test[-1]))
            tests.append(test)
        rows, width = self.coroot_table(top)
        # above every |row . weights|, even at l = 0, and every |limit|
        dtype = np.int64 if max(1, width) * size < 2**62 else object
        table = rows.astype(dtype, copy=False)
        if len(tests) == 1:
            (*weights, limit), = tests
            return [rows[table @ np.array(weights, dtype=dtype) <= limit, :-1]]
        tests = np.array(tests, dtype=dtype).reshape(-1, self.rank + 2)
        weights, limits, step = tests[:, :-1], tests[:, -1:], max(1, BALL_ENTRIES // len(rows))
        return [rows[keep, :-1] for lo in range(0, len(tests), step)
                for keep in weights[lo:lo + step] @ table.T <= limits[lo:lo + step]]

    # -- Weyl group ----------------------------------------------------------

    def weyl_elements(self) -> tuple[WeylElement, ...]:
        return self._weyl_elements

    @cached_property
    def weyl_array(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The matrices of `weyl_elements` as one int64 tensor, their signs,
        and their largest absolute row sum, a bound of max|w x| / max|x|."""
        mats = np.array([w.matrix for w in self.weyl_elements()], dtype=np.int64)
        signs = np.array([w.sign for w in self.weyl_elements()], dtype=np.int64)
        return mats, signs, int(np.abs(mats).sum(axis=2).max())


@lru_cache(maxsize=None)
def _cached_root_system(series: str, rank: int) -> RootSystem:
    return RootSystem(GroupSpec(series, rank))


def build_root_system(spec: GroupSpec | str) -> RootSystem:
    """Construct (and cache) the root system for a supported type."""
    if isinstance(spec, str):
        spec = GroupSpec.parse(spec)
    return _cached_root_system(spec.series, spec.rank)


def star(rs: RootSystem, mu: Vec) -> Vec:
    """The involution *mu = -w0.mu; maps the alcove to itself."""
    return vscale(Q(-1), rs.w0.act(mu))


def alcove_membership(rs: RootSystem, mu: Vec) -> tuple[str, list[str]]:
    """Classify mu against the closed alcove.

    Returns ('interior'|'boundary'|'outside', list of tight facet labels).
    Each facet's pairing is read in ints from `RootSystem.int_alcove`:
    <alpha_i, mu> = (A x)_i / (g D) for x = D mu, and <alpha_0, mu> <= 1 is
    (A x)_0 <= g D.
    """
    rows, g = rs.int_alcove
    den = common_denominator(mu)
    x = scaled(mu, den)
    *simple, top = (sum(map(mul, row, x)) for row in rows)
    if min(simple) < 0 or top > g * den:
        return "outside", []
    tight = [f"alpha_{i + 1}" for i, v in enumerate(simple) if v == 0]
    if top == g * den:
        tight.append("alpha_0")
    return ("boundary", tight) if tight else ("interior", [])


def enumerate_waff_positive(rs: RootSystem, radius_sq: Q | int) -> tuple[np.ndarray, np.ndarray]:
    """Affine Weyl elements mapping the alcove into the dominant chamber.

    One representative x -> w_u x + t per left coset W\\Waff, labelled by a
    coroot vector m with squared norm <= radius_sq: int64 arrays u (indices
    into `weyl_elements`) and t (rows), one entry per row of
    `RootSystem.coroot_ball`, in its order.  w_u is the one element taking
    b + m, b the alcove barycenter, into the dominant chamber (b + m is
    regular), found for every m in one broadcast over `weyl_array` with
    dominance read off `int_gram`, and t = w_u m.
    """
    radius_sq, verts = as_q(radius_sq), rs.alcove.vertices
    igram, g = rs.int_gram
    m = rs.coroot_ball(g * radius_sq.numerator // radius_sq.denominator)  # floor(g R)
    mats = rs.weyl_array[0]
    den = common_denominator(chain.from_iterable(verts))
    # (r + 1) den (b + m) in ints, and <w x, alpha_i> >= 0 for every simple i
    # as (igram w) x >= 0
    x = sum(np.array(scaled(v, den), dtype=np.int64) for v in verts) + len(verts) * den * m
    dominant = (x @ (np.array(igram, dtype=np.int64) @ mats).transpose(0, 2, 1) >= 0).all(axis=2)
    u = dominant.argmax(axis=0)
    return u, np.einsum("nij,nj->ni", mats[u], m)


def covolume_T(rs: RootSystem) -> float:
    """Covolume of t / (coroot lattice): sqrt det of the coroot Gram matrix."""
    return math.sqrt(float(rs.det_coroot_gram))


def rho_product(rs: RootSystem) -> Q:
    """prod over positive roots of <rho, alpha>, exact."""
    p = Q(1)
    for a in rs.positive_roots:
        p *= rs.ip(rs.rho, a)
    return p


def volume_G(rs: RootSystem) -> float:
    """Riemannian volume of the group in the normalized metric.

    Derivation: integration over conjugacy classes gives
    Vol(G) = Vol(G/T) * Vol(T) with Vol(T) = (2*pi)^rank * covol(coroot
    lattice) (the exponential mu -> exp(2*pi*mu) stretches each of the rank
    torus directions by 2*pi), while the flag manifold with the metric
    induced by the normalized inner product has
    Vol(G/T) = prod_{alpha > 0} 2*pi / <rho, alpha>.
    For A1 this reproduces the 3-sphere of radius sqrt(2),
    Vol = 2*pi^2*(sqrt 2)^3, which the tests check independently, and the
    class-integration identity int_A prod (2 sin pi<alpha,mu>)^2 dmu =
    covol pins the same normalization by quadrature.
    """
    r, n = rs.rank, rs.n_positive
    return (2 * math.pi) ** (r + n) * covolume_T(rs) / float(rho_product(rs))
