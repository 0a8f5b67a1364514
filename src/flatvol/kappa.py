"""The truncated power kappa: pushforward of the orthant measure.

kappa(xi) is the density at xi of the pushforward of Lebesgue measure on
R_+^n under x -> sum_i x_i v_i, taken relative to the inner-product
Lebesgue measure on t*.  Three independent exact evaluators are provided:

* `kappa_point` computes the exact (n-rank)-volume of the fiber polytope
  {x >= 0 : sum x_i v_i = xi}: its vertices are the basic feasible
  solutions (one rank x rank solve per basis of the vectors), and its
  volume is summed over an anchored triangulation in integers;
* `kappa_build` returns a chamber-complex spline whose polynomials are
  built in closed form by Lawrence's vertex formula (J. Lawrence,
  "Polytope volume computation", Math. Comp. 57, 1991; one term per
  feasible basis of the vectors).  The vertex table is kept in Python
  ints (feasibility rows of each basis inverse, and each term as integer
  numerators over one table denominator) and stacked into arrays, so a
  new chamber's feasible bases are found by one integer matmul; each
  chamber is stored once, as that integer sum over the denominator,
  reduced, and is evaluated in ints;
* `VectorConfig.truncated_power` evaluates the truncated-power
  recurrence (|S| - r) T_S(x) = sum_{b in B} t_b T_{S-b}(x) over
  sub-multisets S, B a basis in S and x = sum t_b b, off the walls, with
  every basis coordinate t from one integer matmul.  It reads the vectors
  only, never the vertex table, and checks each new chamber once at its
  sample point when it is built; the toric route reads its kappa values
  from it off the walls.

The integer matmuls run in int64 when a bound on every entry allows and
on Python-int object arrays otherwise (`_row_products`).

Chamber polynomials are stored relative to coordinate Lebesgue measure in
the simple-root basis; the single conversion factor to inner-product
Lebesgue is 1/sqrt(det Gram), kept symbolic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, count
from operator import mul, sub

import numpy as np

from .exact import (
    Q, Vec, _eliminate, common_denominator, det, mat_t, nullspace, pivot_columns, scaled,
    scaled_inverse, solve, vec,
)
from .liecore import RootSystem
from .poly import (
    Poly,
    poly_add,
    poly_const,
    poly_mul,
    poly_subs_affine,
)

__all__ = [
    "OnWallError",
    "DegenerateArrangementError",
    "KappaValue",
    "VectorConfig",
    "PiecewisePolynomial",
    "kappa_point",
    "kappa_build",
    "SymmetricPoly",
    "DiffOperator",
    "pullback_operator",
]


class OnWallError(ValueError):
    """Evaluation requested at a non-regular point of a chamber complex."""


class DegenerateArrangementError(RuntimeError):
    """A built chamber polynomial disagrees with the truncated-power
    recurrence at its sample point (an internal bug), or a wall of the
    configuration contains the nudge direction."""


# ---------------------------------------------------------------------------
# exact polytope volume
# ---------------------------------------------------------------------------


def _polytope_volume(verts: list[Vec], facets: list[frozenset[int]], dim: int) -> Q:
    """Exact Lebesgue volume of the convex hull of `verts` in R^dim.

    `facets` lists, per supporting inequality, the indices of the
    vertices on it.  The hull is triangulated by pulling the least vertex
    index into every facet that misses it, recursively, and the simplex
    volumes are taken in ints: the vertices are scaled by one common
    denominator.
    """
    if len(verts) <= dim:
        return Q(0)
    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def simplices(vset: frozenset[int]) -> list[tuple[int, ...]]:
        if len(vset) == 1:
            return [(next(iter(vset)),)]
        hit = memo.get(vset)
        if hit is not None:
            return hit
        anchor = min(vset)
        out: list[tuple[int, ...]] = []
        seen: set[frozenset[int]] = set()
        for tight in facets:
            sub = vset & tight
            if not sub or anchor in sub or sub == vset or sub in seen:
                continue
            seen.add(sub)
            out.extend((anchor,) + s for s in simplices(sub))
        memo[vset] = out
        return out

    scale = common_denominator(chain.from_iterable(verts))
    points = [scaled(v, scale) for v in verts]
    total = 0
    for simplex in simplices(frozenset(range(len(verts)))):
        if len(simplex) != dim + 1:
            continue
        v0 = points[simplex[0]]
        edges = [list(map(sub, points[i], v0)) for i in simplex[1:]]
        pivots, _, last = _eliminate(edges, dim)
        if len(pivots) == dim:  # the last pivot is then the determinant, up to sign
            total += abs(last)
    return Q(total, scale**dim * math.factorial(dim))


# ---------------------------------------------------------------------------
# vector configurations
# ---------------------------------------------------------------------------


class VectorConfig:
    """A finite spanning multiset of nonnegative integer vectors, stored as
    int tuples (positive roots in simple-root coordinates; a non-integral
    vector or a negative coordinate raises ValueError).

    Precomputes the data needed to evaluate the pushforward density of
    the orthant measure: the free columns that coordinatize each fiber,
    the change-of-variables factor, and the wall hyperplanes (spans of
    corank-one subsets) by their primitive integer normals.  Nonnegative
    vectors push the orthant into the orthant, so every evaluator reads a
    point with a negative coordinate as density 0 without any computation.
    """

    def __init__(self, vectors: list[Vec], det_gram: Q):
        if any(Q(c).denominator != 1 for v in vectors for c in v):
            raise ValueError("the vectors must be integral")
        self.vectors = [tuple(map(int, v)) for v in vectors]
        self.rank = len(self.vectors[0])
        self.n = len(self.vectors)
        self.det_gram = det_gram
        self.degree = self.n - self.rank
        if any(c < 0 for v in self.vectors for c in v):
            raise ValueError("the vectors must have no negative coordinate")
        # the fiber over xi is coordinatized by x_F, F the non-pivot columns
        # of the row-reduced configuration; x_P then follows, P the pivots,
        # and the Jacobian of x -> (sum_i x_i v_i, x_F) is 1/|det A_P|
        pivots = pivot_columns([tuple(v[i] for v in self.vectors) for i in range(self.rank)])
        assert len(pivots) == self.rank, "configuration must span"
        self._free = tuple(j for j in range(self.n) if j not in pivots)
        self._jacobian = Q(1, abs(det(tuple(self.vectors[j] for j in pivots))))
        self.walls = self._wall_functionals()
        # the int64 matrix [I; walls]: x -> x and its wall dot products
        self.extension = np.vstack([np.eye(self.rank, dtype=np.int64),
                                    np.array(self.walls, dtype=np.int64).reshape(-1, self.rank)])
        self.wall_bits = 1 << np.arange(len(self.walls), dtype=np.int64)  # wall sides, packed
        # a fixed direction off every wall: a point on a wall is read in the
        # chamber this direction points to, on the side nudge_signs gives
        self.nudge = tuple(Q(1, (i + 1) ** (i + 1)) for i in range(self.rank))
        self.nudge_signs = self.sign_vector(self.nudge)
        if 0 in self.nudge_signs:
            raise DegenerateArrangementError(f"nudge direction {self.nudge} lies on a wall")

    def _wall_functionals(self) -> list[tuple[int, ...]]:
        """Primitive integer normals of hyperplanes spanned by subsets."""
        walls: set[tuple[int, ...]] = set()
        distinct = sorted(set(self.vectors))
        for subset in combinations(distinct, self.rank - 1):
            ns = nullspace(subset, self.rank)
            if len(ns) != 1:
                continue
            walls.add(_primitive(scaled(ns[0], common_denominator(ns[0]))))
        return sorted(walls)

    @cached_property
    def extension_t(self) -> np.ndarray:
        """`extension` transposed, contiguous: args @ extension_t extends
        int rows x to [x, wall dot products]."""
        return np.ascontiguousarray(self.extension.T)

    @cached_property
    def wall_norm(self) -> int:
        """The largest |u|_1 over the rows u of `extension` (1 for its
        identity rows): |u.x| <= wall_norm max|x| for each of them."""
        return max(1, *(sum(map(abs, u)) for u in self.walls))

    @cached_property
    def nudge_side(self) -> np.ndarray:
        """The walls whose positive side the nudge direction points to, as a
        bool row: a point on such a wall is read on its positive side."""
        return np.array(self.nudge_signs) > 0

    @cached_property
    def monomials(self) -> tuple[tuple[int, ...], ...]:
        """The exponents of degree `degree` in `rank` variables, in the order
        in which successive products by x_1 + ... + x_r first meet them."""
        keys = ((0,) * self.rank,)
        for _ in range(self.degree):
            keys = tuple(dict.fromkeys(
                tuple(e + (j == i) for j, e in enumerate(m)) for m in keys for i in range(self.rank)
            ))
        return keys

    @cached_property
    def vertex_table(self) -> tuple[list[tuple[list[list[int]], list[int]]], int]:
        """Lawrence's vertex terms in ints: (entries, T), one entry
        (M_s, N_s) per basis s, with M_s = e_s A_s^-1 for e_s = |det A_s|
        and N_s = T w_s y_s^d, both in ints.

        A_s is the square matrix of the basis vectors as columns.  Each
        distinct set of basis vectors is inverted once (`scaled_inverse`,
        on the vectors in sorted order): another order of the same vectors
        permutes the columns of A_s and so the rows of its inverse, and a
        repeated vector of a multiplicity above 1 repeats the set.  For xi
        with A_s^-1 xi > 0, s is a vertex of the fiber polytope over xi,
        and the linear form y_s(xi) is the objective c at that vertex.
        With reduced costs g_j = c_j - y_s(v_j) (j not in s), the weight
        is w_s = 1 / (d! |det A_s| prod_j (-g_j)).  The objective is
        c_j = 1/(k+j) for the least k >= 2 making every g_j nonzero.

        s is feasible at xi when every row of M_s dots D xi positively, D
        a common denominator of xi.  With c_j = C_j / L (L the lcm of the
        k + j) and the vectors v_j integral, y_s = a / (L e_s) with
        a = sum_i C_{s_i} (row i of M_s), and g_j = G_j / (L e_s) with
        G_j = e_s C_j - C_s . (M_s v_j).  The multinomial theorem gives
        w_s y_s^d the coefficient (d! / m!) a^m F_s at x^m,
        F_s = 1 / (d! e_s prod_j (-G_j)), and T is the lcm of the
        denominators of the F_s.  N_s is a list over `monomials`.
        """
        inverses: dict[tuple[tuple[int, ...], ...], tuple | None] = {}
        sigmas, rows, scales = [], [], []
        for sigma in combinations(range(self.n), self.rank):
            columns = [self.vectors[i] for i in sigma]
            order = sorted(range(self.rank), key=columns.__getitem__)
            key = tuple(columns[i] for i in order)
            if key not in inverses:  # a repeated vector makes A_s singular
                inverses[key] = scaled_inverse(mat_t(key)) if len(set(key)) == self.rank else None
            if inverses[key] is not None:
                # row p of the sorted matrix's inverse is row order[p] of A_s^-1
                sorted_rows, e, _ = inverses[key]
                sigmas.append(sigma)
                rows.append([sorted_rows[order.index(i)] for i in range(self.rank)])
                scales.append(e)
        # one array pass over the bases, on Python-int objects: M_s v_j for
        # every vector (basis, row, j), and v_j off the basis
        mats = np.array(rows, dtype=object)
        moved = mats @ np.array(self.vectors, dtype=object).T
        off = np.ones((len(sigmas), self.n), dtype=bool)
        off[np.arange(len(sigmas))[:, None], sigmas] = False
        es = np.array(scales, dtype=object)
        for k in count(2):
            lcm = math.lcm(*range(k, k + self.n))
            c = np.array([lcm // (k + j) for j in range(self.n)], dtype=object)
            cs = c[np.array(sigmas)][:, None, :]
            costs = np.where(off, (cs @ moved)[:, 0] - es[:, None] * c, 1)  # -G_j
            if not (costs == 0).any():
                break
        a = (cs @ mats)[:, 0]
        fact = math.factorial(self.degree)
        q = fact * es * costs.prod(axis=1)  # F_s = 1 / q_s
        # T F_s = T / q_s in ints, T = lcm |q_s|
        den = math.lcm(*q.tolist())
        multinomials = [fact // math.prod(map(math.factorial, m)) for m in self.monomials]
        powers = (a[:, None, :] ** np.array(self.monomials, dtype=object)).prod(axis=2)
        terms = (den // q)[:, None] * np.array(multinomials, dtype=object) * powers
        return list(zip(rows, terms.tolist())), den

    @cached_property
    def vertex_arrays(self) -> tuple[tuple[np.ndarray, int], np.ndarray]:
        """`vertex_table` as arrays: its M_s rows stacked basis after basis
        (`_stacked`), and its N_s one row per basis (`_int_array`, with the
        row count times the largest |entry| as the bound of any sum of
        rows)."""
        entries, _ = self.vertex_table
        terms = [term for _, term in entries]
        total = len(terms) * max(abs(c) for term in terms for c in term)
        return (_stacked([row for rows, _ in entries for row in rows], self.rank),
                _int_array(terms, total).reshape(len(terms), len(self.monomials)))

    def density(self, xi: Vec) -> Q:
        """Pushforward density at xi, relative to coordinate Lebesgue.

        This is the volume of the fiber polytope {x >= 0 : sum x_i v_i = xi}
        in the coordinates x_F, times the Jacobian.  Its vertices are the
        basic feasible solutions: for each basis B of the vectors, the
        solution of A_B x_B = xi, kept when x_B >= 0 (several bases may
        give one vertex).  Vertex x lies on facet i when x_i = 0.
        """
        if any(c < 0 for c in xi):
            return Q(0)
        found: dict[Vec, list[Q]] = {}
        for basis in combinations(range(self.n), self.rank):
            xb = solve(tuple(zip(*(self.vectors[j] for j in basis))), xi)
            if xb is None or any(c < 0 for c in xb):
                continue
            x = [Q(0)] * self.n
            for j, c in zip(basis, xb):
                x[j] = c
            found[tuple(x[j] for j in self._free)] = x
        vertices = sorted(found.items())  # the keys are distinct
        facets = [
            frozenset(k for k, (_, x) in enumerate(vertices) if x[i] == 0)
            for i in range(self.n)
        ]
        coords = [y for y, _ in vertices]
        return self._jacobian * _polytope_volume(coords, facets, self.degree)

    @cached_property
    def power_program(self) -> tuple[list[tuple[int, tuple | None]], list[list[list[int]]],
                                     list[int], int, int]:
        """The truncated-power recurrence unrolled once for this
        configuration: (nodes, rows, leaf values, L, E), read from
        `vectors` alone.

        A sub-multiset S is a count tuple over the distinct vectors.  A
        table keyed by the support of S holds its pivot basis B
        (`pivot_columns`), or None when the support does not span, and
        each distinct basis is inverted once (`scaled_inverse`).  With
        x = sum_{b in B} t_b b, (|S| - r) T_S(x) = sum_b t_b T_{S-b}(x)
        off the walls, and a child S - b that does not span has T = 0
        there, so it is dropped.  A node is (basis index, children) for
        |S| > r, children the pairs (position in B, child node), and
        (basis index, None) for a basis S, with T_S = 1/|det B| on the
        open cone of B and 0 off it.  Nodes are listed children first,
        the whole configuration last, so one pass in order evaluates the
        recurrence with one value per count tuple.

        Everything is kept in ints: rows[k] is E B_k^-1 for E the lcm of
        the inverses' denominators, so at a point x = X / D (X in ints)
        t = rows . X / (E D), and the leaf value of B is L / |det B| for
        L the lcm of the integers |det B|.  A node with |S| = r + k then
        carries L k! (E D)^k T_S, an int.  `power_rows` stacks the rows
        for `truncated_power`'s one matmul.
        """
        distinct = list(dict.fromkeys(self.vectors))
        bases: dict[tuple[int, ...], int] = {}
        inverses: list[tuple[tuple[int, ...], list[list[int]], int, Q]] = []
        pivots: dict[tuple[int, ...], int | None] = {}

        def basis_of(support: tuple[int, ...]) -> int | None:
            if support not in pivots:
                piv = pivot_columns(list(zip(*(distinct[j] for j in support))))
                key = None
                if len(piv) == self.rank:
                    basis = tuple(support[p] for p in piv)
                    key = bases.get(basis)
                    if key is None:
                        key = bases[basis] = len(inverses)
                        columns = mat_t([distinct[j] for j in basis])
                        inverses.append((basis, *scaled_inverse(columns)))
                pivots[support] = key
            return pivots[support]

        nodes: list[tuple[int, tuple | None]] = []
        index: dict[tuple[int, ...], int | None] = {}

        def visit(counts: tuple[int, ...]) -> int | None:
            if counts not in index:
                key = basis_of(tuple(j for j, c in enumerate(counts) if c))
                node = None
                if key is not None:
                    children = None
                    if sum(counts) > self.rank:
                        children = tuple(
                            (pos, child) for pos, j in enumerate(inverses[key][0])
                            if (child := visit(tuple(c - (i == j) for i, c in enumerate(counts))))
                            is not None
                        )
                    nodes.append((key, children))
                    node = len(nodes) - 1
                index[counts] = node
            return index[counts]

        visit(tuple(map(self.vectors.count, distinct)))
        common = math.lcm(*(e for _, _, e, _ in inverses))
        rows = [[[common // e * c for c in row] for row in inv] for _, inv, e, _ in inverses]
        leaf = [1 / abs(d) for *_, d in inverses]
        den = common_denominator(leaf)
        return nodes, rows, scaled(leaf, den), den, common

    @cached_property
    def power_rows(self) -> tuple[np.ndarray, int]:
        """`power_program`'s rows E B_k^-1 stacked basis after basis
        (`_stacked`)."""
        return _stacked([row for inv in self.power_program[1] for row in inv], self.rank)

    def truncated_power(self, xi: Vec) -> Q:
        """Pushforward density at xi, relative to coordinate Lebesgue, by
        the truncated-power recurrence (`power_program`): C. de Boor,
        K. Hollig and S. Riemenschneider, *Box Splines* (1993), and
        C. De Concini and C. Procesi, *Topics in Hyperplane Arrangements,
        Polytopes and Box-Splines* (2010), ch. 7.  It equals `density`
        off the walls and is undefined on them: a point on a wall raises
        OnWallError.

        The recurrence itself is `_power_recurrence`.
        """
        if self.on_wall(xi):
            raise OnWallError(f"the truncated-power recurrence is undefined on a wall: {xi}")
        return self._power_recurrence(xi)

    def _power_recurrence(self, xi: Vec) -> Q:
        """`truncated_power` at xi, which the caller has seen off every
        wall.  Every basis coordinate t = rows . X is made by one integer
        matmul over the stacked rows (`power_rows`, `_row_products`); one
        pass over the nodes then evaluates the recurrence in Python ints."""
        nodes, _, leaf, leaf_den, common = self.power_program
        den = common_denominator(xi)
        taus = _row_products(self.power_rows, scaled(xi, den)).reshape(-1, self.rank)
        inside = (taus > 0).all(axis=1).tolist()
        taus = taus.tolist()
        values: list[int] = []
        for key, children in nodes:
            if children is None:
                values.append(leaf[key] if inside[key] else 0)
            else:
                tau = taus[key]
                values.append(sum(tau[pos] * values[child] for pos, child in children))
        return Q(values[-1],
                 leaf_den * math.factorial(self.degree) * (common * den) ** self.degree)

    def on_wall(self, xi: Vec) -> bool:
        return 0 in self.sign_vector(xi)

    def sign_vector(self, xi: Vec) -> tuple[int, ...]:
        # u.xi has the sign of u.(D xi), D the common denominator of xi
        ints = scaled(xi, common_denominator(xi))
        dots = (sum(map(mul, u, ints)) for u in self.walls)
        return tuple((d > 0) - (d < 0) for d in dots)


def _int_array(rows: list[list[int]], bound: int) -> np.ndarray:
    """Integer rows as one array: int64 when `bound`, which bounds every
    entry and every sum a caller forms from them, is below 2^62, and
    Python-int objects otherwise, on which the same statements run."""
    return np.array(rows, dtype=np.int64 if bound < 2**62 else object)


def _stacked(rows: list[list[int]], width: int) -> tuple[np.ndarray, int]:
    """(array, norm): integer rows of length `width` as one array
    (`_int_array`), and the largest L1 norm of a row, so that
    |row . x| <= norm max|x|."""
    norm = max(sum(map(abs, row)) for row in rows)
    return _int_array(rows, norm).reshape(len(rows), width), norm


def _row_products(stack: tuple[np.ndarray, int], x: list[int]) -> np.ndarray:
    """Every row of a `_stacked` array dotted with the int vector x, in one
    matmul: in int64 when norm max|x| < 2^62, on Python-int object arrays
    otherwise."""
    rows, norm = stack
    dtype = np.int64 if norm * max(1, *map(abs, x)) < 2**62 else object
    return rows.astype(dtype, copy=False) @ np.array(x, dtype=dtype)


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of the nonzero int vector v,
    first nonzero entry positive."""
    g = math.gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class KappaValue:
    """Exact value of kappa at one point.

    `rational` is the density relative to coordinate Lebesgue measure;
    the inner-product-normalized value is rational / sqrt(det_gram).
    """

    rational: Fraction
    det_gram: Fraction
    on_wall: bool

    @property
    def value(self) -> float:
        return float(self.rational) / math.sqrt(float(self.det_gram))


def kappa_point(rs: RootSystem, xi: Vec, multiplicity: int = 1) -> KappaValue:
    """Exact kappa at xi via fiber-polytope vertex enumeration.

    Raises OnWallError for degree-0 configurations evaluated on a wall
    (the value is a genuine jump there); otherwise on-wall points return
    the closure-continuous value with the flag set.
    """
    cfg = kappa_build(rs, multiplicity).config
    on_wall = cfg.on_wall(xi)
    if on_wall and cfg.degree == 0:
        raise OnWallError(f"kappa has a jump at {xi} (degree-0 configuration)")
    return KappaValue(rational=cfg.density(xi), det_gram=cfg.det_gram, on_wall=on_wall)


# ---------------------------------------------------------------------------
# chamber-complex spline
# ---------------------------------------------------------------------------


@dataclass
class Chamber:
    """One full-dimensional cone of the wall arrangement with its polynomial,
    stored once: integer numerators over `monomials` (the spline's) and one
    denominator den > 0, reduced so that gcd(den, *numerators) == 1."""

    signs: tuple[int, ...]
    sample_point: Vec
    numerators: list[int]
    den: int
    monomials: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def polynomial(self) -> Poly:
        """The polynomial as {exponents: Fraction}, its nonzero terms in
        `monomials` order: made on first read and kept."""
        return {m: Q(c, self.den) for m, c in zip(self.monomials, self.numerators) if c}

    def value(self, xi: Vec) -> Q:
        """The polynomial at xi, in ints: homogeneous of degree d, it is
        sum_m n_m X^m / (den D^d) at xi = X / D."""
        x = scaled(xi, scale := common_denominator(xi))
        total = sum(c * math.prod(map(pow, x, m))
                    for c, m in zip(self.numerators, self.monomials) if c)
        return Q(total, self.den * scale ** sum(self.monomials[0]))


class PiecewisePolynomial:
    """Lazy chamber complex for kappa: one homogeneous polynomial per cone.

    Chambers are materialized on first query.  The polynomial is the sum
    of Lawrence's vertex terms w_s y_s(xi)^d over the bases s feasible
    in the chamber (`VectorConfig.vertex_table`), kept as that integer sum
    over one denominator (`Chamber`) and checked once, exactly, against the
    truncated-power recurrence (`VectorConfig.truncated_power`) at the
    query point.  Materialized chambers are kept for the lifetime of the
    object, keyed by their wall signs, and listed by `to_json_dict`.
    """

    def __init__(self, config: VectorConfig, label: str):
        self.config = config
        self.label = label
        self.rank = config.rank
        self.degree = config.degree
        self.det_gram = config.det_gram
        self.chambers: dict[tuple[int, ...], Chamber] = {}
        self.monomials = config.monomials
        self.exponents = np.array(self.monomials, dtype=np.int64)

    # -- queries -----------------------------------------------------------

    def value_exact(self, xi: Vec) -> Q:
        """Density relative to coordinate Lebesgue, exact.

        On-wall points of positive-degree configurations are evaluated by
        closure continuity; degree-0 walls raise OnWallError.
        """
        if any(c < 0 for c in xi):
            return Q(0)
        return self.chamber_at(xi).value(xi)

    def chamber_at(self, xi: Vec) -> Chamber:
        """The chamber whose interior contains xi, built there if new.  On a
        wall it is the one the nudge direction points to, built at the
        nudged point: its polynomial gives the value at xi by continuity
        when the degree is positive; degree-0 walls raise OnWallError."""
        signs = self.config.sign_vector(xi)
        if 0 in signs:
            if self.degree == 0:
                raise OnWallError(f"on-wall evaluation at {xi} for a degree-0 spline")
            xi, signs = self._nudge_off_walls(xi, signs)
        hit = self.chambers.get(signs)
        if hit is not None:
            return hit
        chamber = Chamber(signs, xi, *self._vertex_sum(xi), self.monomials)
        if not self._passes_check(chamber):
            raise DegenerateArrangementError(
                f"vertex formula disagrees with the truncated power in chamber {signs}"
            )
        self.chambers[signs] = chamber
        return chamber

    def chamber_polynomial_at(self, xi: Vec) -> Poly:
        """Polynomial of `chamber_at(xi)`, as {exponents: Fraction}."""
        return self.chamber_at(xi).polynomial

    def on_wall(self, xi: Vec) -> bool:
        return self.config.on_wall(xi)

    # -- materialization ----------------------------------------------------

    def _vertex_sum(self, xi: Vec) -> tuple[list[int], int]:
        """Sum of the vertex terms w_s y_s^d over the bases s feasible at xi,
        as integer numerators over `monomials` and one denominator.  One
        integer matmul over the stacked M_s rows (`VectorConfig.vertex_arrays`,
        `_row_products`) finds the feasible bases, their term rows N_s
        are added, and the sum and the table denominator are divided by
        their gcd."""
        rows, terms = self.config.vertex_arrays
        products = _row_products(rows, scaled(xi, common_denominator(xi)))
        feasible = (products.reshape(-1, self.rank) > 0).all(axis=1)
        acc = terms[feasible].sum(axis=0).tolist()
        den = self.config.vertex_table[1]
        g = math.gcd(den, *acc)
        return [c // g for c in acc], den // g

    def _passes_check(self, chamber: Chamber) -> bool:
        """One exact check of a chamber against the truncated-power
        recurrence (`VectorConfig.truncated_power`) at its sample point,
        which must lie off every wall, on the chamber's side of each: its
        signs are read once, and the recurrence runs without a second wall
        test (`VectorConfig._power_recurrence`)."""
        xi = chamber.sample_point
        return (
            len(xi) == self.rank
            and 0 not in chamber.signs
            and self.config.sign_vector(xi) == chamber.signs
            and chamber.value(xi) == self.config._power_recurrence(xi)
        )

    def _nudge_off_walls(self, xi: Vec, signs: tuple[int, ...]) -> tuple[Vec, tuple[int, ...]]:
        """The first xi + 4^-k d (k >= 1) along the nudge direction d that
        lies off every wall, with its signs: those of xi, and on each wall
        through xi the side d points to."""
        target = tuple(s or n for s, n in zip(signs, self.config.nudge_signs))
        eps = Q(1, 4)
        while True:
            cand = tuple(x + eps * d for x, d in zip(xi, self.config.nudge))
            if self.config.sign_vector(cand) == target:
                return cand, target
            eps /= 4

    # -- rank <= 2 full enumeration -----------------------------------------

    def enumerate_support_chambers(self) -> list[Chamber]:
        """Materialize every full-dimensional chamber inside the support cone.

        Only implemented for rank <= 2 (angular sweep); higher ranks stay
        lazy.
        """
        if self.rank == 1:
            self.value_exact((Q(1),))
            return list(self.chambers.values())
        if self.rank != 2:
            raise NotImplementedError("eager enumeration only for rank <= 2")
        rays = sorted(
            {_primitive(v) for v in self.config.vectors},
            key=lambda r: math.atan2(float(r[1]), float(r[0])),
        )
        for a, b in zip(rays, rays[1:]):
            mid = vec([a[0] + b[0], a[1] + b[1]])
            if self.config.sign_vector(mid).count(0) == 0:
                self.chamber_at(mid)
        return list(self.chambers.values())

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "degree": self.degree,
            "det_gram": str(self.det_gram),
            "walls": [[str(c) for c in u] for u in self.config.walls],
            "chambers": [
                {
                    "signs": list(ch.signs),
                    "sample_point": [str(c) for c in ch.sample_point],
                    "polynomial": {",".join(map(str, m)): str(c)
                                   for m, c in ch.polynomial.items()},
                }
                for ch in self.chambers.values()
            ],
        }

    def dump_json(self, path: str) -> None:
        """Write the dump through a temporary file, so readers never see
        a partial one."""
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def load_chambers_json(self, data: dict) -> None:
        """Adopt chambers from a dump in the form of `to_json_dict`.

        Chambers already in memory are kept; each other one must pass the
        one-point check: its sample point lies off every wall, on the
        side of each that its signs give, and there its polynomial equals
        the truncated-power recurrence.  A malformed dump (a number that
        is not a finite rational, such as "1/0" or JSON Infinity, among
        others), a polynomial key that is not a degree-d exponent tuple in
        rank variables, or a failed check raises ValueError and adopts
        nothing.
        """
        if not isinstance(data, dict):
            raise ValueError("chamber dump is not a JSON object")
        if data.get("label") != self.label or data.get("degree") != self.degree:
            return
        adopted = []
        try:
            for ch in data["chambers"]:
                signs = tuple(ch["signs"])
                if signs in self.chambers:
                    continue
                poly = {
                    tuple(int(e) for e in key.split(",")): Fraction(val)
                    for key, val in ch["polynomial"].items()
                }
                den = common_denominator(poly.values())
                numerators = scaled((poly.pop(m, 0) for m in self.monomials), den)
                if poly:  # keys left over are not among the monomials
                    raise ValueError(f"chamber {signs}: {next(iter(poly))} is not an exponent "
                                     f"tuple of degree {self.degree} in {self.rank} variables")
                adopted.append(Chamber(signs, vec(ch["sample_point"]), numerators, den,
                                       self.monomials))
        except (KeyError, TypeError, AttributeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"malformed chamber dump: {exc!r}") from exc
        for chamber in adopted:
            if not self._passes_check(chamber):
                raise ValueError(f"dumped chamber {chamber.signs} fails the one-point check")
        for chamber in adopted:
            self.chambers[chamber.signs] = chamber


def kappa_build(rs: RootSystem, multiplicity: int = 1) -> PiecewisePolynomial:
    """Chamber-complex spline for kappa of a supported root system, over
    the positive roots each taken `multiplicity` times: made once per
    (root system, multiplicity) and kept on the root system."""
    cache = rs.__dict__.setdefault("_kappa_splines", {})
    if multiplicity not in cache:
        config = VectorConfig(list(rs.positive_roots) * multiplicity, det_gram=rs.det_gram)
        cache[multiplicity] = PiecewisePolynomial(
            config, label=f"{rs.spec.name}:kappa^{multiplicity}")
    return cache[multiplicity]


# ---------------------------------------------------------------------------
# symmetric polynomials and the operator calculus
# ---------------------------------------------------------------------------


class SymmetricPoly:
    """Symmetric polynomial stored in the elementary-symmetric basis.

    Keys are exponent tuples over (e_1, ..., e_k); `nvars` records the
    number k of underlying variables.
    """

    def __init__(self, terms: dict[tuple[int, ...], Q], nvars: int):
        self.nvars = nvars
        self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}

    @classmethod
    def constant(cls, c: Q, nvars: int = 0) -> "SymmetricPoly":
        return cls({(): Fraction(c)} if c != 0 else {}, nvars)

    @classmethod
    def elementary(cls, index: int, nvars: int) -> "SymmetricPoly":
        if not 1 <= index <= nvars:
            raise ValueError(f"e_{index} undefined in {nvars} variables")
        m = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls({m: Q(1)}, nvars)

    def substitute(self, elementary: list[Poly]) -> Poly:
        """The polynomial with each e_l replaced by elementary[l - 1]
        (`elementary_symmetric`)."""
        return poly_subs_affine(self.terms, elementary)

    def expand_monomials(self, nvars: int) -> Poly:
        """Expand into x-monomials, in `nvars` variables (>= self.nvars)."""
        units = [{tuple(int(i == j) for j in range(nvars)): Q(1)} for i in range(nvars)]
        return self.substitute(elementary_symmetric(units, nvars))


def elementary_symmetric(forms: list[Poly], nvars: int) -> list[Poly]:
    """[E_1, ..., E_n]: E_l the l-th elementary symmetric polynomial of the
    n polynomials `forms` in `nvars` variables, read off prod_f (1 + t f)
    one factor at a time (E_l <- E_l + f E_{l-1}, l descending, E_0 = 1)."""
    out = [poly_const(Q(1), nvars)]
    for f in forms:
        out.append({})
        for l in range(len(out) - 1, 0, -1):
            out[l] = poly_add(out[l], poly_mul(f, out[l - 1]))
    return out[1:]


@dataclass(frozen=True)
class DiffOperator:
    """Constant-coefficient operator: a polynomial in the coordinate
    derivatives d_1, ..., d_r (r the rank).

    Each term is (coefficient, exponent tuple e over d_1, ..., d_r), and
    d^e takes x^m to prod_j m_j! / (m_j - e_j)! x^(m - e), or to 0 when
    some e_j > m_j.
    """

    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def apply_poly(self, p: Poly) -> Poly:
        out: Poly = {}
        for coeff, expo in self.terms:
            for m, c in p.items():
                falling = math.prod(map(math.perm, m, expo))  # 0 when some e_j > m_j
                if falling:
                    key = tuple(map(sub, m, expo))
                    out[key] = out.get(key, 0) + coeff * c * falling
        return {m: c for m, c in out.items() if c}


def pullback_operator(rs: RootSystem, p: SymmetricPoly) -> DiffOperator:
    """The operator p(d_a1, ..., d_an), d_a the derivative along the
    positive root a (canonical height-then-lex order), in the coordinate
    derivatives.

    p is read in its own k <= n = |R+| variables: its e_l, l <= k, mean
    the same in n.  d_a is the linear form sum_j a_j d_j, and each e_l of p
    becomes the l-th elementary symmetric polynomial of those n forms
    (`elementary_symmetric`), a polynomial in r = rank variables.  The
    operator is kept on the root system, keyed by p's variables and terms.
    """
    if p.nvars > rs.n_positive:
        raise ValueError(
            f"expected a symmetric polynomial in at most {rs.n_positive} variables"
        )
    key = (p.nvars, tuple(sorted(p.terms.items())))
    cache = rs.__dict__.setdefault("_pullback_operators", {})
    if key not in cache:
        units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
        forms = [{u: c for u, c in zip(units, a) if c} for a in rs.positive_roots]
        op = p.substitute(elementary_symmetric(forms, rs.rank))
        cache[key] = DiffOperator(terms=tuple((c, m) for m, c in sorted(op.items())))
    return cache[key]
