"""Exact gluing integrals over the alcove, for rank 1 and 2.

A pants factor whose marking slots are fixed points, nu or *nu
(`AlcoveFactor`) is piecewise polynomial in nu: its kappa arguments, from
the one Weyl fold of the lattice sum (`moduli._weyl_fold`), are affine in
nu and come extended by their wall dot products, so each wall of an
argument is read off as a line in the alcove.  `AlcoveFactor` finds the
lines across which the factor's polynomial jumps and the jumps
themselves; `alcove_integral` walks the alcove's edges and those lines
and integrates the product of the factors exactly, facet by facet.
`moduli.glue_volume` and the A1 `oracle` (`cli.cmd_oracle`, for the
lines) import this module on first use.

In rank 2 a glue builds one line arrangement (`_Arrangement`): every pair
of the factors' lines is crossed once, in one integer array pass, and
each line's crossings inside the alcove are sorted once along it.  The
jumps' pieces and the walk both read it.  The walk integrates along
lines (Lasserre's reduction): on a line P(t) = (u + t v) / w the cone
from the origin over a facet [P(a), P(b)] has, for a part f_n of degree
n, the integral det(u, v) / w^2 / (n + 2) times that of f_n(P(t)) from a
to b.  So each polynomial is restricted to a line once, as per-degree
polynomials in t (`_Line`), and carried along it by adding the
restricted jumps of the lines it crosses; a run of facets on which the
integrand does not change costs one product and one antiderivative at
its two ends.  Rank 1 keeps point facets.

Points and lines are exact and in Python ints: a point of the alcove in
root coordinates is a tuple (z_1, ..., z_r, den) with den > 0 standing for
z / den, and a line a.z + k = 0 is the primitive integer tuple
(a_1, ..., a_r, k) whose first nonzero a_i is positive; each argument's
lines are derived once.  Chambers are read as stored (`kappa.Chamber`,
integer numerators over one denominator), and a polynomial is an integer
form ({exponents: numerator}, denominator), as `moduli._affine_sum`
returns it: no coefficient becomes a Fraction before a facet's integral.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property, cmp_to_key, reduce
from itertools import groupby
from operator import itemgetter, mul

import numpy as np

from .exact import Q, common_denominator, scaled
from .kappa import OnWallError, _primitive, kappa_build
from .liecore import RootSystem
from .moduli import (
    NU, STAR_NU, _affine_sum, _lattice_ball, _scaled, _signed_center, _slot_point,
    _support_radius, _weyl_fold,
)

__all__ = ["AlcoveFactor", "alcove_integral"]


class AlcoveFactor:
    """A pants factor over the alcove, each marking slot a fixed point, NU
    or STAR_NU (root coordinates), the last one NU or STAR_NU: its rational
    part as a function of nu, its lines, its jumps across them and its
    polynomial on a cell.

    Every kappa argument of the lattice sum is then affine in nu:
    x(nu) = (c + D L nu) / D, with D the common denominator of the fixed
    markings, c an integer vector and L an integer matrix (a sum of Weyl
    matrices, times the matrix of * for a STAR_NU slot).  c comes from the
    fixed slots only and L from the varying ones only, so each is one
    `_weyl_fold`, c's the fold `moduli._kappa_arguments` makes, and their
    coefficients multiply.  Both are extended by the wall normals u, so
    each wall of an argument is read off as the line (D L^T u).nu + u.c = 0.
    The last slot is not imaged by the Weyl group, so a varying last slot
    keeps the number of distinct L small.  Where every argument
    stays in one chamber the volume is the polynomial sum coef *
    p_chamber(x(nu)).
    """

    def __init__(self, rs: RootSystem, slots: list):
        self.rs = rs
        self.slots = slots
        self.spline = kappa_build(rs, 1)
        self.prefactor = _signed_center(rs)
        self.scale = common_denominator(c for s in slots if not isinstance(s, str) for c in s)
        # nonzero terms have |slot_b + l| <= sum of the other slot norms
        radius_sq = _support_radius(rs, _scaled([_slot_point(rs, s) for s in slots[:-1]]))
        self.lattice = _lattice_ball(rs, slots[-1], radius_sq)

    @cached_property
    def _alcove_args(self) -> list:
        """(c, L, coef, walls, lines) for the arguments whose support meets
        the open alcove, in the term order (l, w_1, ..., w_{b-1}) of the
        lattice sum with the Weyl elements of the fixed slots first; equal
        arguments are not merged.  Wall u_j of an argument is the form
        (D L^T u_j).nu + u_j.c, read off the extended argument: walls[j] is
        (line, sign), the form sign * m * line for the primitive line (a, k)
        of a.nu + k = 0 and some m > 0, or (None, sign of u_j.c) for a form
        constant in nu; lines is the set of the lines (walls share one when
        L is singular).  At degree 0 kappa jumps on a wall, so an argument
        that stays on a wall for every nu raises OnWallError.

        The corner test runs on every (c, L) pair at once: the argument's
        coordinates at the alcove's corners, den * c + D L z, in int64
        when a bound on them is below 2^62 (Python ints above), and each
        distinct wall row is made primitive once."""
        rs, rank, scale = self.rs, self.rs.rank, self.scale
        extension = self.spline.config.extension
        *imaged, last = self.slots
        ls, images, image_max, dens = _affine_matrices(
            rs, (*(s for s in imaged if isinstance(s, str)), last), extension)
        ints = [scaled(s, scale) for s in imaged if not isinstance(s, str)]
        # |c| <= |u|_1 (D |l| + weyl_norm sum |m|) and |L z| <= image_max
        c_max = int(abs(extension).sum(axis=1).max()) * (
            scale * int(abs(self.lattice).max(initial=0))
            + rs.weyl_array[2] * sum(max(map(abs, m)) for m in ints))
        dtype = np.int64 if max(dens) * c_max + scale * image_max < 2**62 else object
        fixed, fixed_coefs = _weyl_fold(rs, np.array(ints, dtype=dtype).reshape(-1, rank))
        tails = (scale * self.lattice.astype(dtype))[:, None] + fixed[None]
        cs = tails.reshape(-1, rank) @ extension.T.astype(dtype)
        # x[c, L, i, v] = den_v c_i + D L_i.z_v, the coordinate i at corner v, times den_v
        xs = cs[:, None, :rank, None] * np.array(dens, dtype=dtype) + scale * images.astype(dtype)
        outside = ((xs.max(axis=3) <= 0) & (xs.min(axis=3) < 0)).any(axis=2)
        rows = cs.tolist()
        normals = [[tuple(scale * a for a in row) for row in L[rank:]] for L, _ in ls]
        coefs = fixed_coefs.tolist() * len(self.lattice)
        primitive: dict = {}  # each distinct wall row reduced once
        out = []
        for i, j in np.argwhere(~outside).tolist():  # in the order (c, L)
            c, (L, cv) = rows[i], ls[j]
            walls = []
            for a, k in zip(normals[j], c[rank:]):
                if any(a):
                    row = (*a, k)
                    line = primitive.get(row)
                    if line is None:
                        line = primitive[row] = _primitive(row)
                    walls.append((line, 1 if next(filter(None, a)) > 0 else -1))
                else:
                    walls.append((None, (k > 0) - (k < 0)))
            if not self.spline.degree and (None, 0) in walls:
                raise OnWallError("a kappa argument lies on a wall for every nu "
                                  f"(lattice term {tuple(c[:rank])})")
            lines = {line for line, _ in walls if line}
            out.append((tuple(c[:rank]), L[:rank], coefs[i] * cv, walls, lines))
        return out

    @cached_property
    def lines(self) -> dict:
        """Every line crossing the open alcove on which a kappa argument
        meets a wall -> the indices of those arguments; a line is the
        primitive integer (a, k) of a.nu + k = 0, first nonzero a > 0."""
        corners = _alcove_corners(self.rs)
        crosses: dict = {}
        out: dict = {}
        for i, (*_, arg_lines) in enumerate(self._alcove_args):
            for line in arg_lines:
                inside = crosses.get(line)
                if inside is None:
                    values = [_line_value(line, v) for v in corners]
                    inside = crosses[line] = min(values) < 0 < max(values)
                if inside:
                    out.setdefault(line, []).append(i)
        return out

    def _sides(self, walls, point, directions, seen: dict) -> tuple[tuple[int, ...], ...]:
        """Chamber signs of an argument just beside point, ahead and behind:
        at point + eps d_1 + eps^2 d_2 + ... and at its mirror image
        point - eps d_1 - ... (eps -> 0+) for the integer `directions`
        d_1, d_2, ...  A wall through point is read from the first
        direction that leaves it; on a wall for every direction it keeps
        the nudge side.  Each wall is its line's sides times its sign
        (`_line_sides`), a line read once per point: `seen` holds the lines
        read at this point and these directions."""
        ahead, behind = [], []
        for (line, sign), nudge in zip(walls, self.spline.config.nudge_signs):
            if line is None:
                s = t = sign
            else:
                if (sides := seen.get(line)) is None:
                    sides = seen[line] = _line_sides(line, point, directions)
                s, t = sign * sides[0], sign * sides[1]
            ahead.append(s or nudge)
            behind.append(t or nudge)
        return tuple(ahead), tuple(behind)

    @cached_property
    def _chambers(self) -> dict:
        """The spline's chambers by their signs, every support chamber built
        (`enumerate_support_chambers`) on the first read."""
        self.spline.enumerate_support_chambers()
        return self.spline.chambers

    def _polynomial(self, terms) -> tuple[dict, int]:
        """prefactor * sum of coef * p_chamber(x(nu)) over (argument, signs,
        coef) terms, as the integer form `_affine_sum` returns; signs naming
        no support chamber are outside the support cone."""
        groups: dict = {}
        for (c, L, *_), signs, coef in terms:
            chamber = self._chambers.get(signs)
            if chamber is None or not coef:
                continue
            group = groups.setdefault((signs, L), (chamber, L, [], []))
            group[2].append(c)
            group[3].append(self.prefactor * coef)
        return _affine_sum(groups.values(), self.spline, self.scale)

    def cell_polynomial(self, point, *directions) -> tuple[dict, int]:
        """Integer form of the polynomial at a homogeneous point (z, den),
        read just beside it, ahead along `directions` (`_sides`), where it
        lies on a line."""
        seen: dict = {}
        return self._polynomial(
            (arg, self._sides(arg[3], point, directions, seen)[0], arg[2])
            for arg in self._alcove_args
        )

    def jumps(self) -> dict:
        """line -> (cuts, jumps) for the lines across which the polynomial
        changes somewhere: jumps[i], an integer form, is the polynomial on the
        positive side minus the one on the negative side, between the
        positions cuts[i] and cuts[i + 1] along the line (rank 1: one jump, no cuts).

        The jump of one argument changes along the line only where its
        other walls cross it, so it is taken once between consecutive such
        crossings: the arguments on the line, read on either side.
        """
        if self.rs.rank == 1:
            return self._jumps(None)
        arrangement = _Arrangement(self.rs, list(self.lines))
        return {line: ([_position(line, arrangement.stops[line][s]) for s in cuts], polys)
                for line, (cuts, polys) in self._jumps(arrangement).items()}

    def _jumps(self, arrangement) -> dict:
        """`jumps`, each cut the index of its point in the line's stops in
        an arrangement of every line of the factor (rank 2; rank 1: None)."""
        args = self._alcove_args
        out = {}
        for line, on_line in self.lines.items():
            if arrangement is None:
                cuts, points = [], [_point([-line[1]], line[0])]
            else:
                stops, through = arrangement.stops[line], arrangement.through[line]
                others = set().union(*(args[i][4] for i in on_line))
                cuts = [0, *(s for s in range(1, len(stops) - 1)
                             if not others.isdisjoint(through[s])), len(stops) - 1]
                points = [_centroid([stops[s], stops[t]]) for s, t in zip(cuts, cuts[1:])]
            jumps = []
            for point in points:
                terms, seen = [], {}
                for arg in map(args.__getitem__, on_line):
                    ahead, behind = self._sides(arg[3], point, (line[:-1],), seen)
                    terms += [(arg, ahead, arg[2]), (arg, behind, -arg[2])]
                jumps.append(self._polynomial(terms))
            if any(numerators for numerators, _ in jumps):
                out[line] = (cuts, jumps)
        return out


def _affine_matrices(rs: RootSystem, pattern: tuple, extension: np.ndarray) -> tuple:
    """For the varying slots `pattern` (the last one joins every term):
    the (extended rows of L, coef) of the Weyl fold, L z at the alcove's
    corners (L, row, corner), max |L z| and the corners' denominators.
    They depend only on the pattern, so each is made once per root system."""
    cache = rs.__dict__.setdefault("_affine_matrices", {})
    if pattern not in cache:
        rank = rs.rank
        columns = {NU: np.eye(rank, dtype=np.int64),
                   STAR_NU: -np.array(rs.w0.matrix, dtype=np.int64)}
        varying, coefs = _weyl_fold(rs, [columns[s] for s in pattern[:-1]], rank)
        varying = varying + columns[pattern[-1]].T.reshape(-1)
        # the fold gives L column after column
        mats = extension @ varying.reshape(-1, rank, rank).transpose(0, 2, 1)
        corners = _alcove_corners(rs)
        images = mats[:, :rank] @ np.array([v[:-1] for v in corners], dtype=np.int64).T
        ls = [(tuple(map(tuple, L)), coef) for L, coef in zip(mats.tolist(), coefs.tolist())]
        cache[pattern] = ls, images, int(abs(images).max()), [v[-1] for v in corners]
    return cache[pattern]


def _point(coords: list[int], den: int) -> tuple[int, ...]:
    g = math.gcd(*coords, den)
    if den < 0:
        g = -g
    return (*(c // g for c in coords), den // g)


def _alcove_corners(rs: RootSystem) -> list[tuple[int, ...]]:
    """The alcove's vertices as homogeneous points, in the order of
    `Alcove.vertices`, which is counterclockwise for every rank-2 group."""
    return [_point(scaled(v, d), d) for v in rs.alcove.vertices for d in [common_denominator(v)]]


def _line_value(line, point) -> int:
    """den * (a.z + k): the side of the line the point is on."""
    return sum(map(mul, line, point))


def _line_sides(line, point, directions) -> tuple[int, int]:
    """The signs of a.z + k just beside point, ahead and behind along the
    integer directions (`AlcoveFactor._sides`): the side the point is on,
    twice; on the line, the sign of a.d for the first direction d that
    leaves it and its opposite; (0, 0) when none does."""
    if v := _line_value(line, point):
        return (1, 1) if v > 0 else (-1, -1)
    v = next(filter(None, (sum(map(mul, line, d)) for d in directions)), 0)
    return (1, -1) if v > 0 else (-1, 1) if v else (0, 0)


def _cross(u, v) -> tuple[int, int, int]:
    """The line through two rank-2 points, or the point where two lines
    meet (den 0 when they are parallel)."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _centroid(points: list) -> tuple[int, ...]:
    den = math.lcm(*(p[-1] for p in points))
    sums = [sum(p[i] * (den // p[-1]) for p in points) for i in range(len(points[0]) - 1)]
    return _point(sums, den * len(points))


def _position(line, p) -> Q:
    """Where a point of a rank-2 line lies along its direction (a_1, -a_0)."""
    return Q(line[1] * p[0] - line[0] * p[1], p[2])


def _along(line, points) -> list:
    """Distinct points of a rank-2 line in order along it (`_position`):
    sorted by their positions as floats, which the correctly rounded int
    division keeps in weak order, and where two floats tie, by exact
    cross-multiplication."""
    a0, a1 = line[0], line[1]
    keyed = sorted(((a1 * p[0] - a0 * p[1]) / p[2], p) for p in points)
    if len({key for key, _ in keyed}) < len(keyed):
        exact = cmp_to_key(lambda p, q: (a1 * p[0] - a0 * p[1]) * q[2]
                           - (a1 * q[0] - a0 * q[1]) * p[2])
        keyed = [(key, p) for key, run in groupby(keyed, key=itemgetter(0))
                 for p in sorted((p for _, p in run), key=exact)]
    return [p for _, p in keyed]


class _Arrangement:
    """The lines of a rank-2 glue, each pair crossed once.

    stops[line] lists the line's points in order along it (`_position`):
    its first end on the alcove's boundary, the distinct points of the
    open alcove where other lines cross it, and its last end.
    through[line][s] lists the other lines through stop s (none at the
    ends) and index[line] maps each stop to its index.  edges[e] lists,
    in order from corner e to corner e + 1 (counterclockwise), the points
    of (corner e, corner e + 1] where lines end, each with those lines,
    and corner e + 1.  The crossing points of all pairs are made in one
    array pass as homogeneous int points (x, y, den), den > 0: in int64
    when a bound on the entries is below 2^62, in Python ints above.
    """

    def __init__(self, rs: RootSystem, lines: list):
        corners = _alcove_corners(rs)
        sides = list(zip(corners, corners[1:] + corners[:1]))
        edges = [_cross(p, q) for p, q in sides]  # positive inside
        ended: list[dict] = [{q: []} for _, q in sides]
        ends = []
        for line in lines:
            here = []
            for e, (p, q) in enumerate(sides):
                fp, fq = _line_value(line, p), _line_value(line, q)
                if not fp:  # a corner, the last point of the edge before
                    here.append((p, e - 1))
                elif fp * fq < 0:
                    here.append((_point([fq * x - fp * y for x, y in zip(p[:-1], q[:-1])],
                                        fq * p[-1] - fp * q[-1]), e))
            (p, e), (q, f) = here
            ended[e].setdefault(p, []).append(line)
            ended[f].setdefault(q, []).append(line)
            if (line[1] * p[0] - line[0] * p[1]) * q[2] > (line[1] * q[0] - line[0] * q[1]) * p[2]:
                p, q = q, p
            ends.append((p, q))
        found: list[dict] = [{} for _ in lines]
        if len(lines) > 1:
            # |x| <= 2 M^2 for M = max |line|, and |edge.x| <= 3 max |edge| |x|
            biggest = max(abs(x) for line in lines for x in line)
            bound = 6 * biggest**2 * max(abs(x) for e in edges for x in e)
            a = np.array(lines, dtype=np.int64 if bound < 2**62 else object)
            i, j = np.triu_indices(len(lines), 1)
            x = np.stack(_cross(a[i].T, a[j].T), axis=1)
            x *= np.where(x[:, 2:] < 0, -1, 1)
            inside = (x @ np.array(edges, dtype=a.dtype).T > 0).all(axis=1)  # den 0 is not
            x, i, j = x[inside], i[inside], j[inside]
            x //= np.gcd.reduce(x, axis=1)[:, None]
            for s, t, p in zip(i.tolist(), j.tolist(), map(tuple, x.tolist())):
                found[s].setdefault(p, []).append(lines[t])
                found[t].setdefault(p, []).append(lines[s])
        self.stops, self.through, self.index = {}, {}, {}
        for line, (first, last), points in zip(lines, ends, found):
            inner = _along(line, points)
            self.stops[line] = stops = [first, *inner, last]
            self.through[line] = [[], *(points[p] for p in inner), []]
            self.index[line] = {p: s for s, p in enumerate(stops)}
        self.edges = [[(p, on[p]) for p in _along(edge, on)] for edge, on in zip(edges, ended)]


class _Line:
    """A rank-2 line (a_0, a_1, k), a.z + k = 0 with a != 0, as
    P(t) = (u + t v) / w: t is the coordinate z_i, w = |a_j| for the other
    coordinate j, u_i = 0, v_i = w and (u_j, v_j) = -(k, a_i) sgn a_j.

    A form of degree at most `top` restricts to (rows, den): rows[n][m] is
    the coefficient of t^m in den w^n f_n(P(t)), f_n its part of degree n.
    By Lasserre's reduction the cone from the origin over the segment
    [P(a), P(b)] has integral
    det(u, v) / w^2 * sum_n 1/(n + 2) * (integral of f_n(P(t)) from a to b),
    signed by the segment's direction.
    """

    def __init__(self, line):
        j = int(abs(line[1]) >= abs(line[0]))
        self.i, sign = 1 - j, 1 if line[j] > 0 else -1
        self.w = sign * line[j]
        self.uj, self.vj = -sign * line[2], -sign * line[self.i]
        u, v = [0, 0], [0, 0]
        v[self.i], u[j], v[j] = self.w, self.uj, self.vj
        self.det = u[0] * v[1] - u[1] * v[0]
        self._expansions: dict = {}
        self._weights: dict = {}

    def _expand(self, m) -> list[int]:
        """The coefficients in t of (t w)^(m_i) (u_j + t v_j)^(m_j)."""
        mi, mj = m[self.i], m[1 - self.i]
        head = self.w ** mi
        out = self._expansions[m] = [0] * mi + [
            head * math.comb(mj, e) * self.uj ** (mj - e) * self.vj ** e for e in range(mj + 1)]
        return out

    def restrict(self, form: tuple[dict, int], top: int) -> tuple[list, int]:
        ints, den = form
        rows = [[0] * (n + 1) for n in range(top + 1)]
        for m, c in ints.items():
            expansion = self._expansions.get(m) or self._expand(m)
            row = rows[len(expansion) - 1]
            for e, x in enumerate(expansion):
                row[e] += c * x
        return rows, den

    def integral(self, form: tuple[list, int], a, b) -> Q:
        """The cone integral over [a, b], points of the line, of a restricted
        form (rows, den) of degree `top`: with t = p / q at an end and
        c_m = sum_n rows[n][m] w^(top - n) K / ((n + 2) (m + 1)), K making
        those integers, it is det(u, v) (F(b) - F(a)) / (den w^(top + 2) K),
        F(t) = sum_m c_m t^(m + 1), each F one homogeneous Horner pass."""
        rows, den = form
        top = len(rows) - 1
        weights = self._weights.get(top)
        if weights is None:
            k = math.lcm(*range(2, top + 3)) * math.lcm(*range(1, top + 2))
            weights = self._weights[top] = (
                [[self.w ** (top - n) * k // ((n + 2) * (m + 1)) for m in range(n + 1)]
                 for n in range(top + 1)],
                self.w ** (top + 2) * k)
        weights, scale = weights
        coeffs = [0] * (top + 1)
        for row, weight in zip(rows, weights):
            for m, (x, y) in enumerate(zip(row, weight)):
                coeffs[m] += x * y
        values = []
        for point in (a, b):
            p, q = point[self.i], point[-1]
            h, power = coeffs[top], 1
            for c in reversed(coeffs[:top]):
                power *= q
                h = h * p + c * power
            values.append((p * h, q ** (top + 1)))
        (fa, qa), (fb, qb) = values
        return Q(self.det * (fb * qa - fa * qb), den * scale * qa * qb)


def _add(a: tuple[dict, int], b: tuple[dict, int], sign: int) -> tuple[dict, int]:
    """a + sign * b for integer forms, over the lcm of their denominators."""
    (p, dp), (q, dq) = a, b
    den = math.lcm(dp, dq)
    return {m: v for m in p | q
            if (v := p.get(m, 0) * (den // dp) + sign * q.get(m, 0) * (den // dq))}, den


def _plus(a: tuple[list, int], b: tuple[list, int], sign: int) -> tuple[list, int]:
    """a + sign * b for restricted forms of one line and degree."""
    (p, dp), (q, dq) = a, b
    den = math.lcm(dp, dq)
    fp, fq = den // dp, sign * (den // dq)
    return [[x * fp + y * fq for x, y in zip(r, s)] for r, s in zip(p, q)], den


def _times(a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
    """The product of restricted forms of one line: degrees and powers of t add."""
    (p, dp), (q, dq) = a, b
    out = [[0] * (n + 1) for n in range(len(p) + len(q) - 1)]
    for n, r in enumerate(p):
        for k, s in enumerate(q):
            row = out[n + k]
            for e, x in enumerate(r):
                if x:
                    for f, y in enumerate(s, e):
                        row[f] += x * y
    return out, dp * dq


def _terms(lefts: list, jumps: list, add):
    """prod(lefts) - prod(rights), rights = lefts - jumps, as a sum of
    products: for each factor f that jumps (jump not None), the factor
    list rights_1 ... rights_(f-1) jump_f lefts_(f+1) ...; the left of
    the last factor that jumps is not read."""
    last = max((f for f, jump in enumerate(jumps) if jump is not None), default=-1)
    rights = []
    for f, (left, jump) in enumerate(zip(lefts[:last + 1], jumps)):
        if jump is None:
            rights.append(left)
        else:
            yield [*rights, jump, *lefts[f + 1:]]
            if f < last:
                rights.append(add(left, jump, -1))


def _point_integral(factors: list[tuple[dict, int]], point) -> Q:
    """Integral over [0, p] of the product of rank-1 integer forms, signed
    as p: the cone over a point facet."""
    product, den = {0: 1}, 1
    for ints, d in factors:
        nxt: dict = {}
        for n, a in product.items():
            for (e,), b in ints.items():
                nxt[n + e] = nxt.get(n + e, 0) + a * b
        product, den = nxt, den * d
    x, q = point
    return sum(Q(c * x ** (n + 1), (n + 1) * den * q ** (n + 1)) for n, c in product.items())


def _crossing(wall, through, jumps, lefts, starts) -> list:
    """The factors' polynomials inside the alcove past a boundary point of
    the edge `wall` where lines end: each line adds its jump on its first
    or last piece, signed as the edge crosses it.  The lines are crossed
    clockwise from the incoming side; one that starts there keeps in
    `starts` the polynomials on its positive side."""
    a0, a1 = wall[:2]
    for line in sorted(through, key=lambda x: Q(a0 * x[0] + a1 * x[1], a0 * x[1] - a1 * x[0])):
        ahead = a0 * line[1] - a1 * line[0] > 0  # the line starts here
        if ahead:
            starts[line] = lefts
        crossed = [f_jumps[line][1][0 if ahead else -1] if line in f_jumps else ({}, 1)
                   for f_jumps in jumps]
        lefts = [_add(left, jump, -1 if ahead else 1) if jump[0] else left
                 for left, jump in zip(lefts, crossed)]
    return lefts


def alcove_integral(rs: RootSystem, factors: list[AlcoveFactor]) -> tuple[Q, int]:
    """Integral over the alcove, in root coordinates, of the product of
    the factors' rational parts, and the number of cells it is cut into.

    By the divergence theorem the integral is the sum over facets [p, q]
    of the cone integrals of prod(left) - prod(right).  The walk takes
    each alcove edge counterclockwise (right is 0) from the polynomials
    read at corner 0 beside edge 0, then each jump line from its first end
    to its second, positive side left (right is left minus its jump).  The
    lines are one `_Arrangement`, which also cuts the jumps into pieces.
    On a jump line each polynomial is restricted to the line once
    (`_Line`) and carried along it by adding the restricted jumps of the
    lines it crosses; a run of facets on which the integrand does not
    change (crossings that move only the left of the one factor that
    jumps) costs one product and one antiderivative at its two ends.
    Rank 1 is the same walk along [lo, hi], with point facets.  Euler's
    formula counts the cells: 1 + L + the sum of k - 1 over the inner
    points where k of L lines meet.
    """
    corners = _alcove_corners(rs)
    start, end = corners[:2]
    if rs.rank == 1:
        jumps = [f._jumps(None) for f in factors]
        lines = sorted(set().union(*jumps))
        lefts = [f.cell_polynomial(start, (1,)) for f in factors]
        total = -_point_integral(lefts, start)  # the side above counts negatively
        for line in sorted(lines, key=lambda line: Q(-line[1], line[0])):
            own = [f_jumps[line][1][0] if line in f_jumps else None for f_jumps in jumps]
            lefts = [left if jump is None else _add(left, jump, 1)
                     for left, jump in zip(lefts, own)]
            point = _point([-line[1]], line[0])
            total -= sum(_point_integral(term, point) for term in _terms(lefts, own, _add))
        return total + _point_integral(lefts, end), 1 + len(lines)
    arrangement = _Arrangement(rs, sorted(set().union(*(f.lines for f in factors))))
    jumps = [f._jumps(arrangement) for f in factors]
    lines = sorted(set().union(*jumps))
    jumping, tops = set(lines), [f.spline.degree for f in factors]
    edge = _cross(start, end)
    lefts = [f.cell_polynomial(start, (edge[1], -edge[0]), edge[:2]) for f in factors]
    starts: dict = {}
    total = 0
    for (p, q), stops in zip(zip(corners, corners[1:] + corners[:1]), arrangement.edges):
        wall = _cross(p, q)  # positive inside
        geometry = _Line(wall)
        for point, through in stops:
            through = [line for line in through if line in jumping]
            if not through and point != q:
                continue
            if all(ints for ints, _ in lefts):
                total += geometry.integral(reduce(_times, (
                    geometry.restrict(left, top) for left, top in zip(lefts, tops))), p, point)
            lefts = _crossing(wall, through, jumps, lefts, starts)
            p = point
    inner = 0
    for line in lines:
        geometry = _Line(line)
        stops, crossings = arrangement.stops[line], arrangement.through[line]
        own = [f_jumps.get(line, ((), ())) for f_jumps in jumps]
        # the integrand reads the left of every factor but a single one that jumps
        jumpers = [f for f, (cuts, _) in enumerate(own) if cuts]
        read = [any(g != f for g in jumpers) for f in range(len(factors))]
        lefts = [geometry.restrict(left, top) if r else None
                 for left, top, r in zip(starts[line], tops, read)]
        restricted: dict = {}  # (factor, piece) -> its jump across the line, restricted, or None
        pieces, integrand, span, stale = None, None, 0, True
        last, p = len(stops) - 1, 0
        for s in range(1, last + 1):
            through = [other for other in crossings[s] if other in jumping]
            if not through and s < last:
                continue
            if stale:  # the facets from stops[span] to stops[p] had one integrand
                if integrand is not None:
                    total += geometry.integral(integrand, stops[span], stops[p])
                pieces = [bisect_right(cuts, p) - 1 for cuts, _ in own]
                facet = []
                for f, ((_, polys), piece) in enumerate(zip(own, pieces)):
                    if (f, piece) not in restricted:
                        poly = polys[piece] if polys else ({}, 1)
                        restricted[f, piece] = geometry.restrict(poly, tops[f]) if poly[0] else None
                    facet.append(restricted[f, piece])
                products = [reduce(_times, term) for term in _terms(lefts, facet, _plus)]
                integrand = reduce(lambda x, y: _plus(x, y, 1), products) if products else None
                span, stale = p, False
            if s < last:
                for other in through:
                    ahead = line[0] * other[1] - line[1] * other[0] > 0  # its piece ahead lies left
                    at = arrangement.index[other][stops[s]]
                    for f, f_jumps in enumerate(jumps):
                        if read[f] and other in f_jumps:
                            cuts, polys = f_jumps[other]
                            poly = polys[(bisect_right if ahead else bisect_left)(cuts, at) - 1]
                            if poly[0]:
                                lefts[f] = _plus(lefts[f], geometry.restrict(poly, tops[f]),
                                                 -1 if ahead else 1)
                                stale = True
                stale = stale or pieces != [bisect_right(cuts, s) - 1 for cuts, _ in own]
                inner += len(through) * (line < min(through))
            p = s
        if integrand is not None:
            total += geometry.integral(integrand, stops[span], stops[last])
    return total, 1 + len(lines) + inner
