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

Points and lines are exact and in Python ints: a point of the alcove in
root coordinates is a tuple (z_1, ..., z_r, den) with den > 0 standing for
z / den, and a line a.z + k = 0 is the primitive integer tuple
(a_1, ..., a_r, k) whose first nonzero a_i is positive; each argument's
lines are derived once.  Chambers are read as stored (`kappa.Chamber`,
integer numerators over one denominator), and a polynomial is an integer
form ({exponents: numerator}, denominator), as `moduli._affine_sum`
returns it: no coefficient becomes a Fraction before the cone integrals.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from operator import mul

import numpy as np

from .exact import Q, common_denominator, scaled
from .kappa import OnWallError, _primitive, kappa_build
from .liecore import RootSystem
from .moduli import NU, STAR_NU, _affine_sum, _lattice_ball, _signed_center, _weyl_fold

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
        self.lattice = _lattice_ball(rs, slots)[0]

    @cached_property
    def _alcove_args(self) -> list:
        """(c, L, coef, walls, lines) for the arguments whose support meets
        the open alcove, in the term order (l, w_1, ..., w_{b-1}) of the
        lattice sum with the Weyl elements of the fixed slots first; equal
        arguments are not merged.  walls[j] = (D L^T u_j, u_j.c) is the line
        of wall u_j, read off the extended argument, and lines the set of
        those that vary with nu, primitive (walls share one when L is
        singular).  At degree 0 kappa jumps on a wall, so an argument that
        stays on a wall for every nu raises OnWallError."""
        rs, rank, scale = self.rs, self.rs.rank, self.scale
        extension = self.spline.config.extension
        *imaged, last = self.slots
        # the L part depends only on which slots vary: made once per root system
        pattern = (*(s for s in imaged if isinstance(s, str)), last)
        ls = rs.__dict__.setdefault("_affine_matrices", {}).get(pattern)
        if ls is None:
            columns = {NU: np.eye(rank, dtype=np.int64),
                       STAR_NU: -np.array(rs.w0.matrix, dtype=np.int64)}
            varying, coefs = _weyl_fold(rs, [columns[s] for s in pattern[:-1]], rank)
            varying = varying + columns[last].T.reshape(-1)  # the last slot joins every term
            # the fold gives L column after column; (its rows, extended, coef)
            ls = rs._affine_matrices[pattern] = [(tuple(map(tuple, L)), coef) for L, coef in zip(
                (extension @ varying.reshape(-1, rank, rank).transpose(0, 2, 1)).tolist(),
                coefs.tolist())]
        fixed, fixed_coefs = _weyl_fold(rs, np.array(
            [scaled(s, scale) for s in imaged if not isinstance(s, str)], dtype=object))
        tails = scale * self.lattice.astype(object)
        cs = ((tails[:, None] + fixed[None]).reshape(-1, rank) @ extension.T).tolist()
        corners = _alcove_corners(rs)
        out = []
        for c, cf in zip(cs, fixed_coefs.tolist() * len(self.lattice)):
            c, dots = tuple(c[:rank]), c[rank:]
            for L, cv in ls:
                L, normals = L[:rank], L[rank:]
                xs = [[ci * v[-1] + scale * sum(map(mul, row, v[:-1])) for ci, row in zip(c, L)]
                      for v in corners]
                if any(max(col) <= 0 < -min(col) for col in zip(*xs)):
                    continue  # a coordinate negative on the open alcove
                walls = [(tuple(scale * a for a in row), k) for row, k in zip(normals, dots)]
                if not self.spline.degree and any(not k and not any(a) for a, k in walls):
                    raise OnWallError(
                        f"a kappa argument lies on a wall for every nu (lattice term {c})")
                out.append((c, L, cf * cv, walls,
                            {_primitive((*a, k)) for a, k in walls if any(a)}))
        return out

    @cached_property
    def lines(self) -> dict:
        """Every line crossing the open alcove on which a kappa argument
        meets a wall -> the indices of those arguments; a line is the
        primitive integer (a, k) of a.nu + k = 0, first nonzero a > 0."""
        corners = _alcove_corners(self.rs)
        out: dict = {}
        for i, (*_, arg_lines) in enumerate(self._alcove_args):
            for line in arg_lines:
                values = [_line_value(line, v) for v in corners]
                if min(values) < 0 < max(values):
                    out.setdefault(line, []).append(i)
        return out

    def beside(self, along, across) -> tuple[int, ...]:
        """The direction M along + across, M = 1 + max |a.across| over the
        arguments' wall normals a (integer vectors): a point is read beside
        it along `along`, and on the `across` side of the walls parallel
        to `along`."""
        big = 1 + max((abs(sum(map(mul, a, across)))
                       for *_, walls, _ in self._alcove_args for a, _ in walls), default=0)
        return tuple(big * x + y for x, y in zip(along, across))

    def _signs(self, walls, point, direction) -> tuple[int, ...]:
        """Chamber signs of an argument at point + eps * direction (eps -> 0+);
        on a wall it keeps for every nu, the nudge side."""
        z, den = point[:-1], point[-1]
        out = []
        for (a, k), nudge in zip(walls, self.spline.config.nudge_signs):
            v = sum(map(mul, a, z)) + k * den or sum(map(mul, a, direction))
            out.append((1 if v > 0 else -1) if v else nudge)
        return tuple(out)

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

    def cell_polynomial(self, point, direction) -> tuple[dict, int]:
        """Integer form of the polynomial at a homogeneous point (z, den),
        read beside it along `direction` where it lies on a line."""
        return self._polynomial(
            (arg, self._signs(arg[3], point, direction), arg[2]) for arg in self._alcove_args
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
        corners = _alcove_corners(self.rs)
        args = self._alcove_args
        out = {}
        for line, on_line in self.lines.items():
            others = set().union(*(args[i][4] for i in on_line)) - {line}
            cuts, points = _segment_points(corners, line, others)
            jumps = []
            for point in points:
                terms = []
                for i in on_line:
                    for side in (1, -1):
                        direction = tuple(side * a for a in line[:-1])
                        terms.append((args[i], self._signs(args[i][3], point, direction),
                                      side * args[i][2]))
                jumps.append(self._polynomial(terms))
            if any(numerators for numerators, _ in jumps):
                out[line] = (cuts, jumps)
        return out


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


def _cross(u, v) -> tuple[int, int, int]:
    """The line through two rank-2 points, or the point where two lines
    meet (den 0 when they are parallel)."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _centroid(points: list) -> tuple[int, ...]:
    den = math.lcm(*(p[-1] for p in points))
    sums = [sum(p[i] * (den // p[-1]) for p in points) for i in range(len(points[0]) - 1)]
    return _point(sums, den * len(points))


def _position(line, p) -> Q:
    """Where a point of a rank-2 line lies along its direction."""
    return Q(line[1] * p[0] - line[0] * p[1], p[2])


def _ends(corners: list, line) -> list:
    """Where a line through the open alcove meets its boundary, in order
    along the line (rank 1: the point itself)."""
    if len(line) == 2:
        return [_point([-line[1]], line[0])]
    ends = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        fp, fq = _line_value(line, p), _line_value(line, q)
        if not fp:
            ends.append(p)
        elif fp * fq < 0:
            ends.append(_point([fq * x - fp * y for x, y in zip(p[:-1], q[:-1])],
                               fq * p[-1] - fp * q[-1]))
    return sorted(ends, key=lambda p: _position(line, p))


def _stops(line, ends, lines) -> list:
    """(point, the lines through it) for the points of a rank-2 wall where
    other lines meet it after its first end, and its second end, in order."""
    first, last = (_position(line, p) for p in ends)
    found: dict = {ends[1]: []}
    for other in lines:
        x, y, den = _cross(line, other)
        if den and first < _position(line, p := _point([x, y], den)) <= last:
            found.setdefault(p, []).append(other)
    return sorted(found.items(), key=lambda item: _position(line, item[0]))


def _segment_points(corners: list, line, others) -> tuple[list, list]:
    """The positions along the line of its ends in the alcove and of its
    crossings with the other lines inside, in order, and one point
    between each consecutive two (rank 1: no positions, the point)."""
    ends = _ends(corners, line)
    if len(ends) == 1:
        return [], ends
    points = [ends[0], *(p for p, _ in _stops(line, ends, others))]
    return ([_position(line, p) for p in points],
            [_centroid(pq) for pq in zip(points, points[1:])])


def _jump(jumps: dict, line, point, ahead: bool) -> tuple[dict, int]:
    """A factor's jump across `line`, an integer form ({}, 1 where none),
    on its piece that leaves `point` forward along the line, or backward."""
    if line not in jumps:
        return {}, 1
    cuts, polys = jumps[line]
    if not cuts:
        return polys[0]
    return polys[(bisect_right if ahead else bisect_left)(cuts, _position(line, point)) - 1]


def _crossing(wall, point, through, jumps, lefts, starts=None) -> list:
    """The factors' polynomials on a wall's positive side past `point`: a
    line through it adds its jump on its piece on that side, signed as the
    wall crosses it.  The lines are crossed clockwise from the incoming
    side; one that starts there, on the boundary, keeps in `starts` the
    polynomials on its positive side."""
    a0, a1 = wall[:2]
    for line in sorted(through, key=lambda x: Q(a0 * x[0] + a1 * x[1], a0 * x[1] - a1 * x[0])):
        ahead = a0 * line[1] - a1 * line[0] > 0  # its piece on that side lies ahead
        if ahead and starts is not None:
            starts[line] = lefts
        crossed = [_jump(f_jumps, line, point, ahead) for f_jumps in jumps]
        lefts = [_add(left, jump, -1 if ahead else 1) if jump[0] else left
                 for left, jump in zip(lefts, crossed)]
    return lefts


def _add(a: tuple[dict, int], b: tuple[dict, int], sign: int) -> tuple[dict, int]:
    """a + sign * b for integer forms, over the lcm of their denominators."""
    (p, dp), (q, dq) = a, b
    den = math.lcm(dp, dq)
    return {m: v for m in p | q
            if (v := p.get(m, 0) * (den // dp) + sign * q.get(m, 0) * (den // dq))}, den


def _cone_integral(factors: list[tuple[dict, int]], points: tuple) -> Q:
    """Integral of a product of polynomials over the cone from the origin
    over a facet, signed by its orientation: conv(0, p, q) with det(p, q),
    or for rank 1 conv(0, p) with p.

    On s p + t q the product is a sum of terms h s^(n-j) t^j, and the
    simplex integral of s^(n-j) t^j is j! (n - j)! / (n + 2)!; for rank 1,
    q = 0 and (n + 1)! replaces (n + 2)!.  The sums run in integers over
    one denominator.
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
    # coefficients in t of (p_i s + q_i t)^e
    lifts = []
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


def _facet_integral(lefts: list, jumps: list, points: tuple) -> Q:
    """The cone integral (`_cone_integral`) over a facet of prod(lefts) -
    prod(rights), rights = lefts - jumps: the sum over the factors f that
    jump of rights_1 ... rights_(f-1) jump_f lefts_(f+1) ..."""
    total, rights = 0, []
    for f, (left, jump) in enumerate(zip(lefts, jumps)):
        term = [*rights, jump, *lefts[f + 1:]]
        if all(ints for ints, _ in term):
            total += _cone_integral(term, points)
        rights.append(_add(left, jump, -1) if jump[0] else left)
    return total


def alcove_integral(rs: RootSystem, factors: list[AlcoveFactor]) -> tuple[Q, int]:
    """Integral over the alcove, in root coordinates, of the product of
    the factors' rational parts, and the number of cells it is cut into.

    By the divergence theorem the integral is the sum over facets [p, q]
    of the cone integrals of prod(left) - prod(right).  The walk takes
    each alcove edge counterclockwise (right is 0) from the polynomials
    read at corner 0 beside edge 0, then each line from its first end to
    its second, positive side left (right is left minus its jump), and
    `_crossing` carries the polynomials along.  Rank 1 is the same walk
    along [lo, hi], with point facets.  Euler's formula counts the cells:
    1 + L + the sum of k - 1 over the inner points where k of L lines meet.
    """
    jumps = [f.jumps() for f in factors]
    lines = sorted(set().union(*jumps))
    corners = _alcove_corners(rs)
    start, end = corners[:2]
    if rs.rank == 1:
        lefts = [f.cell_polynomial(start, f.beside((1,), (0,))) for f in factors]
        total = -_facet_integral(lefts, lefts, (start,))  # the side above counts negatively
        for line in sorted(lines, key=lambda line: Q(-line[1], line[0])):
            own = [_jump(f_jumps, line, None, True) for f_jumps in jumps]
            lefts = [_add(left, jump, 1) for left, jump in zip(lefts, own)]
            total -= _facet_integral(lefts, own, _ends(corners, line))
        return total + _facet_integral(lefts, lefts, (end,)), 1 + len(lines)
    edge = _cross(start, end)
    lefts = [f.cell_polynomial(start, f.beside((edge[1], -edge[0]), edge[:2])) for f in factors]
    starts: dict = {}
    total = 0
    for p, q in zip(corners, corners[1:] + corners[:1]):
        wall = _cross(p, q)  # positive inside
        for point, through in _stops(wall, (p, q), lines):
            total += _facet_integral(lefts, lefts, (p, point))
            lefts = _crossing(wall, point, through, jumps, lefts, starts)
            p = point
    inner = 0
    for line in lines:
        p, last = _ends(corners, line)
        lefts = starts[line]
        for point, through in _stops(line, (p, last), lines):
            total += _facet_integral(lefts, [_jump(f_jumps, line, p, True) for f_jumps in jumps],
                                     (p, point))
            if point != last:
                lefts = _crossing(line, point, through, jumps, lefts)
                inner += len(through) * (line < min(through))
            p = point
    return total, 1 + len(lines) + inner
