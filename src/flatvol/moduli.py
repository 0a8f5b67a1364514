"""Volumes and characteristic numbers of moduli of flat connections.

Four routes are provided, each independent of the ones it checks:

* the exact lattice kappa-sum for the b-marked sphere
      (-1)^n (#Z / covol) * sum_{l in lattice} sum_{w1..w_{b-1} in W}
          (-1)^{len(w1..w_{b-1})} kappa^{[b-2]}(w1 mu1 + ... + mu_b + l),
  truncated provably to the support ball: the terms of one l sum to zero
  unless |mu_b + l| <= sum_{j<b} |mu_j| (`_support_radius`).  One front
  end sets up every sum with fixed markings (`_sphere_sums`: the volume,
  the rows of a scan, a characteristic number): the spline, the markings
  scaled to ints once (`_scaled`), the support radius, every last
  marking's lattice ball from one product with the lattice table, taken
  in blocks (`RootSystem.coroot_balls`), and passes of at most
  MOMENT_ROWS argument rows over consecutive last markings.  Each pass is
  one exact pass over whole integer arrays (`_kappa_sums`), whose
  arguments (`_kappa_arguments`) read those ints.  The lattice table and
  the Weyl matrices are cached tables of the root system, the walls' norm
  bound, the transposed extension and the nudge side are cached on the
  vector configuration, and the sign vector of each packed side code is
  made once (`_code_signs`).  The Weyl-image sums of the fixed markings are
  made once (`_weyl_fold`) and every sum's arguments come from them in
  one broadcast; each argument's chamber is found by its packed wall
  signs (`_chamber_groups`), and the chamber polynomials' moments are
  taken for every chamber at once, modulo 2^64, exact when a bound over
  all rows (or, when that one reaches 2^63, over each chamber's rows)
  allows, and otherwise also from residues modulo primes (`_moments`).
  A characteristic number is the same pass with an operator applied to
  each chamber polynomial (`mixed_characteristic_number`);
* the signed toric decomposition over affine Weyl representatives,
  with every kappa value read from the positive roots alone: the
  truncated-power recurrence off the walls and the fiber-polytope volume
  on them, never the vertex-formula chambers of the kappa-sum;
* the character series (Witten series), heat-kernel regularized when the
  dimension exponent makes it only conditionally convergent; and
* the exact gluing integral over the alcove for the (1,1) and (0,4)
  surfaces (`glue_volume`, integrated facet by facet by `gluing.py`),
  whose pants factors are the same lattice sum with a marking varying
  over the alcove (`gluing.AlcoveFactor`, built on the same fold).

Conventions (stamped into every report): alcove pairing e^{2 pi i <.,.>},
kappa relative to inner-product Lebesgue measure, covol = covolume of the
coroot lattice, Vol(T) Riemannian = (2 pi)^rank * covol, class volumes
Vol(C_mu) = Vol(G)/Vol(T) * prod (2 sin pi<alpha,mu>)^2, and the
boundary-sine bookkeeping resolved so that the character series matches
the kappa-sum ground truth:
    Vol(h,b) = #Z * covol^{2h-2} * [(2 pi)^n prod_{a>0}<rho,a>]^{-(2h-2+b)}
               * prod_j [prod_{a>0} 2 sin(pi<a,mu_j>)]
               * sum_lambda d^{-(2h-2+b)} prod_j chi_lambda(e^{mu_j})
for b >= 1, while closed surfaces use the plain #Z Vol(G)^{2h-2} sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, count, islice, product, repeat
from operator import mul, sub

import numpy as np

from .characters import series_table
from .exact import (
    Q, Vec, common_denominator, int_bilinear, scaled, vadd, vsub,
)
from .kappa import (
    DiffOperator,
    OnWallError,
    SymmetricPoly,
    kappa_build,
    kappa_point,
    pullback_operator,
)
from .liecore import (
    RootSystem,
    alcove_membership,
    covolume_T,
    enumerate_waff_positive,
    rho_product,
    star,
    volume_G,
)
from .poly import Poly, poly_subs_affine

__all__ = [
    "Surface",
    "Marking",
    "VolumeReport",
    "SignedToricTerm",
    "ConvergenceError",
    "UnsupportedDecompositionError",
    "moduli_dimension",
    "pants_volume_kappa",
    "pants_volumes_exact",
    "sphere_volume_kappa",
    "PantsVolumePoly",
    "pants_volume_poly",
    "mixed_characteristic_number",
    "toric_decomposition",
    "conjugacy_volume",
    "witten_volume",
    "glue_volume",
    "convention_stamp",
]

ROOT_ORDER_ID = "height-then-lex-in-simple-root-coords"
MEASURE_ID = "inner-product-lebesgue;VolT=covol(coroot-lattice);dnu:t/weight-lattice=1"
SINE_POWER_ID = (
    "class-volume-sine-power=2;boundary-factor=sine-power-1/covol;"
    "series-prefactor=Z*covol^(2h-2)*((2pi)^n*prod<rho,a>)^-(2h-2+b);"
    "closed-surface=Z*VolG^(2h-2)"
)


class ConvergenceError(RuntimeError):
    """Series failed its Cauchy criterion after extrapolation."""


class UnsupportedDecompositionError(ValueError):
    """Requested surface has no supported gluing decomposition."""


@dataclass(frozen=True)
class Surface:
    genus: int
    boundary: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise ValueError("genus and boundary count must be nonnegative")

    @property
    def euler_weight(self) -> int:
        """Exponent 2h - 2 + b governing the character series."""
        return 2 * self.genus - 2 + self.boundary


@dataclass
class Marking:
    """Boundary labels: points of the closed alcove."""

    points: list[Vec]

    @classmethod
    def of(cls, rs: RootSystem, points: list[Vec]) -> "Marking":
        for p in points:
            kind, _ = alcove_membership(rs, p)
            if kind == "outside":
                raise ValueError(f"marking point {p} lies outside the closed alcove")
        return cls(points=list(points))

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class VolumeReport:
    """A computed volume plus everything needed to reproduce it."""

    value: float
    method: str
    parameters: dict
    stamp: dict
    exact: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "parameters": _jsonable(self.parameters),
            "stamp": self.stamp,
        }
        if self.exact is not None:
            out["exact"] = _jsonable(self.exact)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


@dataclass
class SignedToricTerm:
    sign: int
    shift: Vec
    value: float
    rational: Fraction


def _signed_center(rs: RootSystem) -> int:
    """(-1)^{|R+|} #Z, the factor of every kappa lattice sum."""
    return (-1) ** rs.n_positive * rs.center_order


def _normalized(rs: RootSystem, rational: Q) -> float:
    """The value of an exact rational part of a volume:
    rational / sqrt(det coroot Gram * det Gram)."""
    return float(rational) / rs.volume_normalization[0]


def _exact_report(rs: RootSystem, method: str, rational: Q, parameters: dict,
                  normalize: bool = True) -> VolumeReport:
    """A report whose value is the exact rational times the stamped
    normalization: that of `_normalized`, or 1."""
    norm = rs.volume_normalization[1] if normalize else "1"
    return VolumeReport(
        value=_normalized(rs, rational) if normalize else float(rational),
        method=method,
        parameters=parameters,
        stamp=convention_stamp(rs),
        exact={"rational": rational, "normalization": norm},
    )


def convention_stamp(rs: RootSystem, **extra) -> dict:
    stamp = {
        "group": rs.spec.name,
        "root_order": ROOT_ORDER_ID,
        "measure": MEASURE_ID,
        "sine_power": SINE_POWER_ID,
    }
    stamp.update(extra)
    return stamp


def moduli_dimension(rs: RootSystem, surface: Surface) -> int:
    """Complex dimension of the three-holed-sphere moduli space."""
    if (surface.genus, surface.boundary) != (0, 3):
        raise ValueError("dimension formula implemented for the pants case only")
    return (rs.dim_g - 3 * rs.rank) // 2


# ---------------------------------------------------------------------------
# lattice kappa-sums
# ---------------------------------------------------------------------------

NU, STAR_NU = "nu", "*nu"  # marking slots that vary over the alcove


def _slot_point(rs: RootSystem, slot):
    """A slot's point; a varying one (NU, STAR_NU) at its largest norm, a vertex."""
    return max(rs.alcove.vertices, key=rs.norm_sq) if isinstance(slot, str) else slot


def _scaled(points) -> tuple[int, list[list[int]]]:
    """The points in ints: (D, [D mu for each point mu]), D the common
    denominator of their coordinates.  A kappa-sum scales its fixed
    markings and each last marking once, and `_support_radius`,
    `RootSystem.coroot_balls` and `_kappa_arguments` read these ints."""
    den = common_denominator(chain.from_iterable(points))
    return den, [scaled(p, den) for p in points]


def _support_radius(rs: RootSystem, fixed: tuple[int, list[list[int]]]) -> Q:
    """r for a lattice sum over mu_1 .. mu_b, from the slots mu_1 .. mu_{b-1}
    in ints, fixed = (D, [D mu_j]) (`_scaled`): the terms of one lattice
    point l, over all Weyl tuples, sum to zero unless
    |mu_b + l|^2 <= r = (b - 1) sum_{j<b} |mu_j|^2, which bounds
    (sum_{j<b} |mu_j|)^2: each Weyl-alternating factor is divisible by the
    product of the roots, so the group sum, a box-spline-type function of
    mu_b + l, is supported in |y| <= sum_{j<b} |mu_j| (Paley-Wiener-Schwartz;
    C. De Concini and C. Procesi, *Topics in Hyperplane Arrangements,
    Polytopes and Box-Splines*, 2010).  With (I, g) = `int_gram`,
    g D^2 |mu_j|^2 = x.I x for x = D mu_j, so r is one Fraction of ints."""
    scale, xs = fixed
    igram, g = rs.int_gram
    return Q(len(xs) * sum(int_bilinear(igram, x, x) for x in xs), g * scale * scale)


def _lattice_ball(rs: RootSystem, slot: str, radius_sq: Q) -> np.ndarray:
    """The lattice vectors summed for a varying last slot (NU, STAR_NU), as
    int64 rows in root coordinates in the order of
    `RootSystem.coroot_table`, given the support bound r = radius_sq of
    the other slots (`_support_radius`): the centred ball
    |l|^2 <= R = 2 |mu_b|^2 + 2 r at the slot's largest norm
    (`_slot_point`), floor(g R) read from x.I x and r ((I, g) =
    `int_gram`, x = D mu_b).  It holds the support ball
    |mu_b + l|^2 <= r of every mu_b of the alcove
    (`PantsVolumePoly.lattice`, `gluing.AlcoveFactor`)."""
    (igram, g), (scale, (x,)) = rs.int_gram, _scaled([_slot_point(rs, slot)])
    n, d, square = radius_sq.numerator, radius_sq.denominator, scale * scale
    return rs.coroot_ball((2 * int_bilinear(igram, x, x) * d + 2 * g * n * square) // (square * d))


def sphere_volume_kappa(
    rs: RootSystem, mus: list[Vec], radius_sq: Q | None = None
) -> VolumeReport:
    """Volume of the b-marked sphere by the exact lattice kappa-sum.

    mus are closed-alcove points; b >= 3.  The kappa used is the truncated
    power of the positive roots each repeated (b-2) times, evaluated by
    the chamber spline (Lawrence's vertex formula per chamber).  The sum
    is `_sphere_sums`' one sum at mu_b; the report's `lattice_radius_sq` is
    its r (radius_sq when given) and `lattice_points` counts its lattice
    ball.  At a degree-0 wall it raises OnWallError, after the chambers
    met before it.
    """
    b = len(mus)
    if b < 3:
        raise ValueError("need at least three markings")
    (rational,), (lattice,), radius_sq, walls = _sphere_sums(rs, mus[:-1], [_scaled(mus[-1:])],
                                                             radius_sq)
    if walls:
        kappa_build(rs, b - 2).chamber_at(walls[0])  # raises OnWallError
    return _exact_report(rs, "kappa-sum", rational, {
        "markings": [[str(c) for c in m] for m in mus],
        "lattice_radius_sq": radius_sq,
        "lattice_points": len(lattice),
        "multiplicity": b - 2,
    })


def _sphere_sums(rs: RootSystem, fixed_mus: list[Vec], lasts: list,
                 radius_sq: Q | None = None, op=None
                 ) -> tuple[list[Q | None], list[np.ndarray], Q, list[Vec]]:
    """The kappa-sums of the b-marked sphere at the fixed markings mu_1 ..
    mu_{b-1} = fixed_mus and each last marking mu_b, times (-1)^{|R+|} #Z
    (`_kappa_sums`): the one set-up of `volume`, the rows of `scan` and
    `chern`.  The last markings come in ints, lasts[j] = (D_j, [D_j mu_b])
    with D_j the least denominator of mu_b (`_scaled`; `cli.cmd_scan`
    places a line's rows so, with no Fraction).  Returns (values,
    lattices, r, walls).

    The spline is kappa^{[b-2]}, the fixed markings are scaled to ints once
    (`_scaled`), and each sum runs over its mu_b's own lattice ball, the
    support ball |mu_b + l|^2 <= r: each lattice point left out has a
    group of terms that cancels exactly.  All the balls come from one
    product with the lattice table, taken in blocks
    (`RootSystem.coroot_balls`); r is radius_sq, or else the fixed
    markings' bound (`_support_radius`).  Consecutive last markings share a pass
    (`_kappa_sums`, with op) of at most MOMENT_ROWS argument rows
    (|ball| |W|^(b-1) a marking), or one marking whose rows are more, so
    a pass holds at most one `_moments` block or one sum's arrays; passes
    in order build the chambers as one call per marking would.  A
    sum that meets a degree-0 (A1) wall is None, and its wall point is the
    next entry of walls; with op, any on-wall argument raises OnWallError
    first.
    """
    spline = kappa_build(rs, len(fixed_mus) - 1)
    fixed = _scaled(fixed_mus)
    if radius_sq is None:
        radius_sq = _support_radius(rs, fixed)
    lattices = rs.coroot_balls(lasts, radius_sq)
    tuples, values, walls, lo, rows = len(rs.weyl_array[0]) ** len(fixed_mus), [], [], 0, 0
    # the pass lo:hi ends at the last marking, or before the next one when
    # that one's rows would take it above MOMENT_ROWS
    for hi, lattice in enumerate(lattices, 1):
        rows += len(lattice) * tuples
        if hi == len(lattices) or rows + len(lattices[hi]) * tuples > MOMENT_ROWS:
            sums, met = _kappa_sums(spline, rs, fixed, lasts[lo:hi], lattices[lo:hi], op)
            values += sums
            walls += met.values()
            lo, rows = hi, 0
    return values, lattices, radius_sq, walls


def _weyl_fold(rs: RootSystem, slots, columns: int = 1):
    """The sums w_1 s_1 + ... + w_k s_k over Weyl tuples in the term order
    (w_1 major), each slot an integer matrix of `columns` columns and each
    sum flattened column after column, and the tuples' signs, unmerged: one
    product with the Weyl tensor (`RootSystem.weyl_array`), one sum a slot."""
    mats, signs, _ = rs.weyl_array
    width = columns * rs.rank
    if not len(slots):
        return np.zeros((1, width), dtype=np.int64), np.ones(1, dtype=np.int64)
    slots = np.asarray(slots).reshape(len(slots), rs.rank, columns)
    images = np.swapaxes(mats[:, None] @ slots, 2, 3).reshape(len(mats), len(slots), width)
    sums, coefs = images[:, 0], signs
    for j in range(1, len(slots)):
        sums = (sums[:, None] + images[None, :, j]).reshape(-1, width)
        coefs = (coefs[:, None] * signs).reshape(-1)
    return sums, coefs


def _kappa_arguments(rs: RootSystem, config, fixed, lasts: list, lattices: list[np.ndarray]):
    """The kappa arguments of the lattice sums j, one for each last
    marking lasts[j], over l in lattices[j] (int64 rows in root
    coordinates) and Weyl tuples (w_1..w_k) acting on the fixed markings,
    b = k + 1, as whole integer arrays (args, coefs), the sums' scales D_j
    and their row bounds: the rows of sum j are bounds[j]:bounds[j + 1].
    The markings come in ints (`_scaled`): fixed = (D_0, [D_0 mu_i]), and
    lasts[j] = (d_j, [d_j mu_b]) for each sum.

    A row of sum j is x = D_j (w_1 mu_1 + ... + w_k mu_k + mu_b + l), mu_b
    its last marking and D_j = lcm(D_0, d_j) the common denominator of its
    markings, then its wall dot products (`VectorConfig.extension_t`);
    coefs = +-1 is the tuple's sign.  The Weyl-image sums P (`_weyl_fold`)
    are made once, at the scale D_0 of the fixed markings, and every sum's
    arguments come from them in one broadcast: each lattice row carries
    its sum's [D_j, D_j / D_0, D_j mu_b], so with the tails
    T = D_j (mu_b + l), T[:, None] + (D_j / D_0) P[None] is in the order
    (l, w_1, ..., w_k) of the term-by-term sum, and the sums follow each
    other in order.  Rows with a negative coordinate, outside the support
    cone, are dropped before the rest are extended; the indices of the
    rows kept give each row's tuple sign and each sum's row bounds.

    The arrays are int64 when a bound on every entry of every sum is below
    2^62 (with `VectorConfig.wall_norm` for the dot products); for huge
    denominators the same statements run on object arrays of ints.
    """
    base, imaged = fixed
    scales = [math.lcm(base, d) for d, _ in lasts]
    # per sum: D_j, D_j / D_0 and D_j mu_b
    heads = [[scale, scale // base, *(scale // d * c for c in x)]
             for scale, (d, (x,)) in zip(scales, lasts)]
    sizes = [len(lat) for lat in lattices]
    cuts, lattice = list(accumulate(sizes, initial=0)), np.concatenate(lattices)
    # |w m| <= weyl_norm max|m|, |u.x| <= |u|_1 max|x|; every |l_i| read
    # in one pass, and scale enters an array even when every lattice
    # vector is zero
    fold_max = rs.weyl_array[2] * sum(max(map(abs, m)) for m in imaged)
    widths, rank = np.abs(lattice).ravel().tolist(), rs.rank
    coordinate_max = max(scale * max([1, *widths[lo * rank:hi * rank]]) + max(map(abs, end))
                         + step * fold_max
                         for lo, hi, (scale, step, *end) in zip(cuts, cuts[1:], heads))
    dtype = np.int64 if coordinate_max * config.wall_norm < 2**62 else object

    folds, signs = _weyl_fold(rs, np.array(imaged, dtype=dtype))
    heads = np.repeat(np.array(heads, dtype=dtype), sizes, axis=0)
    tails = heads[:, :1] * lattice + heads[:, 2:]
    args = tails[:, None] + heads[:, 1, None, None] * folds  # (l, tuple, coordinate)
    # rows with no negative coordinate, one comparison a coordinate: a
    # reduction over the short last axis costs several times more
    inside = args[..., 0] >= 0
    for k in range(1, args.shape[2]):
        inside &= args[..., k] >= 0
    rows, tuples = inside.nonzero()
    bounds = np.searchsorted(rows, cuts).tolist()
    return (args[rows, tuples] @ config.extension_t, signs[tuples].astype(dtype, copy=False),
            scales, bounds)


def _chamber_groups(spline, args: np.ndarray, scales: list[int], bounds: list[int],
                    smooth_at: list[Vec] | None = None
                    ) -> tuple[np.ndarray, np.ndarray, list, list[int], dict]:
    """The rows of `_kappa_arguments` (args; those of sum j, at scale D_j,
    are bounds[j]:bounds[j + 1]) grouped by sum and chamber: (order, starts,
    chambers, group_sums, walls), order a stable sort of the rows by (sum,
    chamber), group g its rows order[starts[g]:starts[g + 1]], chambers[g]
    its `kappa.Chamber` (integer numerators over `monomials`, one
    denominator) and group_sums[g] its sum.

    A row's wall sides are packed into one int64 code (bit i: positive side
    of wall i; on the wall, the side the nudge direction points to,
    `VectorConfig.nudge_side`, whose chamber polynomial gives the value by
    continuity), with its sum's index above the wall bits (added to the
    rows of sums 1, 2, ..., so one sum adds nothing).  Only when some dot
    product is zero are the on-wall rows found and read.  A stable sort by
    code groups the rows; the groups' chambers are looked up by sign, and
    those new to the spline are built in one batched pass
    (`PiecewisePolynomial.chambers_at`), each at the first argument the
    term order meets in it, in the order of those first rows: sum after
    sum in term order, as one call per sum builds them.  A pass whose
    chambers are all built makes no build call.  At degree 0 a
    sum's first on-wall row stops it: the chambers it met before are built,
    its later groups are left None and walls[j] is that row's point, at
    which `PiecewisePolynomial.chamber_at` raises OnWallError.  With
    smooth_at, the sums' last markings, each sum is read as one polynomial
    near its marking (or its derivatives): any on-wall row raises first.
    """
    config, rank = spline.config, spline.rank
    dots = args[:, rank:]
    shift = dots.shape[1]
    assert shift + (len(scales) - 1).bit_length() <= 62, "each code must fit in one int64"
    side = dots > 0
    # rows of a sum from its stop on are not evaluated: at degree 0, its
    # first row on a wall
    stops: dict[int, int] = {}
    if not dots.all():
        on_wall = dots == 0
        # rows with a zero dot product, one pass a wall: a reduction over
        # the short last axis costs more
        hit = on_wall[:, 0].copy()
        for k in range(1, shift):
            hit |= on_wall[:, k]
        hits = np.flatnonzero(hit)
        sums = (np.searchsorted(bounds, hits, "right") - 1).tolist()
        if smooth_at is not None:
            raise OnWallError(f"{smooth_at[sums[0]]}: a kappa argument of its lattice ball "
                              "lies on a wall of kappa")
        side |= on_wall & config.nudge_side
        if not spline.degree:
            for row, j in zip(hits.tolist(), sums):
                stops.setdefault(j, row)
    code = side @ config.wall_bits
    if len(scales) > 1:
        code += np.repeat(np.arange(len(scales), dtype=np.int64) << shift, np.diff(bounds))
    order = np.argsort(code, kind="stable")
    ordered = code[order]
    change = np.empty(len(code), dtype=bool)  # a group starts at row 0 and at each new code
    change[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
    starts = change.nonzero()[0]
    first = order[starts]  # each group's first row, since the sort is stable
    codes = ordered[starts].tolist()
    signs = [_code_signs(c & (1 << shift) - 1, shift) for c in codes]
    group_sums = [c >> shift for c in codes]

    def point(row: int, j: int) -> Vec:
        return tuple(Q(c, scales[j]) for c in args[row, :rank].tolist())

    chambers, new = [None] * len(starts), []
    for row, g in sorted(zip(first.tolist(), range(len(starts)))):
        j = group_sums[g]
        if j not in stops or row < stops[j]:
            chambers[g] = spline.chambers.get(signs[g])
            if chambers[g] is None:
                new.append((row, g))
    if new:
        spline.chambers_at([point(row, group_sums[g]) for row, g in new])
        for _, g in new:
            chambers[g] = spline.chambers[signs[g]]
    return order, starts, chambers, group_sums, {j: point(row, j) for j, row in stops.items()}


@lru_cache(maxsize=None)
def _code_signs(code: int, walls: int) -> tuple[int, ...]:
    """The sign vector over `walls` walls packed in code (bit i set: the
    positive side of wall i, as `VectorConfig.wall_bits` packs it), made
    once per code for every configuration."""
    return tuple(1 if code >> i & 1 else -1 for i in range(walls))


def _kappa_sums(spline, rs: RootSystem, fixed, lasts: list, lattices: list[np.ndarray],
                op=None) -> tuple[list[Q | None], dict]:
    """For each last marking mu_b = lasts[j], (-1)^{|R+|} #Z
    (`_signed_center`) times the sum over l in lattices[j] and Weyl tuples
    (w_1..w_k) of the product of the signs times
    kappa(w_1 mu_1 + ... + w_k mu_k + mu_b + l), mu_1..mu_k the fixed
    markings, b = k + 1, all in ints (`_scaled`): the kappa-sum engine.
    All sums are one pass over the integer arrays of `_kappa_arguments`,
    sum j scaled by its D_j, grouped by sum and chamber
    (`_chamber_groups`), with one `_moments` call.  Chamber polynomials are
    homogeneous of degree d, so with c_g / e_g a group's chamber and M_g
    its moments sum j is sum_g c_g . M_g / (e_g D_j^d) over its groups g.

    With a constant-coefficient operator op (`kappa.DiffOperator`) it is
    the sum of (op p_g)(x), op applied to the sum as a function of mu_b (no
    Weyl element acts on mu_b), off the walls.  op p_g has terms of degree
    |m| <= d, each scaled by D_j^(d - |m|) and by the lcm L of op's
    denominators, so the sum stays in integers over e_g L D_j^d.

    Returns the sums and the degree-0 walls of `_chamber_groups`; a sum
    that meets such a wall is None.
    """
    args, coefs, scales, bounds = _kappa_arguments(rs, spline.config, fixed, lasts, lattices)
    smooth_at = None if op is None else [tuple(Q(c, d) for c in x) for d, (x,) in lasts]
    order, starts, chambers, group_sums, walls = _chamber_groups(
        spline, args, scales, bounds, smooth_at)
    degree, exponents, lcm = spline.degree, spline.exponents, 1
    rows = [ch and ch.numerators for ch in chambers]
    if op is not None:
        lcm = math.lcm(*(c.denominator for c, _ in op.terms))
        op = DiffOperator(tuple((int(c * lcm), e) for c, e in op.terms))  # L op, in ints
        polys = {ch.signs: op.apply_poly(dict(zip(spline.monomials, ch.numerators)))
                 for ch in chambers}
        keys = sorted(set().union(*polys.values()))
        rows = [[polys[ch.signs].get(m, 0) * scales[j] ** (degree - sum(m)) for m in keys]
                for ch, j in zip(chambers, group_sums)]
        exponents = np.array(keys, dtype=np.int64).reshape(-1, spline.rank)
    moments = _moments(args[order, :spline.rank], coefs[order], starts, exponents)
    common = math.lcm(*(ch.den for ch in chambers if ch is not None))
    totals = [0] * len(lasts)
    for m, row, ch, j in zip(moments, rows, chambers, group_sums):
        if ch is not None:
            totals[j] += sum(map(mul, m, row)) * (common // ch.den)
    center = _signed_center(rs)
    return [None if j in walls else Q(center * total, common * lcm * scale**degree)
            for j, (total, scale) in enumerate(zip(totals, scales))], walls


MOMENT_ROWS = 4096  # rows per block of `_moments`, whose peak memory is one block's terms


def _moments(points: np.ndarray, coefs: np.ndarray, starts, exponents) -> list[list[int]]:
    """M[g][e] = sum of coefs[i] * points[i]^exponents[e] over the rows i of
    group g (from starts[g] to the next start, none empty), in Python ints,
    for all groups at once: one power table of every coordinate, x^0 ..
    x^t in t products (t the largest degree), the monomial matrix gathered
    from it one coordinate at a time and weighted by the coefficients, and
    `np.add.reduceat` over the starts.  Rows run along the last axis of
    each array (coordinate by row, monomial by row), so that each gather
    reads one coordinate's contiguous powers.  The rows are taken in blocks of
    MOMENT_ROWS, so only one block's monomial matrix is held at a time,
    and each block's group sums are added into the groups' rows: a group
    that straddles blocks gets a partial sum from each.

    B = max(1, max|x|)^t sum|coef| over all rows bounds every entry.  When
    B >= 2^63 it is taken per group instead, the largest of
    max(1, max|x|_g)^t sum_g|coef| (max|x|_g and sum_g over the group's
    rows), which does not grow with the number of sums in a batch
    (`_kappa_sums`); below 2^63 both give the same passes.  The pass runs
    modulo 2^64 in uint64, whose arithmetic wraps, exact alone when
    B < 2^63; otherwise also modulo the fewest primes below 2^31 (a
    product of two residues fits int64) that bring the moduli's product P
    above 2B, and the entries are rebuilt in (-P/2, P/2] by the Chinese
    remainder theorem (J. von zur Gathen and J. Gerhard, Modern Computer
    Algebra, ch. 5).  Python ints enter as x % p.
    """
    top = max(map(sum, exponents.tolist()), default=0)
    bound = max(1, int(np.abs(points).max(initial=0))) ** top * int(np.abs(coefs).sum())
    if bound >= 2**63:
        sizes = np.maximum.reduceat(np.abs(points), starts, axis=0).max(axis=1).tolist()
        weights = np.add.reduceat(np.abs(coefs), starts).tolist()
        bound = max((max(1, int(x)) ** top * int(w) for x, w in zip(sizes, weights)), default=0)
    k = 0
    while _crt_basis(k)[1] <= 2 * bound:
        k += 1
    primes, product, weights = _crt_basis(k)
    # (first row, end row, group starts in the block, group of its first row)
    blocks = [(0, len(points), starts, 0)]
    if len(points) > MOMENT_ROWS:
        blocks = []
        for lo in range(0, len(points), MOMENT_ROWS):
            hi = min(lo + MOMENT_ROWS, len(points))
            a, b = np.searchsorted(starts, (lo, hi))
            local = starts[a:b] - lo
            if a == len(starts) or starts[a] != lo:  # the block opens inside group a - 1
                local, a = np.concatenate(([0], local)), a - 1
            blocks.append((lo, hi, local, a))
    tables = []
    for p in (0, *primes):
        if p:
            x, c = ((a % p).astype(np.int64) for a in (points.T, coefs))
        else:
            x, c = ((a % 2**64).astype(np.uint64) if a.dtype == object else a.view(np.uint64)
                    for a in (points.T, coefs))

        def mod(a, p=p):  # a % p in place, through one temporary; // beats %
            if p:
                q = a // p
                q *= p
                a -= q
            return a

        # (monomial, group), so that each block's rows run along the last axis
        table = np.zeros((len(exponents), len(starts)), x.dtype) if len(blocks) > 1 else None
        for lo, hi, local, first in blocks:
            power = np.empty((len(x), top + 1, hi - lo), dtype=x.dtype)  # (i, e, row): x_i^e
            power[:, 0] = 1
            for e in range(top):
                power[:, e + 1] = mod(power[:, e] * x[:, lo:hi])
            terms = np.empty((len(exponents), hi - lo), dtype=x.dtype)
            terms[:] = c[lo:hi]
            for i, column in enumerate(exponents.T):  # one coordinate's powers at a time
                terms *= power[i, column]
                mod(terms)
            sums = mod(np.add.reduceat(terms, local, axis=1))
            if table is None:
                table = sums
            else:
                rows = table[:, first:first + sums.shape[1]]
                rows += sums
                mod(rows)
        tables.append(table.T)
    if not primes:  # |M| <= B < 2^63: the signed reading of the pass modulo 2^64
        return tables[0].view(np.int64).tolist()
    moments = sum(t.astype(object) * w for t, w in zip(tables, weights)) % product
    return np.where(moments > product // 2, moments - product, moments).tolist()


@lru_cache(maxsize=None)
def _crt_basis(k: int) -> tuple[list[int], int, list[int]]:
    """The k largest primes below 2^31, the product P of them and 2^64, and
    the CRT weights (P/m) ((P/m)^-1 mod m) of the moduli 2^64 and the
    primes, m: each is 1 modulo its m and 0 modulo the others."""
    odd = np.arange(3, 46341, 2)  # every odd composite below 2^31 has a factor here
    primes = list(islice((n for n in count(2**31 - 1, -2) if (n % odd).all()), k))
    product = 2**64 * math.prod(primes)
    return primes, product, [product // m * pow(product // m, -1, m) for m in (2**64, *primes)]


def pants_volume_kappa(
    rs: RootSystem, mu1: Vec, mu2: Vec, mu3: Vec, radius_sq: Q | None = None
) -> VolumeReport:
    """Three-holed-sphere volume by the exact kappa-sum (chamber spline route)."""
    return sphere_volume_kappa(rs, [mu1, mu2, mu3], radius_sq=radius_sq)


def pants_volumes_exact(rs: RootSystem, mu1: Vec, mu2: Vec, mu3s: list[Vec]) -> list[Q | None]:
    """The exact rational parts of `pants_volume_kappa` at the third
    markings mu3s, in `_sphere_sums`' batched passes (as a scan's rows);
    a marking at a degree-0 (A1) wall, where `pants_volume_kappa` raises
    OnWallError, gives None."""
    return _sphere_sums(rs, [mu1, mu2], [_scaled([m]) for m in mu3s])[0]


# ---------------------------------------------------------------------------
# pants volumes polynomial in a marking
# ---------------------------------------------------------------------------


def _column_moments(points: list, coefs: list[int], exponents) -> dict[tuple[int, ...], int]:
    """{b: sum of coef * x^b over int points x} for the exponent tuples b, in
    Python ints, one column at a time.  A gluing group has too few rows to
    repay numpy's fixed cost per call, which `_moments` spends on the
    kappa-sum's: on the groups of the A1, A2 and G2 `glue` runs (1 to 8
    rows each) one `_moments` call took a median 16, 24 and 34 us, this
    loop 0.8, 5 and 26 us (2-core x86-64 VM, Python 3.11)."""
    columns = list(zip(*points))
    powers: dict[tuple[int, int], list[int]] = {}
    out = {}
    for b in exponents:
        column = coefs
        for i, e in enumerate(b):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = list(map(pow, columns[i], repeat(e)))
                column = list(map(mul, column, powers[i, e]))
        out[b] = sum(column)
    return out


def _affine_sum(groups, spline, scale: int) -> tuple[dict, int]:
    """sum over groups (chamber, L, cs, coefs) of coef * p((c + scale L nu) / scale)
    as a polynomial in nu, for integer vectors c and coefs, p the chamber's
    polynomial (`kappa.Chamber`: integer numerators over the spline's
    degree-d monomials and one denominator): its nonzero integer numerators
    and one denominator, the lcm of the chambers' denominators times scale^d.

    With y = L nu, sum coef p(c / D + y) = sum_k y^k sum_m p_m binom(m, k)
    M_{m-k} / D^{d - |k|}, M_b = sum coef c^b the integer moments of the
    group (`_column_moments`).  Groups sharing an L are summed first, then
    composed with nu -> L nu once (skipped for the identity), in ints."""
    below = {m: list(product(*(range(e + 1) for e in m))) for m in spline.monomials}
    exponents = set().union(*below.values())
    den = math.lcm(*(chamber.den for chamber, *_ in groups))
    by_map: dict = {}
    for chamber, L, cs, coefs in groups:
        moments = _column_moments(cs, coefs, exponents)
        shifted = by_map.setdefault(L, {})
        for m, pm in zip(spline.monomials, chamber.numerators):
            for k in below[m] if pm else ():
                weight = math.prod(map(math.comb, m, k)) * scale ** sum(k) * (den // chamber.den)
                shifted[k] = shifted.get(k, 0) + pm * weight * moments[tuple(map(sub, m, k))]
    out: dict = {}
    for L, shifted in by_map.items():
        units = tuple(tuple(int(i == j) for j in range(len(L))) for i in range(len(L)))
        if L != units:
            shifted = poly_subs_affine(shifted, [dict(zip(units, row)) for row in L])
        for k, v in shifted.items():
            out[k] = out.get(k, 0) + int(v)
    return {k: v for k, v in out.items() if v}, den * scale**spline.degree


class PantsVolumePoly:
    """The pants volume as a function of the third marking mu3.

    Piecewise polynomial over the alcove.  A value at one mu3 is
    `pants_volume_kappa`'s rational, over mu3's own lattice ball, its
    support ball.  Wall tests and cell polynomials, which read a
    neighbourhood of mu3, take the fixed-marking argument arrays
    (`_kappa_arguments`) over the centred ball of the slots
    [mu1, mu2, NU], which holds the support ball of every mu3 of the
    alcove and is built on first use, and their chamber groups
    (`_chamber_groups`);
    the cell polynomial shifts each group's chamber polynomial to mu3
    (`_affine_sum`).
    """

    def __init__(self, rs: RootSystem, mu1: Vec, mu2: Vec):
        self.rs, self.mu1, self.mu2 = rs, mu1, mu2
        self.spline = kappa_build(rs, 1)
        self.fixed = _scaled([mu1, mu2])

    @cached_property
    def lattice(self) -> np.ndarray:
        return _lattice_ball(self.rs, NU, _support_radius(self.rs, self.fixed))

    def value_exact(self, mu3: Vec) -> Q:
        """Exact rational part, that of pants_volume_kappa."""
        return pants_volume_kappa(self.rs, self.mu1, self.mu2, mu3).exact["rational"]

    def value(self, mu3: Vec) -> float:
        return _normalized(self.rs, self.value_exact(mu3))

    def on_wall(self, mu3: Vec) -> bool:
        """True when some kappa argument sits on a wall that matters: a
        wall dot-product column of the argument array (`_kappa_arguments`)
        holds a zero.

        The rows with a strictly negative coordinate are already dropped:
        they are locally outside the support cone, where kappa vanishes
        identically, so wall coincidences there do not make mu3
        non-regular.
        """
        args = _kappa_arguments(self.rs, self.spline.config, self.fixed, [_scaled([mu3])],
                                [self.lattice])[0]
        return bool((args[:, self.rs.rank:] == 0).any())

    def polynomial_at(self, mu3: Vec) -> Poly:
        """Exact polynomial (rational part) on the cell containing mu3;
        OnWallError, before any chamber is built, when a kappa argument
        with no negative coordinate lies on a wall at mu3 (`on_wall`).

        Each argument is x = c + D mu3 at the scale D of the markings, so
        near mu3 the sum is that of coef * p((c + D nu) / D), the chambers
        grouped and built as `_kappa_sums` does."""
        rank = self.rs.rank
        args, coefs, (scale,), rows = _kappa_arguments(self.rs, self.spline.config, self.fixed,
                                                       [_scaled([mu3])], [self.lattice])
        order, starts, chambers, _, _ = _chamber_groups(self.spline, args, [scale], rows, [mu3])
        offsets = (args[order, :rank] - np.array(scaled(mu3, scale), dtype=args.dtype)).tolist()
        coefs, bounds = coefs[order].tolist(), [*starts.tolist(), len(order)]
        unit = tuple(map(tuple, np.eye(rank, dtype=np.int64).tolist()))
        groups = [(chamber, unit, offsets[lo:hi], coefs[lo:hi])
                  for chamber, lo, hi in zip(chambers, bounds, bounds[1:])]
        numerators, den = _affine_sum(groups, self.spline, scale)
        return {k: Q(_signed_center(self.rs) * v, den) for k, v in numerators.items()}


def pants_volume_poly(rs: RootSystem, mu1: Vec, mu2: Vec) -> PantsVolumePoly:
    return PantsVolumePoly(rs, mu1, mu2)


def mixed_characteristic_number(
    rs: RootSystem, mu1: Vec, mu2: Vec, mu3: Vec, p: SymmetricPoly
) -> float:
    """Apply the pulled-back symmetric polynomial to the volume function.

    p is symmetric in k = moduli_dimension variables; it is pulled back
    to a constant-coefficient operator in the r = rank coordinate
    derivatives (each e_l, l <= k <= |R+|, becomes the l-th elementary
    symmetric polynomial of the |R+| root-directional derivatives,
    `pullback_operator`), and applied to each chamber polynomial of
    `pants_volume_kappa`'s sum (`_sphere_sums` with the operator).  An
    e-monomial of weighted degree sum_l l m_l above the chamber degree
    |R+| - rank acts as zero, so it is dropped first.  When a kappa
    argument of that sum lies on a wall of kappa it raises OnWallError,
    before any chamber is built, even where the volume is one polynomial
    near mu3; arguments of the lattice points outside mu3's support ball,
    whose terms cancel exactly, are not read.
    """
    k = moduli_dimension(rs, Surface(0, 3))
    if p.nvars > max(k, 0):
        raise ValueError(f"polynomial uses e_l with l > complex dimension k={k}")
    kept = {m: c for m, c in p.terms.items()
            if sum(l * e for l, e in enumerate(m, start=1)) <= rs.n_positive - rs.rank}
    op = pullback_operator(rs, SymmetricPoly(kept, p.nvars))
    return _normalized(rs, _sphere_sums(rs, [mu1, mu2], [_scaled([mu3])], op=op)[0][0])


# ---------------------------------------------------------------------------
# toric decomposition
# ---------------------------------------------------------------------------


def _signed_pairs(rs: RootSystem, smu1: Vec, smu2: Vec) -> list[tuple[int, Vec]]:
    """(sign w1 sign w2, w1 smu1 + w2 smu2) for w1 and w2 in W, w1-major: the
    two markings scaled to ints by their common denominator D, imaged by
    the Weyl tensor and summed in one broadcast (int64 when |w x| <=
    weyl_norm max|x| keeps every sum below 2^62, Python ints above), each
    sum made Fractions over D once.  The kappa-sum's `_weyl_fold`, which
    this route checks, is not used."""
    mats, signs, weyl_norm = rs.weyl_array
    d = common_denominator(chain(smu1, smu2))
    ints = [scaled(smu1, d), scaled(smu2, d)]
    dtype = np.int64 if weyl_norm * sum(max(map(abs, m)) for m in ints) < 2**62 else object
    im1, im2 = (mats.astype(dtype) @ np.array(m, dtype=dtype) for m in ints)
    sums = (im1[:, None] + im2[None]).reshape(-1, rs.rank)
    return [(s, tuple(Q(x, d) for x in row))
            for s, row in zip(np.outer(signs, signs).ravel().tolist(), sums.tolist())]


def _toric_kappa(rs: RootSystem, config, xi: Vec) -> Q:
    """kappa(xi) relative to coordinate Lebesgue, for one toric term: 0
    outside the support cone (a negative coordinate), the truncated-power
    recurrence (`VectorConfig.truncated_power`) off the walls, and the
    fiber-polytope volume (`kappa_point`) on them, which raises
    OnWallError at degree 0, where kappa jumps."""
    if any(c < 0 for c in xi):
        return Q(0)
    try:
        return config.truncated_power(xi)
    except OnWallError:
        return kappa_point(rs, xi).rational


def toric_decomposition(
    rs: RootSystem,
    mu1: Vec,
    mu2: Vec,
    tau: Vec,
    radius_sq: Q | None = None,
) -> tuple[list[SignedToricTerm], VolumeReport]:
    """Signed sum of toric reduced-space volumes over affine Weyl images.

    Terms are (-1)^{len(w w1 w2)} (#Z/Vol T) kappa(-shift) with
    shift = -w1(*mu1) - w2(*mu2) + w(tau), w ranging over the affine Weyl
    representatives x -> w_u x + t mapping the alcove into the dominant
    chamber (`enumerate_waff_positive`), w1 and w2 over W, w1-major.  The
    |W|^2 signed pairs w1(*mu1) + w2(*mu2) are made once per call, by one
    int broadcast over the Weyl tensor (`_signed_pairs`).  Each term's
    kappa is read from the vectors alone (`_toric_kappa`): by the
    truncated-power recurrence off the walls and by the fiber-polytope
    volume on them, never from the vertex-formula spline that the
    kappa-sum reads.  Nonzero terms require |w(tau)| <= |mu1| + |mu2|,
    which the default radius provably covers.
    """
    bound_sq = 2 * (rs.norm_sq(mu1) + rs.norm_sq(mu2))  # (b - 1) sum_{j<b} |mu_j|^2
    provable = 2 * rs.norm_sq(tau) + 2 * bound_sq
    requested = provable if radius_sq is None else radius_sq
    weyl = rs.weyl_elements()
    config = kappa_build(rs).config
    pairs = _signed_pairs(rs, star(rs, mu1), star(rs, mu2))
    terms: list[SignedToricTerm] = []
    total = Q(0)
    for u, t in zip(*(a.tolist() for a in enumerate_waff_positive(rs, requested))):
        w = weyl[u]
        wtau = vadd(w.act(tau), t)
        if rs.norm_sq(wtau) > bound_sq:
            continue
        for s, pair in pairs:
            kappa = _toric_kappa(rs, config, vsub(pair, wtau))
            if kappa == 0:
                continue
            sign = w.sign * s
            rational = sign * rs.center_order * kappa
            total += rational
            terms.append(SignedToricTerm(sign=sign, shift=vsub(wtau, pair),
                                         value=_normalized(rs, rational), rational=rational))
    return terms, _exact_report(rs, "toric-decomposition", total, {
        "radius_sq": requested,
        "provable_radius_sq": provable,
        "truncation_warning": radius_sq is not None and radius_sq < provable,
        "terms": len(terms),
    })


# ---------------------------------------------------------------------------
# conjugacy-class volumes and the character series
# ---------------------------------------------------------------------------


def _sine_product(rs: RootSystem, mu: Vec) -> float:
    out = 1.0
    for a in rs.positive_roots:
        out *= 2.0 * math.sin(math.pi * float(rs.ip(a, mu)))
    return out


def conjugacy_volume(rs: RootSystem, mu: Vec) -> float:
    """Riemannian volume of the conjugacy class through exp(mu).

    Vol(C_mu) = (Vol G / Vol T) * prod_{a>0} (2 sin pi<a,mu>)^2 with
    Vol T = (2 pi)^rank * covol; the squared sine power is fixed by the
    hand-computed SU(2) equatorial 2-sphere area 8*pi at t = 1/2.
    """
    kind, _ = alcove_membership(rs, mu)
    if kind != "interior":
        raise ValueError(f"conjugacy volume needs a regular (interior) point, got {kind}")
    vol_t = (2 * math.pi) ** rs.rank * covolume_T(rs)
    return volume_G(rs) / vol_t * _sine_product(rs, mu) ** 2


def witten_volume(
    rs: RootSystem,
    surface: Surface,
    marking: Marking,
    casimir_cutoff=None,
    eps_schedule: list[float] | None = None,
    weight_count: int | None = None,
) -> VolumeReport:
    """Moduli-space volume by the dominant-weight character series.

    For b >= 1 the resolved convention stamp applies (boundary sine
    product to the first power, covol/rho-product prefactor); closed
    surfaces use #Z Vol(G)^{2h-2} sum d^{-(2h-2)}.  Exponent-one series
    are heat-kernel damped over eps_schedule and extrapolated to zero;
    absolutely convergent series use partial-sum extrapolation in 1/N.
    A given eps_schedule needs at least two distinct positive, finite
    epsilons: with one node the extrapolation would be its own residual.
    A marking point that is not regular (on an alcove wall) raises
    OnWallError.  weight_count is at most MAX_WEIGHTS.
    """
    h, b = surface.genus, surface.boundary
    if 2 * h + b < 3:
        raise ValueError("character series requires 2h + b >= 3")
    if len(marking) != b:
        raise ValueError(f"marking length {len(marking)} != boundary count {b}")
    if eps_schedule is not None and (
        len(set(eps_schedule)) < 2 or not all(0 < e < math.inf for e in eps_schedule)
    ):
        raise ValueError(
            f"epsilon schedule {list(eps_schedule)} needs at least two distinct "
            "positive, finite nodes"
        )
    if (weight_count or 0) > MAX_WEIGHTS:  # checked before the weight box is allocated
        raise ValueError(f"weight count {weight_count} is above {MAX_WEIGHTS}")
    p = surface.euler_weight
    casimir_cutoff, qnorm, dims, char_product = series_table(
        rs, marking.points, casimir_cutoff, weight_count)
    series = np.real(dims ** (-float(p)) * char_product)

    if b >= 1:
        prefactor = (
            rs.center_order
            * covolume_T(rs) ** (2 * h - 2)
            * ((2 * math.pi) ** rs.n_positive * float(rho_product(rs))) ** (-p)
        )
        for mu in marking.points:
            prefactor *= _sine_product(rs, mu)
    else:
        prefactor = rs.center_order * volume_G(rs) ** (2 * h - 2)

    if eps_schedule is None and p <= 1:
        eps_schedule = default_eps_schedule(float(qnorm.max()))

    # the nodes xs, their partial sums, and the value the extrapolation to
    # 0 is compared against for the residual
    if eps_schedule:
        xs = list(eps_schedule)
        # the damping must have killed the truncation boundary, otherwise
        # no Cauchy criterion can certify the enumerated sum
        boundary = math.exp(-min(xs) * float(qnorm.max()))
        if boundary > 1e-3:
            raise ConvergenceError(
                f"damping at the cutoff is only {boundary:.3g}; raise the "
                "Casimir cutoff or the smallest epsilon"
            )
        partials = [float(np.add.reduce(series * np.exp(-e * qnorm))) for e in xs]
        reference = _neville(xs[:-1], partials[:-1], 0.0) if len(xs) > 2 else partials[-1]
        params = {"eps_schedule": xs}
    else:
        counts = sorted(
            {c for c in (len(qnorm), len(qnorm) // 2, len(qnorm) // 4) if c > 0},
            reverse=True,
        )
        xs = [1.0 / c for c in counts]
        partials = [float(np.add.reduce(series[:c])) for c in counts]
        reference = partials[0]  # the full sum
        params = {"eps_schedule": None, "tail_extrapolation": "richardson-in-1/N"}
    total = _neville(xs, partials, 0.0)  # with one node, partials[0]
    residual = abs(total - reference)
    params.update(casimir_cutoff=str(casimir_cutoff), weights=len(qnorm),
                  extrapolation_residual=residual, surface={"genus": h, "boundary": b})

    value = prefactor * total
    if residual > 0.05 * abs(total) + 1e-12:
        raise ConvergenceError(
            f"series extrapolation residual {residual} too large for total {total}"
        )
    # nor may the largest epsilon damp even the lowest weight below the
    # cutoff guard's 1e-3: every partial sum is then about 0, and so are the
    # total and the residual, which passes the test above
    if eps_schedule and (lowest := math.exp(-max(eps_schedule) * float(qnorm.min()))) < 1e-3:
        raise ConvergenceError(
            f"the largest epsilon damps even the lowest weight to {lowest:.3g}; "
            "lower the largest epsilon"
        )
    return VolumeReport(value=value, method="witten-series", parameters=params,
                        stamp=convention_stamp(rs))


EPS_NODES = 4  # epsilons in a heat-kernel schedule
MAX_WEIGHTS = 100_000  # the cutoff search boxes up to 51x as many weights (D4 series: 69 MB peak)


def _neville(xs, ys, x):
    """Value at x of the polynomial through the points (xs, ys)."""
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            vals[i] = (
                (x - xs[i + level]) * vals[i] - (x - xs[i]) * vals[i + 1]
            ) / (xs[i] - xs[i + level])
    return vals[0]


def default_eps_schedule(max_qnorm: float) -> list[float]:
    """Geometric schedule with the damping at the cutoff below 1e-8."""
    eps_min = 18.0 / max_qnorm
    return [eps_min * 2.0 ** (EPS_NODES - 1 - k) for k in range(EPS_NODES)]


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def glue_volume(rs: RootSystem, surface: Surface, marking: Marking) -> VolumeReport:
    """Volume by the alcove gluing integral over a pants decomposition.

    Supported decompositions, for rank <= 2: (h=1, b=1) as a self-glued
    pants and (h=0, b=4) as two pants glued along one circle
    (disconnected pieces, so the 1/#Z factor applies).  The measure |dnu|
    gives t modulo the weight lattice mass one; in root coordinates it is
    sqrt(det Gram * det coroot Gram) times Lebesgue, the inverse of the
    pants normalization.  The integrand is piecewise polynomial and is
    integrated exactly by a walk along the alcove's edges and the lines
    across which it jumps, one arrangement of those lines, each facet's
    cone integral taken along its line (`gluing.alcove_integral`), so the
    value is a rational times the stamped normalization: 1 for (1,1) and
    that of the four-marked kappa-sum for (0,4).  `cells` counts the
    pieces those lines cut the alcove into.
    """
    h, b = surface.genus, surface.boundary
    if len(marking) != b:
        raise ValueError(f"marking length {len(marking)} != boundary count {b}")
    m = marking.points
    if (h, b) == (1, 1):
        slots, kfac = [[m[0], STAR_NU, NU]], Q(1)
    elif (h, b) == (0, 4):
        slots, kfac = [[m[0], m[1], NU], [m[2], m[3], STAR_NU]], Q(1, rs.center_order)
    else:
        raise UnsupportedDecompositionError(
            f"no supported pants decomposition for genus {h}, boundary {b}"
        )
    if rs.rank > 2:
        raise UnsupportedDecompositionError("gluing integrals support rank <= 2")
    from .gluing import AlcoveFactor, alcove_integral  # loaded on first use

    integral, cells = alcove_integral(rs, [AlcoveFactor(rs, s) for s in slots])
    return _exact_report(rs, "gluing-integral", kfac * integral,
                         {"integration": "exact-cells", "cells": cells,
                          "surface": {"genus": h, "boundary": b}},
                         normalize=len(slots) == 2)
