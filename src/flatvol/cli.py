"""Command-line surface: compute, scan, compare, and export volumes.

Marking coordinates are exact rationals in the fundamental-weight basis
("1/4,1/5"); rank-1 groups accept the scalar convenience form t with
<alpha, mu> = t.  Every numeric output carries the convention stamp, and
identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 wall/regularity error,
4 convergence failure, 141 a stdout closed by its reader (`main`).
Markings outside the closed alcove, an option given '--' as its value
and an --out path that cannot be written are usage errors; a directory
--out, or one in a missing directory, is refused before any work.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import stat
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from operator import mul

import numpy as np

from .exact import Q, Vec, common_denominator, scaled
from .kappa import OnWallError, SymmetricPoly
from .liecore import RootSystem, alcove_membership, build_root_system, covolume_T, volume_G
from .mc import MAX_CELLS, model_grid, product_class_histogram, shape_compare
from .moduli import (
    EPS_NODES,
    MAX_WEIGHTS,
    NU,
    ConvergenceError,
    Marking,
    Surface,
    _normalized,
    _sphere_sums,
    convention_stamp,
    glue_volume,
    mixed_characteristic_number,
    moduli_dimension,
    pants_volume_kappa,
    toric_decomposition,
    witten_volume,
)

USAGE_ERROR, WALL_ERROR, CONVERGENCE_ERROR = 2, 3, 4
BROKEN_PIPE = 128 + 13  # the status of a process that SIGPIPE ends
# a scan holds every row's point, in ints, and lattice ball before its
# first pass, about 0.5 KB a row for A2 and B2 (0.65 KB while the balls are
# tested), so the cap bounds that to about 65 MB
MAX_STEPS = 100_000


class UsageError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    """The rational a command-line number spells; a zero denominator is a
    usage error naming the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"rational {text!r} has a zero denominator") from None


def parse_marking(rs: RootSystem, text: str) -> Vec:
    """Parse exact fundamental-weight coordinates of a point of the closed
    alcove, echoing no floats."""
    parts = text.split(",")
    if len(parts) != rs.rank:
        raise UsageError(
            f"marking {text!r} needs {rs.rank} comma-separated rationals"
        )
    mu = rs.from_weight_coords(map(parse_rational, parts))
    if alcove_membership(rs, mu)[0] == "outside":
        raise UsageError(f"marking {text!r} lies outside the closed alcove")
    return mu


def marking_echo(rs: RootSystem, mu: Vec) -> str:
    return ",".join(str(c) for c in rs.to_weight_coords(mu))


def _float_str(x: float) -> str:
    return repr(float(x))


def _write(text: str, out_path: str | None) -> None:
    """Write text and a newline to the file out_path, or to stdout; a path
    that cannot be written is a usage error."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text + "\n")


def _check_out(out_path: str) -> None:
    """Refuse, before any work, an --out path that `_write` could not open
    because it is a directory or its directory is missing or not one, with
    the reason open() would give.  Creates no file; `_write` still maps
    what fails only at write time."""
    try:
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(out_path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


def _print_json(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, indent=1, sort_keys=True), out_path)


def _write_csv(rows: list[list[str]], header: list[str], out_path: str | None,
               stamp: dict) -> None:
    lines = ["# " + json.dumps(stamp, sort_keys=True), ",".join(header)]
    _write("\n".join(lines + [",".join(r) for r in rows]), out_path)


# -- subcommands -------------------------------------------------------------


def cmd_roots(rs: RootSystem, args) -> None:
    dump = {
        "group": rs.spec.name,
        "rank": rs.rank,
        "cartan_matrix": [[int(x) for x in row] for row in rs.cartan_matrix],
        "gram_matrix": [[str(x) for x in row] for row in rs.gram],
        "simple_roots": [[str(c) for c in r] for r in rs.simple_roots],
        "positive_roots": [[str(c) for c in r] for r in rs.positive_roots],
        "highest_root": [str(c) for c in rs.highest_root],
        "fundamental_weights": [[str(c) for c in w] for w in rs.fundamental_weights],
        "coroot_basis": [[str(c) for c in w] for w in rs.coroot_basis],
        "alcove_vertices": [[str(c) for c in v] for v in rs.alcove.vertices],
        "center_order": rs.center_order,
        "weyl_order": len(rs.weyl_elements()),
        "covolume_T": covolume_T(rs),
        "volume_G": volume_G(rs),
        "stamp": convention_stamp(rs),
    }
    _print_json(dump, args.out)


def _volume_reports(rs, m1, m2, m3, method, args):
    reports = {}
    if method in ("kappa", "all"):
        reports["kappa"] = pants_volume_kappa(rs, m1, m2, m3)
    if method in ("toric", "all"):
        _, rep = toric_decomposition(rs, m1, m2, m3)
        reports["toric"] = rep
    if method in ("witten", "all"):
        marking = Marking.of(rs, [m1, m2, m3])
        schedule = None
        if args.eps0 is not None:
            schedule = [args.eps0 / 2**k for k in range(EPS_NODES)]
        reports["witten"] = witten_volume(
            rs,
            Surface(0, 3),
            marking,
            weight_count=args.weights,
            eps_schedule=schedule,
        )
    return reports


def cmd_volume(rs: RootSystem, args) -> None:
    if (args.weights or 0) > MAX_WEIGHTS:
        raise UsageError(f"--weights {args.weights} is above the cap of {MAX_WEIGHTS} weights")
    m1, m2, m3 = (parse_marking(rs, t) for t in (args.mu1, args.mu2, args.mu3))
    reports = _volume_reports(rs, m1, m2, m3, args.method, args)
    out = {
        "group": rs.spec.name,
        "markings": [marking_echo(rs, m) for m in (m1, m2, m3)],
        "reports": {k: r.to_json_dict() for k, r in reports.items()},
    }
    if args.method == "all":
        vals = {k: r.value for k, r in reports.items()}
        deviations = {}
        keys = sorted(vals)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                scale = max(abs(vals[a]), abs(vals[b]), 1e-300)
                deviations[f"{a}-vs-{b}"] = abs(vals[a] - vals[b]) / scale
        out["pairwise_relative_deviation"] = deviations
    _print_json(out, args.out)


def _line_rows(a: Vec, b: Vec, n: int) -> list[tuple[int, list[list[int]]]]:
    """The n + 1 points a + (j / n)(b - a), j = 0..n (a alone when n = 0),
    in ints, as the kappa-sum takes its last markings (`moduli._scaled`):
    (D, [x]) with x = D times the point and D its least denominator.  Each
    is placed over the common denominator d of a and b times n, and
    reduced by one gcd."""
    d, m = common_denominator(a + b), max(n, 1)
    x, y = scaled(a, d), scaled(b, d)
    steps, den = [v - u for u, v in zip(x, y)], d * m
    rows = []
    for j in range(n + 1):
        p = [u * m + j * s for u, s in zip(x, steps)]
        g = math.gcd(den, *p)
        rows.append((den // g, [[c // g for c in p]]))
    return rows


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, from one gcd."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)


def cmd_scan(rs: RootSystem, args) -> None:
    """The pants volume at n + 1 evenly spaced third markings of a line, in
    kappa-sum passes over consecutive rows (`moduli._sphere_sums`, as
    `pants_volumes_exact` takes them), whose chambers are built as
    row-by-row volumes would build them.  The rows are placed in ints
    (`_line_rows`), and a row's label is read from the same ints: its
    weight coordinates C x / D (`RootSystem.int_weights`), which
    interpolate the endpoints' parsed ones exactly and equal the echo of
    its marking."""
    if args.steps > MAX_STEPS:
        raise UsageError(f"--steps {args.steps} is above the cap of {MAX_STEPS} steps")
    m1, m2 = parse_marking(rs, args.mu1), parse_marking(rs, args.mu2)
    start_txt, _, end_txt = args.along.partition(":")
    if not end_txt:
        raise UsageError("--along needs the form START:END in weight coordinates")
    start, end = (parse_marking(rs, t) for t in (start_txt, end_txt))
    lines = _line_rows(start, end, args.steps)
    rationals = _sphere_sums(rs, [m1, m2], lines)[0]
    cartan = rs.int_weights[2]
    rows = []
    for (den, (x,)), rational in zip(lines, rationals):
        label = ",".join(_ratio_text(sum(map(mul, row, x)), den) for row in cartan)
        if rational is None:
            rows.append([label, "wall", "kappa-sum", "wall"])
        else:
            rows.append([label, _float_str(_normalized(rs, rational)), "kappa-sum", str(rational)])
    del lines, rationals  # the text is written without them
    header = ["mu3_weight_coords", "value", "method", "exact_rational"]
    _write_csv(rows, header, args.out, stamp=convention_stamp(rs))


_SYM_TERM = re.compile(r"[+-]?[^+-]+")
_SYM_FACTOR = re.compile(r"(?:(\d+(?:/\d+)?)|e(\d+)(?:\^(\d+))?)")


def _parse_sym_poly(text: str, k: int) -> SymmetricPoly:
    """Parse '1', '-e1', 'e1^2+e2', '3*e1*e2 - 1/2*e3' into the e-basis.

    The text is a signed sum of '*'-products; a factor is a plain
    rational, e<i> or e<i>^<n> with n a nonnegative integer.  Anything
    else is a usage error."""
    compact = text.replace(" ", "")
    terms: dict[tuple[int, ...], Fraction] = {}
    nvars = max(k, 0)
    if not compact or "".join(_SYM_TERM.findall(compact)) != compact:
        raise UsageError(f"cannot parse --poly {text!r}")
    for term in _SYM_TERM.findall(compact):
        coeff = Fraction(-1 if term[0] == "-" else 1)
        expo = [0] * nvars
        for factor in term.lstrip("+-").split("*"):
            match = _SYM_FACTOR.fullmatch(factor)
            if match is None:
                raise UsageError(f"cannot parse factor {factor!r} of --poly {text!r}")
            number, index, power = match.groups()
            if number is not None:
                coeff *= parse_rational(number)
                continue
            idx = int(index)
            if k <= 0:
                raise UsageError(f"--poly {text!r}: complex dimension {k} allows only constants")
            if not 1 <= idx <= nvars:
                raise UsageError(f"--poly {text!r}: e{idx} exceeds the complex dimension {k}")
            expo[idx - 1] += int(power) if power else 1
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return SymmetricPoly(terms, nvars)


def cmd_chern(rs: RootSystem, args) -> None:
    m1, m2, m3 = (parse_marking(rs, t) for t in (args.mu1, args.mu2, args.mu3))
    k = moduli_dimension(rs, Surface(0, 3))
    p = _parse_sym_poly(args.poly, k)
    value = mixed_characteristic_number(rs, m1, m2, m3, p)
    out = {
        "group": rs.spec.name,
        "markings": [marking_echo(rs, m) for m in (m1, m2, m3)],
        "polynomial": args.poly,
        "complex_dimension": k,
        "value": value,
        "stamp": convention_stamp(rs),
    }
    _print_json(out, args.out)


def _a1_model_values(rs: RootSystem, m1: Vec, m2: Vec, bins: int) -> np.ndarray:
    """vol(m1, m2, t) at the points t of `model_grid(bins)`, each read as
    tq, the closest fraction of denominator at most 2^20.

    The A1 volume is constant between the breakpoints, where a kappa
    argument of the gluing factor meets its wall: one kappa-sum per cell,
    at its first grid point, and 0.0 on a breakpoint and off (0, 1).  tq is
    nondecreasing along the grid, so the grid indices at which it passes 0,
    1 or a breakpoint are found by bisection, with O(log bins) fractions
    per breakpoint, and the values are constant between them.
    """
    from .gluing import AlcoveFactor  # loaded on first use

    lines = AlcoveFactor(rs, [m1, m2, NU]).lines
    breaks = sorted(rs.to_weight_coords((Q(-k, a),))[0] for a, k in lines)
    grid = model_grid(bins)

    def tq(k: int) -> Fraction:
        return Fraction(grid[k]).limit_denominator(1 << 20)

    def vol(t: Fraction) -> float:
        if not 0 < t < 1 or t in breaks:
            return 0.0
        return pants_volume_kappa(rs, m1, m2, rs.from_weight_coords((t,))).value

    ks = range(len(grid))
    cuts = {0, len(grid), bisect_right(ks, 0, key=tq), bisect_left(ks, 1, key=tq)}
    for b in breaks:
        cuts.update((bisect_left(ks, b, key=tq), bisect_right(ks, b, key=tq)))
    edges = sorted(cuts)
    values = np.empty(len(grid))
    for lo, hi in zip(edges, edges[1:]):
        values[lo:hi] = vol(tq(lo))
    return values


def cmd_oracle(rs: RootSystem, args) -> None:
    if args.bins**rs.rank > MAX_CELLS:  # bins cells for A1, bins^2 for A2
        raise UsageError(f"--bins {args.bins} makes more than {MAX_CELLS} histogram cells")
    m1, m2 = parse_marking(rs, args.mu1), parse_marking(rs, args.mu2)
    hist = product_class_histogram(
        rs, m1, m2, bins=args.bins, n_samples=args.samples, seed=args.seed
    )
    if rs.spec.name == "A1":
        try:
            stat = shape_compare(hist, _a1_model_values(rs, m1, m2, args.bins))
        except ValueError:
            stat = None  # degenerate markings: volume vanishes a.e.
        rows = [
            [str(i), _float_str(hist.edges[i]), _float_str(hist.edges[i + 1]),
             str(int(c))]
            for i, c in enumerate(hist.counts)
        ]
        header = ["bin", "lo", "hi", "count"]
    else:
        stat = None
        rows = [[str(i), str(int(c))] for i, c in enumerate(hist.counts)]
        header = ["bin", "count"]
    _write_csv(rows, header, args.out, stamp=convention_stamp(rs, seed=args.seed))
    sidecar = {
        "group": rs.spec.name,
        "markings": [marking_echo(rs, m) for m in (m1, m2)],
        "samples": args.samples,
        "seed": args.seed,
        "bins": args.bins,
        "ks_statistic_vs_kappa": stat,
        "stamp": convention_stamp(rs),
    }
    side_path = (args.out + ".json") if args.out else None
    _print_json(sidecar, side_path)


def cmd_glue(rs: RootSystem, args) -> None:
    try:
        h_txt, b_txt = args.surface.split(",")
        surface = Surface(int(h_txt), int(b_txt))
    except ValueError as exc:
        raise UsageError(f"cannot parse --surface {args.surface!r}: h,b") from exc
    points = [parse_marking(rs, t) for t in args.marking]
    rep = glue_volume(rs, surface, Marking.of(rs, points))
    out = {
        "group": rs.spec.name,
        "surface": {"genus": surface.genus, "boundary": surface.boundary},
        "markings": [marking_echo(rs, m) for m in points],
        "report": rep.to_json_dict(),
    }
    _print_json(out, args.out)


# -- entry point ---------------------------------------------------------------


def _positive_float(text: str) -> float:
    x = float(text)
    if not 0 < x < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return x


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return n


def _attach_poly_values(argv: list[str]) -> list[str]:
    """Join '--poly VALUE' into '--poly=VALUE': argparse reads a separate
    value that starts with '-', such as '-e1', as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--poly":
            out[-1] = f"--poly={arg}"
        else:
            out.append(arg)
    return out


@cache  # built once per process: the parser does not change between calls
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatvol",
        description="Volumes of moduli of flat connections on surfaces.",
    )
    ap.add_argument("--threads", type=int, default=1,
                    help="ignored: a scan computes its rows in batched passes, in one thread")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="dump root-system data as JSON")
    p.add_argument("group")
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("volume", help="three-holed-sphere volume")
    p.add_argument("group")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("mu3")
    p.add_argument("--method", choices=["kappa", "witten", "toric", "all"],
                   default="kappa")
    p.add_argument("--weights", type=_positive_int, default=None,
                   help="dominant-weight count for the character series")
    p.add_argument("--eps0", type=_positive_float, default=None,
                   help="largest heat-kernel epsilon of a geometric schedule "
                        f"of {EPS_NODES} nodes, each half the last")
    p.add_argument("--out")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("scan", help="scan the volume along a mu3 line (CSV)")
    p.add_argument("group")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--along", required=True, help="START:END in weight coordinates")
    p.add_argument("--steps", type=_nonnegative_int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("chern", help="mixed characteristic number")
    p.add_argument("group")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("mu3")
    p.add_argument("--poly", required=True, help="symmetric polynomial, e.g. e1 or e1^2+e2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("oracle", help="Monte-Carlo product-class histogram")
    p.add_argument("group", choices=["A1", "A2"])
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--samples", type=_positive_int, default=10**5)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--bins", type=_positive_int, default=256)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("glue", help="volume by an alcove gluing integral")
    p.add_argument("group")
    p.add_argument("--surface", required=True, help="h,b (supported: 1,1 and 0,4)")
    p.add_argument("marking", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_glue)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (module docstring).  When
    the reader of stdout has closed it, as `| head` does, the command ends
    quietly with BROKEN_PIPE (141, as a shell reports a process that
    SIGPIPE ends): no traceback, and the output left unwritten is dropped.
    No signal handler is set, so an in-process caller is unaffected."""
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_poly_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        bare = [name for name, value in vars(args).items() if value == []]
        if bare:  # argparse reads '--poly=--', and so '--poly --', as an empty list
            raise UsageError(f"--{bare[0]} needs a value")
        if args.out:
            _check_out(args.out)
            if args.func is cmd_oracle:
                _check_out(args.out + ".json")  # its sidecar
        args.func(build_root_system(args.group), args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:  # stdout goes to devnull, so the last flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except OnWallError as exc:
        sys.stderr.write(f"wall error: {exc}\n")
        return WALL_ERROR
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return CONVERGENCE_ERROR
    except ValueError as exc:  # usage, unsupported type and decomposition errors
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(ap.format_usage())
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
