"""Correctness checks shared by the workloads.

Each check returns None when the output is right and a one-line reason
when it is not, so a workload can collect every failure of a run.  The
expected values come from an independent route of the program or from a
closed form computed here, never from a stored copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

SERIES_REL_TOL = 1e-3  # character series vs kappa-sum (acceptance criterion 3)
FD_ABS_TOL = 1e-6  # operator route vs finite differences (criterion 6)
GLUE_SERIES_REL_TOL = 1e-3  # A1 gluing vs the series (criterion 7)
GLUE_KAPPA_ABS_TOL = 1e-6  # A1 gluing vs the four-marked kappa-sum (criterion 7)
GLUE_RANK2_REL_TOL = 1e-6  # rank-2 gluing vs the four-marked kappa-sum
KS_MAX = 0.01  # oracle shape statistic at 10^6 samples (criterion 2)


def exact_equal(label: str, got: Fraction, want: Fraction) -> str | None:
    if got != want:
        return f"{label}: {got} != {want}"
    return None


def nonnegative(label: str, got: Fraction) -> str | None:
    if got < 0:
        return f"{label}: negative volume {got}"
    return None


def su2_region_law(t1: Fraction, t2: Fraction, t3: Fraction, value: float) -> str | None:
    """SU(2) pants volume: 1 on |t1-t2| < t3 < min(t1+t2, 2-t1-t2), else 0."""
    inside = abs(t1 - t2) < t3 < min(t1 + t2, 2 - t1 - t2)
    want = 1.0 if inside else 0.0
    if abs(value - want) > 1e-12:
        return f"A1 region law at t=({t1}, {t2}, {t3}): {value} != {want}"
    return None


def relative_close(label: str, got: float, want: float, tol: float) -> str | None:
    scale = max(abs(want), 1e-300)
    if not math.isfinite(got) or abs(got - want) > tol * scale:
        return f"{label}: {got} vs {want} (relative {abs(got - want) / scale:.3g} > {tol})"
    return None


def absolute_close(label: str, got: float, want: float, tol: float) -> str | None:
    if not math.isfinite(got) or abs(got - want) > tol:
        return f"{label}: {got} vs {want} (difference {abs(got - want):.3g} > {tol})"
    return None


def ks_below(label: str, stat) -> str | None:
    if stat is None or not stat < KS_MAX:
        return f"{label}: KS statistic {stat} not below {KS_MAX}"
    return None


def scan_rows(label: str, rows: list[list[str]], expected_points: list[str]) -> str | None:
    """Rows in sample order, one per expected point, each with an exact value."""
    if [r[0] for r in rows] != expected_points:
        return f"{label}: sample column is not the scan line in order"
    for r in rows:
        if len(r) != 4 or r[2] != "kappa-sum":
            return f"{label}: malformed row {r}"
        if r[1] != "wall" and Fraction(r[3]) < 0:
            return f"{label}: negative volume in row {r}"
    return None


def parse_scan_csv(text: str, rank: int) -> list[list[str]]:
    """[point, value, method, exact] per row; the point spans `rank` fields."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "mu3_weight_coords,value,method,exact_rational":
        raise ValueError("scan CSV header missing")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        rows.append([",".join(fields[:rank])] + fields[rank:])
    return rows
