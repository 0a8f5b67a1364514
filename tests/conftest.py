"""Shared helpers: seeded rational alcove points with wall margins,
coroot-lattice vectors from their coefficients, the digest of the
chambers that CLI commands build, and sentinels that keep a route out of
the internals of the code it checks.  Also puts the checkout's src on
PYTHONPATH for the child processes that tests start."""

from __future__ import annotations

import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

from flatvol import build_root_system, characters, gluing, kappa, liecore, moduli
from flatvol.exact import vec
from flatvol.kappa import PiecewisePolynomial, VectorConfig

# pyproject's `pythonpath` puts src on this process's path only; the child
# Pythons that tests start (the CLI, `python -c` scripts) inherit the
# environment, so the checkout's src goes on PYTHONPATH for them too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


_CHAMBERS_SCRIPT = """
import contextlib, hashlib, io, json, sys
from flatvol import build_root_system, kappa_build
from flatvol.cli import main
group, argvs = json.loads(sys.argv[1])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(argv) for argv in argvs]
dump = json.dumps(kappa_build(build_root_system(group)).to_json_dict(), indent=1, sort_keys=True)
print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                  "chambers": hashlib.sha256(dump.encode()).hexdigest()}))
"""


def run_for_chambers(group: str, *argvs: list[str], timeout=300) -> SimpleNamespace:
    """Run `flatvol.cli.main` on each argv in turn in a fresh Python and
    return the exit codes, the stdout of the runs, their stderr, and the
    sha256 of `group`'s kappa chambers that the runs leave built: of
    `json.dumps(to_json_dict(), indent=1, sort_keys=True)`, in the order
    in which the chambers were first reached."""
    r = subprocess.run([sys.executable, "-c", _CHAMBERS_SCRIPT, json.dumps([group, argvs])],
                       capture_output=True, text=True, timeout=timeout)
    assert r.returncode == 0, r.stderr
    return SimpleNamespace(stderr=r.stderr, **json.loads(r.stdout))


def forbid(monkeypatch, owner, *names: str) -> None:
    """Replace each named function, method or (cached) property of the
    module or class `owner` by a sentinel that raises AssertionError when
    it is called or read, for the rest of the test."""
    def sentinel(label):
        def raise_(*args, **kwargs):
            raise AssertionError(f"{label} is forbidden here")
        return raise_

    for name in names:
        raise_ = sentinel(f"{owner.__name__}.{name}")
        kind = type(inspect.getattr_static(owner, name))
        monkeypatch.setattr(owner, name,
                            property(raise_) if kind in (property, cached_property) else raise_)


# every kappa-sum, spline, toric and gluing path, as `forbid` takes them:
# what the character series checks, and so must not read; kappa_build
# and kappa_point both where kappa defines them and where moduli imports them
SERIES_FORBIDDEN = [
    (moduli, ["_sphere_sums", "_kappa_sums", "_kappa_arguments", "_weyl_fold", "_chamber_groups",
              "_moments", "_lattice_ball", "_support_radius", "_affine_sum", "_toric_kappa",
              "_signed_pairs", "toric_decomposition", "sphere_volume_kappa", "glue_volume",
              "kappa_build", "kappa_point"]),
    (kappa, ["kappa_build", "kappa_point"]),
    (VectorConfig, ["vertex_arrays", "vertex_table", "power_program", "truncated_power",
                    "_power_recurrences", "density"]),
    (PiecewisePolynomial, ["chamber_at", "chambers_at", "_build", "_vertex_sums",
                           "_passes_checks"]),
    (liecore, ["enumerate_waff_positive"]),
    (liecore.RootSystem, ["coroot_balls"]),
    (gluing, ["AlcoveFactor"]),
]

# the Monte-Carlo histogram checks the series as well: those paths, the
# series, `series_table` where characters defines it and where moduli
# imports it, and the character code below it
ORACLE_FORBIDDEN = [
    *SERIES_FORBIDDEN,
    (moduli, ["witten_volume", "series_table"]),
    (characters, ["series_table", "character_tables", "character_eval", "enumerate_dominant",
                  "_cutoff_and_weights", "_shifted_norms", "_weight_gram", "_coroot_pairings",
                  "_box_axes", "_power_tables", "_box_sums", "_khatri_rao", "_weyl_loop"]),
]


def rational_alcove_point(rs, rng: random.Random, denom: int = 40, margin=Q(1, 20)):
    """Random rational interior alcove point with <alpha, mu> in
    [margin, 1 - margin] for every positive root."""
    while True:
        coords = vec([Q(rng.randint(1, denom - 1), denom) for _ in range(rs.rank)])
        mu = rs.from_weight_coords(coords)
        pairings = [rs.ip(a, mu) for a in rs.positive_roots]
        if all(margin <= p <= 1 - margin for p in pairings):
            return mu


def rational_triple(rs, rng: random.Random, denom: int = 40, margin=Q(1, 20)):
    return tuple(rational_alcove_point(rs, rng, denom, margin) for _ in range(3))


def coroot_vector(rs, coeffs):
    """The coroot-lattice vector with the given coroot-basis coefficients."""
    return tuple(sum(c * b[j] for c, b in zip(coeffs, rs.coroot_basis)) for j in range(rs.rank))


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G2")
