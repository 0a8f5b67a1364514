import argparse
import ast
import hashlib
import importlib
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flatvol import (
    build_root_system,
    kappa_build,
    pants_volume_kappa,
    product_class_histogram,
    sphere_volume_kappa,
)
from flatvol.cli import (
    MAX_STEPS, _a1_model_values, _line_rows, _parse_sym_poly, build_parser, main, parse_marking,
)
from flatvol.kappa import OnWallError
from flatvol.mc import MAX_CELLS, model_grid, shape_compare
from flatvol.moduli import _scaled
from flatvol.poly import poly_eval

from conftest import run_for_chambers


@pytest.mark.parametrize("module", ["exact", "liecore", "poly", "kappa", "characters",
                                    "moduli", "gluing", "mc", "cli"])
def test_star_import_resolves(module):
    """Every name in a module's `__all__` exists: a stale one fails the
    star import with AttributeError."""
    exec(f"from flatvol.{module} import *", {})


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Each `flatvol ...` line of the fenced block under README's "## CLI"
    heading exits 0 through `main`, in process, from an empty working
    directory (the scan example writes scan.csv there), and the block
    shows every subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```\n(.*?)^```", readme, re.S | re.M).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(words[0] == "flatvol" for words in lines)
    argvs = [words[1:] for words in lines]
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in argvs} == set(subparsers.choices)


def run(*args, env=None, timeout=300):
    """The CLI in a fresh process; a command still running after `timeout`
    seconds fails its test by TimeoutExpired instead of stalling the suite."""
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, "-m", "flatvol.cli", *args],
        capture_output=True,
        text=True,
        env=e,
        timeout=timeout,
    )


def test_bench_trace_targets_resolve():
    """Every (module, attribute) that the bench tracer wraps exists in
    flatvol, so a traced bench run cannot crash on a deleted or renamed
    name.  A method must be defined on its class itself, because the
    tracer reads it from the class dict.  Nothing is installed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for modname, attr in layers.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(owner, cls_name)).get(meth)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{modname}: {attr} does not resolve"


def test_bench_flatvol_chains_resolve():
    """Every fv.<name> or fv.<module>.<name> chain in the code of bench/*.py
    resolves on the flatvol package once flatvol.cli is imported, as in a
    bench run, so a deleted export fails here instead of in the bench."""
    fv = importlib.import_module("flatvol")
    importlib.import_module("flatvol.cli")
    chains = set()
    for path in (Path(__file__).resolve().parents[1] / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names, inner = [], node
            while isinstance(inner, ast.Attribute):
                names.append(inner.attr)
                inner = inner.value
            if names and isinstance(inner, ast.Name) and inner.id == "fv":
                chains.add(tuple(reversed(names)))
    assert {("star",), ("kappa_point",), ("exact", "lattice_points_in_ball"),
            ("GroupSpec", "parse")} <= chains
    for chain in sorted(chains):
        obj = fv
        for name in chain:
            assert hasattr(obj, name), "fv." + ".".join(chain) + " does not resolve"
            obj = getattr(obj, name)


# sha256 of the job lists that `bench/workloads.py` generates for a 15 s
# run (`rounds_for`), all seeds of a workload in one JSON document.  Jobs
# are chosen by the program's own wall tests, cell polynomials and values
# (the routes' `volume-A2` and `chern-A2` triples), so a program change that
# moves the benchmark's inputs fails here instead of skewing a comparison.
BENCH_JOB_DIGESTS = {
    "routes": (range(1, 21),
               "4f28c6e79958e180a918243f6d474264482c9350a1f697e259358cdcd19d1652"),
    "triples": ((1, 2),
                "d0b509367a517fe0beceaca895c06bd5e37734ab2e3142c79ede503a748aef9f"),
    "scan": ((1, 2),
             "b660adbf9004433dba6e16b45459eb5b50299e09f99550ce49260a0652a3b853"),
    "cold": ((1, 2),
             "62ef1c0b28bcb0d1e738f0d657d6a3ae9581695f6d9fc34fa2800a78b073f437"),
}


def bench_job_digest(workload: str, seeds) -> str:
    """The digest of BENCH_JOB_DIGESTS, from the bench's own generator,
    which is imported, not changed."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))  # for its `import checks`
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(bench))
    fv = importlib.import_module("flatvol")
    importlib.import_module("flatvol.cli")
    rounds = workloads.rounds_for(workload, 15)
    jobs = [workloads.WORKLOADS[workload]().generate(fv, random.Random(seed), rounds)
            for seed in seeds]
    return hashlib.sha256(json.dumps(jobs, default=str, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workload", BENCH_JOB_DIGESTS)
def test_bench_jobs_pinned(workload):
    seeds, digest = BENCH_JOB_DIGESTS[workload]
    assert bench_job_digest(workload, seeds) == digest


def test_bench_chamber_contract():
    """What the bench's cold checker reads of a chamber: `polynomial` is a
    {exponent tuple: Fraction} dict, the same object on every read (the
    checker's own test shifts a coefficient of it in place), equal to the
    stored numerators over the stored denominator, and its `poly_eval` at
    the sample point is `value_exact` there."""
    spline = kappa_build(build_root_system("B2"), 2)
    for ch in spline.enumerate_support_chambers():
        poly = ch.polynomial
        assert poly is ch.polynomial
        assert all(type(m) is tuple and type(c) is Fraction for m, c in poly.items())
        assert poly == {m: Fraction(c, ch.den)
                        for m, c in zip(spline.monomials, ch.numerators) if c}
        assert poly_eval(poly, ch.sample_point) == spline.value_exact(ch.sample_point)


def test_roots_dump():
    r = run("roots", "A2")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert len(d["positive_roots"]) == 3
    assert d["center_order"] == 3
    assert d["covolume_T"] > 0 and d["volume_G"] > 0
    assert "stamp" in d


# sha256 of the `roots` stdout, which holds the root order, the highest
# root, the alcove vertices and the Weyl order
ROOTS_DIGESTS = {
    "A1": "e1d81986f68e9612515cd149b74d42421f8ee7fa7a49f28cc4d981b4a128559c",
    "A2": "839b0617ba8fa3ecf4d1380890f5e171bd2c0b39a73adf2fa726e0eb64b6d82c",
    "A3": "4bcd1e441ceefaaeed916919c2f1c3ce63a8c18b5f3fe63fc65a56e9226d58fe",
    "A4": "c97450521028b12a5612739a6ebbb02e530d26dca790235d7af6725b5dbf7f6d",
    "B2": "975503947d2895042a9251097fd396f9fd6932cc1ab22482a50649ffc5d49654",
    "C2": "e599fdf114323058a2cfd23e869f03830cd3fdd99914c9e58051c4ffaf303e77",
    "C3": "701c13166666e768813d176e76cd742676caa5abc1c723e23609b6abc3e6efe5",
    "D4": "70d9ddec0d5c54132e982457817c17f75ad77a8f893da0bcf38466fb73532a66",
    "G2": "43c2bb8ae720776ce0813b05954f9d2670f14a8c019da86fcdc413ef7e9ffee8",
}


@pytest.mark.parametrize("group", sorted(ROOTS_DIGESTS))
def test_roots_bytes_pinned(group, capsys):
    from flatvol.cli import main

    assert main(["roots", group]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ROOTS_DIGESTS[group]


def test_roots_usage_error():
    assert run("roots", "Z9").returncode == 2
    assert run("nonsense").returncode == 2


def test_volume_kappa_constant():
    r = run("volume", "A1", "1/2", "1/2", "1/2")
    d = json.loads(r.stdout)
    assert d["reports"]["kappa"]["value"] == 1.0
    assert d["markings"] == ["1/2", "1/2", "1/2"]  # exact rational echo
    assert d["reports"]["kappa"]["stamp"]["root_order"]


# sha256 of the `volume` stdout for markings whose common denominator exceeds
# 2^63, where the kappa-sum runs on Python-int (object) arrays
HUGE_DENOMINATOR_DIGESTS = [
    (("A1", "1/4294967311", "1/4294967357", "1/4294967357"),
     "812416b0fdb30d21ce17ffcf7f60f2290950d7d5bef051c98a1b76ca0f5727aa"),
    (("A2", "1/4294967311,1/5", "1/3,1/7", "2/7,1/4294967357"),
     "bebe3c2ade5afcb319ad218bc5ff32fc2f870176fd822ce3ff838850fea5627e"),
    (("A2", "1431655775/4294967311,1/3", "1/3,2/7", "2/7,1431655792/4294967357"),
     "6c9033d2ad23b5a604b04148467d0d85424c55b3f89c927bbf850392ce6e861a"),
    (("G2", "715827886/4294967311,1/2", "1/6,7/12", "1/6,715827894/4294967357"),
     "9150ac881cd7327c108c4e0797a9b9f90f3b25a30daf467e4eb27ac44932bc45"),
]


@pytest.mark.parametrize("args, digest", HUGE_DENOMINATOR_DIGESTS, ids=["A1-origin", "A2-zero", "A2", "G2"])
def test_volume_huge_denominator_bytes_pinned(args, digest):
    r = run("volume", *args)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


# sha256 of the `volume` stdout for markings with distinct prime denominators,
# whose chamber moments overflow int64 and are rebuilt from residues
PRIME_DENOMINATOR_DIGESTS = [
    (("G2", "1/37,1/41", "1/43,1/47", "2/53,1/59"),
     "27c4c743454813c02cd480022337ffea2a8f65bd66f863f3816fdddcbcc7b38c"),
    (("A3", "1/37,1/41,1/43", "1/47,1/53,1/59", "1/61,1/67,2/71"),
     "42a06b8758bcd1ce65d0509ca2f8e99ab48a7c2277b6985abff584b83c7cb72e"),
]


@pytest.mark.parametrize("args, digest", PRIME_DENOMINATOR_DIGESTS, ids=["G2", "A3"])
def test_volume_prime_denominator_bytes_pinned(args, digest):
    r = run("volume", *args)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_volume_outside_region_zero():
    r = run("volume", "A1", "1/10", "1/10", "4/5")
    assert json.loads(r.stdout)["reports"]["kappa"]["value"] == 0.0


def test_volume_wall_exit_code():
    r = run("volume", "A1", "1/2", "1/4", "1/4")
    assert r.returncode == 3
    assert "wall" in r.stderr


def test_volume_wall_exit_code_with_cancelling_terms():
    # the on-wall kappa argument's signed coefficients cancel; still exit 3
    r = run("volume", "A1", "0", "1/3", "1/3")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == (
        "wall error: on-wall evaluation at (Fraction(0, 1),) for a degree-0 spline\n"
    )


def test_toric_wall_exit_code():
    # the first on-wall toric term raises the fiber-polytope route's error
    r = run("volume", "A1", "1/2", "1/4", "1/4", "--method", "toric")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == (
        "wall error: kappa has a jump at (Fraction(0, 1),) (degree-0 configuration)\n"
    )


def test_volume_irregular_marking_exit_code():
    # the first marking lies on an alcove wall, where the character table
    # of the series route is undefined: a regularity error, not a usage one
    r = run("volume", "A2", "1/2,1/2", "1/4,1/5", "1/5,1/4",
            "--method", "all", "--weights", "2000")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == "wall error: marking is not regular; character table undefined\n"


def test_volume_all_methods_deviation():
    r = run("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6",
            "--method", "all", "--weights", "20000")
    d = json.loads(r.stdout)
    dev = d["pairwise_relative_deviation"]
    assert dev["kappa-vs-toric"] == 0.0
    assert dev["kappa-vs-witten"] < 1e-3


def test_scan_profile_and_exactness():
    r = run("scan", "A1", "1/2", "1/2", "--along", "0:1", "--steps", "8")
    lines = [l for l in r.stdout.strip().split("\n") if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert rows[0][1] == "wall" and rows[-1][1] == "wall"
    assert all(row[1] == "1.0" for row in rows[1:-1])
    # exact rational echo of the sample points
    assert [row[0] for row in rows[:3]] == ["0", "1/8", "1/4"]


def test_scan_single_row():
    r = run("scan", "A1", "1/2", "1/2", "--along", "1/3:1/3", "--steps", "0")
    lines = [l for l in r.stdout.strip().split("\n") if not l.startswith("#")]
    assert len(lines) == 2
    single = lines[1].split(",")
    rv = run("volume", "A1", "1/2", "1/2", "1/3")
    assert float(single[1]) == json.loads(rv.stdout)["reports"]["kappa"]["value"]


def test_scan_byte_identical_and_threads():
    a = run("scan", "A2", "1/4,1/5", "1/3,1/7", "--along", "1/7,1/9:1/2,1/3",
            "--steps", "12")
    b = run("scan", "A2", "1/4,1/5", "1/3,1/7", "--along", "1/7,1/9:1/2,1/3",
            "--steps", "12")
    c = run("--threads", "4", "scan", "A2", "1/4,1/5", "1/3,1/7",
            "--along", "1/7,1/9:1/2,1/3", "--steps", "12")
    assert a.stdout == b.stdout == c.stdout


def test_scan_chambers_independent_of_threads():
    # the scan builds its chambers as the rows would in order, so the row
    # that first reaches a chamber, and with it the chamber's sample point,
    # is fixed: the chambers are the ones that `volume` on each row in turn
    # builds
    scan = ["scan", "B2", "1/4,1/4", "1/4,1/4", "--along", "0,0:1/2,0", "--steps", "10"]
    runs = [run_for_chambers("B2", ["--threads", threads, *scan]) for threads in ("1", "2")]
    rows = [["volume", "B2", "1/4,1/4", "1/4,1/4", f"{Fraction(j, 20)},0"] for j in range(11)]
    runs.append(run_for_chambers("B2", *rows))
    for r in runs:
        assert set(r.codes) == {0}, r.stderr
    assert runs[0].chambers == runs[1].chambers == runs[2].chambers


# sha256 of the stdout, and for a scan of its kappa chambers (`conftest.
# run_for_chambers`), of outputs read through the pants-sum layer: scans
# with A1 wall rows, in A2 and in A3, the three routes of `volume --method
# all`, and a rank-2 one-holed torus `glue`
PANTS_SUM_DIGESTS = [
    (("scan", "A1", "1/2", "1/2", "--along", "0:1", "--steps", "8"),
     "7380141c1225db09736ae20fb64cf20b307784404f79943e1e07e9849a9e68d8",
     "ec0f93cd00775e730368cfcbde221f6e2f2e791d09c3ae0bfa7d3f2264217f02"),
    (("scan", "A2", "1/4,1/5", "1/3,1/7", "--along", "1/7,1/9:1/2,1/3", "--steps", "12"),
     "a0c40d2eee006019d0f3f75d64c87463f21bac0034af4c39db60b0ad9bb281f4",
     "73e6e172790a42d8e01bc6f55ad1e82452c4abd4c28d5cd75f92a0f7db64ccc4"),
    (("scan", "A3", "1/5,1/7,1/9", "1/6,1/8,1/7", "--along", "1/9,1/5,1/8:1/7,1/9,1/5",
      "--steps", "4"),
     "a795b5c2d4e806dd2dfdbc7a39577f3b2c9711d86842bf01d2bfa4ba5fcc4afd",
     "5980d12ffdfc3b2531093ea1081b996d28491dd571b758169c59dc96ef2857c8"),
    (("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--method", "all", "--weights", "20000"),
     "181e09053469111edc4510b9c461f7f82c1399cd1a49d8d3f25d82082c937328",
     None),
    (("glue", "B2", "--surface", "1,1", "1/4,1/5"),
     "2318d749dfde596480539d0806256d1b8882995c0fec142f61a5db4aad4f7764",
     None),
]


@pytest.mark.parametrize("args, stdout_digest, chambers_digest", PANTS_SUM_DIGESTS,
                         ids=["scan-A1-walls", "scan-A2", "scan-A3", "volume-all-A2", "glue-B2"])
def test_pants_sum_outputs_bytes_pinned(args, stdout_digest, chambers_digest):
    r = run_for_chambers(args[1], list(args))
    assert r.codes == [0], r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == stdout_digest
    if chambers_digest is not None:
        assert r.chambers == chambers_digest


# sha256 of the stdout and of the kappa chambers of two long scans: 2 001
# B2 rows, whose balls span several column blocks of one lattice-table
# product, and 241 A1 rows, two of them on walls of the degree-0 spline
LONG_SCAN_DIGESTS = [
    (("scan", "B2", "1/4,1/5", "1/3,1/7", "--along", "0,0:1/2,1/4", "--steps", "2000"),
     "91dc4478b5069c3f9aefb80679a1cb853e12af735f9dc1213284fa7d807096a8",
     "c341cb6613f9cac68cdfa9d882c5c364042e532ed7065b5a85f67c1309c69f01"),
    (("scan", "A1", "1/4", "1/3", "--along", "0:1", "--steps", "240"),
     "8a2be0efbcb8e26ae37b5f55f4baeeea1aafb49b7ef8d19e6209c600ff0528d0",
     "f6bfe8c10a150a1eb22a0e9435cc89000eb9a4a12201c6ea518cf38de5ce5021"),
]


@pytest.mark.parametrize("args, stdout_digest, chambers_digest", LONG_SCAN_DIGESTS,
                         ids=["scan-B2-2000", "scan-A1-240-walls"])
def test_long_scan_outputs_bytes_pinned(args, stdout_digest, chambers_digest):
    r = run_for_chambers(args[1], list(args))
    assert r.codes == [0], r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == stdout_digest
    assert r.chambers == chambers_digest
    if args[1] == "A1":
        assert r.stdout.count(",wall,kappa-sum,wall") == 2


@pytest.mark.parametrize("name, start, end, steps", [
    ("A1", "0", "1", 8), ("A2", "1/7,1/9", "1/2,1/3", 12), ("B2", "0,0", "1/2,1/4", 40),
    ("G2", f"1/{2**61 - 1},1/3", "1/4,1/4294967311", 6), ("A3", "1/9,1/5,1/8", "1/7,1/9,1/5", 0),
])
def test_line_rows_are_the_points_least_scaled(name, start, end, steps):
    """A scan's rows, placed in ints (`_line_rows`), are its points
    a + (j / n)(b - a) each scaled by its own least denominator, as
    `moduli._scaled` scales one marking, so the kappa-sum sees the scales
    D_j it sees for the same points given as Fractions."""
    rs = build_root_system(name)
    a, b = (parse_marking(rs, t) for t in (start, end))
    points = [tuple(x + Fraction(j, max(steps, 1)) * (y - x) for x, y in zip(a, b))
              for j in range(steps + 1)]
    assert _line_rows(a, b, steps) == [_scaled([p]) for p in points]


def test_chern_identity_and_fd():
    r = run("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "1")
    d = json.loads(r.stdout)
    rv = run("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6")
    assert d["value"] == json.loads(rv.stdout)["reports"]["kappa"]["value"]
    r = run("chern", "A2", "1/4,1/5", "1/3,1/7", "1/10,1/10", "--poly", "e1")
    assert r.returncode == 0


def test_chern_where_only_cancelling_terms_meet_a_wall():
    """The volume is linear near this third marking, but kappa arguments of
    lattice vectors outside its own ball, the support ball, whose terms
    cancel identically there, lie on walls.  chern sums over the own ball,
    so it exits 0 with the exact central difference of the kappa-sum volume
    along the positive roots.  So does the B2 run, where the argument on a
    wall lies in the centred ball |l|^2 <= R but outside the support ball;
    its value is 2/101 (`test_moduli`).  A kappa argument of the own ball on
    a wall makes chern exit 3, even at a third marking (the last run) near
    which the volume is one polynomial in every direction."""
    marks = ("7/20,1/4", "1/4,1/5", "1/5,13/20")
    r = run("chern", "A2", *marks, "--poly", "e1")
    assert r.returncode == 0, r.stderr
    rs = build_root_system("A2")
    m1, m2, m3 = (parse_marking(rs, t) for t in marks)
    h = Fraction(1, 1000)
    steps = [(s, tuple(x + s * h * y for x, y in zip(m3, a)))
             for a in rs.positive_roots for s in (1, -1)]
    difference = sum(s * pants_volume_kappa(rs, m1, m2, m).exact["rational"]
                     for s, m in steps) / (2 * h)
    assert json.loads(r.stdout)["value"] == float(difference) / rs.volume_normalization[0] == -2.0
    r = run("chern", "B2", "43/101,1/101", "63/101,32/101", "21/101,41/101", "--poly", "e1")
    assert r.returncode == 0, r.stderr
    b2 = build_root_system("B2")
    assert json.loads(r.stdout)["value"] == float(Fraction(2, 101)) / b2.volume_normalization[0]
    r = run("chern", "A2", "2/23,16/23", "11/23,7/23", "14/23,4/23", "--poly", "e1")
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == ("wall error: (Fraction(32, 69), Fraction(22, 69)): a kappa argument "
                        "of its lattice ball lies on a wall of kappa\n")

# sha256 of the `chern` stdout and of its kappa chambers (`conftest.
# run_for_chambers`), beyond A2 and degree 1: chamber polynomials of degree
# 2, 4, 3 and 6 under operators of degree 2, 4, 3 and 6 (C3 at top degree),
# and A4's of degree 6 under e1 (the markings of BENCH_21.json)
CHERN_DIGESTS = [
    (("B2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "e1^2"),
     "10655d3c9a49923d774dcea1e170c083f7a2155b93ce8d4176cac661ec3d92fe",
     "1574e5875ec03281ffb8b4761e114cf38497458d3e4007850b135e09dd4817e7"),
    (("G2", "1/9,1/11", "1/10,1/12", "1/8,1/13", "--poly", "e1^4+e2*e1-3*e4"),
     "d82ec15d97e4901b1aa034dce8ffa69562069afc1cef624c6242b571a34d537c",
     "d14f6ae667bdb9132baf345a46e908f09666fd32be5a3f21b8c67abcb6761489"),
    (("A3", "1/5,1/7,1/9", "1/6,1/8,1/7", "1/9,1/5,1/8", "--poly", "e1^3-e3"),
     "4b259f1c89e38031065f49970ef4218b83e14a71ac304cc468ecf0fd2cb0e829",
     "5980d12ffdfc3b2531093ea1081b996d28491dd571b758169c59dc96ef2857c8"),
    (("C3", "1/9,1/11,1/13", "1/10,1/12,1/14", "1/8,1/13,1/11", "--poly", "e1^6"),
     "c0d850f0b43996b06f225a9ffeb42a372635e8b416a24d6584c3b027e0b721f9",
     "d57d4d49025c9575ec337165c16cbaef6631ce5005b0eba681b51c5798b3da90"),
    (("C3", "1/9,1/11,1/13", "1/10,1/12,1/14", "1/8,1/13,1/11", "--poly", "e1^4*e2-e3^2+2*e6"),
     "2d39fcf998e6d2b751e0c309f6b99c483dd9b9361298ab7f2db0124f081a1c0e",
     "d57d4d49025c9575ec337165c16cbaef6631ce5005b0eba681b51c5798b3da90"),
    (("A4", "1/9,1/11,1/13,1/10", "1/10,1/12,1/14,1/9", "1/8,1/13,1/11,1/12", "--poly", "e1"),
     "79852da930e9c646326fb9c96e2d6f238f3d6da26f9a78b5ee57208d490f5716",
     "9909d3630e199cbcba4f921894c87bc503915e91764bf24bcc56ec336fb4c017"),
]


@pytest.mark.parametrize("args, stdout_digest, chambers_digest", CHERN_DIGESTS,
                         ids=["B2", "G2", "A3", "C3-e1^6", "C3-mixed", "A4"])
def test_chern_bytes_pinned(args, stdout_digest, chambers_digest):
    r = run_for_chambers(args[0], ["chern", *args])
    assert r.codes == [0], r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == stdout_digest
    assert r.chambers == chambers_digest


def test_chern_huge_power_acts_as_zero():
    """An e-monomial of weighted degree above the chamber degree
    |R+| - rank, which bounds the volume polynomial's, acts as zero and is
    dropped before the pullback, which would not end on it."""
    marks = ("A2", "1/4,1/5", "1/3,1/7", "2/7,1/6")
    huge = run("chern", *marks, "--poly", "e1^999999999999", timeout=30)
    assert huge.returncode == 0, huge.stderr
    assert json.loads(huge.stdout)["value"] == 0.0
    mixed = run("chern", *marks, "--poly", "1-e1^999999999999", timeout=30)
    assert json.loads(mixed.stdout)["value"] == json.loads(run("chern", *marks, "--poly", "1").stdout)["value"]


def test_chern_dimension_error():
    r = run("chern", "A1", "1/2", "1/2", "1/2", "--poly", "e1")
    assert r.returncode == 2


def test_chern_poly_value_may_start_with_minus():
    # argparse alone reads a separate value '-e1' as an unknown option
    marks = ("A2", "1/4,1/5", "1/3,1/7", "2/7,1/6")
    plus, minus = run("chern", *marks, "--poly", "e1"), run("chern", *marks, "--poly", "-e1")
    assert minus.returncode == 0, minus.stderr
    assert json.loads(minus.stdout)["polynomial"] == "-e1"
    assert json.loads(minus.stdout)["value"] == -json.loads(plus.stdout)["value"]


def test_oracle_deterministic_output():
    args = ("oracle", "A1", "1/2", "1/2", "--samples", "20000",
            "--seed", "11", "--bins", "64")
    a, b = run(*args), run(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    sidecar = json.loads(a.stdout[a.stdout.index("\n{") :])
    assert sidecar["ks_statistic_vs_kappa"] < 0.05
    assert a.stdout.startswith("# {")  # stamp comment leads the CSV


@pytest.mark.parametrize("t1, t2, walls_met", [
    ("1/8", "3/8", [Fraction(1, 4), Fraction(1, 2)]),
    ("13/40", "19/40", []),
])
def test_oracle_statistic_matches_per_point_kappa(t1, t2, walls_met):
    # the model CDF from one pants table equals the one from a kappa-sum
    # per grid point, on the cell walls |t1 - t2| and t1 + t2 too, which
    # the grid k/256 meets for 1/8, 3/8
    r = run("oracle", "A1", t1, t2, "--samples", "20000", "--seed", "5", "--bins", "64")
    assert r.returncode == 0, r.stderr
    sidecar = json.loads(r.stdout[r.stdout.index("\n{"):])
    rs = build_root_system("A1")
    m1, m2 = parse_marking(rs, t1), parse_marking(rs, t2)
    walls = []

    def vol(t):
        tq = Fraction(t).limit_denominator(1 << 20)
        if not 0 < tq < 1:
            return 0.0
        try:
            return pants_volume_kappa(rs, m1, m2, rs.from_weight_coords((tq,))).value
        except OnWallError:
            walls.append(tq)
            return 0.0

    hist = product_class_histogram(rs, m1, m2, bins=64, n_samples=20000, seed=5)
    assert sidecar["ks_statistic_vs_kappa"] == shape_compare(hist, vol)
    assert walls == walls_met


def per_point_model_value(rs, m1, m2, t):
    """The A1 oracle's model volume at one grid point, read alone: tq, the
    closest fraction of denominator at most 2^20 to t, one kappa-sum at
    tq, and 0.0 off (0, 1) and on a wall."""
    tq = Fraction(t).limit_denominator(1 << 20)
    if not 0 < tq < 1:
        return 0.0
    try:
        return pants_volume_kappa(rs, m1, m2, rs.from_weight_coords((tq,))).value
    except OnWallError:
        return 0.0


@pytest.mark.parametrize("bins", [1, 3, 64, 256, 400])
@pytest.mark.parametrize("t1, t2", [("1/8", "3/8"), ("13/40", "19/40")])
def test_oracle_statistic_bit_identical_to_per_point_model(t1, t2, bins, capsys):
    """The sidecar's statistic, from the model values read per cell, equals
    the one from a kappa-sum at every grid point, with ==.  The walls 1/4,
    1/2 of 1/8, 3/8 lie on every grid k / (4 bins); the walls 3/20, 4/5
    of 13/40, 19/40 lie on it for 400 bins only."""
    assert main(["oracle", "A1", t1, t2, "--samples", "20000", "--seed", "5",
                 "--bins", str(bins)]) == 0
    out = capsys.readouterr().out
    sidecar = json.loads(out[out.index("\n{"):])
    rs = build_root_system("A1")
    m1, m2 = parse_marking(rs, t1), parse_marking(rs, t2)
    hist = product_class_histogram(rs, m1, m2, bins=bins, n_samples=20000, seed=5)
    try:
        ref = shape_compare(hist, lambda t: per_point_model_value(rs, m1, m2, t))
    except ValueError:  # 1 bin of 1/8, 3/8: every grid point is 0.0
        ref = None
    assert sidecar["ks_statistic_vs_kappa"] == ref


@pytest.mark.parametrize("bins", [(1 << 18) + 1, MAX_CELLS])
@pytest.mark.parametrize("t1, t2, walls", [
    ("1/8", "3/8", (Fraction(1, 4), Fraction(1, 2))),
    ("13/40", "19/40", (Fraction(3, 20), Fraction(4, 5))),
])
def test_oracle_model_values_near_walls_above_2_18_bins(t1, t2, walls, bins):
    """Above 2^18 bins the grid k / (4 bins) is finer than the fractions of
    denominator at most 2^20, and several points may read as one wall.
    Around each wall and each end of the alcove, the values read per cell
    equal those read point by point."""
    rs = build_root_system("A1")
    m1, m2 = parse_marking(rs, t1), parse_marking(rs, t2)
    values = _a1_model_values(rs, m1, m2, bins)
    grid = model_grid(bins)
    n = len(grid) - 1
    for b in (0, *walls, 1):
        k0 = round(b * n)
        for k in range(max(0, k0 - 40), min(n, k0 + 40) + 1):
            assert values[k] == per_point_model_value(rs, m1, m2, grid[k]), (b, k)


def test_oracle_degenerate_factor_single_bin():
    r = run("oracle", "A1", "1/2", "0", "--samples", "2000", "--seed", "3",
            "--bins", "50")
    lines = [l for l in r.stdout.split("\n") if l and l[0].isdigit()]
    occupied = [l for l in lines if int(l.split(",")[3]) > 0]
    assert len(occupied) == 1
    assert occupied[0].split(",")[0] == "25"


# sha256 of the `oracle` stdout (CSV and sidecar) of the A1 routes-job run
# (10^6 samples, 256 bins; one uniform draw of |w_01|^2 per sample) and of
# an A2 run (one Haar draw per sample)
ORACLE_DIGESTS = {
    ("A1", "13/40", "19/40", "--samples", "1000000", "--seed", "5"):
        "45d9e84026edb91f6e768864be54a9214bc9dce77e2c078fd7e3cc312a83ba1c",
    ("A2", "1/4,1/5", "1/3,1/7", "--samples", "20000", "--bins", "16", "--seed", "4"):
        "5af37107c0206c657ca13b72c341022034359904fefd498885f7e9ee3422664c",
}


def test_oracle_bytes_pinned():
    """A sampler change that moves any A1 or A2 count shows here."""
    for args, digest in ORACLE_DIGESTS.items():
        r = run("oracle", *args)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest, args


@pytest.mark.parametrize("group, marks, option, value", [
    ("A1", ("1/3", "1/4"), "--samples", "0"),
    ("A1", ("1/3", "1/4"), "--seed", "-1"),
    ("A1", ("1/3", "1/4"), "--bins", "0"),
    # above the histogram's 2^20 cells: bins for A1, bins^2 for A2
    ("A1", ("1/3", "1/4"), "--bins", "1048577"),
    ("A2", ("1/4,1/5", "1/3,1/7"), "--bins", "1025"),
], ids=["--samples-0", "--seed--1", "--bins-0", "bins-cells-A1", "bins-cells-A2"])
def test_oracle_usage_error_names_option(group, marks, option, value):
    r = run("oracle", group, *marks, f"{option}={value}")
    assert r.returncode == 2
    if int(value) > 0:  # refused by cmd_oracle before the histogram
        assert r.stderr.splitlines()[0] == (
            f"error: {option} {value} makes more than 1048576 histogram cells")
    else:
        assert f"argument {option}:" in r.stderr.splitlines()[-1]


def oracle_cells(stdout):
    """The (cell, count) rows of an `oracle A2` CSV."""
    return [tuple(map(int, l.split(","))) for l in stdout.split("\n") if l[:1].isdigit()]


def test_oracle_a2_histogram():
    """The A2 histogram (cell i * bins + j for the class (i, j)): a central
    marking puts every sample in the cell of the other one, whichever
    factor it is; a generic pair's counts sum to the samples, repeat byte
    for byte and leave empty every cell with i + j >= bins, since the
    alcove is x + y <= 1."""
    for marks in (("0,0", "1/5,1/7"), ("1/5,1/7", "0,0")):
        r = run("oracle", "A2", *marks, "--samples", "2000", "--bins", "16", "--seed", "4")
        assert r.returncode == 0, r.stderr
        assert [(c, n) for c, n in oracle_cells(r.stdout) if n] == [(50, 2000)]
    args = ("oracle", "A2", "1/4,1/5", "1/3,1/7", "--samples", "20000", "--bins", "16",
            "--seed", "4")
    a, b = run(*args), run(*args)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    cells = oracle_cells(a.stdout)
    assert [c for c, _ in cells] == list(range(16 * 16))
    assert sum(n for _, n in cells) == 20000
    assert not any(n for c, n in cells if c // 16 + c % 16 >= 16)


def test_oracle_rejects_rank_over_two():
    assert run("oracle", "B2", "1/4,1/4", "1/4,1/4").returncode == 2


# sha256 of the stdout of the README `glue` examples
GLUE_DIGESTS = {
    "A1 1,1": "9d8f5ecba540b86b055a2b9e99c96056f5de6c10f070eafbb88cf693c333ae50",
    "A1 0,4": "67b1cd07c903a602bce43e5a22134d3e2a2cb1a3b9bd4eac5a426ce0d7b0b0d3",
    "A2 0,4": "7f4dc487fb990f909cd913e02184e2920e962dec7806ee6e48ea7beafdc36484",
}


def test_glue_examples():
    r = run("glue", "A1", "--surface", "1,1", "2/5")
    d = json.loads(r.stdout)
    assert abs(d["report"]["value"] - 0.6) < 1e-12
    assert d["report"]["exact"] == {"rational": "3/5", "normalization": "1"}
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == GLUE_DIGESTS["A1 1,1"]
    marks = ["1/4,1/5", "1/3,1/7", "2/7,1/6", "1/5,1/4"]
    r = run("glue", "A2", "--surface", "0,4", *marks)
    rs = build_root_system("A2")
    kappa = sphere_volume_kappa(rs, [parse_marking(rs, m) for m in marks]).exact
    assert json.loads(r.stdout)["report"]["exact"] == {
        "rational": str(kappa["rational"]), "normalization": kappa["normalization"]}
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == GLUE_DIGESTS["A2 0,4"]
    r = run("glue", "A1", "--surface", "0,4", "2/5", "1/2", "3/5", "1/3")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == GLUE_DIGESTS["A1 0,4"]
    r = run("glue", "A1", "--surface", "3,1", "1/2")
    assert r.returncode == 2


def test_glue_whole_alcove_wall_exit_code():
    # t = 0 puts a kappa argument on the degree-0 wall for every nu
    r = run("glue", "A1", "--surface", "1,1", "0")
    assert r.returncode == 3, r.stderr
    assert "wall" in r.stderr
    r = run("glue", "A1", "--surface", "1,1", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["report"]["value"] == 0.0


def test_parse_sym_poly_signed_terms():
    assert _parse_sym_poly("-e1", 2).terms == {(1, 0): -1}
    assert _parse_sym_poly("3*e1*e2 - 1/2*e2", 2).terms == {(1, 1): 3, (0, 1): Fraction(-1, 2)}
    assert _parse_sym_poly("e2^2 - e1^0 + 2", 2).terms == {(0, 2): 1, (0, 0): 1}
    assert _parse_sym_poly("-1", 0).terms == {(): -1}


def test_convergence_failure_exit_code():
    r = run("volume", "A1", "2/5", "9/20", "3/5", "--method", "witten",
            "--weights", "6", "--eps0", "0.4")
    assert r.returncode == 4
    assert "convergence" in r.stderr


@pytest.mark.parametrize("args", [
    ("A1", "1/2", "1/2", "1/2", "--eps0", "3000"),
    ("A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--eps0", "200"),
    ("G2", "1/9,1/11", "1/10,1/12", "1/8,1/13", "--eps0", "50"),
], ids=["A1", "A2", "G2"])
def test_large_eps0_fails_convergence(args):
    # when the largest epsilon damps even the lowest weight, every partial
    # sum and the residual are about 0: A2 printed 3.6e-23 with exit 0,
    # against the kappa-sum's 0.130
    r = run("volume", *args[:4], "--method", "witten", *args[4:])
    assert r.returncode == 4
    assert "lowest weight" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("weights", ["3", "7"])
def test_tiny_weight_list_fails_convergence(weights):
    # with so few weights the extrapolation residual exceeds 5% of the
    # total (the kappa-sum gives 1.0): exit 4, not a wrong number
    r = run("volume", "A1", "1/3", "1/4", "1/5", "--method", "witten",
            "--weights", weights)
    assert r.returncode == 4
    assert "residual" in r.stderr
    assert r.stdout == ""


CHERN = ("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6")
# usage errors and the error line of each, which names its option or marking
NAMED_USAGE_ERRORS = {
    # argparse hands '--' over as an empty list: AttributeError, exit 1
    (*CHERN, "--poly", "--"): "--poly needs a value",
    (*CHERN, "--poly=--"): "--poly needs a value",
    ("volume", "A2", "1/4", "1/3,1/7", "2/7,1/6"): "marking '1/4' needs 2 comma-separated rationals",
    ("volume", "A2", "--", "-1/4,1/5", "1/3,1/7", "2/7,1/6"):
        "marking '-1/4,1/5' lies outside the closed alcove",
    ("scan", "A2", "1/4,1/5", "1/3,1/7", "--along", "1/8,1/8"):
        "--along needs the form START:END in weight coordinates",
    (*CHERN, "--poly", "e1+"): "cannot parse --poly 'e1+'",
    (*CHERN, "--poly", "e2"): "--poly 'e2': e2 exceeds the complex dimension 1",
    ("glue", "A1", "--surface", "x", "2/5"): "cannot parse --surface 'x': h,b",
}


@pytest.mark.parametrize("args", [
    # a one-node schedule certified itself; a nonpositive epsilon overflowed
    ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--method", "witten",
     "--eps0", "0.4", "--eps-nodes", "1"),
    ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--method", "witten", "--eps0", "-1"),
    ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--method", "witten", "--eps0", "0"),
    # a negative radius printed a zero volume
    ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--radius-sq", "-1"),
    # surplus and missing markings
    ("glue", "A1", "--surface", "1,1", "1/3", "1/4"),
    ("glue", "A1", "--surface", "0,4", "1/3", "1/4", "1/5"),
    ("oracle", "A1", "1/3", "1/4", "--bins", "0"),
    ("oracle", "A1", "1/3", "1/4", "--samples", "0"),
    ("oracle", "A1", "1/3", "1/4", "--seed=-1"),
    # bins (A1) and bins^2 (A2) int64 cells were allocated unchecked
    ("oracle", "A1", "1/3", "1/4", "--bins", "1048577"),
    ("oracle", "A2", "1/4,1/5", "1/3,1/7", "--bins", "100000"),
    # the gluing integral is exact: no quadrature nodes
    ("glue", "A1", "--surface", "0,4", "1/3", "1/4", "1/5", "1/6", "--nodes", "512"),
    # Fraction reads exponent notation, and a sign inside a term was split off
    ("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "2e1"),
    ("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "1e1"),
    ("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "e1*-1"),
    ("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "e1^-1"),
    # an empty weight list, and islice's own message for a negative count
    ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--method", "witten", "--weights", "0"),
    ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--method", "witten", "--weights", "-5"),
    # a huge count made the cutoff search allocate ever larger weight boxes
    ("volume", "D4", "1/9,1/11,1/13,1/10", "1/10,1/12,1/14,1/9", "1/8,1/13,1/11,1/12",
     "--method", "all", "--weights", "100001"),
    # markings outside the closed alcove printed a negative and a zero value
    ("volume", "A1", "3/2", "1/2", "1/2"),
    ("chern", "A2", "1/4,1/5", "1/3,1/7", "2,1", "--poly", "1"),
    ("scan", "A1", "1/2", "1/2", "--along", "0:3/2"),
    # a zero denominator raised ZeroDivisionError with a traceback (exit 1)
    ("volume", "A2", "1/4,1/5", "1/3,1/7", "1/0,1/6"),
    ("glue", "A1", "--surface", "1,1", "1/0"),
    ("oracle", "A1", "1/3", "1/0"),
    ("scan", "A2", "1/4,1/5", "1/3,1/7", "--along", "1/0,1/5:1/3,1/3"),
    ("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "1/0*e1"),
    ("scan", "A1", "1/2", "1/2", "--along", "0:1", "--steps", "-1"),
    *NAMED_USAGE_ERRORS,
], ids=["eps-nodes", "eps0-negative", "eps0-zero", "radius-sq", "glue-surplus",
        "glue-missing", "bins-zero", "samples-zero", "seed-negative", "bins-cells-A1",
        "bins-cells-A2", "glue-nodes", "poly-2e1",
        "poly-1e1", "poly-times-minus", "poly-negative-power", "weights-zero", "weights-negative",
        "weights-above-cap",
        "volume-outside-alcove", "chern-outside-alcove", "scan-end-outside-alcove",
        "volume-zero-denominator", "glue-zero-denominator", "oracle-zero-denominator",
        "scan-zero-denominator", "chern-zero-denominator", "steps-negative",
        "poly-dashes", "poly-equals-dashes", "marking-wrong-rank", "marking-negative-pairing",
        "along-without-colon", "poly-unparsable", "poly-above-dimension", "surface-unparsable"])
def test_usage_errors(args):
    r = run(*args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    if args in NAMED_USAGE_ERRORS:
        assert r.stderr.startswith(f"error: {NAMED_USAGE_ERRORS[args]}\n")
    if "--steps" in args:
        assert "argument --steps:" in r.stderr.splitlines()[-1]
    if any("1/0" in a for a in args):
        assert "error: rational '1/0' has a zero denominator" in r.stderr
    if "100001" in args:
        assert "error: --weights 100001 is above the cap of 100000 weights" in r.stderr


def test_scan_steps_above_cap_refused(tmp_path):
    # refused before any marking is parsed or any row point is built
    out = tmp_path / "scan.csv"
    r = run("scan", "A2", "1/4,1/5", "1/3,1/7", "--along", "1/8,1/8:1/4,1/4",
            "--steps", str(MAX_STEPS + 1), "--out", str(out))
    assert r.returncode == 2
    assert r.stdout == ""
    assert f"error: --steps {MAX_STEPS + 1} is above the cap of 100000 steps" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, target", [
    (("volume", "A1", "1/2", "1/2", "1/2"), "missing/x.json"),
    (("oracle", "A1", "1/2", "1/2", "--samples", "100"), "missing/o.csv"),
    (("scan", "A1", "1/2", "1/2", "--along", "0:1", "--steps", "2"), "."),
    (("roots", "A2"), "."),
    (("roots", "A2"), "/dev/full"),
], ids=["volume-missing-dir", "oracle-missing-dir", "scan-directory", "roots-directory",
        "roots-device-full"])
def test_unwritable_out_is_usage_error(tmp_path, args, target):
    """An --out path that cannot be written exits 2 with one error line,
    not a traceback, also when it fails only at write time (/dev/full)."""
    path = tmp_path / target
    r = run(*args, "--out", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    reason = {".": "Is a directory", "/dev/full": "No space left on device"}.get(
        target, "No such file or directory")
    assert f"error: cannot write {path}: {reason}\n" in r.stderr
    assert "Traceback" not in r.stderr


def test_closed_stdout_ends_quietly():
    """A reader that closes stdout early, as `| head -c 10` does, ends the
    command with exit 141 and nothing on stderr: no traceback and no
    'Exception ignored' line at shutdown.  The CSV is over 64 KB, more than
    a pipe holds, so the write fails every time."""
    argv = ["oracle", "A1", "1/3", "1/4", "--samples", "1000", "--bins", "4096"]
    with subprocess.Popen([sys.executable, "-m", "flatvol.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
    assert head == b'# {"group"'
    assert err == b""


FUZZ_MARKINGS = {  # interior and boundary points of the closed alcove
    "A1": ["1/2", "2/5", "1/3", "3/5", "1/5", "0", "1"],
    "A2": ["1/4,1/5", "1/3,1/7", "2/7,1/6", "1/5,1/4", "1/3,1/3", "0,1/2"],
    "B2": ["1/4,1/5", "1/3,1/7", "2/7,1/6", "1/8,1/9", "0,1/4"],
    "G2": ["1/9,1/11", "1/10,1/12", "1/8,1/13", "1/12,1/7", "0,1/9"],
}
FUZZ_BAD = {  # faulty groups, coordinates and option values
    "group": ["A0", "Z2", "A", "E9", "A-1", "G3", "", "--"],
    "coordinate": ["1/0", "x", "3/2", "-1/4", "123456789012345678901", "1e3", "", "--", "-e1"],
    "--method": ["magic", "", "-e1"],
    "--weights": ["0", "-5", "x", "100001", "1.5", "-e1"],
    "--eps0": ["0", "-1", "inf", "nan", "x", "-e1"],
    "--along": ["a:b", "1/2:", "", "-e1"],
    "--steps": ["-1", "x", "100001", "-e1"],
    "--samples": ["0", "-1", "x", "1e3", "-e1"],
    "--bins": ["0", "-3", "1048577", "x", "-e1"],
    "--seed": ["-1", "x", "-e1"],
    "--surface": ["x", "1", "2,2", "0,3", "-1,1", "-e1"],
    "--poly": ["e2", "e1+", "2e1", "e1^-1", "x", "", "-e1*"],
}
FUZZ_OPTIONS = {  # valid values
    "--method": ["kappa", "toric", "witten", "all"],
    "--weights": ["7", "200", "1000"],
    "--eps0": ["0.5", "0.05"],
    "--steps": ["0", "2", "4"],
    "--samples": ["100", "1000"],
    "--bins": ["4", "16"],
    "--seed": ["0", "7"],
    "--poly": ["e1", "1", "-e1", "1/2*e1", "2*e1-1"],
}
FUZZ_COMMANDS = {  # groups, marking count, options always given and optional ones
    "roots": (["A1", "A2", "B2", "G2", "C3", "D4"], 0, [], []),
    "volume": (["A1", "A2", "B2", "G2"], 3, [], ["--method", "--weights", "--eps0"]),
    "scan": (["A1", "A2", "B2"], 2, ["--along"], ["--steps"]),
    "chern": (["A1", "A2", "B2", "G2"], 3, ["--poly"], []),
    "oracle": (["A1", "A2"], 2, ["--samples"], ["--bins", "--seed"]),  # not 10^5 samples
    "glue": (["A1", "A2"], None, ["--surface"], []),
}
FUZZ_FAULTS = [None, None, None, "group", "marking", "rank", "count", "option", "option",
               "missing", "out", "unknown"]


def _fuzz_argv(rng: random.Random, tmp_path: Path) -> list[str]:
    """One argv of the fuzz grammar: a valid command line of one of the six
    commands, with at most one fault (a bad group, a bad coordinate, a
    marking of the wrong rank, a surplus or missing marking, a bad option
    value, often '--', a missing required option, an unwritable --out or an
    unknown option), written as 'OPTION VALUE' or 'OPTION=VALUE'."""
    command = rng.choice(list(FUZZ_COMMANDS))
    groups, count, required, optional = FUZZ_COMMANDS[command]
    group = rng.choice(groups)
    fault = rng.choice(FUZZ_FAULTS)
    options = {o: rng.choice(FUZZ_OPTIONS.get(o, [""])) for o in required}
    options.update({o: rng.choice(FUZZ_OPTIONS[o]) for o in optional if rng.random() < 0.5})
    if command == "glue":
        options["--surface"], count = rng.choice([("1,1", 1), ("0,4", 4)])
    points = FUZZ_MARKINGS.get(group, FUZZ_MARKINGS["A2"])
    markings = [rng.choice(points) for _ in range(count)]
    if command == "scan":
        options["--along"] = f"{rng.choice(points)}:{rng.choice(points)}"
    if fault == "group":
        group = rng.choice(FUZZ_BAD["group"])
    elif fault in ("marking", "rank") and markings:
        j, coords = rng.randrange(len(markings)), markings[0].split(",")
        if fault == "marking":
            coords[rng.randrange(len(coords))] = rng.choice(FUZZ_BAD["coordinate"])
        else:
            coords = coords[1:] if len(coords) > 1 else coords * 2
        markings[j] = ",".join(coords)
    elif fault == "count":
        markings = markings[1:] if markings and rng.random() < 0.5 else markings + markings[:1]
    elif fault == "option" and required + optional:
        option = rng.choice(required + optional)
        options[option] = "--" if rng.random() < 0.4 else rng.choice(FUZZ_BAD[option])
    elif fault == "missing" and command in ("scan", "chern", "glue"):
        del options[required[0]]  # the one option argparse requires
    elif fault == "out":
        options["--out"] = str(rng.choice([tmp_path / "missing" / "x", tmp_path]))
    argv = [command, group, *markings]
    if "--out" not in options and rng.random() < 0.2:
        options["--out"] = str(tmp_path / "out.txt")
    for option, value in options.items():
        argv += [f"{option}={value}"] if rng.random() < 0.3 else [option, value]
    if fault == "unknown":
        argv.insert(rng.randrange(len(argv) + 1), "--bogus")
    if rng.random() < 0.1:
        argv = ["--threads", "2", *argv]
    return argv


def test_argv_fuzz(tmp_path, capsys):
    """300 seeded argv over the six commands, run by `main` in process:
    each exits 0, 2, 3 or 4, raises nothing, prints no traceback, and
    prints nothing on stdout unless it exits 0."""
    rng = random.Random(17)
    for _ in range(300):
        argv = _fuzz_argv(rng, tmp_path)
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{argv} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, argv
        assert code == 0 or out == "", argv


ORACLE = ("oracle", "A1", "13/40", "19/40", "--samples", "1000000")
VOLUME = ("volume", "A1", "1/2", "1/2", "1/2")


@pytest.mark.parametrize("args, target", [
    (ORACLE, "missing/o.csv"), (ORACLE, "."), (ORACLE, "o.csv"),
    (VOLUME, "missing/v.json"), (VOLUME, "."),
], ids=["oracle-missing-dir", "oracle-directory", "oracle-sidecar-directory",
        "volume-missing-dir", "volume-directory"])
def test_unwritable_out_is_refused_before_the_work(tmp_path, monkeypatch, capsys, args, target):
    """An --out path that is a directory, or whose directory is missing,
    exits 2 before any volume or histogram is computed; so does oracle's
    PATH.json sidecar when it is a directory.  The check creates no file."""
    from flatvol import cli

    def never(*_args, **_kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "product_class_histogram", never)
    monkeypatch.setattr(cli, "pants_volume_kappa", never)
    path = bad = tmp_path / target
    if target == "o.csv":  # the CSV could be written, its sidecar not
        bad = tmp_path / "o.csv.json"
        bad.mkdir()
    before = sorted(tmp_path.iterdir())
    assert cli.main([*args, "--out", str(path)]) == 2
    reason = "No such file or directory" if target.startswith("missing") else "Is a directory"
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: {reason}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_gluing_module_loads_on_first_glue():
    """The gluing module stays out of a process until a glue run needs it."""
    code = "\n".join([
        "import contextlib, io, sys",
        "import flatvol",
        "from flatvol.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['volume', 'A2', '1/4,1/5', '1/3,1/7', '2/7,1/6']) == 0",
        "    before = 'flatvol.gluing' in sys.modules",
        "    assert main(['glue', 'A1', '--surface', '1,1', '2/5']) == 0",
        "print(before, 'flatvol.gluing' in sys.modules)",
    ])
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True"]


def test_leftover_spline_cache_is_inert(tmp_path):
    """FLATVOL_CACHE naming a directory that holds a truncated chamber
    dump, or naming a regular file, changes nothing: the CLI reads and
    writes neither, warns of nothing, and prints what it prints without it."""
    args = ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6")
    leftover = tmp_path / "cache"
    leftover.mkdir()
    (leftover / "kappa_A2.json").write_text('{\n "chambers": [\n  {\n   "poly')
    regular = tmp_path / "file"
    regular.write_text("a file")

    def state():
        return sorted((p.relative_to(tmp_path), p.read_bytes() if p.is_file() else None)
                      for p in tmp_path.rglob("*"))

    before = state()
    runs = [run(*args, env={"FLATVOL_CACHE": str(leftover)}),
            run(*args, env={"FLATVOL_CACHE": str(regular)})]
    env = dict(os.environ)
    env.pop("FLATVOL_CACHE", None)
    runs.append(subprocess.run([sys.executable, "-m", "flatvol.cli", *args], capture_output=True,
                               text=True, env=env, timeout=300))
    for r in runs:
        assert (r.returncode, r.stderr) == (0, "")
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout != ""
    assert state() == before
