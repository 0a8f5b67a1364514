"""The benchmark's checks must reject wrong output.

    python3 -m pytest bench -q

Each workload runs a few real jobs, its checker accepts them, and then
rejects the same results after one perturbation: an exact rational off by
1/10^9, scan rows out of order, a wrong chamber polynomial or a KS
statistic above the threshold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import flatvol as fv  # noqa: E402
import flatvol.cli  # noqa: E402,F401
import layers  # noqa: E402
import workloads  # noqa: E402

TINY = Q(1, 10**9)


@pytest.fixture
def workdir(tmp_path):
    saved = os.environ.get("FLATVOL_CACHE")
    yield str(tmp_path)
    if saved is None:
        os.environ.pop("FLATVOL_CACHE", None)
    else:
        os.environ["FLATVOL_CACHE"] = saved


def run_jobs(wl, env, jobs):
    return [wl.bind(fv, env, job)() for job in jobs]


def off_by_tiny(rep):
    return dataclasses.replace(rep, exact={**rep.exact, "rational": rep.exact["rational"] + TINY})


def test_triples_checker(workdir):
    wl = workloads.Triples()
    spec = (("A2", [7]), ("B2", [5]), ("A1", [None, None]))
    jobs = wl.generate(fv, random.Random(5), 1, round_spec=spec)
    env = wl.setup(fv, workdir)
    results = run_jobs(wl, env, jobs)
    assert wl.check(fv, env, jobs, results, random.Random(0)) == (0, [])
    for i, job in enumerate(jobs):
        bad = list(results)
        if job["group"] == "A1":
            bad[i] = dataclasses.replace(results[i], value=results[i].value + 1e-9)
        else:
            bad[i] = off_by_tiny(results[i])
        _, errors = wl.check(fv, env, jobs, bad, random.Random(0))
        assert errors, job


def test_su2_region_law():
    half = Q(1, 2)
    assert checks.su2_region_law(half, half, half, 1.0) is None
    assert checks.su2_region_law(half, half, half, 0.0)
    assert checks.su2_region_law(Q(1, 10), Q(1, 10), Q(4, 5), 0.0) is None
    assert checks.su2_region_law(Q(1, 10), Q(1, 10), Q(4, 5), 1.0)


def test_scan_checker(workdir):
    wl = workloads.Scan()
    jobs = wl.generate(fv, random.Random(7), 1, round_spec=(("A2", 4, 1, 7),))
    env = wl.setup(fv, workdir)
    results = run_jobs(wl, env, jobs)
    assert wl.check(fv, env, jobs, results, random.Random(0)) == (0, [])

    code, data = results[0]
    lines = data.decode().split("\n")
    first = next(i for i, ln in enumerate(lines) if ln.startswith("mu3")) + 1
    swapped = list(lines)
    swapped[first], swapped[first + 1] = lines[first + 1], lines[first]
    _, errors = wl.check(fv, env, jobs, [(code, "\n".join(swapped).encode())],
                         random.Random(0))
    assert errors

    shifted = list(lines)
    for k in range(first, len(lines) - 1):
        head, _, exact = lines[k].rpartition(",")
        shifted[k] = f"{head},{Q(exact) + TINY}"
    text = "\n".join(shifted)
    wl.SAME_BYTES_PER_RUN = 0  # the toric comparison alone must notice
    _, errors = wl.check(fv, env, jobs, [(code, text.encode())], random.Random(0))
    assert any("vs toric" in e for e in errors)


def test_cold_checker(workdir):
    wl = workloads.Cold()
    jobs = wl.generate(fv, random.Random(3), 1, round_spec=(("A2", 3, 7), ("B2", 3, 5)))
    env = wl.setup(fv, workdir)
    results = run_jobs(wl, env, jobs)
    assert wl.check(fv, env, jobs, results, random.Random(0)) == (0, [])

    bad = [(rs, off_by_tiny(rep)) for rs, rep in results]
    _, errors = wl.check(fv, env, jobs, bad, random.Random(0))
    assert len(errors) == len(jobs)

    rs = results[1][0]
    chamber = next(iter(fv.kappa_build(rs).chambers.values()))
    mono = next(iter(chamber.polynomial))
    chamber.polynomial[mono] += TINY
    _, errors = wl.check(fv, env, jobs, results, random.Random(0))
    assert any("chamber" in e for e in errors)


def test_routes_checker(workdir):
    wl = workloads.Routes()
    spec = ("volume-B2", "glue-A1-04", "chern-A2")
    jobs = wl.generate(fv, random.Random(11), 1, round_spec=spec)
    env = wl.setup(fv, workdir)
    results = run_jobs(wl, env, jobs)
    assert wl.check(fv, env, jobs, results, random.Random(0)) == (0, [])

    for i, job in enumerate(jobs):
        out = json.loads(results[i][1])
        if job["kind"] == "volume-B2":
            kappa = out["reports"]["kappa"]["exact"]
            kappa["rational"] = str(Q(kappa["rational"]) + TINY)
        elif job["kind"] == "glue-A1-04":
            out["report"]["value"] += 1e-5
        else:
            out["value"] += 1e-5
        bad = list(results)
        bad[i] = (0, json.dumps(out).encode())
        _, errors = wl.check(fv, env, jobs, bad, random.Random(0))
        assert errors, job["kind"]


def test_oracle_ks_threshold():
    wl = workloads.Routes()
    job = {"kind": "oracle-A1", "marks": ((Q(1, 2),), (Q(2, 5),)), "seed": 1}
    for stat, ok in ((0.0099, True), (0.0101, False), (None, False)):
        data = b"# stamp\nbin,lo,hi,count\n" + json.dumps({"ks_statistic_vs_kappa": stat}).encode()
        err = wl.check_one(fv, {"rs": {}}, job, b"\n" + data, "oracle")
        assert (err is None) == ok, stat


def test_known_rank2_glue_failure_is_counted(workdir):
    wl = workloads.Routes()
    jobs = wl.generate(fv, random.Random(1), 1, round_spec=("glue-A2-04",))
    env = wl.setup(fv, workdir)
    results = run_jobs(wl, env, jobs)
    assert wl.check(fv, env, jobs, results, random.Random(0)) == (1, [])


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "jobs_per_s", "job_p50_ms", "peak_rss_mb"}


def test_traced_run_reports_every_layer_metric():
    root = BENCH.parent
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["moduli.sphere_volume_kappa.calls"]["value"] == result["attempted"]
    assert metrics["kappa.chambers_built"]["value"] > 0
    assert metrics["kappa.density.calls"]["value"] > 0
