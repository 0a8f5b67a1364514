import json
import os
import subprocess
import sys


def run(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, "-m", "flatvol.cli", *args],
        capture_output=True,
        text=True,
        env=e,
    )


def test_roots_dump():
    r = run("roots", "A2")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert len(d["positive_roots"]) == 3
    assert d["center_order"] == 3
    assert d["covolume_T"] > 0 and d["volume_G"] > 0
    assert "stamp" in d


def test_roots_usage_error():
    assert run("roots", "Z9").returncode == 2
    assert run("nonsense").returncode == 2


def test_volume_kappa_constant():
    r = run("volume", "A1", "1/2", "1/2", "1/2")
    d = json.loads(r.stdout)
    assert d["reports"]["kappa"]["value"] == 1.0
    assert d["markings"] == ["1/2", "1/2", "1/2"]  # exact rational echo
    assert d["reports"]["kappa"]["stamp"]["root_order"]


def test_volume_outside_region_zero():
    r = run("volume", "A1", "1/10", "1/10", "4/5")
    assert json.loads(r.stdout)["reports"]["kappa"]["value"] == 0.0


def test_volume_wall_exit_code():
    r = run("volume", "A1", "1/2", "1/4", "1/4")
    assert r.returncode == 3
    assert "wall" in r.stderr


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


def test_chern_identity_and_fd():
    r = run("chern", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", "--poly", "1")
    d = json.loads(r.stdout)
    rv = run("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6")
    assert d["value"] == json.loads(rv.stdout)["reports"]["kappa"]["value"]
    r = run("chern", "A2", "1/4,1/5", "1/3,1/7", "1/10,1/10", "--poly", "e1")
    assert r.returncode == 0


def test_chern_dimension_error():
    r = run("chern", "A1", "1/2", "1/2", "1/2", "--poly", "e1")
    assert r.returncode == 2


def test_oracle_deterministic_output():
    args = ("oracle", "A1", "1/2", "1/2", "--samples", "20000",
            "--seed", "11", "--bins", "64")
    a, b = run(*args), run(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    sidecar = json.loads(a.stdout[a.stdout.index("\n{") :])
    assert sidecar["ks_statistic_vs_kappa"] < 0.05
    assert a.stdout.startswith("# {")  # stamp comment leads the CSV


def test_oracle_degenerate_factor_single_bin():
    r = run("oracle", "A1", "1/2", "0", "--samples", "2000", "--seed", "3",
            "--bins", "50")
    lines = [l for l in r.stdout.split("\n") if l and l[0].isdigit()]
    occupied = [l for l in lines if int(l.split(",")[3]) > 0]
    assert len(occupied) == 1
    assert occupied[0].split(",")[0] == "25"


def test_oracle_rejects_rank_over_two():
    assert run("oracle", "B2", "1/4,1/4", "1/4,1/4").returncode == 2


def test_glue_examples():
    r = run("glue", "A1", "--surface", "1,1", "2/5")
    d = json.loads(r.stdout)
    assert abs(d["report"]["value"] - 0.6) < 1e-12
    r = run("glue", "A1", "--surface", "0,4", "2/5", "1/2", "3/5", "1/3")
    assert r.returncode == 0
    r = run("glue", "A1", "--surface", "3,1", "1/2")
    assert r.returncode == 2


def test_spline_cache_env(tmp_path):
    env = {"FLATVOL_CACHE": str(tmp_path)}
    r = run("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", env=env)
    assert r.returncode == 0
    cache_file = tmp_path / "kappa_A2.json"
    assert cache_file.exists()
    data = json.loads(cache_file.read_text())
    assert data["chambers"]
    r2 = run("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6", env=env)
    assert json.loads(r2.stdout) == json.loads(r.stdout)


def test_convergence_failure_exit_code():
    r = run("volume", "A1", "2/5", "9/20", "3/5", "--method", "witten",
            "--weights", "6", "--eps0", "0.4")
    assert r.returncode == 4
    assert "convergence" in r.stderr


def test_truncated_spline_cache_is_ignored(tmp_path):
    args = ("volume", "A2", "1/4,1/5", "1/3,1/7", "2/7,1/6")
    plain = run(*args, env={"FLATVOL_CACHE": ""})
    env = {"FLATVOL_CACHE": str(tmp_path)}
    assert run(*args, env=env).returncode == 0
    cache_file = tmp_path / "kappa_A2.json"
    full = cache_file.read_text()
    cache_file.write_text(full[:200])
    r = run(*args, env=env)
    assert r.returncode == 0
    assert r.stdout == plain.stdout
    assert "warning" in r.stderr
    assert cache_file.read_text() == full  # rewritten whole


def test_edited_spline_cache_is_ignored(tmp_path):
    args = ("volume", "A1", "1/2", "1/2", "1/2")
    plain = run(*args, env={"FLATVOL_CACHE": ""})
    env = {"FLATVOL_CACHE": str(tmp_path)}
    assert run(*args, env=env).returncode == 0
    cache_file = tmp_path / "kappa_A1.json"
    data = json.loads(cache_file.read_text())
    data["chambers"][0]["polynomial"] = {"0": "5"}
    cache_file.write_text(json.dumps(data))
    r = run(*args, env=env)
    assert r.returncode == 0
    assert r.stdout == plain.stdout
    assert json.loads(r.stdout)["reports"]["kappa"]["value"] == 1.0
    assert "warning" in r.stderr
