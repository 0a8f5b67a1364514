"""flatvol benchmark: one run of one workload.

    python3 bench/run.py --workload triples --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; flatvol is imported from ./src.
The run makes a fixed, seeded job list (see workloads.py), times the
program's set-up several times, runs the jobs once in a closed loop with
one client, checks every output after the loop, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
public functions of each module are wrapped (layers.py) and the metrics
are the per-layer ones.  A line starting with `meta:` before it records
the host, the versions, the share of CPU steal time, the host speed and
the unscaled times.

Times are reported in reference seconds (see HostClock): the virtual CPU
of the reference host changes speed by up to 2x within minutes, and a
calibration slice timed between jobs tracks that change.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3

sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402


class HostClock:
    """Converts wall seconds on this host, now, into reference seconds.

    A calibration slice is a fixed piece of interpreter work of the
    program's kind (rational arithmetic, tuples, a dict) that touches no
    flatvol code.  `sample()` times several slices and returns their median
    divided by REF_SLICE_S: the factor by which the host is slower than a
    host on which one slice takes REF_SLICE_S.  The benchmark samples
    around each set-up and after every EVERY_S seconds of jobs, and divides
    each time by the factor measured around it.  The program cannot change
    the factor; a faster program still shows as fewer reference seconds.
    """

    REF_SLICE_S = 0.005
    EVERY_S = 0.5  # wall seconds of jobs between samples

    def __init__(self):
        self.factors: list[float] = []

    @staticmethod
    def slice_s() -> float:
        t0 = time.perf_counter()
        acc, memo = Fraction(0), {}
        for k in range(1, 700):
            x = Fraction(k % 89 + 1, k + 7)
            acc += x * x
            memo[(k % 31, x)] = acc
        return time.perf_counter() - t0

    def sample(self, span_s: float = 0.0) -> float:
        """Host factor now; after a long span of work, more slices (about
        one per 0.3 s of work, 3 to 15) give a steadier median."""
        count = max(3, min(15, round(span_s / 0.3)))
        factor = statistics.median(self.slice_s() for _ in range(count)) / self.REF_SLICE_S
        self.factors.append(factor)
        return factor


def forget_flatvol() -> None:
    """Drop every flatvol module, so the next import executes them again and
    every module-level cache (root systems, splines, memos) starts empty."""
    for name in [m for m in sys.modules if m == "flatvol" or m.startswith("flatvol.")]:
        del sys.modules[name]
    gc.collect()


def import_flatvol():
    fv = importlib.import_module("flatvol")
    importlib.import_module("flatvol.cli")
    return fv


def cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None or len(before) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flatvol" / "__init__.py").is_file():
        sys.stderr.write(f"no flatvol sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpu_before = cpu_times()

    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.environ.pop("FLATVOL_CACHE", None)

    import numpy

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "steal_share": steal_share(cpu_before, cpu_times()),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        **result.pop("meta"),
    }
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args, workdir: str) -> dict:
    wl = workloads.WORKLOADS[args.workload]()
    rounds = workloads.rounds_for(args.workload, args.seconds)
    t0 = time.perf_counter()
    jobs = wl.generate(import_flatvol(), random.Random(args.seed), rounds)
    generate_s = time.perf_counter() - t0

    clock = HostClock()
    tracer = layers.Tracer()
    setup_wall, setup_ref = [], []
    for k in range(SETUP_REPEATS):
        forget_flatvol()
        before = clock.sample()
        t0 = time.perf_counter()
        fv = import_flatvol()
        if args.trace and k == SETUP_REPEATS - 1:
            tracer.install()
            tracer.active = True
        env = wl.setup(fv, workdir)
        setup_wall.append(time.perf_counter() - t0)
        setup_ref.append(setup_wall[-1] / ((before + clock.sample()) / 2))

    calls = [wl.bind(fv, env, job) for job in jobs]
    results, job_wall, errors = [], [], []
    failed = 0
    chambers_before = chamber_count(fv, env)
    gc.collect()
    span, batch = 0.0, []  # batch[i]: index of the host sample taken before job i
    loop_samples = [clock.sample()]
    for i, call in enumerate(calls):
        t0 = time.perf_counter()
        try:
            results.append(call())
        except Exception as exc:  # a job that raises counts as failed
            results.append(None)
            failed += 1
            errors.append(f"{args.workload}[{i}] raised {type(exc).__name__}: {exc}")
        job_wall.append(time.perf_counter() - t0)
        batch.append(len(loop_samples) - 1)
        span += job_wall[-1]
        if span >= clock.EVERY_S or i == len(calls) - 1:
            loop_samples.append(clock.sample(span))
            span = 0.0
    # a job's factor: median of the two samples around it and one more on
    # each side, so one sample caught in a short burst does not decide it
    job_ref = [dt / statistics.median(loop_samples[max(0, b - 1):b + 3])
               for dt, b in zip(job_wall, batch)]
    tracer.active = False
    rss = peak_rss_mb()
    built_in_loop = chamber_count(fv, env) - chambers_before
    by_kind: dict[str, list[float]] = {}
    for job, dt in zip(jobs, job_ref):
        by_kind.setdefault(workloads.kind(job), []).append(1000 * dt)

    t0 = time.perf_counter()
    ok = [i for i, r in enumerate(results) if r is not None]
    check_failed, check_errors = wl.check(
        fv, env, [jobs[i] for i in ok], [results[i] for i in ok],
        random.Random(f"check-{args.seed}"))
    check_s = time.perf_counter() - t0
    failed += check_failed
    errors += check_errors
    for e in errors:
        print("error: " + e, file=sys.stderr)

    jobs_per_s = len(jobs) / sum(job_ref)
    if args.trace:
        tracer.count("output_bytes", sum(len(r[1]) for r in results
                                         if isinstance(r, tuple) and isinstance(r[1], bytes)))
        values = layers.layer_metrics(tracer)
        values["trace.jobs_per_s"] = jobs_per_s
        traces = Path(workdir).parent / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{args.workload}-{args.seed}.json").write_text(
            json.dumps(layers.full_report(tracer), indent=1, sort_keys=True))
        metrics = {k: {"value": int(values[k]) if unit in ("count", "bytes") else values[k],
                       "unit": unit} for k, unit in layers.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_p50_ms": {"value": 1000 * statistics.median(job_ref), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return {
        "correct": not check_errors and all(r is not None for r in results),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
        "meta": {
            "rounds": rounds, "generate_s": generate_s, "check_s": check_s,
            "loop_wall_s": sum(job_wall), "loop_ref_s": sum(job_ref),
            "wall_jobs_per_s": len(jobs) / sum(job_wall),
            "wall_job_p50_ms": 1000 * statistics.median(job_wall),
            "wall_setup_s": statistics.median(setup_wall),
            "host_factor": {"min": min(clock.factors), "median": statistics.median(clock.factors),
                            "max": max(clock.factors), "samples": len(clock.factors)},
            "job_p50_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
            "chambers_built_in_timed_loop": built_in_loop,
        },
    }


def chamber_count(fv, env) -> int:
    """Chambers of the warm splines, to confirm set-up built all of them."""
    return sum(len(fv.kappa_build(rs).chambers) for rs in env.get("rs", {}).values())


if __name__ == "__main__":
    sys.exit(main())
