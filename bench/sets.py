"""Run sets of benchmark runs and summarize them.

    python3 bench/sets.py run --seeds 1-10 --out .bench_out/set1.jsonl
    python3 bench/sets.py run --seeds 1 --trace 1 --out .bench_out/traced.jsonl
    python3 bench/sets.py summary .bench_out/set1.jsonl [.bench_out/set2.jsonl]

`run` starts one process per (seed, workload), seed-major so that every
workload sees the same stretch of host speed, and appends each run's
`meta:` line and result to a JSON-lines file.  `summary` prints, per
workload and metric, the median and quartiles of each set, the spread
(q3 - q1) / median, and the change of the second set's median against
the first, next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_sets(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for name in names:
                cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                lines = proc.stdout.strip().splitlines()
                meta = next((json.loads(ln[6:]) for ln in lines if ln.startswith("meta: ")), {})
                record = {"workload": name, "seed": seed, "trace": args.trace,
                          "exit": proc.returncode, "meta": meta,
                          "result": json.loads(lines[-1]) if proc.returncode == 0 else None,
                          "stderr": proc.stderr[-2000:]}
                out.write(json.dumps(record) + "\n")
                out.flush()
                res = record["result"] or {}
                print(f"{name:8s} seed {seed:3d} exit {proc.returncode} "
                      f"correct {res.get('correct')} failed {res.get('failed')}/"
                      f"{res.get('attempted')} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in res.get("metrics", {}).items()
                                 if not args.trace),
                      flush=True)


def load(path: str) -> dict:
    runs: dict[tuple, list] = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["result"] is None:
            continue
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in args.files]
    print("| workload | metric | bound | " + " | ".join(
        f"set {k + 1}: median [q1, q3] (spread)" for k in range(len(sets)))
        + (" | change of median |" if len(sets) == 2 else " |"))
    print("|---|---|---|" + "---|" * len(sets) + ("---|" if len(sets) == 2 else ""))
    for w in spec["workloads"]:
        for name, m in bounds.items():
            cells, medians = [], []
            for runs in sets:
                recs = runs.get((w["name"], 0), [])
                vals = [r["result"]["metrics"][name]["value"] for r in recs]
                if not vals:
                    cells.append("-")
                    continue
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({(q3 - q1) / med:.1%}, n={len(vals)})")
            row = f"| {w['name']} | {name} ({m['unit']}, {m['better']}) | {m['bound']} | " + " | ".join(cells)
            if len(medians) == 2:
                worse = medians[1] / medians[0] - 1
                worse = worse if m["better"] == "lower" else -worse
                row += f" | {worse:+.1%} worse |"
            print(row + ("" if len(medians) == 2 else " |"))
    for k, runs in enumerate(sets):
        for (name, trace), recs in sorted(runs.items()):
            shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in recs}
            steal = [r["meta"].get("steal_share") or 0.0 for r in recs]
            print(f"set {k + 1} {name} trace={trace}: runs {len(recs)}, "
                  f"all correct {all(r['result']['correct'] for r in recs)}, "
                  f"failed/attempted {sorted(shares)}, max steal {max(steal):.2%}")


def main() -> None:
    ap = argparse.ArgumentParser(description="run and summarize sets of benchmark runs")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    r.add_argument("--workloads", default="", help="comma-separated; default all")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    args = ap.parse_args()
    run_sets(args) if args.cmd == "run" else summary(args)


if __name__ == "__main__":
    sys.exit(main())
