"""Collect sets of benchmark runs and compare two of them.

    python3 bench/compare.py collect --out .bench_runs/base --seeds 1-10
    python3 bench/compare.py compare .bench_runs/base .bench_runs/change

`collect` runs bench/run.py once per workload and seed, one run at a time,
and keeps each run's result line in OUT/<workload>/seed<N>.json.  `compare`
prints, for each workload and end-to-end metric, the median and quartiles
of each set, the spread (quartile distance over median) and the change of
the median, and applies the bounds of BENCHMARK.json: a change is `worse`
when the second median is worse than the first by more than the bound, and
`unresolved` when either set spreads wider than the bound (unless every run
of the second set beats every run of the first).  Within a set, every run
must fail the same share of its operations; the second set may fail a
smaller share than the first, never a larger one.  Given one set, it prints
that set alone and checks each spread against a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(out: Path, seeds: list[int], workloads: list[str], seconds: int) -> int:
    for workload in workloads:
        (out / workload).mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            (out / workload / f"seed{seed}.json").write_text(lines[-1] + "\n")
            print(f"{workload} seed {seed}: {lines[-1]}", flush=True)
    return 0


def load(directory: Path) -> dict[str, list[dict]]:
    runs = {}
    for workload_dir in sorted(p for p in directory.iterdir() if p.is_dir()):
        files = sorted(workload_dir.glob("seed*.json"))
        if len(files) >= 2:
            runs[workload_dir.name] = [json.loads(f.read_text()) for f in files]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def failed_shares(runs: list[dict]) -> set[Fraction]:
    """The distinct failed/attempted shares of a set's runs."""
    return {Fraction(r["failed"], r["attempted"]) for r in runs}


def report_one(name: str, runs: dict[str, list[dict]], bounds: dict) -> bool:
    ok = True
    print(f"{name}")
    for workload, items in runs.items():
        shares = failed_shares(items)
        correct = all(r["correct"] for r in items)
        print(f"  {workload}: {len(items)} runs, failed share {', '.join(map(str, sorted(shares)))}"
              f"{'' if len(shares) == 1 else ' UNEQUAL'}, all correct {correct}")
        ok &= correct and len(shares) == 1
        for metric, (bound, _) in bounds.items():
            values = [r["metrics"][metric]["value"] for r in items]
            q1, median, q3 = quartiles(values)
            s = spread(values)
            steady = s < bound / 3.0
            ok &= steady
            print(f"    {metric:16s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {s:7.2%}  bound/3 {bound / 3.0:7.2%}  {'ok' if steady else 'WIDE'}")
    return ok


def compare(base: dict, change: dict, bounds: dict) -> bool:
    ok = True
    for workload in base:
        if workload not in change:
            continue
        a, b = base[workload], change[workload]
        # A gain does not count when more operations fail; fewer failures
        # (a fault mended) are fine.  Unequal shares within a set already
        # failed report_one.
        more_failed = max(failed_shares(b)) > max(failed_shares(a))
        ok &= not more_failed
        print(f"{workload}: failed share {max(failed_shares(a))} -> {max(failed_shares(b))}"
              f" {'MORE FAILED' if more_failed else 'ok'}")
        for metric, (bound, better) in bounds.items():
            va = [r["metrics"][metric]["value"] for r in a]
            vb = [r["metrics"][metric]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1.0 if better == "lower" else -1.0
            worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
            if worse_by > bound:
                verdict = "worse"
                ok = False
            elif max(spread(va), spread(vb)) > bound and not (
                max(sign * x for x in vb) < min(sign * x for x in va)
            ):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {metric:16s} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  ->  "
                  f"{qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  worse by {worse_by:+7.2%}"
                  f"  bound {bound:.0%}  {verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    c = sub.add_parser("collect", help="run every workload for a set of seeds")
    c.add_argument("--out", type=Path, required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p = sub.add_parser("compare", help="summarize one set, or compare two")
    p.add_argument("sets", type=Path, nargs="+")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.action == "collect":
        workloads = [w["name"] for w in spec["workloads"]]
        return collect(args.out, parse_seeds(args.seeds), workloads, spec["run_seconds"])
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = [load(s) for s in args.sets]
    ok = True
    for path, runs in zip(args.sets, sets):
        ok &= report_one(str(path), runs, bounds)
    if len(sets) == 2:
        ok &= compare(sets[0], sets[1], bounds)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
