"""Benchmark of the localsolv command line: one workload, one seed, one run.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Set-up times the imports in a fresh interpreter, builds the workload's deck
from the seed and writes its JSON inputs under .bench_work/, five times, and
reports the median.  After one untimed replay of the deck, whole replays are
timed, one call of localsolv.cli.main at a time in this process, while
another replay fits in --seconds and until MIN_SAMPLES calls were timed.
Every report is then checked.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (the end-to-end ones with
--trace 0, the per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread, set before numpy loads, here and in the import probes.  The
# load is one client making one call at a time; on these sizes a second
# OpenBLAS thread keeps the other core busy without speeding a call up, and
# makes each call wait for that core, so any other process on it slows the
# run (on a 2-vCPU virtual machine, a certificates replay took about 35%
# longer beside one busy process with the default two threads, and no longer
# with one thread).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Timed calls per run: at least ten of them lie beyond the 90th percentile.
MIN_SAMPLES = 100
# Set-up rounds per run; their median is reported.
SETUP_REPEATS = 5
# Run by a fresh interpreter: prints the seconds its imports take.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, localsolv.cli; print(time.perf_counter() - t)"
)


def import_program():
    """Import localsolv.cli from this checkout."""
    if not (SRC / "localsolv" / "cli.py").is_file():
        raise SystemExit(f"run.py: no program source at {SRC / 'localsolv'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import localsolv.cli

    if Path(localsolv.cli.__file__).resolve().parent != SRC / "localsolv":
        raise SystemExit(f"run.py: imported localsolv from {localsolv.cli.__file__}, not {SRC}")
    return localsolv.cli


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and localsolv.cli."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def call(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """One in-process CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def replay(cli, ops, samples: list[float], outputs: Counter) -> float:
    """Call every op once, appending its time and counting its (op, report).

    Returns the wall seconds of the replay.  `outputs` holds one copy of
    each distinct report, so its memory does not grow with the replays.
    """
    start = time.perf_counter()
    for i, op in enumerate(ops):
        seconds, code, out, err = call(cli, op.argv)
        samples.append(seconds)
        outputs[(i, code, out, err)] += 1
    return time.perf_counter() - start


def judge(ops, outputs: Counter, check) -> tuple[int, list[str]]:
    """Reports among `outputs` that are wrong, and reasons for unplanned ones.

    Each distinct report is checked once.
    """
    reasons = {key: check(ops[key[0]], *key[1:]) for key in outputs}
    wrong = sum(count for key, count in outputs.items() if reasons[key] is not None)
    unplanned = sorted(
        f"{ops[key[0]].key}: {reason}"
        for key, reason in reasons.items()
        if reason is not None and ops[key[0]].kept_failing is None
    )
    return wrong, unplanned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    cli = import_program()
    import checks
    import decks
    import tracing

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # A set-up round: the imports of a fresh interpreter, then building
        # the deck and writing its files.
        setup = []
        for _ in range(SETUP_REPEATS):
            imports = import_seconds()
            start = time.perf_counter()
            ops = decks.build_deck(args.workload, args.seed)
            decks.write_deck(ops, work)
            setup.append(imports + time.perf_counter() - start)

        # Untimed warm-up replay: it pays the one-off costs of first calls.
        warmup: Counter = Counter()
        replay(cli, ops, [], warmup)
        samples: list[float] = []
        outputs: Counter = Counter()
        plain: list[float] = []  # wall seconds of each untraced replay
        traced: list[float] = []  # and of each traced one, with --trace 1
        tracer = tracing.Tracer() if args.trace else None
        # Whole replays only, while another step fits in --seconds.  With
        # --trace 1 a step is an untraced replay and a traced one, so the
        # tracing overhead is taken between neighbours.
        while True:
            plain.append(replay(cli, ops, samples, outputs))
            if tracer:
                tracer.install()
                try:
                    traced.append(replay(cli, ops, samples, outputs))
                finally:
                    tracer.uninstall()
            elapsed = sum(plain) + sum(traced)
            if len(samples) >= MIN_SAMPLES and elapsed * (1 + 1 / len(plain)) > args.seconds:
                break

        failed, unplanned = judge(ops, outputs, checks.check)
        _, unplanned_warmup = judge(ops, warmup, checks.check)
        unplanned = sorted(set(unplanned) | set(unplanned_warmup))
        for reason in unplanned:
            print(f"WRONG {reason}", file=sys.stderr)
        if args.trace:
            metrics = tracing.layer_metrics(tracer, len(traced), len(ops))
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            metrics["trace.overhead_pct"] = 100.0 * overhead
            wanted = spec["per_layer"]
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "ops_per_s": len(ops) / statistics.median(plain),
                # The median operation's mean time over the replays.  On a
                # shared machine whose speed switches between two levels
                # within a second, the median of the pooled calls jumps
                # between the two; each operation's mean moves smoothly with
                # the share of fast time.
                "latency_p50_ms": 1000.0 * statistics.median(
                    statistics.fmean(samples[i::len(ops)]) for i in range(len(ops))
                ),
                "latency_p90_ms": 1000.0 * statistics.quantiles(samples, n=10, method="inclusive")[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
        missing = {m["name"] for m in wanted} ^ set(metrics)
        if missing:
            raise SystemExit(f"run.py: metrics and BENCHMARK.json disagree on {sorted(missing)}")
        result = {
            "correct": not unplanned,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
