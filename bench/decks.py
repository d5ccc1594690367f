"""The decks: the operations each workload replays, with their known answers.

A deck is built from the workload seed alone and written as JSON input files
for the command line.  Run this module to rebuild every deck of a seed:

    python3 bench/decks.py --seed 3 --out .bench_work/decks-3
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from planted import (
    PlantedPair,
    canonical_j,
    congruence,
    haar_orthogonal,
    in_new_coordinates,
    planted_arc,
    planted_classes,
)

# Distinct planted angle classes are at least this far apart modulo pi
# (about eight steps of the program's 512-angle rank scan).
SEPARATION = 0.1
# Non-dissipative verdict and witness pairs clear the dissipative cut by at
# least this much; dissipative ones stay this far inside it.
MARGIN = 0.3
# Condition number of every planted congruence P.
KAPPA = 4.0
# Restart budget of the witness searches on the built-in fixtures.
FIXTURE_RESTARTS = 20

WORKLOADS = ("verdicts", "certificates", "witness")

# Class multiplicities and zero radii of each planted verdict outcome.
# branch1: minrank >= 3, maxrank >= 17.  branch2: minrank 2, trivial or
# symplectic (two zero radii) radical.  degenerate: three zero radii give a
# three-dimensional radical, which no pairing makes symplectic.  Every shape
# has three angle classes, so the rank scan refines the same number of dips
# in every operation of a size.  The outcome counts per size put the median
# call in the middle of the n = 20 verdict checks (58-75 ms on the reference
# machine) and the 90th percentile inside the n = 40 ones (150-190 ms), not
# on the gap below either class.
VERDICT_SHAPES = {
    4: {"generic": ([2, 1, 1], 0)},
    10: {
        "branch2": ([8, 1, 1], 0),
        "dissipative": ([4, 3, 3], 0),
        "degenerate": ([5, 1, 1], 3),
    },
    20: {
        "branch1": ([7, 7, 6], 0),
        "branch2-symplectic": ([16, 1, 1], 2),
        "dissipative": ([7, 7, 6], 0),
        "degenerate": ([15, 1, 1], 3),
    },
    40: {
        "branch1": ([14, 13, 13], 0),
        "branch2": ([38, 1, 1], 0),
        "dissipative": ([14, 13, 13], 0),
        "degenerate": ([35, 1, 1], 3),
        "branch2-symplectic": ([36, 1, 1], 2),
    },
}
VERDICT_COMMANDS = ("check-heisenberg", "check-2step", "check-point", "pencil")

# (n, distance past the dissipative cut, copies); a negative distance is a
# dissipative pair.  Copies of a cell are one problem in new coordinates and
# cost the same, so the copy counts place the median inside the eight
# n = 20, 0.6 copies and the 90th percentile inside the six n = 10, 0.15
# copies (about 50 ms and 330 ms on the reference machine).
CERTIFICATE_CELLS = (
    (4, 0.15, 2), (4, 0.6, 2), (4, 1.2, 2), (4, -0.3, 2),
    (10, -0.3, 3), (20, -0.3, 3), (10, 1.2, 2),
    (20, 0.6, 8),
    (40, -0.3, 2), (10, 0.6, 2), (40, 1.2, 2), (40, 0.6, 1), (20, 0.3, 1),
    (10, 0.15, 6),
    (20, 0.15, 1), (40, 0.3, 1),
)

# Sizes and class multiplicities of the planted witness pairs.
WITNESS_SHAPES = {4: [1, 1, 1, 1], 10: [3, 3, 2, 2], 20: [4] * 5, 40: [5] * 8}
WITNESS_COPIES = 4

# A_re of the scaled twin is its unscaled twin's times this factor.
SCALED_TWIN_FACTOR = 1e6


@dataclass
class Op:
    """One command-line call and what its report must say."""

    key: str
    command: str
    payload: dict
    size: int
    kind: str
    truth: dict
    flags: tuple[str, ...] = ()
    kept_failing: str | None = None
    argv: list[str] = field(default_factory=list)


def skew_matrix(n: int, rng: np.random.Generator, kappa: float, zero_blocks: int = 0):
    """O (+) s_k [[0, 1], [-1, 0]] O^T with s_k spread over [1, kappa]."""
    blocks = np.geomspace(1.0, kappa, n // 2)
    blocks[:zero_blocks] = 0.0
    core = np.zeros((n, n))
    for k, s in enumerate(blocks):
        core[2 * k, 2 * k + 1] = s
        core[2 * k + 1, 2 * k] = -s
    o = haar_orthogonal(n, rng)
    j = o @ core @ o.T
    return 0.5 * (j - j.T)


def point_map(m: int, rng: np.random.Generator) -> np.ndarray:
    """T of shape m x (m + 2) with T J T^t far from degenerate."""
    while True:
        t = rng.standard_normal((m, m + 2)) / math.sqrt(m + 2)
        s = np.linalg.svd(t @ canonical_j(m + 2) @ t.T, compute_uv=False)
        if s[-1] > 1e-2 * s[0]:
            return t


def _mat(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in m]


def verdict_op(command: str, pair: PlantedPair, key: str, rng, a=None, b=None) -> Op:
    """A verdict or pencil call on a planted pair (a, b override the forms)."""
    n = pair.n
    a = pair.a if a is None else a
    b = pair.b if b is None else b
    truth = {"pair": pair, "a": a, "b": b}
    if command == "pencil":
        return Op(key, command, {"n": n, "A": _mat(a), "B": _mat(b)}, n, "pencil", truth)
    if command == "check-heisenberg":
        payload = {"d": n // 2, "A_re": _mat(a), "A_im": _mat(b)}
        truth["skew"] = [canonical_j(n)]
    elif command == "check-2step":
        # The first matrix is degenerate, so the mu search moves on.
        skew = [skew_matrix(n, rng, KAPPA, zero_blocks=1), skew_matrix(n, rng, KAPPA)]
        payload = {
            "m": n,
            "A_re": _mat(a),
            "A_im": _mat(b),
            "J_list": [_mat(j) for j in skew],
            "note": f"planted {key}",
        }
        truth["skew"] = skew
    else:
        t = point_map(n, rng)
        payload = {"n": n // 2 + 1, "m": n, "T": _mat(t), "A_re": _mat(a), "A_im": _mat(b)}
        truth["skew"] = [t @ canonical_j(n + 2) @ t.T]
    return Op(key, command, payload, n, "verdict", truth)


def close_drops_op() -> Op:
    """ROADMAP item 2: a rank-2 drop within one scan step of a shallower one."""
    theta = np.array([0.3] * 19 + [0.31, 0.3 + math.pi + 0.005])
    a = np.diag(np.concatenate([[0.0], -np.sin(theta)]))
    b = np.diag(np.concatenate([[0.0], np.cos(theta)]))
    pair = PlantedPair(
        np.concatenate([[0.0], theta + 0.5 * math.pi]),
        np.concatenate([[0.0], np.ones(21)]),
        np.eye(22),
    )
    op = verdict_op("check-heisenberg", pair, "close-drops", None, a, b)
    op.kept_failing = (
        "the 512-angle rank scan merges the rank-2 drop at 0.3 into the one "
        "at 0.31, so minrank reads 20 and the verdict NOT_LOCALLY_SOLVABLE"
    )
    return op


def twin_ops() -> list[Op]:
    """A branch-I pair and the same pair with A_re scaled: same verdict."""
    mult, zeros = VERDICT_SHAPES[20]["branch1"]
    pair = core_pair(20, mult, zeros, 0x7714)
    twin = verdict_op("check-heisenberg", pair, "twin", None)
    scaled = verdict_op("check-heisenberg", pair, "scaled-twin", None, a=SCALED_TWIN_FACTOR * pair.a)
    scaled.kept_failing = (
        f"A_re times {SCALED_TWIN_FACTOR:g}: span_rank's scale-relative cut "
        "calls A, B, C dependent, so condition (b) fails"
    )
    return [twin, scaled]


def core_pair(n: int, mult: list[int], zeros: int, *key: int, dissipative=False) -> PlantedPair:
    """The planted pair of one deck slot, drawn from the slot alone."""
    rng = np.random.default_rng(list(key))
    return planted_classes(
        n, mult, zeros, rng,
        separation=SEPARATION, kappa=KAPPA, dissipative=dissipative, margin=MARGIN,
    )


def verdicts_deck(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n, shapes in VERDICT_SHAPES.items():
        for c, command in enumerate(VERDICT_COMMANDS):
            for v, (variant, (mult, zeros)) in enumerate(shapes.items()):
                core = core_pair(n, mult, zeros, 1, n, c, v, dissipative=variant == "dissipative")
                pair = in_new_coordinates(core, rng)
                ops.append(verdict_op(command, pair, f"{command}:n{n}:{variant}", rng))
    ops.append(close_drops_op())
    ops.extend(twin_ops())
    return ops


def certificates_deck(seed: int) -> list[Op]:
    """Arc pairs at several distances past the dissipative cut.

    The alternating projections see the same problem, up to an isometry, in
    every copy of a cell and under every seed, so their iteration count is
    fixed by the cell.
    """
    rng = np.random.default_rng([seed, 2])
    ops = []
    for cell, (n, past, copies) in enumerate(CERTIFICATE_CELLS):
        core = planted_arc(n, past, 0.0, congruence(n, np.random.default_rng([2, cell]), KAPPA))
        label = "dissipative" if past < 0 else f"past{past:g}"
        for k in range(copies):
            pair = in_new_coordinates(core, rng)
            payload = {"n": n, "A": _mat(pair.a), "B": _mat(pair.b)}
            ops.append(
                Op(f"dissipativity:n{n}:{label}#{k}", "dissipativity", payload, n,
                   "certificate", {"pair": pair, "a": pair.a, "b": pair.b})
            )
    return ops


def fixture_ops() -> list[Op]:
    """Every declared witness search of the built-in corpus; all must fail."""
    from localsolv.fixtures import all_fixtures

    ops = []
    for fixture in all_fixtures():
        payload = {"n": fixture.a.dim, "A": _mat(fixture.a.matrix), "B": _mat(fixture.b.matrix)}
        if fixture.picked_c is not None:
            payload["C"] = _mat(fixture.picked_c.matrix)
        payload["J"] = _mat(fixture.structure.J)
        for mode in fixture.witness_modes:
            flag = "trans" if mode == "transversality" else "bracket"
            ops.append(
                Op(f"witness-{flag}:fixture:{fixture.key}", "witness", payload,
                   fixture.a.dim, "witness-exhausted", {"fixture": fixture.key},
                   flags=("--mode", flag, "--restarts", str(FIXTURE_RESTARTS)))
            )
    return ops


def witness_deck(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n, mult in WITNESS_SHAPES.items():
        for k in range(WITNESS_COPIES):
            pair = in_new_coordinates(core_pair(n, mult, 0, 3, n, k), rng)
            payload = {"n": n, "A": _mat(pair.a), "B": _mat(pair.b)}
            for flag in ("trans", "bracket"):
                ops.append(
                    Op(f"witness-{flag}:n{n}#{k}", "witness", payload, n, "witness-found",
                       {"a": pair.a, "b": pair.b, "mode": flag}, flags=("--mode", flag))
                )
    return ops + fixture_ops()


BUILDERS = {"verdicts": verdicts_deck, "certificates": certificates_deck, "witness": witness_deck}


def build_deck(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)


def write_deck(ops: list[Op], directory: Path) -> None:
    """Write each op's input file and fill in its command-line arguments."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        path = directory / f"{i:03d}.json"
        path.write_text(json.dumps(op.payload))
        op.argv = [op.command, str(path), *op.flags]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write every deck of a seed")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        ops = build_deck(workload, args.seed)
        write_deck(ops, args.out / workload)
        index = [{"key": op.key, "argv": op.argv, "kept_failing": op.kept_failing} for op in ops]
        (args.out / workload / "deck.json").write_text(json.dumps(index, indent=1))
        print(f"{workload}: {len(ops)} operations in {args.out / workload}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
