"""Tests of the benchmark's own code: planted truth, checks and tracing.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import decks
from planted import congruence, planted_arc, planted_classes

BENCH = Path(__file__).resolve().parent.parent

SHAPES = [
    (4, [2, 1, 1], 0, False),
    (6, [2, 2, 1, 1], 0, False),
    (6, [3, 3], 0, True),
    (10, [8, 1, 1], 0, False),
    (10, [4, 3, 3], 0, True),
    (10, [5, 1, 1], 3, False),
    (10, [6, 1, 1], 2, False),
]


def planted(n, mult, zeros, dissipative, seed):
    rng = np.random.default_rng([seed, n, zeros])
    return planted_classes(
        n, mult, zeros, rng, separation=decks.SEPARATION, kappa=decks.KAPPA,
        dissipative=dissipative, margin=decks.MARGIN,
    )


def element(pair, theta):
    return math.cos(theta) * pair.a + math.sin(theta) * pair.b


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, mult, zeros, dissipative", SHAPES)
def test_planted_truth_matches_numpy(n, mult, zeros, dissipative, seed):
    pair = planted(n, mult, zeros, dissipative, seed)
    a, b = pair.a, pair.b
    tol = 1e-9 * (np.linalg.norm(a) + np.linalg.norm(b))

    # Ranks, at a generic angle and at each planted drop.
    assert np.linalg.matrix_rank(element(pair, 0.123), tol) == pair.maxrank
    drops = pair.drop_points()
    assert min(np.linalg.matrix_rank(element(pair, t), tol) for t, _ in drops) == pair.minrank
    for theta, rank in drops:
        assert np.linalg.matrix_rank(element(pair, theta), tol) == rank

    if zeros == 0:
        # The drops are the generalized eigenvalues of (A, B): A x = lam B x
        # makes cos(t) A + sin(t) B singular at tan(t) = -lam.
        lam = np.linalg.eigvals(np.linalg.solve(b, a))
        assert np.max(np.abs(lam.imag)) < 1e-6 * (1.0 + np.max(np.abs(lam.real)))
        found = np.sort(np.mod(np.arctan(-lam.real), math.pi))
        expected = np.sort(
            [np.mod(t, math.pi) for t, r in drops if t < math.pi for _ in range(pair.maxrank - r)]
        )
        gaps = np.abs(found - expected)
        assert np.max(np.minimum(gaps, math.pi - gaps)) < 1e-6

    # The joint radical is the null space of the stacked forms.
    _, s, vh = np.linalg.svd(np.vstack([a, b]))
    null = vh[int(np.count_nonzero(s > tol)):].T
    basis = pair.radical_basis()
    assert null.shape[1] == basis.shape[1] == zeros
    if zeros:
        assert np.linalg.norm(null - basis @ (basis.T @ null)) < 1e-8

    # Dissipative exactly when some direction gives a PSD element.
    thetas = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    best = max(np.linalg.eigvalsh(element(pair, t))[0] for t in thetas)
    assert (best > 0.0) == pair.dissipative == dissipative


def test_arc_pairs_sit_at_their_distance_past_the_cut():
    p = congruence(6, np.random.default_rng(0), decks.KAPPA)
    for past in (-0.3, 0.15, 0.6, 1.2):
        pair = planted_arc(6, past, 0.7, p)
        assert pair.past_cut == pytest.approx(past)
        assert pair.dissipative == (past < 0)


def run_cli(op, tmp_path):
    decks.write_deck([op], tmp_path)
    from localsolv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.argv)
    return code, out.getvalue(), err.getvalue()


def corrupt(out, edit):
    report = json.loads(out)
    edit(report["result"])
    return json.dumps(report)


def test_check_rejects_a_perturbed_witness(tmp_path):
    for op in decks.witness_deck(0)[:2]:
        code, out, err = run_cli(op, tmp_path)
        assert checks.check(op, code, out, err) is None

        def nudge(result):
            z = np.asarray(result["witness"]["point"])
            z[0] += 1e-4
            result["witness"]["point"] = list(z / np.linalg.norm(z))

        reason = checks.check(op, code, corrupt(out, nudge), err)
        assert reason is not None and "|z^T" in reason


def test_check_rejects_a_certificate_with_a_negative_eigenvalue(tmp_path):
    op = decks.certificates_deck(0)[2]
    assert not op.truth["pair"].dissipative
    code, out, err = run_cli(op, tmp_path)
    assert checks.check(op, code, out, err) is None

    def flip(result):
        q = np.asarray(result["certificate"]["Q"])
        w, u = np.linalg.eigh(q)
        w[0] = -w[0]
        result["certificate"]["Q"] = ((u * w) @ u.T).tolist()

    reason = checks.check(op, code, corrupt(out, flip), err)
    assert reason is not None and "positive definite" in reason


def test_check_rejects_a_psd_claim_on_a_wrong_direction(tmp_path):
    op = next(o for o in decks.certificates_deck(0) if o.truth["pair"].dissipative)
    code, out, err = run_cli(op, tmp_path)
    assert checks.check(op, code, out, err) is None

    def turn(result):
        result["dissipative_theta"] += math.pi

    assert "PSD" in checks.check(op, code, corrupt(out, turn), err)


@pytest.mark.parametrize("command", decks.VERDICT_COMMANDS[:3])
def test_check_rejects_a_flipped_verdict(command, tmp_path):
    pair = planted(10, [8, 1, 1], 0, False, 1)
    op = decks.verdict_op(command, pair, "branch2", np.random.default_rng(5))
    code, out, err = run_cli(op, tmp_path)
    assert checks.check(op, code, out, err) is None
    assert json.loads(out)["result"]["outcome"] == "NOT_LOCALLY_SOLVABLE"

    def flip(result):
        result["outcome"] = "INCONCLUSIVE"

    assert "outcome" in checks.check(op, code, corrupt(out, flip), err)


def test_check_rejects_a_missing_drop_and_a_found_fixture_witness(tmp_path):
    pair = planted(10, [4, 3, 3], 0, True, 2)
    op = decks.verdict_op("pencil", pair, "pencil", None)
    code, out, err = run_cli(op, tmp_path)
    assert checks.check(op, code, out, err) is None
    assert "drops" in checks.check(op, code, corrupt(out, lambda r: r["drop_points"].pop()), err)

    fixture = decks.fixture_ops()[0]
    code, out, err = run_cli(fixture, tmp_path)
    assert checks.check(fixture, code, out, err) is None

    def found(result):
        result["found"] = True

    assert checks.check(fixture, code, corrupt(out, found), err) is not None


def test_decks_depend_on_the_seed_alone():
    for workload in decks.WORKLOADS:
        first = [o.payload for o in decks.build_deck(workload, 7)]
        assert first == [o.payload for o in decks.build_deck(workload, 7)]
        assert first != [o.payload for o in decks.build_deck(workload, 8)]


def test_traced_counts_repeat_and_name_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "witness", "--seed", "3",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and first["failed"] == 0
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
    # Counts per deck replay or per call do not depend on how many replays ran.
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_compare_fails_only_when_more_operations_fail(capsys):
    import compare

    def runs(failed):
        return [{"correct": True, "attempted": 110, "failed": failed,
                 "metrics": {"ops_per_s": {"value": 10.0 + 0.01 * k, "unit": "1/s"}}}
                for k in range(4)]

    bounds = {"ops_per_s": (0.25, "higher")}
    base = {"verdicts": runs(4)}
    assert compare.compare(base, {"verdicts": runs(2)}, bounds)
    assert compare.compare(base, {"verdicts": runs(4)}, bounds)
    assert not compare.compare(base, {"verdicts": runs(6)}, bounds)
    unequal = {"verdicts": runs(4)[:2] + runs(2)[2:]}
    assert not compare.report_one("unequal", unequal, bounds)
