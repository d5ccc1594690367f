"""Verdicts do not depend on the scales of A and B, nor on the other changes
the theory allows: the scale of the pairing, a symplectic congruence, a
phase rotation of A + iB and the sign convention of the bracket.

The pairs come from the benchmark's planted pencils (bench/planted.py, read
only), whose ranks, radicals and dissipativity are known by construction.
"""

import importlib.util
import json
import math
import pathlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localsolv import (
    Branch,
    CertificateStatus,
    HeisenbergOperatorSpec,
    PointSymbolSpec,
    RadicalStatus,
    StructureConstants,
    SymmetricForm,
    SymplecticStructure,
    TwoStepGroupSpec,
    VerdictOutcome,
    heisenberg_verdict,
    point_symbol_verdict,
    poisson_bracket,
    step_reduction,
    trace_certificate,
    two_step_verdict,
)
from localsolv.errors import DegeneratePairingError, GradingError
from localsolv.cli import main
from conftest import (
    branch_one_instance,
    commuting_pair,
    haar_congruence,
    position_embedding,
    random_traceless_form,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses and `checks` look it up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.get(name) for name in ("planted", "checks")}
    try:
        yield SimpleNamespace(planted=_load("planted"), checks=_load("checks"))
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def family(bench, seed, mult=(17, 1, 1), zeros=1):
    """A planted n = 20 pair: classes `mult`, `zeros` zero radii, kappa 4."""
    return bench.planted.planted_classes(
        20, list(mult), zeros, np.random.default_rng([seed, 0x3E0]), separation=0.3, kappa=4.0
    )


def outcome(verdict):
    h = verdict.hypothesis
    return verdict.outcome, h.minrank, h.maxrank, h.radical_status, verdict.condition_c


def cli_report(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([command, str(path)])
    out = capsys.readouterr().out
    return code, json.loads(out)["result"] if out else None


def cli_outcome(tmp_path, capsys, a, b):
    payload = {"d": len(a) // 2, "A_re": a.tolist(), "A_im": b.tolist()}
    code, result = cli_report(tmp_path, capsys, "check-heisenberg", payload)
    assert code == 0
    h = result["hypothesis"]
    return (
        VerdictOutcome(result["outcome"]),
        h["minrank"],
        h["maxrank"],
        RadicalStatus(h["radical_status"]),
        Branch(result["condition_c"]),
    )


def verdict_both_ways(tmp_path, capsys, a, b):
    """The verdict of heisenberg_verdict, checked equal to check-heisenberg's."""
    spec = HeisenbergOperatorSpec(len(a) // 2, SymmetricForm(a), SymmetricForm(b))
    verdict = outcome(heisenberg_verdict(spec))
    assert cli_outcome(tmp_path, capsys, a, b) == verdict
    return verdict


# ---------------------------------------------------------------------------
# separate scaling: a lost drop must not become NOT_LOCALLY_SOLVABLE

DEGENERATE_DROP = (VerdictOutcome.INCONCLUSIVE, 2, 19, RadicalStatus.DEGENERATE, Branch.NONE)


@pytest.mark.parametrize("seed", [0, 3, 16])
def test_scaled_real_part_keeps_the_deep_drop(bench, tmp_path, capsys, seed):
    # With A_re x 1e6 every drop lies within 1.5e-5 of pi/2; the 17-fold drop
    # to rank 2 was lost and branch I claimed
    pair = family(bench, seed)
    assert verdict_both_ways(tmp_path, capsys, 1e6 * pair.a, pair.b) == DEGENERATE_DROP


@pytest.mark.parametrize("fa, fb", [(1e5, 1.0), (1e6, 1.0), (1e9, 1.0), (1.0, 1e6)])
def test_scaled_family_keeps_its_verdict(bench, tmp_path, capsys, fa, fb):
    for seed in range(100):
        pair = family(bench, seed)
        verdict = verdict_both_ways(tmp_path, capsys, fa * pair.a, fb * pair.b)
        assert verdict == DEGENERATE_DROP, seed


@pytest.mark.parametrize("fa", [1e6, 1e9])
def test_scaled_branch_two_family(bench, tmp_path, capsys, fa):
    # no zero radius: minrank 2, maxrank 20 and a trivial radical, branch II
    expected = (VerdictOutcome.NOT_LOCALLY_SOLVABLE, 2, 20, RadicalStatus.TRIVIAL, Branch.II)
    for seed in range(40):
        pair = family(bench, seed, mult=(18, 1, 1), zeros=0)
        assert verdict_both_ways(tmp_path, capsys, fa * pair.a, pair.b) == expected, seed


def certificate_report(outcome):
    return {
        "verdict": outcome.verdict.kind.value,
        "certificate_status": outcome.status.value,
        "certificate": {"Q": outcome.certificate.q.tolist()} if outcome.found else None,
    }


@pytest.mark.parametrize("n", [18, 20])
@pytest.mark.parametrize("seed", [1, 2])
def test_scaled_branch_one_pairs(bench, tmp_path, capsys, n, seed):
    # a traceless pair with A x 1e6: the inertia check used to raise
    a, b = branch_one_instance(n, seed)
    a, b = 1e6 * a.matrix, b.matrix
    assert verdict_both_ways(tmp_path, capsys, a, b)[:1] == (VerdictOutcome.NOT_LOCALLY_SOLVABLE,)
    outcome = trace_certificate(SymmetricForm(a), SymmetricForm(b))
    assert outcome.status is CertificateStatus.FOUND
    truth = {"pair": SimpleNamespace(dissipative=False), "a": a, "b": b}
    bench.checks.check_certificate(SimpleNamespace(truth=truth), certificate_report(outcome))


def test_cli_pencil_and_certificate_at_a_billion(bench, tmp_path, capsys):
    # the element at theta ~ pi/2 was taken for zero: both commands exited 2
    pair = family(bench, 0)
    a, b = 1e9 * pair.a, pair.b
    payload = {"n": 20, "A": a.tolist(), "B": b.tolist()}
    code, pencil = cli_report(tmp_path, capsys, "pencil", payload)
    assert code == 0
    assert (pencil["maxrank"], pencil["minrank"]) == (pair.maxrank, pair.minrank)
    ranks = sorted(drop["rank"] for drop in pencil["drop_points"])
    assert ranks == sorted(rank for _, rank in pair.drop_points())
    code, result = cli_report(tmp_path, capsys, "dissipativity", payload)
    assert code == 0
    truth = {"pair": pair, "a": a, "b": b}
    bench.checks.check_certificate(SimpleNamespace(truth=truth), result)


# ---------------------------------------------------------------------------
# scaling of the pairing: the bracket's rounding noise must not become a
# third direction of span{A, B, C}


def scaled_two_step(s):
    """The Poisson-commuting d = 17 pair with its commutator matrix s J."""
    a, b = commuting_pair(17, np.random.default_rng(0xC0))
    return {"m": 34, "A_re": a.tolist(), "A_im": b.tolist(),
            "J_list": [(s * SymplecticStructure.canonical(34).J).tolist()]}


def scaled_point(s, keep_ambient=True):
    """Point data T = L^-1 E (E keeps 34 of 36 coordinates, a symplectic
    subset) with forms L^t A0 L, A0 and B0 on the position block: they commute
    under the reduced pairing L^t J L.  T is scaled by s.  With `keep_ambient`
    the forms are scaled by 1 / s^2, so the ambient forms T^t A T stay as they
    are and only the reduced pairing changes scale."""
    d = 17
    rng = np.random.default_rng(0xC1)
    a0, b0 = np.zeros((2 * d, 2 * d)), np.zeros((2 * d, 2 * d))
    a0[:d, :d] = random_traceless_form(d, rng).matrix
    b0[:d, :d] = random_traceless_form(d, rng).matrix
    ell = haar_congruence(2 * d, rng)
    t = np.linalg.solve(ell, position_embedding(d))
    a, b = (ell.T @ f @ ell / (s**2 if keep_ambient else 1.0) for f in (a0, b0))
    return {"n": d + 1, "m": 2 * d, "T": (s * t).tolist(), "A_re": a.tolist(), "A_im": b.tolist()}


def point_spec(p):
    return PointSymbolSpec(
        p["n"], p["m"], np.array(p["T"]), SymmetricForm(p["A_re"]), SymmetricForm(p["A_im"])
    )


def assert_commuting_verdict(verdict):
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.condition_a and verdict.condition_c is Branch.I
    assert not verdict.condition_b


@pytest.mark.parametrize("s", [1.0, 1e4, 1e8, 1e12, 1e16, 1e20, 1e30])
def test_scaled_commutator_matrix_keeps_condition_b_false(s):
    # s = 1e12 to 1e20 gave NOT_LOCALLY_SOLVABLE with condition (b) true
    p = scaled_two_step(s)
    spec = TwoStepGroupSpec(
        p["m"], tuple(np.array(j) for j in p["J_list"]),
        SymmetricForm(p["A_re"]), SymmetricForm(p["A_im"]),
    )
    assert_commuting_verdict(two_step_verdict(spec))


@pytest.mark.parametrize("s", [1e-5, 1.0, 1e3, 1e5, 1e6, 1e8])
def test_scaled_point_map_keeps_condition_b_false(s):
    # s = 1e5 and 1e6 gave NOT_LOCALLY_SOLVABLE with condition (b) true
    assert_commuting_verdict(point_symbol_verdict(point_spec(scaled_point(s))))


@pytest.mark.parametrize("s", [1e-3, 1e2, 1e3, 1e5, 1e8])
def test_point_map_scaled_alone_passes_the_pullback_check(s):
    # with the forms left as they are, T x 100 and up raised ConsistencyError:
    # the bracket pullback was compared with tol max(|C|_F, 1), and a
    # commuting pair's C is rounding noise
    assert_commuting_verdict(point_symbol_verdict(point_spec(scaled_point(s, keep_ambient=False))))


def test_perturbed_pullback_still_raises(monkeypatch):
    # the ambient bracket off by 1e-6 of its scale 4 |A_big|_F |B_big|_F
    from localsolv import checker
    from localsolv.errors import ConsistencyError

    def perturbed(a, b, structure):
        c = poisson_bracket(a, b, structure)
        if a.dim == 36:
            c = SymmetricForm(c.matrix + 4e-6 * a.frobenius() * b.frobenius() * np.eye(36))
        return c

    monkeypatch.setattr(checker, "poisson_bracket", perturbed)
    with pytest.raises(ConsistencyError, match="bracket pullback"):
        point_symbol_verdict(point_spec(scaled_point(1e3, keep_ambient=False)))


def test_point_map_scaled_alone_through_the_cli(tmp_path, capsys):
    # `localsolv check-point` exited 3 at T x 1e3 ("bracket pullback residual
    # 6.831e-02 exceeds 1.061e-09")
    payload = scaled_point(1e3, keep_ambient=False)
    code, result = cli_report(tmp_path, capsys, "check-point", payload)
    assert code == 0
    assert result["outcome"] == "INCONCLUSIVE"
    assert result["condition_b"] is False


@pytest.mark.parametrize("command, payload", [
    ("check-2step", scaled_two_step(1e16)),
    ("check-point", scaled_point(1e6)),
])
def test_scaled_pairing_through_the_cli(tmp_path, capsys, command, payload):
    code, result = cli_report(tmp_path, capsys, command, payload)
    assert code == 0
    assert result["outcome"] == "INCONCLUSIVE"
    assert result["condition_b"] is False


# ---------------------------------------------------------------------------
# input defects are decided at the input's own scale: no scale passes one

DEFECT_SCALES = [1.0, 1e-9, 1e-12]


def one_third_symmetric(s):
    """s (J_can + I/2) on R^4: its symmetric part is a third of its norm."""
    return s * (SymplecticStructure.canonical(4).J + 0.5 * np.eye(4))


@pytest.mark.parametrize("s", DEFECT_SCALES)
def test_non_skew_pairing_rejected_at_every_scale(s):
    # at s = 1e-9 and 1e-12 all three accepted it: the cut had a floor of 1e-9
    j = one_third_symmetric(s)
    forms = SymmetricForm(np.eye(4)), SymmetricForm(np.diag([1.0, -1.0, 1.0, -1.0]))
    for build in (
        lambda: SymplecticStructure(j),
        lambda: SymplecticStructure.from_bracket_matrix(j),
        lambda: TwoStepGroupSpec(4, (j,), *forms),
    ):
        with pytest.raises(ValueError, match="not skew-symmetric"):
            build()


@pytest.mark.parametrize("s", DEFECT_SCALES)
def test_degenerate_pairing_raises_its_own_error(s):
    # a plain ValueError before; rank 2 on R^4 at every scale
    j = np.zeros((4, 4))
    j[0, 1], j[1, 0] = s, -s
    for build in (SymplecticStructure, SymplecticStructure.from_bracket_matrix):
        with pytest.raises(DegeneratePairingError, match="degenerate"):
            build(j)


@pytest.mark.parametrize("s", DEFECT_SCALES)
@pytest.mark.parametrize("argv, field", [
    (["check-2step"], "J_list[0]"),
    (["witness", "--mode", "bracket", "--restarts", "2"], "J"),
    (["bracket"], "J"),
], ids=["check-2step", "witness", "bracket"])
def test_non_skew_pairing_is_an_input_error_at_every_scale(tmp_path, capsys, s, argv, field):
    # check-2step exited 0 at s = 1e-9 and 1e-12; witness and bracket exited 0
    # at every s, having antisymmetrized J with a warning
    j = one_third_symmetric(s).tolist()
    a, b = np.eye(4).tolist(), np.diag([1.0, -1.0, 1.0, -1.0]).tolist()
    payload = (
        {"m": 4, "A_re": a, "A_im": b, "J_list": [j]}
        if argv[0] == "check-2step"
        else {"n": 4, "A": a, "B": b, "J": j}
    )
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {field}") and "not skew-symmetric" in err


def heisenberg_constants(f, defect):
    """[X, Y] = Z on (X, Y, Z), graded (1, 1, 2), times f, with one defect."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = f, -f
    if defect == "antisymmetry":
        c[1, 0, 2] = -0.5 * f
    elif defect == "grading":
        c[0, 1, 0], c[1, 0, 0] = 0.5 * f, -0.5 * f  # [X, Y] = Z + X/2
    return c


@pytest.mark.parametrize("f", [1.0, 1e-6, 1e-12])
def test_structure_constant_defects_at_every_scale(f):
    # at f = 1e-12 both defects passed, and the grading one was dropped
    forms = SymmetricForm(np.eye(2)), SymmetricForm(np.diag([1.0, -1.0]))
    spec = step_reduction(StructureConstants(3, heisenberg_constants(f, None), (1, 1, 2)), *forms)
    assert np.array_equal(spec.j_list[0], [[0.0, f], [-f, 0.0]])
    with pytest.raises(ValueError, match="not antisymmetric"):
        StructureConstants(3, heisenberg_constants(f, "antisymmetry"), (1, 1, 2))
    # with [X, Z] = X the Jacobi sum over X, Y, Z is [Y, [Z, X]] = Z
    c = heisenberg_constants(f, None)
    c[0, 2, 0], c[2, 0, 0] = f, -f
    with pytest.raises(ValueError, match="Jacobi"):
        StructureConstants(3, c, (1, 1, 2))
    constants = StructureConstants(3, heisenberg_constants(f, "grading"), (1, 1, 2))
    with pytest.raises(GradingError, match=r"bracket \[0,1\] hits basis vector 0"):
        step_reduction(constants, *forms)


@pytest.mark.parametrize("f", [1.0, 1e-6, 1e-12])
def test_grading_defect_through_reduce_step(tmp_path, capsys, f):
    # exited 0 at f = 1e-12, giving J_list [[0, 1e-12], [-1e-12, 0]]
    lie = {"dim": 3, "grading": [1, 1, 2], "c": [[0, 1, 2, f], [0, 1, 0, 0.5 * f]]}
    path = tmp_path / "lie.json"
    path.write_text(json.dumps(lie))
    assert main(["reduce-step", str(path)]) == 2
    assert "the grading demands layer 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# invariance, as a property


def symplectic_matrix(d, rng):
    """[[X, 0], [0, X^-T]] [[I, Y], [0, I]]: X has singular values in [1, 2],
    and Y is symmetric with entries of about 1/4."""
    u, v = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    x = u @ np.diag(np.geomspace(1.0, 2.0, d)) @ v.T
    y = 0.25 * rng.standard_normal((d, d))
    shear = np.block([[np.eye(d), y + y.T], [np.zeros((d, d)), np.eye(d)]])
    return np.block([[x, np.zeros((d, d))], [np.zeros((d, d)), np.linalg.inv(x).T]]) @ shear


def transformed(a, b, kind, rng):
    """(A, B) after one change that leaves every condition as it is."""
    n = len(a)
    if kind == "scale":
        i, j = rng.integers(-150, 151, 2)
        return 10.0 ** i * a, 10.0 ** j * b
    if kind == "symplectic":
        s = symplectic_matrix(n // 2, rng)
        return s.T @ a @ s, s.T @ b @ s
    if kind == "phase":
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return math.cos(phi) * a - math.sin(phi) * b, math.sin(phi) * a + math.cos(phi) * b
    # momenta listed first: an anti-symplectic swap flips the bracket's sign
    d = n // 2
    swap = np.block([[np.zeros((d, d)), np.eye(d)], [np.eye(d), np.zeros((d, d))]])
    return swap @ a @ swap, swap @ b @ swap


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 10),
    classes=st.integers(2, 5),
    zeros=st.integers(0, 2),
    dissipative=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_verdict_is_invariant(bench, d, classes, zeros, dissipative, seed):
    n = 2 * d
    assume(classes + zeros <= n)
    rng = np.random.default_rng(seed)
    # class sizes: the first takes what the others leave
    rest = rng.integers(1, 3, classes - 1)
    mult = [n - zeros - int(rest.sum())] + rest.tolist()
    assume(mult[0] >= 1)
    try:
        pair = bench.planted.planted_classes(
            n, mult, zeros, rng, separation=0.3, kappa=4.0, dissipative=dissipative
        )
    except ValueError:  # no draw of these classes clears the cut
        assume(False)
    a, b = pair.a, pair.b
    spec = HeisenbergOperatorSpec(d, SymmetricForm(a), SymmetricForm(b))
    reference = outcome(heisenberg_verdict(spec))
    assert reference[1:3] == (pair.minrank, pair.maxrank)
    for kind in ("scale", "symplectic", "phase", "swap"):
        a2, b2 = transformed(a, b, kind, rng)
        spec = HeisenbergOperatorSpec(d, SymmetricForm(a2), SymmetricForm(b2))
        assert outcome(heisenberg_verdict(spec)) == reference, kind
        if kind == "scale":
            scaled = SymmetricForm(a2), SymmetricForm(b2)
    # the separately scaled pair through the point route, radical check included
    spec = PointSymbolSpec(d + 1, n, position_embedding(d), *scaled)
    assert outcome(point_symbol_verdict(spec)) == reference, "point, scaled pair"
    # the same pair through a scaled commutator matrix and a scaled point map
    forms = SymmetricForm(a), SymmetricForm(b)
    k = int(rng.integers(-10, 11))
    spec = TwoStepGroupSpec(n, (10.0**k * SymplecticStructure.canonical(n).J,), *forms)
    assert outcome(two_step_verdict(spec)) == reference, ("pairing", k)
    k = int(rng.integers(-10, 11))
    spec = PointSymbolSpec(d + 1, n, 10.0**k * position_embedding(d), *forms)
    assert outcome(point_symbol_verdict(spec)) == reference, ("point", k)
