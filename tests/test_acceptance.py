"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with pytest -s or in
captured output); a failure carries the offending instances in its assertion
message.  Tolerances are pinned here and never loosened at runtime.
"""

import json

import numpy as np
import pytest

from localsolv import (
    Branch,
    CertificateStatus,
    HeisenbergOperatorSpec,
    RadicalStatus,
    StructureConstants,
    SymmetricForm,
    SymplecticStructure,
    VerdictOutcome,
    bracket_via_hamilton,
    bracket_witness,
    containment_probe,
    heisenberg_verdict,
    hypothesis_report,
    is_non_dissipative,
    poisson_bracket,
    rank_profile,
    step_reduction,
    trace_certificate,
    transversality_witness,
    two_step_verdict,
)
from localsolv._numeric import CERT_REL, EIG_REL
from localsolv.cli import main
from localsolv.checker import PointSymbolSpec, point_symbol_verdict
from conftest import (
    branch_one_instance,
    branch_two_instance,
    congruent_pair,
    dissipative_pair,
    random_skew_structure,
    random_symmetric,
    rank2_hyperbolic,
    scale_bound,
    traceless_pair,
)

BRACKET_AGREEMENT_REL = 1e-10
JACOBI_REL = 1e-9
WITNESS_RESIDUAL_TOL = 1e-9
TRANS_MARGIN_REL = 1e-6
BRACKET_MARGIN_REL = 1e-6
PLUMBING_TOL = 1e-10


def announce(number, text):
    print(f"ACCEPTANCE PASS: criterion {number} - {text}")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_bracket_identity_and_jacobi():
    dims = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    failures = []
    for k in range(200):
        rng = np.random.default_rng([1000, k])
        n = dims[k % len(dims)]
        a = SymmetricForm(random_symmetric(n, rng))
        b = SymmetricForm(random_symmetric(n, rng))
        if k % 2 == 0:
            structure = SymplecticStructure.canonical(n)
        else:
            structure = random_skew_structure(n, rng)
        c1 = poisson_bracket(a, b, structure)
        c2 = bracket_via_hamilton(a, b, structure)
        gap = float(np.max(np.abs(c1.matrix - c2.matrix)))
        if gap > BRACKET_AGREEMENT_REL * a.frobenius() * b.frobenius():
            failures.append((k, n, gap))
    assert not failures, f"bracket routes disagree on {failures}"

    jacobi_failures = []
    for k in range(100):
        rng = np.random.default_rng([1100, k])
        n = dims[k % len(dims)]
        s = SymplecticStructure.canonical(n)
        a = SymmetricForm(random_symmetric(n, rng))
        b = SymmetricForm(random_symmetric(n, rng))
        c = SymmetricForm(random_symmetric(n, rng))
        total = (
            poisson_bracket(poisson_bracket(a, b, s), c, s).matrix
            + poisson_bracket(poisson_bracket(b, c, s), a, s).matrix
            + poisson_bracket(poisson_bracket(c, a, s), b, s).matrix
        )
        scale = a.frobenius() * b.frobenius() * c.frobenius()
        residual = float(np.max(np.abs(total)))
        if residual > JACOBI_REL * scale:
            jacobi_failures.append((k, n, residual))
    assert not jacobi_failures, f"Jacobi identity failures: {jacobi_failures}"
    announce(1, "two bracket routes agree on 200 pairs; Jacobi holds on 100 triples")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_certificate_equivalence():
    crossovers = []
    for k in range(50):
        rng = np.random.default_rng([2000, k])
        n = int(rng.integers(2, 13))
        a0, b0 = traceless_pair(n, rng)
        a, b, _ = congruent_pair(a0, b0, rng)
        verdict = is_non_dissipative(a, b)
        outcome = trace_certificate(a, b)
        ok = (
            verdict.non_dissipative
            and outcome.status is CertificateStatus.FOUND
            and outcome.certificate.residual_a <= scale_bound(CERT_REL, a, b)
            and outcome.certificate.residual_b <= scale_bound(CERT_REL, a, b)
            and outcome.certificate.min_eig_q > 0.0
        )
        if not ok:
            crossovers.append(("nondissipative", k, outcome.status.value))
    for k in range(50):
        rng = np.random.default_rng([2100, k])
        n = int(rng.integers(2, 13))
        a, b, _ = dissipative_pair(n, rng, psd_rank=int(rng.integers(1, n + 1)))
        verdict = is_non_dissipative(a, b)
        outcome = trace_certificate(a, b)
        witness_psd = False
        if verdict.theta is not None:
            m = np.cos(verdict.theta) * a.matrix + np.sin(verdict.theta) * b.matrix
            witness_psd = (
                float(np.linalg.eigvalsh(m)[0]) >= -scale_bound(EIG_REL, a, b)
                and np.linalg.norm(m) > 1e-9
            )
        ok = (
            not verdict.non_dissipative
            and witness_psd
            and outcome.status is CertificateStatus.INFEASIBLE
        )
        if not ok:
            crossovers.append(("dissipative", k, verdict.kind.value, outcome.status.value))
    assert not crossovers, f"certificate/verdict crossovers: {crossovers}"
    announce(2, "50+50 certificate and dissipativity verdicts with zero crossovers")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_containment_forces_proportionality():
    failures = []
    for k in range(50):
        rng = np.random.default_rng([3000, k])
        n = int(rng.integers(2, 11))
        a, b = traceless_pair(n, rng)
        probe = containment_probe(a, b, samples=10_000, seed=k)
        if probe.contained_evidence:
            failures.append(("independent", k, n))
        else:
            z = probe.separating_point
            if not (a(z) <= 0.0 < b(z)):
                failures.append(("bad-point", k, n))
    for k in range(10):
        rng = np.random.default_rng([3100, k])
        n = int(rng.integers(2, 11))
        a, _ = traceless_pair(n, rng)
        c = float(rng.uniform(0.25, 4.0))
        probe = containment_probe(a, SymmetricForm(c * a.matrix), samples=2_000, seed=k)
        if not probe.contained_evidence:
            failures.append(("proportional", k, n))
    assert not failures, f"containment probe failures: {failures}"
    announce(3, "separating points found for 50 independent traceless pairs")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_transversal_intersections():
    dims = [4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20]
    found = 0
    bad_witnesses = []
    for k in range(30):
        rng = np.random.default_rng([4000, k])
        n = dims[k % len(dims)]
        a, b = traceless_pair(n, rng)
        assert rank_profile(a, b).maxrank >= 3
        search = transversality_witness(a, b, seed=k)
        if not search.found:
            continue
        w = search.witness
        an = a.matrix / a.frobenius()
        bn = b.matrix / b.frobenius()
        residuals_ok = (
            abs(float(w.point @ an @ w.point)) <= WITNESS_RESIDUAL_TOL
            and abs(float(w.point @ bn @ w.point)) <= WITNESS_RESIDUAL_TOL
        )
        margin = float(
            np.linalg.svd(
                np.column_stack([a.matrix @ w.point, b.matrix @ w.point]),
                compute_uv=False,
            )[1]
        )
        if residuals_ok and margin > TRANS_MARGIN_REL * (a.frobenius() + b.frobenius()):
            found += 1
        else:
            bad_witnesses.append((k, n, margin))
    assert not bad_witnesses, f"invalid transversality witnesses: {bad_witnesses}"
    assert found >= 29, f"only {found}/30 transversality searches succeeded"

    plane_a = SymmetricForm(np.diag([1.0, -1.0]))
    plane_b = rank2_hyperbolic(2)
    for seed in range(5):
        search = transversality_witness(plane_a, plane_b, restarts=50, seed=seed)
        assert not search.found, "plane fixture produced a witness"
    announce(4, f"transversality witnesses on {found}/30 pairs; plane fixture empty")


# -- criterion 5 -------------------------------------------------------------


def _verified_bracket_witness(a, b, structure, seed):
    c = poisson_bracket(a, b, structure)
    search = bracket_witness(a, b, c, seed=seed)
    if not search.found:
        return False, "NONE_FOUND"
    w = search.witness
    an = a.matrix / a.frobenius()
    bn = b.matrix / b.frobenius()
    if abs(float(w.point @ an @ w.point)) > WITNESS_RESIDUAL_TOL:
        return False, "residual A"
    if abs(float(w.point @ bn @ w.point)) > WITNESS_RESIDUAL_TOL:
        return False, "residual B"
    value = abs(float(w.point @ c.matrix @ w.point))
    if value <= BRACKET_MARGIN_REL * c.frobenius():
        return False, "margin"
    return True, "ok"


def test_criterion_5_bracket_witnesses_both_branches():
    dims_one = [18, 20, 22, 24]
    successes, problems = 0, []
    for k in range(20):
        n = dims_one[k % len(dims_one)]
        a, b = branch_one_instance(n, seed=k)
        structure = SymplecticStructure.canonical(n)
        report = hypothesis_report(a, b, structure, seed=k)
        assert report.branch is Branch.I, f"instance {k} missed branch I: {report}"
        assert report.nondissipative and report.independent_abc
        ok, why = _verified_bracket_witness(a, b, structure, seed=k)
        if ok:
            successes += 1
        elif why != "NONE_FOUND":
            problems.append((k, why))
    assert not problems, f"invalid branch-I witnesses: {problems}"
    assert successes >= 19, f"branch I: only {successes}/20 witnesses"
    one = successes

    dims_two = [10, 12, 14, 16]
    successes, problems = 0, []
    for k in range(20):
        n = dims_two[k % len(dims_two)]
        a, b = branch_two_instance(n, seed=k)
        structure = SymplecticStructure.canonical(n)
        report = hypothesis_report(a, b, structure, seed=k)
        assert report.branch is Branch.II, f"instance {k} missed branch II: {report}"
        assert report.minrank == 2 and report.maxrank >= 9
        assert report.radical_status in (RadicalStatus.TRIVIAL, RadicalStatus.SYMPLECTIC)
        ok, why = _verified_bracket_witness(a, b, structure, seed=k)
        if ok:
            successes += 1
        elif why != "NONE_FOUND":
            problems.append((k, why))
    assert not problems, f"invalid branch-II witnesses: {problems}"
    assert successes >= 19, f"branch II: only {successes}/20 witnesses"
    announce(5, f"bracket witnesses: branch I {one}/20, branch II {successes}/20")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_counterexample_corpus(capsys):
    import importlib.resources

    import jsonschema

    code = main(["fixtures"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    schema = json.loads(
        importlib.resources.files("localsolv").joinpath("report_schema_v1.json").read_text()
    )
    jsonschema.validate(report, schema)
    assert report["result"]["all_passed"] is True
    by_key = {f["key"]: f for f in report["result"]["fixtures"]}
    assert set(by_key) == {
        "plane-rotated",
        "plane-sheared",
        "quartet-nonspanning",
        "isotropic-radical-d5",
        "picked-c-trivial-radical-d5",
        "picked-c-full-rank-d5",
    }
    for key, entry in by_key.items():
        assert entry["passed"], f"fixture {key} failed: {entry['checks']}"
        names = " ".join(c["name"] for c in entry["checks"])
        assert "non-dissipative" in names
        assert "independent" in names
        empty_checks = [c for c in entry["checks"] if "search is empty" in c["name"]]
        assert sum("bracket search" in c["name"] for c in empty_checks) == 5
        assert all(c["passed"] for c in empty_checks)
    for key in ("quartet-nonspanning", "isotropic-radical-d5"):
        names = " ".join(c["name"] for c in by_key[key]["checks"])
        assert "bracket matches" in names
        assert "maxrank" in names and "minrank" in names
    names = " ".join(c["name"] for c in by_key["isotropic-radical-d5"]["checks"])
    assert "DEGENERATE" in names
    announce(6, "all six counterexample fixtures verified, empty searches on 5 seeds")


# -- criterion 7 -------------------------------------------------------------


def coordinate_bracket_of_linear_forms(t_row_i, t_row_j, n):
    """Position-first coordinate bracket of two linear symbol components."""
    return float(t_row_i[n:] @ t_row_j[:n] - t_row_i[:n] @ t_row_j[n:])


def test_criterion_7_pullback_plumbing():
    shapes = [(m, n) for m in (2, 4, 6) for n in range(2, 7) if 2 * n >= m]
    instances = 0
    k = 0
    while instances < 30:
        m, n = shapes[instances % len(shapes)]
        rng = np.random.default_rng([7000, k])
        k += 1
        t = rng.standard_normal((m, 2 * n))
        j2n = SymplecticStructure.canonical(2 * n).J
        j_z = t @ j2n @ t.T
        s = np.linalg.svd(j_z, compute_uv=False)
        if s[-1] <= 1e-6 * s[0]:
            continue
        instances += 1
        t_norm2 = float(np.linalg.norm(t, 2)) ** 2

        # reduced pairing equals the pairwise coordinate brackets of the rows
        # (up to the documented global sign of this block ordering)
        oracle = np.array(
            [
                [coordinate_bracket_of_linear_forms(t[i], t[j], n) for j in range(m)]
                for i in range(m)
            ]
        )
        assert np.max(np.abs(j_z + oracle)) <= PLUMBING_TOL * t_norm2

        r = j2n @ t.T @ np.linalg.inv(j_z)
        p = r @ t
        assert np.max(np.abs(t @ r - np.eye(m))) <= PLUMBING_TOL
        assert np.max(np.abs(p @ p - p)) <= PLUMBING_TOL
        for probe in range(20):
            prng = np.random.default_rng([7500, k, probe])
            x, y = prng.standard_normal(2 * n), prng.standard_normal(2 * n)
            left = float(x @ j2n @ (p @ y))
            right = float((p @ x) @ j2n @ y)
            assert abs(left - right) <= PLUMBING_TOL * max(
                1.0, np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(p, 2)
            )

        a_small = SymmetricForm(random_symmetric(m, rng))
        b_small = SymmetricForm(random_symmetric(m, rng))
        a_big = 2.0 * t.T @ a_small.matrix @ t
        b_big = 2.0 * t.T @ b_small.matrix @ t
        from localsolv._numeric import numerical_rank

        for _ in range(8):
            alpha, beta = rng.standard_normal(2)
            assert numerical_rank(alpha * a_small.matrix + beta * b_small.matrix) == numerical_rank(
                alpha * a_big + beta * b_big
            )

        # the checker route re-verifies the same identities internally
        point_symbol_verdict(PointSymbolSpec(n, m, t, a_small, b_small), seed=k)
    announce(7, "pullback, projector and rank identities on 30 point instances")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_end_to_end_verdicts(capsys, tmp_path):
    d = 9
    a, b = branch_one_instance(2 * d, seed=4)
    verdict = heisenberg_verdict(HeisenbergOperatorSpec(d, a, b))
    assert verdict.outcome is VerdictOutcome.NOT_LOCALLY_SOLVABLE

    quartet_a = np.zeros((4, 4))
    quartet_a[0, 3] = quartet_a[3, 0] = 0.5
    quartet_a[1, 2] = quartet_a[2, 1] = 0.5
    quartet_b = np.zeros((4, 4))
    quartet_b[0, 2] = quartet_b[2, 0] = 0.5
    quartet_b[1, 3] = quartet_b[3, 1] = -0.5
    verdict = heisenberg_verdict(
        HeisenbergOperatorSpec(2, SymmetricForm(quartet_a), SymmetricForm(quartet_b))
    )
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.condition_c is Branch.NONE

    verdict = heisenberg_verdict(
        HeisenbergOperatorSpec(2, SymmetricForm(np.eye(4)), SymmetricForm.zero(4))
    )
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.condition_a is False

    c = np.zeros((5, 5, 5))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[2, 0, 3], c[0, 2, 3] = 1.0, -1.0
    c[2, 1, 4], c[1, 2, 4] = 1.0, -1.0
    constants = StructureConstants(5, c, (1, 1, 2, 3, 3))
    spec = step_reduction(
        constants, SymmetricForm(np.eye(2)), SymmetricForm(np.diag([1.0, -1.0]))
    )
    assert spec.m == 2 and spec.ell == 1
    assert np.allclose(spec.j_list[0], [[0.0, 1.0], [-1.0, 0.0]])
    reduced_verdict = two_step_verdict(spec)
    assert reduced_verdict.outcome in (
        VerdictOutcome.INCONCLUSIVE,
        VerdictOutcome.NOT_LOCALLY_SOLVABLE,
    )

    # determinism: identical seeds give byte-identical reports
    heis_path = tmp_path / "quartet_heis.json"
    heis_path.write_text(
        json.dumps({"d": 2, "A_re": quartet_a.tolist(), "A_im": quartet_b.tolist()})
    )
    outputs = []
    for _ in range(2):
        code = main(["check-heisenberg", str(heis_path), "--seed", "11"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    announce(8, "operator verdicts correct end to end; reports byte-identical")
