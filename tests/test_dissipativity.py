"""Non-dissipativity decisions and trace certificates.

The reference oracle is a dense scan of the smallest eigenvalue over 10^4
directions; verdicts must agree with it, and every certificate is checked
directly against the defining trace identities.
"""

from dataclasses import replace

import numpy as np
import pytest

from localsolv import (
    CertificateStatus,
    SymmetricForm,
    is_non_dissipative,
    trace_certificate,
)
from localsolv import dissipativity, rank_profile, witness
from localsolv._numeric import CERT_REL, EIG_REL
from localsolv.dissipativity import Dissipativity
from localsolv.fixtures import all_fixtures
from localsolv.forms import SymplecticStructure
from localsolv.pencil import pencil_element, unit_pair
from conftest import (
    CLOSE_DROP_INDICES,
    close_drop_pairs,
    congruent_pair,
    dissipative_pair,
    haar_congruence,
    l1_block,
    random_symmetric,
    scale_bound,
    traceless_pair,
)


def scan_oracle(a, b, grid=10_000, extra=()):
    """Max over the full circle of the smallest eigenvalue of the combination,
    sampled on `grid` equally spaced angles and at the `extra` angles."""
    thetas = np.concatenate([np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False), extra])
    best = -np.inf
    for chunk in np.array_split(thetas, max(1, len(thetas) // 1000)):
        m = np.cos(chunk)[:, None, None] * a.matrix + np.sin(chunk)[:, None, None] * b.matrix
        best = max(best, float(np.max(np.linalg.eigvalsh(m)[:, 0])))
    return best


def test_psd_sum_is_dissipative():
    a = SymmetricForm(np.diag([1.0, 0.0]))
    b = SymmetricForm(np.diag([0.0, 1.0]))
    verdict = is_non_dissipative(a, b)
    assert not verdict.non_dissipative
    # the found combination really is PSD and nonzero
    m = np.cos(verdict.theta) * a.matrix + np.sin(verdict.theta) * b.matrix
    assert np.linalg.eigvalsh(m)[0] >= -scale_bound(EIG_REL, a, b)
    assert np.linalg.norm(m) > 1e-9


def test_hyperbolic_pair_is_non_dissipative():
    # every combination has negative determinant
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm([[0.0, 1.0], [1.0, 0.0]])
    verdict = is_non_dissipative(a, b)
    assert verdict.non_dissipative
    assert verdict.extreme_min_eig < 0.0
    assert verdict.extreme_min_eig == pytest.approx(scan_oracle(a, b), abs=1e-6)


def test_quartet_counterexample_pair_non_dissipative():
    a = np.zeros((4, 4))
    a[0, 3] = a[3, 0] = 0.5
    a[1, 2] = a[2, 1] = 0.5
    b = np.zeros((4, 4))
    b[0, 2] = b[2, 0] = 0.5
    b[1, 3] = b[3, 1] = -0.5
    assert is_non_dissipative(SymmetricForm(a), SymmetricForm(b)).non_dissipative


def test_both_zero_rejected():
    with pytest.raises(ValueError):
        is_non_dissipative(SymmetricForm.zero(3), SymmetricForm.zero(3))


def test_dependent_span_indefinite_generator():
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm.zero(2)
    assert is_non_dissipative(a, b).non_dissipative


def test_dependent_span_semidefinite_generator():
    a = SymmetricForm(np.diag([1.0, 0.0]))
    verdict = is_non_dissipative(a, SymmetricForm(-3.0 * a.matrix))
    assert not verdict.non_dissipative
    m = np.cos(verdict.theta) * a.matrix + np.sin(verdict.theta) * (-3.0 * a.matrix)
    assert np.linalg.eigvalsh(m)[0] >= -1e-12
    assert np.linalg.norm(m) > 1e-9


def test_dependent_span_negative_semidefinite_generator():
    a = SymmetricForm(np.diag([-1.0, -2.0]))
    b = SymmetricForm(2.0 * a.matrix)
    verdict = is_non_dissipative(a, b)
    assert not verdict.non_dissipative
    m = np.cos(verdict.theta) * a.matrix + np.sin(verdict.theta) * b.matrix
    assert np.linalg.eigvalsh(m)[0] >= -1e-12


def test_random_verdicts_match_scan_oracle(rng):
    for k in range(12):
        n = int(rng.integers(2, 7))
        a = SymmetricForm(random_symmetric(n, rng))
        b = SymmetricForm(random_symmetric(n, rng))
        verdict = is_non_dissipative(a, b)
        oracle = scan_oracle(a, b, grid=4_000)
        slack = scale_bound(EIG_REL, a, b)
        if oracle > 1e-6:
            assert not verdict.non_dissipative
        elif oracle < -1e-6:
            assert verdict.non_dissipative
        # refined extreme must be at least as high as the dense-scan maximum
        assert verdict.extreme_min_eig >= oracle - max(1e-9, 100 * slack)


def test_traceless_pairs_are_non_dissipative(rng):
    for n in (3, 6, 9):
        a, b = traceless_pair(n, rng)
        assert is_non_dissipative(a, b).non_dissipative


def test_constructed_dissipative_pairs_detected(rng):
    for n in (3, 5, 8):
        a, b, theta = dissipative_pair(n, rng)
        verdict = is_non_dissipative(a, b)
        assert not verdict.non_dissipative
        # witness angle locates a genuinely PSD nonzero combination
        m = np.cos(verdict.theta) * a.matrix + np.sin(verdict.theta) * b.matrix
        assert np.linalg.eigvalsh(m)[0] >= -scale_bound(EIG_REL, a, b)
        assert np.linalg.norm(m) >= 1e-9


def test_congruence_invariance(rng):
    for _ in range(5):
        a, b = traceless_pair(5, rng)
        a2, b2, _ = congruent_pair(a, b, rng)
        assert is_non_dissipative(a2, b2).non_dissipative
    for _ in range(5):
        a, b, _ = dissipative_pair(5, rng)
        a2, b2, _ = congruent_pair(a, b, rng)
        assert not is_non_dissipative(a2, b2).non_dissipative


def test_certificate_for_traceless_pair_is_scaled_identity():
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm([[0.0, 1.0], [1.0, 0.0]])
    outcome = trace_certificate(a, b)
    assert outcome.found
    cert = outcome.certificate
    assert np.allclose(cert.q, cert.q[0, 0] * np.eye(2))
    assert cert.residual_a <= scale_bound(CERT_REL, a, b)
    assert cert.residual_b <= scale_bound(CERT_REL, a, b)
    assert cert.min_eig_q > 0.0


def test_certificate_infeasible_for_dissipative_pair():
    outcome = trace_certificate(
        SymmetricForm(np.diag([1.0, 0.0])), SymmetricForm(np.diag([0.0, 1.0]))
    )
    assert outcome.status is CertificateStatus.INFEASIBLE
    assert outcome.verdict.theta is not None


def test_certificates_under_random_congruence(rng):
    for _ in range(6):
        a0, b0 = traceless_pair(12, rng)
        a, b, _ = congruent_pair(a0, b0, rng)
        outcome = trace_certificate(a, b)
        assert outcome.found
        cert = outcome.certificate
        q = cert.q
        tol = scale_bound(CERT_REL, a, b)
        # defining identities, recomputed from scratch
        assert abs(np.trace(q @ a.matrix @ q)) <= tol
        assert abs(np.trace(q @ b.matrix @ q)) <= tol
        assert np.linalg.eigvalsh(q)[0] > 0.0
        # soundness: a certificate implies the scan agrees
        assert is_non_dissipative(a, b).non_dissipative


def trace_normalized(a, b):
    """(Q A Q, Q B Q, Q) for the certificate Q: coordinates where both traces vanish."""
    q = trace_certificate(a, b).certificate.q
    return q @ a.matrix @ q, q @ b.matrix @ q, q


def test_trace_normalize_traceless_fixed_point():
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm([[0.0, 1.0], [1.0, 0.0]])
    a2, b2, q = trace_normalized(a, b)
    assert np.allclose(q, q[0, 0] * np.eye(2))
    assert np.allclose(a2, q[0, 0] ** 2 * a.matrix)


def test_trace_normalize_kills_traces(rng):
    a0, b0 = traceless_pair(6, rng)
    a, b, _ = congruent_pair(a0, b0, rng)
    a2, b2, q = trace_normalized(a, b)
    tol = scale_bound(CERT_REL, a, b)
    assert abs(np.trace(a2)) <= tol
    assert abs(np.trace(b2)) <= tol


# ---------------------------------------------------------------------------
# the decision against a dense scan


def assert_agrees(a, b, verdict, oracle, margin=1e-6):
    """The decision matches a decisive oracle value; a DISSIPATIVE angle is PSD."""
    assert abs(oracle) > margin, oracle
    assert verdict.non_dissipative == (oracle < 0.0), (oracle, verdict)
    if not verdict.non_dissipative:
        m = np.cos(verdict.theta) * a.matrix + np.sin(verdict.theta) * b.matrix
        assert np.linalg.eigvalsh(m)[0] >= -scale_bound(EIG_REL, a, b)
        assert verdict.extreme_min_eig >= -scale_bound(EIG_REL, a, b)


def planted_pair(phi, radii, p):
    """P^T diag(r cos phi) P, P^T diag(r sin phi) P: dissipative exactly when
    every phi with r != 0 lies in one closed half-circle."""
    a = p.T @ np.diag(radii * np.cos(phi)) @ p
    b = p.T @ np.diag(radii * np.sin(phi)) @ p
    return SymmetricForm(a), SymmetricForm(b)


def spread_angles(n, spread, rng):
    """n angles whose closed hull on the circle has length `spread` (at most
    2 pi): the ends, the middle and n - 3 more inside, then one rotation.
    They lie in a closed half-circle exactly when spread <= pi."""
    inner = rng.uniform(0.0, spread, n - 3)
    return np.concatenate([[0.0, 0.5 * spread, spread], inner]) + rng.uniform(0.0, 2.0 * np.pi)


def test_decision_matches_scan_oracle_on_random_pairs():
    # random pairs shifted along a random direction by a multiple of the
    # identity, so that both outcomes occur
    outcomes = {True: 0, False: 0}
    for index in range(300):
        rng = np.random.default_rng([index, 0xD1CE])
        n = int(rng.integers(2, 13))
        shift = rng.uniform(0.0, 2.5) * np.sqrt(n)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        a = SymmetricForm(random_symmetric(n, rng) + shift * np.cos(phi) * np.eye(n))
        b = SymmetricForm(random_symmetric(n, rng) + shift * np.sin(phi) * np.eye(n))
        verdict = is_non_dissipative(a, b)
        assert_agrees(a, b, verdict, scan_oracle(a, b, grid=2_000))
        outcomes[verdict.non_dissipative] += 1
    assert min(outcomes.values()) >= 100


@pytest.mark.parametrize("n", [4, 10, 20])
@pytest.mark.parametrize("delta", [-0.05, -0.01, -0.001, 0.001, 0.01, 0.05])
def test_decision_on_planted_arc_pairs(n, delta):
    # angles spread over pi + delta: dissipative below the cut (delta < 0),
    # non-dissipative above it; a congruence hides the layout
    rng = np.random.default_rng([n, int(1e4 * (delta + 1.0)), 0xA4C])
    phi = spread_angles(n, np.pi + delta, rng)
    radii = rng.uniform(0.5, 2.0, n)
    a, b = planted_pair(phi, radii, haar_congruence(n, rng))
    verdict = is_non_dissipative(a, b)
    assert verdict.non_dissipative == (delta > 0.0)
    assert_agrees(a, b, verdict, scan_oracle(a, b, grid=20_000), margin=1e-7)


@pytest.mark.parametrize("n, k", [(4, 1), (4, 2), (8, 3), (12, 1), (12, 10)])
def test_decision_finds_psd_element_at_a_single_singular_angle(n, k):
    # M(theta0) = P, PSD of rank k; the other form is indefinite on ker P,
    # so no other element is PSD and a scan steps over the only one
    rng = np.random.default_rng([n, k, 0x51A])
    psd = np.diag(np.concatenate([rng.uniform(0.5, 2.0, k), np.zeros(n - k)]))
    other = random_symmetric(n, rng)
    other[k:, k:] = np.diag(np.resize([1.0, -1.0], n - k))
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    a0 = np.cos(theta0) * psd - np.sin(theta0) * other
    b0 = np.sin(theta0) * psd + np.cos(theta0) * other
    p = haar_congruence(n, rng)
    a, b = SymmetricForm(p.T @ a0 @ p), SymmetricForm(p.T @ b0 @ p)
    verdict = is_non_dissipative(a, b)
    assert verdict.kind is Dissipativity.DISSIPATIVE
    gap = abs(verdict.theta - theta0) % (2.0 * np.pi)
    assert min(gap, 2.0 * np.pi - gap) < 1e-6
    assert scan_oracle(a, b) < -1e-6
    assert scan_oracle(a, b, extra=[verdict.theta]) >= -scale_bound(EIG_REL, a, b)
    m = np.cos(verdict.theta) * a.matrix + np.sin(verdict.theta) * b.matrix
    assert np.linalg.eigvalsh(m)[0] >= -scale_bound(EIG_REL, a, b)


def test_decision_on_definite_pairs():
    for index in range(20):
        rng = np.random.default_rng([index, 0xDEF])
        n = int(rng.integers(3, 13))
        g = rng.standard_normal((n, n))
        definite = g @ g.T + 0.1 * np.eye(n)
        other = random_symmetric(n, rng)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        a = SymmetricForm(np.cos(phi) * definite - np.sin(phi) * other)
        b = SymmetricForm(np.sin(phi) * definite + np.cos(phi) * other)
        verdict = is_non_dissipative(a, b)
        assert verdict.kind is Dissipativity.DISSIPATIVE
        assert_agrees(a, b, verdict, scan_oracle(a, b, grid=2_000))


@pytest.mark.parametrize("kind", ["kernel", "l1"])
def test_decision_on_singular_pencils(kind):
    outcomes = {True: 0, False: 0}
    for index in range(30):
        rng = np.random.default_rng([index, 0x5106])
        n = int(rng.integers(3, 9))
        spread = np.pi + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
        phi = spread_angles(n, spread, rng)
        radii = rng.uniform(0.5, 2.0, n)
        a0, b0 = np.diag(radii * np.cos(phi)), np.diag(radii * np.sin(phi))
        if kind == "kernel":
            extra_a = extra_b = np.zeros((2, 2))
        else:
            extra_a, extra_b = l1_block()
        a0 = np.block([[a0, np.zeros((n, len(extra_a)))], [np.zeros((len(extra_a), n)), extra_a]])
        b0 = np.block([[b0, np.zeros((n, len(extra_b)))], [np.zeros((len(extra_b), n)), extra_b]])
        p = haar_congruence(len(a0), rng)
        a, b = SymmetricForm(p.T @ a0 @ p), SymmetricForm(p.T @ b0 @ p)
        verdict = is_non_dissipative(a, b)
        # an L1 block is indefinite at every angle: it leaves no PSD element
        assert verdict.non_dissipative == (spread > np.pi or kind == "l1")
        # every element vanishes on the kernel, so a PSD one has min eigenvalue 0
        oracle = scan_oracle(a, b, grid=2_000)
        assert oracle < -1e-6 or abs(oracle) < 1e-12
        assert verdict.non_dissipative == (oracle < -1e-6)
        outcomes[verdict.non_dissipative] += 1
    assert outcomes[True] >= 10
    assert kind == "l1" or outcomes[False] >= 10


def test_condition_a_reads_no_drops(monkeypatch):
    # angles 0, 0.1, 2.5, 4.0 lie in no half-circle; a profile that loses a
    # drop or splits one into two must not reach condition (a)
    rng = np.random.default_rng(0x0D5)
    phi = np.array([0.0, 0.1, 2.5, 4.0]) + rng.uniform(0.0, 2.0 * np.pi)
    a, b = planted_pair(phi, rng.uniform(0.5, 2.0, 4), haar_congruence(4, rng))
    original = witness.rank_profile
    edits = [lambda drops: drops[1:], lambda drops: drops + ((drops[0][0] + 2e-6, drops[0][1]),)]
    for edit in edits:
        def edited(*args, **kwargs):
            profile = original(*args, **kwargs)
            return replace(profile, drop_points=edit(profile.drop_points))

        monkeypatch.setattr(witness, "rank_profile", edited)
        assert witness.hypothesis_report(a, b, SymplecticStructure.canonical(4)).nondissipative


def test_hypothesis_report_runs_the_pencil_once_and_no_scan(monkeypatch):
    rng = np.random.default_rng(0x4E9)
    pairs = [traceless_pair(6, rng), dissipative_pair(6, rng)[:2]]
    expected = [is_non_dissipative(a, b).non_dissipative for a, b in pairs]
    calls = []
    original = witness.rank_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verdict path must not refine extreme_min_eig")

    monkeypatch.setattr(witness, "rank_profile", counted)
    monkeypatch.setattr(dissipativity, "_max_min_eig", forbidden)
    monkeypatch.setattr(dissipativity, "is_non_dissipative", forbidden)
    monkeypatch.setattr(witness, "is_non_dissipative", forbidden, raising=False)
    structure = SymplecticStructure.canonical(6)
    for (a, b), nondissipative in zip(pairs, expected):
        calls.clear()
        report = witness.hypothesis_report(a, b, structure)
        assert len(calls) == 1
        assert report.nondissipative == nondissipative


# ---------------------------------------------------------------------------
# extreme_min_eig: the maximum over the circle of the smallest eigenvalue


@pytest.fixture
def extremes(monkeypatch):
    """Every (value, (lo, theta, hi)) that the refinement of extreme_min_eig returns."""
    calls = []
    original = dissipativity._max_min_eig

    def recorded(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(dissipativity, "_max_min_eig", recorded)
    return calls


def assert_extreme(a, b, extremes, grid):
    """extreme_min_eig is lambda_min at the angle the refinement returned, so
    never above the maximum, and never below the scan oracle by more than
    1e-12 (|A|_F + |B|_F).  Returns the verdict."""
    extremes.clear()
    verdict = is_non_dissipative(a, b)
    ((value, (_, theta, _)),) = extremes
    scale = a.frobenius() + b.frobenius()
    assert verdict.extreme_min_eig == value
    m = np.cos(theta) * a.matrix + np.sin(theta) * b.matrix
    assert np.linalg.eigvalsh(m)[0] == pytest.approx(value, rel=1e-13, abs=1e-14 * scale)
    assert value >= scan_oracle(a, b, grid=grid) - 1e-12 * scale
    return verdict


def shifted_random_pairs():
    """700 shifted random pairs as in the decision test, n = 2 to 12."""
    for index in range(700):
        rng = np.random.default_rng([index, 0xE17])
        n = int(rng.integers(2, 13))
        shift = rng.uniform(0.0, 2.0) * np.sqrt(n)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        a = SymmetricForm(random_symmetric(n, rng) + shift * np.cos(phi) * np.eye(n))
        b = SymmetricForm(random_symmetric(n, rng) + shift * np.sin(phi) * np.eye(n))
        yield a, b


def test_extreme_min_eig_on_random_pairs(extremes):
    # 300 of each kind
    outcomes = {True: 0, False: 0}
    for a, b in shifted_random_pairs():
        outcomes[assert_extreme(a, b, extremes, grid=1_000).non_dissipative] += 1
    assert min(outcomes.values()) >= 300, outcomes


def extreme_cases():
    """Arc pairs on both sides of the cut, the fixtures (among them kinks of
    lambda_min and the quartet, where it is constant) and pairs whose forms
    share a kernel, so that 0 is an eigenvalue at every angle."""
    for n in (4, 10, 20, 40):
        for past in (-0.05, -0.001, 0.001, 0.05):
            rng = np.random.default_rng([n, int(1e4 * (past + 1.0)), 0xE19])
            yield pytest.param(*arc_pair(n, past, rng), id=f"arc-{n}-{past}")
    for fixture in all_fixtures():
        yield pytest.param(fixture.a, fixture.b, id=fixture.key)
    for index in range(20):
        rng = np.random.default_rng([index, 0xE18])
        n = int(rng.integers(4, 10))
        spread = np.pi + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
        radii = rng.uniform(0.5, 2.0, n)
        radii[: 1 + index % 2] = 0.0
        pair = planted_pair(spread_angles(n, spread, rng), radii, haar_congruence(n, rng))
        yield pytest.param(*pair, id=f"kernel-{index}")


@pytest.mark.parametrize("a, b", extreme_cases())
def test_extreme_min_eig_on_arcs_fixtures_and_kernels(a, b, extremes):
    assert_extreme(a, b, extremes, grid=5_000 if a.dim <= 10 else 2_000)


def test_polish_cost_on_random_pairs(linalg_calls, monkeypatch):
    # the golden section it replaced spent 50 eigvalsh calls on every round
    rounds = []
    original = dissipativity._polish

    def recorded(*args):
        before = dict(linalg_calls)
        result = original(*args)
        rounds.append([linalg_calls[name] - before[name] for name in ("eigh", "eigvalsh")])
        return result

    monkeypatch.setattr(dissipativity, "_polish", recorded)
    for a, b in shifted_random_pairs():
        is_non_dissipative(a, b)
    eigh, eigvalsh = np.array(rounds).T
    assert len(rounds) >= 700
    assert eigvalsh.sum() == 0
    assert eigh.mean() <= 10.0, eigh.mean()


def test_level_set_screen_skips_only_arcs_that_fail_cholesky(monkeypatch):
    # a midpoint whose least Rayleigh quotient is at most c cannot clear
    # c + margin; the screen must also be active somewhere
    rounds = []
    original = dissipativity._level_arcs

    def recorded(a, b, c, theta):
        rounds.append((a, b, c, original(a, b, c, theta)))
        return rounds[-1][-1]

    monkeypatch.setattr(dissipativity, "_level_arcs", recorded)
    for a, b in shifted_random_pairs():
        is_non_dissipative(a, b)
    for case in extreme_cases():
        is_non_dissipative(*case.values)
    skipped = 0
    for a, b, c, (mids, _, _, bounds) in rounds:
        level = (c + dissipativity._LEVEL_REL * (a.frobenius() + b.frobenius())) * np.eye(a.dim)
        for mid in mids[bounds <= c]:
            assert not dissipativity._positive_definite(pencil_element(a, b, mid).matrix - level)
            skipped += 1
    assert skipped > 0


# ---------------------------------------------------------------------------
# one power of two at the boundary: the whole float range


SCALES = [1e-300, 1e-150, 1e150, 1e160, 1e300]


@pytest.mark.parametrize("s", SCALES)
def test_hyperbolic_pair_at_extreme_scales(s):
    a = SymmetricForm(s * np.diag([1.0, -1.0]))
    b = SymmetricForm(s * np.array([[0.0, 1.0], [1.0, 0.0]]))
    profile = rank_profile(a, b)
    assert (profile.maxrank, profile.minrank, profile.drop_points) == (2, 2, ())
    verdict = is_non_dissipative(a, b)
    assert verdict.kind is Dissipativity.NON_DISSIPATIVE
    assert verdict.extreme_min_eig / s == pytest.approx(-1.0)


@pytest.mark.parametrize("s", SCALES)
def test_dissipative_pair_at_extreme_scales(s):
    rng = np.random.default_rng(0x5CA1E)
    a1, b1, _ = dissipative_pair(4, rng)
    a, b = SymmetricForm(s * a1.matrix), SymmetricForm(s * b1.matrix)
    reference = is_non_dissipative(a1, b1)
    verdict = is_non_dissipative(a, b)
    assert verdict.kind is Dissipativity.DISSIPATIVE
    assert verdict.theta == pytest.approx(reference.theta, abs=1e-12)
    m = np.cos(verdict.theta) * a1.matrix + np.sin(verdict.theta) * b1.matrix
    assert np.linalg.eigvalsh(m)[0] >= -scale_bound(EIG_REL, a1, b1)
    assert verdict.extreme_min_eig / s == pytest.approx(reference.extreme_min_eig)


@pytest.mark.parametrize("s", [1.0, 1e6])
def test_one_line_span_extreme_is_at_the_callers_scale(s):
    # it read -0.7071 at every s: max(lambda_min, -lambda_max) of the unit generator
    verdict = is_non_dissipative(SymmetricForm(s * np.diag([1.0, -1.0])), SymmetricForm.zero(2))
    assert verdict.kind is Dissipativity.NON_DISSIPATIVE
    assert verdict.extreme_min_eig == pytest.approx(-s, rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 1e6])
@pytest.mark.parametrize("diag, kind", [
    ([2.0, -1.0, 0.5], Dissipativity.NON_DISSIPATIVE),
    ([2.0, 1.0, 0.5], Dissipativity.DISSIPATIVE),
], ids=["indefinite", "definite"])
def test_one_line_span_extreme_of_a_multiple_pair(s, diag, kind):
    # A = D, B = -3D: the elements of largest norm are +-sqrt(10) D
    d = s * np.diag(diag)
    verdict = is_non_dissipative(SymmetricForm(d), SymmetricForm(-3.0 * d))
    assert verdict.kind is kind
    assert verdict.extreme_min_eig == pytest.approx(np.sqrt(10.0) * s * min(diag), rel=1e-12)
    if kind is Dissipativity.DISSIPATIVE:
        grid = np.linspace(0.0, 2.0 * np.pi, 4001)
        scan = max(np.linalg.eigvalsh(np.cos(t) * d - 3.0 * np.sin(t) * d)[0] for t in grid)
        assert verdict.extreme_min_eig == pytest.approx(scan, rel=1e-6)
        theta = verdict.theta
        at_theta = np.linalg.eigvalsh(np.cos(theta) * d - 3.0 * np.sin(theta) * d)[0]
        assert at_theta <= verdict.extreme_min_eig * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# closed-form certificates from support points


def assert_certified(a, b, outcome):
    """FOUND, and Q passes the benchmark's check: Q > 0 and
    |tr(Q F Q)| <= 2e-8 (||A||_F + ||B||_F) tr(Q^2) for F = A, B.
    Returns lambda_min(Q)."""
    assert outcome.status is CertificateStatus.FOUND, outcome.status
    q = outcome.certificate.q
    tol = 2e-8 * (a.frobenius() + b.frobenius()) * np.trace(q @ q)
    for f in (a, b):
        assert abs(np.trace(q @ f.matrix @ q)) <= tol
    lowest = float(np.linalg.eigvalsh(q)[0])
    assert lowest > 0.0
    return lowest


def arc_pair(n, past, rng):
    """Unit radii at n angles evenly spread over an arc of length pi + past,
    under a random congruence: the pair lies `past` beyond the dissipative cut."""
    phi = rng.uniform(0.0, 2.0 * np.pi) + (np.pi + past) / (n - 1) * np.arange(n)
    return planted_pair(phi, np.ones(n), haar_congruence(n, rng))


@pytest.mark.parametrize("n, past", [(4, 0.001), (10, 0.001), (20, 0.05), (40, 0.05)])
def test_certificate_close_to_the_cut(n, past):
    a, b = arc_pair(n, past, np.random.default_rng([n, 0xCE47]))
    assert_certified(a, b, trace_certificate(a, b))


@pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.key)
def test_certificate_for_every_fixture(fixture):
    lowest = assert_certified(fixture.a, fixture.b, trace_certificate(fixture.a, fixture.b))
    if fixture.key == "picked-c-full-rank-d5":
        # Its support points (+-1, 0) and (0, +-1/2) put the origin on an edge
        # of every triangle of them; eps comes from the depth along -tau.
        assert lowest > 0.1


def test_certificates_on_seeded_pairs():
    # congruent traceless pairs, congruent diagonal pairs with angles round
    # the circle, and arc pairs from 1e-3 to 1 past the cut, 100 of each
    for index in range(300):
        rng = np.random.default_rng([index, 0xCE47])
        n = int(rng.integers(3, 21))
        kind = index % 3
        if kind == 0:
            a, b, _ = congruent_pair(*traceless_pair(n, rng), rng)
        elif kind == 1:
            while True:
                phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
                if np.max(np.diff(np.append(phi, phi[0] + 2.0 * np.pi))) < np.pi - 1e-3:
                    break
            a, b = planted_pair(phi, rng.uniform(0.5, 2.0, n), haar_congruence(n, rng))
        else:
            a, b = arc_pair(n, 10.0 ** rng.uniform(-3.0, 0.0), rng)
        outcome = trace_certificate(a, b)
        assert_certified(a, b, outcome)
        assert outcome.iterations <= 32


@pytest.mark.parametrize(
    "generator, factor",
    [([1.0, -1.0], 0.0), ([1.0, -1.0], 3.0), ([2.0, -1.0], 3.0), ([2.0, -1.0, 0.5], 0.0)],
)
def test_certificate_for_one_dimensional_span(generator, factor):
    # A and B = factor * A span one line; the range is a segment through 0
    a = SymmetricForm(np.diag(generator))
    b = SymmetricForm(factor * a.matrix)
    outcome = trace_certificate(a, b)
    assert_certified(a, b, outcome)
    assert outcome.iterations == (0 if sum(generator) == 0.0 else 1)
    # only the certificate builds the segment's P
    assert dissipativity._decision(unit_pair(a, b))[1:] == (None, None, 0)


# ---------------------------------------------------------------------------
# the support decision: a proving P, or the level-set maximum


def assert_proves_non_dissipative(a, b, p):
    """P proves that no element of the unit pair has lambda_min >= -EIG_REL:
    tr P = 1, delta = max |tr(P F^)| <= CERT_REL, and lambda_min(P) (mu -
    sqrt(n) EIG_REL) > sqrt(2) delta + EIG_REL with mu = sqrt(1 - |<A^, B^>|)."""
    an, bn = a.matrix / a.frobenius(), b.matrix / b.frobenius()
    assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
    delta = max(abs(np.trace(p @ an)), abs(np.trace(p @ bn)))
    mu = np.sqrt(1.0 - abs(np.sum(an * bn)))
    assert delta <= CERT_REL
    lowest = np.linalg.eigvalsh(p)[0]
    assert lowest * (mu - np.sqrt(a.dim) * EIG_REL) > np.sqrt(2.0) * delta + EIG_REL


def test_close_drop_pairs_are_proved_non_dissipative():
    # drops 1e-4 apart with a nearly singular pencil between them: reading
    # the inertia between drops failed on these 13 of 300 pairs
    pairs = {i: (a, b) for i, a, b in close_drop_pairs(max(CLOSE_DROP_INDICES) + 1)}
    for index in CLOSE_DROP_INDICES:
        a, b = pairs[index]
        verdict, p, _, calls = dissipativity._support_decision(unit_pair(a, b))
        assert verdict.non_dissipative, index
        assert_proves_non_dissipative(a, b, p)
        assert calls <= 4
        assert is_non_dissipative(a, b).non_dissipative
        assert trace_certificate(a, b).found


@pytest.mark.parametrize("past", [1e-6, 1e-7])
@pytest.mark.parametrize("n", [4, 10, 20, 40])
def test_arc_pairs_just_past_the_cut(n, past, monkeypatch):
    # so close to the cut that the search's P may miss the gate; then the
    # level-set maximum decides, and the certificate's own check still passes
    fallbacks = []
    original = dissipativity._max_min_eig

    def recorded(pair, arc):
        fallbacks.append(original(pair, arc))
        return fallbacks[-1]

    monkeypatch.setattr(dissipativity, "_max_min_eig", recorded)
    for s in range(5):
        a, b = arc_pair(n, past, np.random.default_rng([n, s, 0xC07]))
        fallbacks.clear()
        verdict, p, _, _ = dissipativity._support_decision(unit_pair(a, b))
        assert verdict.non_dissipative
        if fallbacks:
            ((value, _),) = fallbacks
            assert value < -EIG_REL
        else:
            assert_proves_non_dissipative(a, b, p)
        if n == 40 and past == 1e-7 and s in (1, 4):
            assert fallbacks
        assert_certified(a, b, trace_certificate(a, b))


# The seven pairs of `test_arc_pairs_just_past_the_cut` whose support search
# falls back to `_max_min_eig`, keyed (n, past, s), with the `eigh` calls that
# `trace_certificate` spent on each when its diagnostic polished again from
# the coarse support arc (292 in all).
FALLBACK_EIGH_FROM_THE_SUPPORT_ARC = {
    (20, 1e-7, 0): 48,
    (20, 1e-7, 3): 44,
    (20, 1e-7, 4): 46,
    (40, 1e-6, 3): 40,
    (40, 1e-7, 1): 45,
    (40, 1e-7, 3): 37,
    (40, 1e-7, 4): 32,
}


def test_diagnostic_starts_at_the_fallback_maximum(linalg_calls, extremes):
    # 189 calls in all once the diagnostic starts where the fallback ended
    spent = {}
    for (n, past, s), before in FALLBACK_EIGH_FROM_THE_SUPPORT_ARC.items():
        a, b = arc_pair(n, past, np.random.default_rng([n, s, 0xC07]))
        extremes.clear()
        calls = linalg_calls["eigh"]
        outcome = trace_certificate(a, b)
        spent[n, past, s] = linalg_calls["eigh"] - calls
        assert spent[n, past, s] < before, (n, past, s)
        assert_certified(a, b, outcome)
        # the fallback, then the diagnostic from the arc the fallback returned
        (fallback, _), (value, (_, theta, _)) = extremes
        assert fallback < -EIG_REL
        assert outcome.verdict.extreme_min_eig == value
        scale = a.frobenius() + b.frobenius()
        m = np.cos(theta) * a.matrix + np.sin(theta) * b.matrix
        assert np.linalg.eigvalsh(m)[0] == pytest.approx(value, rel=1e-13, abs=1e-14 * scale)
        assert value >= scan_oracle(a, b, grid=2_000) - 1e-12 * scale
    assert sum(spent.values()) < sum(FALLBACK_EIGH_FROM_THE_SUPPORT_ARC.values())
