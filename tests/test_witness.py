"""Witness search on joint quadric zero sets.

Every returned witness is re-verified here from scratch: residuals of the
unit-Frobenius forms at the point, and the certified margin recomputed
directly.  Emptiness fixtures assert that no witness is found across several
seeds, and whether the search proved the set empty (EMPTY) or ran out of
restarts (EXHAUSTED).  The emptiness proof `zero_set_gap` is checked against
a dense angular sample for n = 2 and never fires on a pair with a joint zero.
"""

import functools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsolv import (
    Branch,
    RadicalStatus,
    SearchStatus,
    SymmetricForm,
    SymplecticStructure,
    bracket_witness,
    containment_probe,
    hypothesis_report,
    poisson_bracket,
    project_to_joint_zero,
    transversality_witness,
    zero_set_gap,
)
from localsolv import dissipativity, forms
from localsolv.pencil import unit_pair
from localsolv._numeric import BRACKET_REL, TRANS_REL, ZERO_TOL, golden_section_minimize, rng_for
from localsolv.witness import (
    _gauss_newton_step,
    _hill_climb,
    _project_rows,
    _stacked,
    _tangent_component,
)
from conftest import (
    branch_one_instance,
    branch_two_instance,
    haar_congruence,
    random_symmetric,
    rank2_hyperbolic,
    traceless_pair,
)


def unit_residuals(a, b, z):
    an = a.matrix / a.frobenius() if a.frobenius() else a.matrix
    bn = b.matrix / b.frobenius() if b.frobenius() else b.matrix
    return abs(float(z @ an @ z)), abs(float(z @ bn @ z))


def quartet_pair():
    a = np.zeros((4, 4))
    a[0, 3] = a[3, 0] = 0.5
    a[1, 2] = a[2, 1] = 0.5
    b = np.zeros((4, 4))
    b[0, 2] = b[2, 0] = 0.5
    b[1, 3] = b[3, 1] = -0.5
    return SymmetricForm(a), SymmetricForm(b)


def test_projection_fixed_point(rng):
    a = SymmetricForm(np.diag([1.0, -1.0, 0.0]))
    b = SymmetricForm(rank2_hyperbolic(3, 1, 2).matrix)
    z0 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)  # already on both quadrics
    z = project_to_joint_zero(a, b, z0)
    assert z is not None
    assert np.allclose(z, z0)


def test_projection_reaches_tolerance(rng):
    a = SymmetricForm(np.diag([1.0, -1.0, 0.0, 0.5, -0.5]))
    b = SymmetricForm(rank2_hyperbolic(5, 0, 3).matrix)
    for _ in range(10):
        z = project_to_joint_zero(a, b, rng.standard_normal(5))
        assert z is not None
        ra, rb = unit_residuals(a, b, z)
        assert ra <= ZERO_TOL and rb <= ZERO_TOL
        assert np.linalg.norm(z) == pytest.approx(1.0)


def test_projection_quartet_lands_on_component_planes(rng):
    # the joint zero set is {xi = 0} union {eta = 0} in the paired coordinates
    a, b = quartet_pair()
    for _ in range(10):
        z0 = rng.standard_normal(4)
        z = project_to_joint_zero(a, b, z0)
        assert z is not None
        xi = np.array([z[0], z[1]])
        eta = np.array([-z[2], z[3]])
        assert min(np.linalg.norm(xi), np.linalg.norm(eta)) <= 1e-4


def test_projection_structured_start(rng):
    a, b = quartet_pair()
    eps = 1e-3
    z = project_to_joint_zero(a, b, np.array([1.0, 1.0, eps, eps]))
    assert z is not None
    ra, rb = unit_residuals(a, b, z)
    assert max(ra, rb) <= ZERO_TOL


def test_projection_rejects_zero_start():
    a, b = quartet_pair()
    with pytest.raises(ValueError):
        project_to_joint_zero(a, b, np.zeros(4))


def test_projection_no_unit_solutions_returns_none(rng):
    # positive-definite pair: the joint zero set is the origin alone
    a = SymmetricForm(np.eye(3))
    b = SymmetricForm(np.diag([1.0, 2.0, 3.0]))
    assert project_to_joint_zero(a, b, rng.standard_normal(3)) is None


def test_transversality_witness_found_and_reverified(rng):
    for seed in range(3):
        a, b = traceless_pair(8, rng)
        search = transversality_witness(a, b, seed=seed)
        assert search.found
        w = search.witness
        ra, rb = unit_residuals(a, b, w.point)
        assert ra <= ZERO_TOL and rb <= ZERO_TOL
        stacked = np.column_stack([a.matrix @ w.point, b.matrix @ w.point])
        margin = float(np.linalg.svd(stacked, compute_uv=False)[1])
        assert margin == pytest.approx(w.margin, rel=1e-9)
        assert margin > TRANS_REL * (a.frobenius() + b.frobenius())


def test_transversality_none_found_plane_pair():
    # joint zero set of (x^2 - y^2, xy) is the origin: empty on the sphere
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = rank2_hyperbolic(2)
    for seed in range(5):
        search = transversality_witness(a, b, restarts=50, seed=seed)
        assert not search.found
        assert search.status is SearchStatus.EMPTY
        assert search.attempts == 0
        assert search.budget == 50


def test_transversality_none_found_psd_pair():
    a = SymmetricForm(np.diag([1.0, 0.0]))
    b = SymmetricForm(np.diag([0.0, 1.0]))
    search = transversality_witness(a, b, restarts=30)
    assert not search.found


def test_transversality_split_form_with_small_perturbation(rng):
    # balanced split form plus a small independent traceless perturbation:
    # a transversal crossing point is guaranteed and must be found
    a = SymmetricForm(np.diag([1.0, 1.0, -1.0, -1.0]))
    p = random_symmetric(4, rng)
    p -= np.trace(p) / 4 * np.eye(4)
    b = SymmetricForm(a.matrix + 0.05 * p)
    search = transversality_witness(a, b)
    assert search.found
    assert search.witness.margin > TRANS_REL * (a.frobenius() + b.frobenius())


def test_bracket_witness_branch_one_instance():
    a, b = branch_one_instance(18, seed=7)
    s = SymplecticStructure.canonical(18)
    c = poisson_bracket(a, b, s)
    search = bracket_witness(a, b, c, seed=1)
    assert search.found
    w = search.witness
    ra, rb = unit_residuals(a, b, w.point)
    assert ra <= ZERO_TOL and rb <= ZERO_TOL
    value = abs(float(w.point @ c.matrix @ w.point))
    assert value == pytest.approx(w.margin, rel=1e-9)
    assert value > BRACKET_REL * c.frobenius()


def test_bracket_witness_scale_invariance():
    a, b = branch_one_instance(18, seed=3)
    s = SymplecticStructure.canonical(18)
    c = poisson_bracket(a, b, s)
    base = bracket_witness(a, b, c, seed=5)
    alpha, beta = 7.5, 0.03
    scaled = bracket_witness(
        SymmetricForm(alpha * a.matrix),
        SymmetricForm(beta * b.matrix),
        SymmetricForm(alpha * beta * c.matrix),
        seed=5,
    )
    assert base.found == scaled.found
    assert np.allclose(base.witness.point, scaled.witness.point)


def test_bracket_witness_none_on_vanishing_fixture():
    # bracket vanishes identically on the joint zero set of the quartet pair
    a, b = quartet_pair()
    c = poisson_bracket(a, b, SymplecticStructure.canonical(4))
    for seed in range(5):
        search = bracket_witness(a, b, c, restarts=60, seed=seed)
        assert not search.found
        assert search.status is SearchStatus.EXHAUSTED
        assert search.attempts == search.budget == 60


def test_hypothesis_report_quartet():
    a, b = quartet_pair()
    report = hypothesis_report(a, b, SymplecticStructure.canonical(4))
    assert report.nondissipative
    assert report.independent_abc
    assert report.minrank == 4
    assert report.maxrank == 4
    assert report.radical_status is RadicalStatus.TRIVIAL
    assert report.branch is Branch.NONE


def test_hypothesis_report_isotropic_radical_family():
    d = 5
    n = 2 * d
    diag = np.zeros(n)
    diag[0] = 1.0
    diag[1 : d - 1] = -1.0
    diag[d : 2 * d - 1] = -1.0
    a = SymmetricForm(np.diag(diag))
    b = rank2_hyperbolic(n, 0, d - 1)
    report = hypothesis_report(a, b, SymplecticStructure.canonical(n))
    assert report.radical_status is RadicalStatus.DEGENERATE
    assert report.radical_dim == 1
    assert report.minrank == 2
    assert report.maxrank == 2 * d - 1
    assert report.branch is Branch.NONE


def test_hypothesis_report_branch_two_synthetic():
    a, b = branch_two_instance(10, seed=11)
    report = hypothesis_report(a, b, SymplecticStructure.canonical(10))
    assert report.minrank == 2
    assert report.maxrank == 10
    assert report.radical_status is RadicalStatus.TRIVIAL
    assert report.branch is Branch.II


def test_hypothesis_report_branch_one_synthetic():
    a, b = branch_one_instance(18, seed=2)
    report = hypothesis_report(a, b, SymplecticStructure.canonical(18))
    assert report.branch is Branch.I
    assert report.minrank >= 3
    assert report.maxrank >= 17


def test_hypothesis_report_dependent_pair():
    a = SymmetricForm(np.diag([1.0, -1.0, 0.0, 0.0]))
    report = hypothesis_report(
        a, SymmetricForm(2.0 * a.matrix), SymplecticStructure.canonical(4)
    )
    assert not report.independent_abc
    assert report.branch is Branch.NONE
    assert report.minrank == report.maxrank == 2


@pytest.fixture
def span_rank_calls(monkeypatch):
    """The list of `span_rank` calls, through every module that looks it up."""
    calls, original = [], forms.span_rank

    def counted(*args):
        calls.append(len(args))
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("localsolv") and getattr(module, "span_rank", None) is original:
            monkeypatch.setattr(module, "span_rank", counted)
    return calls


@pytest.mark.parametrize("dependent", [False, True], ids=["plane", "line"])
def test_span_is_decided_once(span_rank_calls, dependent):
    # a plane span took 3 calls: the report's own, the pencil probe's and
    # condition (a)'s; the rank profile's unit pair now makes the second
    a, b = quartet_pair()
    if dependent:
        b = SymmetricForm(-2.0 * a.matrix)
    hypothesis_report(a, b, SymplecticStructure.canonical(4))
    assert len(span_rank_calls) <= 2
    pair = unit_pair(a, b)
    span_rank_calls.clear()
    dissipativity._decision(pair)
    assert span_rank_calls == []


def test_containment_probe_multiple_of_itself():
    a = SymmetricForm(np.diag([1.0, -1.0]))
    probe = containment_probe(a, SymmetricForm(3.0 * a.matrix), samples=2000)
    assert probe.contained_evidence
    assert probe.samples_used == 2000


def test_containment_probe_separating_point():
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = rank2_hyperbolic(2)
    probe = containment_probe(a, b, samples=2000)
    assert not probe.contained_evidence
    z = probe.separating_point
    assert a(z) <= 0.0 < b(z)


def test_containment_probe_vacuous_containment():
    # Q_A > 0 away from the origin: no sample can refute containment
    a = SymmetricForm(np.eye(3))
    b = SymmetricForm(-np.eye(3))
    probe = containment_probe(a, b, samples=500)
    assert probe.contained_evidence


# -- proved-empty searches --------------------------------------------------


@functools.cache
def sampled_products(samples=200_000):
    """(x^2, 2xy, y^2) at evenly spaced unit vectors (x, y) of the half circle."""
    t = np.linspace(0.0, np.pi, samples, endpoint=False)
    x, y = np.cos(t), np.sin(t)
    return x * x, 2.0 * x * y, y * y


def dense_plane_gap(a, b):
    """Smallest squared residual norm of the unit-Frobenius pair over sampled angles."""
    xx, xy2, yy = sampled_products()
    an = a.matrix / a.frobenius()
    bn = b.matrix / b.frobenius()
    qa = an[0, 0] * xx + an[0, 1] * xy2 + an[1, 1] * yy
    qb = bn[0, 0] * xx + bn[0, 1] * xy2 + bn[1, 1] * yy
    return float(np.min(qa * qa + qb * qb))


def planted_zero_pair(n, rng):
    """Random pair with a common zero at a random unit vector."""
    z = rng.standard_normal(n)
    z /= np.linalg.norm(z)
    forms = []
    for _ in range(2):
        m = random_symmetric(n, rng)
        forms.append(SymmetricForm(m - (z @ m @ z) * np.outer(z, z)))
    return tuple(forms)


def in_random_coordinates(a, b, rng):
    t = haar_congruence(a.dim, rng)
    return SymmetricForm(t.T @ a.matrix @ t), SymmetricForm(t.T @ b.matrix @ t)


def definite_pair(n, rng):
    """Pair whose span holds a positive-definite element, in random coordinates."""
    g = rng.standard_normal((n, n))
    a = SymmetricForm(g @ g.T + 0.1 * np.eye(n))
    return in_random_coordinates(a, SymmetricForm(random_symmetric(n, rng)), rng)


def both_searches(a, b, restarts, seed=0):
    c = SymmetricForm(np.eye(a.dim))
    return (
        transversality_witness(a, b, restarts=restarts, seed=seed),
        bracket_witness(a, b, c, restarts=restarts, seed=seed),
    )


def test_plane_gap_matches_dense_sampling():
    # The exact minimum may never exceed a sampled one.  Near a zero of the
    # norm, sampling at this step can overshoot its minimum by more than 1e-8
    # (the norm has a kink there); the squared norm is smooth, so the squared
    # gap is compared.
    rng = np.random.default_rng(0x6A9)
    for _ in range(1000):
        a = SymmetricForm(random_symmetric(2, rng))
        b = SymmetricForm(random_symmetric(2, rng))
        gap, dense = zero_set_gap(a, b), dense_plane_gap(a, b)
        assert gap <= np.sqrt(dense) + 1e-14
        assert abs(gap**2 - dense) <= 1e-8


def test_plane_gap_of_the_fixture_pairs():
    a = SymmetricForm(np.diag([1.0, -1.0]))
    rotated = rank2_hyperbolic(2)
    sheared = SymmetricForm([[1.0, -0.5], [-0.5, -1.0]])
    # Both pairs are traceless, so the residual ellipse is centred at 0.
    assert zero_set_gap(a, rotated) == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert zero_set_gap(a, sheared) ** 2 == pytest.approx(dense_plane_gap(a, sheared), abs=1e-8)


def test_common_zero_line_is_never_empty():
    # (1, 1) is a common zero of x^2 - y^2 and x^2 + 2xy - 3y^2, where the
    # gradients are parallel: no transversality witness exists, but neither
    # may the search call the set empty.
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm([[1.0, 1.0], [1.0, -3.0]])
    assert zero_set_gap(a, b) <= 1e-12
    for seed in range(3):
        for search in both_searches(a, b, restarts=5, seed=seed):
            assert search.status is SearchStatus.EXHAUSTED
            assert search.attempts == search.budget == 5


def test_gap_below_the_cut_is_searched():
    # Adding 4.5e-8 times the identity to B lifts the common zero to a gap of
    # about 1e-8: far too large for any residual test, yet below the cut.
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm(np.array([[1.0, 1.0], [1.0, -3.0]]) + 4.5e-8 * np.eye(2))
    assert 5e-9 < zero_set_gap(a, b) < 2e-8
    for search in both_searches(a, b, restarts=5):
        assert search.status is SearchStatus.EXHAUSTED
        assert search.attempts == 5


@pytest.mark.parametrize("n", [3, 10, 40])
def test_definite_pairs_are_empty_in_both_modes(n):
    rng = np.random.default_rng([0xDEF, n])
    a, b = definite_pair(n, rng)
    assert zero_set_gap(a, b) > 1e-6
    for search in both_searches(a, b, restarts=30):
        assert not search.found
        assert search.status is SearchStatus.EMPTY
        assert search.attempts == 1
        assert search.budget == 30


def support_point_gap(a, b, grid=256):
    """Least |(Q_An(z), Q_Bn(z))| over bottom eigenvectors z of
    cos(t) An + sin(t) Bn, from a grid of angles t with each local minimum
    refined by golden section: a multi-start minimum over unit vectors z, so
    never below the gap.  For n >= 3 the range of (Q_An, Q_Bn) is convex, and
    the point nearest 0 is the support point whose normal points at it."""
    an, bn = a.normalized().matrix, b.normalized().matrix

    def norm(t):
        z = np.linalg.eigh(np.cos(t) * an + np.sin(t) * bn)[1][:, 0]
        return float(np.hypot(z @ an @ z, z @ bn @ z))

    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    values = [norm(t) for t in thetas]
    step = thetas[1]
    best = min(values)
    for i, t in enumerate(thetas):
        if values[i] <= min(values[i - 1], values[(i + 1) % grid]):
            best = min(best, golden_section_minimize(norm, t - step, t + step, 60)[1])
    return best


def test_gap_is_the_distance_of_the_range_from_zero():
    # the gap is exact for n >= 3 too: it matches the multi-start minimum to
    # 1e-9 and never exceeds it beyond rounding on the unit forms
    for k in range(40):
        rng = np.random.default_rng([k, 0x9A7])
        a, b = definite_pair(3 + k % 10, rng)
        gap, nearest = zero_set_gap(a, b), support_point_gap(a, b)
        assert nearest * (1.0 - 1e-9) <= gap <= nearest + 1e-14


def test_non_dissipative_pairs_are_never_empty():
    # By Calabi, for n >= 3 a non-dissipative pair has joint zeros.
    rng = np.random.default_rng(0xCA1)
    for k in range(200):
        n = 3 + k % 10
        a, b = in_random_coordinates(*traceless_pair(n, rng), rng)
        assert zero_set_gap(a, b) == 0.0
        for search in both_searches(a, b, restarts=2, seed=k):
            assert search.status is not SearchStatus.EMPTY


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_planted_joint_zero_is_never_empty_property(n, seed):
    rng = np.random.default_rng(seed)
    a, b = planted_zero_pair(n, rng)
    assert zero_set_gap(a, b) <= 1e-9
    for search in both_searches(a, b, restarts=2):
        assert search.status is not SearchStatus.EMPTY


def scale_probe_pairs():
    rng = np.random.default_rng(0x5CA)
    plane = SymmetricForm(np.diag([1.0, -1.0]))
    return [
        (plane, rank2_hyperbolic(2)),
        (plane, SymmetricForm([[1.0, -0.5], [-0.5, -1.0]])),
        (plane, SymmetricForm([[1.0, 1.0], [1.0, -3.0]])),
        definite_pair(3, rng),
        definite_pair(10, rng),
        traceless_pair(5, rng),
        planted_zero_pair(4, rng),
    ]


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_search_status_is_scale_invariant(scale):
    for a, b in scale_probe_pairs():
        base = [s.status for s in both_searches(a, b, restarts=3)]
        a2, b2 = SymmetricForm(scale * a.matrix), SymmetricForm(scale * b.matrix)
        assert [s.status for s in both_searches(a2, b2, restarts=3)] == base


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_gap_is_invariant_under_separate_scaling(scale):
    for a, b in scale_probe_pairs():
        gap = zero_set_gap(a, b)
        for sa, sb in ((scale, scale), (scale, 1.0), (1.0, scale), (scale, 1.0 / scale)):
            a2, b2 = SymmetricForm(sa * a.matrix), SymmetricForm(sb * b.matrix)
            gap2 = zero_set_gap(a2, b2)
            assert gap2 == pytest.approx(gap, rel=1e-9, abs=1e-12)
            if gap > 1e-6:
                # no witness exists, so the proof decides the status alone
                for search in both_searches(a2, b2, restarts=3):
                    assert search.status is SearchStatus.EMPTY


@pytest.mark.parametrize("sa, sb", [(1e-4, 1e4), (1e170, 1e170), (1e-150, 1e150)])
def test_transversality_witness_is_scale_invariant(sa, sb):
    # the margin is cut on the unit-Frobenius forms, and their norms are taken
    # after a power-of-two prescale, so scale changes neither path nor outcome
    a, b = traceless_pair(5, np.random.default_rng(0x5CA1))
    base = transversality_witness(a, b, restarts=10)
    a2, b2 = SymmetricForm(sa * a.matrix), SymmetricForm(sb * b.matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = transversality_witness(a2, b2, restarts=10)
    assert base.status is scaled.status is SearchStatus.FOUND
    assert base.attempts == scaled.attempts == 1
    z = scaled.witness.point
    assert np.allclose(z, base.witness.point, atol=1e-8)
    stacked = np.column_stack([a2.matrix @ z, b2.matrix @ z])
    assert scaled.witness.margin == pytest.approx(
        float(np.linalg.svd(stacked, compute_uv=False)[1]), rel=1e-9
    )


@pytest.mark.parametrize("scale", [1e50, 1e100, 1e150, 1e160, 1e170, 1e200])
def test_bracket_witness_is_invariant_under_scaling_c(scale):
    # the threshold 1e-6 ||C||_F overflowed to inf from C x 1e160 on, and the
    # search came back EXHAUSTED; it now climbs and accepts on the unit C
    a, b = traceless_pair(6, np.random.default_rng(5))
    c = poisson_bracket(a, b, SymplecticStructure.canonical(6))
    base = bracket_witness(a, b, c, restarts=10, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = bracket_witness(a, b, SymmetricForm(scale * c.matrix), restarts=10, seed=1)
    assert base.status is scaled.status is SearchStatus.FOUND
    assert base.attempts == scaled.attempts == 1
    z = scaled.witness.point
    assert np.allclose(z, base.witness.point, atol=1e-8)
    assert scaled.witness.margin / scale == pytest.approx(base.witness.margin, rel=1e-9)
    assert base.witness.margin == pytest.approx(abs(float(z @ c.matrix @ z)), rel=1e-9)


def test_found_search_has_found_status(rng):
    a, b = traceless_pair(6, rng)
    search = transversality_witness(a, b)
    assert search.found
    assert search.status is SearchStatus.FOUND
    assert search.attempts == search.witness.attempts


def test_negative_restart_budget_is_rejected():
    a, b = quartet_pair()
    with pytest.raises(ValueError, match="restarts"):
        transversality_witness(a, b, restarts=-1)


# -- the per-restart reference ------------------------------------------------
#
# The searches run their restarts in lockstep blocks with a closed-form step.
# This is the loop they replace, kept as an oracle: one restart at a time,
# with np.linalg.svd for the rank test and np.linalg.lstsq for the
# Gauss-Newton step and the tangent projection.


def ref_residual(an, bn, z):
    return np.array([z @ an @ z, z @ bn @ z])


def ref_descend(an, bn, z, direction, current):
    scale = 1.0
    for _ in range(25):
        candidate = z + scale * direction
        norm = float(np.linalg.norm(candidate))
        if norm > 1e-12:
            candidate = candidate / norm
            r = ref_residual(an, bn, candidate)
            if float(r @ r) < current:
                return candidate, True
        scale *= 0.5
    return z, False


def ref_project(an, bn, z, max_iterations=100, tol=ZERO_TOL):
    z = z / np.linalg.norm(z)
    for _ in range(max_iterations):
        r = ref_residual(an, bn, z)
        if np.max(np.abs(r)) <= tol:
            return z
        jac = np.vstack([2.0 * (an @ z), 2.0 * (bn @ z)])
        sv = np.linalg.svd(jac, compute_uv=False)
        current = float(r @ r)
        moved = False
        if sv[-1] > 1e-12 * max(sv[0], 1.0):
            delta = np.linalg.lstsq(jac, -r, rcond=None)[0]
            z, moved = ref_descend(an, bn, z, delta, current)
        if not moved:
            grad = 4.0 * (r[0] * (an @ z) + r[1] * (bn @ z))
            if np.linalg.norm(grad) == 0.0:
                return None
            z, moved = ref_descend(an, bn, z, -grad, current)
        if not moved:
            return None
    r = ref_residual(an, bn, z)
    return z if np.max(np.abs(r)) <= tol else None


def ref_hill_climb(an, bn, c, z, threshold):
    value = abs(float(z @ c @ z))
    step = 0.1
    for _ in range(50):
        if value > threshold:
            break
        sign = 1.0 if float(z @ c @ z) >= 0.0 else -1.0
        grad = 2.0 * sign * (c @ z)
        jac = np.vstack([2.0 * (an @ z), 2.0 * (bn @ z)])
        tangent = grad - jac.T @ np.linalg.lstsq(jac.T, grad, rcond=None)[0]
        if np.linalg.norm(tangent) == 0.0:
            break
        start = z + step * tangent
        if np.linalg.norm(start) <= 1e-12:
            step *= 0.5
            continue
        candidate = ref_project(an, bn, start)
        if candidate is None:
            step *= 0.5
        else:
            candidate_value = abs(float(candidate @ c @ candidate))
            if candidate_value > value * (1.0 + 1e-12):
                z, value = candidate, candidate_value
                step *= 1.3
            else:
                step *= 0.5
        if step < 1e-8:
            break
    return z, value


def ref_attempt(a, b, c, k, seed):
    """Restart k of a transversality search (c is None) or a bracket search."""
    an, bn = a.normalized().matrix, b.normalized().matrix
    salt = 0x7A11 if c is None else 0xB7AC
    z = ref_project(an, bn, rng_for(seed, salt, k).standard_normal(a.dim))
    if z is None:
        return None
    if c is None:
        z = ref_project(an, bn, z, 60, 1e-14)
        if z is None:
            return None
        second = lambda u, v: float(np.linalg.svd(np.column_stack([u, v]), compute_uv=False)[1])
        if second(an @ z, bn @ z) > 2.0 * TRANS_REL:
            return z, second(a.matrix @ z, b.matrix @ z)
        return None
    threshold = BRACKET_REL * c.frobenius()
    value = abs(float(z @ c.matrix @ z))
    if value <= threshold:
        z, value = ref_hill_climb(an, bn, c.matrix, z, threshold)
    if value <= threshold:
        return None
    z = ref_project(an, bn, z, 60, 1e-14)
    if z is None:
        return None
    value = abs(float(z @ c.matrix @ z))
    return (z, value) if value > threshold else None


def ref_search(a, b, c, restarts, seed):
    """(status, attempts, point, margin) of the per-restart loop."""
    if a.dim == 2 and zero_set_gap(a, b) > 1e-6:
        return SearchStatus.EMPTY, 0, None, None
    for k in range(restarts):
        found = ref_attempt(a, b, c, k, seed)
        if found is not None:
            return SearchStatus.FOUND, k + 1, *found
        if k == 0 and a.dim != 2 and zero_set_gap(a, b) > 1e-6:
            return SearchStatus.EMPTY, 1, None, None
    return SearchStatus.EXHAUSTED, restarts, None, None


def split_pair(n, rng):
    """(l1 l2, l1 l3) for random linear forms: the joint zero set is
    {l1 = 0}, where the gradients are parallel, joined to {l2 = l3 = 0},
    where they are transversal.  With C = l1 l4, Q_C vanishes on the first
    part alone, so a restart succeeds exactly when it lands on the second."""
    l1, l2, l3, l4 = rng.standard_normal((4, n))
    sym = lambda x, y: SymmetricForm(0.5 * (np.outer(x, y) + np.outer(y, x)))
    return sym(l1, l2), sym(l1, l3), sym(l1, l4)


def oracle_cases():
    """(a, b, c, budget, seed) for both modes; c is None for transversality."""
    rng = np.random.default_rng(0x0AC1E)
    cases = []
    for n in range(2, 13):
        for i in range(6):
            a, b = traceless_pair(n, rng)
            c = SymmetricForm(random_symmetric(n, rng))
            cases += [(a, b, None, (1, 20)[i % 2], i), (a, b, c, (20, 1)[i % 2], i)]
        if n == 2:
            continue  # a split pair in the plane meets only along {l1 = 0}
        for i in range(8):
            a, b, c = split_pair(n, rng)
            budget = (20, 65, 200, 20)[i % 4]
            cases += [(a, b, None, budget, i), (a, b, c, budget, i)]
        a, b = definite_pair(n, rng)
        cases += [(a, b, None, 20, n), (a, b, SymmetricForm(np.eye(n)), 65, n)]
    plane = SymmetricForm(np.diag([1.0, -1.0]))
    line = SymmetricForm([[1.0, 1.0], [1.0, -3.0]])
    cases += [(plane, rank2_hyperbolic(2), None, 20, 0), (plane, line, None, 20, 0)]
    a, b = quartet_pair()
    c = poisson_bracket(a, b, SymplecticStructure.canonical(4))
    cases += [(a, b, c, budget, seed) for budget, seed in ((1, 0), (20, 1), (65, 2), (200, 3))]
    return cases


def test_lockstep_searches_match_the_per_restart_loop():
    statuses, late = set(), 0
    cases = oracle_cases()
    assert len(cases) >= 300
    for a, b, c, budget, seed in cases:
        if c is None:
            search = transversality_witness(a, b, restarts=budget, seed=seed)
        else:
            search = bracket_witness(a, b, c, restarts=budget, seed=seed)
        status, attempts, point, margin = ref_search(a, b, c, budget, seed)
        assert (search.status, search.attempts, search.budget) == (status, attempts, budget)
        statuses.add(status)
        if status is SearchStatus.FOUND:
            late += attempts >= 2
            assert np.max(np.abs(search.witness.point - point)) <= 1e-12
            assert search.witness.margin == pytest.approx(margin, rel=1e-12)
    assert statuses == set(SearchStatus)
    assert late >= 20


def test_closed_form_step_is_the_least_norm_solution():
    # random and nearly rank-deficient Jacobians J = 2 [u; v], at several
    # scales, against lstsq's minimum-norm solution of J delta = -r; both
    # solvers err by up to about eps * cond(J), so the bound scales with it
    rng = np.random.default_rng(0x57E9)
    eps = np.finfo(float).eps
    for gap in (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-11):
        for _ in range(40):
            n = int(rng.integers(2, 41))
            u, w = rng.standard_normal((2, n))
            pair = np.stack([u, rng.standard_normal() * u + gap * w]) * 10.0 ** rng.integers(-3, 4)
            if rng.random() < 0.5:
                pair = pair[::-1]
            r = rng.standard_normal(2)
            jac = 2.0 * pair
            delta, full = _gauss_newton_step(pair[None].copy(), r[None])
            sv = np.linalg.svd(jac, compute_uv=False)
            assert full[0] == (sv[-1] > 1e-12 * max(sv[0], 1.0))
            if full[0]:
                ref = np.linalg.lstsq(jac, -r, rcond=None)[0]
                cond = sv[0] / sv[-1]
                assert np.linalg.norm(delta[0] - ref) <= 1e3 * cond * eps * np.linalg.norm(ref)


def test_closed_form_step_flags_rank_deficient_jacobians():
    rng = np.random.default_rng(0xDEF1)
    u = rng.standard_normal(6)
    pairs = [np.stack([u, -2.5 * u]), np.stack([np.zeros(6), u]), np.stack([u, np.zeros(6)]),
             np.zeros((2, 6))]
    _, full = _gauss_newton_step(np.stack(pairs), rng.standard_normal((4, 2)))
    assert not full.any()


def test_tangent_component_matches_lstsq_projection():
    rng = np.random.default_rng(0x7A9)
    for gap in (1.0, 1e-6, 0.0):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            u, w, g = rng.standard_normal((3, n))
            pair = np.stack([u, rng.standard_normal() * u + gap * w])
            if rng.random() < 0.3:
                pair[rng.integers(2)] = 0.0
            jac = 2.0 * pair
            ref = g - jac.T @ np.linalg.lstsq(jac.T, g, rcond=None)[0]
            tangent = _tangent_component(pair[None], g[None])[0]
            assert np.linalg.norm(tangent - ref) <= 1e-9 * np.linalg.norm(g)


def test_lockstep_hill_climb_matches_the_per_restart_loop():
    # The searches above rarely climb.  Here every row climbs |Q_C| for a
    # random C toward 0.2 ||C||_F, from points on the joint zero set.  (Near
    # 1e-6 ||C||_F the climb compares values that move with where inside the
    # 1e-9 residual tolerance a projection stops, so the reference itself is
    # no sharper than rounding there.)
    rng = np.random.default_rng(0x4177)
    for i in range(30):
        n = 3 + i % 10
        a, b = traceless_pair(n, rng)
        c = random_symmetric(n, rng)
        stack = _stacked(a, b)
        z, ok = _project_rows(stack, rng.standard_normal((8, n)))
        z = z[ok]
        threshold = 0.2 * np.linalg.norm(c)
        climbed, values = _hill_climb(stack, c, z.copy(), threshold)
        an, bn = a.normalized().matrix, b.normalized().matrix
        for row, start in enumerate(z):
            point, value = ref_hill_climb(an, bn, c, start, threshold)
            assert np.max(np.abs(climbed[row] - point)) <= 1e-12
            assert values[row] == pytest.approx(value, rel=1e-12)
