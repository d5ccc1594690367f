"""Operator-level verdict assembly and the pullback plumbing."""

import numpy as np
import pytest

from localsolv import (
    Branch,
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
    step_reduction,
    two_step_verdict,
)
from localsolv.errors import MuSearchError
from conftest import branch_one_instance, commuting_pair, traceless_pair


def quartet_matrices():
    a = np.zeros((4, 4))
    a[0, 3] = a[3, 0] = 0.5
    a[1, 2] = a[2, 1] = 0.5
    b = np.zeros((4, 4))
    b[0, 2] = b[2, 0] = 0.5
    b[1, 3] = b[3, 1] = -0.5
    return a, b


def free_three_step():
    """Free 3-step algebra on two generators: X1, X2, X3=[X1,X2], [X3,X1], [X3,X2]."""
    c = np.zeros((5, 5, 5))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[2, 0, 3], c[0, 2, 3] = 1.0, -1.0
    c[2, 1, 4], c[1, 2, 4] = 1.0, -1.0
    return StructureConstants(5, c, (1, 1, 2, 3, 3))


def test_heisenberg_low_rank_inconclusive_quartet():
    a, b = quartet_matrices()
    spec = HeisenbergOperatorSpec(2, SymmetricForm(a), SymmetricForm(b))
    verdict = heisenberg_verdict(spec)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.condition_a and verdict.condition_b
    assert verdict.condition_c is Branch.NONE
    assert verdict.hypothesis.maxrank == 4


def test_heisenberg_dissipative_inconclusive():
    d = 3
    spec = HeisenbergOperatorSpec(
        d, SymmetricForm(np.eye(2 * d)), SymmetricForm.zero(2 * d)
    )
    verdict = heisenberg_verdict(spec)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert not verdict.condition_a


def test_heisenberg_branch_one_not_locally_solvable():
    d = 9
    a, b = branch_one_instance(2 * d, seed=4)
    verdict = heisenberg_verdict(HeisenbergOperatorSpec(d, a, b))
    assert verdict.outcome is VerdictOutcome.NOT_LOCALLY_SOLVABLE
    assert verdict.condition_a and verdict.condition_b
    assert verdict.condition_c is Branch.I


def test_heisenberg_verdict_survives_scaling_one_form():
    # A, B and their bracket C are independent at any relative scale of A
    d = 9
    a, b = branch_one_instance(2 * d, seed=0)
    twin = heisenberg_verdict(HeisenbergOperatorSpec(d, a, b))
    scaled = heisenberg_verdict(HeisenbergOperatorSpec(d, SymmetricForm(1e6 * a.matrix), b))
    assert twin.outcome is VerdictOutcome.NOT_LOCALLY_SOLVABLE
    assert scaled.outcome is twin.outcome
    assert scaled.condition_b and scaled.condition_c is twin.condition_c


def test_commuting_pair_keeps_condition_b_false_under_congruence():
    # A and B live on the position block, so {A, B} = 0; after a symplectic
    # congruence the computed bracket is rounding noise, not a third direction
    d = 17
    a, b = commuting_pair(d, np.random.default_rng(0xC0))
    verdict = heisenberg_verdict(HeisenbergOperatorSpec(d, SymmetricForm(a), SymmetricForm(b)))
    assert verdict.condition_a and verdict.condition_c is Branch.I
    assert not verdict.condition_b
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE


def test_verdict_invariant_outcome_matches_conditions():
    cases = [
        HeisenbergOperatorSpec(2, *(SymmetricForm(m) for m in quartet_matrices())),
        HeisenbergOperatorSpec(9, *branch_one_instance(18, seed=4)),
        HeisenbergOperatorSpec(3, SymmetricForm(np.eye(6)), SymmetricForm.zero(6)),
    ]
    for spec in cases:
        v = heisenberg_verdict(spec)
        conclusive = v.condition_a and v.condition_b and v.condition_c is not Branch.NONE
        assert (v.outcome is VerdictOutcome.NOT_LOCALLY_SOLVABLE) == conclusive


def test_heisenberg_spec_validates_dimensions():
    with pytest.raises(ValueError):
        HeisenbergOperatorSpec(2, SymmetricForm(np.eye(3)), SymmetricForm.zero(3))


def test_two_step_specializes_to_heisenberg():
    d = 2
    a, b = quartet_matrices()
    j = SymplecticStructure.canonical(2 * d).J
    heis = heisenberg_verdict(HeisenbergOperatorSpec(d, SymmetricForm(a), SymmetricForm(b)))
    two = two_step_verdict(
        TwoStepGroupSpec(2 * d, (j,), SymmetricForm(a), SymmetricForm(b))
    )
    assert two.outcome is heis.outcome
    assert two.condition_a == heis.condition_a
    assert two.condition_b == heis.condition_b
    assert two.condition_c is heis.condition_c
    assert two.hypothesis.minrank == heis.hypothesis.minrank
    assert two.hypothesis.maxrank == heis.hypothesis.maxrank
    assert two.hypothesis.radical_status == heis.hypothesis.radical_status
    assert two.mu0 == (1.0,)


def test_two_step_mu_search_skips_degenerate_axis(rng):
    m = 4
    degenerate = np.zeros((m, m))
    degenerate[0, 1], degenerate[1, 0] = 1.0, -1.0  # rank 2 only
    canonical = SymplecticStructure.canonical(m).J
    a, b = traceless_pair(m, rng)
    verdict = two_step_verdict(TwoStepGroupSpec(m, (degenerate, canonical), a, b))
    mu = np.asarray(verdict.mu0)
    combined = mu[0] * degenerate + mu[1] * canonical
    assert np.linalg.matrix_rank(combined) == m
    # the deterministic axis sweep lands exactly on the second direction
    assert tuple(mu) == (0.0, 1.0)


def test_two_step_abelian_group_has_no_mu(rng):
    m = 4
    a, b = traceless_pair(m, rng)
    zero = np.zeros((m, m))
    with pytest.raises(MuSearchError):
        two_step_verdict(TwoStepGroupSpec(m, (zero,), a, b))


def test_two_step_supplied_degenerate_mu_rejected(rng):
    m = 4
    degenerate = np.zeros((m, m))
    degenerate[0, 1], degenerate[1, 0] = 1.0, -1.0
    canonical = SymplecticStructure.canonical(m).J
    a, b = traceless_pair(m, rng)
    with pytest.raises(MuSearchError):
        two_step_verdict(
            TwoStepGroupSpec(m, (degenerate, canonical), a, b, mu0=(1.0, 0.0))
        )


def test_two_step_rejects_non_skew_matrix(rng):
    a, b = traceless_pair(2, rng)
    with pytest.raises(ValueError):
        TwoStepGroupSpec(2, (np.eye(2),), a, b)


def test_point_symbol_identity_embedding_matches_heisenberg():
    d = 2
    a, b = (SymmetricForm(m) for m in quartet_matrices())
    # T = identity on R^{2d}: the point route must coincide with the group route
    t = np.eye(2 * d)
    spec = PointSymbolSpec(d, 2 * d, t, a, b)
    point = point_symbol_verdict(spec)
    heis = heisenberg_verdict(HeisenbergOperatorSpec(d, a, b))
    assert point.outcome is heis.outcome
    assert point.condition_c is heis.condition_c
    assert point.hypothesis.minrank == heis.hypothesis.minrank
    assert point.hypothesis.maxrank == heis.hypothesis.maxrank


def test_point_symbol_random_surjective_plumbing(rng):
    a, b = (SymmetricForm(m) for m in quartet_matrices())
    for seed in range(5):
        local = np.random.default_rng(seed)
        t = local.standard_normal((4, 8))
        j_z = t @ SymplecticStructure.canonical(8).J @ t.T
        if np.linalg.matrix_rank(j_z) < 4:
            continue
        spec = PointSymbolSpec(4, 4, t, a, b)
        verdict = point_symbol_verdict(spec)
        assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
        assert any("verified" in note for note in verdict.notes)


def test_point_symbol_plumbing_identities_direct(rng):
    # re-derive the projector identities outside the checker
    n, m = 4, 4
    t = rng.standard_normal((m, 2 * n))
    j2n = SymplecticStructure.canonical(2 * n).J
    j_z = t @ j2n @ t.T
    r = j2n @ t.T @ np.linalg.inv(j_z)
    p = r @ t
    assert np.allclose(t @ r, np.eye(m), atol=1e-10)
    assert np.allclose(p @ p, p, atol=1e-9)
    assert np.allclose(j2n @ p, p.T @ j2n, atol=1e-9)
    for _ in range(20):
        x, y = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
        assert float(x @ j2n @ (p @ y)) == pytest.approx(float((p @ x) @ j2n @ y), abs=1e-9)


def test_point_symbol_rank_equivalence(rng):
    a, b = traceless_pair(4, rng)
    t = rng.standard_normal((4, 8))
    a_big = 2.0 * t.T @ a.matrix @ t
    b_big = 2.0 * t.T @ b.matrix @ t
    for _ in range(8):
        alpha, beta = rng.standard_normal(2)
        small_rank = np.linalg.matrix_rank(alpha * a.matrix + beta * b.matrix)
        big_rank = np.linalg.matrix_rank(alpha * a_big + beta * b_big)
        assert small_rank == big_rank


def test_point_symbol_nontrivial_radical_equivalence(rng):
    # two-dimensional joint radical: its symplecticity on the reduced space
    # must match that of its preimage in the ambient space (checked inside
    # the verdict; a disagreement raises)
    a = SymmetricForm(np.diag([1.0, -1.0, 0.0, 0.0]))
    b_mat = np.zeros((4, 4))
    b_mat[0, 1] = b_mat[1, 0] = 0.5
    b = SymmetricForm(b_mat)
    for seed in range(6):
        local = np.random.default_rng([seed, 77])
        t = local.standard_normal((4, 6))
        j_z = t @ SymplecticStructure.canonical(6).J @ t.T
        if np.linalg.matrix_rank(j_z) < 4:
            continue
        verdict = point_symbol_verdict(PointSymbolSpec(3, 4, t, a, b))
        assert verdict.hypothesis.radical_dim == 2


def test_point_symbol_degenerate_pairing_rejected(rng):
    # T whose rows span a Lagrangian-like subspace: T J T^t = 0
    n = 2
    t = np.zeros((2, 4))
    t[0, 0] = 1.0
    t[1, 1] = 1.0  # both rows in the position block: pairing vanishes
    a, b = traceless_pair(2, rng)
    from localsolv.errors import DegeneratePairingError

    with pytest.raises(DegeneratePairingError):
        point_symbol_verdict(PointSymbolSpec(n, 2, t, a, b))


def test_point_symbol_rank_deficient_t_rejected(rng):
    a, b = traceless_pair(2, rng)
    t = np.ones((2, 4))
    with pytest.raises(ValueError):
        PointSymbolSpec(2, 2, t, a, b)


def test_structure_constants_validation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError):
        StructureConstants(3, c, (1, 1, 2))


def test_structure_constants_jacobi_violation():
    n = 4
    c = np.zeros((n, n, n))
    # [e0,e1]=e2, [e0,e2]=e3, [e1,e2]=e3 with [e0,e3]=[e1,e3]=0 fails Jacobi?
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[0, 2, 3], c[2, 0, 3] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0  # bracket back into a generator
    with pytest.raises(ValueError):
        StructureConstants(n, c, (1, 1, 2, 3))


def test_step_reduction_free_three_step_gives_heisenberg():
    constants = free_three_step()
    a_re = SymmetricForm(np.eye(2))
    a_im = SymmetricForm(np.diag([1.0, -1.0]))
    spec = step_reduction(constants, a_re, a_im)
    assert spec.m == 2
    assert spec.ell == 1
    assert np.allclose(spec.j_list[0], [[0.0, 1.0], [-1.0, 0.0]])
    assert spec.note is not None
    # the reduced spec runs end to end
    verdict = two_step_verdict(spec)
    assert verdict.outcome in (VerdictOutcome.INCONCLUSIVE, VerdictOutcome.NOT_LOCALLY_SOLVABLE)


def test_step_reduction_two_step_input_is_identity():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    constants = StructureConstants(3, c, (1, 1, 2))
    spec = step_reduction(constants, SymmetricForm(np.eye(2)), SymmetricForm.zero(2))
    assert spec.m == 2 and spec.ell == 1
    assert np.allclose(spec.j_list[0], [[0.0, 1.0], [-1.0, 0.0]])


def test_step_reduction_grading_violation():
    from localsolv.errors import GradingError

    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    constants = StructureConstants(3, c, (1, 1, 3))  # bracket skips layer 2
    with pytest.raises(GradingError):
        step_reduction(constants, SymmetricForm(np.eye(2)), SymmetricForm.zero(2))


def test_step_reduction_reads_every_center_and_the_first_violation():
    from localsolv.errors import GradingError

    # generators 0, 1, 2 and centers 3, 4: J_k[i, j] = c[i, j, center k]
    c = np.zeros((5, 5, 5))
    for i, j, k, value in ((0, 1, 3, 1.0), (0, 2, 4, 2.0), (1, 2, 4, 3.0)):
        c[i, j, k], c[j, i, k] = value, -value
    forms = SymmetricForm(np.eye(3)), SymmetricForm(np.diag([1.0, -1.0, 0.0]))
    spec = step_reduction(StructureConstants(5, c, (1, 1, 1, 2, 2)), *forms)
    assert spec.ell == 2
    assert np.array_equal(spec.j_list[0], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert np.array_equal(spec.j_list[1], [[0, 0, 2], [0, 0, 3], [-2, -3, 0]])
    # four components violate this grading; the error names the first in (i, j, k) order
    with pytest.raises(GradingError) as error:
        step_reduction(StructureConstants(5, c, (1, 1, 1, 2, 3)), *forms)
    assert str(error.value) == (
        "bracket [0,2] hits basis vector 4 in layer 3; the grading demands layer 2"
    )


def test_step_reduction_coefficient_dimension_check():
    constants = free_three_step()
    with pytest.raises(ValueError):
        step_reduction(constants, SymmetricForm(np.eye(3)), SymmetricForm.zero(3))


def test_outcome_invariant_under_phase_rotation(rng):
    # replacing (A, B) by (cos t A - sin t B, sin t A + cos t B) preserves the
    # span, hence every verdict ingredient
    d = 9
    a, b = branch_one_instance(2 * d, seed=6)
    base = heisenberg_verdict(HeisenbergOperatorSpec(d, a, b))
    for t in (0.3, 1.2, 2.5):
        a2 = SymmetricForm(np.cos(t) * a.matrix - np.sin(t) * b.matrix)
        b2 = SymmetricForm(np.sin(t) * a.matrix + np.cos(t) * b.matrix)
        rotated = heisenberg_verdict(HeisenbergOperatorSpec(d, a2, b2))
        assert rotated.outcome is base.outcome
        assert rotated.condition_c is base.condition_c


@pytest.mark.parametrize("seed", range(5))
def test_heisenberg_one_dimensional_radical_is_degenerate(seed):
    # minrank 2, maxrank 9 and one zero radius at n = 10: the joint radical is
    # a line, which no pairing makes symplectic, so branch II cannot hold.
    rng = np.random.default_rng([seed, 0x51])
    phi = np.array([0.0] * 7 + [2 * np.pi / 3, 4 * np.pi / 3, 0.0])
    r = np.array([1.0] * 9 + [0.0])
    while True:
        p = rng.standard_normal((10, 10))
        s = np.linalg.svd(p, compute_uv=False)
        if s[-1] > s[0] / 10.0:
            break
    a = SymmetricForm(p.T @ np.diag(r * np.cos(phi)) @ p)
    b = SymmetricForm(p.T @ np.diag(r * np.sin(phi)) @ p)
    verdict = heisenberg_verdict(HeisenbergOperatorSpec(5, a, b))
    hyp = verdict.hypothesis
    assert (hyp.minrank, hyp.maxrank, hyp.radical_dim) == (2, 9, 1)
    assert hyp.radical_status is RadicalStatus.DEGENERATE
    assert verdict.condition_c is Branch.NONE
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE


def test_point_symbol_verdict_decomposes_each_matrix_once(monkeypatch):
    # T (by the spec) and T J T^t once each, the joint radical once (on the
    # unit pair, in the SVD that deflates the pencil), and the eight ambient
    # pencil ranks in one stacked SVD
    rng = np.random.default_rng(0xD1)
    t = rng.standard_normal((6, 10))
    a, b = traceless_pair(6, rng)
    a, b = SymmetricForm(3.0 * a.matrix), SymmetricForm(0.5 * b.matrix)
    factored = {"svd": [], "inv": []}
    for name, seen in factored.items():

        def recorded(x, *args, _seen=seen, _original=getattr(np.linalg, name), **kwargs):
            _seen.append(np.array(x, copy=True))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    point_symbol_verdict(PointSymbolSpec(5, 6, t, a, b))

    def count(name, m):
        return sum(x.shape == m.shape and np.array_equal(x, m) for x in factored[name])

    j_z = t @ SymplecticStructure.canonical(10).J @ t.T
    k = 0.5 * (j_z - j_z.T)
    assert count("svd", t) == 1
    assert count("svd", k) == 1
    assert count("inv", k) == len(factored["inv"]) == 1
    assert count("svd", np.vstack([a.normalized().matrix, b.normalized().matrix])) == 1
    assert count("svd", np.vstack([a.matrix, b.matrix])) == 0
    assert sum(x.shape == (8, 10, 10) for x in factored["svd"]) == 1
