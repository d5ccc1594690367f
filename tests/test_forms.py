"""Forms, Hamilton maps and brackets, cross-checked against the coordinate
formula evaluated through partial derivatives (an independent oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsolv import (
    SymmetricForm,
    SymplecticStructure,
    Subspace,
    bracket_via_hamilton,
    congruence,
    hamilton_map,
    is_symplectic_subspace,
    joint_radical,
    poisson_bracket,
    span_rank,
)
from localsolv.errors import DegeneratePairingError
from conftest import random_skew_structure, random_symmetric


def coordinate_bracket(a, b, z):
    """Position-first coordinate formula, evaluated through gradients."""
    d = len(z) // 2
    ga, gb = 2.0 * a.matrix @ z, 2.0 * b.matrix @ z
    return float(ga[d:] @ gb[:d] - ga[:d] @ gb[d:])


def test_symmetric_form_symmetrizes_and_freezes():
    f = SymmetricForm([[1.0, 2.0], [0.0, 3.0]])
    assert np.allclose(f.matrix, [[1.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 5.0


def test_quadratic_form_is_even(rng):
    f = SymmetricForm(random_symmetric(6, rng))
    for _ in range(10):
        z = rng.standard_normal(6)
        assert f(z) == pytest.approx(f(-z), rel=1e-12)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        SymmetricForm(np.zeros((2, 3)))


def test_canonical_structure_blocks():
    s = SymplecticStructure.canonical(4)
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    assert np.array_equal(s.J, expected)
    assert s.two_d == 4


def test_structure_rejects_odd_and_degenerate():
    with pytest.raises(ValueError):
        SymplecticStructure.canonical(3)
    with pytest.raises(ValueError):
        SymplecticStructure(np.zeros((4, 4)))
    j = np.zeros((4, 4))
    j[0, 1], j[1, 0] = 1.0, -1.0  # rank 2 only
    with pytest.raises(ValueError):
        SymplecticStructure(j)


def test_structure_exact_antisymmetry():
    j = np.array([[0.0, 1.0 + 1e-12], [-1.0, 0.0]])
    s = SymplecticStructure(j)
    assert np.array_equal(s.J, -s.J.T)


def test_hamilton_map_zero_form():
    s = SymplecticStructure.canonical(6)
    h = hamilton_map(SymmetricForm.zero(6), s)
    assert np.array_equal(h.matrix, np.zeros((6, 6)))


def test_hamilton_map_identity_dim2():
    # canonical J in dimension 2 with F = I: the map is J itself
    s = SymplecticStructure.canonical(2)
    h = hamilton_map(SymmetricForm(np.eye(2)), s)
    assert np.allclose(h.matrix, s.J)
    # defining identity on the standard basis
    f = SymmetricForm(np.eye(2))
    for u in np.eye(2):
        for v in np.eye(2):
            assert s.omega(u, h.matrix @ v) == pytest.approx(float(u @ f.matrix @ v))


def test_hamilton_map_symplectic_lie_algebra_probes(rng):
    f = SymmetricForm(random_symmetric(8, rng))
    s = SymplecticStructure.canonical(8)
    h = hamilton_map(f, s)
    scale = np.linalg.norm(h.matrix) + 1.0
    for _ in range(100):
        v, w = rng.standard_normal(8), rng.standard_normal(8)
        residual = s.omega(h.matrix @ v, w) + s.omega(v, h.matrix @ w)
        assert abs(residual) <= 1e-10 * scale * np.linalg.norm(v) * np.linalg.norm(w)


def test_hamilton_map_linear_in_form(rng):
    s = SymplecticStructure.canonical(6)
    f = SymmetricForm(random_symmetric(6, rng))
    g = SymmetricForm(random_symmetric(6, rng))
    combo = SymmetricForm(2.5 * f.matrix - 0.5 * g.matrix)
    assert np.allclose(
        hamilton_map(combo, s).matrix,
        2.5 * hamilton_map(f, s).matrix - 0.5 * hamilton_map(g, s).matrix,
    )


def test_hamilton_map_dimension_mismatch():
    with pytest.raises(ValueError):
        hamilton_map(SymmetricForm.zero(4), SymplecticStructure.canonical(6))


def test_bracket_of_form_with_itself_vanishes(rng):
    s = SymplecticStructure.canonical(6)
    a = SymmetricForm(random_symmetric(6, rng))
    assert np.allclose(poisson_bracket(a, a, s).matrix, 0.0)
    assert np.allclose(bracket_via_hamilton(a, a, s).matrix, 0.0)


def test_bracket_matches_coordinate_formula(rng):
    s = SymplecticStructure.canonical(8)
    a = SymmetricForm(random_symmetric(8, rng))
    b = SymmetricForm(random_symmetric(8, rng))
    c = poisson_bracket(a, b, s)
    for _ in range(25):
        z = rng.standard_normal(8)
        assert c(z) == pytest.approx(coordinate_bracket(a, b, z), rel=1e-10, abs=1e-10)


def test_bracket_documented_quartet_value():
    # Q_A = x1 y2 + x2 y1, Q_B = x1 y1 - x2 y2 on R^4: the bracket is
    # +-2(x1 y2 - x2 y1); this library's block ordering gives the minus sign.
    a = np.zeros((4, 4))
    a[0, 3] = a[3, 0] = 0.5
    a[1, 2] = a[2, 1] = 0.5
    b = np.zeros((4, 4))
    b[0, 2] = b[2, 0] = 0.5
    b[1, 3] = b[3, 1] = -0.5
    c = poisson_bracket(SymmetricForm(a), SymmetricForm(b), SymplecticStructure.canonical(4))
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = 1.0
    expected[1, 2] = expected[2, 1] = -1.0
    assert np.allclose(c.matrix, -expected, atol=1e-12)


def test_bracket_documented_isotropic_family_value():
    # Q_A = x1^2 - (y1^2+..+y_{d-1}^2 + x2^2+..+x_{d-1}^2), Q_B = x1 x_d:
    # the bracket is +-2 y1 x_d; this block ordering gives -2 y1 x_d.
    d = 4
    n = 2 * d
    diag = np.zeros(n)
    diag[0] = 1.0
    diag[1 : d - 1] = -1.0
    diag[d : 2 * d - 1] = -1.0
    a = SymmetricForm(np.diag(diag))
    b_mat = np.zeros((n, n))
    b_mat[0, d - 1] = b_mat[d - 1, 0] = 0.5
    b = SymmetricForm(b_mat)
    c = poisson_bracket(a, b, SymplecticStructure.canonical(n))
    expected = np.zeros((n, n))
    expected[d, d - 1] = expected[d - 1, d] = -1.0
    assert np.allclose(c.matrix, expected, atol=1e-12)


def test_two_bracket_routes_agree_random_dims(rng):
    for n in (2, 4, 10):
        a = SymmetricForm(random_symmetric(n, rng))
        b = SymmetricForm(random_symmetric(n, rng))
        for structure in (SymplecticStructure.canonical(n), random_skew_structure(n, rng)):
            c1 = poisson_bracket(a, b, structure)
            c2 = bracket_via_hamilton(a, b, structure)
            scale = a.frobenius() * b.frobenius()
            assert np.max(np.abs(c1.matrix - c2.matrix)) <= 1e-10 * scale


def test_bracket_value_matches_pairing_of_hamiltonian_fields(rng):
    # Q_C(v) agrees with omega(2 J A v, 2 J B v) under the canonical pairing.
    n = 8
    s = SymplecticStructure.canonical(n)
    a = SymmetricForm(random_symmetric(n, rng))
    b = SymmetricForm(random_symmetric(n, rng))
    c = poisson_bracket(a, b, s)
    for _ in range(20):
        v = rng.standard_normal(n)
        field_a = 2.0 * s.J @ a.matrix @ v
        field_b = 2.0 * s.J @ b.matrix @ v
        assert c(v) == pytest.approx(s.omega(field_a, field_b), rel=1e-10, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_bracket_antisymmetry_property(d, seed):
    n = 2 * d
    rng = np.random.default_rng(seed)
    a = SymmetricForm(random_symmetric(n, rng))
    b = SymmetricForm(random_symmetric(n, rng))
    s = SymplecticStructure.canonical(n)
    left = poisson_bracket(a, b, s).matrix
    right = poisson_bracket(b, a, s).matrix
    assert np.max(np.abs(left + right)) <= 1e-10 * max(1.0, a.frobenius() * b.frobenius())


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
def test_bracket_bilinearity_property(d, seed, alpha, beta):
    n = 2 * d
    rng = np.random.default_rng(seed)
    a = SymmetricForm(random_symmetric(n, rng))
    b = SymmetricForm(random_symmetric(n, rng))
    c = SymmetricForm(random_symmetric(n, rng))
    s = SymplecticStructure.canonical(n)
    combo = SymmetricForm(alpha * b.matrix + beta * c.matrix)
    left = poisson_bracket(a, combo, s).matrix
    right = alpha * poisson_bracket(a, b, s).matrix + beta * poisson_bracket(a, c, s).matrix
    scale = max(1.0, a.frobenius() * (b.frobenius() + c.frobenius()))
    assert np.max(np.abs(left - right)) <= 1e-9 * scale


def test_jacobi_identity(rng):
    n = 8
    s = SymplecticStructure.canonical(n)
    for _ in range(30):
        a = SymmetricForm(random_symmetric(n, rng))
        b = SymmetricForm(random_symmetric(n, rng))
        c = SymmetricForm(random_symmetric(n, rng))
        total = (
            poisson_bracket(poisson_bracket(a, b, s), c, s).matrix
            + poisson_bracket(poisson_bracket(b, c, s), a, s).matrix
            + poisson_bracket(poisson_bracket(c, a, s), b, s).matrix
        )
        scale = a.frobenius() * b.frobenius() * c.frobenius()
        assert np.max(np.abs(total)) <= 1e-9 * scale


def test_joint_radical_invertible_pair(rng):
    a = SymmetricForm(np.eye(5))
    b = SymmetricForm(np.diag([1.0, 2, 3, 4, 5]))
    assert joint_radical(a, b).dim == 0


def test_joint_radical_coordinate_kernels():
    a = SymmetricForm(np.diag([1.0, 0.0, 0.0]))
    b = SymmetricForm(np.diag([0.0, 1.0, 0.0]))
    radical = joint_radical(a, b)
    assert radical.dim == 1
    assert abs(radical.basis[2, 0]) == pytest.approx(1.0)


def test_joint_radical_vectors_annihilate_both(rng):
    # kernel vectors kill both forms within the documented bound
    n = 7
    basis = rng.standard_normal((n, 4))
    a = SymmetricForm(basis @ np.diag([1.0, -2.0, 0.5, 1.5]) @ basis.T)
    b = SymmetricForm(basis @ np.diag([2.0, 1.0, -1.0, 0.25]) @ basis.T)
    radical = joint_radical(a, b)
    assert radical.dim == n - np.linalg.matrix_rank(basis)
    tol = 10 * 1e-9 * n * (a.frobenius() + b.frobenius())
    for k in range(radical.dim):
        v = radical.basis[:, k]
        assert np.linalg.norm(a.matrix @ v) + np.linalg.norm(b.matrix @ v) <= tol


def test_symplectic_subspace_conjugate_pair():
    s = SymplecticStructure.canonical(6)
    v = np.zeros((6, 2))
    v[0, 0] = 1.0  # e_1
    v[3, 1] = 1.0  # its conjugate partner
    cert = is_symplectic_subspace(Subspace(6, v), s)
    assert cert.symplectic
    assert cert.gram_min_singular == pytest.approx(1.0)


def test_symplectic_subspace_isotropic_line():
    s = SymplecticStructure.canonical(6)
    v = np.zeros((6, 1))
    v[5, 0] = 1.0
    cert = is_symplectic_subspace(Subspace(6, v), s)
    assert not cert.symplectic
    assert cert.gram_min_singular == pytest.approx(0.0, abs=1e-15)


def test_symplectic_subspace_random_line_is_not_symplectic():
    # b^T J b is rounding error for a generic b: the cut must not scale with it
    rng = np.random.default_rng(7)
    for n in (4, 10, 40):
        s = SymplecticStructure.canonical(n)
        for _ in range(20):
            v = rng.standard_normal((n, 1))
            cert = is_symplectic_subspace(Subspace(n, v / np.linalg.norm(v)), s)
            assert not cert.symplectic
            assert cert.subspace_dim == 1


def test_symplectic_subspace_empty_is_trivially_true():
    s = SymplecticStructure.canonical(4)
    cert = is_symplectic_subspace(Subspace.empty(4), s)
    assert cert.symplectic
    assert cert.subspace_dim == 0


def test_congruence_examples():
    f = SymmetricForm(np.diag([1.0, -1.0]))
    assert np.allclose(congruence(f, np.eye(2)).matrix, f.matrix)
    assert np.allclose(congruence(SymmetricForm(np.eye(2)), 2 * np.eye(2)).matrix, 4 * np.eye(2))
    t = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(congruence(f, t).matrix, [[0.0, 2.0], [2.0, 0.0]])


def test_congruence_rectangular_pullback(rng):
    f = SymmetricForm(random_symmetric(4, rng))
    t = rng.standard_normal((4, 7))
    pulled = congruence(f, t)
    assert pulled.dim == 7
    z = rng.standard_normal(7)
    assert pulled(z) == pytest.approx(f(t @ z), rel=1e-12)


def test_congruence_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        congruence(SymmetricForm.zero(3), np.zeros((4, 2)))


def test_span_rank(rng):
    a = SymmetricForm(random_symmetric(5, rng))
    b = SymmetricForm(random_symmetric(5, rng))
    assert span_rank(a) == 1
    assert span_rank(a, SymmetricForm(3.0 * a.matrix)) == 1
    assert span_rank(a, b) == 2
    assert span_rank(a, b, SymmetricForm(a.matrix - 2 * b.matrix)) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.floats(min_value=-150, max_value=150), min_size=3, max_size=3),
)
def test_span_rank_invariant_under_separate_scaling(seed, exponents):
    # scaling a form changes its length, not its span
    rng = np.random.default_rng(seed)
    a = SymmetricForm(random_symmetric(5, rng))
    b = SymmetricForm(random_symmetric(5, rng))
    for forms in (
        (a, b),
        (a, b, SymmetricForm(a.matrix - 2.0 * b.matrix)),
        (a, SymmetricForm(3.0 * a.matrix)),
    ):
        scaled = [SymmetricForm(10.0**x * f.matrix) for f, x in zip(forms, exponents)]
        assert span_rank(*scaled) == span_rank(*forms)


def test_subspace_orthonormality_enforced():
    with pytest.raises(ValueError):
        Subspace(3, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# singular values of a pairing: one SVD, or none where they are known

EPS = np.finfo(float).eps
# The numpy.linalg functions that factor a matrix.
DECOMPOSITIONS = (
    "svd", "svdvals", "inv", "pinv", "solve", "lstsq", "qr", "cholesky",
    "eig", "eigh", "eigvals", "eigvalsh", "det", "slogdet", "matrix_rank", "cond",
)


def test_canonical_takes_no_svd(linalg_calls):
    structures = [SymplecticStructure.canonical(two_d) for two_d in (2, 4, 10, 40)]
    assert linalg_calls["svd"] == 0
    for structure in structures:
        assert (structure.sigma_min, structure.sigma_max) == (1.0, 1.0)
        s = np.linalg.svd(structure.J, compute_uv=False)
        assert np.array_equal(s, np.ones(structure.two_d))


def test_from_bracket_matrix_takes_one_svd_and_one_inverse(linalg_calls, rng):
    k = random_skew_structure(10, rng).J
    before = dict(linalg_calls)
    SymplecticStructure.from_bracket_matrix(k)
    spent = {name: linalg_calls[name] - before[name] for name in DECOMPOSITIONS}
    assert {name: count for name, count in spent.items() if count} == {"svd": 1, "inv": 1}


def test_is_symplectic_subspace_takes_no_norm_of_j(linalg_calls, rng):
    structure = random_skew_structure(8, rng)
    subspace = Subspace.from_spanning(8, rng.standard_normal((8, 3)))
    before = dict(linalg_calls)
    is_symplectic_subspace(subspace, structure)
    assert linalg_calls["norm"] == before["norm"]
    assert linalg_calls["svd"] == before["svd"] + 1


def commutator_matrix(kind, rng):
    """A skew K = Q diag(s_i [[0, 1], [-1, 0]]) Q^T with Q orthogonal:
    "random" with s in [0.1, 1]; "near", with s_min / s_max within 10x of
    the rank cut on either side; "scaled", a random one times 10^k, |k| <= 10."""
    d = int(rng.integers(2 if kind == "near" else 1, 11))
    n = 2 * d
    if kind == "near":
        ratio = 1e-9 * n * 10.0 ** rng.uniform(-1.0, 1.0)
        sigma = np.concatenate([[1.0, ratio], rng.uniform(ratio, 1.0, d - 2)])
    else:
        sigma = rng.uniform(0.1, 1.0, d)
    blocks = np.zeros((n, n))
    blocks[::2, 1::2] = np.diag(sigma)
    blocks[1::2, ::2] = -np.diag(sigma)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    k = q @ blocks @ q.T
    k = 0.5 * (k - k.T)
    return k * 10.0 ** int(rng.integers(-10, 11)) if kind == "scaled" else k


@pytest.mark.parametrize("kind", ["random", "near", "scaled"])
def test_singular_values_from_the_bracket_matrix(kind):
    # J = -K^-1 has singular values 1 / s(K): they agree with an SVD of the
    # stored J within 1e-12, or within eps cond(K) per dimension when K is
    # near its rank cut, where the inverse itself carries that error
    decided = set()
    for index in range(200):
        rng = np.random.default_rng([index, 0x51C])
        k = commutator_matrix(kind, rng)
        s_k = np.linalg.svd(k, compute_uv=False)
        j = -np.linalg.inv(k)
        try:
            SymplecticStructure(0.5 * (j - j.T))
            direct = True
        except DegeneratePairingError:
            direct = False
        try:
            structure = SymplecticStructure.from_bracket_matrix(k)
        except DegeneratePairingError:
            assert not direct, index
            decided.add(False)
            continue
        assert direct, index
        decided.add(True)
        s_j = np.linalg.svd(structure.J, compute_uv=False)
        tol = max(1e-12, len(k) * EPS * s_k[0] / s_k[-1])
        assert structure.sigma_max == pytest.approx(s_j[0], rel=tol)
        assert structure.sigma_min == pytest.approx(s_j[-1], rel=tol)
    # near the cut both decisions occur
    assert decided == ({True, False} if kind == "near" else {True})
