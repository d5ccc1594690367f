"""Pencil rank analysis: generic rank, minimal rank, drop directions."""

import numpy as np
import pytest

from localsolv import (
    Branch,
    HeisenbergOperatorSpec,
    RadicalStatus,
    SymmetricForm,
    VerdictOutcome,
    heisenberg_verdict,
    is_non_dissipative,
    pencil_element,
    rank_profile,
)
from localsolv import pencil
from localsolv._numeric import golden_section_minimize, rank_tolerance
from localsolv.errors import DependentPairError
from localsolv.fixtures import all_fixtures
from conftest import (
    congruent_pair,
    haar_congruence,
    l1_block,
    rank2_hyperbolic,
    traceless_pair,
)


def scan_drops(a, b, points=512):
    """Oracle: rank drops from a dense scan of the maxrank-th singular value.

    Every local minimum of the scan below a forgiving filter is refined by
    golden-section search; a refined angle is a drop when the element there
    has rank below the largest rank seen on the grid.  Returns (maxrank,
    sorted [(theta, rank)]).
    """
    n = a.dim

    def spectrum(theta):
        return np.linalg.svd(np.cos(theta) * a.matrix + np.sin(theta) * b.matrix, compute_uv=False)

    def rank(s):
        return int(np.count_nonzero(s > rank_tolerance(s, (n, n))))

    thetas = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    spectra = [spectrum(t) for t in thetas]
    maxrank = max(rank(s) for s in spectra)
    sigma = np.array([s[maxrank - 1] for s in spectra])
    step = 2.0 * np.pi / points
    dip_filter = 5.0 * step * (a.frobenius() + b.frobenius())
    drops = []
    for i in range(points):
        if sigma[i] > dip_filter or sigma[i] > min(sigma[i - 1], sigma[(i + 1) % points]):
            continue
        theta, _ = golden_section_minimize(
            lambda t: spectrum(t)[maxrank - 1], thetas[i] - step, thetas[i] + step, 80
        )
        theta %= 2.0 * np.pi
        r = rank(spectrum(theta))
        if r < maxrank and all(circular_gap(theta, t) > 1e-6 for t, _ in drops):
            drops.append((theta, r))
    return maxrank, sorted(drops)


def circular_gap(x, y):
    gap = abs(x - y) % (2.0 * np.pi)
    return min(gap, 2.0 * np.pi - gap)


def assert_same_drops(found, expected, atol=1e-6):
    """Each expected (theta, rank) is matched by exactly one found drop."""
    assert len(found) == len(expected), (found, expected)
    for theta, rank in expected:
        hits = [r for t, r in found if circular_gap(t, theta) < atol]
        assert hits == [rank], (theta, rank, found)


def planted(phi, radii, p):
    """A = P^T diag(r cos phi) P, B = P^T diag(r sin phi) P."""
    phi, radii = np.asarray(phi, dtype=float), np.asarray(radii, dtype=float)
    a = p.T @ np.diag(radii * np.cos(phi)) @ p
    b = p.T @ np.diag(radii * np.sin(phi)) @ p
    return SymmetricForm(a), SymmetricForm(b)


def planted_drops(phi, radii):
    """The drops of a planted pencil: each angle class modulo pi, plus pi/2
    and 3 pi/2, with rank maxrank minus the class size."""
    live = np.mod(np.asarray(phi, dtype=float)[np.asarray(radii) != 0.0], np.pi)
    classes = []
    for psi in live:
        for entry in classes:
            if circular_gap(2 * psi, 2 * entry[0]) < 1e-9:
                entry[1] += 1
                break
        else:
            classes.append([psi, 1])
    return sorted(
        (float(np.mod(psi + shift, 2 * np.pi)), len(live) - k)
        for psi, k in classes
        for shift in (0.5 * np.pi, 1.5 * np.pi)
    )


def quartet_pair():
    a = np.zeros((4, 4))
    a[0, 3] = a[3, 0] = 0.5
    a[1, 2] = a[2, 1] = 0.5
    b = np.zeros((4, 4))
    b[0, 2] = b[2, 0] = 0.5
    b[1, 3] = b[3, 1] = -0.5
    return SymmetricForm(a), SymmetricForm(b)


def test_rank_at_identity():
    assert pencil_element(SymmetricForm(np.eye(4)), SymmetricForm.zero(4), 0.0).rank() == 4


def test_rank_at_diagonal():
    a = SymmetricForm(np.diag([1.0, 1.0, 0.0]))
    assert pencil_element(a, SymmetricForm.zero(3), 0.0).rank() == 2


def test_rank_at_plane_pair_everywhere_two(rng):
    # x^2 - y^2 against xy: every combination has negative determinant
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = rank2_hyperbolic(2)
    for theta in rng.uniform(0.0, 2 * np.pi, size=16):
        assert pencil_element(a, b, float(theta)).rank() == 2


def test_rank_profile_quartet_full_rank_everywhere():
    a, b = quartet_pair()
    profile = rank_profile(a, b)
    assert profile.maxrank == 4
    assert profile.minrank == 4
    assert profile.drop_points == ()


def test_rank_profile_explicit_diagonal_pencil():
    a = SymmetricForm(np.diag([1.0, -1.0, 0.0, 0.0]))
    b = SymmetricForm(np.diag([0.0, 0.0, 1.0, -1.0]))
    profile = rank_profile(a, b)
    assert profile.maxrank == 4
    assert profile.minrank == 2
    drop_angles = sorted(theta for theta, _ in profile.drop_points)
    expected = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    assert len(drop_angles) == 4
    assert np.allclose(drop_angles, expected, atol=1e-6)
    assert all(rank == 2 for _, rank in profile.drop_points)


def test_rank_profile_isolated_interior_drop(rng):
    # Singular combination planted at an arbitrary angle with a generic
    # remainder: the drop must be found there.
    n = 6
    t0 = 0.7123456789
    a, _ = traceless_pair(n, rng)
    kernel = rng.standard_normal(n)
    kernel /= np.linalg.norm(kernel)
    w = -(np.cos(t0) * a.matrix @ kernel) / np.sin(t0)
    s = 0.1 * (lambda m: 0.5 * (m + m.T))(rng.standard_normal((n, n)))
    proj = np.eye(n) - np.outer(kernel, kernel)
    b = (
        np.outer(kernel, w)
        + np.outer(w, kernel)
        - float(kernel @ w) * np.outer(kernel, kernel)
        + proj @ s @ proj
    )
    built = np.cos(t0) * a.matrix + np.sin(t0) * b
    assert np.linalg.norm(built @ kernel) <= 1e-10 * np.linalg.norm(built)
    profile = rank_profile(a, SymmetricForm(b))
    assert profile.minrank < profile.maxrank
    hits = [
        theta
        for theta, _ in profile.drop_points
        if min(abs(theta - t0), abs(theta - t0 - np.pi)) < 1e-5
    ]
    assert hits


def test_rank_profile_dependent_pair_rejected(rng):
    a, _ = traceless_pair(4, rng)
    with pytest.raises(DependentPairError):
        rank_profile(a, SymmetricForm(2.5 * a.matrix))


def test_rank_profile_congruence_invariance(rng):
    a = SymmetricForm(np.diag([1.0, -1.0, 0.0, 0.0, 0.0]))
    b = SymmetricForm(np.diag([0.0, 0.0, 1.0, -1.0, 0.0]))
    base = rank_profile(a, b)
    a2, b2, _ = congruent_pair(a, b, rng)
    image = rank_profile(a2, b2)
    assert image.maxrank == base.maxrank
    assert image.minrank == base.minrank


def test_rank_profile_drop_points_symmetric_under_half_turn():
    a = SymmetricForm(np.diag([1.0, -1.0, 0.0, 0.0]))
    b = SymmetricForm(np.diag([0.0, 0.0, 1.0, -1.0]))
    profile = rank_profile(a, b)
    angles = [theta for theta, _ in profile.drop_points]
    for theta in angles:
        mirrored = (theta + np.pi) % (2 * np.pi)
        assert any(abs(mirrored - other) < 1e-6 for other in angles)


def test_minrank_at_least_two_for_non_dissipative_pairs(rng):
    for _ in range(8):
        a, b = traceless_pair(6, rng)
        assert is_non_dissipative(a, b).non_dissipative
        assert rank_profile(a, b).minrank >= 2


def test_rank_profile_l1_block_has_no_drops():
    a, b = l1_block()
    profile = rank_profile(SymmetricForm(a), SymmetricForm(b))
    assert (profile.maxrank, profile.minrank, profile.drop_points) == (2, 2, ())


def test_close_drops_reproducer_is_inconclusive():
    # a rank-2 drop at 0.3 within one step of a 512-angle scan of the
    # shallower drops at 0.305 and 0.31
    theta = np.array([0.3] * 19 + [0.31, 0.3 + np.pi + 0.005])
    a = SymmetricForm(np.diag(np.concatenate([[0.0], -np.sin(theta)])))
    b = SymmetricForm(np.diag(np.concatenate([[0.0], np.cos(theta)])))
    verdict = heisenberg_verdict(HeisenbergOperatorSpec(11, a, b))
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.hypothesis.minrank == 2
    assert verdict.hypothesis.maxrank == 21
    assert verdict.hypothesis.radical_status is RadicalStatus.DEGENERATE
    assert verdict.condition_c is Branch.NONE
    profile = rank_profile(a, b)
    expected = [(t, 2) for t in (0.3, 0.3 + np.pi)]
    expected += [(t, 20) for t in (0.305, 0.31, 0.305 + np.pi, 0.31 + np.pi)]
    assert_same_drops(profile.drop_points, expected, atol=1e-9)


@pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.key)
def test_rank_profile_matches_scan_oracle_on_fixtures(fixture):
    profile = rank_profile(fixture.a, fixture.b)
    maxrank, drops = scan_drops(fixture.a, fixture.b)
    assert profile.maxrank == maxrank
    assert_same_drops(profile.drop_points, drops)


def test_rank_profile_matches_scan_oracle_on_random_pairs():
    # 200 planted pairs: two to four angle classes at least 0.15 rad apart
    # modulo pi (twelve scan steps), zero radii for a common kernel, and
    # every fourth pair with an L1-type block whose range turns with theta
    kinds = {"plain": 0, "kernel": 0, "l1": 0}
    for index in range(200):
        rng = np.random.default_rng([index, 0x5CA7])
        classes = int(rng.integers(2, 5))
        while True:
            psi = rng.uniform(0.0, np.pi, classes)
            gaps = [circular_gap(2 * x, 2 * y) / 2 for i, x in enumerate(psi) for y in psi[:i]]
            if min(gaps, default=np.pi) > 0.15:
                break
        mult = rng.integers(1, 4, classes)
        phi = np.repeat(psi, mult) + np.pi * rng.integers(0, 2, int(mult.sum()))
        zeros = int(rng.integers(0, 3))
        phi = np.concatenate([phi, np.zeros(zeros)])
        radii = np.concatenate([rng.uniform(0.5, 2.0, int(mult.sum())), np.zeros(zeros)])
        a0 = np.diag(radii * np.cos(phi))
        b0 = np.diag(radii * np.sin(phi))
        kind = "kernel" if zeros else "plain"
        if index % 4 == 3:
            la, lb = l1_block()
            a0 = np.block([[a0, np.zeros((len(phi), 3))], [np.zeros((3, len(phi))), la]])
            b0 = np.block([[b0, np.zeros((len(phi), 3))], [np.zeros((3, len(phi))), lb]])
            kind = "l1"
        p = haar_congruence(len(a0), rng)
        a, b = SymmetricForm(p.T @ a0 @ p), SymmetricForm(p.T @ b0 @ p)
        profile = rank_profile(a, b)
        maxrank, drops = scan_drops(a, b)
        assert profile.maxrank == maxrank, index
        assert_same_drops(profile.drop_points, drops)
        extra = 2 if kind == "l1" else 0
        assert_same_drops(
            profile.drop_points, [(t, r + extra) for t, r in planted_drops(phi, radii)]
        )
        kinds[kind] += 1
    assert min(kinds.values()) >= 40


@pytest.mark.parametrize("spacing", [0.01, 0.003])
def test_rank_profile_resolves_close_diagonal_drops(spacing):
    # classes 0.01 rad apart (less than one 512-angle scan step) with
    # multiplicities 1..4
    psi = 0.4 + spacing * np.arange(6)
    phi = np.repeat(psi, [1, 4, 2, 1, 3, 1])
    radii = np.ones(len(phi))
    a, b = planted(phi, radii, np.eye(len(phi)))
    profile = rank_profile(a, b)
    assert_same_drops(profile.drop_points, planted_drops(phi, radii))
    assert profile.minrank == len(phi) - 4


@pytest.mark.parametrize("n", [20, 40])
def test_rank_profile_random_angle_planted_pairs(n):
    for seed in range(3):
        rng = np.random.default_rng([n, seed, 0xA9])
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        radii = np.ones(n)
        a, b = planted(phi, radii, haar_congruence(n, rng))
        profile = rank_profile(a, b)
        assert len(profile.drop_points) == 2 * n
        assert_same_drops(profile.drop_points, planted_drops(phi, radii))
        assert profile.minrank == n - 1


def test_rank_profile_jordan_block_drop():
    # det(cos t A + sin t B) = -cos(t)^2: a double root, a 2 x 2 Jordan block
    a = SymmetricForm(np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = SymmetricForm(np.diag([1.0, 0.0]))
    profile = rank_profile(a, b)
    assert (profile.maxrank, profile.minrank) == (2, 1)
    assert_same_drops(profile.drop_points, [(0.5 * np.pi, 1), (1.5 * np.pi, 1)], atol=1e-8)


def test_rank_profile_refines_a_candidate_that_misses(monkeypatch):
    # Candidates off by up to half the loose cut fail the SVD check; the
    # golden-section fallback must still land on the drop.
    real = pencil._candidate_clusters

    def shifted(*args):
        return [psi + 0.5 * pencil._IMAG_CUT for psi in real(*args)]

    monkeypatch.setattr(pencil, "_candidate_clusters", shifted)
    phi = [0.1, 0.1, 1.2, 2.0]
    a, b = planted(phi, np.ones(4), haar_congruence(4, np.random.default_rng(5)))
    profile = rank_profile(a, b)
    assert_same_drops(profile.drop_points, planted_drops(phi, np.ones(4)))


# ---------------------------------------------------------------------------
# decompositions: one probe SVD at full rank, one stacked call for the rest


def loop_probe(a, b, seed):
    """The reference probe: nine single SVDs, the largest rank at the first
    angle that reaches it."""
    phis = pencil.rng_for(seed, 0x9EC1).uniform(0.0, 2.0 * np.pi, size=9)
    spectra = [pencil._spectrum(a, b, float(t)) for t in phis]
    ranks = [pencil._rank(s) for s in spectra]
    best = int(np.argmax(ranks))
    return ranks[best], float(phis[best]), spectra[best], min(ranks) != ranks[best]


def rank_deficient_pair(n, rng):
    """A traceless pair of rank n - 1 with a shared kernel vector."""
    a, b = traceless_pair(n - 1, rng)
    grow = np.eye(n)[:, : n - 1] @ np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
    return SymmetricForm(grow @ a.matrix @ grow.T), SymmetricForm(grow @ b.matrix @ grow.T)


@pytest.fixture
def probe_svds(monkeypatch, linalg_calls):
    """The SVD calls of each `_probe`."""
    counts = []
    original = pencil._probe

    def counted(*args):
        before = linalg_calls["svd"]
        result = original(*args)
        counts.append(linalg_calls["svd"] - before)
        return result

    monkeypatch.setattr(pencil, "_probe", counted)
    return counts


@pytest.mark.parametrize("n", [4, 10, 20, 40])
def test_full_rank_profile_takes_one_probe_svd(n, probe_svds):
    a, b = traceless_pair(n, np.random.default_rng([n, 0x9EC1]))
    assert rank_profile(a, b).maxrank == n
    assert probe_svds == [1]


@pytest.mark.parametrize("n", [4, 10, 20, 40])
def test_rank_deficient_profile_stacks_the_other_eight_probes(n, probe_svds):
    a, b = rank_deficient_pair(n, np.random.default_rng([n, 0x9EC2]))
    assert rank_profile(a, b).maxrank == n - 1
    assert probe_svds == [2]


def test_probe_matches_the_loop_of_single_svds():
    # bitwise: a stacked SVD gives each matrix the values of a single call
    for index in range(60):
        rng = np.random.default_rng([index, 0x9EC3])
        n = int(rng.integers(3, 30))
        a, b = (traceless_pair if index % 2 else rank_deficient_pair)(n, rng)
        pair = pencil.unit_pair(a, b)
        seed = int(rng.integers(0, 2**31))
        maxrank, phi, spectrum, notes = pencil._probe(pair.a, pair.b, seed)
        ref_rank, ref_phi, ref_spectrum, disagreed = loop_probe(pair.a, pair.b, seed)
        assert (maxrank, phi) == (ref_rank, ref_phi)
        assert np.array_equal(spectrum, ref_spectrum)
        # after a full-rank first probe no other probe is taken to disagree
        assert bool(notes) == (disagreed and maxrank < n)
