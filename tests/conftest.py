"""Shared instance generators for the test suite.

Independent traceless pairs are non-dissipative for free: every span element
is traceless, and a traceless positive-semidefinite matrix is zero.  That
fact (plus congruence invariance) drives most constructions here.
"""

import numpy as np
import pytest

from localsolv import SymmetricForm, SymplecticStructure
from localsolv._numeric import CERT_REL, EIG_REL


def scale_bound(rel, a, b):
    """rel (|A|_F + |B|_F): a slack of the library (EIG_REL, CERT_REL) at the
    scale of the caller's pair, which every reported value must respect."""
    return rel * (a.frobenius() + b.frobenius())


def random_symmetric(n, rng, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def random_traceless_form(n, rng):
    m = random_symmetric(n, rng)
    m -= (np.trace(m) / n) * np.eye(n)
    return SymmetricForm(m)


def traceless_pair(n, rng):
    """Independent traceless pair; non-dissipative by construction."""
    while True:
        a = random_traceless_form(n, rng)
        b = random_traceless_form(n, rng)
        stacked = np.column_stack([a.matrix.ravel(), b.matrix.ravel()])
        s = np.linalg.svd(stacked, compute_uv=False)
        if s[1] > 1e-6 * s[0]:
            return a, b


def congruent_pair(a, b, rng, cond_cap=10.0):
    """Random congruence image of a pair: T = U diag(s) V^T with random
    orthogonal U, V and singular values s drawn in [1, cond_cap], so that
    cond(T) <= cond_cap in one draw."""
    n = a.dim
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    t = u @ np.diag(rng.uniform(1.0, cond_cap, n)) @ v.T
    return SymmetricForm(t.T @ a.matrix @ t), SymmetricForm(t.T @ b.matrix @ t), t


def commuting_pair(d, rng):
    """Traceless A and B on the position block of R^(2d), so {A, B} = 0,
    moved by a symplectic congruence: their computed bracket is rounding
    noise, not a third direction."""
    a, b = np.zeros((2 * d, 2 * d)), np.zeros((2 * d, 2 * d))
    a[:d, :d] = random_traceless_form(d, rng).matrix
    b[:d, :d] = random_traceless_form(d, rng).matrix
    x = random_symmetric(d, rng)
    y = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
    shear = np.block([[np.eye(d), x], [np.zeros((d, d)), np.eye(d)]])
    s = shear @ np.block([[y, np.zeros((d, d))], [np.zeros((d, d)), np.linalg.inv(y).T]])
    return s.T @ a @ s, s.T @ b @ s


def position_embedding(d):
    """E of shape 2d x (2d + 2), keeping the first d positions of R^(2d + 2)
    and their momenta, so that E J E^t is the canonical J of R^(2d)."""
    e = np.zeros((2 * d, 2 * d + 2))
    e[:d, :d] = np.eye(d)
    e[d:, d + 1 : 2 * d + 1] = np.eye(d)
    return e


def dissipative_pair(n, rng, psd_rank=None):
    """Pair whose span contains an exact nonzero PSD element at a known angle."""
    if psd_rank is None:
        psd_rank = n
    g = rng.standard_normal((n, psd_rank))
    psd = g @ g.T
    other = random_symmetric(n, rng)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    a = np.cos(theta) * psd - np.sin(theta) * other
    b = np.sin(theta) * psd + np.cos(theta) * other
    return SymmetricForm(a), SymmetricForm(b), theta


def haar_congruence(n, rng, cond=4.0):
    """Orthogonal U diag(s) V^T with singular values spread over [1, cond]."""
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return u @ np.diag(np.geomspace(1.0, cond, n)) @ v.T


def close_drop_pairs(count):
    """The first `count` congruent-diagonal pairs drawn in order from one seed:
    n = 22..39, unit radii at uniform random angles, a Gaussian congruence.
    Yields (index, A, B).  Their closest drops lie 1e-4 to 5e-4 apart, and
    the pencil is nearly singular between them."""
    rng = np.random.default_rng(12345)
    for index in range(count):
        n = int(rng.integers(22, 40))
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        t = rng.standard_normal((n, n))
        a = SymmetricForm(t.T @ np.diag(np.cos(phi)) @ t)
        yield index, a, SymmetricForm(t.T @ np.diag(np.sin(phi)) @ t)


# Indices of `close_drop_pairs` on which an inertia check of the drops failed.
CLOSE_DROP_INDICES = (6, 9, 20, 58, 80, 91, 95, 111, 166, 186, 209, 292, 296)


def l1_block():
    """3 x 3 symmetric pencil of rank 2 at every angle, with no drop."""
    a = np.zeros((3, 3))
    b = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = 1.0
    b[1, 2] = b[2, 1] = 1.0
    return a, b


def random_skew_structure(n, rng, cond_cap=50.0):
    """Well-conditioned random non-degenerate skew pairing."""
    while True:
        g = rng.standard_normal((n, n))
        j = 0.5 * (g - g.T)
        s = np.linalg.svd(j, compute_uv=False)
        if s[-1] > s[0] / cond_cap:
            return SymplecticStructure(j)


def rank2_hyperbolic(n, i=0, j=1):
    """The form x_i * x_j, the minimal-rank indefinite building block."""
    m = np.zeros((n, n))
    m[i, j] = m[j, i] = 0.5
    return SymmetricForm(m)


def branch_one_instance(n, seed):
    """Traceless pair in dimension n >= 18: branch-(i) data generically."""
    rng = np.random.default_rng([seed, 0xB1])
    return traceless_pair(n, rng)


def branch_two_instance(n, seed):
    """Full-rank traceless form against a rank-2 hyperbolic: branch-(ii) data."""
    rng = np.random.default_rng([seed, 0xB2])
    while True:
        a = random_traceless_form(n, rng)
        if np.linalg.matrix_rank(a.matrix) == n:
            break
    return a, rank2_hyperbolic(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Running counts of the calls of each numpy.linalg function, by name.
    numpy's own calls between them are not counted."""
    calls = {}
    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if isinstance(original, type):
            continue
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
