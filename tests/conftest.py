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
    """Random congruence image of a pair, with controlled conditioning."""
    n = a.dim
    while True:
        t = rng.standard_normal((n, n))
        s = np.linalg.svd(t, compute_uv=False)
        if s[-1] > s[0] / cond_cap:
            break
    return SymmetricForm(t.T @ a.matrix @ t), SymmetricForm(t.T @ b.matrix @ t), t


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
