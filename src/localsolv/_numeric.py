"""Shared numerical tolerances and small dense linear-algebra helpers."""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff for all rank decisions:
# numerical rank = #{ singular values > RANK_REL * s_max * max(shape) }.
RANK_REL = 1e-9

# Slacks on the unit-Frobenius pair (A / ||A||_F, B / ||B||_F): trace
# certificate residuals, and eigenvalues in positive-semidefiniteness calls.
CERT_REL = 1e-8
EIG_REL = 1e-9

# Absolute residual bound for points on a joint quadric zero set
# (unit-norm points, unit-Frobenius forms).
ZERO_TOL = 1e-9

# Margin thresholds for witness searches, relative to the form norms.
TRANS_REL = 1e-6
BRACKET_REL = 1e-6


def sym_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def skew_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - m.T)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def rank_tolerance(singular_values: np.ndarray, shape) -> float:
    if len(singular_values) == 0:
        return 0.0
    return RANK_REL * float(singular_values[0]) * max(shape)


def numerical_rank(matrix: np.ndarray) -> int:
    """Count singular values above the relative cutoff."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(s > rank_tolerance(s, matrix.shape)))


def numerical_ranks(stack: np.ndarray) -> np.ndarray:
    """`numerical_rank` of each matrix in a stack, from one stacked SVD."""
    s = np.linalg.svd(stack, compute_uv=False)
    return np.count_nonzero(s > RANK_REL * s[:, :1] * max(stack.shape[1:]), axis=1)


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of `matrix`."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[1]
    if matrix.size == 0 or not np.any(matrix):
        return np.eye(n)
    _, s, vh = np.linalg.svd(matrix)
    rank = int(np.count_nonzero(s > rank_tolerance(s, matrix.shape)))
    return vh[rank:].T.copy()


def orthonormal_columns(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of `matrix`."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.shape[1] == 0 or not np.any(matrix):
        return np.zeros((matrix.shape[0], 0))
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.count_nonzero(s > rank_tolerance(s, matrix.shape)))
    return u[:, :rank].copy()


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    """Deterministic generator keyed by a seed plus integer salt words."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *[int(s) & 0xFFFFFFFF for s in salt]])


def unit_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def golden_section_minimize(f, lo: float, hi: float, iterations: int) -> tuple[float, float]:
    """Golden-section minimum of a scalar function on [lo, hi].

    Returns (argmin, min value); assumes a bracketed interior minimum.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd

