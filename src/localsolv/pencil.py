"""Rank analysis over the two-parameter pencil spanned by a pair of forms.

maxrank is the generic rank over the span, minrank the smallest rank of a
nonzero element M(theta) = cos(theta) A + sin(theta) B.  Nine seeded probes
give maxrank r and a generic angle theta_g.  For a generic orthonormal n x r
matrix U, det(U^T M(theta) U) vanishes at every angle where M loses rank
(rank completion, Hochstenbach-Mehl-Plestenjak, SIMAX 2019).  So with
G = U^T M(theta_g) U and H = U^T M(theta_g + pi/2) U, every drop sits at
theta_g + phi (and that angle + pi, since M(theta + pi) = -M(theta)) with
tan(phi) = -1/lambda for a real eigenvalue lambda of G^-1 H.

One SVD confirms each candidate and gives the rank there.  Singular
Kronecker blocks of the pencil (Van Dooren 1979) add spurious candidates,
which that check discards.  A candidate that fails it is refined by a
golden-section search of the r-th singular value around it, so a drop whose
eigenvalue is defective or ill-conditioned is not lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import (
    RANK_REL,
    frob,
    golden_section_minimize,
    rank_tolerance,
    rng_for,
)
from .errors import DependentPairError, ZeroElementError
from .forms import SymmetricForm, prescaled, span_rank

__all__ = [
    "PencilReport",
    "pencil_element",
    "rank_at",
    "rank_profile",
    "max_rank_element",
    "nearby_basis",
]

# Loose cut on |Im phi| for a compressed eigenvalue to give a candidate: a
# drop of multiplicity k whose eigenvalue is defective splits into a cluster
# of width about eps**(1/k), well inside it.  The fallback search brackets a
# candidate by the same width.
_IMAG_CUT = 1e-3
# Candidate angles closer than this (modulo pi) belong to one drop.
_MERGE_GAP = 1e-6
# Golden-section steps of the fallback: the bracket shrinks by 0.618**60.
_FALLBACK_STEPS = 60


@dataclass(frozen=True)
class PencilReport:
    maxrank: int
    minrank: int
    drop_points: tuple[tuple[float, int], ...]
    generic_theta: float
    marginal: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0 < self.minrank <= self.maxrank):
            raise ValueError("ranks must satisfy 0 < minrank <= maxrank")
        if any(rank >= self.maxrank for _, rank in self.drop_points):
            raise ValueError("drop points must have rank below maxrank")


def pencil_element(a: SymmetricForm, b: SymmetricForm, theta: float) -> SymmetricForm:
    return SymmetricForm(_element(a, b, theta))


def _element(a: SymmetricForm, b: SymmetricForm, theta: float) -> np.ndarray:
    return math.cos(theta) * a.matrix + math.sin(theta) * b.matrix


def _spectrum(a: SymmetricForm, b: SymmetricForm, theta: float) -> np.ndarray:
    """Singular values of the element at theta; raises if it vanishes."""
    m = _element(a, b, theta)
    if frob(m) <= RANK_REL * a.dim * max(a.frobenius() + b.frobenius(), 1e-300):
        raise ZeroElementError(f"pencil element at theta={theta} vanishes")
    return np.linalg.svd(m, compute_uv=False)


def _rank(s: np.ndarray) -> int:
    return int(np.count_nonzero(s > rank_tolerance(s, (len(s), len(s)))))


def _marginal(s: np.ndarray, rank: int) -> bool:
    """The smallest kept singular value lies within 10x of the rank cut."""
    cut = rank_tolerance(s, (len(s), len(s)))
    return rank > 0 and cut < s[rank - 1] <= 10.0 * cut


def rank_at(a: SymmetricForm, b: SymmetricForm, theta: float) -> int:
    """Numerical rank of cos(theta) A + sin(theta) B."""
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    return _rank(_spectrum(a, b, theta))


def _probe(
    a: SymmetricForm, b: SymmetricForm, seed: int
) -> tuple[int, float, np.ndarray, list[str]]:
    """(maxrank, generic angle, its singular values, notes) from nine probes.

    The generic rank is read at a random direction and confirmed on eight
    more; the generic angle is the first probe that reaches it.
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    if span_rank(a, b) < 2:
        raise DependentPairError("forms are linearly dependent")
    thetas = rng_for(seed, 0x9EC1).uniform(0.0, 2.0 * math.pi, size=9)
    spectra = [_spectrum(a, b, float(t)) for t in thetas]
    ranks = [_rank(s) for s in spectra]
    best = int(np.argmax(ranks))
    notes = []
    if min(ranks) != ranks[best]:
        notes.append("generic rank probes disagreed; keeping the largest")
    return ranks[best], float(thetas[best]), spectra[best], notes


def _candidate_clusters(
    a: SymmetricForm, b: SymmetricForm, theta_g: float, r: int, seed: int
) -> list[float]:
    """Candidate drop angles modulo pi, one per cluster of nearby eigenvalues."""
    u, _ = np.linalg.qr(rng_for(seed, 0xC0E5).standard_normal((a.dim, r)))
    g = u.T @ _element(a, b, theta_g) @ u
    h = u.T @ _element(a, b, theta_g + 0.5 * math.pi) @ u
    lam = np.linalg.eigvals(np.linalg.solve(g, h)).astype(complex)
    # tan(phi) = -1/lambda, written so that lambda = 0 gives phi = pi/2.
    # lambda = +-i (no real angle) gives an infinite imaginary part, which
    # the cut below drops.
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = 0.5 * math.pi + np.arctan(lam)
    psi = np.sort(np.mod(theta_g + phi.real[np.abs(phi.imag) <= _IMAG_CUT], math.pi))
    groups: list[list[float]] = []
    for x in psi:
        if groups and x - groups[-1][-1] < _MERGE_GAP:
            groups[-1].append(float(x))
        else:
            groups.append([float(x)])
    if len(groups) > 1 and groups[0][0] + math.pi - groups[-1][-1] < _MERGE_GAP:
        groups[0] = [x - math.pi for x in groups.pop()] + groups[0]
    return [float(np.mean(group)) % math.pi for group in groups]


def _gap_mod_pi(x: float, y: float) -> float:
    gap = abs(x - y) % math.pi
    return min(gap, math.pi - gap)


def rank_profile(a: SymmetricForm, b: SymmetricForm, seed: int = 42) -> PencilReport:
    """Generic rank, minimal nonzero rank and rank-drop directions.

    Drops are the candidate angles of the compressed pencil whose element
    has rank below maxrank, each reported with its half-turn image.  The
    pair is first scaled by one power of two (`forms.prescaled`), which
    changes no rank or angle but keeps every element representable.
    """
    (a, b), _ = prescaled(a, b)
    maxrank, generic_theta, spectrum, notes = _probe(a, b, seed)
    marginal = [generic_theta] if _marginal(spectrum, maxrank) else []
    marginal_drops: list[float] = []
    drops: list[tuple[float, int]] = []
    found: list[float] = []
    for psi in _candidate_clusters(a, b, generic_theta, maxrank, seed):
        s = _spectrum(a, b, psi)
        if _rank(s) >= maxrank:
            psi, _ = golden_section_minimize(
                lambda t: _spectrum(a, b, t)[maxrank - 1],
                psi - _IMAG_CUT,
                psi + _IMAG_CUT,
                _FALLBACK_STEPS,
            )
            s = _spectrum(a, b, psi)
        rank = _rank(s)
        if rank >= maxrank:
            continue
        psi %= math.pi
        if math.pi - psi < 1e-8:
            psi = 0.0
        if any(_gap_mod_pi(psi, seen) < _MERGE_GAP for seen in found):
            continue
        found.append(psi)
        drops.extend([(psi, rank), (psi + math.pi, rank)])
        if _marginal(s, rank):
            marginal_drops.extend([psi, psi + math.pi])

    drops.sort()
    minrank = min([rank for _, rank in drops], default=maxrank)
    return PencilReport(
        maxrank=maxrank,
        minrank=minrank,
        drop_points=tuple(drops),
        generic_theta=generic_theta,
        marginal=tuple(marginal + sorted(marginal_drops)),
        notes=tuple(notes),
    )


def max_rank_element(
    a: SymmetricForm, b: SymmetricForm, seed: int = 42
) -> tuple[float, SymmetricForm]:
    """A Frobenius-normalized pencil element of generic (maximal) rank."""
    _, theta, _, _ = _probe(a, b, seed)
    return theta, pencil_element(a, b, theta).normalized()


def nearby_basis(
    a: SymmetricForm, b: SymmetricForm, eps: float, seed: int = 42
) -> tuple[SymmetricForm, SymmetricForm]:
    """Basis (A~, A~ + eps * U) of the span with A~ of maximal rank.

    U is the unit-Frobenius complement of A~ inside the span, so the two
    returned forms are eps apart while still spanning the original pencil.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _, a_tilde = max_rank_element(a, b, seed=seed)
    anchor = a_tilde.matrix.ravel()
    complement = None
    for candidate in (a.matrix.ravel(), b.matrix.ravel()):
        residual = candidate - (candidate @ anchor) * anchor
        norm = float(np.linalg.norm(residual))
        if norm > 1e-10 * max(float(np.linalg.norm(candidate)), 1.0):
            complement = residual / norm
            break
    if complement is None:
        raise DependentPairError("span collapsed while building the nearby basis")
    b_tilde = SymmetricForm(a_tilde.matrix + eps * complement.reshape(a.dim, a.dim))
    if span_rank(a_tilde, b_tilde) != 2 or span_rank(a, b, a_tilde, b_tilde) != 2:
        raise DependentPairError("nearby basis failed to preserve the span")
    return a_tilde, b_tilde
