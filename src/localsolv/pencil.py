"""Rank analysis over the two-parameter pencil spanned by a pair of forms.

maxrank is the generic rank over the span, minrank the smallest rank of a
nonzero element M(theta) = cos(theta) A + sin(theta) B.

Every decision runs on the unit-Frobenius pair (A^, B^) = (A / |A|_F,
B / |B|_F) (`unit_pair`), which no separate scaling of A and B changes.  Its
element M^(phi) = cos(phi) A^ + sin(phi) B^ is M(theta) / rho(theta) with
theta = atan2(|A| sin(phi), |B| cos(phi)), rho = hypot(|A| cos(theta),
|B| sin(theta)) <= max(|A|, |B|).  Only reported angles and values are mapped
to the caller's pencil; no decision maps theta back to phi, which at
|A| / |B| = 1e9 a float theta near pi/2 fixes only to about 1e-7.

Seeded probes give maxrank r and a generic angle phi_g: one probe when its
element has full rank n, else nine, the last eight in one stacked SVD.  For
a generic orthonormal n x r matrix U, det(U^T M^(phi) U) vanishes at every
angle where M^ loses rank (rank completion, Hochstenbach-Mehl-Plestenjak,
SIMAX 2019).  So with G = U^T M^(phi_g) U and H = U^T M^(phi_g + pi/2) U,
every drop sits at phi_g + delta (and that angle + pi, since M^(phi + pi) =
-M^(phi)) with tan(delta) = -1/lambda for a real eigenvalue lambda of
G^-1 H.

One stacked SVD confirms the candidates and gives the rank at each.  Singular
Kronecker blocks of the pencil (Van Dooren 1979) add spurious candidates,
which that check discards.  A candidate that fails it is refined by a
golden-section search of the r-th singular value around it, so a drop whose
eigenvalue is defective or ill-conditioned is not lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._numeric import golden_section_minimize, rank_tolerance, rng_for
from .errors import DependentPairError
from .forms import SymmetricForm, span_rank

__all__ = [
    "PencilReport",
    "UnitPair",
    "unit_pair",
    "pencil_element",
    "rank_profile",
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


class UnitPair(NamedTuple):
    """The unit-Frobenius pair (A^, B^) of a caller's pair (A, B), with
    |A|_F = ra 2**e and |B|_F = rb 2**e.  A zero form takes the other's norm
    (its unit form is zero, so any norm gives the same pencil).  Equal norms
    make the maps the identity, so a unit pair is its own, and
    `_replace(ra=1.0, rb=1.0, e=0)` makes it its own caller.  `span` is the
    dimension 0, 1 or 2 of the span of A and B (`span_rank`)."""

    a: SymmetricForm
    b: SymmetricForm
    ra: float
    rb: float
    e: int
    span: int

    def element(self, phi: float) -> np.ndarray:
        return _element(self.a, self.b, phi)

    def theta(self, phi: float) -> float:
        """The caller's angle whose element is a positive multiple of M^(phi)."""
        return _turn(self.ra, self.rb, phi)

    def value(self, theta: float, x: float) -> float:
        """rho(theta) x: an eigenvalue or norm x of M^(phi) at the caller's scale."""
        rho = math.hypot(self.ra * math.cos(theta), self.rb * math.sin(theta))
        return math.ldexp(rho * x, self.e)

    def scaled(self, xa: float, xb: float) -> tuple[float, float]:
        """(|A| xa, |B| xb): values read against A^ and B^, at the caller's scale."""
        return math.ldexp(self.ra * xa, self.e), math.ldexp(self.rb * xb, self.e)

    def generator(self) -> SymmetricForm:
        """Unit generator of a span that is one line: A^ + B^ or A^ - B^."""
        sign = 1.0 if float(np.tensordot(self.a.matrix, self.b.matrix)) >= 0.0 else -1.0
        return SymmetricForm(self.a.matrix + sign * self.b.matrix).normalized()


def _turn(p: float, q: float, angle: float) -> float:
    return angle if p == q else math.atan2(p * math.sin(angle), q * math.cos(angle))


def unit_pair(a: SymmetricForm, b: SymmetricForm) -> UnitPair:
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    (ma, ea), (mb, eb) = a.scale(), b.scale()
    if ma == 0.0:
        ma, ea = mb, eb
    if mb == 0.0:
        mb, eb = ma, ea
    e = max(ea, eb)
    ua, ub = a.normalized(), b.normalized()
    return UnitPair(ua, ub, math.ldexp(ma, ea - e), math.ldexp(mb, eb - e), e, span_rank(ua, ub))


def pencil_element(a: SymmetricForm, b: SymmetricForm, theta: float) -> SymmetricForm:
    return SymmetricForm(_element(a, b, theta))


def _element(a: SymmetricForm, b: SymmetricForm, theta: float) -> np.ndarray:
    return math.cos(theta) * a.matrix + math.sin(theta) * b.matrix


def _spectrum(a: SymmetricForm, b: SymmetricForm, phi: float) -> np.ndarray:
    """Singular values of the unit pair's element at phi."""
    return np.linalg.svd(_element(a, b, phi), compute_uv=False)


def _spectra(a: SymmetricForm, b: SymmetricForm, phis) -> np.ndarray:
    """`_spectrum` at each angle, from one stacked SVD (row by row the same
    values as single calls)."""
    return np.linalg.svd(np.stack([_element(a, b, float(t)) for t in phis]), compute_uv=False)


def _rank(s: np.ndarray) -> int:
    return int(np.count_nonzero(s > rank_tolerance(s, (len(s), len(s)))))


def _marginal(s: np.ndarray, rank: int) -> bool:
    """The smallest kept singular value lies within 10x of the rank cut."""
    cut = rank_tolerance(s, (len(s), len(s)))
    return rank > 0 and cut < s[rank - 1] <= 10.0 * cut


def _probe(
    a: SymmetricForm, b: SymmetricForm, seed: int
) -> tuple[int, float, np.ndarray, list[str]]:
    """(maxrank, generic angle, its singular values, notes) from up to nine
    probes of the unit pair.

    The generic rank is read at a random direction.  Full rank n there ends
    the probe, since no angle has more; otherwise eight more directions,
    decomposed in one stacked SVD, confirm it.  The generic angle is the
    first probe that reaches the largest rank.
    """
    phis = rng_for(seed, 0x9EC1).uniform(0.0, 2.0 * math.pi, size=9)
    first = _spectrum(a, b, float(phis[0]))
    if _rank(first) == a.dim:
        return a.dim, float(phis[0]), first, []
    spectra = [first, *_spectra(a, b, phis[1:])]
    ranks = [_rank(s) for s in spectra]
    best = int(np.argmax(ranks))
    notes = []
    if min(ranks) != ranks[best]:
        notes.append("generic rank probes disagreed; keeping the largest")
    return ranks[best], float(phis[best]), spectra[best], notes


def _candidate_clusters(
    a: SymmetricForm, b: SymmetricForm, phi_g: float, r: int, seed: int
) -> list[float]:
    """Candidate drop angles modulo pi, one per cluster of nearby eigenvalues."""
    u, _ = np.linalg.qr(rng_for(seed, 0xC0E5).standard_normal((a.dim, r)))
    g = u.T @ _element(a, b, phi_g) @ u
    h = u.T @ _element(a, b, phi_g + 0.5 * math.pi) @ u
    lam = np.linalg.eigvals(np.linalg.solve(g, h)).astype(complex)
    # tan(delta) = -1/lambda, written so that lambda = 0 gives delta = pi/2.
    # lambda = +-i (no real angle) gives an infinite imaginary part, which
    # the cut below drops.
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * math.pi + np.arctan(lam)
    psi = np.sort(np.mod(phi_g + delta.real[np.abs(delta.imag) <= _IMAG_CUT], math.pi))
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
    analysis runs on the unit pair (`unit_pair`), and every reported angle
    is the caller's.
    """
    pair = unit_pair(a, b)
    if pair.span < 2:
        raise DependentPairError("forms are linearly dependent")
    a, b = pair.a, pair.b
    maxrank, generic_phi, spectrum, notes = _probe(a, b, seed)
    marginal = [pair.theta(generic_phi) % (2.0 * math.pi)] if _marginal(spectrum, maxrank) else []
    marginal_drops: list[float] = []
    drops: list[tuple[float, int]] = []
    found: list[float] = []
    candidates = _candidate_clusters(a, b, generic_phi, maxrank, seed)
    for psi, s in zip(candidates, _spectra(a, b, candidates) if candidates else []):
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
        if any(_gap_mod_pi(psi, seen) < _MERGE_GAP for seen in found):
            continue
        found.append(psi)
        theta = pair.theta(psi) % math.pi
        if math.pi - theta < 1e-8:
            theta = 0.0
        drops.extend([(theta, rank), (theta + math.pi, rank)])
        if _marginal(s, rank):
            marginal_drops.extend([theta, theta + math.pi])

    drops.sort()
    minrank = min([rank for _, rank in drops], default=maxrank)
    return PencilReport(
        maxrank=maxrank,
        minrank=minrank,
        drop_points=tuple(drops),
        generic_theta=pair.theta(generic_phi) % (2.0 * math.pi),
        marginal=tuple(marginal + sorted(marginal_drops)),
        notes=tuple(notes),
    )
