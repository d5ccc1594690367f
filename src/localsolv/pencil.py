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

One SVD of [A^; B^] gives the joint radical and its orthonormal complement
Q, n x r; the rest runs on the deflated element M_r(phi) = Q^T M^(phi) Q, its
ranks still cut as those of n x n elements.  Fixed probes give maxrank and a
generic angle phi_g: one when its element has rank r (a regular pencil),
else nine, the last eight in one stacked SVD.  On a basis U on which G =
U^T M_r(phi_g) U is invertible, det(U^T M_r(phi) U) vanishes wherever M_r
loses rank (rank completion, Hochstenbach-Mehl-Plestenjak, SIMAX 2019):
U = I for a regular pencil, else the top maxrank right singular vectors of
M_r(phi_g).  With H = U^T M_r(phi_g + pi/2) U, each drop sits at phi_g +
delta (and + pi) with tan(delta) = -1/lambda for a real eigenvalue lambda of
G^-1 H.  One stacked SVD confirms the candidates; it discards those of
singular Kronecker blocks (Van Dooren 1979).  A candidate that fails is
refined by a golden-section search of the maxrank-th singular value, so a
defective or ill-conditioned drop is not lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._numeric import golden_section_minimize, kernel_split, rank_tolerance
from .errors import DependentPairError
from .forms import Subspace, SymmetricForm, congruence, span_rank

__all__ = [
    "PencilReport",
    "UnitPair",
    "unit_pair",
    "pencil_element",
    "rank_profile",
]

# Loose cut on |Im phi| for an eigenvalue to give a candidate: a
# drop of multiplicity k whose eigenvalue is defective splits into a cluster
# of width about eps**(1/k), well inside it.  The fallback search brackets a
# candidate by the same width.
_IMAG_CUT = 1e-3
# Candidate angles closer than this (modulo pi) belong to one drop.
_MERGE_GAP = 1e-6
# Golden-section steps of the fallback: the bracket shrinks by 0.618**60.
_FALLBACK_STEPS = 60
# Fixed probe angles, the nine the default seed 42 drew: no rank reads a seed.
_PROBE_ANGLES = (
    0.8039937111526073, 3.746254582105696, 5.493420320871752,
    3.551611573226008, 4.046797003397246, 0.3680501610592709,
    5.875347779635972, 0.036436708324477214, 5.197509785135988,
)


@dataclass(frozen=True)
class PencilReport:
    maxrank: int
    minrank: int
    drop_points: tuple[tuple[float, int], ...]
    generic_theta: float
    # the unit pair's joint radical, from the SVD that deflates the pencil
    radical: Subspace = field(compare=False, repr=False)
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


def _spectra(a: SymmetricForm, b: SymmetricForm, phis) -> np.ndarray:
    """Singular values of the pair's element at each angle, from one stacked
    SVD (row by row the same values as single calls)."""
    return np.linalg.svd(np.stack([_element(a, b, float(t)) for t in phis]), compute_uv=False)


def _rank(s: np.ndarray, n: int) -> int:
    return int(np.count_nonzero(s > rank_tolerance(s, (n, n))))


def _marginal(s: np.ndarray, rank: int, n: int) -> bool:
    """The smallest kept singular value lies within 10x of the rank cut."""
    cut = rank_tolerance(s, (n, n))
    return rank > 0 and cut < s[rank - 1] <= 10.0 * cut


def _probe(
    a: SymmetricForm, b: SymmetricForm, n: int
) -> tuple[int, float, np.ndarray, list[str]]:
    """(maxrank, generic angle, its singular values, notes) from up to nine
    probes of a deflated pair, its ranks cut as those of n x n elements.

    The generic rank is read at the first fixed angle.  Full rank there ends
    the probe: the pencil is regular, and no angle has more.  Otherwise
    eight more angles, decomposed in one stacked SVD, confirm it.  The
    generic angle is the first probe that reaches the largest rank.
    """
    first = _spectra(a, b, _PROBE_ANGLES[:1])[0]
    if _rank(first, n) == a.dim:
        return a.dim, _PROBE_ANGLES[0], first, []
    spectra = [first, *_spectra(a, b, _PROBE_ANGLES[1:])]
    ranks = [_rank(s, n) for s in spectra]
    best = int(np.argmax(ranks))
    notes = []
    if min(ranks) != ranks[best]:
        notes.append("generic rank probes disagreed; keeping the largest")
    return ranks[best], _PROBE_ANGLES[best], spectra[best], notes


def _candidate_clusters(
    a: SymmetricForm, b: SymmetricForm, phi_g: float, maxrank: int
) -> list[float]:
    """Candidate drop angles modulo pi, one per cluster of nearby eigenvalues."""
    g = _element(a, b, phi_g)
    h = _element(a, b, phi_g + 0.5 * math.pi)
    if maxrank < a.dim:
        # a singular pencil: compress onto the range of its generic element
        u = np.linalg.svd(g)[2][:maxrank].T
        g, h = u.T @ g @ u, u.T @ h @ u
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


def rank_profile(a: SymmetricForm, b: SymmetricForm) -> PencilReport:
    """Generic rank, minimal nonzero rank and rank-drop directions.

    The analysis runs on the unit pair (`unit_pair`), deflated by its joint
    radical, which the report carries.  Drops are the candidate angles of
    the deflated pencil (compressed onto its generic element's range when
    it is singular) whose element has rank below maxrank, each reported
    with its half-turn image.  Every reported angle is the caller's.
    """
    pair = unit_pair(a, b)
    if pair.span < 2:
        raise DependentPairError("forms are linearly dependent")
    n = a.dim
    q, kernel = kernel_split(np.vstack([pair.a.matrix, pair.b.matrix]))
    a, b = (pair.a, pair.b) if q.shape[1] == n else (congruence(pair.a, q), congruence(pair.b, q))
    maxrank, generic_phi, spectrum, notes = _probe(a, b, n)
    marginal = [pair.theta(generic_phi) % (2.0 * math.pi)] if _marginal(spectrum, maxrank, n) else []
    marginal_drops: list[float] = []
    drops: list[tuple[float, int]] = []
    found: list[float] = []
    candidates = _candidate_clusters(a, b, generic_phi, maxrank)
    for psi, s in zip(candidates, _spectra(a, b, candidates) if candidates else []):
        if _rank(s, n) >= maxrank:
            psi, _ = golden_section_minimize(
                lambda t: _spectra(a, b, [t])[0, maxrank - 1],
                psi - _IMAG_CUT,
                psi + _IMAG_CUT,
                _FALLBACK_STEPS,
            )
            s = _spectra(a, b, [psi])[0]
        rank = _rank(s, n)
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
        if _marginal(s, rank, n):
            marginal_drops.extend([theta, theta + math.pi])

    drops.sort()
    minrank = min([rank for _, rank in drops], default=maxrank)
    return PencilReport(
        maxrank=maxrank,
        minrank=minrank,
        drop_points=tuple(drops),
        generic_theta=pair.theta(generic_phi) % (2.0 * math.pi),
        radical=Subspace(n, kernel),
        marginal=tuple(marginal + sorted(marginal_drops)),
        notes=tuple(notes),
    )
