"""Non-dissipativity decisions and positive-definite trace certificates.

A pair (A, B) is non-dissipative when the zero matrix is the only positive
semidefinite element of its real span.  Equivalently there is a positive
definite Q with tr(Q A Q) = tr(Q B Q) = 0; equivalently no angle theta makes
cos(theta) A + sin(theta) B nonzero and positive semidefinite.

`decide` answers the question exactly from the singular angles that
`pencil.rank_profile` computes: between consecutive singular angles the
inertia of the element is constant, so it suffices to look at each singular
angle and at one point of each arc between them (Guo-Higham-Tisseur 2009
argue the same way for definite pairs).  A dense directional eigenvalue scan
(`min_eig_scan`) survives only as the diagnostic `extreme_min_eig` of
`is_non_dissipative`; no decision reads it.  The certificate is built in
closed form from support points of the joint numerical range
{(z.A.z, z.B.z) : |z| = 1}, which the extreme eigenvectors of the pencil
elements give (Brickman 1961): once such points surround the origin, a
convex combination of their rank-one projectors plus a multiple of the
identity annihilates both traces.

Every entry decides on the unit pair (`pencil.unit_pair`) with the constant
slacks EIG_REL and CERT_REL, and reports angles and values at the caller's
pencil.  Since M(theta) = rho(theta) M^(phi) with rho <= max(|A|_F, |B|_F),
the slacks stay within EIG_REL and CERT_REL times |A|_F + |B|_F there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ._numeric import CERT_REL, EIG_REL, RANK_REL, frob, golden_section_minimize
from .errors import InfeasiblePairError, NumericalInconclusiveError
from .forms import SymmetricForm, span_rank
from .pencil import PencilReport, UnitPair, _element, rank_profile, unit_pair

__all__ = [
    "Dissipativity",
    "DissipativityVerdict",
    "DirectionalProfile",
    "TraceCertificate",
    "CertificateStatus",
    "CertificateOutcome",
    "min_eig_scan",
    "decide",
    "is_non_dissipative",
    "trace_certificate",
    "trace_normalize",
]

# `eigh` calls the certificate's support search may spend.
_SUPPORT_CALLS = 32


class Dissipativity(enum.Enum):
    NON_DISSIPATIVE = "NON_DISSIPATIVE"
    DISSIPATIVE = "DISSIPATIVE"


class CertificateStatus(enum.Enum):
    FOUND = "FOUND"
    INFEASIBLE = "INFEASIBLE"
    NUMERICAL_INCONCLUSIVE = "NUMERICAL_INCONCLUSIVE"


@dataclass(frozen=True)
class DissipativityVerdict:
    kind: Dissipativity
    theta: float | None
    extreme_min_eig: float
    witness_min_eig: float | None = None
    witness_norm: float | None = None

    @property
    def non_dissipative(self) -> bool:
        return self.kind is Dissipativity.NON_DISSIPATIVE


@dataclass(frozen=True)
class DirectionalProfile:
    """Smallest eigenvalue of cos(t) A + sin(t) B over a half-turn grid.

    Angles are stored on [0, pi); `min_eigs_pos` holds the values for the
    combination itself and `min_eigs_neg` for its negation (the angle t + pi),
    so the two arrays together cover the full circle.
    """

    thetas: np.ndarray
    min_eigs_pos: np.ndarray
    min_eigs_neg: np.ndarray

    def __post_init__(self):
        for name in ("thetas", "min_eigs_pos", "min_eigs_neg"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def full_thetas(self) -> np.ndarray:
        return np.concatenate([self.thetas, self.thetas + math.pi])

    @property
    def full_min_eigs(self) -> np.ndarray:
        return np.concatenate([self.min_eigs_pos, self.min_eigs_neg])


@dataclass(frozen=True)
class TraceCertificate:
    """Positive definite Q annihilating both traces, with its residuals."""

    q: np.ndarray
    residual_a: float
    residual_b: float
    min_eig_q: float

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class CertificateOutcome:
    status: CertificateStatus
    certificate: TraceCertificate | None = None
    dissipative_theta: float | None = None
    iterations: int = 0
    # The dissipativity decision taken before the search.
    verdict: DissipativityVerdict | None = None

    @property
    def found(self) -> bool:
        return self.status is CertificateStatus.FOUND


def min_eig_scan(a: SymmetricForm, b: SymmetricForm, grid_size: int = 256) -> DirectionalProfile:
    """Sample the smallest eigenvalue of the pencil over all directions."""
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    if grid_size < 8:
        raise ValueError(f"grid_size must be at least 8, got {grid_size}")
    thetas = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    pos = np.empty(grid_size)
    neg = np.empty(grid_size)
    for i, t in enumerate(thetas):
        w = np.linalg.eigvalsh(_element(a, b, float(t)))
        pos[i] = w[0]
        neg[i] = -w[-1]
    return DirectionalProfile(thetas, pos, neg)


def _dissipative(pair: UnitPair, phi: float, extreme: float) -> DissipativityVerdict:
    """DISSIPATIVE at the unit angle phi, reported at the caller's angle and scale."""
    m = pair.element(phi)
    theta = pair.theta(phi) % (2.0 * math.pi)
    values = (pair.value(theta, x) for x in (float(np.linalg.eigvalsh(m)[0]), frob(m)))
    return DissipativityVerdict(Dissipativity.DISSIPATIVE, theta, extreme, *values)


def _dependent_span_verdict(pair: UnitPair) -> DissipativityVerdict:
    # One-dimensional span: the pair is non-dissipative exactly when the
    # generator is indefinite; extreme_min_eig is read on the generator.
    gen = pair.generator()
    w = np.linalg.eigvalsh(gen.matrix)
    lo, hi = float(w[0]), float(w[-1])
    if lo < -EIG_REL and hi > EIG_REL:
        return DissipativityVerdict(Dissipativity.NON_DISSIPATIVE, None, max(lo, -hi))
    # M^(phi) = (alpha cos(phi) + beta sin(phi)) G: phi points along +G, or
    # along -G when the generator is negative semidefinite.
    alpha, beta = (float(np.tensordot(f.matrix, gen.matrix)) for f in (pair.a, pair.b))
    phi = math.atan2(beta, alpha) + (math.pi if lo < -EIG_REL else 0.0)
    return _dissipative(pair, phi, max(lo, -hi))


def _inertia(w: np.ndarray, sign: int) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of sign * M, cut as ranks are."""
    cut = RANK_REL * max(abs(w[0]), abs(w[-1])) * len(w)
    counts = (int(np.count_nonzero(w > cut)), int(np.count_nonzero(w < -cut)))
    return counts if sign > 0 else counts[::-1]


def _check_inertia(
    pair: UnitPair,
    drops: list[tuple[float, int]],
    drop_spectra: list[np.ndarray],
    arc_spectra: list[np.ndarray],
    maxrank: int,
) -> None:
    """Raise unless the inertias fit the drops; a misfit means a missed (or
    misplaced) drop, and then no arc can be trusted to be PSD-free.

    On the full circle the singular angles are the drops psi_i and psi_i + pi;
    arc j runs from singular angle j to singular angle j + 1, and the second
    half-turn repeats the first with M negated.  Only the branches vanishing
    at a drop of rank rho can change sign there, so the drop keeps no more
    negative (or positive) eigenvalues than either neighbouring arc, and the
    two arcs differ by at most maxrank - rho in each count.  With no drops
    the circle is one arc, on which M and -M have the same inertia.
    """
    k = len(drops)
    if k == 0:
        pos, neg = _inertia(arc_spectra[0], 1)
        if pos != neg:
            raise NumericalInconclusiveError(
                f"no rank drops, but the inertia ({pos}, {neg}) of M differs from that of -M"
            )
        return
    arcs = [_inertia(arc_spectra[j % k], 1 if j < k else -1) for j in range(2 * k)]
    for j in range(2 * k):
        phi, rank = drops[j % k]
        at = _inertia(drop_spectra[j % k], 1 if j < k else -1)
        left, right = arcs[j - 1], arcs[j]
        for c in (0, 1):
            if at[c] > min(left[c], right[c]) or abs(left[c] - right[c]) > maxrank - rank:
                raise NumericalInconclusiveError(
                    f"inertia {at} at the rank-{rank} drop "
                    f"theta={pair.theta(phi + math.pi * (j >= k)) % (2.0 * math.pi):.6f} "
                    f"does not fit its arcs {left} and {right}: a rank drop is missing or misplaced"
                )


def decide(
    a: SymmetricForm, b: SymmetricForm, profile: PencilReport | None
) -> DissipativityVerdict:
    """Exact dissipativity decision from the singular angles of the pencil.

    `profile` is `rank_profile(a, b)`, or None when A and B span one
    dimension (decided from the definiteness of the generator); its angles
    are mapped to the unit pair, which is the identity on a unit pair.  M^ is
    evaluated at each drop angle and arc midpoint in [0, pi); one `eigvalsh`
    covers the angle and its half-turn image, M^(t + pi) = -M^(t).  The pair
    is DISSIPATIVE when the best smallest eigenvalue clears -EIG_REL, at the
    angle `theta` that attains it; `extreme_min_eig` is that eigenvalue.
    NON_DISSIPATIVE is returned only after the inertias pass
    `_check_inertia`; otherwise NumericalInconclusiveError is raised.
    """
    pair = unit_pair(a, b)
    return _decide(pair, profile, pair.phi)


def _decide(pair: UnitPair, profile: PencilReport | None, to_phi) -> DissipativityVerdict:
    """`decide` on the unit pair, reading the profile's angles through to_phi."""
    if profile is None:
        return _dependent_span_verdict(pair)
    drops = sorted(
        (to_phi(theta) % math.pi, rank) for theta, rank in profile.drop_points if theta < math.pi
    )
    psis = [phi for phi, _ in drops]
    if psis:
        arc_angles = [0.5 * (x + y) for x, y in zip(psis, psis[1:] + [psis[0] + math.pi])]
    else:
        arc_angles = [to_phi(profile.generic_theta) % math.pi]
    drop_spectra = [np.linalg.eigvalsh(pair.element(t)) for t in psis]
    arc_spectra = [np.linalg.eigvalsh(pair.element(t)) for t in arc_angles]
    best_value, best_phi = -math.inf, 0.0
    for t, w in zip(psis + arc_angles, drop_spectra + arc_spectra):
        for value, phi in ((float(w[0]), t), (-float(w[-1]), t + math.pi)):
            if value > best_value:
                best_value, best_phi = value, phi
    extreme = pair.value(pair.theta(best_phi), best_value)
    if best_value >= -EIG_REL:
        return _dissipative(pair, best_phi, extreme)
    _check_inertia(pair, drops, drop_spectra, arc_spectra, profile.maxrank)
    return DissipativityVerdict(Dissipativity.NON_DISSIPATIVE, None, extreme)


def _scan_maximum(a: SymmetricForm, b: SymmetricForm) -> float:
    """Maximum over the circle of the smallest eigenvalue: a grid scan refined
    by golden-section maximization in every cell holding a local maximum."""
    profile = min_eig_scan(a, b)
    thetas = profile.full_thetas
    values = profile.full_min_eigs
    n = len(thetas)
    step = 2.0 * math.pi / n

    def neg_min_eig(theta: float) -> float:
        return -float(np.linalg.eigvalsh(_element(a, b, theta))[0])

    best = float(np.max(values))
    for i in range(n):
        if values[i] >= values[(i - 1) % n] and values[i] >= values[(i + 1) % n]:
            _, value = golden_section_minimize(neg_min_eig, thetas[i] - step, thetas[i] + step, 60)
            best = max(best, -value)
    return best


def is_non_dissipative(a: SymmetricForm, b: SymmetricForm) -> DissipativityVerdict:
    """Decide whether any nonzero pencil element is positive semidefinite.

    `kind` and `theta` come from `decide` on the drops of `rank_profile`.
    `extreme_min_eig` is a diagnostic that no decision reads: the maximum
    over the circle of the smallest eigenvalue, refined from a 256-angle
    scan (`_scan_maximum`) and taken together with the best value at the
    decision's angles, so a DISSIPATIVE report never shows a value below
    -EIG_REL (|A|_F + |B|_F).  Pairs spanning a single direction are decided
    from the generator's definiteness.  The decision runs on the unit pair,
    whose profile it reads unmapped; the scan runs on the caller's pair
    divided by 2**e (`UnitPair`), and its value is scaled back.
    """
    pair = unit_pair(a, b)
    rank = span_rank(pair.a, pair.b)
    if rank == 0:
        raise ValueError("both forms vanish; the pair is undefined")
    if rank == 1:
        return _dependent_span_verdict(pair)
    verdict = _decide(pair, rank_profile(pair.a, pair.b), lambda phi: phi)
    scaled = (SymmetricForm(pair.ra * pair.a.matrix), SymmetricForm(pair.rb * pair.b.matrix))
    scanned = math.ldexp(_scan_maximum(*scaled), pair.e)
    return replace(verdict, extreme_min_eig=max(verdict.extreme_min_eig, scanned))


def _surrounding_points(a: SymmetricForm, b: SymmetricForm):
    """Unit vectors z_j whose points w_j = (z_j.A.z_j, z_j.B.z_j) surround 0.

    The bottom and top eigenvectors of M(theta) give the points of the joint
    numerical range on its supporting lines with outer normals theta + pi
    and theta.  After theta = k pi / 4 (k = 0..3), M is taken in the middle
    of the widest empty polar angle while that is pi or more (angles, not
    polygon edges: a polygonal range repeats its vertices).  Returns the
    vectors, points and polar angles sorted by angle, and the `eigh` count,
    or None after `_SUPPORT_CALLS` calls.
    """
    zs = np.empty((a.dim, 0))
    pending = [k * math.pi / 4.0 for k in range(4)]
    for calls in range(1, _SUPPORT_CALLS + 1):
        _, v = np.linalg.eigh(_element(a, b, pending.pop()))
        zs = np.column_stack([zs, v[:, 0], v[:, -1]])
        if pending:
            continue
        points = np.stack([np.sum(zs * (f.matrix @ zs), axis=0) for f in (a, b)])
        angles = np.arctan2(points[1], points[0])
        order = np.argsort(angles)
        angles = angles[order]
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
        k = int(np.argmax(gaps))
        if gaps[k] < math.pi:
            return zs[:, order], points[:, order], angles, calls
        pending.append(float(angles[k] + 0.5 * gaps[k]))
    return None


def _cross(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _exit_point(a: SymmetricForm, b: SymmetricForm, d: np.ndarray):
    """(calls, r, E): the ray along the unit vector d leaves the support polygon
    at r d, the point of the convex combination E of projectors z z^T (0 if none)."""
    if span_rank(a, b) == 1:
        # The range is a segment along d; the top point of M at d's angle ends it.
        w, v = np.linalg.eigh(_element(a, b, math.atan2(d[1], d[0])))
        return 1, float(w[-1]), np.outer(v[:, -1], v[:, -1])
    found = _surrounding_points(a, b)
    if found is None:
        return _SUPPORT_CALLS, 0.0, np.zeros((a.dim, a.dim))
    zs, points, angles, calls = found
    i = int(np.searchsorted(angles, math.atan2(d[1], d[0]), side="right")) - 1
    k = (i + 1) % len(angles)
    u, v = points[:, i], points[:, k]
    # r d = (cross(d, v) u + cross(u, d) v) / span is on the edge from u to v
    span = _cross(d, v - u)
    if not span > 0.0:
        return calls, 0.0, np.zeros((a.dim, a.dim))
    edge = _cross(d, v) * np.outer(zs[:, i], zs[:, i]) + _cross(u, d) * np.outer(zs[:, k], zs[:, k])
    return calls, _cross(u, v) / span, edge / span


def trace_certificate(a: SymmetricForm, b: SymmetricForm) -> CertificateOutcome:
    """Q > 0 with tr(Q A Q) = tr(Q B Q) = 0, in closed form from support points.

    A dissipative pair is INFEASIBLE with its PSD direction; every outcome
    carries the dissipativity decision as `verdict`.  Otherwise, on the
    unit pair (A^, B^), let tau = (tr A^, tr B^) / n; the ray from 0 along -tau
    leaves the range at r (`_exit_point`); P = (1 - eps) E + (eps / n) I with
    eps = r / (r + |tau|) has tr(P A) = tr(P B) = 0 and lambda_min(P) >= eps / n
    (I / n for a traceless pair).  Q = P^(1/2) is accepted when both residuals
    on the unit pair are within CERT_REL and P > 0; they are reported at the
    caller's scale, |A|_F tr(P A^) and |B|_F tr(P B^).  `iterations` counts
    `eigh` calls.
    """
    verdict = is_non_dissipative(a, b)
    if not verdict.non_dissipative:
        return CertificateOutcome(
            CertificateStatus.INFEASIBLE, dissipative_theta=verdict.theta, verdict=verdict
        )
    pair = unit_pair(a, b)
    a, b = pair.a, pair.b
    tau = np.array([np.trace(a.matrix), np.trace(b.matrix)]) / a.dim
    size = math.hypot(*tau)
    p, calls = np.eye(a.dim) / a.dim, 0
    if size > 0.0:
        calls, r, edge = _exit_point(a, b, -tau / size)
        eps = r / (r + size)
        p = (1.0 - eps) * edge + eps * p
    w, vecs = np.linalg.eigh(p)
    residuals = [abs(float(np.tensordot(p, f.matrix))) for f in (a, b)]
    if max(residuals) > CERT_REL or w[0] <= 0.0:
        return CertificateOutcome(
            CertificateStatus.NUMERICAL_INCONCLUSIVE, iterations=calls, verdict=verdict
        )
    q = (vecs * np.sqrt(w)) @ vecs.T
    residual_a, residual_b = pair.scaled(*residuals)
    certificate = TraceCertificate(q, residual_a, residual_b, float(np.sqrt(w[0])))
    return CertificateOutcome(
        CertificateStatus.FOUND, certificate, iterations=calls, verdict=verdict
    )


def trace_normalize(
    a: SymmetricForm, b: SymmetricForm
) -> tuple[SymmetricForm, SymmetricForm, np.ndarray]:
    """Congruence by a certificate Q making both traces vanish.

    Returns (Q.A.Q, Q.B.Q, Q); raises if the pair is dissipative or the
    certificate search stalls.
    """
    outcome = trace_certificate(a, b)
    if outcome.status is CertificateStatus.INFEASIBLE:
        raise InfeasiblePairError(
            "pair is dissipative; no trace-normalizing coordinates exist "
            f"(semidefinite direction theta={outcome.dissipative_theta})"
        )
    if outcome.status is CertificateStatus.NUMERICAL_INCONCLUSIVE:
        raise NumericalInconclusiveError(
            f"no certificate after {outcome.iterations} eigh calls of the support search"
        )
    q = outcome.certificate.q
    return SymmetricForm(q @ a.matrix @ q), SymmetricForm(q @ b.matrix @ q), q
