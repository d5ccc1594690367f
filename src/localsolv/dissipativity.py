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
`is_non_dissipative`; no decision reads it.  Both entry points scale the
pair by one power of two first (`forms.prescaled`).  The certificate comes
from alternating projections onto the trace-one semidefinite simplex and
the trace-constraint plane.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ._numeric import CERT_REL, EIG_REL, RANK_REL, frob, golden_section_maximize
from .errors import InfeasiblePairError, NumericalInconclusiveError
from .forms import SymmetricForm, prescaled, span_rank
from .pencil import PencilReport, rank_profile

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
    # The dissipativity decision taken before the search (pairs only).
    verdict: DissipativityVerdict | None = None

    @property
    def found(self) -> bool:
        return self.status is CertificateStatus.FOUND


def _combination(a: SymmetricForm, b: SymmetricForm, theta: float) -> np.ndarray:
    return math.cos(theta) * a.matrix + math.sin(theta) * b.matrix


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def eig_slack(a: SymmetricForm, b: SymmetricForm) -> float:
    return EIG_REL * (a.frobenius() + b.frobenius())


def cert_tolerance(a: SymmetricForm, b: SymmetricForm) -> float:
    return CERT_REL * (a.frobenius() + b.frobenius())


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
        m = _combination(a, b, float(t))
        w = np.linalg.eigvalsh(m)
        pos[i] = w[0]
        neg[i] = -w[-1]
    return DirectionalProfile(thetas, pos, neg)


def _dissipative(
    a: SymmetricForm, b: SymmetricForm, theta: float, extreme: float, e: int
) -> DissipativityVerdict:
    """DISSIPATIVE at theta for a pair prescaled by 2**-e, valued at the pair's own scale."""
    m = _combination(a, b, theta)
    return DissipativityVerdict(
        Dissipativity.DISSIPATIVE,
        theta,
        extreme,
        math.ldexp(_min_eig(m), e),
        math.ldexp(frob(m), e),
    )


def _dependent_span_verdict(a: SymmetricForm, b: SymmetricForm, e: int) -> DissipativityVerdict:
    # One-dimensional span: the pair is non-dissipative exactly when the
    # generator is indefinite.
    slack = eig_slack(a, b)
    na, nb = a.frobenius(), b.frobenius()
    if na >= nb:
        gen, theta0 = a.matrix / na, 0.0
        coeff = float(np.tensordot(b.matrix, a.matrix) / na**2)
    else:
        gen, theta0 = b.matrix / nb, math.pi / 2.0
        coeff = float(np.tensordot(a.matrix, b.matrix) / nb**2)
    w = np.linalg.eigvalsh(gen)
    lo, hi = float(w[0]), float(w[-1])
    if lo < -slack and hi > slack:
        return DissipativityVerdict(Dissipativity.NON_DISSIPATIVE, None, max(lo, -hi))
    # Locate the angle pointing along +generator (or its negation when the
    # generator is negative semidefinite).
    if theta0 == 0.0:
        theta = math.atan2(coeff, 1.0)
    else:
        theta = math.atan2(1.0, coeff)
    if lo < -slack:  # generator NSD: the PSD element is the negation
        theta += math.pi
    theta %= 2.0 * math.pi
    return _dissipative(a, b, theta, max(lo, -hi), e)


def _inertia(w: np.ndarray, sign: int) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of sign * M, cut as ranks are."""
    cut = RANK_REL * max(abs(w[0]), abs(w[-1])) * len(w)
    counts = (int(np.count_nonzero(w > cut)), int(np.count_nonzero(w < -cut)))
    return counts if sign > 0 else counts[::-1]


def _check_inertia(
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
        theta, rank = drops[j % k]
        at = _inertia(drop_spectra[j % k], 1 if j < k else -1)
        left, right = arcs[j - 1], arcs[j]
        for c in (0, 1):
            if at[c] > min(left[c], right[c]) or abs(left[c] - right[c]) > maxrank - rank:
                raise NumericalInconclusiveError(
                    f"inertia {at} at the rank-{rank} drop theta={theta + math.pi * (j >= k):.6f} "
                    f"does not fit its arcs {left} and {right}: a rank drop is missing or misplaced"
                )


def decide(
    a: SymmetricForm, b: SymmetricForm, profile: PencilReport | None
) -> DissipativityVerdict:
    """Exact dissipativity decision from the singular angles of the pencil.

    `profile` is `rank_profile(a, b)`, or None when A and B span one
    dimension (decided from the definiteness of the generator).  M is
    evaluated at each drop angle and arc midpoint in [0, pi); one `eigvalsh`
    covers the angle and its half-turn image, M(t + pi) = -M(t).  The pair
    is DISSIPATIVE when the best smallest eigenvalue, `extreme_min_eig`,
    clears -`eig_slack`, at the angle `theta` that attains it.
    NON_DISSIPATIVE is returned only after the inertias pass
    `_check_inertia`; otherwise NumericalInconclusiveError is raised.
    """
    (a, b), e = prescaled(a, b)
    if profile is None:
        return _dependent_span_verdict(a, b, e)
    drops = [(theta, rank) for theta, rank in profile.drop_points if theta < math.pi]
    psis = [theta for theta, _ in drops]
    if psis:
        arc_angles = [0.5 * (x + y) for x, y in zip(psis, psis[1:] + [psis[0] + math.pi])]
    else:
        arc_angles = [profile.generic_theta % math.pi]
    drop_spectra = [np.linalg.eigvalsh(_combination(a, b, t)) for t in psis]
    arc_spectra = [np.linalg.eigvalsh(_combination(a, b, t)) for t in arc_angles]
    best_value, best_theta = -math.inf, 0.0
    for t, w in zip(psis + arc_angles, drop_spectra + arc_spectra):
        for value, theta in ((float(w[0]), t), (-float(w[-1]), t + math.pi)):
            if value > best_value:
                best_value, best_theta = value, theta
    if best_value >= -eig_slack(a, b):
        return _dissipative(a, b, best_theta % (2.0 * math.pi), math.ldexp(best_value, e), e)
    _check_inertia(drops, drop_spectra, arc_spectra, profile.maxrank)
    return DissipativityVerdict(Dissipativity.NON_DISSIPATIVE, None, math.ldexp(best_value, e))


def _scan_maximum(a: SymmetricForm, b: SymmetricForm, grid_size: int) -> float:
    """Maximum over the circle of the smallest eigenvalue: a grid scan refined
    by golden-section maximization in every cell holding a local maximum."""
    profile = min_eig_scan(a, b, grid_size)
    thetas = profile.full_thetas
    values = profile.full_min_eigs
    n = len(thetas)
    step = 2.0 * math.pi / n

    def min_eig_at(theta: float) -> float:
        return _min_eig(_combination(a, b, theta))

    best = float(np.max(values))
    for i in range(n):
        if values[i] >= values[(i - 1) % n] and values[i] >= values[(i + 1) % n]:
            _, value = golden_section_maximize(
                min_eig_at, thetas[i] - step, thetas[i] + step, 60
            )
            best = max(best, value)
    return best


def is_non_dissipative(
    a: SymmetricForm, b: SymmetricForm, grid_size: int = 256
) -> DissipativityVerdict:
    """Decide whether any nonzero pencil element is positive semidefinite.

    `kind` and `theta` come from `decide` on the drops of `rank_profile`.
    `extreme_min_eig` is a diagnostic that no decision reads: the maximum
    over the circle of the smallest eigenvalue, refined from a `grid_size`
    scan (`_scan_maximum`) and taken together with the best value at the
    decision's angles, so a DISSIPATIVE report never shows a value below
    -`eig_slack`.  Pairs spanning a single direction are decided from the
    generator's definiteness.  The pair is scaled by one power of two
    first, and every reported eigenvalue scaled back.
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    (sa, sb), e = prescaled(a, b)
    rank = span_rank(sa, sb)
    if rank == 0:
        raise ValueError("both forms vanish; the pair is undefined")
    if rank == 1:
        return decide(a, b, None)
    verdict = decide(a, b, rank_profile(a, b))
    scanned = math.ldexp(_scan_maximum(sa, sb, grid_size), e)
    return replace(verdict, extreme_min_eig=max(verdict.extreme_min_eig, scanned))


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    cumulative = np.cumsum(u)
    indices = np.arange(1, len(u) + 1)
    feasible = np.nonzero(u + (1.0 - cumulative) / indices > 0.0)[0]
    rho = feasible[-1]
    shift = (1.0 - cumulative[rho]) / (rho + 1.0)
    return np.maximum(w + shift, 0.0)


def _project_spectahedron(p: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(p)
    w = _project_simplex(w)
    return (u * w) @ u.T


def trace_certificate(
    a: SymmetricForm,
    b: SymmetricForm,
    *more: SymmetricForm,
    max_iterations: int = 10_000,
) -> CertificateOutcome:
    """Search for Q > 0 with tr(Q F Q) = 0 for every supplied form.

    The search alternates projections between the set {P psd, tr P = 1} and
    the affine set {tr(P F) = 0 for all F, tr P = 1}, then takes Q as the
    square root of the limit after a strict-interior push.  For a pair the
    dissipative case is detected up front and reported as infeasible together
    with the offending direction, and every pair outcome carries that decision
    as `verdict`; spans of more than two forms skip that pre-check and can
    only end in a certificate or an inconclusive report.
    """
    constraint_forms = [a, b, *more]
    dims = {f.dim for f in constraint_forms}
    if len(dims) > 1:
        raise ValueError("forms have mismatched dimensions")
    verdict = None
    if len(constraint_forms) == 2:
        verdict = is_non_dissipative(a, b)
        if not verdict.non_dissipative:
            return CertificateOutcome(
                CertificateStatus.INFEASIBLE, dissipative_theta=verdict.theta, verdict=verdict
            )
    n = a.dim
    tol = CERT_REL * sum(f.frobenius() for f in constraint_forms)
    if tol == 0.0:
        raise ValueError("all forms vanish; the certificate problem is undefined")

    mats = [f.matrix for f in constraint_forms] + [np.eye(n)]
    targets = np.array([0.0] * len(constraint_forms) + [1.0])
    gram = np.array([[np.tensordot(x, y) for y in mats] for x in mats])

    def affine_residual(p: np.ndarray) -> np.ndarray:
        return np.array([np.tensordot(p, m) for m in mats]) - targets

    p = np.eye(n) / n
    residual = affine_residual(p)
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        coeffs = np.linalg.solve(gram, residual)
        p = p - sum(c * m for c, m in zip(coeffs, mats))
        p = _project_spectahedron(p)
        residual = affine_residual(p)
        if np.max(np.abs(residual)) <= 0.25 * tol:
            converged = True
            break
    if not converged:
        return CertificateOutcome(
            CertificateStatus.NUMERICAL_INCONCLUSIVE, iterations=iterations, verdict=verdict
        )

    # Strict-interior push keeps both trace residuals within tolerance while
    # bounding the smallest eigenvalue of P away from zero.
    trace_shift = sum(abs(np.trace(f.matrix)) / n for f in constraint_forms)
    push = min(1e-9, 0.25 * tol / max(trace_shift, 1e-300))
    p = (1.0 - push) * p + (push / n) * np.eye(n)

    w, u = np.linalg.eigh(p)
    q = (u * np.sqrt(np.maximum(w, 0.0))) @ u.T
    residual_a = abs(float(np.tensordot(p, a.matrix)))
    residual_b = abs(float(np.tensordot(p, b.matrix)))
    worst = max(abs(float(np.tensordot(p, f.matrix))) for f in constraint_forms)
    if worst > tol or w[0] <= 0.0:
        return CertificateOutcome(
            CertificateStatus.NUMERICAL_INCONCLUSIVE, iterations=iterations, verdict=verdict
        )
    certificate = TraceCertificate(q, residual_a, residual_b, float(np.sqrt(w[0])))
    return CertificateOutcome(
        CertificateStatus.FOUND, certificate, iterations=iterations, verdict=verdict
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
            f"certificate search stalled after {outcome.iterations} iterations"
        )
    q = outcome.certificate.q
    return (
        SymmetricForm(q @ a.matrix @ q),
        SymmetricForm(q @ b.matrix @ q),
        q,
    )
