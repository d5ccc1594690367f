"""Non-dissipativity decisions and positive-definite trace certificates.

A pair (A, B) is non-dissipative when the zero matrix is the only positive
semidefinite element of its real span.  Equivalently there is a positive
definite Q with tr(Q A Q) = tr(Q B Q) = 0; equivalently no angle theta makes
cos(theta) A + sin(theta) B nonzero and positive semidefinite.

`decide` answers the question exactly from the singular angles that
`pencil.rank_profile` computes: between consecutive singular angles the
inertia of the element is constant, so it suffices to look at each singular
angle and at one point of each arc between them (Guo-Higham-Tisseur 2009
argue the same way for definite pairs).  `is_non_dissipative` also reports
the diagnostic `extreme_min_eig`, the maximum over the circle of the
smallest eigenvalue, which no decision reads: a golden-section polish from
the decision's best angle, and one level-set check (Boyd-Balakrishnan
1990, as Higham-Tisseur-Van Dooren 2002 use it for the Crawford number)
that no arc rises above it.  The certificate is built in
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
from .errors import NumericalInconclusiveError
from .forms import SymmetricForm, span_rank
from .pencil import PencilReport, UnitPair, _element, rank_profile, unit_pair

__all__ = [
    "Dissipativity",
    "DissipativityVerdict",
    "TraceCertificate",
    "CertificateStatus",
    "CertificateOutcome",
    "decide",
    "is_non_dissipative",
    "trace_certificate",
]

# `eigh` calls the certificate's support search may spend.
_SUPPORT_CALLS = 32
# Golden-section steps of the polish in `_max_min_eig`: the bracket shrinks
# by 0.618**48, about 1e-10.  A kink left short of its peak by more than
# _LEVEL_REL is found again by the level-set round.
_POLISH_STEPS = 48
# A level-set round of `_max_min_eig` continues only from a midpoint whose
# smallest eigenvalue clears the value by this much of |A|_F + |B|_F.
_LEVEL_REL = 1e-13
# Loose cut on |Im x| for a level angle x: a spurious angle only adds an arc
# midpoint to check, while a lost one could hide an arc above the level.
_LEVEL_IMAG = 1e-3
# Level-set rounds of `_max_min_eig`; two sufficed on every pair tried.
_LEVEL_ROUNDS = 8


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
    return _decide(pair, profile, pair.phi)[0]


def _decide(
    pair: UnitPair, profile: PencilReport | None, to_phi
) -> tuple[DissipativityVerdict, tuple[float, float, float] | None]:
    """`decide` on the unit pair, reading the profile's angles through to_phi.

    Also returns the unit angles (lo, phi, hi): the best evaluated angle phi
    and its neighbours among the evaluated angles on the circle, or None for
    a one-line span.
    """
    if profile is None:
        return _dependent_span_verdict(pair), None
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
    # How far each other evaluated angle lies ahead of best_phi on the circle;
    # the neighbour behind is the one farthest ahead.
    ahead = np.mod(np.array(psis + arc_angles) + [[0.0], [math.pi]] - best_phi, 2.0 * math.pi)
    ahead = ahead[ahead > 0.0]
    arc = (best_phi + float(np.max(ahead)) - 2.0 * math.pi, best_phi, best_phi + float(np.min(ahead)))
    extreme = pair.value(pair.theta(best_phi), best_value)
    if best_value >= -EIG_REL:
        return _dissipative(pair, best_phi, extreme), arc
    _check_inertia(pair, drops, drop_spectra, arc_spectra, profile.maxrank)
    return DissipativityVerdict(Dissipativity.NON_DISSIPATIVE, None, extreme), arc


def _min_eig(a: SymmetricForm, b: SymmetricForm, theta: float) -> float:
    return float(np.linalg.eigvalsh(_element(a, b, theta))[0])


def _positive_definite(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _level_angles(a: SymmetricForm, b: SymmetricForm, c: float, theta: float) -> np.ndarray:
    """The angles in [theta, theta + 2 pi) where c is an eigenvalue of M, sorted.

    With t = tan((x - alpha) / 2), (1 + t^2)(M(x) - cI) is
    (P - cI) + 2tQ - t^2 (P + cI), P = M(alpha) and Q = M(alpha + pi/2).  In
    the eigenbasis of P = V diag(w) V^T it is singular at the eigenvalues t of
    the companion matrix [[2 D V^T Q V, D (W - cI)], [I, 0]], D = (W + cI)^-1.
    P + cI is singular exactly when c is an eigenvalue at alpha + pi, so alpha
    is the first of three angles where it is not.  Empty when c is an
    eigenvalue at all three, which is taken to mean at every angle (as for
    the quartet, or a shared kernel with c = 0); then no smallest eigenvalue
    exceeds c.
    """
    cut = EIG_REL * (frob(a.matrix) + frob(b.matrix))
    for alpha in theta + 0.5 * math.pi + np.arange(3.0):
        w, v = np.linalg.eigh(_element(a, b, alpha))
        if np.min(np.abs(w + c)) > cut:
            break
    else:
        return np.empty(0)
    q = v.T @ _element(a, b, alpha + 0.5 * math.pi) @ v
    companion = np.block(
        [[2.0 * q / (w + c)[:, None], np.diag((w - c) / (w + c))], [np.eye(len(w)), np.zeros_like(q)]]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        x = alpha + 2.0 * np.arctan(np.linalg.eigvals(companion).astype(complex))
    x = x.real[np.abs(x.imag) <= _LEVEL_IMAG]
    return np.sort(theta + np.mod(x - theta, 2.0 * math.pi))


def _max_min_eig(pair: UnitPair, arc: tuple[float, float, float]) -> tuple[float, float]:
    """(max over the circle of lambda_min(M(theta)), an angle theta attaining
    it) for the caller's pair, from `_decide`'s unit arc (lo, phi, hi).

    It runs on the caller's pair divided by 2**e, (ra A^, rb B^), with phi
    and its arc mapped to the caller's angles, and scales the value back.
    Step 1 polishes the start by golden section on its arc.  Step 2 shows
    that the polished value c is the maximum, by the level-set argument of
    Boyd and Balakrishnan (1990): lambda_min > c can hold only on arcs
    between consecutive angles where c is an eigenvalue (`_level_angles`).
    If no arc midpoint clears c + _LEVEL_REL (|A|_F + |B|_F), which one
    Cholesky factorization tests, c is the maximum; otherwise step 1 repeats
    from the best midpoint on its arc.  The value is lambda_min at the
    returned angle, so it never exceeds the maximum.
    """
    lo, phi, hi = arc
    theta = pair.theta(phi)
    lo = theta - (theta - pair.theta(lo)) % (2.0 * math.pi)
    hi = theta + (pair.theta(hi) - theta) % (2.0 * math.pi)
    a, b = SymmetricForm(pair.ra * pair.a.matrix), SymmetricForm(pair.rb * pair.b.matrix)
    value = _min_eig(a, b, theta)
    margin = _LEVEL_REL * (frob(a.matrix) + frob(b.matrix))
    for _ in range(_LEVEL_ROUNDS):
        x, y = golden_section_minimize(lambda t: -_min_eig(a, b, t), lo, hi, _POLISH_STEPS)
        if -y > value:
            value, theta = -y, x
        lefts = _level_angles(a, b, value, theta)
        rights = np.append(lefts[1:], lefts[:1] + 2.0 * math.pi)
        level = (value + margin) * np.eye(a.dim)
        raised = [
            (_min_eig(a, b, mid), mid, left, right)
            for mid, left, right in zip(0.5 * (lefts + rights), lefts, rights)
            if _positive_definite(_element(a, b, mid) - level)
        ]
        if not raised or max(raised)[0] <= value:
            break
        value, theta, lo, hi = max(raised)
    return math.ldexp(value, pair.e), theta


def is_non_dissipative(a: SymmetricForm, b: SymmetricForm) -> DissipativityVerdict:
    """Decide whether any nonzero pencil element is positive semidefinite.

    `kind` and `theta` come from `decide` on the drops of `rank_profile`,
    which runs on the unit pair and is read unmapped.  `extreme_min_eig` is
    a diagnostic that no decision reads: the maximum over the circle of the
    smallest eigenvalue (`_max_min_eig`), found from the decision's best angle
    by a golden-section polish and checked by one level-set computation.
    Pairs spanning a single direction are decided, and their
    `extreme_min_eig` read, from the generator's definiteness.
    """
    pair = unit_pair(a, b)
    rank = span_rank(pair.a, pair.b)
    if rank == 0:
        raise ValueError("both forms vanish; the pair is undefined")
    if rank == 1:
        return _dependent_span_verdict(pair)
    verdict, arc = _decide(pair, rank_profile(pair.a, pair.b), lambda phi: phi)
    return replace(verdict, extreme_min_eig=_max_min_eig(pair, arc)[0])


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
