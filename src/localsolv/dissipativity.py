"""Non-dissipativity decisions and positive-definite trace certificates.

A pair (A, B) is non-dissipative when the zero matrix is the only positive
semidefinite element of its real span.  Equivalently there is a positive
definite P with tr(P A) = tr(P B) = 0 (then Q = P^(1/2) has tr(Q A Q) =
tr(Q B Q) = 0); equivalently no angle theta makes cos(theta) A +
sin(theta) B nonzero and positive semidefinite.

One support search on the unit pair (`_support_decision`) decides both ways.
The bottom and top eigenvectors of each element it evaluates give points of
the joint numerical range {(z.A.z, z.B.z) : |z| = 1} on its supporting lines
(Brickman 1961).  An evaluated element with lambda_min >= -EIG_REL is the
PSD witness (Guo-Higham-Tisseur 2009 search definite pairs the same way).
Once the points surround the origin, a convex combination of their rank-one
projectors plus a multiple of the identity is a P annihilating both traces,
and a gate on lambda_min(P) proves that no element has lambda_min >= -EIG_REL.
If neither comes, the maximum over the circle of the smallest eigenvalue
(`_max_min_eig`: a safeguarded Newton polish, and a level-set check after
Boyd-Balakrishnan 1990, as Higham-Tisseur-Van Dooren 2002 use it for the
Crawford number) decides.  `is_non_dissipative` also reports that maximum
as the diagnostic `extreme_min_eig`, and `trace_certificate` takes
Q = P^(1/2) of the search's P.

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

from ._numeric import CERT_REL, EIG_REL, frob
from .forms import SymmetricForm
from .pencil import UnitPair, _element, unit_pair

__all__ = [
    "Dissipativity",
    "DissipativityVerdict",
    "TraceCertificate",
    "CertificateStatus",
    "CertificateOutcome",
    "is_non_dissipative",
    "trace_certificate",
]

# `eigh` calls the support search may spend.
_SUPPORT_CALLS = 32
# `eigh` calls a polish of `_max_min_eig` may spend.  A smooth peak takes a
# few Newton steps; a kink is bisected down to _POLISH_WIDTH, and one left
# short of its peak by more than _LEVEL_REL is found again by the level-set
# round.
_POLISH_STEPS = 48
# The polish stops once the gain its Newton model predicts is at most this
# much of |A|_F + |B|_F, or once its bracket is narrower than _POLISH_WIDTH.
_POLISH_REL = 1e-16
_POLISH_WIDTH = 1e-11 * math.pi
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
    # The dissipativity decision, whose support search built the certificate.
    verdict: DissipativityVerdict
    certificate: TraceCertificate | None = None
    iterations: int = 0

    @property
    def found(self) -> bool:
        return self.status is CertificateStatus.FOUND


def _dissipative(pair: UnitPair, phi: float, extreme: float) -> DissipativityVerdict:
    """DISSIPATIVE at the unit angle phi, reported at the caller's angle."""
    theta = pair.theta(phi) % (2.0 * math.pi)
    return DissipativityVerdict(Dissipativity.DISSIPATIVE, theta, extreme)


def _dependent_span_verdict(pair: UnitPair) -> DissipativityVerdict:
    """A one-line span, M^(phi) = (alpha cos(phi) + beta sin(phi)) G: it is
    non-dissipative exactly when G is indefinite.  The caller's elements of
    largest norm are +-K G, K = 2**e hypot(ra alpha, rb beta); extreme_min_eig
    is the larger of their lambda_min, K max(lambda_min(G), -lambda_max(G)),
    which for a semidefinite G is the maximum over the caller's circle."""
    gen = pair.generator()
    w = np.linalg.eigvalsh(gen.matrix)
    lo, hi = float(w[0]), float(w[-1])
    alpha, beta = (float(np.tensordot(f.matrix, gen.matrix)) for f in (pair.a, pair.b))
    extreme = math.ldexp(math.hypot(pair.ra * alpha, pair.rb * beta) * max(lo, -hi), pair.e)
    if lo < -EIG_REL and hi > EIG_REL:
        return DissipativityVerdict(Dissipativity.NON_DISSIPATIVE, None, extreme)
    # phi points along +G, or along -G when the generator is negative semidefinite.
    phi = math.atan2(beta, alpha) + (math.pi if lo < -EIG_REL else 0.0)
    return _dissipative(pair, phi, extreme)


def _min_eig(a: SymmetricForm, b: SymmetricForm, theta: float) -> float:
    return float(np.linalg.eigvalsh(_element(a, b, theta))[0])


def _positive_definite(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _level_arcs(
    a: SymmetricForm, b: SymmetricForm, c: float, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(mids, lefts, rights, bounds): the arcs of the circle between
    consecutive angles in [theta, theta + 2 pi) where c is an eigenvalue of
    M, with their midpoints, and an upper bound on lambda_min(M) at each
    midpoint.

    With t = tan((x - alpha) / 2), (1 + t^2)(M(x) - cI) is
    (P - cI) + 2tQ - t^2 (P + cI), P = M(alpha) and Q = M(alpha + pi/2).  In
    the eigenbasis of P = V diag(w) V^T it is singular at the eigenvalues t of
    the companion matrix [[2 D V^T Q V, D (W - cI)], [I, 0]], D = (W + cI)^-1.
    P + cI is singular exactly when c is an eigenvalue at alpha + pi, so alpha
    is the first of three angles where it is not.  Empty when c is an
    eigenvalue at all three, which is taken to mean at every angle (as for
    the quartet, or a shared kernel with c = 0); then no smallest eigenvalue
    exceeds c.

    The bound at x is the least Rayleigh quotient v_j.M(x).v_j =
    cos(x - alpha) w_j + sin(x - alpha) (V^T Q V)_jj of the columns of V.
    """
    cut = EIG_REL * (frob(a.matrix) + frob(b.matrix))
    for alpha in theta + 0.5 * math.pi + np.arange(3.0):
        w, v = np.linalg.eigh(_element(a, b, alpha))
        if np.min(np.abs(w + c)) > cut:
            break
    else:
        return (np.empty(0),) * 4
    q = v.T @ _element(a, b, alpha + 0.5 * math.pi) @ v
    companion = np.block(
        [[2.0 * q / (w + c)[:, None], np.diag((w - c) / (w + c))], [np.eye(len(w)), np.zeros_like(q)]]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        x = alpha + 2.0 * np.arctan(np.linalg.eigvals(companion).astype(complex))
    x = x.real[np.abs(x.imag) <= _LEVEL_IMAG]
    lefts = np.sort(theta + np.mod(x - theta, 2.0 * math.pi))
    rights = np.append(lefts[1:], lefts[:1] + 2.0 * math.pi)
    mids = 0.5 * (lefts + rights)
    quotients = np.cos(mids - alpha)[:, None] * w + np.sin(mids - alpha)[:, None] * np.diag(q)
    return mids, lefts, rights, np.min(quotients, axis=1)


def _polish(a: SymmetricForm, b: SymmetricForm, lo: float, x: float, hi: float) -> tuple[float, float]:
    """(lambda_min, angle) at the best angle evaluated by a safeguarded Newton
    iteration on f'(x) = 0, f = lambda_min(M(x)), from x in (lo, hi).

    One `eigh` of M(x) = V diag(w) V^T gives f = w_0 and, since M' is
    M(x + pi/2) and M'' = -M, f' = v_0.M'.v_0 and f'' = -f + 2 sum over
    j > 0 of (v_0.M'.v_j)^2 / (w_0 - w_j).  The sign of f' narrows the
    bracket.  A step that leaves it, that does not halve the step before
    last (`rtsafe` of Numerical Recipes), or that comes from f'' >= 0 or not
    finite is a bisection of the bracket instead.  It stops when the Newton
    model's gain f'^2 / (2 |f''|) is at most _POLISH_REL (|A|_F + |B|_F), when
    the bracket is narrower than _POLISH_WIDTH, or after _POLISH_STEPS calls.
    """
    tol = _POLISH_REL * (frob(a.matrix) + frob(b.matrix))
    best = (-math.inf, x)
    before = last = hi - lo
    for _ in range(_POLISH_STEPS):
        w, v = np.linalg.eigh(_element(a, b, x))
        best = max(best, (float(w[0]), x))
        coupling = v.T @ (_element(a, b, x + 0.5 * math.pi) @ v[:, 0])
        slope = float(coupling[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            curve = float(2.0 * np.sum(coupling[1:] ** 2 / (w[0] - w[1:])) - w[0])
        concave = math.isfinite(curve) and curve < 0.0
        if (concave and slope * slope <= -2.0 * curve * tol) or hi - lo < _POLISH_WIDTH:
            break
        if slope > 0.0:
            lo = x
        else:
            hi = x
        step = -slope / curve if concave else math.inf
        if not (lo < x + step < hi and 2.0 * abs(step) <= abs(before)):
            step = lo + 0.5 * (hi - lo) - x
        before, last = last, step
        x += step
    return best


def _max_min_eig(
    pair: UnitPair, arc: tuple[float, float, float]
) -> tuple[float, tuple[float, float, float]]:
    """(max over the circle of lambda_min(M(theta)), (lo, theta, hi)) for the
    caller's pair, from a unit arc (lo, phi, hi) of `_support_decision`:
    theta attains the maximum, and lo and hi end the arc it was polished on.

    It runs on the caller's pair divided by 2**e, (ra A^, rb B^), with phi
    and its arc mapped to the caller's angles, and scales the value back.
    Step 1 polishes the start on its arc (`_polish`).  Step 2 shows that the
    polished value c is the maximum, by the level-set argument of Boyd and
    Balakrishnan (1990): lambda_min > c can hold only on arcs between
    consecutive angles where c is an eigenvalue (`_level_arcs`).  An arc
    whose midpoint bound is at most c is ruled out, since lambda_min is at
    most any Rayleigh quotient; one Cholesky factorization tests each other
    midpoint.  If none clears c + _LEVEL_REL (|A|_F + |B|_F), c is the
    maximum; otherwise step 1 repeats from the best midpoint on its arc.
    The value is lambda_min at the returned angle, so it never exceeds the
    maximum.  For the unit pair as its own caller the returned arc is a unit
    arc, from which a second call starts at the maximum.
    """
    lo, phi, hi = arc
    theta = pair.theta(phi)
    lo = theta - (theta - pair.theta(lo)) % (2.0 * math.pi)
    hi = theta + (pair.theta(hi) - theta) % (2.0 * math.pi)
    a, b = SymmetricForm(pair.ra * pair.a.matrix), SymmetricForm(pair.rb * pair.b.matrix)
    value = -math.inf
    margin = _LEVEL_REL * (frob(a.matrix) + frob(b.matrix))
    for _ in range(_LEVEL_ROUNDS):
        value, theta = max((value, theta), _polish(a, b, lo, theta, hi))
        mids, lefts, rights, bounds = _level_arcs(a, b, value, theta)
        level = (value + margin) * np.eye(a.dim)
        raised = [
            (_min_eig(a, b, mid), mid, left, right)
            for mid, left, right, bound in zip(mids, lefts, rights, bounds)
            if bound > value and _positive_definite(_element(a, b, mid) - level)
        ]
        if not raised or max(raised)[0] <= value:
            break
        value, theta, lo, hi = max(raised)
    return math.ldexp(value, pair.e), (lo, theta, hi)


def _cross(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _descent(pair: UnitPair) -> tuple[np.ndarray, float]:
    """(d, |tau|) for tau = (tr A^, tr B^) / n: d = -tau / |tau| (any unit
    vector when tau = 0) is the direction in which P is pushed out of I / n."""
    tau = np.array([np.trace(pair.a.matrix), np.trace(pair.b.matrix)]) / pair.a.dim
    size = math.hypot(*tau)
    return (-tau / size if size > 0.0 else np.array([1.0, 0.0])), size


def _annihilator(edge: np.ndarray, r: float, size: float) -> np.ndarray:
    """P = (1 - eps) E + (eps / n) I with eps = r / (r + |tau|), for the ray
    from 0 along -tau leaving the range at r d, the point of the convex
    combination E of projectors z z^T: tr P = 1 and tr(P A^) = tr(P B^) = 0,
    and lambda_min(P) >= eps / n.  I / n for a traceless pair."""
    n = len(edge)
    eps = r / (r + size) if size > 0.0 else 1.0
    return (1.0 - eps) * edge + (eps / n) * np.eye(n)


def _polygon_candidate(pair: UnitPair, zs: np.ndarray, points: np.ndarray, angles: np.ndarray):
    """`_annihilator` for support points w_j = (z_j.A^.z_j, z_j.B^.z_j),
    sorted by polar angle, that surround 0: the ray leaves their polygon on
    the edge between the two points whose angles straddle d."""
    d, size = _descent(pair)
    i = int(np.searchsorted(angles, math.atan2(d[1], d[0]), side="right")) - 1
    k = (i + 1) % len(angles)
    u, v = points[:, i], points[:, k]
    # r d = (cross(d, v) u + cross(u, d) v) / span is on the edge from u to v
    span = _cross(d, v - u)
    if not span > 0.0:
        return _annihilator(np.zeros((pair.a.dim,) * 2), 0.0, size)
    edge = _cross(d, v) * np.outer(zs[:, i], zs[:, i]) + _cross(u, d) * np.outer(zs[:, k], zs[:, k])
    return _annihilator(edge / span, _cross(u, v) / span, size)


def _excludes_psd(pair: UnitPair, p: np.ndarray) -> bool:
    """The gate on a candidate P (tr P = 1): no M^(phi) has lambda_min >=
    -EIG_REL when, with delta = max |tr(P F)| over F = A^, B^ (at most
    CERT_REL) and mu = sqrt(1 - |<A^, B^>|) = min over phi of |M^(phi)|_F,
    lambda_min(P) (mu - sqrt(n) EIG_REL) > sqrt(2) delta + EIG_REL.  Such an
    M^ = M+ - M- (M- of eigenvalues at most EIG_REL) would have tr(P M^) >=
    lambda_min(P) |M+|_F - EIG_REL with |M+|_F >= mu - sqrt(n) EIG_REL,
    while |tr(P M^)| <= sqrt(2) delta.
    """
    a, b = pair.a, pair.b
    delta = max(abs(float(np.tensordot(p, f.matrix))) for f in (a, b))
    mu = math.sqrt(max(0.0, 1.0 - abs(float(np.tensordot(a.matrix, b.matrix)))))
    lowest = float(np.linalg.eigvalsh(p)[0])
    bound = math.sqrt(2.0) * delta + EIG_REL
    return delta <= CERT_REL and lowest > 0.0 and lowest * (mu - math.sqrt(a.dim) * EIG_REL) > bound


def _support_decision(
    pair: UnitPair,
) -> tuple[DissipativityVerdict, np.ndarray | None, tuple[float, float, float], int]:
    """Decide a pair whose span is a plane by one support search on its unit pair.

    M^ is evaluated at phi = 0 and pi/2, then in the middle of the widest
    empty polar angle of the support points while that is pi or more
    (angles, not polygon edges: a polygonal range repeats its vertices).  One
    `eigh` covers an angle and its half-turn, M^(t + pi) = -M^(t); its bottom
    and top eigenvectors give the points of the range on its supporting
    lines with outer normals t + pi and t.
    - DISSIPATIVE at the first evaluated angle with lambda_min >= -EIG_REL.
    - NON_DISSIPATIVE once the points surround 0 and their P
      (`_polygon_candidate`) passes `_excludes_psd`.
    - Otherwise, or after `_SUPPORT_CALLS` calls, the maximum c over the
      circle of lambda_min (`_max_min_eig`, from the best evaluated angle)
      decides: DISSIPATIVE at its angle when c >= -EIG_REL, else
      NON_DISSIPATIVE.

    Returns the verdict at the caller's angle and scale, whose
    `extreme_min_eig` is the best evaluated value; P if the points surrounded
    0 and the pair is non-dissipative, else None; a unit arc (lo, phi, hi):
    the best evaluated angle phi and its neighbours among the evaluated
    angles or, after the fallback, the maximum and the arc it was polished
    on, where the `_max_min_eig` diagnostic then starts; and the `eigh` count
    of the search.
    """
    a, b = pair.a, pair.b
    zs, tried = np.empty((a.dim, 0)), []
    best_value, best_phi, p, proved = -math.inf, 0.0, None, False
    pending = [0.5 * math.pi, 0.0]
    for calls in range(1, _SUPPORT_CALLS + 1):
        t = pending.pop()
        w, v = np.linalg.eigh(pair.element(t))
        tried += [t, t + math.pi]
        for value, phi in ((float(w[0]), t), (-float(w[-1]), t + math.pi)):
            if value >= -EIG_REL:
                extreme = pair.value(pair.theta(phi), value)
                return _dissipative(pair, phi, extreme), None, _arc(tried, phi), calls
            if value > best_value:
                best_value, best_phi = value, phi
        zs = np.column_stack([zs, v[:, 0], v[:, -1]])
        if pending:
            continue
        points = np.stack([np.sum(zs * (f.matrix @ zs), axis=0) for f in (a, b)])
        angles = np.arctan2(points[1], points[0])
        order = np.argsort(angles)
        zs, points, angles = zs[:, order], points[:, order], angles[order]
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
        k = int(np.argmax(gaps))
        if gaps[k] >= math.pi:
            pending.append(float(angles[k] + 0.5 * gaps[k]))
            continue
        p = _polygon_candidate(pair, zs, points, angles)
        proved = _excludes_psd(pair, p)
        break
    arc = _arc(tried, best_phi)
    verdict = DissipativityVerdict(
        Dissipativity.NON_DISSIPATIVE, None, pair.value(pair.theta(best_phi), best_value)
    )
    if proved:
        return verdict, p, arc, calls
    # The unit pair as its own caller: its value and arc are read unmapped.
    value, arc = _max_min_eig(pair._replace(ra=1.0, rb=1.0, e=0), arc)
    phi = arc[1]
    if value >= -EIG_REL:
        return _dissipative(pair, phi, pair.value(pair.theta(phi), value)), None, arc, calls
    return verdict, p, arc, calls


def _arc(tried: list[float], phi: float) -> tuple[float, float, float]:
    """(lo, phi, hi): the evaluated angle phi and its neighbours among the
    evaluated angles on the circle; the neighbour behind is the one farthest
    ahead."""
    ahead = np.mod(np.array(tried) - phi, 2.0 * math.pi)
    ahead = ahead[ahead > 0.0]
    return phi + float(np.max(ahead)) - 2.0 * math.pi, phi, phi + float(np.min(ahead))


def _decision(
    pair: UnitPair,
) -> tuple[DissipativityVerdict, np.ndarray | None, tuple[float, float, float] | None, int]:
    """Condition (a) on a caller's unit pair: the verdict (for a plane span
    without the `_max_min_eig` diagnostic), the candidate P of a
    non-dissipative plane span or None, the unit arc of `_support_decision`
    (None for a one-line span) and the `eigh` calls spent."""
    if pair.span == 0:
        raise ValueError("both forms vanish; the pair is undefined")
    if pair.span == 2:
        return _support_decision(pair)
    return _dependent_span_verdict(pair), None, None, 0


def _segment_candidate(pair: UnitPair) -> tuple[np.ndarray, int]:
    """P of a non-dissipative one-line span, and the `eigh` calls spent: the
    range is a segment along d, which the top point of M at d's angle ends."""
    d, size = _descent(pair)
    if size == 0.0:
        return np.eye(pair.a.dim) / pair.a.dim, 0
    w, v = np.linalg.eigh(pair.element(math.atan2(d[1], d[0])))
    return _annihilator(np.outer(v[:, -1], v[:, -1]), float(w[-1]), size), 1


def is_non_dissipative(a: SymmetricForm, b: SymmetricForm) -> DissipativityVerdict:
    """Decide whether any nonzero pencil element is positive semidefinite.

    `kind` and `theta` come from `_support_decision` on the unit pair.
    `extreme_min_eig` is a diagnostic: the maximum over the circle of the
    smallest eigenvalue (`_max_min_eig`), found from the decision's best
    angle (or from the maximum its fallback found) by a safeguarded Newton
    polish and checked by one level-set computation.  Pairs spanning a
    single direction are decided, and their `extreme_min_eig` read, from the
    generator (`_dependent_span_verdict`).
    """
    pair = unit_pair(a, b)
    verdict, _, arc, _ = _decision(pair)
    return verdict if arc is None else replace(verdict, extreme_min_eig=_max_min_eig(pair, arc)[0])


def trace_certificate(a: SymmetricForm, b: SymmetricForm) -> CertificateOutcome:
    """Q > 0 with tr(Q A Q) = tr(Q B Q) = 0: Q = P^(1/2) for the P of the decision.

    A dissipative pair is INFEASIBLE with its PSD direction; every outcome
    carries the decision as `verdict`.  P comes from the support polygon of
    `_support_decision` (`_polygon_candidate`), or for a one-line span from
    the segment that is its range (`_segment_candidate`).  Q is accepted
    when both residuals on the unit pair are within CERT_REL and P > 0; they
    are reported at the caller's scale, |A|_F tr(P A^) and |B|_F tr(P B^).
    `iterations` counts `eigh` calls.
    """
    pair = unit_pair(a, b)
    verdict, p, arc, calls = _decision(pair)
    if arc is not None:
        verdict = replace(verdict, extreme_min_eig=_max_min_eig(pair, arc)[0])
    if not verdict.non_dissipative:
        return CertificateOutcome(CertificateStatus.INFEASIBLE, verdict, iterations=calls)
    if arc is None:
        p, calls = _segment_candidate(pair)
    if p is not None:
        w, vecs = np.linalg.eigh(p)
        residuals = [abs(float(np.tensordot(p, f.matrix))) for f in (pair.a, pair.b)]
        if max(residuals) <= CERT_REL and w[0] > 0.0:
            q = (vecs * np.sqrt(w)) @ vecs.T
            residual_a, residual_b = pair.scaled(*residuals)
            certificate = TraceCertificate(q, residual_a, residual_b, float(np.sqrt(w[0])))
            return CertificateOutcome(CertificateStatus.FOUND, verdict, certificate, calls)
    return CertificateOutcome(CertificateStatus.NUMERICAL_INCONCLUSIVE, verdict, iterations=calls)
