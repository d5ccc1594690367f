"""Witness points on the joint zero set of two quadratic forms.

The joint zero set {Q_A = 0} n {Q_B = 0} is a cone; all searches work on its
unit sphere section.  Points are reached by a Gauss-Newton projection of the
two-component residual map (minimal-norm update, re-normalized every step),
restarted from seeded random directions.  A returned witness always carries
re-checkable residuals and the margin it certifies.

Restart k draws its start from its own stream rng_for(seed, salt, k).  The
first restart runs alone; the later ones run in lockstep blocks of at most
`_BLOCK` rows, where each step works on the whole block: the least-norm step
J^T (J J^T)^-1 (-r) and the tangent projection are solved per row in closed
form from the 2 x 2 Gram matrix of the gradients (from their QR factor where
they are nearly parallel), and a row leaves the block once it converges or
fails.  The search stops after the first block with a
success and returns its lowest successful restart, so outcomes and attempt
counts are those of running the restarts one at a time.

A search ends in one of three ways (`SearchStatus`): FOUND, with a witness;
EMPTY, when `zero_set_gap` proves that no point of the unit sphere can pass
the residual test, so no witness exists; or EXHAUSTED, when the restart
budget ran out, which is a statement about the search and not a proof that
no witness exists.  For n = 2 the gap is exact and taken before the first
restart.  For n >= 3 the joint zero set is {0} exactly when some pencil
element is definite (Calabi 1964, after Finsler 1937); that is checked once
the first restart has failed, so searches that succeed at once pay nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._numeric import BRACKET_REL, TRANS_REL, ZERO_TOL, numerical_rank, rng_for, unit_vector
from .dissipativity import _decision, _max_min_eig
from .forms import (
    SymmetricForm,
    SymplecticStructure,
    Subspace,
    joint_radical,
    is_symplectic_subspace,
    poisson_bracket,
)
from .pencil import rank_profile, unit_pair

__all__ = [
    "WitnessResult",
    "WitnessSearch",
    "SearchStatus",
    "ContainmentProbe",
    "RadicalStatus",
    "Branch",
    "HypothesisReport",
    "project_to_joint_zero",
    "zero_set_gap",
    "transversality_witness",
    "bracket_witness",
    "hypothesis_report",
    "radical_status",
    "containment_probe",
]

_MAX_NEWTON_ITERATIONS = 100
_HILL_CLIMB_STEPS = 50

# Restarts after the first run in lockstep blocks of at most this many rows.
_BLOCK = 64

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Candidate witnesses are re-converged to this residual before their margin
# is trusted: quadratic forms can reach ~sqrt(residual) away from their value
# on the exact zero set, so a 1e-9 residual alone would admit margins up to
# ~6e-5 that evaporate on the variety itself.  Polishing to 1e-14 caps that
# leakage at ~2e-7, safely below every margin threshold in use.
_POLISH_TOL = 1e-14
_POLISH_ITERATIONS = 60

# A search is EMPTY when `zero_set_gap` exceeds this.  Any gap above
# sqrt(2) * ZERO_TOL already rules out every point the residual test could
# accept; the cut sits far above that, so rounding in the proof cannot turn
# a near miss into EMPTY.  Below it the search runs as if there were no proof.
_EMPTY_CUT = 1e-6


class SearchStatus(enum.Enum):
    FOUND = "FOUND"
    EXHAUSTED = "EXHAUSTED"
    EMPTY = "EMPTY"


class RadicalStatus(enum.Enum):
    TRIVIAL = "TRIVIAL"
    SYMPLECTIC = "SYMPLECTIC"
    DEGENERATE = "DEGENERATE"


class Branch(enum.Enum):
    I = "I"
    II = "II"
    NONE = "NONE"


@dataclass(frozen=True)
class WitnessResult:
    """Unit-norm point on the joint zero set plus the quantity it certifies.

    Residuals are recorded for the unit-Frobenius rescalings of the two
    forms, so they are comparable across instances; `margin` is the second
    singular value of [Az | Bz] for transversality witnesses and |Q_C(z)| for
    bracket witnesses, both at the original scale.
    """

    point: np.ndarray
    residual_a: float
    residual_b: float
    margin: float
    attempts: int
    kind: str

    def __post_init__(self):
        p = np.array(self.point, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "point", p)


@dataclass(frozen=True)
class WitnessSearch:
    """Outcome of a restarted search; `attempts` counts the restarts run."""

    witness: WitnessResult | None
    attempts: int
    budget: int
    status: SearchStatus

    def __post_init__(self):
        if (self.witness is not None) != (self.status is SearchStatus.FOUND):
            raise ValueError("a search carries a witness exactly when its status is FOUND")

    @property
    def found(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class ContainmentProbe:
    separating_point: np.ndarray | None
    samples_used: int

    def __post_init__(self):
        if self.separating_point is not None:
            p = np.array(self.separating_point, dtype=float)
            p.flags.writeable = False
            object.__setattr__(self, "separating_point", p)

    @property
    def contained_evidence(self) -> bool:
        return self.separating_point is None


@dataclass(frozen=True)
class HypothesisReport:
    """The hypotheses of a verdict.  `radical` is the joint radical of the
    unit pair that `radical_status` classifies; it is not compared."""

    nondissipative: bool
    independent_abc: bool
    minrank: int
    maxrank: int
    radical_status: RadicalStatus
    radical_dim: int
    branch: Branch
    radical: Subspace = field(compare=False, repr=False)
    notes: tuple[str, ...] = ()


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.add.reduce(x * y, axis=-1)


def _stacked(a: SymmetricForm, b: SymmetricForm) -> np.ndarray:
    """[An | Bn] of the unit-Frobenius forms, so one product gives both gradients."""
    return np.hstack([a.normalized().matrix, b.normalized().matrix])


def _evaluate(stack: np.ndarray, z: np.ndarray):
    """Each row z's pair (An z, Bn z), shape (m, 2, n), and residuals (Q_An(z), Q_Bn(z))."""
    pair = (z @ stack).reshape(len(z), 2, z.shape[1])
    return pair, _rowdot(pair, z[:, None, :])


class _Frame(NamedTuple):
    """Column-pivoted QR of each row's pair: [p q] = [e1 e2] [[f, g], [0, h]].

    p is the longer of the pair's two vectors (`swap` marks rows where that
    is the second), so e1 exists whenever the pair is nonzero, and e2 is
    zero where the pair is parallel.  R^T R is the pair's 2 x 2 Gram matrix;
    R is built from the vectors (Gram-Schmidt, twice) rather than from the
    Gram entries, so s2 keeps the absolute accuracy of an SVD, eps * s1,
    where the normal equations would give sqrt(eps) * s1 for nearly
    parallel gradients.
    """

    e1: np.ndarray
    e2: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    s1: np.ndarray  # singular values of the pair, s1 >= s2
    s2: np.ndarray
    swap: np.ndarray


def _pair_frame(pair: np.ndarray) -> _Frame:
    square = _rowdot(pair, pair)
    swap = square[:, 1] > square[:, 0]
    if swap.any():
        pair = np.where(swap[:, None, None], pair[:, ::-1], pair)
    p, q = pair[:, 0], pair[:, 1]
    f = np.sqrt(np.maximum.reduce(square, axis=1))
    e1 = p / np.maximum(f, _TINY)[:, None]
    g = _rowdot(e1, q)
    w = q - g[:, None] * e1
    again = _rowdot(e1, w)
    w -= again[:, None] * e1
    g += again
    h = np.sqrt(_rowdot(w, w))
    e2 = w / np.maximum(h, _TINY)[:, None]
    s1 = 0.5 * (np.hypot(f + h, g) + np.hypot(f - h, g))
    return _Frame(e1, e2, f, g, h, s1, f * h / np.maximum(s1, _TINY), swap)


class _Gram(NamedTuple):
    """Each row's Gram matrix G = [u v]^T [u v] of its pair (u, v).

    `top` is lambda_max(G), and lambda_min(G) = det / top.  Where u and v are
    within about 0.6 degrees of parallel (`loose`), rounding in
    det = |u|^2 |v|^2 - (u.v)^2 swamps its value; those rows use `_pair_frame`.
    """

    uu: np.ndarray
    uv: np.ndarray
    vv: np.ndarray
    det: np.ndarray
    top: np.ndarray
    loose: np.ndarray

    @classmethod
    def of(cls, pair: np.ndarray) -> "_Gram":
        gram = pair @ pair.transpose(0, 2, 1)
        uu, uv, vv = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
        det = uu * vv - uv * uv
        top = 0.5 * (uu + vv) + np.hypot(0.5 * (uu - vv), uv)
        return cls(uu, uv, vv, det, top, ~(det > 1e-4 * uu * vv))

    def combine(self, pair: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """pair^T G^{-1} b for each row, where `rows` marks G as invertible."""
        det = np.where(rows, self.det, 1.0)
        alpha = (self.vv * b[:, 0] - self.uv * b[:, 1]) / det
        beta = (self.uu * b[:, 1] - self.uv * b[:, 0]) / det
        return alpha[:, None] * pair[:, 0] + beta[:, None] * pair[:, 1]


def _gauss_newton_step(pair: np.ndarray, r: np.ndarray):
    """Least-norm solution of J delta = -r for each row's J = 2 [u; v].

    delta = J^T (J J^T)^{-1} (-r) = [u v] G^{-1} (-r / 2).  Returns the steps
    and the mask of rows whose J passes the rank test
    sigma_2 > 1e-12 max(sigma_1, 1), that is
    lambda_min(G) > 1e-24 max(lambda_max(G), 1/4); the steps of other rows
    are not used.  Loose rows solve by the QR frame instead: with
    J = 2 R^T [e1 e2]^T, the step is y0 e1 + y1 e2 for R^T y = -r / 2.
    """
    gram = _Gram.of(pair)
    full = gram.det > 1e-24 * gram.top * np.maximum(gram.top, 0.25)
    delta = gram.combine(pair, -0.5 * r, full)
    if gram.loose.any():
        rows = np.flatnonzero(gram.loose)
        fr = _pair_frame(pair[rows])
        full[rows] = fr.s2 > 1e-12 * np.maximum(fr.s1, 0.5)
        s = np.where(fr.swap[:, None], r[rows, ::-1], r[rows])
        y0 = -0.5 * s[:, 0] / np.maximum(fr.f, _TINY)
        y1 = (-0.5 * s[:, 1] - fr.g * y0) / np.maximum(fr.h, _TINY)
        delta[rows] = y0[:, None] * fr.e1 + y1[:, None] * fr.e2
    return delta, full


def _tangent_component(pair: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of w minus its projection onto the span of its pair.

    The second direction counts only above the rank cutoff that `lstsq`
    applies to the n x 2 Jacobian: sigma_2 > eps * max(n, 2) * sigma_1.
    Rows that are loose or fall under the cutoff use the QR frame.
    """
    gram = _Gram.of(pair)
    cutoff = _EPS * max(w.shape[1], 2)
    plain = ~gram.loose & (gram.det > cutoff * cutoff * gram.top * gram.top)
    tangent = w - gram.combine(pair, _rowdot(pair, w[:, None, :]), plain)
    if not plain.all():
        rows = np.flatnonzero(~plain)
        fr = _pair_frame(pair[rows])
        t = w[rows] - _rowdot(fr.e1, w[rows])[:, None] * fr.e1
        coeff = np.where(fr.s2 > cutoff * fr.s1, _rowdot(fr.e2, t), 0.0)
        tangent[rows] = t - coeff[:, None] * fr.e2
    return tangent


def _descend(stack, z, direction, current):
    """Backtracking step of each row along its direction.

    A row takes the first of the steps 1, 1/2, ..., 2^-24 whose
    re-normalized point lowers its squared residual below `current`;
    degenerate (near-zero) candidates just shrink the step, since the search
    lives on the unit sphere.  Returns the mask of rows that moved and their
    new points, pairs and residuals (other rows of these are not set).
    """
    rows = None  # all of them
    found = None
    scale = 1.0
    for _ in range(25):
        candidate = z + scale * direction if rows is None else z[rows] + scale * direction[rows]
        norm = np.sqrt(_rowdot(candidate, candidate))
        candidate /= np.maximum(norm, _TINY)[:, None]
        pair, r = _evaluate(stack, candidate)
        better = (_rowdot(r, r) < (current if rows is None else current[rows])) & (norm > 1e-12)
        if rows is None:
            if better.all():
                return better, candidate, pair, r
            rows = np.arange(len(z))
            found = (np.zeros(len(z), dtype=bool), np.empty_like(z), np.empty_like(pair), np.empty_like(r))
        hit = rows[better]
        for array, value in zip(found, (True, candidate[better], pair[better], r[better])):
            array[hit] = value
        rows = rows[~better]
        if not rows.size:
            break
        scale *= 0.5
    return found


def _descent_direction(pair: np.ndarray, r: np.ndarray):
    """Minus the gradient of Q_A^2 + Q_B^2 at each row, and where it is zero."""
    grad = 4.0 * np.add.reduce(r[:, :, None] * pair, axis=1)
    return -grad, _rowdot(grad, grad) == 0.0


def _project_rows(
    stack: np.ndarray,
    z: np.ndarray,
    max_iterations: int = _MAX_NEWTON_ITERATIONS,
    tol: float = ZERO_TOL,
):
    """`project_to_joint_zero` for each nonzero row of z, in lockstep.

    A row leaves the block once it converges or fails.  Returns the points
    (meaningful only where converged) and the mask of converged rows.
    """
    z = z / np.sqrt(_rowdot(z, z))[:, None]
    out = np.zeros_like(z)
    ok = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    pair, r = _evaluate(stack, z)
    for iteration in range(max_iterations + 1):
        done = np.maximum.reduce(np.abs(r), axis=1) <= tol
        if done.all():
            out[live], ok[live] = z, True
            break
        if done.any():
            out[live[done]], ok[live[done]] = z[done], True
            going = ~done
            live, z, pair, r = live[going], z[going], pair[going], r[going]
        if iteration == max_iterations:
            break
        current = _rowdot(r, r)
        delta, full = _gauss_newton_step(pair, r)
        # Where J lost rank or its step failed: gradient descent on
        # Q_A^2 + Q_B^2; a row whose gradient is zero fails.
        stuck = np.zeros(len(z), dtype=bool)
        if not full.all():
            rows = np.flatnonzero(~full)
            delta[rows], stuck[rows] = _descent_direction(pair[rows], r[rows])
        moved, *step = _descend(stack, z, delta, current)
        retry = np.flatnonzero(full & ~moved)
        if retry.size:
            direction, stuck[retry] = _descent_direction(pair[retry], r[retry])
            again, *second = _descend(stack, z[retry], direction, current[retry])
            moved[retry[again]] = True
            for array, value in zip(step, second):
                array[retry[again]] = value[again]
        moved &= ~stuck
        if not moved.all():
            live = live[moved]
            step = [array[moved] for array in step]
        z, pair, r = step
    return out, ok


def project_to_joint_zero(a: SymmetricForm, b: SymmetricForm, z0: np.ndarray) -> np.ndarray | None:
    """Project a point onto the unit-sphere slice of {Q_A = 0} n {Q_B = 0}.

    Each step solves the 2 x n linearization by least norm and re-normalizes,
    halving the step while the squared residual fails to decrease; where the
    Jacobian loses rank the step falls back to gradient descent on
    Q_A^2 + Q_B^2.  Returns None when `_MAX_NEWTON_ITERATIONS` steps leave
    a residual above ZERO_TOL.
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    z = unit_vector(np.asarray(z0, dtype=float))
    points, ok = _project_rows(_stacked(a, b), z[None, :])
    return points[0] if ok[0] else None


def _polish(stack: np.ndarray, z: np.ndarray):
    """Re-converge candidates to near machine-precision residuals."""
    return _project_rows(stack, z, _POLISH_ITERATIONS, _POLISH_TOL)


def _witness_from_point(a, b, z, margin, attempts, kind) -> WitnessResult:
    an, bn = a.normalized().matrix, b.normalized().matrix
    return WitnessResult(
        point=z,
        residual_a=abs(float(z @ an @ z)),
        residual_b=abs(float(z @ bn @ z)),
        margin=margin,
        attempts=attempts,
        kind=kind,
    )


def _plane_gap(an: np.ndarray, bn: np.ndarray) -> float:
    """Exact minimum of ||(Q_An(z), Q_Bn(z))|| over unit z in R^2.

    With z = (cos t, sin t) and phi = 2t, Q(z) = tr(M)/2 + ((m11 - m22)/2,
    m12) . (cos phi, sin phi), so the residual traces the ellipse
    c + L u(phi).  g = ||c + L u||^2 = |c|^2 + 2 d.u + u^T K u with d = L^T c
    and K = L^T L, and z^2 g'(phi) is a quartic in z = e^(i phi); g is
    evaluated at the argument of each of its roots (a superset of the
    critical points) and at phi = 0, in case g is constant.
    """
    c = 0.5 * np.array([an[0, 0] + an[1, 1], bn[0, 0] + bn[1, 1]])
    ell = np.array(
        [[0.5 * (an[0, 0] - an[1, 1]), an[0, 1]], [0.5 * (bn[0, 0] - bn[1, 1]), bn[0, 1]]]
    )
    d = ell.T @ c
    k = ell.T @ ell
    # g'(phi) = p cos(phi) + q sin(phi) + r cos(2 phi) + s sin(2 phi)
    p, q, r, s = 2.0 * d[1], -2.0 * d[0], 2.0 * k[0, 1], k[1, 1] - k[0, 0]
    quartic = [r - 1j * s, p - 1j * q, 0.0, p + 1j * q, r + 1j * s]
    phis = np.append(np.angle(np.roots(quartic)), 0.0)
    residual = c[:, None] + ell @ np.stack([np.cos(phis), np.sin(phis)])
    return float(np.min(np.hypot(residual[0], residual[1])))


def zero_set_gap(a: SymmetricForm, b: SymmetricForm) -> float:
    """A proved lower bound on ||(Q_An(z), Q_Bn(z))|| over unit vectors z.

    An and Bn are the unit-Frobenius forms the searches test residuals on,
    so a gap above sqrt(2) * ZERO_TOL means no point can pass that test.
    For n = 2 the bound is the exact minimum (`_plane_gap`).  Otherwise it
    is 0 when the dissipativity decision (`dissipativity._decision`) finds
    (An, Bn) non-dissipative, and else max(0, delta), where delta is the
    maximum over phi of the smallest eigenvalue of cos(phi) An + sin(phi) Bn:
    found from the decision's best angle (`dissipativity._max_min_eig`), or
    for a one-line span the decision's `extreme_min_eig`.  For n >= 3 the
    range of (Q_An, Q_Bn) on the unit sphere is convex (Brickman 1961), so
    max(0, delta) is its exact distance from 0, which is positive exactly
    when the joint zero set is {0} (Calabi 1964).
    """
    pair = unit_pair(a, b)
    if a.dim == 2:
        return _plane_gap(pair.a.matrix, pair.b.matrix)
    if pair.span == 0:
        return 0.0
    # The unit pair as its own caller: every angle and value map is the identity.
    pair = pair._replace(ra=1.0, rb=1.0, e=0)
    verdict, _, arc, _ = _decision(pair)
    if verdict.non_dissipative:
        return 0.0
    return max(verdict.extreme_min_eig if arc is None else _max_min_eig(pair, arc)[0], 0.0)


def _second_singular(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.svd(np.column_stack([u, v]), compute_uv=False)[1])


def _starts(seed: int, salt: int, ks: range, n: int) -> np.ndarray:
    """Restart k's start point, drawn from its own stream rng_for(seed, salt, k)."""
    return np.stack([rng_for(seed, salt, k).standard_normal(n) for k in ks])


def _restarted_search(a, b, restarts, seed, attempt) -> WitnessSearch:
    """Run attempt(ks) on blocks of restarts until one returns a witness.

    attempt(ks) runs the restarts ks in lockstep and returns the witness of
    the lowest successful k, or None.  Restart 0 runs alone, so a search
    that succeeds at once pays for one row; the later ones run in blocks of
    `_BLOCK`, and the search stops after the first block with a success.
    The search ends EMPTY when `zero_set_gap` clears `_EMPTY_CUT`: for
    n = 2 before the first restart, otherwise after the first one fails.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    if a.dim == 2 and zero_set_gap(a, b) > _EMPTY_CUT:
        return WitnessSearch(None, 0, restarts, SearchStatus.EMPTY)
    ks = range(min(restarts, 1))
    while ks:
        witness = attempt(ks)
        if witness is not None:
            return WitnessSearch(witness, witness.attempts, restarts, SearchStatus.FOUND)
        if ks.start == 0 and a.dim != 2 and zero_set_gap(a, b) > _EMPTY_CUT:
            return WitnessSearch(None, 1, restarts, SearchStatus.EMPTY)
        ks = range(ks.stop, min(ks.stop + _BLOCK, restarts))
    return WitnessSearch(None, restarts, restarts, SearchStatus.EXHAUSTED)


def transversality_witness(
    a: SymmetricForm,
    b: SymmetricForm,
    restarts: int = 200,
    seed: int = 42,
) -> WitnessSearch:
    """Search for a joint zero where the two gradients are independent.

    A witness is accepted once the second singular value of [An z | Bn z],
    for the unit-Frobenius forms, clears 2e-6, so the acceptance does not
    depend on the forms' scales; the reported margin is the second singular
    value of [Az | Bz] at the forms' own scale.
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    stack = _stacked(a, b)

    def attempt(ks: range) -> WitnessResult | None:
        z, ok = _project_rows(stack, _starts(seed, 0x7A11, ks, a.dim))
        rows = np.flatnonzero(ok)
        z, ok = _polish(stack, z[rows])
        rows, z = rows[ok], z[ok]
        passed = np.flatnonzero(_pair_frame(_evaluate(stack, z)[0]).s2 > 2.0 * TRANS_REL)
        if not passed.size:
            return None
        point = z[passed[0]]
        margin = _second_singular(a.matrix @ point, b.matrix @ point)
        return _witness_from_point(a, b, point, margin, ks[rows[passed[0]]] + 1, "transversality")

    return _restarted_search(a, b, restarts, seed, attempt)


def _hill_climb(stack, c_matrix, z, threshold):
    """Projected gradient ascent of |Q_C| along the joint zero set, per row.

    Rows where |Q_C| already clears the threshold are left as they are.
    Returns the points and their |Q_C|.
    """
    q = _rowdot(z @ c_matrix, z)
    value = np.abs(q)
    step = np.full(len(z), 0.1)
    live = np.flatnonzero(value <= threshold)
    for _ in range(_HILL_CLIMB_STEPS):
        if not live.size:
            break
        zl, size = z[live], step[live]
        grad = np.where(q[live] >= 0.0, 2.0, -2.0)[:, None] * (zl @ c_matrix)
        tangent = _tangent_component(_evaluate(stack, zl)[0], grad)
        start = zl + size[:, None] * tangent
        moving = np.any(tangent != 0.0, axis=1)
        # a start at the origin only halves the step; the step floor is not checked
        tiny = np.sqrt(_rowdot(start, start)) <= 1e-12
        tried = moving & ~tiny
        candidate, ok = _project_rows(stack, start[tried])
        cq = _rowdot(candidate @ c_matrix, candidate)
        rows = live[tried]
        better = ok & (np.abs(cq) > value[rows] * (1.0 + 1e-12))
        up = rows[better]
        z[up], q[up], value[up] = candidate[better], cq[better], np.abs(cq[better])
        size[tried] *= np.where(better, 1.3, 0.5)
        size[tiny] *= 0.5
        step[live] = size
        live = live[moving & (tiny | (size >= 1e-8)) & (value[live] <= threshold)]
    return z, value


def bracket_witness(
    a: SymmetricForm,
    b: SymmetricForm,
    c: SymmetricForm,
    restarts: int = 200,
    seed: int = 42,
) -> WitnessSearch:
    """Search for a joint zero of Q_A, Q_B where Q_C does not vanish.

    Restart points are projected onto the joint zero set; when |Q_C^| of the
    unit-Frobenius C^ misses the margin 1e-6, a tangent-space hill climb of
    |Q_C^| pushes the point off its zero locus before the restart is given
    up.  The reported margin is |Q_C(z)| at C's own scale.
    """
    if not (a.dim == b.dim == c.dim):
        raise ValueError("forms have mismatched dimensions")
    cn = c.normalized().matrix
    stack = _stacked(a, b)

    def attempt(ks: range) -> WitnessResult | None:
        z, ok = _project_rows(stack, _starts(seed, 0xB7AC, ks, a.dim))
        rows = np.flatnonzero(ok)
        z, value = _hill_climb(stack, cn, z[rows], BRACKET_REL)
        high = value > BRACKET_REL
        rows = rows[high]
        polished, ok = _polish(stack, z[high])
        value = np.abs(_rowdot(polished @ cn, polished))
        passed = np.flatnonzero(ok & (value > BRACKET_REL))
        if not passed.size:
            return None
        i = passed[0]
        margin = float(np.abs(_rowdot(polished @ c.matrix, polished))[i])
        return _witness_from_point(a, b, polished[i], margin, ks[rows[i]] + 1, "bracket")

    return _restarted_search(a, b, restarts, seed, attempt)


def radical_status(radical: Subspace, structure: SymplecticStructure) -> RadicalStatus:
    """TRIVIAL for a zero joint radical, else SYMPLECTIC or DEGENERATE by
    whether the pairing restricts to a non-degenerate form on it."""
    if radical.dim == 0:
        return RadicalStatus.TRIVIAL
    if is_symplectic_subspace(radical, structure).symplectic:
        return RadicalStatus.SYMPLECTIC
    return RadicalStatus.DEGENERATE


def hypothesis_report(
    a: SymmetricForm,
    b: SymmetricForm,
    structure: SymplecticStructure,
    seed: int = 42,
) -> HypothesisReport:
    """Aggregate the rank, radical and independence data gating the verdicts.

    Branch I requires minrank >= 3 and maxrank >= 17; branch II requires
    minrank = 2, maxrank >= 9 and a trivial or symplectic joint radical.
    Every condition is read on the unit pair (`pencil.unit_pair`), and the
    independence of A, B and C on C times sigma_min(J), which no scaling of
    the pairing changes; the angles in the notes are the caller's.
    """
    pair = unit_pair(a, b)
    if a.dim != structure.two_d:
        raise ValueError("forms do not match the pairing dimension")
    verdict = _decision(pair)[0]
    a, b = pair.a, pair.b
    notes: list[str] = []

    if pair.span < 2:
        minrank = maxrank = pair.generator().rank()
        independent = False
        notes.append("pencil is one-dimensional; ranks taken from its generator")
    else:
        profile = rank_profile(a, b, seed=seed)
        minrank, maxrank = profile.minrank, profile.maxrank
        for phi in profile.marginal:
            notes.append(f"marginal rank decision near theta={pair.theta(phi) % (2.0 * np.pi):.6f}")
        # C of the unit pair times sigma_min(J) = 1 / |J^-1|_2: |C|_F stays under
        # 4 whatever the pairing's scale, and a commuting pair's noise under the cut
        c = structure.sigma_min * poisson_bracket(a, b, structure).matrix
        stack = np.column_stack([a.matrix.ravel(), b.matrix.ravel(), c.ravel()])
        independent = numerical_rank(stack) == 3

    radical = joint_radical(a, b)
    status = radical_status(radical, structure)

    if minrank >= 3 and maxrank >= 17:
        branch = Branch.I
    elif minrank == 2 and maxrank >= 9 and status is not RadicalStatus.DEGENERATE:
        branch = Branch.II
    else:
        branch = Branch.NONE

    if branch is Branch.I:
        notes.append(f"maxrank {maxrank} clears the branch-I cut 17 by {maxrank - 17}")
    elif branch is Branch.II:
        notes.append(f"maxrank {maxrank} clears the branch-II cut 9 by {maxrank - 9}")
    return HypothesisReport(
        nondissipative=verdict.non_dissipative,
        independent_abc=independent,
        minrank=minrank,
        maxrank=maxrank,
        radical_status=status,
        radical_dim=radical.dim,
        branch=branch,
        radical=radical,
        notes=tuple(notes),
    )


def containment_probe(
    a: SymmetricForm,
    b: SymmetricForm,
    samples: int = 10_000,
    seed: int = 42,
) -> ContainmentProbe:
    """Sample unit vectors hunting for Q_A(z) <= 0 < Q_B(z).

    Such a point refutes {Q_A <= 0} being contained in {Q_B <= 0}; absence
    after the budget is evidence of containment, not a proof.
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    rng = rng_for(seed, 0xC047)
    n = a.dim
    block = 512
    used = 0
    while used < samples:
        count = min(block, samples - used)
        pts = rng.standard_normal((count, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        qa = np.einsum("ij,jk,ik->i", pts, a.matrix, pts)
        qb = np.einsum("ij,jk,ik->i", pts, b.matrix, pts)
        hits = np.nonzero((qa <= 0.0) & (qb > 0.0))[0]
        if hits.size:
            return ContainmentProbe(pts[hits[0]], used + int(hits[0]) + 1)
        used += count
    return ContainmentProbe(None, samples)
