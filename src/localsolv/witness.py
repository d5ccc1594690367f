"""Witness points on the joint zero set of two quadratic forms.

The joint zero set {Q_A = 0} n {Q_B = 0} is a cone; all searches work on its
unit sphere section.  Points are reached by a Gauss-Newton projection of the
two-component residual map (minimal-norm update, re-normalized every step),
restarted from seeded random directions.  A returned witness always carries
re-checkable residuals and the margin it certifies.

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
from dataclasses import dataclass

import numpy as np

from ._numeric import BRACKET_REL, TRANS_REL, ZERO_TOL, numerical_rank, rng_for, unit_vector
from .dissipativity import decide
from .errors import NumericalInconclusiveError
from .forms import (
    SymmetricForm,
    SymplecticStructure,
    Subspace,
    joint_radical,
    is_symplectic_subspace,
    poisson_bracket,
    span_rank,
)
from .pencil import pencil_element, rank_profile

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
    nondissipative: bool
    independent_abc: bool
    minrank: int
    maxrank: int
    radical_status: RadicalStatus
    radical_dim: int
    branch: Branch
    notes: tuple[str, ...] = ()


def _residual(an, bn, z) -> np.ndarray:
    return np.array([z @ an @ z, z @ bn @ z])


def _descend(an, bn, z, direction, current):
    """Backtracking step along a direction; degenerate (near-zero) candidates
    just shrink the step, since the search lives on the unit sphere."""
    scale = 1.0
    for _ in range(25):
        candidate = z + scale * direction
        norm = float(np.linalg.norm(candidate))
        if norm > 1e-12:
            candidate = candidate / norm
            r = _residual(an, bn, candidate)
            if float(r @ r) < current:
                return candidate, True
        scale *= 0.5
    return z, False


def project_to_joint_zero(
    a: SymmetricForm,
    b: SymmetricForm,
    z0: np.ndarray,
    max_iterations: int = _MAX_NEWTON_ITERATIONS,
    tol: float = ZERO_TOL,
) -> np.ndarray | None:
    """Project a point onto the unit-sphere slice of {Q_A = 0} n {Q_B = 0}.

    Each step solves the 2 x n linearization by least norm and re-normalizes,
    halving the step while the squared residual fails to decrease; where the
    Jacobian loses rank the step falls back to gradient descent on
    Q_A^2 + Q_B^2.  Returns None when the budget runs out.
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    an, bn = a.normalized().matrix, b.normalized().matrix
    z = unit_vector(np.asarray(z0, dtype=float))
    for _ in range(max_iterations):
        r = _residual(an, bn, z)
        if np.max(np.abs(r)) <= tol:
            return z
        jac = np.vstack([2.0 * (an @ z), 2.0 * (bn @ z)])
        sv = np.linalg.svd(jac, compute_uv=False)
        current = float(r @ r)
        moved = False
        if sv[-1] > 1e-12 * max(sv[0], 1.0):
            delta = np.linalg.lstsq(jac, -r, rcond=None)[0]
            z, moved = _descend(an, bn, z, delta, current)
        if not moved:
            grad = 4.0 * (r[0] * (an @ z) + r[1] * (bn @ z))
            if np.linalg.norm(grad) == 0.0:
                return None
            z, moved = _descend(an, bn, z, -grad, current)
        if not moved:
            return None
    r = _residual(an, bn, z)
    if np.max(np.abs(r)) <= tol:
        return z
    return None


def _polish(a: SymmetricForm, b: SymmetricForm, z: np.ndarray) -> np.ndarray | None:
    """Re-converge a candidate to near machine-precision residuals."""
    return project_to_joint_zero(
        a, b, z, max_iterations=_POLISH_ITERATIONS, tol=_POLISH_TOL
    )


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


def zero_set_gap(a: SymmetricForm, b: SymmetricForm, seed: int = 42) -> float:
    """A proved lower bound on ||(Q_An(z), Q_Bn(z))|| over unit vectors z.

    An and Bn are the unit-Frobenius forms the searches test residuals on,
    so a gap above sqrt(2) * ZERO_TOL means no point can pass that test.
    For n = 2 the bound is the exact minimum (`_plane_gap`).  Otherwise it
    is the smallest eigenvalue of cos(phi) An + sin(phi) Bn at the angle phi
    that `dissipativity.decide` returns when it finds (An, Bn) dissipative,
    or 0 when that element is not positive definite, the pair is
    non-dissipative or the decision raises.  For n >= 3 a definite element
    exists exactly when the joint zero set is {0} (Calabi 1964); the
    decision's angle is the best of angles that include the middle of every
    arc between singular angles, so it finds one.
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    an, bn = a.normalized(), b.normalized()
    if a.dim == 2:
        return _plane_gap(an.matrix, bn.matrix)
    rank = span_rank(an, bn)
    if rank == 0:
        return 0.0
    try:
        verdict = decide(an, bn, rank_profile(an, bn, seed=seed) if rank == 2 else None)
    except NumericalInconclusiveError:
        return 0.0
    if verdict.non_dissipative:
        return 0.0
    lowest = float(np.linalg.eigvalsh(pencil_element(an, bn, verdict.theta).matrix)[0])
    return max(lowest, 0.0)


def _second_singular(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.svd(np.column_stack([u, v]), compute_uv=False)[1])


def _restarted_search(a, b, restarts, seed, attempt) -> WitnessSearch:
    """Run attempt(k) for k = 0, 1, ... until one returns a witness.

    The search ends EMPTY when `zero_set_gap` clears `_EMPTY_CUT`: for
    n = 2 before the first restart, otherwise after the first one fails.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    if a.dim == 2 and zero_set_gap(a, b, seed) > _EMPTY_CUT:
        return WitnessSearch(None, 0, restarts, SearchStatus.EMPTY)
    for k in range(restarts):
        witness = attempt(k)
        if witness is not None:
            return WitnessSearch(witness, k + 1, restarts, SearchStatus.FOUND)
        if k == 0 and a.dim != 2 and zero_set_gap(a, b, seed) > _EMPTY_CUT:
            return WitnessSearch(None, 1, restarts, SearchStatus.EMPTY)
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
    an, bn = a.normalized().matrix, b.normalized().matrix
    n = a.dim

    def attempt(k: int) -> WitnessResult | None:
        rng = rng_for(seed, 0x7A11, k)
        z = project_to_joint_zero(a, b, rng.standard_normal(n))
        if z is None:
            return None
        z = _polish(a, b, z)
        if z is None:
            return None
        if _second_singular(an @ z, bn @ z) > 2.0 * TRANS_REL:
            margin = _second_singular(a.matrix @ z, b.matrix @ z)
            return _witness_from_point(a, b, z, margin, k + 1, "transversality")
        return None

    return _restarted_search(a, b, restarts, seed, attempt)


def _tangent_component(jac: np.ndarray, vector: np.ndarray) -> np.ndarray:
    coeffs = np.linalg.lstsq(jac.T, vector, rcond=None)[0]
    return vector - jac.T @ coeffs


def _hill_climb(a, b, c_matrix, z, threshold):
    """Projected gradient ascent of |Q_C| along the joint zero set."""
    an, bn = a.normalized().matrix, b.normalized().matrix
    value = abs(float(z @ c_matrix @ z))
    step = 0.1
    for _ in range(_HILL_CLIMB_STEPS):
        if value > threshold:
            break
        sign = 1.0 if float(z @ c_matrix @ z) >= 0.0 else -1.0
        grad = 2.0 * sign * (c_matrix @ z)
        jac = np.vstack([2.0 * (an @ z), 2.0 * (bn @ z)])
        tangent = _tangent_component(jac, grad)
        if np.linalg.norm(tangent) == 0.0:
            break
        start = z + step * tangent
        if np.linalg.norm(start) <= 1e-12:
            step *= 0.5
            continue
        candidate = project_to_joint_zero(a, b, start)
        if candidate is None:
            step *= 0.5
        else:
            candidate_value = abs(float(candidate @ c_matrix @ candidate))
            if candidate_value > value * (1.0 + 1e-12):
                z, value = candidate, candidate_value
                step *= 1.3
            else:
                step *= 0.5
        if step < 1e-8:
            break
    return z, value


def bracket_witness(
    a: SymmetricForm,
    b: SymmetricForm,
    c: SymmetricForm,
    restarts: int = 200,
    seed: int = 42,
) -> WitnessSearch:
    """Search for a joint zero of Q_A, Q_B where Q_C does not vanish.

    Restart points are projected onto the joint zero set; when |Q_C| misses
    the margin 1e-6 * ||C||_F, a tangent-space hill climb pushes the point
    away from the zero locus of Q_C before the restart is given up.
    """
    if not (a.dim == b.dim == c.dim):
        raise ValueError("forms have mismatched dimensions")
    threshold = BRACKET_REL * c.frobenius()
    n = a.dim

    def attempt(k: int) -> WitnessResult | None:
        rng = rng_for(seed, 0xB7AC, k)
        z = project_to_joint_zero(a, b, rng.standard_normal(n))
        if z is None:
            return None
        value = abs(float(z @ c.matrix @ z))
        if value <= threshold:
            z, value = _hill_climb(a, b, c.matrix, z, threshold)
        if value <= threshold:
            return None
        polished = _polish(a, b, z)
        if polished is None:
            return None
        value = abs(float(polished @ c.matrix @ polished))
        if value > threshold:
            return _witness_from_point(a, b, polished, value, k + 1, "bracket")
        return None

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
    """
    if a.dim != b.dim:
        raise ValueError("forms have mismatched dimensions")
    if a.dim != structure.two_d:
        raise ValueError("forms do not match the pairing dimension")
    notes: list[str] = []
    pair_rank = span_rank(a, b)
    if pair_rank == 0:
        raise ValueError("both forms vanish")

    if pair_rank < 2:
        profile = None
        dominant = a if a.frobenius() >= b.frobenius() else b
        minrank = maxrank = dominant.rank()
        independent = False
        notes.append("pencil is one-dimensional; ranks taken from its generator")
    else:
        profile = rank_profile(a, b, seed=seed)
        minrank, maxrank = profile.minrank, profile.maxrank
        for theta in profile.marginal:
            notes.append(f"marginal rank decision near theta={theta:.6f}")
        # C of the unit pair, not rescaled: a commuting pair's noise stays under the cut
        unit = (a.normalized(), b.normalized())
        unit += (poisson_bracket(*unit, structure),)
        independent = numerical_rank(np.column_stack([f.matrix.ravel() for f in unit])) == 3
    verdict = decide(a, b, profile)

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
