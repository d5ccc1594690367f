"""Operator-level verdicts for second-order operators built from real fields.

An operator is described either by its complex coefficient matrix on a
group with known commutator structure (one skew matrix per central
direction), or by raw point data: the differential T of the field symbols at
a doubly characteristic point together with the coefficient matrix there.
Each route assembles the pair (A, B) = (Re, Im) of coefficient forms, the
bracket form C for the relevant pairing, and evaluates

    (a) the pair is non-dissipative,
    (b) A, B, C are linearly independent,
    (c) the rank/radical branch conditions,

emitting NOT_LOCALLY_SOLVABLE exactly when all three hold.  INCONCLUSIVE
never asserts solvability; it records which hypothesis failed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._numeric import RANK_REL, frob, numerical_rank, numerical_ranks, rng_for, skew_part
from .errors import ConsistencyError, DegeneratePairingError, GradingError, MuSearchError
from .forms import (
    Subspace,
    SymmetricForm,
    SymplecticStructure,
    congruence,
    is_symplectic_subspace,
    poisson_bracket,
    skew_matrix,
)
from .witness import Branch, HypothesisReport, RadicalStatus, hypothesis_report

__all__ = [
    "HeisenbergOperatorSpec",
    "TwoStepGroupSpec",
    "PointSymbolSpec",
    "StructureConstants",
    "VerdictOutcome",
    "Verdict",
    "heisenberg_verdict",
    "two_step_verdict",
    "point_symbol_verdict",
    "step_reduction",
]

_IDENTITY_TOL = 1e-10

# Seeded random center directions tried after the axes when mu0 is absent.
_MU_BUDGET = 500


class VerdictOutcome(enum.Enum):
    NOT_LOCALLY_SOLVABLE = "NOT_LOCALLY_SOLVABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    outcome: VerdictOutcome
    condition_a: bool
    condition_b: bool
    condition_c: Branch
    hypothesis: HypothesisReport
    notes: tuple[str, ...] = ()
    mu0: tuple[float, ...] | None = None


@dataclass(frozen=True)
class HeisenbergOperatorSpec:
    """Coefficient forms of an operator on the (2d)-generator Heisenberg group."""

    d: int
    a_re: SymmetricForm
    a_im: SymmetricForm

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"d must be positive, got {self.d}")
        expected = 2 * self.d
        if self.a_re.dim != expected or self.a_im.dim != expected:
            raise ValueError(
                f"coefficient forms must be {expected}x{expected}, got "
                f"{self.a_re.dim} and {self.a_im.dim}"
            )


@dataclass(frozen=True)
class TwoStepGroupSpec:
    """Coefficient forms plus the skew commutator matrices of a 2-step group."""

    m: int
    j_list: tuple[np.ndarray, ...]
    a_re: SymmetricForm
    a_im: SymmetricForm
    mu0: tuple[float, ...] | None = None
    note: str | None = None

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError(f"m must be positive, got {self.m}")
        mats = []
        for i, j in enumerate(self.j_list):
            j = np.array(j, dtype=float)
            if j.shape != (self.m, self.m):
                raise ValueError(f"J_list[{i}] must be {self.m}x{self.m}, got {j.shape}")
            j = skew_matrix(j, f"J_list[{i}]")
            j.flags.writeable = False
            mats.append(j)
        if not mats:
            raise ValueError("at least one commutator matrix is required")
        object.__setattr__(self, "j_list", tuple(mats))
        if self.a_re.dim != self.m or self.a_im.dim != self.m:
            raise ValueError("coefficient forms must match the generator count m")
        if self.mu0 is not None:
            mu = tuple(float(x) for x in self.mu0)
            if len(mu) != len(self.j_list):
                raise ValueError("mu0 length must match the number of commutator matrices")
            object.__setattr__(self, "mu0", mu)

    @property
    def ell(self) -> int:
        return len(self.j_list)


@dataclass(frozen=True)
class PointSymbolSpec:
    """Point data: T = derivative of the field symbols, plus coefficient forms."""

    n: int
    m: int
    t_matrix: np.ndarray
    a_re: SymmetricForm
    a_im: SymmetricForm

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError("dimensions must be positive")
        t = np.array(self.t_matrix, dtype=float)
        if t.shape != (self.m, 2 * self.n):
            raise ValueError(
                f"T must be {self.m}x{2 * self.n}, got {t.shape}"
            )
        if numerical_rank(t) < self.m:
            raise ValueError("T is rank-deficient; the point data does not span")
        t.flags.writeable = False
        object.__setattr__(self, "t_matrix", t)
        if self.a_re.dim != self.m or self.a_im.dim != self.m:
            raise ValueError("coefficient forms must match the field count m")


@dataclass(frozen=True)
class StructureConstants:
    """Bracket coefficients c[i][j][k] of a graded nilpotent algebra basis."""

    n_basis: int
    c: np.ndarray
    grading: tuple[int, ...]

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.shape != (self.n_basis, self.n_basis, self.n_basis):
            raise ValueError(f"constants must have shape {(self.n_basis,) * 3}, got {c.shape}")
        # cuts relative to max|c| alone: at every scale of c a defect fails
        top = float(np.max(np.abs(c)))
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-10 * top:
            raise ValueError("structure constants are not antisymmetric")
        jac = np.einsum("ijm,mkl->ijkl", c, c)
        residual = jac + np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))
        if np.max(np.abs(residual)) > 1e-10 * top**2 * self.n_basis:
            raise ValueError("structure constants violate the Jacobi identity")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        grading = tuple(int(g) for g in self.grading)
        if len(grading) != self.n_basis:
            raise ValueError("grading must assign a layer to every basis vector")
        if any(g < 1 for g in grading):
            raise ValueError("layers are numbered from 1")
        object.__setattr__(self, "grading", grading)


def _assemble(hyp: HypothesisReport, notes: list[str], mu0=None) -> Verdict:
    conclusive = hyp.nondissipative and hyp.independent_abc and hyp.branch is not Branch.NONE
    outcome = VerdictOutcome.NOT_LOCALLY_SOLVABLE if conclusive else VerdictOutcome.INCONCLUSIVE
    if not conclusive:
        missing = []
        if not hyp.nondissipative:
            missing.append("(a) pair is dissipative")
        if not hyp.independent_abc:
            missing.append("(b) A, B, C are not independent")
        if hyp.branch is Branch.NONE:
            missing.append("(c) rank/radical branch conditions not met")
        notes.append(
            "necessary-condition hypotheses not established: " + "; ".join(missing)
        )
        notes.append("no solvability claim is implied by an inconclusive outcome")
    notes.extend(hyp.notes)
    return Verdict(
        outcome=outcome,
        condition_a=hyp.nondissipative,
        condition_b=hyp.independent_abc,
        condition_c=hyp.branch,
        hypothesis=hyp,
        notes=tuple(notes),
        mu0=mu0,
    )


def heisenberg_verdict(spec: HeisenbergOperatorSpec, seed: int = 42) -> Verdict:
    """Verdict for the one-center group with the standard skew matrix."""
    structure = SymplecticStructure.canonical(2 * spec.d)
    hyp = hypothesis_report(spec.a_re, spec.a_im, structure, seed=seed)
    notes = [
        "conditions evaluated on the 2d-dimensional coefficient space with "
        "its commutator-induced pairing",
        "group-invariant data: a negative verdict holds at every point",
    ]
    return _assemble(hyp, notes, mu0=(1.0,))


def _search_mu(spec: TwoStepGroupSpec, seed: int) -> tuple[np.ndarray, SymplecticStructure]:
    """Find mu with sum(mu_i J_i) non-degenerate, and the pairing it induces:
    mu0 if given, else the axes first, then seeded random unit vectors."""

    def draws():
        yield from np.eye(spec.ell)
        rng = rng_for(seed, 0x2507)
        for _ in range(_MU_BUDGET):
            mu = rng.standard_normal(spec.ell)
            norm = float(np.linalg.norm(mu))
            if norm != 0.0:
                yield mu / norm

    supplied = spec.mu0 is not None
    for mu in [np.asarray(spec.mu0, dtype=float)] if supplied else draws():
        j_mu = sum(float(c) * j for c, j in zip(mu, spec.j_list))
        try:
            return mu, SymplecticStructure.from_bracket_matrix(j_mu)
        except DegeneratePairingError:
            pass
    if supplied:
        raise MuSearchError("supplied mu0 yields a degenerate commutator matrix")
    raise MuSearchError(
        "no direction with a non-degenerate combined commutator matrix found in "
        f"{_MU_BUDGET} draws"
    )


def two_step_verdict(spec: TwoStepGroupSpec, seed: int = 42) -> Verdict:
    """Verdict for a 2-step group through one non-degenerate center direction.

    When `mu0` is absent the direction is searched (axis vectors first, then
    seeded unit Gaussians); the radical test and the bracket both use the
    pairing induced by the combined commutator matrix at the found direction.
    """
    mu, structure = _search_mu(spec, seed)
    hyp = hypothesis_report(spec.a_re, spec.a_im, structure, seed=seed)
    notes = [
        "conditions evaluated on the generator space with the pairing induced "
        "by the combined commutator matrix",
        "group-invariant data: a negative verdict holds at every point",
    ]
    if spec.note:
        notes.append(spec.note)
    return _assemble(hyp, notes, mu0=tuple(float(x) for x in mu))


def _check_close(label: str, left: np.ndarray, right: np.ndarray, tol: float):
    gap = float(np.max(np.abs(left - right)))
    if gap > tol:
        raise ConsistencyError(f"{label} residual {gap:.3e} exceeds {tol:.3e}")


def point_symbol_verdict(spec: PointSymbolSpec, seed: int = 42) -> Verdict:
    """Verdict from point data, with every pullback identity re-verified.

    Builds the ambient-space forms by congruence with T, the reduced pairing
    from the skew matrix T J T^t (rejected when degenerate at the scale
    |T|_2^2 it is computed at), and checks: the bracket computed on the
    reduced space pulls back to the ambient bracket; R = J T^t (T J T^t)^{-1}
    is a right inverse of T; P = RT is a projector compatible with the
    ambient pairing; pencil ranks agree between the two spaces on random
    combinations; and the joint radical that `hypothesis_report` classified
    on the unit pair is symplectic on the reduced space exactly when its
    preimage is in the ambient space.  T and T J T^t are each decomposed
    once, and the pencil ranks are read from one stacked SVD per space.
    """
    t = spec.t_matrix
    n2 = 2 * spec.n
    ambient = SymplecticStructure.canonical(n2)
    j2n = ambient.J
    # one SVD of T gives |T|_2 and ker T, the rows past its rank m
    _, t_values, t_rows = np.linalg.svd(t)
    t_scale = float(t_values[0])
    j_z = t @ j2n @ t.T
    k = skew_part(j_z)
    # T J T^t is computed at the scale |T|_2^2 (|J|_2 = 1), so its rank is cut
    # there: at its own scale, the rounding of a zero product has full rank
    s = np.linalg.svd(k, compute_uv=False)
    if s[-1] <= RANK_REL * spec.m * t_scale**2:
        raise DegeneratePairingError(
            f"degenerate relative to |T|_2^2 (sigma_min {s[-1]:.3e}, |T|_2^2 {t_scale**2:.3e})"
        )
    # `from_bracket_matrix` on T J T^t, with the singular values just taken
    skew_matrix(j_z, "bracket matrix")
    reduced = SymplecticStructure._inverting(k, s)

    a_big = SymmetricForm(2.0 * congruence(spec.a_re, t).matrix)
    b_big = SymmetricForm(2.0 * congruence(spec.a_im, t).matrix)

    # Identity residuals grow with ||T||^2 / sigma_min(T J T^t); fold that
    # amplification into the acceptance tolerance.
    amplification = max(1.0, t_scale**2 / float(s[-1]))
    tol = _IDENTITY_TOL * amplification

    c_small = poisson_bracket(spec.a_re, spec.a_im, reduced)
    c_big_pulled = SymmetricForm(4.0 * t.T @ c_small.matrix @ t)
    c_big_direct = poisson_bracket(a_big, b_big, ambient)
    # Rounding in C is relative to its bound 4 |A_big|_F |B_big|_F, not to
    # |C|_F: a commuting pair's C is that rounding alone
    scale_c = 4.0 * a_big.frobenius() * b_big.frobenius()
    _check_close("bracket pullback", c_big_pulled.matrix, c_big_direct.matrix, tol * scale_c)

    # (T J T^t)^{-1} is -J of the reduced pairing
    r = j2n @ t.T @ -reduced.J
    _check_close("T R = identity", t @ r, np.eye(spec.m), tol)
    p = r @ t
    _check_close("projector idempotency", p @ p, p, tol * max(frob(p), 1.0))
    _check_close("pairing-compatible projector", j2n @ p, p.T @ j2n, tol * max(frob(p), 1.0))

    alpha, beta = rng_for(seed, 0x4A5).standard_normal((8, 2)).T[:, :, None, None]
    small = alpha * spec.a_re.matrix + beta * spec.a_im.matrix
    big = alpha * a_big.matrix + beta * b_big.matrix
    if np.any(numerical_ranks(small) != numerical_ranks(big)):
        raise ConsistencyError("pencil ranks disagree between the reduced and ambient spaces")

    hyp = hypothesis_report(spec.a_re, spec.a_im, reduced, seed=seed)
    radical = hyp.radical
    # R scales as 1 / |T|: unit columns keep the lift of the radical above the
    # rank cut of the orthonormal ker T, whatever the scale of T
    up = r @ radical.basis
    lifted = Subspace.from_spanning(
        n2, np.column_stack([up / np.linalg.norm(up, axis=0), t_rows[spec.m :].T])
    )
    small_sympl = hyp.radical_status is not RadicalStatus.DEGENERATE
    big_sympl = is_symplectic_subspace(lifted, ambient).symplectic
    if small_sympl != big_sympl:
        raise ConsistencyError(
            "radical symplecticity disagrees between the reduced and ambient spaces"
        )

    notes = [
        "conditions evaluated on the reduced field space with the pairing "
        "induced by T J T^t",
        "pullback, projector and rank identities verified",
    ]
    return _assemble(hyp, notes)


def step_reduction(
    constants: StructureConstants, a_re: SymmetricForm, a_im: SymmetricForm
) -> TwoStepGroupSpec:
    """Quotient a graded nilpotent algebra by its layers above two.

    Basis vectors in layers >= 3 are deleted together with every bracket
    component landing on them; the surviving layer-2 brackets of the layer-1
    generators are repackaged as one skew matrix per retained center
    direction.  Coefficient forms pass through unchanged, so a verdict for
    the reduced data applies to the original operator.
    """
    grading = constants.grading
    c = constants.c
    n = constants.n_basis
    tol = 1e-12 * float(np.max(np.abs(c)))
    layer = np.asarray(grading)
    wrong = (np.abs(c) > tol) & (layer != layer[:, None, None] + layer[None, :, None])
    if wrong.any():
        i, j, k = (int(x) for x in np.argwhere(wrong)[0])
        raise GradingError(
            f"bracket [{i},{j}] hits basis vector {k} in layer {grading[k]}; "
            f"the grading demands layer {grading[i] + grading[j]}"
        )
    generators = [i for i in range(n) if grading[i] == 1]
    centers = [i for i in range(n) if grading[i] == 2]
    m = len(generators)
    if m == 0:
        raise GradingError("no layer-1 generators present")
    if a_re.dim != m or a_im.dim != m:
        raise ValueError(
            f"coefficient forms must match the {m} layer-1 generators, got dimension {a_re.dim}"
        )
    if not centers:
        raise GradingError("no layer-2 directions survive the quotient")
    j_list = np.moveaxis(c[np.ix_(generators, generators, centers)], 2, 0)
    deleted = n - m - len(centers)
    note = (
        f"reduced from a {n}-dimensional graded algebra by deleting {deleted} "
        "basis vectors in layers above two; a negative verdict for this data "
        "applies to the original operator"
    )
    return TwoStepGroupSpec(
        m=m,
        j_list=tuple(j_list),
        a_re=a_re,
        a_im=a_im,
        note=note,
    )
