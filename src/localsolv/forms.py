"""Quadratic forms on a symplectic vector space.

A real quadratic form is stored through its symmetric matrix, Q(z) = z.M.z.
A symplectic structure is stored through a non-degenerate skew matrix J whose
canonical value is [[0, I], [-I, 0]]; the bilinear pairing is fixed once and
for all as

    omega(u, v) = -u.J.v,

the sign chosen so that for the canonical J the Poisson bracket computed from
Hamilton maps agrees with the coordinate formula

    {a, b}(x, xi) = sum_j (da/dxi_j db/dx_j - da/dx_j db/dxi_j)

with the position block listed first.  Under this convention the bracket of
two forms is C = 2(B.J.A - A.J.B) for the canonical J, and
C = 2(A.Jinv.B - B.Jinv.A) in general.  The opposite block ordering flips the
global sign of every bracket; all rank, independence and vanishing questions
answered by this library are invariant under that flip.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._numeric import (
    RANK_REL,
    frob,
    numerical_rank,
    nullspace,
    orthonormal_columns,
    rank_tolerance,
    sym_part,
    skew_part,
)
from .errors import DegeneratePairingError

__all__ = [
    "SymmetricForm",
    "SymplecticStructure",
    "HamiltonMap",
    "Subspace",
    "SymplecticityCertificate",
    "hamilton_map",
    "poisson_bracket",
    "bracket_via_hamilton",
    "joint_radical",
    "is_symplectic_subspace",
    "congruence",
    "span_rank",
]

# A pairing matrix M is skew when |sym(M)|_F <= SKEW_REL |M|_F: relative to
# its own scale, so rounding passes at every scale and a defect at none.
SKEW_REL = 1e-9


@dataclass(frozen=True)
class SymmetricForm:
    """Real quadratic form z -> z.M.z; M is symmetrized on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        m = sym_part(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.matrix @ z)

    def frobenius(self) -> float:
        return frob(self.matrix)

    def normalized(self) -> "SymmetricForm":
        """Unit-Frobenius rescaling; the zero form is returned unchanged.

        The matrix is first scaled by the power of two that puts its largest
        entry in [0.5, 1), so the norm neither overflows nor underflows.  The
        result is kept, and it is its own normalization.
        """
        unit = self._unit[0]
        return self if unit is None else unit

    def scale(self) -> tuple[float, int]:
        """(m, e) with ||M||_F = m * 2**e: the form is m * 2**e times
        `normalized()`; (1.0, 0) for a normalized form, (0.0, 0) for zero."""
        return self._unit[1:]

    @functools.cached_property
    def _unit(self) -> tuple["SymmetricForm | None", float, int]:
        # None stands for the form itself: a reference to it here would be a
        # cycle, which only the garbage collector frees
        e = math.frexp(float(np.max(np.abs(self.matrix), initial=0.0)))[1]
        scaled = np.ldexp(self.matrix, -e)
        norm = frob(scaled)
        if norm == 0.0:
            return None, 0.0, 0
        unit = SymmetricForm(scaled / norm)
        unit.__dict__["_unit"] = (None, 1.0, 0)
        return unit, norm, e

    def rank(self) -> int:
        return numerical_rank(self.matrix)

    @staticmethod
    def zero(n: int) -> "SymmetricForm":
        return SymmetricForm(np.zeros((n, n)))


@dataclass(frozen=True)
class SymplecticStructure:
    """Non-degenerate skew pairing on an even-dimensional real space.

    J must pass `skew_matrix`, and its rank cut (`DegeneratePairingError`
    otherwise).  `sigma_min` and `sigma_max` are the smallest and largest
    singular values of J, so sigma_min = 1 / |J^-1|_2 and sigma_max = |J|_2.
    They come from one SVD of J, except where the constructor knows them:
    all are 1 for `canonical`, and `from_bracket_matrix` takes them from the
    SVD of the bracket matrix K, as 1 / sigma(K) in reverse order."""

    J: np.ndarray
    sigma_min: float = field(init=False, repr=False, compare=False)
    sigma_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        j = skew_matrix(self.J, "pairing matrix")
        self._settle(j, np.linalg.svd(j, compute_uv=False))

    def _settle(self, j: np.ndarray, s: np.ndarray):
        """Check and store a skew J whose singular values, descending, are s."""
        if j.shape[0] % 2 != 0:
            raise ValueError(f"skew pairing needs even dimension, got {j.shape[0]}")
        if j.shape[0] > 0 and s[-1] <= rank_tolerance(s, j.shape):
            raise DegeneratePairingError("pairing matrix is degenerate")
        j.flags.writeable = False
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "sigma_min", float(s[-1]) if s.size else 1.0)
        object.__setattr__(self, "sigma_max", float(s[0]) if s.size else 1.0)

    @staticmethod
    def _known(j: np.ndarray, s: np.ndarray) -> "SymplecticStructure":
        """The structure of a skew J whose singular values s are known."""
        structure = object.__new__(SymplecticStructure)
        structure._settle(j, s)
        return structure

    @property
    def two_d(self) -> int:
        return self.J.shape[0]

    @staticmethod
    def canonical(two_d: int) -> "SymplecticStructure":
        """Standard pairing [[0, I], [-I, 0]] on R^(2d); its singular values are 1."""
        if two_d <= 0 or two_d % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {two_d}")
        d = two_d // 2
        eye = np.eye(d)
        j = np.block([[np.zeros((d, d)), eye], [-eye, np.zeros((d, d))]])
        return SymplecticStructure._known(j, np.ones(two_d))

    @staticmethod
    def from_bracket_matrix(commutators: np.ndarray) -> "SymplecticStructure":
        """Structure induced by a non-degenerate skew matrix of pairwise brackets.

        The matrix must pass `skew_matrix`, and its rank cut
        (`DegeneratePairingError` otherwise).  The canonical matrix is a fixed
        point of this map, so pullback identities relating a base space and a
        quotient hold with the same sign convention on both sides.
        """
        k = skew_matrix(commutators, "bracket matrix")
        return SymplecticStructure._inverting(k, np.linalg.svd(k, compute_uv=False))

    @staticmethod
    def _inverting(k: np.ndarray, s: np.ndarray) -> "SymplecticStructure":
        """J = -K^-1 for a skew K whose singular values s are known: one
        inverse, and J's singular values 1 / s in reverse order."""
        if k.shape[0] == 0 or s[-1] <= rank_tolerance(s, k.shape):
            raise DegeneratePairingError("bracket matrix is degenerate")
        # the inverse of a skew matrix is skew; its rounding is no input defect
        return SymplecticStructure._known(skew_part(-np.linalg.inv(k)), 1.0 / s[::-1])

    def omega(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(-(u @ self.J @ v))

    def pairing_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve omega-matrix @ X = rhs, i.e. X = -Jinv @ rhs."""
        return -np.linalg.solve(self.J, rhs)


@dataclass(frozen=True)
class HamiltonMap:
    """Endomorphism S with omega(u, S v) = u.M.v for the parent form."""

    matrix: np.ndarray
    parent_form: SymmetricForm
    structure: SymplecticStructure

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by orthonormal basis columns (possibly none)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if b.size == 0:
            b = np.zeros((self.ambient_dim, 0))
        if b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis rows ({b.shape[0]}) do not match ambient dimension ({self.ambient_dim})"
            )
        if b.shape[1] > 0:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-12:
                raise ValueError("basis columns are not orthonormal")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def empty(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))

    @staticmethod
    def from_spanning(ambient_dim: int, vectors: np.ndarray) -> "Subspace":
        """Orthonormalize arbitrary spanning columns (rank-revealing)."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors.reshape(-1, 1)
        if vectors.size == 0:
            return Subspace.empty(ambient_dim)
        return Subspace(ambient_dim, orthonormal_columns(vectors))


@dataclass(frozen=True)
class SymplecticityCertificate:
    """Outcome of the restricted-pairing non-degeneracy test."""

    symplectic: bool
    gram_min_singular: float
    subspace_dim: int


def _check_form_dims(*forms: SymmetricForm):
    dims = {f.dim for f in forms}
    if len(dims) > 1:
        raise ValueError(f"forms have mismatched dimensions {sorted(dims)}")


def hamilton_map(form: SymmetricForm, structure: SymplecticStructure) -> HamiltonMap:
    """Map S solving omega(u, S v) = u.M.v; equals J.M for the canonical J."""
    if form.dim != structure.two_d:
        raise ValueError(
            f"form dimension {form.dim} does not match pairing dimension {structure.two_d}"
        )
    s = structure.pairing_solve(form.matrix)
    return HamiltonMap(s, form, structure)


def poisson_bracket(
    a: SymmetricForm, b: SymmetricForm, structure: SymplecticStructure
) -> SymmetricForm:
    """Poisson bracket of two quadratic forms, as a quadratic form.

    Closed form 2(A.Jinv.B - B.Jinv.A), which for the canonical J reduces to
    2(B.J.A - A.J.B); see the module docstring for the sign convention.
    """
    _check_form_dims(a, b)
    if a.dim != structure.two_d:
        raise ValueError(
            f"form dimension {a.dim} does not match pairing dimension {structure.two_d}"
        )
    jinv_b = np.linalg.solve(structure.J, b.matrix)
    jinv_a = np.linalg.solve(structure.J, a.matrix)
    return SymmetricForm(2.0 * (a.matrix @ jinv_b - b.matrix @ jinv_a))


def bracket_via_hamilton(
    a: SymmetricForm, b: SymmetricForm, structure: SymplecticStructure
) -> SymmetricForm:
    """Same bracket through Hamilton maps: the form of -2 [S_a, S_b].

    Independent computational route kept alongside `poisson_bracket`; the two
    must agree entrywise and are cross-checked in the test suite.
    """
    _check_form_dims(a, b)
    s1 = hamilton_map(a, structure).matrix
    s2 = hamilton_map(b, structure).matrix
    commutator = s1 @ s2 - s2 @ s1
    # Form matrix of a Hamilton map S is omega-matrix @ S = -J S.
    c = -structure.J @ (-2.0 * commutator)
    return SymmetricForm(c)


def joint_radical(a: SymmetricForm, b: SymmetricForm) -> Subspace:
    """Orthonormal basis of ker A intersected with ker B."""
    _check_form_dims(a, b)
    stacked = np.vstack([a.matrix, b.matrix])
    return Subspace(a.dim, nullspace(stacked))


def is_symplectic_subspace(
    subspace: Subspace, structure: SymplecticStructure
) -> SymplecticityCertificate:
    """True iff the pairing restricted to the subspace is non-degenerate.

    The empty subspace counts as symplectic (trivial-radical branch); the
    certificate carries the smallest singular value of the restricted Gram
    matrix.  The rank cut is relative to the pairing's scale ||J||_2
    (`sigma_max`), not to the Gram matrix itself: the Gram matrix of an
    isotropic subspace is rounding error, and a cut relative to that would
    call it full rank.
    """
    if subspace.ambient_dim != structure.two_d:
        raise ValueError(
            f"subspace ambient dimension {subspace.ambient_dim} does not match "
            f"pairing dimension {structure.two_d}"
        )
    k = subspace.dim
    if k == 0:
        return SymplecticityCertificate(True, float("inf"), 0)
    gram = subspace.basis.T @ structure.J @ subspace.basis
    s = np.linalg.svd(gram, compute_uv=False)
    cut = RANK_REL * structure.sigma_max * k
    return SymplecticityCertificate(bool(s[-1] > cut), float(s[-1]), k)


def congruence(form: SymmetricForm, t: np.ndarray) -> SymmetricForm:
    """Pullback T^t.M.T; T may be rectangular (n rows, any column count)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != form.dim:
        raise ValueError(
            f"transform must have {form.dim} rows, got shape {t.shape}"
        )
    return SymmetricForm(t.T @ form.matrix @ t)


def skew_matrix(matrix, name: str) -> np.ndarray:
    """The skew part of a square matrix that is skew at its own scale,
    |sym(M)|_F <= SKEW_REL |M|_F.  Any other matrix is an input error, a
    ValueError that `name` heads; it is never antisymmetrized."""
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {m.shape}")
    defect, norm = frob(sym_part(m)), frob(m)
    if defect > SKEW_REL * norm:
        raise ValueError(f"{name} is not skew-symmetric (|sym|_F {defect:.3e}, |M|_F {norm:.3e})")
    return skew_part(m)


def span_rank(*forms: SymmetricForm) -> int:
    """Dimension of the span of the forms, each at unit Frobenius norm so that
    their scales do not matter.  Forms are exact data: stack a form computed
    from others (a bracket) at their scale, or its noise becomes a direction."""
    if not forms:
        return 0
    _check_form_dims(*forms)
    stacked = np.column_stack([f.normalized().matrix.ravel() for f in forms])
    return numerical_rank(stacked)
