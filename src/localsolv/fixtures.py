"""Built-in counterexample corpus.

Each fixture is a pair (or triple) of quadratic forms near the boundary of
the verdict hypotheses: the rank or radical conditions fail in a documented
way and the corresponding witness search must come back empty.  Expected
bracket values are stored up to an overall sign, since the global bracket
sign depends on the coordinate block ordering (see `forms`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipativity import is_non_dissipative
from .forms import (
    SymmetricForm,
    SymplecticStructure,
    joint_radical,
    poisson_bracket,
    span_rank,
)
from .pencil import rank_profile
from .witness import (
    RadicalStatus,
    SearchStatus,
    bracket_witness,
    radical_status,
    transversality_witness,
)

__all__ = ["FormFixture", "FixtureCheck", "FixtureReport", "all_fixtures", "verify_fixture"]


@dataclass(frozen=True)
class FormFixture:
    key: str
    description: str
    a: SymmetricForm
    b: SymmetricForm
    structure: SymplecticStructure
    witness_modes: tuple[str, ...]  # subset of {"bracket", "transversality"}
    picked_c: SymmetricForm | None = None
    expected_bracket: SymmetricForm | None = None
    expected_maxrank: int | None = None
    expected_minrank: int | None = None
    expected_radical_dim: int = 0
    expected_radical_status: RadicalStatus = RadicalStatus.TRIVIAL

    @property
    def third_form(self) -> SymmetricForm:
        """The form whose vanishing on the joint zero set is at stake."""
        if self.picked_c is not None:
            return self.picked_c
        return poisson_bracket(self.a, self.b, self.structure)


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FixtureReport:
    key: str
    checks: tuple[FixtureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _plane_rotated() -> FormFixture:
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm([[0.0, 0.5], [0.5, 0.0]])
    return FormFixture(
        key="plane-rotated",
        description=(
            "two hyperbolic plane forms at 45 degrees; every pencil element "
            "has full rank 2 but the joint zero set is the origin alone, so "
            "no transversal crossing point exists"
        ),
        a=a,
        b=b,
        structure=SymplecticStructure.canonical(2),
        witness_modes=("transversality", "bracket"),
        expected_maxrank=2,
        expected_minrank=2,
    )


def _plane_sheared(eps: float = 0.5) -> FormFixture:
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm([[1.0, -eps], [-eps, -1.0]])
    return FormFixture(
        key="plane-sheared",
        description=(
            "hyperbolic plane form against its sheared copy; the regions "
            "{Q <= 0} are not nested yet their boundaries only meet at the "
            "origin, so transversality search must come back empty"
        ),
        a=a,
        b=b,
        structure=SymplecticStructure.canonical(2),
        witness_modes=("transversality", "bracket"),
        expected_maxrank=2,
        expected_minrank=2,
    )


def _quartet_nonspanning() -> FormFixture:
    a = np.zeros((4, 4))
    a[0, 3] = a[3, 0] = 0.5
    a[1, 2] = a[2, 1] = 0.5
    b = np.zeros((4, 4))
    b[0, 2] = b[2, 0] = 0.5
    b[1, 3] = b[3, 1] = -0.5
    c = np.zeros((4, 4))
    c[0, 3] = c[3, 0] = 1.0
    c[1, 2] = c[2, 1] = -1.0
    return FormFixture(
        key="quartet-nonspanning",
        description=(
            "non-degenerate pair on R^4 whose joint zero set is the union of "
            "two planes, neither spanning; the bracket vanishes on all of it "
            "even though the three forms are independent"
        ),
        a=SymmetricForm(a),
        b=SymmetricForm(b),
        structure=SymplecticStructure.canonical(4),
        witness_modes=("bracket",),
        expected_bracket=SymmetricForm(c),
        expected_maxrank=4,
        expected_minrank=4,
    )


def _isotropic_radical(d: int = 5) -> FormFixture:
    n = 2 * d
    diag = np.zeros(n)
    diag[0] = 1.0
    diag[1 : d - 1] = -1.0
    diag[d : 2 * d - 1] = -1.0
    a = np.diag(diag)
    b = np.zeros((n, n))
    b[0, d - 1] = b[d - 1, 0] = 0.5
    c = np.zeros((n, n))
    c[d, d - 1] = c[d - 1, d] = -1.0
    return FormFixture(
        key=f"isotropic-radical-d{d}",
        description=(
            "pair whose one-dimensional joint radical is isotropic for the "
            "pairing; the bracket vanishes on the joint zero set although "
            "the three forms are independent and the ranks are large"
        ),
        a=SymmetricForm(a),
        b=SymmetricForm(b),
        structure=SymplecticStructure.canonical(n),
        witness_modes=("bracket",),
        expected_bracket=SymmetricForm(c),
        expected_maxrank=2 * d - 1,
        expected_minrank=2,
        expected_radical_dim=1,
        expected_radical_status=RadicalStatus.DEGENERATE,
    )


def _picked_c(d: int = 5, widened: bool = False) -> FormFixture:
    n = 2 * d
    diag = np.zeros(n)
    diag[0] = 1.0
    diag[1 : d - 1] = -1.0
    diag[d : 2 * d] = -1.0
    if widened:
        diag[d - 1] = -1.0
    a = np.diag(diag)
    b = np.zeros((n, n))
    b[0, d - 1] = b[d - 1, 0] = 0.5
    c = np.zeros((n, n))
    c[d, d - 1] = c[d - 1, d] = 0.5
    suffix = "full-rank" if widened else "trivial-radical"
    return FormFixture(
        key=f"picked-c-{suffix}-d{d}",
        description=(
            "pair with trivial radical and full generic rank, paired with a "
            "hand-picked third form that is not the bracket; the third form "
            "vanishes on the whole joint zero set"
        ),
        a=SymmetricForm(a),
        b=SymmetricForm(b),
        structure=SymplecticStructure.canonical(n),
        witness_modes=("bracket",),
        picked_c=SymmetricForm(c),
        expected_maxrank=2 * d,
        expected_minrank=2,
    )


def all_fixtures() -> tuple[FormFixture, ...]:
    return (
        _plane_rotated(),
        _plane_sheared(),
        _quartet_nonspanning(),
        _isotropic_radical(),
        _picked_c(widened=False),
        _picked_c(widened=True),
    )


def _bracket_matches(fixture: FormFixture) -> FixtureCheck:
    computed = poisson_bracket(fixture.a, fixture.b, fixture.structure)
    expected = fixture.expected_bracket
    scale = max(expected.frobenius(), 1.0)
    gap = min(
        float(np.max(np.abs(computed.matrix - expected.matrix))),
        float(np.max(np.abs(computed.matrix + expected.matrix))),
    )
    return FixtureCheck(
        "bracket matches the documented value up to overall sign",
        gap <= 1e-10 * scale,
        f"entrywise gap {gap:.3e}",
    )


def verify_fixture(
    fixture: FormFixture,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    restarts: int = 200,
) -> FixtureReport:
    """Re-derive every documented property of a fixture and compare."""
    checks: list[FixtureCheck] = []

    verdict = is_non_dissipative(fixture.a, fixture.b)
    checks.append(
        FixtureCheck(
            "pair is non-dissipative",
            verdict.non_dissipative,
            f"extreme min eigenvalue {verdict.extreme_min_eig:.3e}",
        )
    )

    if fixture.expected_bracket is not None:
        checks.append(_bracket_matches(fixture))

    profile = rank_profile(fixture.a, fixture.b)
    if fixture.expected_maxrank is not None:
        checks.append(
            FixtureCheck(
                f"maxrank equals {fixture.expected_maxrank}",
                profile.maxrank == fixture.expected_maxrank,
                f"observed {profile.maxrank}",
            )
        )
    if fixture.expected_minrank is not None:
        checks.append(
            FixtureCheck(
                f"minrank equals {fixture.expected_minrank}",
                profile.minrank == fixture.expected_minrank,
                f"observed {profile.minrank}",
            )
        )

    radical = joint_radical(fixture.a, fixture.b)
    checks.append(
        FixtureCheck(
            f"joint radical has dimension {fixture.expected_radical_dim}",
            radical.dim == fixture.expected_radical_dim,
            f"observed {radical.dim}",
        )
    )
    status = radical_status(radical, fixture.structure)
    checks.append(
        FixtureCheck(
            f"radical status is {fixture.expected_radical_status.value}",
            status is fixture.expected_radical_status,
            f"observed {status.value}",
        )
    )

    third = fixture.third_form
    checks.append(
        FixtureCheck(
            "A, B and the third form are linearly independent",
            span_rank(fixture.a, fixture.b, third) == 3,
            f"span rank {span_rank(fixture.a, fixture.b, third)}",
        )
    )

    for mode in fixture.witness_modes:
        for seed in seeds:
            if mode == "bracket":
                search = bracket_witness(
                    fixture.a, fixture.b, third, restarts=restarts, seed=seed
                )
            else:
                search = transversality_witness(
                    fixture.a, fixture.b, restarts=restarts, seed=seed
                )
            if search.status is SearchStatus.EMPTY:
                detail = f"proved empty after {search.attempts} of {search.budget} restarts"
            else:
                detail = f"attempts {search.attempts} of {search.budget}"
            checks.append(
                FixtureCheck(f"{mode} search is empty (seed {seed})", not search.found, detail)
            )
    return FixtureReport(fixture.key, tuple(checks))
