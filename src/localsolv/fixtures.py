"""Built-in counterexample corpus.

Each fixture is a pair (or triple) of quadratic forms near the boundary of
the verdict hypotheses: the rank or radical conditions fail in a documented
way and the corresponding witness search must come back empty.  Expected
bracket values are stored up to an overall sign, since the global bracket
sign depends on the coordinate block ordering (see `forms`).

`verify_fixture` classifies nothing itself: non-dissipativity, the ranks,
the radical and the independence of A, B and the bracket are those of
`witness.hypothesis_report`, the report the verdicts are assembled from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import SymmetricForm, SymplecticStructure, poisson_bracket, span_rank
from .witness import (
    RadicalStatus,
    SearchStatus,
    bracket_witness,
    hypothesis_report,
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


def _plane_sheared() -> FormFixture:
    a = SymmetricForm(np.diag([1.0, -1.0]))
    b = SymmetricForm([[1.0, -0.5], [-0.5, -1.0]])
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


def _isotropic_radical() -> FormFixture:
    d = 5
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


def _picked_c(widened: bool) -> FormFixture:
    d = 5
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
    """Compare every documented property of a fixture with one `hypothesis_report`.

    A picked third form is exact data, not a bracket, so its independence
    from A and B is read from their span rank.
    """
    hyp = hypothesis_report(fixture.a, fixture.b, fixture.structure)
    checks = [
        FixtureCheck(
            "pair is non-dissipative",
            hyp.nondissipative,
            f"verdict condition (a): {hyp.nondissipative}",
        )
    ]
    if fixture.expected_bracket is not None:
        checks.append(_bracket_matches(fixture))
    for what, observed, expected in (
        ("maxrank equals", hyp.maxrank, fixture.expected_maxrank),
        ("minrank equals", hyp.minrank, fixture.expected_minrank),
        ("joint radical has dimension", hyp.radical_dim, fixture.expected_radical_dim),
        ("radical status is", hyp.radical_status.value, fixture.expected_radical_status.value),
    ):
        if expected is not None:
            checks.append(
                FixtureCheck(f"{what} {expected}", observed == expected, f"observed {observed}")
            )

    third = fixture.third_form
    if fixture.picked_c is None:
        independent = hyp.independent_abc
        detail = f"verdict condition (b): {independent}"
    else:
        rank = span_rank(fixture.a, fixture.b, third)
        independent, detail = rank == 3, f"span rank {rank}"
    checks.append(
        FixtureCheck("A, B and the third form are linearly independent", independent, detail)
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
