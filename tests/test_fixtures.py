"""The built-in counterexample corpus must verify all documented claims."""

import numpy as np
import pytest

from localsolv import SymmetricForm, SymplecticStructure, poisson_bracket, span_rank
from localsolv.fixtures import FormFixture, all_fixtures, verify_fixture
from conftest import commuting_pair


def test_corpus_has_all_documented_cases():
    keys = {f.key for f in all_fixtures()}
    assert keys == {
        "plane-rotated",
        "plane-sheared",
        "quartet-nonspanning",
        "isotropic-radical-d5",
        "picked-c-trivial-radical-d5",
        "picked-c-full-rank-d5",
    }


def test_every_fixture_has_independent_triple():
    for fixture in all_fixtures():
        assert span_rank(fixture.a, fixture.b, fixture.third_form) == 3


def test_documented_bracket_values_up_to_sign():
    for fixture in all_fixtures():
        if fixture.expected_bracket is None:
            continue
        computed = poisson_bracket(fixture.a, fixture.b, fixture.structure).matrix
        expected = fixture.expected_bracket.matrix
        gap = min(
            np.max(np.abs(computed - expected)), np.max(np.abs(computed + expected))
        )
        assert gap <= 1e-12


@pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.key)
def test_fixture_verifies(fixture):
    report = verify_fixture(fixture, seeds=(0, 1, 2, 3, 4))
    failures = [c for c in report.checks if not c.passed]
    assert not failures, failures


def test_plane_fixture_searches_are_proved_empty():
    # The plane pairs' joint zero sets are {0}; the searches say so before
    # running any restart, while the quartet search runs its whole budget.
    by_key = {f.key: f for f in all_fixtures()}
    for key in ("plane-rotated", "plane-sheared"):
        report = verify_fixture(by_key[key], seeds=(0, 1), restarts=20)
        searches = [c for c in report.checks if "search is empty" in c.name]
        assert len(searches) == 4
        for check in searches:
            assert check.passed
            assert check.detail == "proved empty after 0 of 20 restarts"
    report = verify_fixture(by_key["quartet-nonspanning"], seeds=(0,), restarts=20)
    searches = [c for c in report.checks if "search is empty" in c.name]
    assert [c.detail for c in searches] == ["attempts 20 of 20"]


@pytest.mark.parametrize("s", [1.0, 1e8, 1e16])
def test_commuting_pair_fails_the_independence_check(s):
    # {A, B} = 0, so the computed bracket is rounding noise.  Its span rank
    # scales that noise to unit norm and called the triple independent at
    # every s; the verdict path calls it dependent.
    a, b = commuting_pair(17, np.random.default_rng(0xC0))
    fixture = FormFixture(
        key="commuting-d17",
        description="Poisson-commuting pair under a scaled canonical pairing",
        a=SymmetricForm(a),
        b=SymmetricForm(b),
        structure=SymplecticStructure(s * SymplecticStructure.canonical(34).J),
        witness_modes=(),
    )
    checks = {c.name: c for c in verify_fixture(fixture).checks}
    independence = checks["A, B and the third form are linearly independent"]
    assert not independence.passed
    assert independence.detail == "verdict condition (b): False"
    assert checks["pair is non-dissipative"].passed
