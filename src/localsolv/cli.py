"""Command-line front end: JSON specifications in, deterministic reports out.

Every command reads one JSON input file, dispatches to the library and
prints a single JSON report (or a plain-text summary with --text).  Reports
are byte-identical for identical (input file, seed, flags): floating-point
values are printed with 17 significant digits and all randomized routines
derive from the --seed value.  Exit codes: 0 clean run (any verdict), 2
input error, 3 numerical-inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from .checker import (
    HeisenbergOperatorSpec,
    PointSymbolSpec,
    StructureConstants,
    TwoStepGroupSpec,
    heisenberg_verdict,
    point_symbol_verdict,
    step_reduction,
    two_step_verdict,
)
from .dissipativity import CertificateStatus, trace_certificate
from .errors import (
    ConsistencyError,
    DegeneratePairingError,
    DependentPairError,
    MuSearchError,
    NumericalInconclusiveError,
)
from .fixtures import all_fixtures, verify_fixture
from .forms import SymmetricForm, SymplecticStructure, poisson_bracket
from .pencil import rank_profile
from .witness import WitnessSearch, bracket_witness, transversality_witness

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_INCONCLUSIVE = 3


class InputError(Exception):
    """Invalid input file; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# deterministic JSON emission


def _emit_json(value, pieces: list[str]):
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, int):
        pieces.append(repr(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("reports must not contain non-finite numbers")
        if value == 0.0:  # collapse negative zero
            value = 0.0
        pieces.append(format(value, ".17g"))
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _emit_json(item, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        if value and all(type(x) is float for x in value) and all(map(math.isfinite, value)):
            # one join for a row of floats; adding 0.0 turns -0.0 into 0.0
            pieces.append("[" + ", ".join([format(x + 0.0, ".17g") for x in value]) + "]")
            return
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(", ")
            _emit_json(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(report: dict) -> str:
    pieces: list[str] = []
    _emit_json(report, pieces)
    return "".join(pieces)


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"seed: {report['seed']}"]

    def walk(label: str, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{label}.{key}" if label else str(key), item)
        elif isinstance(value, (list, tuple)):
            if value and isinstance(value[0], (dict, list, tuple)):
                for i, item in enumerate(value):
                    walk(f"{label}[{i}]", item)
            else:
                lines.append(f"{label}: {list(value)}")
        else:
            lines.append(f"{label}: {value}")

    walk("", report["result"])
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# input parsing


def _load_payload(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{path}: top-level value must be an object")
    return payload, digest


def _require(payload: dict, key: str):
    if key not in payload:
        raise InputError(f"{key}: required field is missing")
    return payload[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InputError(f"{path}: expected a finite number, got {value!r}")
    return number


_NUMBER_TYPES = frozenset((float, int))


def _is_number_row(row, cols: int) -> bool:
    return type(row) is list and len(row) == cols and set(map(type, row)) <= _NUMBER_TYPES


def _as_matrix(value, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise InputError(f"{path}: expected {rows} rows")
    if all(_is_number_row(row, cols) for row in value):
        try:
            out = np.array(value, dtype=float)
            if np.isfinite(out).all():
                return out
        except OverflowError:
            pass
    # the per-entry pass names the first bad entry
    out = np.empty((rows, cols))
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"{path}[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise InputError(f"{path}[{i}][{j}]: expected a number, got {entry!r}")
            try:
                out[i, j] = float(entry)
            except OverflowError:
                out[i, j] = math.inf
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise InputError(f"{path}[{i}][{j}]: expected a finite number, got {value[i][j]!r}")
    return out


def _form_from(payload: dict, key: str, n: int, warnings: list[str]) -> SymmetricForm:
    m = _as_matrix(_require(payload, key), n, n, key)
    asymmetry = float(np.max(np.abs(m - m.T)))
    # relative to max|M| alone, so a small input's asymmetry is seen too
    if asymmetry > 1e-9 * float(np.max(np.abs(m))):
        warnings.append(f"{key}: symmetrized on load (asymmetry {asymmetry:.3e})")
    return SymmetricForm(m)


def _load_forms(payload: dict, warnings: list[str]):
    n = _as_int(_require(payload, "n"), "n")
    if n <= 0:
        raise InputError(f"n: must be positive, got {n}")
    a = _form_from(payload, "A", n, warnings)
    b = _form_from(payload, "B", n, warnings)
    c = _form_from(payload, "C", n, warnings) if "C" in payload else None
    structure = None
    if "J" in payload:
        try:
            structure = SymplecticStructure(_as_matrix(payload["J"], n, n, "J"))
        except ValueError as exc:
            raise InputError(f"J: {exc}") from exc
    return n, a, b, c, structure


def _canonical_or(structure, n: int) -> SymplecticStructure:
    if structure is not None:
        return structure
    if n % 2 != 0:
        raise InputError("n: odd dimension needs an explicit J for bracket work")
    return SymplecticStructure.canonical(n)


def _load_heisenberg(payload: dict, warnings: list[str]) -> HeisenbergOperatorSpec:
    d = _as_int(_require(payload, "d"), "d")
    if d <= 0:
        raise InputError(f"d: must be positive, got {d}")
    a_re = _form_from(payload, "A_re", 2 * d, warnings)
    a_im = _form_from(payload, "A_im", 2 * d, warnings)
    return HeisenbergOperatorSpec(d, a_re, a_im)


def _load_two_step(payload: dict, warnings: list[str]) -> TwoStepGroupSpec:
    m = _as_int(_require(payload, "m"), "m")
    if m <= 0:
        raise InputError(f"m: must be positive, got {m}")
    a_re = _form_from(payload, "A_re", m, warnings)
    a_im = _form_from(payload, "A_im", m, warnings)
    j_raw = _require(payload, "J_list")
    if not isinstance(j_raw, list) or not j_raw:
        raise InputError("J_list: expected a non-empty list of matrices")
    j_list = [_as_matrix(item, m, m, f"J_list[{i}]") for i, item in enumerate(j_raw)]
    mu0 = None
    if "mu0" in payload and payload["mu0"] is not None:
        raw = payload["mu0"]
        if not isinstance(raw, list) or len(raw) != len(j_list):
            raise InputError(f"mu0: expected {len(j_list)} numbers")
        mu0 = tuple(_as_finite(x, f"mu0[{i}]") for i, x in enumerate(raw))
    note = payload.get("note")
    if note is not None and not isinstance(note, str):
        raise InputError("note: expected a string")
    try:
        return TwoStepGroupSpec(m, tuple(j_list), a_re, a_im, mu0, note)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_point(payload: dict, warnings: list[str]) -> PointSymbolSpec:
    n = _as_int(_require(payload, "n"), "n")
    m = _as_int(_require(payload, "m"), "m")
    if n <= 0 or m <= 0:
        raise InputError("n, m: must be positive")
    t = _as_matrix(_require(payload, "T"), m, 2 * n, "T")
    a_re = _form_from(payload, "A_re", m, warnings)
    a_im = _form_from(payload, "A_im", m, warnings)
    try:
        return PointSymbolSpec(n, m, t, a_re, a_im)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_lie(payload: dict, warnings: list[str]):
    dim = _as_int(_require(payload, "dim"), "dim")
    if dim <= 0:
        raise InputError(f"dim: must be positive, got {dim}")
    grading_raw = _require(payload, "grading")
    if not isinstance(grading_raw, list) or len(grading_raw) != dim:
        raise InputError(f"grading: expected {dim} layer numbers")
    grading = tuple(_as_int(g, f"grading[{i}]") for i, g in enumerate(grading_raw))
    triplets = _require(payload, "c")
    if not isinstance(triplets, list):
        raise InputError("c: expected a list of [i, j, k, value] entries")
    c = np.zeros((dim, dim, dim))
    filled = np.zeros((dim, dim, dim), dtype=bool)
    for t, entry in enumerate(triplets):
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputError(f"c[{t}]: expected [i, j, k, value]")
        i, j, k = (_as_int(entry[x], f"c[{t}][{x}]") for x in range(3))
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not 0 <= idx < dim:
                raise InputError(f"c[{t}]: index {label}={idx} outside 0..{dim - 1}")
        value = entry[3]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"c[{t}][3]: expected a number")
        value = float(value)
        for (ii, jj), v in (((i, j), value), ((j, i), -value)):
            if filled[ii, jj, k] and c[ii, jj, k] != v:
                raise InputError(f"c[{t}]: conflicts with an earlier entry for [{ii},{jj},{k}]")
            c[ii, jj, k] = v
            filled[ii, jj, k] = True
    m = sum(1 for g in grading if g == 1)
    if "A_re" in payload or "A_im" in payload:
        a_re = _form_from(payload, "A_re", m, warnings)
        a_im = _form_from(payload, "A_im", m, warnings)
    else:
        warnings.append(
            "A_re/A_im missing from the algebra file; emitting identity/zero placeholders"
        )
        a_re = SymmetricForm(np.eye(m))
        a_im = SymmetricForm.zero(m)
    try:
        constants = StructureConstants(dim, c, grading)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return constants, a_re, a_im


# ---------------------------------------------------------------------------
# payload rendering


def _matrix_payload(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _hypothesis_payload(hyp) -> dict:
    return {
        "nondissipative": hyp.nondissipative,
        "independent_abc": hyp.independent_abc,
        "minrank": hyp.minrank,
        "maxrank": hyp.maxrank,
        "radical_status": hyp.radical_status.value,
        "radical_dim": hyp.radical_dim,
        "branch": hyp.branch.value,
        "notes": list(hyp.notes),
    }


def _verdict_payload(verdict) -> dict:
    return {
        "outcome": verdict.outcome.value,
        "condition_a": verdict.condition_a,
        "condition_b": verdict.condition_b,
        "condition_c": verdict.condition_c.value,
        "mu0": list(verdict.mu0) if verdict.mu0 is not None else None,
        "hypothesis": _hypothesis_payload(verdict.hypothesis),
        "notes": list(verdict.notes),
    }


def _witness_payload(search: WitnessSearch, mode: str) -> dict:
    payload = {
        "mode": mode,
        "found": search.found,
        "status": search.status.value,
        "attempts": search.attempts,
        "budget": search.budget,
        "witness": None,
    }
    if search.found:
        w = search.witness
        payload["witness"] = {
            "point": [float(x) for x in w.point],
            "residual_a": w.residual_a,
            "residual_b": w.residual_b,
            "margin": w.margin,
            "attempts": w.attempts,
            "kind": w.kind,
        }
    return payload


def _two_step_payload(spec: TwoStepGroupSpec) -> dict:
    return {
        "m": spec.m,
        "A_re": _matrix_payload(spec.a_re.matrix),
        "A_im": _matrix_payload(spec.a_im.matrix),
        "J_list": [_matrix_payload(j) for j in spec.j_list],
        "mu0": list(spec.mu0) if spec.mu0 is not None else None,
        "note": spec.note,
    }


# ---------------------------------------------------------------------------
# command implementations


def _cmd_bracket(args, payload, warnings):
    n, a, b, _, structure = _load_forms(payload, warnings)
    structure = _canonical_or(structure, n)
    c = poisson_bracket(a, b, structure)
    return {
        "n": n,
        "C_position_first": _matrix_payload(c.matrix),
        "C_momentum_first": _matrix_payload(-c.matrix),
        "note": (
            "the two matrices differ by the global sign induced by the "
            "coordinate block ordering; rank, independence and vanishing "
            "statements are unaffected"
        ),
    }, _EXIT_OK


def _cmd_dissipativity(args, payload, warnings):
    _, a, b, _, _ = _load_forms(payload, warnings)
    outcome = trace_certificate(a, b)
    verdict = outcome.verdict
    result = {
        "verdict": verdict.kind.value,
        "theta": verdict.theta,
        "extreme_min_eig": verdict.extreme_min_eig,
        "certificate_status": outcome.status.value,
        "certificate": None,
        "dissipative_theta": verdict.theta,
    }
    if outcome.found:
        cert = outcome.certificate
        result["certificate"] = {
            "Q": _matrix_payload(cert.q),
            "residual_a": cert.residual_a,
            "residual_b": cert.residual_b,
            "min_eig_q": cert.min_eig_q,
        }
    code = _EXIT_INCONCLUSIVE if outcome.status is CertificateStatus.NUMERICAL_INCONCLUSIVE else _EXIT_OK
    return result, code


def _cmd_pencil(args, payload, warnings):
    _, a, b, _, _ = _load_forms(payload, warnings)
    try:
        profile = rank_profile(a, b)
    except DependentPairError as exc:
        raise InputError(f"A, B: {exc}") from exc
    return {
        "maxrank": profile.maxrank,
        "minrank": profile.minrank,
        "generic_theta": profile.generic_theta,
        "drop_points": [{"theta": t, "rank": r} for t, r in profile.drop_points],
        "marginal": [float(t) for t in profile.marginal],
        "notes": list(profile.notes),
    }, _EXIT_OK


def _restarts(args) -> int:
    if args.restarts < 1:
        raise InputError(f"--restarts: expected a positive integer, got {args.restarts}")
    return args.restarts


def _cmd_witness(args, payload, warnings):
    restarts = _restarts(args)
    n, a, b, c, structure = _load_forms(payload, warnings)
    if args.mode == "trans":
        search = transversality_witness(a, b, restarts=restarts, seed=args.seed)
        mode = "transversality"
    else:
        if c is None:
            structure = _canonical_or(structure, n)
            c = poisson_bracket(a, b, structure)
            warnings.append("C missing; using the bracket of A and B")
        search = bracket_witness(a, b, c, restarts=restarts, seed=args.seed)
        mode = "bracket"
    return _witness_payload(search, mode), _EXIT_OK


def _cmd_check_heisenberg(args, payload, warnings):
    spec = _load_heisenberg(payload, warnings)
    return _verdict_payload(heisenberg_verdict(spec)), _EXIT_OK


def _cmd_check_two_step(args, payload, warnings):
    spec = _load_two_step(payload, warnings)
    verdict = two_step_verdict(spec, seed=args.seed)
    return _verdict_payload(verdict), _EXIT_OK


def _cmd_check_point(args, payload, warnings):
    spec = _load_point(payload, warnings)
    try:
        verdict = point_symbol_verdict(spec, seed=args.seed)
    except DegeneratePairingError as exc:
        raise InputError(f"T: the reduced pairing T J T^t: {exc}") from exc
    return _verdict_payload(verdict), _EXIT_OK


def _cmd_reduce_step(args, payload, warnings):
    constants, a_re, a_im = _load_lie(payload, warnings)
    try:
        spec = step_reduction(constants, a_re, a_im)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _two_step_payload(spec), _EXIT_OK


def _cmd_fixtures(args, payload, warnings):
    restarts = _restarts(args)
    fixtures = all_fixtures()
    reports = [verify_fixture(f, restarts=restarts) for f in fixtures]
    result = {
        "all_passed": all(r.passed for r in reports),
        "fixtures": [
            {
                "key": fixture.key,
                "description": fixture.description,
                "passed": report.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in report.checks
                ],
            }
            for fixture, report in zip(fixtures, reports)
        ],
    }
    code = _EXIT_OK if result["all_passed"] else _EXIT_INCONCLUSIVE
    return result, code


_COMMANDS = {
    "bracket": (_cmd_bracket, True),
    "dissipativity": (_cmd_dissipativity, True),
    "pencil": (_cmd_pencil, True),
    "witness": (_cmd_witness, True),
    "check-heisenberg": (_cmd_check_heisenberg, True),
    "check-2step": (_cmd_check_two_step, True),
    "check-point": (_cmd_check_point, True),
    "reduce-step": (_cmd_reduce_step, True),
    "fixtures": (_cmd_fixtures, False),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="localsolv",
        description=(
            "matrix computations deciding a necessary condition for local "
            "solvability of operators with a doubly characteristic point"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, with_input=True, witness_flags=False):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="path to the JSON input file")
        p.add_argument("--seed", type=int, default=42, help="seed for randomized routines")
        p.add_argument("--text", action="store_true", help="human-readable summary instead of JSON")
        if witness_flags:
            p.add_argument("--mode", choices=["trans", "bracket"], default="trans")
        if name in ("witness", "fixtures"):
            p.add_argument("--restarts", type=int, default=200)
        return p

    add("bracket", "Poisson bracket of the two forms, both sign conventions")
    add("dissipativity", "non-dissipativity verdict plus trace certificate")
    add("pencil", "generic rank, minimal rank and rank-drop directions")
    add("witness", "witness point search on the joint zero set", witness_flags=True)
    add("check-heisenberg", "operator verdict for the one-center group")
    add("check-2step", "operator verdict for a 2-step group")
    add("check-point", "operator verdict from point-symbol data")
    add("reduce-step", "quotient a graded algebra down to 2-step data")
    add("fixtures", "verify the built-in counterexample corpus", with_input=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, needs_input = _COMMANDS[args.command]
    warnings: list[str] = []
    try:
        if needs_input:
            payload, digest = _load_payload(args.input)
        else:
            payload, digest = {}, hashlib.sha256(b"builtin-fixture-corpus-v1").hexdigest()
        result, code = handler(args, payload, warnings)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (MuSearchError, NumericalInconclusiveError, ConsistencyError) as exc:
        result = {"status": "NUMERICAL_INCONCLUSIVE", "error": str(exc)}
        code = _EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs_digest": digest,
        "seed": args.seed,
        "result": result,
        "warnings": warnings,
    }
    print(render_text(report) if args.text else render_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
