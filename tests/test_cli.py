"""End-to-end CLI runs: schemas, determinism, exit codes, round trips."""

import importlib.resources
import json
import math

import jsonschema
import numpy as np
import pytest

from localsolv.cli import main
from localsolv.forms import SymplecticStructure
from conftest import close_drop_pairs, traceless_pair

SCHEMA = json.loads(
    importlib.resources.files("localsolv").joinpath("report_schema_v1.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def quartet_payload():
    a = np.zeros((4, 4))
    a[0, 3] = a[3, 0] = 0.5
    a[1, 2] = a[2, 1] = 0.5
    b = np.zeros((4, 4))
    b[0, 2] = b[2, 0] = 0.5
    b[1, 3] = b[3, 1] = -0.5
    return {"n": 4, "A": a.tolist(), "B": b.tolist()}


def plane_payload():
    return {"n": 2, "A": [[1.0, 0.0], [0.0, -1.0]], "B": [[0.0, 0.5], [0.5, 0.0]]}


@pytest.fixture
def quartet_file(tmp_path):
    path = tmp_path / "quartet.json"
    path.write_text(json.dumps(quartet_payload()))
    return str(path)


@pytest.fixture
def plane_file(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane_payload()))
    return str(path)


def test_bracket_command_both_conventions(capsys, quartet_file):
    code, report = run_json(capsys, "bracket", quartet_file)
    assert code == 0
    pos = np.array(report["result"]["C_position_first"])
    mom = np.array(report["result"]["C_momentum_first"])
    assert np.allclose(pos, -mom)
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = 1.0
    expected[1, 2] = expected[2, 1] = -1.0
    assert np.allclose(pos, -expected)


def test_pencil_command(capsys, quartet_file):
    code, report = run_json(capsys, "pencil", quartet_file)
    assert code == 0
    assert report["result"]["maxrank"] == 4
    assert report["result"]["minrank"] == 4


def test_dissipativity_command(capsys, plane_file):
    code, report = run_json(capsys, "dissipativity", plane_file)
    assert code == 0
    result = report["result"]
    assert result["verdict"] == "NON_DISSIPATIVE"
    assert result["certificate_status"] == "FOUND"
    q = np.array(result["certificate"]["Q"])
    assert np.linalg.eigvalsh(q)[0] > 0


@pytest.mark.parametrize("s", [1e-300, 1e160, 1e300])
def test_dissipativity_certificate_at_extreme_scales(capsys, tmp_path, s):
    # angles 0, 2.1, 4.2 with radii 1, 2, 1.5: non-dissipative, with traces
    phi, r = np.array([0.0, 2.1, 4.2]), np.array([1.0, 2.0, 1.5])
    t = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.4, 0.0, 1.0]])
    a = t.T @ np.diag(r * np.cos(phi)) @ t
    b = t.T @ np.diag(r * np.sin(phi)) @ t
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"n": 3, "A": (s * a).tolist(), "B": (s * b).tolist()}))
    code, report = run_json(capsys, "dissipativity", str(path))
    assert code == 0
    result = report["result"]
    assert result["verdict"] == "NON_DISSIPATIVE"
    assert result["certificate_status"] == "FOUND"
    q = np.array(result["certificate"]["Q"])
    assert np.linalg.eigvalsh(q)[0] > 0.0
    # the unscaled pair stands for the scaled one: the traces are linear in it
    for f in (a, b):
        tol = 2e-8 * (np.linalg.norm(a) + np.linalg.norm(b)) * np.trace(q @ q)
        assert abs(np.trace(q @ f @ q)) <= tol


def test_witness_transversality_none_found_exit_zero(capsys, plane_file):
    code, report = run_json(capsys, "witness", plane_file, "--mode", "trans", "--restarts", "40")
    assert code == 0
    assert report["result"]["found"] is False
    assert report["result"]["status"] == "EMPTY"
    assert report["result"]["attempts"] == 0
    assert report["result"]["budget"] == 40


def test_witness_bracket_mode_computes_c(capsys, quartet_file):
    code, report = run_json(
        capsys, "witness", quartet_file, "--mode", "bracket", "--restarts", "30"
    )
    assert code == 0
    assert report["result"]["found"] is False
    assert report["result"]["status"] == "EXHAUSTED"
    assert report["result"]["attempts"] == report["result"]["budget"] == 30
    assert any("C missing" in w for w in report["warnings"])


def test_witness_text_mode_shows_status(capsys, plane_file):
    code, out, err = run_cli(capsys, "witness", plane_file, "--restarts", "40", "--text")
    assert code == 0
    assert err == ""
    assert "status: EMPTY" in out.splitlines()
    assert "attempts: 0" in out.splitlines()


@pytest.mark.parametrize("restarts", ["-5", "0"])
def test_witness_rejects_non_positive_restarts(capsys, plane_file, restarts):
    code, out, err = run_cli(capsys, "witness", plane_file, "--restarts", restarts)
    assert code == 2
    assert out == ""
    assert f"input error: --restarts: expected a positive integer, got {restarts}" in err


@pytest.mark.parametrize("restarts", ["-3", "0"])
def test_fixtures_rejects_non_positive_restarts(capsys, restarts):
    code, out, err = run_cli(capsys, "fixtures", "--restarts", restarts)
    assert code == 2
    assert out == ""
    assert f"input error: --restarts: expected a positive integer, got {restarts}" in err


def test_witness_bracket_mode_with_supplied_c(capsys, tmp_path):
    # trivial-radical family with a hand-picked (non-bracket) third form that
    # vanishes on the whole joint zero set: supplied C must be honored and
    # the search must come back empty
    d = 5
    n = 2 * d
    diag = np.zeros(n)
    diag[0] = 1.0
    diag[1 : d - 1] = -1.0
    diag[d : 2 * d] = -1.0
    b = np.zeros((n, n))
    b[0, d - 1] = b[d - 1, 0] = 0.5
    c = np.zeros((n, n))
    c[d, d - 1] = c[d - 1, d] = 0.5
    payload = {"n": n, "A": np.diag(diag).tolist(), "B": b.tolist(), "C": c.tolist()}
    path = tmp_path / "picked.json"
    path.write_text(json.dumps(payload))
    code, report = run_json(
        capsys, "witness", str(path), "--mode", "bracket", "--restarts", "40"
    )
    assert code == 0
    assert report["result"]["found"] is False
    assert not any("C missing" in w for w in report["warnings"])


def test_witness_bracket_mode_with_a_huge_c(capsys, tmp_path):
    # ||C||_F overflows at C x 1e200: the search was EXHAUSTED after 10 restarts
    from localsolv import SymplecticStructure, poisson_bracket

    a, b = traceless_pair(6, np.random.default_rng(5))
    c = 1e200 * poisson_bracket(a, b, SymplecticStructure.canonical(6)).matrix
    payload = {"n": 6, "A": a.matrix.tolist(), "B": b.matrix.tolist(), "C": c.tolist()}
    path = tmp_path / "huge_c.json"
    path.write_text(json.dumps(payload))
    code, report = run_json(
        capsys, "witness", str(path), "--mode", "bracket", "--restarts", "10", "--seed", "1"
    )
    assert code == 0
    result = report["result"]
    assert (result["status"], result["attempts"]) == ("FOUND", 1)
    z = np.array(result["witness"]["point"])
    assert result["witness"]["margin"] == pytest.approx(abs(float(z @ c @ z)), rel=1e-9)
    assert result["witness"]["margin"] > 1e-6 * 1e200


def test_check_heisenberg_quartet(capsys, tmp_path):
    payload = quartet_payload()
    spec = {"d": 2, "A_re": payload["A"], "A_im": payload["B"]}
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "check-heisenberg", str(path))
    assert code == 0
    assert report["result"]["outcome"] == "INCONCLUSIVE"
    assert report["result"]["condition_c"] == "NONE"


def test_check_heisenberg_dissipative_condition_a(capsys, tmp_path):
    eye = np.eye(4).tolist()
    zero = np.zeros((4, 4)).tolist()
    path = tmp_path / "dissipative.json"
    path.write_text(json.dumps({"d": 2, "A_re": eye, "A_im": zero}))
    code, report = run_json(capsys, "check-heisenberg", str(path))
    assert code == 0
    assert report["result"]["outcome"] == "INCONCLUSIVE"
    assert report["result"]["condition_a"] is False


def test_close_drop_pair_is_decided(capsys, tmp_path):
    # n = 30 with two drops 1e-4 apart: both commands exited 3 when the
    # inertia between the drops was read against their ranks
    (_, a, b), = (pair for pair in close_drop_pairs(10) if pair[0] == 9)
    path = tmp_path / "heis.json"
    path.write_text(json.dumps({"d": 15, "A_re": a.matrix.tolist(), "A_im": b.matrix.tolist()}))
    code, report = run_json(capsys, "check-heisenberg", str(path))
    assert code == 0
    assert report["result"]["outcome"] == "NOT_LOCALLY_SOLVABLE"
    path = tmp_path / "forms.json"
    path.write_text(json.dumps({"n": 30, "A": a.matrix.tolist(), "B": b.matrix.tolist()}))
    code, report = run_json(capsys, "dissipativity", str(path))
    assert code == 0
    assert report["result"]["verdict"] == "NON_DISSIPATIVE"
    assert report["result"]["certificate_status"] == "FOUND"


def test_check_two_step_matches_heisenberg(capsys, tmp_path):
    payload = quartet_payload()
    j = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    heis_path = tmp_path / "h.json"
    heis_path.write_text(json.dumps({"d": 2, "A_re": payload["A"], "A_im": payload["B"]}))
    two_path = tmp_path / "t.json"
    two_path.write_text(
        json.dumps({"m": 4, "A_re": payload["A"], "A_im": payload["B"], "J_list": [j]})
    )
    _, heis = run_json(capsys, "check-heisenberg", str(heis_path))
    _, two = run_json(capsys, "check-2step", str(two_path))
    assert heis["result"]["outcome"] == two["result"]["outcome"]
    assert heis["result"]["hypothesis"] == two["result"]["hypothesis"]


def test_check_point_identity_embedding(capsys, tmp_path):
    # select the first two positions and their conjugate momenta out of R^8:
    # the reduced pairing is then the canonical one on R^4
    payload = quartet_payload()
    t = np.zeros((4, 8))
    t[0, 0] = t[1, 1] = t[2, 4] = t[3, 5] = 1.0
    spec = {"n": 4, "m": 4, "T": t.tolist(), "A_re": payload["A"], "A_im": payload["B"]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "check-point", str(path))
    assert code == 0
    assert report["result"]["outcome"] == "INCONCLUSIVE"
    heis_path = tmp_path / "heis_ref.json"
    heis_path.write_text(json.dumps({"d": 2, "A_re": payload["A"], "A_im": payload["B"]}))
    _, heis = run_json(capsys, "check-heisenberg", str(heis_path))
    assert report["result"]["hypothesis"] == heis["result"]["hypothesis"]


def test_reduce_step_round_trip(capsys, tmp_path):
    lie = {
        "dim": 5,
        "grading": [1, 1, 2, 3, 3],
        "c": [[0, 1, 2, 1.0], [2, 0, 3, 1.0], [2, 1, 4, 1.0]],
        "A_re": [[1.0, 0.0], [0.0, 1.0]],
        "A_im": [[1.0, 0.0], [0.0, -1.0]],
    }
    lie_path = tmp_path / "lie.json"
    lie_path.write_text(json.dumps(lie))
    code, report = run_json(capsys, "reduce-step", str(lie_path))
    assert code == 0
    result = report["result"]
    assert result["m"] == 2
    assert result["J_list"] == [[[0.0, 1.0], [-1.0, 0.0]]]
    spec_path = tmp_path / "reduced.json"
    spec_path.write_text(json.dumps(result))
    code2, report2 = run_json(capsys, "check-2step", str(spec_path))
    assert code2 == 0
    assert report2["result"]["outcome"] in ("INCONCLUSIVE", "NOT_LOCALLY_SOLVABLE")


def test_reports_byte_identical_per_seed(capsys, quartet_file):
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "pencil", quartet_file, "--seed", "7")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code, other, _ = run_cli(capsys, "witness", quartet_file, "--seed", "9", "--restarts", "10")
    code2, other2, _ = run_cli(capsys, "witness", quartet_file, "--seed", "9", "--restarts", "10")
    assert other == other2


def test_rank_results_do_not_depend_on_the_seed(capsys, tmp_path):
    # a pair with a 2-dimensional joint radical: the rank path draws nothing
    rng = np.random.default_rng(0x5EED)
    a, b = traceless_pair(4, rng)
    grow = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :4]
    a, b = (grow @ m.matrix @ grow.T for m in (a, b))
    inputs = {
        "pencil": {"n": 6, "A": a.tolist(), "B": b.tolist()},
        "check-heisenberg": {"d": 3, "A_re": a.tolist(), "A_im": b.tolist()},
    }
    for command, payload in inputs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(payload))
        results = []
        for seed in ("1", "42", "2147483647"):
            code, report = run_json(capsys, command, str(path), "--seed", seed)
            assert code == 0
            results.append(report["result"])
        assert results[0] == results[1] == results[2], command
    assert results[0]["hypothesis"]["radical_dim"] == 2


def test_input_error_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "pencil", str(tmp_path / "absent.json"))
    assert code == 2
    assert out == ""
    assert "input error" in err
    assert "Traceback" not in err


def test_input_error_reports_field_path(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "A": [[1, 0], [0, 1]], "B": [[1, 0]]}))
    code, out, err = run_cli(capsys, "pencil", str(path))
    assert code == 2
    assert "B" in err


def test_input_error_non_numeric_entry(capsys, tmp_path):
    path = tmp_path / "bad.json"
    payload = {"n": 2, "A": [[1, "x"], [0, 1]], "B": [[0, 1], [1, 0]]}
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "pencil", str(path))
    assert code == 2
    assert "A[0][1]" in err


@pytest.mark.parametrize(
    "literal, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")]
)
def test_input_error_non_finite_entry(capsys, tmp_path, literal, shown):
    # json accepts these literals; the loader must reject them and name the entry
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": 2, "A": [[1, 0], [0, -1]], "B": [[0, {literal}], [1, 0]]}}')
    for command in ("pencil", "dissipativity"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == f"input error: B[0][1]: expected a finite number, got {shown}\n"


def test_input_error_overflowing_integer_entry(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "A_re": [[1, 0], [0, 1' + "0" * 400 + ']], "A_im": [[0, 1], [1, 0]], "d": 1}')
    code, out, err = run_cli(capsys, "check-heisenberg", str(path))
    assert code == 2
    assert err.startswith("input error: A_re[1][1]: expected a finite number")


@pytest.mark.parametrize(
    "literal, message",
    [
        ("NaN", "expected a finite number, got nan"),
        ("Infinity", "expected a finite number, got inf"),
        ("-Infinity", "expected a finite number, got -inf"),
        ("1e400", "expected a finite number, got inf"),
        ("1" + "0" * 400, "expected a finite number, got 1" + "0" * 400),
        ('"x"', "expected a number, got 'x'"),
        ("true", "expected a number, got True"),
        ("null", "expected a number, got None"),
    ],
)
def test_input_error_bad_mu0_entry(capsys, tmp_path, literal, message):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"m": 2, "A_re": [[1, 0], [0, -1]], "A_im": [[0, 1], [1, 0]], '
        '"J_list": [[[0, 1], [-1, 0]], [[0, 2], [-2, 0]]], '
        f'"mu0": [1.5, {literal}]}}'
    )
    code, out, err = run_cli(capsys, "check-2step", str(path))
    assert code == 2
    assert out == ""
    assert err == f"input error: mu0[1]: {message}\n"


def test_parser_built_once_per_process(capsys, quartet_file):
    from localsolv import cli

    cli._build_parser.cache_clear()
    for _ in range(3):
        code, _, _ = run_cli(capsys, "pencil", quartet_file)
        assert code == 0
    assert cli._build_parser.cache_info().misses == 1


def test_dependent_pair_is_input_error(capsys, tmp_path):
    path = tmp_path / "dep.json"
    payload = {"n": 2, "A": [[1, 0], [0, -1]], "B": [[2, 0], [0, -2]]}
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "pencil", str(path))
    assert code == 2


def test_asymmetric_input_warns(capsys, tmp_path):
    path = tmp_path / "asym.json"
    payload = {"n": 2, "A": [[1, 1e-6], [0, -1]], "B": [[0, 0.5], [0.5, 0]]}
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "pencil", str(path))
    assert code == 0
    assert any("symmetrized" in w for w in report["warnings"])


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12, 1e-150, 1e150])
def test_asymmetry_warning_is_relative_to_the_input(capsys, tmp_path, s):
    # A is 100% asymmetric at every scale; an absolute floor hid it below 1e-9
    path = tmp_path / "asym.json"
    payload = {"n": 2, "A": [[s, 2 * s], [0, s]], "B": [[0, s], [s, 0]]}
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "pencil", str(path))
    assert code == 0
    assert [w.split(":")[0] for w in report["warnings"] if "symmetrized" in w] == ["A"]


@pytest.mark.parametrize("s", [1.0, 1e-12, 1e-300, 1e150])
def test_symmetric_input_never_warns(capsys, tmp_path, s):
    path = tmp_path / "sym.json"
    payload = {"n": 2, "A": [[s, 3 * s], [3 * s, -s]], "B": [[0, s], [s, 0]]}
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "pencil", str(path))
    assert code == 0
    assert not any("symmetrized" in w for w in report["warnings"])


def test_abelian_two_step_exits_inconclusive(capsys, tmp_path):
    path = tmp_path / "abelian.json"
    payload = {
        "m": 2,
        "A_re": [[1.0, 0.0], [0.0, -1.0]],
        "A_im": [[0.0, 0.5], [0.5, 0.0]],
        "J_list": [[[0.0, 0.0], [0.0, 0.0]]],
    }
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "check-2step", str(path))
    assert code == 3
    assert report["result"]["status"] == "NUMERICAL_INCONCLUSIVE"


def test_degenerate_point_pairing_is_input_error(capsys, tmp_path):
    t = np.zeros((2, 4))
    t[0, 0] = 1.0
    t[1, 1] = 1.0
    payload = {
        "n": 2,
        "m": 2,
        "T": t.tolist(),
        "A_re": [[1.0, 0.0], [0.0, -1.0]],
        "A_im": [[0.0, 0.5], [0.5, 0.0]],
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "check-point", str(path))
    assert code == 2
    assert "degenerate" in err


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e5])
def test_omega_orthogonal_point_rows_are_degenerate_at_every_scale(capsys, tmp_path, s):
    # T J T^t is rounding alone; at its own scale that read as a pairing
    # that is not skew-symmetric, an error naming neither T nor degeneracy
    j = SymplecticStructure.canonical(4).J
    x, y = np.random.default_rng(3).standard_normal((2, 4))
    w = j.T @ x
    y = y - (w @ y) / (w @ w) * w
    payload = {
        "n": 2,
        "m": 2,
        "T": (s * np.array([x, y])).tolist(),
        "A_re": [[1.0, 0.0], [0.0, -1.0]],
        "A_im": [[0.0, 0.5], [0.5, 0.0]],
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "check-point", str(path))
    assert code == 2
    assert "input error: T:" in err
    assert "degenerate" in err


def test_text_mode_renders_summary(capsys, quartet_file):
    code, out, err = run_cli(capsys, "bracket", quartet_file, "--text")
    assert code == 0
    assert out.startswith("command: bracket")
    assert "C_position_first" in out


def test_float_precision_seventeen_digits(capsys, plane_file):
    code, out, err = run_cli(capsys, "dissipativity", plane_file)
    parsed = json.loads(out)
    # Q = I / sqrt(2) for this traceless pair, printed with 17 digits
    assert "0.70710678118654757" in out
    # 17 significant digits round-trip exactly through a parse
    value = parsed["result"]["certificate"]["min_eig_q"]
    assert format(value, ".17g") in out


# -- the per-entry reference paths --------------------------------------------
#
# `_as_matrix` converts a well-formed matrix in one numpy call and
# `_emit_json` prints a row of finite floats in one join.  These are the
# per-entry paths they replace, kept as oracles.


def ref_as_matrix(value, rows, cols, path):
    from localsolv.cli import InputError

    if not isinstance(value, list) or len(value) != rows:
        raise InputError(f"{path}: expected {rows} rows")
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


def ref_emit_json(value, pieces):
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
        if value == 0.0:
            value = 0.0
        pieces.append(format(value, ".17g"))
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            ref_emit_json(item, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(", ")
            ref_emit_json(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc).__name__, str(exc)


def matrix_inputs():
    rng = np.random.default_rng(0x9A85)
    big = 10**400
    cases = []
    for rows, cols in ((1, 1), (2, 2), (3, 3), (40, 40), (4, 6)):
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
        cases.append((json.loads(json.dumps(m.tolist())), rows, cols))
    ints = [[2**53 + 1, -(2**64) - 1, 10**300], [0, -0.0, 5e-324], [1, 2, -7]]
    cases.append((ints, 3, 3))
    bad_entries = [True, False, None, "1", [1.0], {"x": 1}, math.nan, math.inf, -math.inf,
                   json.loads("1e400"), big, -big]
    for entry in bad_entries:
        for i, j in ((0, 0), (1, 2), (2, 1)):
            m = [[1.0, 2, -3.5], [0.0, 4, 5.0], [6, 7.25, 8]]
            m[i][j] = entry
            cases.append((m, 3, 3))
    good = [[1.0, 2.0], [3.0, 4.0]]
    cases += [
        (good, 3, 2),  # wrong row count
        (good, 2, 3),  # wrong row length
        ([[1.0, 2.0], [3.0]], 2, 2),
        ([[1.0, 2.0], (3.0, 4.0)], 2, 2),
        ({"0": good}, 2, 2),
        ("[[1]]", 1, 1),
        ([[1.0, "x"], [math.nan, 2.0]], 2, 2),  # the first bad entry is named
        ([[math.inf, 1.0], [1.0, "x"]], 2, 2),
    ]
    return cases


def test_as_matrix_agrees_with_the_per_entry_path():
    from localsolv.cli import _as_matrix

    for value, rows, cols in matrix_inputs():
        fast, ref = outcome(_as_matrix, value, rows, cols, "A"), outcome(ref_as_matrix, value, rows, cols, "A")
        assert fast[0] == ref[0], (value, fast, ref)
        if fast[0] == "ok":
            assert fast[1].dtype == np.float64 and fast[1].shape == (rows, cols)
            assert fast[1].tobytes() == ref[1].tobytes()
        else:
            assert fast[1] == ref[1]


def test_emit_json_agrees_with_the_per_entry_path():
    from localsolv.cli import _emit_json

    rng = np.random.default_rng(0x3E17)
    row = [float(x) for x in rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)]
    reports = [
        {"point": row, "Q": [row[:5], row[5:10]], "zeros": [0.0, -0.0, 5e-324, -5e-324]},
        {"mixed": [1.0, 2, True, None, "s", -0.0], "tuple": (0.5, -0.0), "empty": []},
        {"numpy": [np.float64(-0.0), np.float64(1.5)], "nested": [[[1.0]], [(2.0, 3.0)]]},
        {"bool_row": [True, False], "int_row": [1, -2, 10**30], "big": [1.7976931348623157e308]},
        {"nan": [1.0, math.nan]},
        {"inf": (math.inf,)},
        {"bad": [1.0, object()]},
        -0.0,
    ]
    for report in reports:
        fast, ref = [], []
        assert outcome(_emit_json, report, fast)[0] == outcome(ref_emit_json, report, ref)[0]
        assert "".join(fast) == "".join(ref)
