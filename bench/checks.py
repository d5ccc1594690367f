"""Independent checks of the command-line reports.

Every report is compared with the planted truth of its input, or with a
recomputation made here with numpy alone, or with a property the method must
have (a re-verified witness or certificate).  No check compares against a
stored copy of an earlier report.  `check` returns None for a correct report
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

from planted import canonical_j

# Witness points are accepted by the program at a residual of 1e-9 for the
# unit-Frobenius forms, with margins above 1e-6 of the form scale.
ZERO_TOL = 1e-9
MARGIN_REL = 1e-6
# Certificate residuals are accepted at 1e-8 of ||A||_F + ||B||_F (times
# tr Q^2); the factor 2 absorbs the 17-digit rounding of the printed Q.
CERT_REL = 2e-8
# Slack for "positive semidefinite", relative to ||A||_F + ||B||_F.
PSD_SLACK = 1e-8
# Drop angles are refined by the program to far below this.
ANGLE_TOL = 1e-6
# sigma_3 / sigma_1 of the unit-normalized (A, B, C) below this: dependent.
INDEPENDENCE_CUT = 1e-6
# sigma_min of a restricted pairing below this times ||K^-1||: degenerate.
SYMPLECTIC_CUT = 1e-8


class Reject(Exception):
    pass


def _require(condition: bool, reason: str):
    if not condition:
        raise Reject(reason)


def check(op, code: int, out: str, err: str) -> str | None:
    """None if the report of `op` is right, else why it is not."""
    try:
        _require(code == 0, f"exit code {code}: {err.strip()[:200]}")
        _require(err == "", f"unexpected stderr: {err.strip()[:200]}")
        report = json.loads(out)
        _require(report["command"] == op.command, "report names another command")
        CHECKS[op.kind](op, report["result"])
    except Reject as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    return None


def _frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def bracket(a: np.ndarray, b: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Position-first bracket for the pairing induced by the skew matrix K.

    The pairing matrix is J = -K^-1, and C = 2(A J^-1 B - B J^-1 A); for the
    canonical J (whose K is J itself) this is C = 2(BJA - AJB).
    """
    return 2.0 * (b @ k @ a - a @ k @ b)


def independent(*forms: np.ndarray) -> bool:
    stacked = np.column_stack([f.ravel() / _frob(f) for f in forms])
    s = np.linalg.svd(stacked, compute_uv=False)
    return bool(s[-1] > INDEPENDENCE_CUT * s[0])


def radical_status(basis: np.ndarray, k: np.ndarray) -> str:
    if basis.shape[1] == 0:
        return "TRIVIAL"
    k_inv = np.linalg.inv(k)
    s = np.linalg.svd(basis.T @ k_inv @ basis, compute_uv=False)
    if s[-1] > SYMPLECTIC_CUT * np.linalg.norm(k_inv, 2):
        return "SYMPLECTIC"
    return "DEGENERATE"


def expected_verdict(truth: dict, mu0) -> dict:
    """Every verdict field, from the planted pair and the reported mu0."""
    pair = truth["pair"]
    skew = truth["skew"]
    mu = [1.0] if mu0 is None else list(mu0)
    _require(len(mu) == len(skew), f"mu0 {mu0} does not match {len(skew)} skew matrices")
    k = sum(m * j for m, j in zip(mu, skew))
    s = np.linalg.svd(k, compute_uv=False)
    _require(s[-1] > 1e-8 * s[0], f"reported mu0 {mu0} gives a degenerate pairing")
    a, b = truth["a"], truth["b"]
    status = radical_status(pair.radical_basis(), k)
    minrank, maxrank = pair.minrank, pair.maxrank
    if minrank >= 3 and maxrank >= 17:
        branch = "I"
    elif minrank == 2 and maxrank >= 9 and status != "DEGENERATE":
        branch = "II"
    else:
        branch = "NONE"
    nondissipative = not pair.dissipative
    indep = independent(a, b, bracket(a, b, k))
    solvable_claim = nondissipative and indep and branch != "NONE"
    return {
        "outcome": "NOT_LOCALLY_SOLVABLE" if solvable_claim else "INCONCLUSIVE",
        "condition_a": nondissipative,
        "condition_b": indep,
        "condition_c": branch,
        "nondissipative": nondissipative,
        "independent_abc": indep,
        "minrank": minrank,
        "maxrank": maxrank,
        "radical_status": status,
        "radical_dim": pair.n - maxrank,
        "branch": branch,
    }


def check_verdict(op, result: dict):
    expected = expected_verdict(op.truth, result["mu0"])
    reported = dict(result["hypothesis"])
    reported.update({key: result[key] for key in ("outcome", "condition_a", "condition_b", "condition_c")})
    wrong = [f"{key} {reported[key]!r} (expected {value!r})"
             for key, value in expected.items() if reported[key] != value]
    _require(not wrong, "; ".join(wrong))


def _circular_gap(x: float, y: float) -> float:
    gap = abs(x - y) % (2.0 * math.pi)
    return min(gap, 2.0 * math.pi - gap)


def check_pencil(op, result: dict):
    pair = op.truth["pair"]
    _require(result["maxrank"] == pair.maxrank, f"maxrank {result['maxrank']} (expected {pair.maxrank})")
    _require(result["minrank"] == pair.minrank, f"minrank {result['minrank']} (expected {pair.minrank})")
    planted = pair.drop_points()
    reported = [(float(d["theta"]), int(d["rank"])) for d in result["drop_points"]]
    _require(len(reported) == len(planted), f"{len(reported)} drops reported, {len(planted)} planted")
    for theta, rank in planted:
        near = [r for t, r in reported if _circular_gap(t, theta) <= ANGLE_TOL]
        _require(near == [rank], f"drop at theta={theta:.9f} (rank {rank}) reported as {near}")


def _psd_direction(a: np.ndarray, b: np.ndarray, theta) -> None:
    _require(theta is not None, "dissipative outcome without a direction")
    m = math.cos(theta) * a + math.sin(theta) * b
    lowest = float(np.linalg.eigvalsh(m)[0])
    slack = PSD_SLACK * (_frob(a) + _frob(b))
    _require(_frob(m) > 0.0 and lowest >= -slack,
             f"theta={theta} gives min eigenvalue {lowest:.3e}, not a PSD element")


def check_certificate(op, result: dict):
    pair, a, b = op.truth["pair"], op.truth["a"], op.truth["b"]
    if pair.dissipative:
        _require(result["verdict"] == "DISSIPATIVE", f"verdict {result['verdict']} on a dissipative pair")
        _require(result["certificate_status"] == "INFEASIBLE",
                 f"certificate status {result['certificate_status']} on a dissipative pair")
        _psd_direction(a, b, result["theta"])
        _psd_direction(a, b, result["dissipative_theta"])
        return
    _require(result["verdict"] == "NON_DISSIPATIVE", f"verdict {result['verdict']} on a non-dissipative pair")
    _require(result["certificate_status"] == "FOUND",
             f"certificate status {result['certificate_status']} on a non-dissipative pair")
    q = np.asarray(result["certificate"]["Q"], dtype=float)
    _require(q.shape == a.shape, f"Q has shape {q.shape}")
    _require(_frob(q - q.T) <= 1e-12 * _frob(q), "Q is not symmetric")
    lowest = float(np.linalg.eigvalsh(0.5 * (q + q.T))[0])
    _require(lowest > 0.0, f"Q has min eigenvalue {lowest:.3e}, not positive definite")
    tol = CERT_REL * (_frob(a) + _frob(b)) * float(np.trace(q @ q))
    for name, form in (("A", a), ("B", b)):
        residual = abs(float(np.trace(q @ form @ q)))
        _require(residual <= tol, f"tr(Q{name}Q) = {residual:.3e} exceeds {tol:.3e}")


def check_witness_found(op, result: dict):
    a, b, mode = op.truth["a"], op.truth["b"], op.truth["mode"]
    _require(result["found"] is True, f"no witness found in {result['attempts']} attempts")
    w = result["witness"]
    z = np.asarray(w["point"], dtype=float)
    _require(abs(float(np.linalg.norm(z)) - 1.0) <= 1e-9, "witness is not a unit vector")
    for name, form in (("A", a), ("B", b)):
        residual = abs(float(z @ form @ z)) / _frob(form)
        _require(residual <= ZERO_TOL, f"|z^T {name} z| / ||{name}|| = {residual:.3e}")
    if mode == "trans":
        margin = float(np.linalg.svd(np.column_stack([a @ z, b @ z]), compute_uv=False)[1])
        threshold = MARGIN_REL * (_frob(a) + _frob(b))
    else:
        c = bracket(a, b, canonical_j(len(z)))
        margin = abs(float(z @ c @ z))
        threshold = MARGIN_REL * _frob(c)
    _require(margin > threshold, f"recomputed margin {margin:.3e} is below {threshold:.3e}")
    _require(abs(margin - w["margin"]) <= 1e-6 * margin,
             f"reported margin {w['margin']:.6e} differs from recomputed {margin:.6e}")


def check_witness_exhausted(op, result: dict):
    # A proved-empty status is as good as an exhausted budget; a found
    # witness on a fixture whose joint zero set admits none is wrong.
    _require(result["found"] is False, f"a witness was found on fixture {op.truth['fixture']}")
    _require(result["witness"] is None, "a witness point on an empty search")


CHECKS = {
    "verdict": check_verdict,
    "pencil": check_pencil,
    "certificate": check_certificate,
    "witness-found": check_witness_found,
    "witness-exhausted": check_witness_exhausted,
}
