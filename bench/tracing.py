"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces each traced public function in every localsolv
module that looks it up (so calls between modules are seen too) and wraps
the numpy.linalg entry points with counters; `uninstall` puts the originals
back.  A span's self time is its duration minus that of the traced spans
it called; kernel calls count against every open span.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

LINALG = ("svd", "eigvalsh", "eigh", "lstsq", "solve")

TRACED = (
    ("localsolv.cli", "main"),
    ("localsolv.checker", "heisenberg_verdict"),
    ("localsolv.checker", "two_step_verdict"),
    ("localsolv.checker", "point_symbol_verdict"),
    ("localsolv.witness", "hypothesis_report"),
    ("localsolv.witness", "transversality_witness"),
    ("localsolv.witness", "bracket_witness"),
    ("localsolv.witness", "project_to_joint_zero"),
    ("localsolv.pencil", "rank_profile"),
    ("localsolv.dissipativity", "is_non_dissipative"),
    ("localsolv.dissipativity", "trace_certificate"),
    ("localsolv.forms", "poisson_bracket"),
    ("localsolv.forms", "joint_radical"),
    ("localsolv.forms", "span_rank"),
)

SIZES = (4, 10, 20, 40)


@dataclass
class Span:
    start: float
    child: float = 0.0
    kernels: Counter = field(default_factory=Counter)


@dataclass
class Call:
    seconds: float
    self_seconds: float
    size: int | None
    result: object
    kernels: Counter


def _size(args) -> int | None:
    """Dimension of the forms a call works on, if its first argument says."""
    if not args:
        return None
    first = args[0]
    dim = getattr(first, "dim", None)
    if dim is None:
        dim = getattr(getattr(first, "a_re", None), "dim", None)
    return dim


class Tracer:
    def __init__(self):
        self.stack: list[Span] = []
        self.calls: dict[str, list[Call]] = {}
        self.kernels: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        calls = self.calls.setdefault(name, [])

        def traced(*args, **kwargs):
            span = Span(time.perf_counter())
            self.stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.stack.pop()
                seconds = time.perf_counter() - span.start
                if self.stack:
                    self.stack[-1].child += seconds
                calls.append(Call(seconds, seconds - span.child, _size(args), result, span.kernels))

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.kernels[name] += 1
            for span in self.stack:
                span.kernels[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "localsolv"]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(f"{module_name.split('.')[1]}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)
        for name in LINALG:
            self._replace(np.linalg, name, self._counter(name, getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: int, ops: int) -> dict[str, float]:
    """Every per-layer metric, from `rounds` traced replays of `ops` operations.

    Times are means per call in ms (0 when the function never ran); counts
    marked per call or per op are means, the others are per deck replay.
    """
    calls = tracer.calls
    m: dict[str, float] = {}

    def ms(name, pick=lambda c: True, self_time=False):
        return 1000.0 * _mean(
            (c.self_seconds if self_time else c.seconds) for c in calls[name] if pick(c)
        )

    def by_size(prefix, name, self_time=False):
        for n in SIZES:
            m[f"{prefix}.n{n}_ms"] = ms(name, lambda c, n=n: c.size == n, self_time)

    by_size("pencil.rank_profile", "pencil.rank_profile")
    m["pencil.rank_profile.svd_calls"] = _mean(c.kernels["svd"] for c in calls["pencil.rank_profile"])

    decide = calls["dissipativity.is_non_dissipative"]
    by_size("dissipativity.is_non_dissipative", "dissipativity.is_non_dissipative")
    m["dissipativity.is_non_dissipative.calls_per_op"] = len(decide) / (rounds * ops)
    m["dissipativity.is_non_dissipative.eigvalsh_calls"] = _mean(c.kernels["eigvalsh"] for c in decide)

    cert = calls["dissipativity.trace_certificate"]
    by_size("dissipativity.trace_certificate", "dissipativity.trace_certificate", self_time=True)
    m["dissipativity.trace_certificate.iterations"] = _mean(c.result.iterations for c in cert)
    m["dissipativity.trace_certificate.eigh_calls"] = _mean(c.kernels["eigh"] for c in cert)

    m["witness.hypothesis_report.self_ms"] = ms("witness.hypothesis_report", self_time=True)
    for route in ("heisenberg_verdict", "two_step_verdict", "point_symbol_verdict"):
        m[f"checker.{route}.self_ms"] = ms(f"checker.{route}", self_time=True)
    m["forms.poisson_bracket.ms"] = ms("forms.poisson_bracket")
    m["forms.joint_radical.ms"] = ms("forms.joint_radical")
    m["forms.span_rank.calls_per_op"] = len(calls["forms.span_rank"]) / (rounds * ops)

    restarts = 0
    for search in ("transversality_witness", "bracket_witness"):
        name = f"witness.{search}"
        m[f"{name}.found_ms"] = ms(name, lambda c: c.result.found)
        m[f"{name}.exhausted_ms"] = ms(name, lambda c: not c.result.found)
        restarts += sum(c.result.attempts for c in calls[name])
    m["witness.restarts_total"] = restarts / rounds
    project = calls["witness.project_to_joint_zero"]
    m["witness.project_to_joint_zero.calls"] = len(project) / rounds
    ok = [c for c in project if c.result is not None]
    m["witness.project_to_joint_zero.ok_ratio"] = len(ok) / len(project) if project else 0.0
    m["witness.project_to_joint_zero.ok_ms"] = 1000.0 * _mean(c.seconds for c in ok)
    m["witness.project_to_joint_zero.fail_ms"] = 1000.0 * _mean(
        c.seconds for c in project if c.result is None
    )

    m["cli.self_ms"] = ms("cli.main", self_time=True)
    for name in LINALG:
        m[f"linalg.{name}.calls"] = tracer.kernels[name] / rounds
    return m
