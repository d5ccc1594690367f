"""The benchmark's tracer (bench/tracing.py) still finds what it wraps.

`run.py --trace 1` replaces each (module, name) of `TRACED` by looking it up
by name, so a rename in the library would break traced runs only when they
are made.  These tests read bench/ and change nothing there.
"""

import importlib
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for module_name, attr in tracing.TRACED:
        assert module_name.split(".")[0] == "localsolv"
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr} is traced but missing"
        )
    for name in tracing.LINALG:
        assert callable(getattr(np.linalg, name))


def test_traced_witness_call_yields_every_layer_metric(tracing, capsys, tmp_path):
    from localsolv import cli, witness

    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": 3, "A": np.diag([1.0, -1.0, 0.0]).tolist(),
                                "B": [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]}))
    original = witness.project_to_joint_zero
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["witness", str(path), "--mode", "trans"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert witness.project_to_joint_zero is original
    assert len(tracer.calls["witness.transversality_witness"]) == 1
    metrics = tracing.layer_metrics(tracer, 1, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds the tracing overhead itself, from replay times
    expected = {m["name"] for m in declared} - {"trace.overhead_pct"}
    assert expected <= set(metrics)
