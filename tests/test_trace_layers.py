"""The benchmark's tracer wraps package functions by name and reads their
arguments and results; every name it lists must still resolve, and the
counts it reads must still come out, or traced runs fail where tier-1
stays green."""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from math import comb
from pathlib import Path

from arrangements import cli

TESTS = Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def _traced_layers():
    """The LAYERS tuple of perfbench/tracer.py, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER} assigns no LAYERS")


def test_every_traced_layer_is_a_package_function():
    layers = _traced_layers()
    assert layers
    for qualname in layers:
        modname, fname = qualname.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"arrangements.{modname}"), fname, None)
        assert inspect.isfunction(fn), qualname
        assert fn.__module__.startswith("arrangements."), qualname


def test_traced_exponents_reports_kernel_counts(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "arrangements"]
    saved = [(m, dict(vars(m))) for m in modules]
    recorder = tracer.Recorder()
    try:
        recorder.install()
        assert cli.main(["exponents", str(TESTS / "bases" / "B3.json"), "--json"]) == 0
    finally:
        for module, names in saved:
            vars(module).update(names)
    assert json.loads(capsys.readouterr().out)["exponents"] == [1, 3, 5]
    kernels = tracer.summarize(recorder.spans)["linalg.nullspace"]
    # degrees d = 1..5 of B3: 3 * C(d + 2, 2) columns, and the kernel is
    # D(A)_d, free on generators of degrees 1, 3 and 5
    degrees = range(1, 6)
    assert kernels["calls"] == len(degrees)
    assert kernels["cols"] == sum(3 * comb(d + 2, 2) for d in degrees)
    assert kernels["kernel_dim"] == sum(comb(d - e + 2, 2) for d in degrees for e in (1, 3, 5) if d >= e)
