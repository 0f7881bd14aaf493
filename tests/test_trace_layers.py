"""The benchmark's tracer wraps package functions by name; every name it
lists must still resolve, or traced runs fail where tier-1 stays green."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
