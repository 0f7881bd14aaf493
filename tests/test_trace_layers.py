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


def _traced(capsys, *argv):
    """The JSON output and the per-layer summary of one traced CLI run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "arrangements"]
    saved = [(m, dict(vars(m))) for m in modules]
    recorder = tracer.Recorder()
    try:
        recorder.install()
        assert cli.main([*argv, "--json"]) == 0
    finally:
        for module, names in saved:
            vars(module).update(names)
    return json.loads(capsys.readouterr().out), tracer.summarize(recorder.spans)


def test_traced_exponents_reports_kernel_counts(capsys):
    out, summary = _traced(capsys, "exponents", str(TESTS / "bases" / "B3.json"))
    assert out["exponents"] == [1, 3, 5]
    kernels = summary["linalg.nullspace"]
    # degrees d = 1..5 of B3: 3 * C(d + 2, 2) columns, and the kernel is
    # D(A)_d, free on generators of degrees 1, 3 and 5.  Each degree also
    # takes one span kernel, dim D(A)_d columns wide, whose dimension is
    # the number of new generators there: 3 in all
    degrees = range(1, 6)
    dims = sum(comb(d - e + 2, 2) for d in degrees for e in (1, 3, 5) if d >= e)
    assert kernels["calls"] == 2 * len(degrees) == 10
    assert kernels["cols"] == sum(3 * comb(d + 2, 2) for d in degrees) + dims == 211
    assert kernels["kernel_dim"] == dims + 3 == 49


def test_traced_rank2_exponents_compute_two_kernels(capsys):
    # |m| = 37: the probe degree 18 has a one-dimensional kernel, so the
    # exponents are (18, 19) and the search computes the kernels at 18
    # (2 * 19 columns) and 19 (2 * 20 columns) only, not all of 1..19,
    # and one span kernel at each, as wide as the kernel there (1 and 3),
    # with one new generator each
    out, summary = _traced(capsys, "exponents", str(TESTS / "bases" / "three-lines-12-13-12.json"))
    assert out["exponents"] == [18, 19]
    kernels = summary["linalg.nullspace"]
    assert kernels["calls"] == 2 + 2
    assert kernels["cols"] == 38 + 40 + 1 + 3
    assert kernels["kernel_dim"] == 1 + 3 + 1 + 1


def test_traced_compare_counts_stay_put(capsys):
    # braid-ess4 is divisionally free, so compare reads A'' off L(A): no
    # kernel, no Saito check, and one essentialization, of A'' itself.
    # Under a bound it searches its rank-3 A'' at the roots of chi_0,
    # once: a refactor that adds a kernel, a Saito check or an
    # essentialization shows up here.  Each of the 3 graded kernels (93
    # columns, dimension 15) is followed by its span kernel (15 columns,
    # one per kernel vector, and one dimension per new generator)
    out, summary = _traced(capsys, "compare", "corpus:braid-ess4", "--h0", "0")
    assert out["mca"] is True
    assert "linalg.nullspace" not in summary
    assert "derivations.saito_check" not in summary
    assert summary["core.essentialize"]["calls"] == 1
    out, summary = _traced(capsys, "compare", "corpus:braid-ess4", "--h0", "0", "--bound", "4")
    assert out["mca"] is True
    kernels = summary["linalg.nullspace"]
    assert (kernels["calls"], kernels["cols"], kernels["kernel_dim"]) == (6, 108, 18)
    assert summary["derivations.saito_check"]["calls"] == 1
    # the flats of codim <= 2 of L(A'') take closed-form exponents, and
    # the center is A'' itself, essentialized once for its search, so the
    # sweep localizes no flat
    assert summary["core.essentialize"]["calls"] == 1
    assert "restriction.localize_and_essentialize" not in summary
