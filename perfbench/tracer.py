"""Outside-in span recorder for the `arrangements` package.

The package binds names with `from .x import y`, so each module holds its
own reference to the functions it calls.  `install` rebinds every listed
function in every package module that holds it, the defining module
included, to a wrapper that records a span.  Nothing under `src/` changes.

A span is [name, start, end, parent, counts, input, error]: parent is the
index of the enclosing span, counts come from the call's arguments and
result, input numbers the distinct hashable argument tuples seen for that
name, and error names the exception the call raised.  Spans stay in memory;
`write_jsonl` writes them out when the pass ends and `summarize` turns them
into per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter


# Count extractors read arguments the way the package passes them.


def _nullspace_counts(args, kwargs, result):
    _rows, ncols = args
    return {"cols": ncols, "max_cols": ncols, "kernel_dim": len(result)}


def _point_counts(args, kwargs, result):
    arr, q = args
    return {"points": q**arr.dim}


# Functions wrapped, by module and name as the package defines them.
LAYERS = (
    "lattice.intersection_lattice",
    "linalg.nullspace",
    "linalg.echelon",
    "linalg.det",
    "polynomials.monomial_residue_mod_linear_power",
    "polynomials.mp_determinant",
    "derivations.find_free_basis",
    "derivations.saito_check",
    "derivations.sigma_coefficients",
    "derivations.sigma_per_flat",
    "restriction.ziegler_restriction",
    "restriction.decone",
    "restriction.localize_and_essentialize",
    "restriction.b_coefficients",
    "criteria.compare_coefficients",
    "criteria.tameness_classify",
    "oracles.minor_bound",
    "oracles.point_count",
    "oracles.finite_field_char_poly",
    "oracles.char_poly_recursion",
    "oracles.region_count_recursion",
    "core.essentialize",
    "fileio.load_arrangement",
    "fileio.serialize_report",
    "fileio.verdict_to_dict",
)
# Both renderers of CLI output share one span name.
SPAN_NAMES = {
    "fileio.serialize_report": "fileio.output",
    "fileio.verdict_to_dict": "fileio.output",
}
COUNTS = {
    "lattice.intersection_lattice": lambda args, kwargs, result: {"flats": len(result.flats)},
    "linalg.nullspace": _nullspace_counts,
    "oracles.point_count": _point_counts,
}
# Layers whose repeated inputs an optimization could reuse.
DISTINCT = {
    "lattice.intersection_lattice",
    "derivations.find_free_basis",
    "restriction.ziegler_restriction",
    "restriction.localize_and_essentialize",
}


class Recorder:
    """Spans of one worker process, recorded by wrappers around the layers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._inputs = {}

    def _input_id(self, name, sig, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        seen = self._inputs.setdefault(name, {})
        try:
            return seen.setdefault(key, len(seen))
        except TypeError:  # unhashable arguments are never counted as repeats
            return -1

    def wrap(self, name, fn, counts=None, distinct=False):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if distinct else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None, None, None]
            if distinct:
                span[5] = self._input_id(name, sig, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every name in LAYERS in every imported package module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "arrangements" or n.startswith("arrangements.")
        ]
        for qualname in LAYERS:
            modname, fname = qualname.rsplit(".", 1)
            original = getattr(importlib.import_module(f"arrangements.{modname}"), fname)
            wrapped = self.wrap(SPAN_NAMES.get(qualname, qualname), original,
                                COUNTS.get(qualname), qualname in DISTINCT)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, counts, inp, error) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if counts:
                    record["counts"] = counts
                if inp is not None:
                    record["input"] = inp
                if error:
                    record["error"] = error
                out.write(json.dumps(record) + "\n")


def summarize(spans):
    """Per-name totals: calls, total_s, self_s, summed counts (max_* counts
    take the maximum), distinct_ratio where inputs were tracked, and the
    names of exceptions raised with their frequency."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, counts, inp, error) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
        for key, value in (counts or {}).items():
            if key.startswith("max_"):
                s[key] = max(s.get(key, 0), value)
            else:
                s[key] = s.get(key, 0) + value
        if inp is not None:
            s.setdefault("_inputs", set()).add(inp if inp >= 0 else ("call", i))
        if error:
            errors = s.setdefault("errors", {})
            errors[error] = errors.get(error, 0) + 1
    for s in out.values():
        if "_inputs" in s:
            s["distinct_ratio"] = len(s.pop("_inputs")) / s["calls"]
    return out
