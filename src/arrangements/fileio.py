"""JSON documents: the one reader and the one writer of the package.

Arrangement files are JSON documents:

    {"dim": 3,
     "hyperplanes": [[1, 0, 0], [0, 1, -1], ["1/2", 1, 0]],
     "labels": ["x", "y-z", "x/2+y"],
     "mult": [2, 1, 1]}

`labels` and `mult` are optional.  Form entries are integers or exact
rationals written as strings of the form [+-]digits[/digits] ("3", "-1/2");
floats, and strings in any other spelling ("1.5", "1e3", "1_000", " 1/2"),
are rejected to keep everything exact.  A corpus entry is the
`ArrangementInput` of such a document.

Reports serialize to flat JSON with exact integers only; `parse_report`
inverts `serialize_report` exactly (value equality holds after a round
trip).  Both kinds are read through one decoder and one set of field checks:
malformed input, nesting deeper than the decoder recurses and an integer
longer than Python converts (4 300 digits by default) raise InputError
naming the offending field ("report: ..." in a report).  Every JSON
document the package prints is written by `dumps_indented`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii

from .core import Multiarrangement, _Frozen, canonicalize
from .criteria import ComparisonReport, TamenessTag
from .derivations import SigmaStatus
from .errors import ArrangementError, InputError
from .lattice import Flat
from .restriction import CoefficientTable


class ArrangementInput(_Frozen):
    """A parsed arrangement file: base arrangement plus optional extras."""

    _fields = ("arrangement", "mult", "labels")

    def __init__(self, arrangement, mult, labels):
        object.__setattr__(self, "arrangement", arrangement)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "labels", labels)

    def multiarrangement(self):
        mult = self.mult or (1,) * self.arrangement.n_hyperplanes
        return Multiarrangement(self.arrangement, tuple(mult))


def _decode(text, where):
    """The JSON value of text; every way to fail is an InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's conversion limit
        raise InputError(f"{where}: an integer has too many digits") from exc
    except RecursionError as exc:
        raise InputError(f"{where}: arrays or objects nested too deeply") from exc


def _object(data, where, keys, required=False):
    """Refuse data unless it is a JSON object with fields among keys (and
    every one of them when required)."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: top level must be a JSON object")
    unknown = set(data) - set(keys)
    if unknown:
        raise InputError(f"{where}: unknown fields {sorted(unknown, key=str)}")
    missing = [key for key in keys if key not in data]
    if required and missing:
        raise InputError(f"{where}: missing fields {missing}")


def _field(data, where, key, ok, what):
    """data[key] (None when absent), refused unless ok(value)."""
    value = data.get(key)
    if not ok(value):
        raise InputError(f"{where}: field {key!r} must be {what}")
    return value


def _int(value, low=None):
    """An int, not a bool, and at least low."""
    return isinstance(value, int) and not isinstance(value, bool) and (low is None or value >= low)


def _list_of(ok=None, length=None):
    """The check of a list of length items (any number when None), each ok."""
    return lambda v: (
        isinstance(v, list) and length in (None, len(v)) and (ok is None or all(map(ok, v)))
    )


def _or_null(ok):
    return lambda value: value is None or ok(value)


def _str(value):
    return isinstance(value, str)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(value, where):
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            if _RATIONAL.fullmatch(value):
                return Fraction(value)
        except (ValueError, ZeroDivisionError):  # too many digits, or "p/0"
            pass
        raise InputError(f"{where}: invalid rational string {value!r}")
    if isinstance(value, float):
        raise InputError(
            f"{where}: floats are not accepted; write an exact \"p/q\" string"
        )
    raise InputError(f"{where}: expected a rational number, got {value!r}")


def _rows(rows, where, name, width):
    """The rows as tuples of rationals; each must be a list of width entries."""
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"{where}: {name}[{i}] must be a list")
        if len(row) != width:
            raise InputError(f"{where}: {name}[{i}] has {len(row)} entries, expected {width}")
        out.append(tuple(_rational(v, f"{where}: {name}[{i}][{j}]") for j, v in enumerate(row)))
    return out


def parse_arrangement_dict(data, where="input"):
    """Validate a decoded JSON document and build the arrangement."""
    _object(data, where, ("dim", "hyperplanes", "labels", "mult"))
    field = partial(_field, data, where)
    dim = field("dim", lambda v: _int(v, 1), "an integer >= 1")
    rows = field("hyperplanes", _list_of(), "a list of forms")
    forms = _rows(rows, where, "hyperplanes", dim)

    labels = field("labels", _or_null(_list_of(_str)), "a list of strings")
    if labels is not None:
        if len(labels) != len(forms):
            raise InputError(
                f"{where}: {len(labels)} labels for {len(forms)} hyperplanes"
            )
        labels = tuple(labels)

    mult = field("mult", _or_null(_list_of()), "a list of integers")
    if mult is not None:
        if len(mult) != len(forms):
            raise InputError(
                f"{where}: {len(mult)} multiplicities for {len(forms)} hyperplanes"
            )
        for i, m in enumerate(mult):
            if not _int(m, 0):
                raise InputError(
                    f"{where}: mult[{i}] must be a non-negative integer"
                )
        mult = tuple(mult)

    try:
        arrangement = canonicalize(forms, dim)
    except ArrangementError as exc:
        raise InputError(f"{where}: field 'hyperplanes': {exc}") from exc
    return ArrangementInput(arrangement=arrangement, mult=mult, labels=labels)


def loads_arrangement(text, where="input"):
    return parse_arrangement_dict(_decode(text, where), where)


def load_arrangement(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    return loads_arrangement(text, where=str(path))


# ---------------------------------------------------------------------------
# Report serialization.


def dumps_indented(value):
    """Exactly `json.dumps(value, indent=2)` for dicts with str keys, lists,
    tuples, ints, strs, None and bools (TypeError on anything else), since
    json's C encoder does not run when `indent` is set."""
    return _dumps(value, "\n")


def _dumps(value, newline):
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):  # bools are ints
        return "true" if value is True else "false" if value is False else int.__repr__(value)
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        # most items of a report's lists are plain ints: write them in place
        items = [int.__repr__(v) if type(v) is int else _dumps(v, inner) for v in value]
        ends = "[]"
    elif isinstance(value, dict):  # a key that is no str raises TypeError here
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in value.items()]
        ends = "{}"
    else:
        raise TypeError(f"no JSON text for a {type(value).__name__}")
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends


def fraction_to_json(value):
    """An int, or "p/q" in lowest terms, for a Fraction or an int."""
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def _flat_to_record(flat, cell):
    return {
        "codim": flat.codim,
        "equations": [[fraction_to_json(v) for v in row] for row in flat.equations],
        "hyperplanes": [j for j in range(flat.mask.bit_length()) if flat.mask >> j & 1],
        "b": cell["b"],
        "sigma": cell["sigma"],
    }


def report_to_dict(report):
    table = report.table
    per_flat = [
        _flat_to_record(flat, cell)
        for flat, cell in sorted(
            table.per_flat.items(), key=lambda kv: (kv[0].codim, kv[0].equations)
        )
    ]
    return {
        "dim": report.dim,
        "n_hyperplanes": report.n_hyperplanes,
        "h0": report.h0,
        "b": list(table.b),
        "sigma": [s.value for s in table.sigma],
        "sigma_methods": [s.method for s in table.sigma],
        "tame_arrangement": report.tame_arrangement.status,
        "tame_arrangement_reason": report.tame_arrangement.reason,
        "tame_restriction": report.tame_restriction.status,
        "tame_restriction_reason": report.tame_restriction.reason,
        "inequality": list(report.inequality),
        "chamber_bound": list(report.chamber_bound),
        "mca": report.mca,
        "degree_bound": report.degree_bound,
        "per_flat": per_flat,
    }


_REPORT_KEYS = (
    "dim", "n_hyperplanes", "h0", "b", "sigma", "sigma_methods", "tame_arrangement",
    "tame_arrangement_reason", "tame_restriction", "tame_restriction_reason", "inequality",
    "chamber_bound", "mca", "degree_bound", "per_flat",
)
_FLAT_KEYS = ("codim", "equations", "hyperplanes", "b", "sigma")


def _flat_from_record(record, where, dim, n):
    """The flat of a per_flat record, with its {"b", "sigma"} cell."""
    _object(record, where, _FLAT_KEYS, required=True)
    field = partial(_field, record, where)
    codim = field("codim", lambda v: _int(v, 0), "an integer >= 0")
    rows = field("equations", _list_of(length=codim), f"a list of {codim} rows")
    equations = tuple(_rows(rows, where, "equations", dim))
    hyperplanes = field(
        "hyperplanes",
        lambda v: _list_of(lambda j: _int(j, 0) and j < n)(v) and len(set(v)) == len(v),
        f"a list of distinct hyperplane indices below {n}",
    )
    cell = {
        "b": field("b", _int, "an integer"),
        "sigma": field("sigma", _or_null(_int), "an integer or null"),
    }
    return Flat(codim, sum(1 << j for j in hyperplanes), equations=equations), cell


def report_from_dict(data):
    """Invert report_to_dict, checking the type and shape of every field,
    that the per-flat b and sigma sum to b and sigma at each codim, and that
    inequality, chamber_bound and mca are the values read off b and sigma;
    InputError names the field at fault."""
    where = "report"
    _object(data, where, _REPORT_KEYS, required=True)
    field = partial(_field, data, where)
    dim = field("dim", lambda v: _int(v, 1), "an integer >= 1")
    n = field("n_hyperplanes", lambda v: _int(v, 1), "an integer >= 1")
    h0 = field("h0", lambda v: _int(v, 0), "an integer >= 0")

    def vector(key, ok, what):
        return tuple(field(key, _list_of(ok, dim), f"a list of {dim} {what}"))

    b = vector("b", _int, "integers")
    sigma = tuple(
        map(
            SigmaStatus,
            vector("sigma", _or_null(_int), "integers or nulls"),
            vector("sigma_methods", _or_null(_str), "strings or nulls"),
        )
    )
    tame_arrangement, tame_restriction = (
        TamenessTag(field(key, _str, "a string"),
                    field(f"{key}_reason", _or_null(_str), "a string or null"))
        for key in ("tame_arrangement", "tame_restriction")
    )
    degree_bound = field("degree_bound", _or_null(lambda v: _int(v, 0)), "an integer >= 0 or null")
    records = field("per_flat", _list_of(lambda r: isinstance(r, dict)), "a list of objects")
    per_flat = {}
    for i, record in enumerate(records):
        flat, cell = _flat_from_record(record, f"{where}: per_flat[{i}]", dim, n)
        if flat in per_flat:
            raise InputError(f"{where}: per_flat[{i}] repeats the flat of an earlier record")
        per_flat[flat] = cell
    for key, vector in (("b", b), ("sigma", [s.value for s in sigma])):
        for i, stated in enumerate(vector):
            column = [cell[key] for flat, cell in per_flat.items() if flat.codim == i]
            # flats all known sum to the stated value, so a null one needs a null flat
            if None not in column and sum(column) != stated:
                raise InputError(f"{where}: field 'per_flat' sums {key} to {sum(column)} at "
                                 f"codim {i}, not {key}[{i}] = {json.dumps(stated)}")
    report = ComparisonReport(n, h0, CoefficientTable(b, sigma, per_flat), tame_arrangement,
                              tame_restriction, degree_bound)
    # compared as JSON text, so that 1 is not true and 7.0 is not 7
    for key in ("inequality", "chamber_bound", "mca"):
        derived = json.dumps(getattr(report, key))
        if json.dumps(data[key]) != derived:
            raise InputError(f"{where}: field {key!r} must be {derived}, as read off b and sigma")
    return report


def serialize_report(report):
    return dumps_indented(report_to_dict(report))


def parse_report(text):
    return report_from_dict(_decode(text, "report"))


def verdict_to_dict(verdict):
    """JSON-friendly view of a FreenessVerdict (one-way; basis rendered)."""
    out = {
        "status": verdict.status,
        "exponents": list(verdict.exponents) if verdict.exponents else None,
        "witness": verdict.witness,
        "degree_bound": verdict.bound,
    }
    if verdict.basis is not None:
        out["basis"] = [repr(theta) for theta in verdict.basis]
    return out
