"""Arrangement file parsing and report (de)serialization.

Arrangement files are JSON documents:

    {"dim": 3,
     "hyperplanes": [[1, 0, 0], [0, 1, -1], ["1/2", 1, 0]],
     "labels": ["x", "y-z", "x/2+y"],
     "mult": [2, 1, 1]}

`labels` and `mult` are optional.  Form entries are integers or exact
rationals written as strings of the form [+-]digits[/digits] ("3", "-1/2");
floats, and strings in any other spelling ("1.5", "1e3", "1_000", " 1/2"),
are rejected to keep everything exact.  Malformed input, nesting deeper
than the decoder recurses and an integer longer than Python converts
(4 300 digits by default) raise InputError naming the offending field.

Reports serialize to flat JSON with exact integers only; `parse_report`
inverts `serialize_report` exactly (value equality holds after a round
trip).  Every JSON document the package prints is written by `dumps_indented`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
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


def parse_arrangement_dict(data, where="input"):
    """Validate a decoded JSON document and build the arrangement."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: top level must be a JSON object")
    unknown = set(data) - {"dim", "hyperplanes", "labels", "mult"}
    if unknown:
        raise InputError(f"{where}: unknown fields {sorted(unknown)}")

    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"{where}: field 'dim' must be an integer >= 1")

    rows = data.get("hyperplanes")
    if not isinstance(rows, list):
        raise InputError(f"{where}: field 'hyperplanes' must be a list of forms")
    forms = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"{where}: hyperplanes[{i}] must be a list")
        if len(row) != dim:
            raise InputError(
                f"{where}: hyperplanes[{i}] has {len(row)} entries, expected {dim}"
            )
        forms.append(
            tuple(
                _rational(v, f"{where}: hyperplanes[{i}][{j}]")
                for j, v in enumerate(row)
            )
        )

    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(
            isinstance(s, str) for s in labels
        ):
            raise InputError(f"{where}: field 'labels' must be a list of strings")
        if len(labels) != len(forms):
            raise InputError(
                f"{where}: {len(labels)} labels for {len(forms)} hyperplanes"
            )
        labels = tuple(labels)

    mult = data.get("mult")
    if mult is not None:
        if not isinstance(mult, list):
            raise InputError(f"{where}: field 'mult' must be a list of integers")
        if len(mult) != len(forms):
            raise InputError(
                f"{where}: {len(mult)} multiplicities for {len(forms)} hyperplanes"
            )
        for i, m in enumerate(mult):
            if not isinstance(m, int) or isinstance(m, bool) or m < 0:
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past Python's conversion limit
        raise InputError(f"{where}: an integer has too many digits") from exc
    except RecursionError as exc:
        raise InputError(f"{where}: arrays or objects nested too deeply") from exc
    return parse_arrangement_dict(data, where)


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


def _fraction_from_json(value):
    return Fraction(value) if isinstance(value, str) else Fraction(int(value))


def _flat_to_record(flat, cell):
    return {
        "codim": flat.codim,
        "equations": [[fraction_to_json(v) for v in row] for row in flat.equations],
        "hyperplanes": [j for j in range(flat.mask.bit_length()) if flat.mask >> j & 1],
        "b": cell["b"],
        "sigma": cell["sigma"],
    }


def _flat_from_record(record):
    return Flat(
        record["codim"],
        sum(1 << j for j in record["hyperplanes"]),
        equations=tuple(
            tuple(_fraction_from_json(v) for v in row)
            for row in record["equations"]
        ),
    )


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


def report_from_dict(data):
    sigma = tuple(
        SigmaStatus(value, method)
        for value, method in zip(data["sigma"], data["sigma_methods"])
    )
    per_flat = {
        _flat_from_record(record): {"b": record["b"], "sigma": record["sigma"]}
        for record in data["per_flat"]
    }
    table = CoefficientTable(b=tuple(data["b"]), sigma=sigma, per_flat=per_flat)
    return ComparisonReport(
        dim=data["dim"],
        n_hyperplanes=data["n_hyperplanes"],
        h0=data["h0"],
        table=table,
        tame_arrangement=TamenessTag(
            data["tame_arrangement"], data["tame_arrangement_reason"]
        ),
        tame_restriction=TamenessTag(
            data["tame_restriction"], data["tame_restriction_reason"]
        ),
        inequality=tuple(data["inequality"]),
        chamber_bound=tuple(data["chamber_bound"]),
        mca=data["mca"],
        degree_bound=data["degree_bound"],
    )


def serialize_report(report):
    return dumps_indented(report_to_dict(report))


def parse_report(text):
    return report_from_dict(json.loads(text))


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
