"""Arrangement file parsing and report (de)serialization.

Arrangement files are JSON documents:

    {"dim": 3,
     "hyperplanes": [[1, 0, 0], [0, 1, -1], ["1/2", 1, 0]],
     "labels": ["x", "y-z", "x/2+y"],
     "mult": [2, 1, 1]}

`labels` and `mult` are optional.  Form entries are integers or exact
rationals written as "p/q" strings; floats are rejected to keep everything
exact.  Malformed input raises InputError with the offending field in the
message.

Reports serialize to flat JSON with exact integers only; `parse_report`
inverts `serialize_report` exactly (dataclass equality holds after a round
trip).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .core import CentralArrangement, Multiarrangement, canonicalize
from .criteria import ComparisonReport, TamenessTag
from .derivations import SigmaStatus
from .errors import ArrangementError, InputError
from .lattice import Flat
from .restriction import CoefficientTable


@dataclass(frozen=True)
class ArrangementInput:
    """A parsed arrangement file: base arrangement plus optional extras."""

    arrangement: CentralArrangement
    mult: tuple
    labels: tuple

    def multiarrangement(self):
        mult = self.mult or (1,) * self.arrangement.n_hyperplanes
        return Multiarrangement(self.arrangement, tuple(mult))


def _rational(value, where):
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{where}: invalid rational string {value!r}") from None
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


def fraction_to_json(value):
    frac = Fraction(value)
    return int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def _fraction_from_json(value):
    return Fraction(value) if isinstance(value, str) else Fraction(int(value))


def poly_coefficients(poly):
    """Coefficient list of an integer polynomial, constant term first."""
    return [poly.coefficient(k) for k in range(poly.degree + 1)]


def _flat_to_record(flat, cell):
    return {
        "codim": flat.codim,
        "equations": [[fraction_to_json(v) for v in row] for row in flat.equations],
        "hyperplanes": sorted(flat.contained),
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
    return json.dumps(report_to_dict(report), indent=2)


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
