"""Built-in corpus: small arrangements with recorded invariants.

Each entry is the ArrangementInput parsed from an arrangement-file document
(see fileio), so `corpus:NAME` reads the entry itself and `corpus get NAME`
prints the document it was parsed from.

Every number in an expected record carries a provenance tag: "trivial" for
values checkable by inspection (Boolean arrangements, degree counts) and
"derived-by-oracle" for values produced by the independent oracles
(finite-field point counts, deletion-restriction recursions, brute-force
Moebius) and frozen here.  The test suite re-derives each record through the
main pipelines; the corpus is reference data, never an oracle.

The `h0` field is the hyperplane index used for all deconing / Ziegler
records of that entry (braid-ess4 uses its first difference form, generic34
the coordinate form z, matching the documented examples).
"""

from __future__ import annotations

from .core import form_to_string, var_names
from .fileio import ArrangementInput, parse_arrangement_dict

TRIVIAL = "trivial"
DERIVED = "derived-by-oracle"


class CorpusEntry(ArrangementInput):
    """One corpus arrangement: the ArrangementInput of its document, with
    the entry's name, description, h0 and expected invariants."""

    _fields = ("name", "description", "arrangement", "mult", "labels", "h0", "expected")

    def __init__(self, name, description, document, h0, expected):
        # frozen: set the fields the way Flat does, and keep the document
        inp = parse_arrangement_dict(document, f"corpus:{name}")
        self.__dict__.update(vars(inp), name=name, description=description, h0=h0,
                             expected=expected, _document=document)

    def __hash__(self):
        # every field but the last, expected, which holds dicts
        return hash(self._values()[:-1])

    def as_input(self):
        """The arrangement-file document the entry was parsed from."""
        return self._document


def _tag(value, provenance):
    return {"value": value, "provenance": provenance}


def _entry(name, description, dim, forms, mult=None, h0=0, **expected):
    labels = [form_to_string(f, var_names(dim)) for f in forms]
    document = {"dim": dim, "hyperplanes": forms, "labels": labels}
    if mult:
        document["mult"] = list(mult)
    return CorpusEntry(name, description, document, h0, expected)


CORPUS = {
    e.name: e
    for e in [
        _entry(
            "boolean2",
            "coordinate hyperplanes x, y",
            2,
            [[1, 0], [0, 1]],
            char_poly=_tag([1, -2, 1], TRIVIAL),
            chambers=_tag(4, TRIVIAL),
            b=_tag([1, 1], TRIVIAL),
            sigma=_tag([1, 1], TRIVIAL),
            free=_tag(True, TRIVIAL),
            exponents=_tag([1, 1], TRIVIAL),
            ziegler_exponents=_tag([1], TRIVIAL),
            mca=_tag(True, TRIVIAL),
        ),
        _entry(
            "boolean3",
            "coordinate hyperplanes x, y, z",
            3,
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            char_poly=_tag([-1, 3, -3, 1], TRIVIAL),
            chambers=_tag(8, TRIVIAL),
            b=_tag([1, 2, 1], TRIVIAL),
            sigma=_tag([1, 2, 1], TRIVIAL),
            free=_tag(True, TRIVIAL),
            exponents=_tag([1, 1, 1], TRIVIAL),
            ziegler_exponents=_tag([1, 1], TRIVIAL),
            mca=_tag(True, TRIVIAL),
        ),
        _entry(
            "boolean4",
            "coordinate hyperplanes x, y, z, w",
            4,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            char_poly=_tag([1, -4, 6, -4, 1], TRIVIAL),
            chambers=_tag(16, TRIVIAL),
            b=_tag([1, 3, 3, 1], TRIVIAL),
            sigma=_tag([1, 3, 3, 1], TRIVIAL),
            free=_tag(True, TRIVIAL),
            exponents=_tag([1, 1, 1, 1], TRIVIAL),
            ziegler_exponents=_tag([1, 1, 1], TRIVIAL),
            mca=_tag(True, TRIVIAL),
        ),
        _entry(
            "braid-ess3",
            "essentialized braid arrangement on 4 strands (6 hyperplanes)",
            3,
            [
                [1, -1, 0],
                [1, 0, -1],
                [0, 1, -1],
                [1, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
            ],
            char_poly=_tag([-6, 11, -6, 1], DERIVED),
            chambers=_tag(24, DERIVED),
            b=_tag([1, 5, 6], DERIVED),
            sigma=_tag([1, 5, 6], DERIVED),
            free=_tag(True, DERIVED),
            exponents=_tag([1, 2, 3], DERIVED),
            ziegler_exponents=_tag([2, 3], DERIVED),
            mca=_tag(True, DERIVED),
        ),
        _entry(
            "braid-ess4",
            "essentialized braid arrangement on 5 strands (10 hyperplanes)",
            4,
            [
                [1, -1, 0, 0],
                [1, 0, -1, 0],
                [1, 0, 0, -1],
                [0, 1, -1, 0],
                [0, 1, 0, -1],
                [0, 0, 1, -1],
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ],
            char_poly=_tag([24, -50, 35, -10, 1], DERIVED),
            chambers=_tag(120, DERIVED),
            b=_tag([1, 9, 26, 24], DERIVED),
            sigma=_tag([1, 9, 26, 24], DERIVED),
            free=_tag(True, DERIVED),
            exponents=_tag([1, 2, 3, 4], DERIVED),
            ziegler_exponents=_tag([2, 3, 4], DERIVED),
            mca=_tag(True, DERIVED),
        ),
        _entry(
            "generic34",
            "four generic planes x+y+z, x, y, z",
            3,
            [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            h0=3,
            char_poly=_tag([-3, 6, -4, 1], DERIVED),
            chambers=_tag(14, DERIVED),
            b=_tag([1, 3, 3], DERIVED),
            sigma=_tag([1, 3, 2], DERIVED),
            free=_tag(False, DERIVED),
            exponents=_tag(None, DERIVED),
            ziegler_exponents=_tag([1, 2], DERIVED),
            mca=_tag(False, DERIVED),
        ),
        _entry(
            "generic45",
            "five generic hyperplanes x, y, z, w, x+y+z+w",
            4,
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [1, 1, 1, 1],
            ],
            char_poly=_tag([4, -10, 10, -5, 1], DERIVED),
            chambers=_tag(30, DERIVED),
            b=_tag([1, 4, 6, 4], DERIVED),
            sigma=_tag([1, 4, 6, None], DERIVED),
            free=_tag(False, DERIVED),
            exponents=_tag(None, DERIVED),
            ziegler_exponents=_tag(None, DERIVED),
            mca=_tag(None, DERIVED),
        ),
        _entry(
            "supersolvable3",
            "supersolvable: x, y, z, x-y, x-z, y-z, x+y",
            3,
            [
                [1, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
                [1, -1, 0],
                [1, 0, -1],
                [0, 1, -1],
                [1, 1, 0],
            ],
            char_poly=_tag([-9, 15, -7, 1], DERIVED),
            chambers=_tag(32, DERIVED),
            b=_tag([1, 6, 9], DERIVED),
            sigma=_tag([1, 6, 9], DERIVED),
            free=_tag(True, DERIVED),
            exponents=_tag([1, 3, 3], DERIVED),
            ziegler_exponents=_tag([3, 3], DERIVED),
            mca=_tag(True, DERIVED),
        ),
        _entry(
            "three-lines-221",
            "multiarrangement {x, y, x+y} with multiplicities (2, 2, 1)",
            2,
            [[1, 0], [0, 1], [1, 1]],
            mult=(2, 2, 1),
            char_poly=_tag([2, -3, 1], DERIVED),
            chambers=_tag(6, DERIVED),
            b=_tag([1, 2], DERIVED),
            free=_tag(True, DERIVED),
            exponents=_tag([1, 2], DERIVED),
            multi_exponents=_tag([2, 3], DERIVED),
            multi_char_poly=_tag([6, -5, 1], DERIVED),
        ),
    ]
}

