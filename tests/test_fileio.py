"""Arrangement file parsing and report round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangements import (
    CORPUS,
    InputError,
    canonicalize,
    compare_coefficients,
    load_arrangement,
    loads_arrangement,
    parse_report,
    serialize_report,
)
from arrangements.core import normalize_form
from arrangements.fileio import (
    fraction_to_json,
    parse_arrangement_dict,
    poly_coefficients,
    verdict_to_dict,
)
from arrangements import find_free_basis, char_poly


def test_parse_minimal_document():
    inp = loads_arrangement('{"dim": 2, "hyperplanes": [[1, 0], [0, 1]]}')
    assert inp.arrangement.forms == ((1, 0), (0, 1))
    assert inp.mult is None
    assert inp.labels is None
    assert inp.multiarrangement().mult == (1, 1)


def test_parse_rational_strings_and_mult():
    inp = loads_arrangement(
        '{"dim": 2, "hyperplanes": [["1/2", 0], [0, "-2/3"]],'
        ' "mult": [2, 1], "labels": ["a", "b"]}'
    )
    assert inp.arrangement.forms == ((1, 0), (0, 1))
    assert inp.mult == (2, 1)
    assert inp.labels == ("a", "b")
    assert inp.multiarrangement().total == 3


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("[]", "top level"),
        ('{"hyperplanes": [[1, 0]]}', "'dim'"),
        ('{"dim": 0, "hyperplanes": []}', "'dim'"),
        ('{"dim": 2, "hyperplanes": [[1, 0]], "extra": 1}', "unknown fields"),
        ('{"dim": 2, "hyperplanes": {"a": 1}}', "list"),
        ('{"dim": 2, "hyperplanes": [[1, 0, 0]]}', "hyperplanes[0]"),
        ('{"dim": 2, "hyperplanes": [[1, "x"]]}', "hyperplanes[0][1]"),
        ('{"dim": 2, "hyperplanes": [[1, 0.5]]}', "float"),
        ('{"dim": 2, "hyperplanes": [[1, "1/0"]]}', "hyperplanes[0][1]"),
        ('{"dim": 2, "hyperplanes": [[1, 0]], "labels": ["a", "b"]}', "labels"),
        ('{"dim": 2, "hyperplanes": [[1, 0]], "mult": [1, 2]}', "multiplicities"),
        ('{"dim": 2, "hyperplanes": [[1, 0]], "mult": [-1]}', "mult[0]"),
        ('{"dim": 2, "hyperplanes": [[1, 0], [2, 0]]}', "hyperplanes"),
        ('{"dim": 2, "hyperplanes": [[0, 0]]}', "hyperplanes"),
    ],
)
def test_parse_rejections_name_the_field(doc, fragment):
    with pytest.raises(InputError) as info:
        loads_arrangement(doc)
    assert fragment in str(info.value)


def test_parse_syntax_error_reports_line():
    with pytest.raises(InputError) as info:
        loads_arrangement('{"dim": 2,\n "hyperplanes": [[1, 0],]}')
    assert "line 2" in str(info.value)


def test_load_arrangement_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_arrangement(tmp_path / "missing.json")


def test_load_arrangement_roundtrip_through_file(tmp_path):
    import json

    entry = CORPUS["generic34"]
    path = tmp_path / "generic34.json"
    path.write_text(json.dumps(entry.as_input()))
    inp = load_arrangement(path)
    assert inp.arrangement == entry.arrangement
    assert inp.labels == entry.labels()


def test_parse_arrangement_dict_bool_rejection():
    with pytest.raises(InputError):
        parse_arrangement_dict({"dim": True, "hyperplanes": []})
    with pytest.raises(InputError):
        parse_arrangement_dict({"dim": 2, "hyperplanes": [[True, 0]]})


def test_fraction_and_poly_helpers():
    assert fraction_to_json(Fraction(3)) == 3
    assert fraction_to_json(Fraction(-1, 2)) == "-1/2"
    chi = char_poly(CORPUS["braid-ess3"].arrangement)
    assert poly_coefficients(chi) == [-6, 11, -6, 1]


def _assert_roundtrip(report):
    parsed = parse_report(serialize_report(report))
    assert parsed == report
    # flats compare by their hyperplane sets, so compare the equations too
    assert {x: x.equations for x in parsed.table.per_flat} == {
        x: x.equations for x in report.table.per_flat
    }


@pytest.mark.parametrize("name", ["generic34", "braid-ess3", "generic45"])
def test_report_json_roundtrip(name):
    entry = CORPUS[name]
    _assert_roundtrip(compare_coefficients(entry.arrangement, entry.h0))


# 3 to 6 pairwise non-proportional forms in R^3 with entries in -2..2,
# spanning the dual space
_ESSENTIAL_RANK3 = (
    st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=3, max_size=6,
             unique_by=normalize_form)
    .map(lambda forms: canonicalize(forms, 3))
    .filter(lambda arr: arr.is_essential())
)


@settings(max_examples=25, deadline=None)
@given(_ESSENTIAL_RANK3)
def test_report_json_roundtrip_on_random_inputs(arr):
    for h0 in range(arr.n_hyperplanes):
        _assert_roundtrip(compare_coefficients(arr, h0))


def test_report_json_is_exact_integers_only():
    import json

    entry = CORPUS["generic34"]
    report = compare_coefficients(entry.arrangement, entry.h0)
    data = json.loads(serialize_report(report))

    def no_floats(node):
        if isinstance(node, float):
            raise AssertionError(f"float {node} in report JSON")
        if isinstance(node, dict):
            for v in node.values():
                no_floats(v)
        if isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(data)
    assert data["b"] == [1, 3, 3]
    assert data["sigma"] == [1, 3, 2]


def test_verdict_to_dict():
    multi = CORPUS["three-lines-221"].multiarrangement()
    verdict = find_free_basis(multi)
    data = verdict_to_dict(verdict)
    assert data["status"] == "Free"
    assert sorted(data["exponents"]) == [2, 3]
    assert len(data["basis"]) == 2
