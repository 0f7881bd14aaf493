"""Arrangement file parsing and report round-trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from arrangements.cli import main
from arrangements.core import normalize_form
from arrangements.fileio import (
    dumps_indented,
    fraction_to_json,
    parse_arrangement_dict,
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
        '{"dim": 2, "hyperplanes": [["+1/2", 0], [0, "-2/3"]],'
        ' "mult": [2, 1], "labels": ["a", "b"]}'
    )
    assert inp.arrangement.forms == ((1, 0), (0, 1))
    assert inp.mult == (2, 1)
    assert inp.labels == ("a", "b")
    assert inp.multiarrangement().total == 3


def test_integer_entries_reach_canonicalize_as_ints(monkeypatch):
    # JSON integers stay int, so canonicalize takes the integer path; only
    # "p/q" strings become Fractions.  Both spellings give one arrangement.
    from arrangements import fileio

    seen = []
    real = fileio.canonicalize

    def spy(forms, dim):
        seen.append([type(v) for form in forms for v in form])
        return real(forms, dim)

    monkeypatch.setattr(fileio, "canonicalize", spy)
    ints = loads_arrangement('{"dim": 2, "hyperplanes": [[2, -4], [0, 3]]}')
    strings = loads_arrangement('{"dim": 2, "hyperplanes": [["2", "-4/1"], [0, "3/1"]]}')
    assert seen == [[int] * 4, [Fraction, Fraction, int, Fraction]]
    assert ints.arrangement == strings.arrangement
    assert ints.arrangement.forms == ((1, -2), (0, 1))


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


@pytest.mark.parametrize(
    "value", ["1.5", "1e3", "1e10000000", "1_000", " 1/2", "1/2 ", "\u0661"]
)
def test_rational_strings_outside_the_grammar_are_refused(value):
    # Only [+-]digits[/digits] is a rational string.  Fraction alone would
    # read decimals, exponents (1e10000000 takes seconds to expand),
    # underscores, padding and non-ASCII digits.
    doc = json.dumps({"dim": 2, "hyperplanes": [[1, value]]})
    with pytest.raises(InputError) as info:
        loads_arrangement(doc)
    assert "hyperplanes[0][1]" in str(info.value)


def test_an_integer_too_long_to_convert_is_an_input_error(tmp_path, capsys):
    # json.loads raises a plain ValueError past Python's int conversion
    # limit (4 300 digits by default); charpoly exits 1 with one line.
    text = '{"dim": 2, "hyperplanes": [[1, ' + "1" * 5000 + "]]}"
    with pytest.raises(InputError, match="too many digits"):
        loads_arrangement(text)
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["charpoly", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"dim": 1, "hyperplanes": [[null]]}',
         "hyperplanes[0][0]: expected a rational number, got None"),
        ('{"dim": 1, "hyperplanes": [1]}', "hyperplanes[0] must be a list"),
        ('{"dim": 1, "hyperplanes": [[1]], "labels": "H"}',
         "field 'labels' must be a list of strings"),
        ('{"dim": 1, "hyperplanes": [[1]], "labels": [7]}',
         "field 'labels' must be a list of strings"),
        ('{"dim": 1, "hyperplanes": [[1]], "mult": 2}',
         "field 'mult' must be a list of integers"),
    ],
    ids=["entry-null", "row-not-a-list", "labels-not-a-list", "label-not-a-string",
         "mult-not-a-list"],
)
def test_file_validation_exits_1_with_one_line(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["charpoly", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: {message}\n"


_DEEP = '{"dim": 2, "hyperplanes": ' + "[" * 100_000


def test_deep_nesting_is_an_input_error():
    # json.loads raises RecursionError on nesting this deep
    with pytest.raises(InputError, match="nested too deeply"):
        loads_arrangement(_DEEP)


def test_deep_nesting_exits_1_from_charpoly(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    assert main(["charpoly", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: arrays or objects nested too deeply\n"


def test_parse_syntax_error_reports_line():
    with pytest.raises(InputError) as info:
        loads_arrangement('{"dim": 2,\n "hyperplanes": [[1, 0],]}')
    assert "line 2" in str(info.value)


def test_load_arrangement_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_arrangement(tmp_path / "missing.json")


def test_load_arrangement_roundtrip_through_file(tmp_path):
    entry = CORPUS["generic34"]
    path = tmp_path / "generic34.json"
    path.write_text(json.dumps(entry.as_input()))
    inp = load_arrangement(path)
    assert inp.arrangement == entry.arrangement
    assert inp.labels == entry.labels


def test_unknown_keys_of_any_type_are_named():
    # a dict built in Python may mix key types; its unknown keys are listed
    # in the order of their str
    with pytest.raises(InputError, match=r"^input: unknown fields \[1, 'x'\]$"):
        parse_arrangement_dict({1: 0, "x": 1})


def test_parse_arrangement_dict_bool_rejection():
    with pytest.raises(InputError):
        parse_arrangement_dict({"dim": True, "hyperplanes": []})
    with pytest.raises(InputError):
        parse_arrangement_dict({"dim": 2, "hyperplanes": [[True, 0]]})


def test_fraction_and_poly_helpers():
    assert fraction_to_json(Fraction(3)) == 3
    assert fraction_to_json(Fraction(-1, 2)) == "-1/2"
    chi = char_poly(CORPUS["braid-ess3"].arrangement)
    assert list(chi.coeffs) == [-6, 11, -6, 1]


def _assert_roundtrip(report):
    text = serialize_report(report)
    parsed = parse_report(text)
    assert parsed == report
    # the equations come back as ints and Fractions, as they were computed
    assert serialize_report(parsed) == text
    # flats compare by their hyperplane sets, so compare the equations too
    assert {x: x.equations for x in parsed.table.per_flat} == {
        x: x.equations for x in report.table.per_flat
    }


@pytest.mark.parametrize("name", list(CORPUS))
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


# 3 to 6 pairwise non-proportional forms in R^4 with entries in -1..1: rank
# 4, or lower and then not essential
_DIM4 = st.lists(st.tuples(*[st.integers(-1, 1)] * 4).filter(any), min_size=3, max_size=6,
                 unique_by=normalize_form).map(lambda forms: canonicalize(forms, 4))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_ESSENTIAL_RANK3, _DIM4), st.one_of(st.none(), st.integers(0, 3)))
@example(CORPUS["braid-ess4"].arrangement, 1)
@example(CORPUS["boolean4"].arrangement, 0)
def test_report_json_roundtrip_on_random_inputs(arr, bound):
    # a degree bound is recorded in the report, and an Unknown sigma is None
    for h0 in range(arr.n_hyperplanes):
        _assert_roundtrip(compare_coefficients(arr, h0, bound))


def test_report_json_roundtrip_keeps_a_sigma_left_unknown():
    entry = CORPUS["braid-ess4"]
    report = compare_coefficients(entry.arrangement, entry.h0, 1)
    assert report.degree_bound == 1
    assert report.table.sigma[3].value is None
    assert None in [v["sigma"] for v in report.table.per_flat.values()]
    _assert_roundtrip(report)


_GENERIC34 = json.loads(
    serialize_report(compare_coefficients(CORPUS["generic34"].arrangement, CORPUS["generic34"].h0))
)


def _edited_report(edit):
    """The generic34 report as JSON text, after edit(its document)."""
    data = json.loads(json.dumps(_GENERIC34))
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{}", "missing fields ['dim', 'n_hyperplanes', "),
        ("[]", "top level must be a JSON object"),
        ("{not json", "line 1, column 2"),
        (_edited_report(lambda d: d.pop("mca")), "missing fields ['mca']"),
        (_edited_report(lambda d: d.update(extra=1)), "unknown fields ['extra']"),
        (_edited_report(lambda d: d.update(b="x")), "field 'b' must be a list of 3 integers"),
        (_edited_report(lambda d: d.update(sigma=d["sigma"][:1])), "field 'sigma'"),
        (_edited_report(lambda d: d.update(dim=True)), "field 'dim'"),
        (_edited_report(lambda d: d["per_flat"][1].update(hyperplanes=["a"])),
         "per_flat[1]: field 'hyperplanes'"),
        (_edited_report(lambda d: d["per_flat"][1].update(hyperplanes=[-1])),
         "per_flat[1]: field 'hyperplanes'"),
        (_edited_report(lambda d: d["per_flat"][1]["equations"][0].__setitem__(0, 0.5)),
         "per_flat[1]: equations[0][0]: floats are not accepted"),
        (_edited_report(lambda d: d["per_flat"][1].update(hyperplanes=[4])),
         "per_flat[1]: field 'hyperplanes' must be a list of distinct hyperplane indices below 4"),
        (_edited_report(lambda d: d["per_flat"].append(d["per_flat"][1])),
         "per_flat[5] repeats the flat of an earlier record"),
        # inequality, chamber_bound and mca are read off b = (1, 3, 3) and
        # sigma = (1, 3, 2), and must be stated exactly so
        (_edited_report(lambda d: d.update(mca=True, chamber_bound=[7, 7])),
         "field 'chamber_bound' must be [7, 6], as read off b and sigma"),
        (_edited_report(lambda d: d.update(mca=True)), "field 'mca' must be false"),
        (_edited_report(lambda d: d.update(mca=0)), "field 'mca' must be false"),
        (_edited_report(lambda d: d["inequality"].__setitem__(0, 1)),
         "field 'inequality' must be [true, true, true]"),
        (_edited_report(lambda d: d["inequality"].__setitem__(2, False)),
         "field 'inequality' must be [true, true, true]"),
        (_edited_report(lambda d: d.update(chamber_bound=[7.0, 6])),
         "field 'chamber_bound' must be [7, 6]"),
        # the per-flat b and sigma sum to b and sigma at each codim: three
        # flats of b = 1 and sigma = 1 at codim 1, one of (3, 2) at codim 2
        (_edited_report(lambda d: d["per_flat"][1].update(b=6)),
         "field 'per_flat' sums b to 8 at codim 1, not b[1] = 3"),
        (_edited_report(lambda d: d["per_flat"][2].update(sigma=40)),
         "field 'per_flat' sums sigma to 42 at codim 1, not sigma[1] = 3"),
        (_edited_report(lambda d: d["sigma"].__setitem__(2, None)),
         "field 'per_flat' sums sigma to 2 at codim 2, not sigma[2] = null"),
    ],
    ids=["empty-object", "array", "not-json", "missing-key", "unknown-key", "b-a-string",
         "sigma-short", "dim-a-bool", "flat-index-a-string", "flat-index-negative",
         "flat-equation-a-float", "flat-index-past-n", "flat-repeated", "forged-mca",
         "mca-flipped", "mca-zero-for-false", "inequality-one-for-true", "inequality-flipped",
         "chamber-bound-float", "flat-b-off-its-sum", "flat-sigma-off-its-sum",
         "sigma-null-over-known-flats"],
)
def test_parse_report_refusals_name_the_field(text, fragment):
    # a report is read with the checks of an arrangement file: one typed
    # error naming the field, never a KeyError, TypeError or a silent cut
    with pytest.raises(InputError) as info:
        parse_report(text)
    assert str(info.value).startswith("report: ") and fragment in str(info.value)


def test_report_json_is_exact_integers_only():
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


# strs with quotes, backslashes, control and non-ASCII characters
_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZ\xe9\u2028\U0001f600') | st.characters())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES, st.sampled_from([1.5, float("nan"), {1, 2}, frozenset(), {3: "key"}, {None: 0}]))
def test_dumps_indented_is_json_dumps_with_indent_2(value, bad):
    # the one JSON writer prints what the json module prints with indent=2,
    # and refuses what a report never holds, a float, a set and a key that
    # is no str, wherever it sits
    assert dumps_indented(value) == json.dumps(value, indent=2)
    for wrapped in (bad, [value, bad], {"k": [bad]}, (value, {"k": bad})):
        with pytest.raises(TypeError):
            dumps_indented(wrapped)
