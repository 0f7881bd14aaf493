"""The public surface: `arrangements.__all__` is the names that `__init__`
imports from the submodules, and every name that README's code or the demos
import from the package is among them; the value classes compare, hash and
print by their fields; importing the command line loads no `dataclasses`,
`inspect` or numpy."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

import arrangements
from arrangements import (
    CORPUS,
    AffineArrangement,
    ArrangementInput,
    CentralArrangement,
    CoefficientTable,
    ComparisonReport,
    CorpusEntry,
    Flat,
    FreenessVerdict,
    IntersectionLattice,
    Multiarrangement,
    PrimeWitness,
    SigmaStatus,
    TamenessTag,
    compare_coefficients,
)

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = [
    value for name, value in vars(arrangements).items()
    if isinstance(value, ModuleType) and value.__name__ == f"arrangements.{name}"
]
FRESH_IMPORT = """
import json, types
import arrangements
print(json.dumps({
    "all": arrangements.__all__,
    "bound": [name for name, value in vars(arrangements).items()
              if not (isinstance(value, types.ModuleType)
                      and value.__name__ == f"arrangements.{name}")],
}))
"""


def _names_imported_by_readme_and_demos():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    return {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "arrangements"
        for alias in node.names
    }


def test_names_used_by_readme_and_demos_are_public():
    used = _names_imported_by_readme_and_demos()
    assert "compare_coefficients" in used and "rank2_exponents" in used
    assert not used - set(arrangements.__all__), sorted(used - set(arrangements.__all__))


def test_every_public_name_is_an_object_of_a_submodule():
    names = arrangements.__all__
    assert len(names) == len(set(names))
    exec(f"from arrangements import {', '.join(names)}", {})
    for name in names:
        value = getattr(arrangements, name)
        assert not name.startswith("_") and not isinstance(value, ModuleType), name
        # no helper that __init__ itself imports leaks in
        assert any(getattr(module, name, None) is value for module in SUBMODULES), name
        assert getattr(value, "__module__", "arrangements.").startswith("arrangements."), name


def test_import_binds_only_public_names_submodules_and_dunders():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    bound = {name for name in seen["bound"] if not (name.startswith("__") and name.endswith("__"))}
    assert bound == set(seen["all"])


def test_importing_the_cli_loads_no_dataclasses_inspect_or_numpy():
    # start-up cost: dataclasses pulls in inspect (and ast, dis, tokenize),
    # and numpy waits for the dense engine's first call
    proc = subprocess.run(
        [sys.executable, "-s", "-c", "import sys, arrangements.cli; "
         "print(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


PAIR = CentralArrangement(2, ((0, 1), (1, 0)))
# compare_coefficients(PAIR, 0): b = sigma = (1, 1)
TABLE = CoefficientTable((1, 1), (SigmaStatus(1, "definition"),) * 2,
                         {Flat(0, 0): {"b": 1, "sigma": 1}, Flat(1, 1): {"b": 1, "sigma": 1}})
TAME = TamenessTag("Tame", "rank<=3")
# class, fields, repr, frozen (hashable by its fields, no assignment)
VALUES = [
    (CentralArrangement, dict(dim=2, forms=((0, 1), (1, 0))),
     "CentralArrangement(dim=2, n=2)", True),
    (AffineArrangement, dict(dim=1, hyperplanes=(((1,), 0), ((1,), 1))),
     "AffineArrangement(dim=1, n=2)", True),
    (Multiarrangement, dict(base=PAIR, mult=(2, 1)),
     "Multiarrangement(dim=2, n=2, |m|=3)", True),
    (CorpusEntry, dict(name="pair", description="two lines",
                       document={"dim": 2, "hyperplanes": [[0, 1], [1, 0]], "labels": ["y", "x"]},
                       h0=0, expected=(("chambers", 4),)),
     "CorpusEntry(name='pair', description='two lines', arrangement=CentralArrangement(dim=2, n=2), "
     "mult=None, labels=('y', 'x'), h0=0, expected=(('chambers', 4),))", True),
    (TamenessTag, dict(status="Tame", reason="rank<=3"),
     "TamenessTag(status='Tame', reason='rank<=3')", True),
    (ComparisonReport, dict(n_hyperplanes=2, h0=0, table=TABLE, tame_arrangement=TAME,
                            tame_restriction=TAME, degree_bound=3),
     "ComparisonReport(n_hyperplanes=2, h0=0, table=CoefficientTable(b=(1, 1), "
     "sigma=(SigmaStatus(value=1, method='definition'), SigmaStatus(value=1, "
     "method='definition')), per_flat={Flat(codim=0, mask=0): {'b': 1, 'sigma': 1}, "
     "Flat(codim=1, mask=1): {'b': 1, 'sigma': 1}}), tame_arrangement=TamenessTag(status='Tame', "
     "reason='rank<=3'), tame_restriction=TamenessTag(status='Tame', reason='rank<=3'), "
     "degree_bound=3)", False),
    (FreenessVerdict, dict(status="Free", exponents=(1, 1)),
     "FreenessVerdict(status='Free', exponents=(1, 1), basis=None, witness=None, bound=None, "
     "essential=None)", False),
    (SigmaStatus, dict(value=None, method="local-to-global"),
     "SigmaStatus(value=None, method='local-to-global')", True),
    (ArrangementInput, dict(arrangement=PAIR, mult=(1, 2), labels=("y", "x")),
     "ArrangementInput(arrangement=CentralArrangement(dim=2, n=2), mult=(1, 2), "
     "labels=('y', 'x'))", True),
    (Flat, dict(codim=1, mask=2), "Flat(codim=1, mask=2)", True),
    (IntersectionLattice, dict(ambient_dim=1, flats=(Flat(0, 0), Flat(1, 1)), moebius=(1, -1)),
     "IntersectionLattice(ambient_dim=1, flats=(Flat(codim=0, mask=0), Flat(codim=1, mask=1)), "
     "moebius=(1, -1))", False),
    (PrimeWitness, dict(prime=5, point_count=24, accepted=True),
     "PrimeWitness(prime=5, point_count=24, accepted=True)", True),
    (CoefficientTable, dict(b=(1, 2), sigma=None, per_flat={}),
     "CoefficientTable(b=(1, 2), sigma=None, per_flat={})", False),
]


BOOLEAN2 = CORPUS["boolean2"]
# a real corpus entry: its expected record holds dicts
REAL_ENTRY = (
    CorpusEntry,
    dict(name=BOOLEAN2.name, description=BOOLEAN2.description, document=BOOLEAN2.as_input(),
         h0=BOOLEAN2.h0, expected=BOOLEAN2.expected),
    "CorpusEntry(name='boolean2', description='coordinate hyperplanes x, y', "
    "arrangement=CentralArrangement(dim=2, n=2), mult=None, labels=('x', 'y'), h0=0, "
    f"expected={BOOLEAN2.expected!r})",
    True,
)


@pytest.mark.parametrize("cls, fields, text, frozen", VALUES + [REAL_ENTRY],
                         ids=[v[0].__name__ for v in VALUES] + ["CorpusEntry-boolean2"])
def test_value_classes_compare_hash_and_print_by_their_fields(cls, fields, text, frozen):
    value, same = cls(**fields), cls(**fields)
    assert value == same and not value != same
    assert repr(value) == text
    # another class holding the same field values: a subclass or a namespace
    assert value != type("Twin", (cls,), {})(**fields)
    assert value != SimpleNamespace(**fields) and value.__eq__(SimpleNamespace(**fields)) is NotImplemented
    name = next(iter(fields))
    if frozen:
        assert hash(value) == hash(same)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == same
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        setattr(value, name, None)
        assert getattr(value, name) is None and value != same


def test_value_class_defaults_and_keywords():
    assert TamenessTag("Unknown").reason is None
    assert TamenessTag(status="Tame", reason="user-asserted").reason == "user-asserted"
    report = ComparisonReport(2, 0, TABLE, TAME, TAME)
    assert report.degree_bound is None
    assert report == ComparisonReport(2, 0, TABLE, TAME, TAME, None)
    assert report == compare_coefficients(PAIR, 0)
    # read off the table, not stored
    assert (report.dim, report.inequality, report.chamber_bound, report.mca) == (
        2, (True, True), (2, 2), True)
    verdict = FreenessVerdict("Unknown")
    assert (verdict.exponents, verdict.basis, verdict.witness, verdict.bound,
            verdict.essential) == (None,) * 5
    first, second = CoefficientTable((1,)), CoefficientTable((1,))
    assert first.sigma is None and first.per_flat == {} and first.per_flat is not second.per_flat
    assert Flat(1, 2, rows=[(0, 1, 0), (1, 0, 0)]) == Flat(1, 2)
