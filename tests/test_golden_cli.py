"""Byte-for-byte replay of recorded CLI runs.

Every corpus entry runs through eight subcommand variants, in text and in
--json mode, and three rank-4 entries also run `compare` under --bound 1,
2 and 3 and with --assert-tame (the tameness tags then come from the
restriction's verdict or, when it is Unknown, from the fallback search);
stdout, stderr and the exit code must match golden_cli.json exactly, and
the `compare` runs must match it again with the divisional-freeness proof
switched off, through the localization sweep.  golden_bases.json pins
`exponents` in both modes on the inputs in bases/, whose graded kernels
are larger than any corpus entry's (over a hundred columns, non-unit
pivots, degrees where rational reconstruction fails), so the canonical
bases they print are fixed too.  golden_demos.json
pins the stdout and exit code of every script in demos/, each run in its
own interpreter.  Regenerate all three files (only when an output change
is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import arrangements
from arrangements import CORPUS, criteria
from arrangements.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_cli.json"
GOLDEN_BASES = HERE / "golden_bases.json"
GOLDEN_DEMOS = HERE / "golden_demos.json"
DEMOS = HERE.parent / "demos"
SRC = str(Path(arrangements.__file__).resolve().parents[1])


def variants(h0):
    h = ("--h0", str(h0))
    return (
        ("charpoly",),
        ("charpoly", "--reduced"),
        ("charpoly", "--verify"),
        ("chambers", "--verify"),
        ("exponents",),
        ("freeness",) + h,
        ("compare",) + h,
        ("ziegler",) + h,
    )


COMPARE_EXTRAS = ("braid-ess4", "generic45", "boolean4")


def cases():
    for name in CORPUS:
        for variant in variants(CORPUS[name].h0):
            for mode in ((), ("--json",)):
                cmd, *rest = variant
                yield [cmd, f"corpus:{name}", *rest, *mode]
    for name in COMPARE_EXTRAS:
        h = ("--h0", str(CORPUS[name].h0))
        for extra in (("--bound", "1"), ("--bound", "2"), ("--bound", "3"), ("--assert-tame",)):
            for mode in ((), ("--json",)):
                yield ["compare", f"corpus:{name}", *h, *extra, *mode]


def basis_cases():
    """`exponents` on each input under bases/, paths relative to tests/."""
    for path in sorted((HERE / "bases").glob("*.json")):
        for mode in ((), ("--json",)):
            yield ["exponents", f"bases/{path.name}", *mode]


def run_demo(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
    )
    return {"demo": name, "stdout": proc.stdout, "exit": proc.returncode}


def demo_names():
    return [path.name for path in sorted(DEMOS.glob("*.py"))]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_golden_cli_outputs():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == list(cases())
    for expected in golden:
        assert run_cli(expected["argv"]) == expected, " ".join(expected["argv"])


def test_golden_compare_outputs_through_the_sweep(monkeypatch):
    # compare reads a divisionally free input off L(A); its localization
    # sweep, which that proof replaces, must print the same bytes
    monkeypatch.setattr(criteria, "_divisionally_free", lambda lattice, chi0: False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    replayed = [g for g in golden if g["argv"][0] == "compare"]
    assert replayed
    for expected in replayed:
        assert run_cli(expected["argv"]) == expected, " ".join(expected["argv"])


def test_golden_bases(monkeypatch):
    monkeypatch.chdir(HERE)
    golden = json.loads(GOLDEN_BASES.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == list(basis_cases())
    for expected in golden:
        assert run_cli(expected["argv"]) == expected, " ".join(expected["argv"])


def test_golden_demos():
    golden = json.loads(GOLDEN_DEMOS.read_text(encoding="utf-8"))
    assert [g["demo"] for g in golden] == demo_names()
    for expected in golden:
        assert expected["exit"] == 0, expected["demo"]
        assert run_demo(expected["demo"]) == expected, expected["demo"]


# Replays the golden runs in a fresh interpreter (cwd tests/): numpy stays
# out of sys.modules until a graded kernel fills in enough to go to the
# dense RREF engine, as those of bases/B3-transformed.json do.
NUMPY_GUARD = """
import json, sys
import arrangements, arrangements.cli
assert "numpy" not in sys.modules, "import arrangements.cli"
from test_golden_cli import CORPUS, GOLDEN, GOLDEN_BASES, run_cli
dense = "bases/B3-transformed.json"
bases = json.loads(GOLDEN_BASES.read_text(encoding="utf-8"))
for expected in json.loads(GOLDEN.read_text(encoding="utf-8")):
    assert run_cli(expected["argv"]) == expected, expected["argv"]
for name in CORPUS:
    run_cli(["compare", f"corpus:{name}", "--h0", "0"])
for expected in bases:
    if dense not in expected["argv"]:
        assert run_cli(expected["argv"]) == expected, expected["argv"]
assert "numpy" not in sys.modules, "the golden runs"
for expected in bases:
    if dense in expected["argv"]:
        assert run_cli(expected["argv"]) == expected, expected["argv"]
assert "numpy" in sys.modules, dense
"""


def test_numpy_is_imported_only_by_the_dense_engine():
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_GUARD],
        capture_output=True,
        text=True,
        cwd=HERE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, str(HERE)))},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    records = [run_cli(argv) for argv in cases()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {GOLDEN}")
    os.chdir(HERE)
    records = [run_cli(argv) for argv in basis_cases()]
    GOLDEN_BASES.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {GOLDEN_BASES}")
    records = [run_demo(name) for name in demo_names()]
    GOLDEN_DEMOS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {GOLDEN_DEMOS}")
