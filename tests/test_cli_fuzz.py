"""CLI fuzz test: random small arrangement files, well formed or not, run
through every subcommand in-process.  Each run ends in exit 0, 1, 2 or 3,
never in an uncaught exception."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangements import CORPUS
from arrangements.cli import main
from arrangements.core import normalize_form

_BAD_VALUES = (0.5, True, None, "1/2", "x", "1/0", "1e3", [1], {})


@st.composite
def _documents(draw):
    """A JSON arrangement document (dim <= 3, <= 5 distinct hyperplanes,
    entries -2..2, multiplicities 0-2 in a third of them), then, in half of
    them, one or two malformations: a float, bool, string or other bad
    entry, a zero or a proportional row, a row, mult or labels list of the
    wrong length, a bad multiplicity, an unknown key, a bad dim, a
    non-object top level.  Returns the file text."""
    dim = draw(st.integers(1, 3))
    form = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    rows = draw(st.lists(form, max_size=5, unique_by=normalize_form))
    doc = {"dim": dim, "hyperplanes": rows}
    if draw(st.sampled_from((False, False, True))):
        doc["mult"] = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        doc["labels"] = [f"H{i}" for i in range(len(rows))]
    kinds = ("entry", "zero-row", "proportional-row", "row-length", "mult", "list-length", "unknown-key", "dim", "top-level")
    count = draw(st.sampled_from((0, 0, 1, 2)))
    malformations = draw(st.lists(st.sampled_from(kinds), min_size=count, max_size=count))
    for kind in malformations:
        if kind == "entry" and any(rows):
            row = draw(st.sampled_from([r for r in rows if r]))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_VALUES))
        elif kind == "zero-row":
            rows.append([0] * dim)
        elif kind == "proportional-row":
            # only an all-integer row doubles: 2 * {} raises, 2 * "1/2" is "1/21/2"
            ints = [r for r in rows if all(type(v) is int for v in r)]
            if ints:
                rows.append([2 * v for v in draw(st.sampled_from(ints))])
        elif kind == "row-length" and rows:
            row = draw(st.sampled_from(rows))
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(1)
        elif kind == "mult":
            doc["mult"] = draw(st.lists(st.sampled_from((-1, 1, 1.5, True, "2")), min_size=len(rows), max_size=len(rows)))
        elif kind == "list-length":
            doc[draw(st.sampled_from(("mult", "labels")))] = ["H"] * (len(rows) + 1)
        elif kind == "unknown-key":
            doc["weights"] = [1] * len(rows)
        elif kind == "dim":
            doc["dim"] = draw(st.sampled_from((0, -1, 1.0, True, "3", None)))
    return json.dumps([doc] if "top-level" in malformations else doc)


_H0 = st.sampled_from((0, 0, 1, 2, -1, 6, None))
_BOUND = st.one_of(st.none(), st.integers(-1, 4))
_FLAGS = {
    "charpoly": ("--reduced", "--verify", "--json"),
    "chambers": ("--verify", "--json"),
    "ziegler": ("--json",),
    "exponents": ("--json",),
    "freeness": ("--json",),
    "compare": ("--assert-tame", "--json"),
}


@st.composite
def _argvs(draw, command):
    """An argument vector for `command`: a file argument, --h0 (missing or
    possibly out of range) and --bound (possibly negative) where the
    subcommand takes them, a --method, and a subset of its flags."""
    if command == "corpus":
        action = draw(st.sampled_from(("list", "get")))
        name = draw(st.one_of(st.none(), st.sampled_from(sorted(CORPUS) + ["no-such-entry"])))
        return ["corpus", action] + ([] if name is None else [name])
    argv = [command, "FILE"]
    if command in ("ziegler", "freeness", "compare"):
        h0 = draw(_H0)
        argv += [] if h0 is None else ["--h0", str(h0)]
    if command in ("exponents", "freeness", "compare"):
        bound = draw(_BOUND)
        argv += [] if bound is None else ["--bound", str(bound)]
    if command == "freeness":
        argv += ["--method", draw(st.sampled_from(("yoshinaga", "abe-yoshinaga", "saito", "all")))]
    flags = _FLAGS[command]
    return argv + draw(st.lists(st.sampled_from(flags), max_size=len(flags), unique=True))


def _run(argv):
    """(exit code, stdout) of one in-process CLI run; argparse's own exits
    count as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize("command", [*_FLAGS, "corpus"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_files_end_in_a_documented_exit_code(command, data):
    # 15 examples per subcommand; a --json run that succeeds or ends
    # Unknown prints one JSON document.
    text = data.draw(_documents(), label="file")
    argv = data.draw(_argvs(command), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        code, out = _run([str(path) if a == "FILE" else a for a in argv])
    assert code in (0, 1, 2, 3)
    if "--json" in argv and code in (0, 2):
        json.loads(out)
