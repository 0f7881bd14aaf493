"""Every `$ arrangements ...` example in README.md prints what README shows.

An example is a line `$ arrangements ARGS` inside a fenced block; its
expected output is the lines after it, up to a blank line or the end of
the block.  Each runs through `cli.main` in this process.
"""

import shlex
from pathlib import Path

import pytest

from arrangements.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ arrangements "


def _examples():
    out, lines = [], README.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith(PROMPT):
            block = []
            for follow in lines[i + 1 :]:
                if not follow or follow.startswith("```"):
                    break
                block.append(follow + "\n")
            out.append((shlex.split(line[len(PROMPT) :]), "".join(block)))
    return out


EXAMPLES = _examples()


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, expected):
    code = main(argv)
    assert capsys.readouterr().out == expected
    assert code == 0
