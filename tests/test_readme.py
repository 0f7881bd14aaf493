"""Every `$ arrangements ...` example in README.md prints what README shows,
and so does the library quick start.

An example is a line `$ arrangements ARGS` inside a fenced block; its
expected output is the lines after it, up to a blank line or the end of
the block.  Each runs through `cli.main` in this process.  The quick start
is the fenced `python` block; it runs statement by statement, and an
expression whose comment (up to a double space) is itself a Python
expression shows its value there, as `print` would; other comments are
prose.
"""

import ast
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


def test_readme_quick_start():
    code = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace, shown = {}, []
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip().split("  ")[0]
        try:
            ast.parse(comment, mode="eval")
        except SyntaxError:
            continue  # prose
        assert str(value) == comment, ast.unparse(stmt)
        shown.append(comment)
    assert shown
