"""The public surface: `arrangements.__all__` is the names that `__init__`
imports from the submodules, and every name that README's code or the demos
import from the package is among them."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import arrangements

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
