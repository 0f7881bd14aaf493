"""Internal invariant checks survive `python -O`.

Each check runs in a child interpreter started with -O (which strips
`assert` statements) after a monkeypatch forces it to fail; the child must
see TheoremViolation with the check's own message.  The exact check that
certifies a modular kernel must likewise reject a wrong lift under -O, and
the package holds no `assert` statement at all.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import arrangements

SRC = str(Path(arrangements.__file__).resolve().parents[1])

CHECKS = {
    "b-decomposition": (
        """
        from arrangements import CORPUS, IntPoly, restriction
        real = restriction.reduced_char_poly
        restriction.reduced_char_poly = lambda arr, lattice: real(arr, lattice) + IntPoly((1,))
        restriction.b_coefficients(CORPUS["braid-ess3"].arrangement, 0)
        """,
        "per-flat b decomposition disagrees with chi0",
    ),
    "sigma-level-sums": (
        """
        from arrangements import CORPUS, compare_coefficients, derivations
        real = derivations.elementary_symmetric
        derivations.elementary_symmetric = lambda values, k: real(values, k) + 1
        compare_coefficients(CORPUS["braid-ess3"].arrangement, 0)
        """,
        "local sigma_2 contributions disagree with the global coefficient",
    ),
    "rank2-freeness": (
        """
        from arrangements import CORPUS, derivations
        derivations.find_free_basis = lambda multi: derivations.FreenessVerdict(
            derivations.NOT_FREE, witness="patched"
        )
        derivations.rank2_exponents(CORPUS["three-lines-221"].multiarrangement())
        """,
        "a rank-2 multiarrangement must be free",
    ),
    "sigma-exceeds-b": (
        """
        from arrangements import CORPUS, compare_coefficients, criteria
        from arrangements.derivations import SigmaStatus
        real = criteria._sigma_column
        criteria._sigma_column = lambda *args: real(*args)[:2] + (SigmaStatus(7, "patched"),)
        criteria._level_sums = lambda products, rank: [None] * (rank + 1)
        compare_coefficients(CORPUS["braid-ess3"].arrangement, 0)
        """,
        "sigma_2 = 7 exceeds b_2 = 6 although both tameness tags are Tame",
    ),
    "yoshinaga-rank2-restriction": (
        """
        from arrangements import CORPUS, derivations, yoshinaga_3d
        derivations.find_free_basis = lambda multi: derivations.FreenessVerdict(
            derivations.NOT_FREE, witness="patched"
        )
        yoshinaga_3d(CORPUS["braid-ess3"].arrangement, 0)
        """,
        "a rank-2 multiarrangement must be free",
    ),
    "direction-flat-rank": (
        """
        import dataclasses
        from arrangements import CORPUS, Flat, b_coefficients, intersection_lattice, restriction
        arr = CORPUS["braid-ess3"].arrangement
        lat = intersection_lattice(arr)
        # H0 = hyperplane 0 drops out of every codimension-2 hyperplane set
        flats = tuple(Flat(2, f.mask & ~1, f.rows) if f.codim == 2 else f for f in lat.flats)
        restriction.intersection_lattice = lambda arr: dataclasses.replace(lat, flats=flats)
        b_coefficients(arr, 0)
        """,
        "no flat one level up meets H0; this is a bug",
    ),
}

PRELUDE = """
import sys
from arrangements.errors import TheoremViolation
assert False, "-O did not strip asserts"
try:
{body}
except TheoremViolation as exc:
    print(exc)
else:
    sys.exit("no TheoremViolation")
"""


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_invariant_raises_under_python_O(name):
    body, message = CHECKS[name]
    code = PRELUDE.format(body=textwrap.indent(textwrap.dedent(body), "    "))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


WRONG_LIFT = """
import sys
from arrangements import CORPUS, linalg, simple_multiarrangement
from arrangements.derivations import _graded_kernel
assert False, "-O did not strip asserts"
multi = simple_multiarrangement(CORPUS["braid-ess3"].arrangement)
primes, linalg._PRIMES = linalg._PRIMES, ()
expected = [_graded_kernel(multi, d)[0] for d in range(1, 4)]
linalg._PRIMES = primes
real_lift, real_exact = linalg._lift, linalg._exact_nullspace

def wrong_lift(v, p):
    w = real_lift(v, p)
    w[0] += 1
    return w

fallbacks = []

def counting_exact(rows, ncols):
    fallbacks.append(ncols)
    return real_exact(rows, ncols)

linalg._lift, linalg._exact_nullspace = wrong_lift, counting_exact
got = [_graded_kernel(multi, d)[0] for d in range(1, 4)]
if got != expected:
    sys.exit("a wrong lift was returned")
print(len(fallbacks), "exact fallbacks")
"""


def test_kernel_certificate_rejects_a_wrong_lift_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_LIFT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3 exact fallbacks\n"


def test_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(SRC, "arrangements").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
