"""Internal invariant checks survive `python -O`.

Each check runs in a child interpreter started with -O (which strips
`assert` statements) after a monkeypatch forces it to fail; the child must
see TheoremViolation with the check's own message.  The exact check that
certifies a modular kernel must likewise reject a wrong lift under -O, wrong
candidate exponents must leave a freeness search with the full scan's
verdict, and the package holds no `assert` statement at all.
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
    "rank2-exponents-without-a-basis": (
        """
        from arrangements import CORPUS, derivations
        # the true exponents of three-lines-221 are (2, 3)
        derivations._exponents_by_theorem = lambda ess, kernels=None: (1, 4)
        derivations.find_free_basis(CORPUS["three-lines-221"].multiarrangement())
        """,
        "no basis passes the Saito criterion at the rank-2 exponents (1, 4)",
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
        from arrangements import canonicalize, derivations, yoshinaga_3d
        # B3 restricted to x = 0 is four lines with multiplicities
        # (3, 3, 1, 1): no closed form applies, so the probe kernel at
        # degree 3 decides, and here it has one vector too many.
        b3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0],
              [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]]
        derivations._graded_kernel = lambda multi, d: ([(1,)] * (d + 1), [])
        yoshinaga_3d(canonicalize(b3, 3), 0)
        """,
        "graded dimension 4 at degree 3 contradicts the rank-2 Hilbert "
        "function for |m| = 8",
    ),
    "direction-flat-rank-b": (
        """
        from arrangements import (CORPUS, Flat, IntersectionLattice, b_coefficients,
                                  intersection_lattice, restriction)
        arr = CORPUS["braid-ess3"].arrangement
        lat = intersection_lattice(arr)
        # H0 = hyperplane 0 drops out of every codimension-2 hyperplane set,
        # so no flat of L(A'') is left at codimension 1
        flats = tuple(Flat(2, f.mask & ~1, f.rows) if f.codim == 2 else f for f in lat.flats)
        restriction.intersection_lattice = (
            lambda arr: IntersectionLattice(lat.ambient_dim, flats, lat.moebius))
        b_coefficients(arr, 0)
        """,
        "per-flat b decomposition disagrees with chi0",
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
from math import prod
from arrangements import CORPUS, linalg, simple_multiarrangement
from arrangements.derivations import _graded_kernel
assert False, "-O did not strip asserts"
multi = simple_multiarrangement(CORPUS["braid-ess3"].arrangement)
primes, linalg._PRIMES = linalg._PRIMES, ()
expected = [_graded_kernel(multi, d)[0] for d in range(1, 4)]
linalg._PRIMES = primes
real_lift, real_exact = linalg._lift, linalg._exact_nullspace

lifts = []

def wrong_lift(vecs, m):
    # column 0 of every lifted vector, at every prime and every CRT product
    w = real_lift(vecs, m)
    for v in w:
        v[0] = v.get(0, 0) + 1
    lifts.append(m)
    return w

fallbacks = []

def counting_exact(rows, ncols):
    fallbacks.append(ncols)
    return real_exact(rows, ncols)

linalg._lift, linalg._exact_nullspace = wrong_lift, counting_exact
got = [_graded_kernel(multi, d)[0] for d in range(1, 4)]
if got != expected:
    sys.exit("a wrong lift was returned")
if sorted(set(lifts)) != sorted(prod(primes[:k]) for k in range(1, len(primes) + 1)):
    sys.exit("a lift was not tried against every product of primes")
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


WRONG_CANDIDATES = """
import sys
from arrangements import canonicalize, find_free_basis, simple_multiarrangement
assert False, "-O did not strip asserts"
b3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1],
      [0, 1, 1], [0, 1, -1]]
# six planes, no three through a line: seeded with (2, 2, 2), the degree-2
# kernel gives three new generators (x, y and z times the Euler field) and
# only Saito's criterion rejects them
generic6 = [[0, 1, 0], [0, 1, 2], [2, -1, 1], [1, 0, 2], [1, 2, -1], [0, 1, 1]]
for forms, wrong in ((b3, (1, 4, 4)), (b3, (2, 3, 4)), (generic6, (2, 2, 2))):
    multi = simple_multiarrangement(canonicalize(forms, 3))
    got = find_free_basis(multi, None, wrong)
    if got != find_free_basis(multi):
        sys.exit(f"the candidates {wrong} changed the verdict")
    print(got.status, got.exponents, got.witness)
"""


def test_wrong_candidates_keep_the_full_scan_verdict_under_python_O():
    # The targeted scan accepts only a Saito-certified basis, and any other
    # outcome falls back to the full scan: the verdict, exponents, basis
    # and witness stay the full scan's without asserts too.
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_CANDIDATES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "Free (1, 3, 5) None\n" * 2
        + "NotFree None graded dimension 3 at degree 2 matches no exponent partition of |m|\n"
    )


def test_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(SRC, "arrangements").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
