"""Seeded inputs for the four workloads, with the answer each case must give.

`build(workload, seed, workdir)` writes one JSON arrangement file per input
into `workdir` and returns the case list.  A case is a dict:

    id        unique name, "<subcommand>/<input>"
    argv      arguments for `arrangements.cli.main`
    exits     accepted exit codes
    expect    what the checker compares the output against
    frontier  True for the workload's one hardest case

Expected answers come from closed forms for the reflection arrangements,
from the benchmark's frozen copy of the corpus (`corpus.json`), and from
Whitney's subset formula for the random arrangements, which shares no code
with the package.  The seed permutes hyperplanes and coordinates of the
reflection arrangements (their answers do not change) and draws the random
rank-3 arrangements; the random rank-4 ones are the same for every seed.
A --verify case lists in expect["verified_by"] the oracles that must
confirm its answer.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

CORPUS = json.loads((Path(__file__).with_name("corpus.json")).read_text())


# ---------------------------------------------------------------------------
# Polynomials as coefficient lists, constant term first.


def poly_from_roots(roots):
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return coeffs


def divide_by_t_minus_1(coeffs):
    """Quotient of an integer polynomial by (t - 1); the remainder must be 0."""
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + carry
        quotient[k - 1] = carry
    if coeffs[0] + carry != 0:
        raise ValueError("polynomial is not divisible by t - 1")
    return quotient


def b_vector(chi):
    """b_i = |coefficient of t**(l-1-i)| in chi(t) / (t - 1)."""
    chi0 = divide_by_t_minus_1(chi)
    return [abs(c) for c in reversed(chi0)]


def _rank(rows, ncols):
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def whitney_char_poly(forms, dim):
    """chi(t) = sum over subsets S of (-1)**|S| t**(dim - rank S)."""
    coeffs = [0] * (dim + 1)
    for size in range(len(forms) + 1):
        for subset in combinations(forms, size):
            coeffs[dim - _rank(subset, dim)] += (-1) ** size
    return coeffs


# ---------------------------------------------------------------------------
# Reflection arrangements.


def _unit(n, *signed):
    v = [0] * n
    for i, s in signed:
        v[i] = s
    return v


def braid_forms(n):
    return [_unit(n, (i, 1), (j, -1)) for i, j in combinations(range(n), 2)]


def d_forms(n):
    return braid_forms(n) + [
        _unit(n, (i, 1), (j, 1)) for i, j in combinations(range(n), 2)
    ]


def b_forms(n):
    return d_forms(n) + [_unit(n, (i, 1)) for i in range(n)]


def ess_a_forms(n):
    """Essentialized braid arrangement A_n: x_i - x_j and x_i in R^n."""
    return braid_forms(n) + [_unit(n, (i, 1)) for i in range(n)]


def family(kind, n):
    """(forms, chi, chambers, exponents) of a reflection arrangement."""
    if kind == "braid":
        return (
            braid_forms(n),
            poly_from_roots(range(n)),
            math.factorial(n),
            list(range(n)),
        )
    if kind == "B":
        exps = [2 * i - 1 for i in range(1, n + 1)]
        return b_forms(n), poly_from_roots(exps), 2**n * math.factorial(n), exps
    if kind == "D":
        exps = sorted([2 * i - 1 for i in range(1, n)] + [n - 1])
        return d_forms(n), poly_from_roots(exps), 2 ** (n - 1) * math.factorial(n), exps
    if kind == "A":
        exps = list(range(1, n + 1))
        return ess_a_forms(n), poly_from_roots(exps), math.factorial(n + 1), exps
    raise ValueError(kind)


def shuffled(rng, forms, dim):
    """Same arrangement with hyperplanes and coordinates permuted by the seed."""
    cols = list(range(dim))
    rng.shuffle(cols)
    out = [[f[c] for c in cols] for f in forms]
    rng.shuffle(out)
    return out


def wakamiko_exponents(mult):
    """Exponents of the rank-2 multiarrangement {x, y, x+y} with multiplicities."""
    k1, k2, k3 = sorted(mult)
    total = k1 + k2 + k3
    if k3 <= k1 + k2 - 1:
        return [total // 2, total - total // 2]
    return [k1 + k2, k3]


# ---------------------------------------------------------------------------
# Random arrangements.


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    v = [x // g for x in v]
    lead = next(x for x in v if x)
    return tuple(-x for x in v) if lead < 0 else tuple(v)


def random_arrangement(rng, dim, n, lo, hi):
    """n pairwise non-proportional forms of full rank with entries in lo..hi."""
    while True:
        forms, seen = [], set()
        while len(forms) < n:
            v = [rng.randint(lo, hi) for _ in range(dim)]
            if not any(v):
                continue
            key = _primitive(v)
            if key in seen:
                continue
            seen.add(key)
            forms.append(v)
        if _rank(forms, dim) == dim:
            return forms


# ---------------------------------------------------------------------------
# Case lists.


class _CaseList:
    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.cases = []

    def input(self, name, dim, forms, mult=None):
        data = {"dim": dim, "hyperplanes": forms}
        if mult is not None:
            data["mult"] = mult
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def add(self, cmd, name, path, expect, extra=(), exits=(0,), frontier=False):
        self.cases.append(
            {
                "id": f"{cmd}/{name}",
                "argv": [cmd, path, *extra, "--json"],
                "exits": list(exits),
                "expect": expect,
                "frontier": frontier,
            }
        )


def _lattice(b, rng):
    frontier = ("braid", 7)
    batch = [("braid", 5), ("braid", 6), ("B", 4), ("D", 4)]
    chambers = {("braid", 5), ("B", 4), ("D", 4)}
    for kind, n in [frontier] + batch:
        forms, chi, count, _ = family(kind, n)
        name = f"{kind}{n}"
        path = b.input(name, n, shuffled(rng, forms, n))
        b.add("charpoly", name, path, {"chi": chi}, frontier=(kind, n) == frontier)
        if (kind, n) in chambers:
            b.add("chambers", name, path, {"chambers": count})


def _free_basis(b, rng):
    for kind, n in [("A", 5), ("B", 3), ("D", 4), ("A", 4)]:
        forms, _, _, exps = family(kind, n)
        name = f"{kind}{n}"
        path = b.input(name, n, shuffled(rng, forms, n))
        b.add("exponents", name, path, {"status": "Free", "exponents": exps},
              frontier=(kind, n) == ("A", 5))
    lines = [[1, 0], [0, 1], [1, 1]]
    for k in range(1, 12):
        mult = [k, k, k]
        mult[rng.randrange(3)] += 1
        path = b.input(f"three-lines-k{k}", 2, lines, mult)
        b.add("exponents", f"three-lines-k{k}", path,
              {"status": "Free", "exponents": wakamiko_exponents(mult)})


def _compare(b, rng):
    simple = [e for e in CORPUS if "mult" not in e]
    for entry in simple:
        ex = entry["expected"]
        path = b.input(entry["name"], entry["dim"], entry["hyperplanes"])
        h0 = str(entry["h0"])
        exits = (0,) if all(s is not None for s in ex["sigma"]) else (2,)
        b.add("compare", entry["name"], path,
              {"b": ex["b"], "sigma": ex["sigma"], "mca": ex["mca"]},
              extra=("--h0", h0), exits=exits)
        b.add("freeness", entry["name"], path,
              {"free": ex["free"], "exponents": ex["exponents"]},
              extra=("--h0", h0, "--method", "all"))
    for kind, n in [("D", 4), ("B", 3)]:
        forms, chi, _, exps = family(kind, n)
        name = f"{kind}{n}"
        forms = shuffled(rng, forms, n)
        path = b.input(name, n, forms)
        h0 = str(rng.randrange(len(forms)))
        # free arrangements have b = sigma, so the chamber bound is attained
        bvec = b_vector(chi)
        b.add("compare", name, path, {"b": bvec, "sigma": bvec, "mca": True},
              extra=("--h0", h0), frontier=(kind, n) == ("D", 4))
        b.add("freeness", name, path, {"free": True, "exponents": exps},
              extra=("--h0", h0, "--method", "all"))
    # Rank-3 restrictions are rank 2, hence free: every sigma resolves.  A
    # rank-4 input whose restriction is not free legitimately ends Unknown.
    # A fixed number of inputs per size keeps the cost steady across seeds.
    # The rank-4 inputs are the same for every seed, so the share of them
    # that ends Unknown (run.py's decided_ratio) does not move with the seed.
    rank4 = random.Random("compare:rank-4")
    sizes = [(rng, 3, n, -2, 2) for n in (5, 6, 7) for _ in range(20)]
    sizes += [(rank4, 4, n, -1, 1) for n in (6, 7) for _ in range(8)]
    for i, (draw, rank, n, lo, hi) in enumerate(sizes):
        forms = random_arrangement(draw, rank, n, lo, hi)
        name = f"random{rank}-{i:03d}"
        path = b.input(name, rank, forms)
        bvec = b_vector(whitney_char_poly(forms, rank))
        b.add("compare", name, path, {"b": bvec}, extra=("--h0", "0"),
              exits=(0,) if rank == 3 else (0, 2))


RECURSION = "deletion-restriction recursion"
FINITE_FIELD = "finite-field point counts"


def _verify(b, rng):
    # Each case names the oracles that must confirm its answer.  On braid6
    # the finite-field oracle refuses (BadPrime) after its minor bound, so
    # only the recursion is required there; everywhere else both are.
    both = [RECURSION, FINITE_FIELD]
    frontier = ("braid", 6)
    for kind, n in [frontier, ("braid", 5), ("B", 4), ("D", 4)]:
        forms, chi, count, _ = family(kind, n)
        name = f"{kind}{n}"
        path = b.input(name, n, shuffled(rng, forms, n))
        is_frontier = (kind, n) == frontier
        b.add("charpoly", name, path,
              {"chi": chi, "verified_by": [RECURSION] if is_frontier else both},
              extra=("--verify",), frontier=is_frontier)
        if (kind, n) == ("D", 4):
            b.add("chambers", name, path, {"chambers": count, "verified_by": both},
                  extra=("--verify",))
    for entry in CORPUS:
        ex = entry["expected"]
        path = b.input(entry["name"], entry["dim"], entry["hyperplanes"])
        b.add("charpoly", entry["name"], path,
              {"chi": ex["char_poly"], "verified_by": both}, extra=("--verify",))
        b.add("chambers", entry["name"], path,
              {"chambers": ex["chambers"], "verified_by": both}, extra=("--verify",))


WORKLOADS = {
    "lattice": _lattice,
    "free-basis": _free_basis,
    "compare": _compare,
    "verify": _verify,
}


def build(workload, seed, workdir):
    """Write the inputs of one workload and return its cases, frontier first."""
    b = _CaseList(workdir)
    WORKLOADS[workload](b, random.Random(f"{workload}:{seed}"))
    cases = sorted(b.cases, key=lambda c: not c["frontier"])
    if sum(c["frontier"] for c in cases) != 1:
        raise AssertionError(f"{workload} must have exactly one frontier case")
    return cases
