"""Independent definition-level oracles.

These deliberately avoid the machinery of the main pipeline:

* finite_field_char_poly counts points of F_q**l on no hyperplane and
  Lagrange-interpolates, with an exact bad-prime guard.  The guard,
  minor_bound, is the largest |minor| of the coefficient matrix, found by a
  depth-first Laplace expansion on integers that never descends below a
  dependent row set; point_count visits one point per line through 0 (the
  forms are linear, so a line lies on a hyperplane or misses it whole);
* char_poly_recursion / region_count_recursion run the deletion-restriction
  recursions chi(A) = chi(A-H) - chi(A|H) and r(A) = r(A-H) + r(A|H)
  directly on affine data, never consulting Moebius values;
* moebius_bruteforce enumerates all hyperplane subsets and evaluates the
  defining recursion literally.

They exist so the trusted path can be cross-examined.  Nothing on their
way to chi touches the lattice or the elimination in `linalg`, so a fault
there cannot reach both sides of a comparison.  Keep them obvious.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod

import numpy as np

from .core import AffineArrangement, CentralArrangement, normalize_affine
from .errors import BadPrime, FlatNotInLattice, InconsistentCounts
from .lattice import hyperplane_rows
from .linalg import echelon
from .polynomials import IntPoly

MAX_POINTS = 10 ** 7
_CHUNK = 1 << 16


def minor_bound(arr):
    """Largest |det| over all square submatrices of the coefficient matrix.

    Any prime beyond this bound preserves the rank of every subset of forms
    modulo q, hence the whole intersection pattern; this is the bad-prime
    guard.

    Row sets are grown depth first by prepending smaller row indices, and a
    node keeps only its k x k minors, one per k-column subset.  Laplace
    expansion along the new first row r gives each minor of {r} + S as a
    signed sum of r's entries times the (k-1)-minors of S, so a minor costs
    k integer products.  A row set whose minors all vanish is dependent, and
    so is every row set containing it: the search does not descend there.
    """
    rows, dim = arr.forms, arr.dim
    top = min(len(rows), dim)
    # expansions[k][i]: (column, sign, index of the (k-1)-column subset left
    # when that column is removed) for the i-th k-column subset.
    expansions = [None]
    for k in range(1, top + 1):
        index = {c: i for i, c in enumerate(combinations(range(dim), k - 1))}
        expansions.append([
            [(c, -1 if j % 2 else 1, index[cols[:j] + cols[j + 1:]])
             for j, c in enumerate(cols)]
            for cols in combinations(range(dim), k)
        ])
    best = 0

    def grow(low, k, minors):
        nonlocal best
        if k == top:
            return
        for r in range(low):
            row = rows[r]
            grown = [
                sum(sign * row[c] * minors[i] for c, sign, i in terms if row[c])
                for terms in expansions[k + 1]
            ]
            if any(grown):
                best = max(best, *map(abs, grown))
                grow(r, k + 1, grown)

    grow(len(rows), 0, [1])
    return best


def _hadamard_bound(arr):
    """isqrt of the product of the dim largest squared row norms.

    Hadamard's inequality bounds every square submatrix's |det| by the
    product of its row norms; the rows are nonzero integer vectors, so each
    norm is at least 1 and this bounds minor_bound(arr) from above.
    """
    norms = sorted((sum(v * v for v in f) for f in arr.forms), reverse=True)
    return isqrt(prod(norms[: arr.dim]))


def _is_prime(q):
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def _primes_above(bound, dim, count):
    """The smallest count primes exceeding bound; BadPrime once one of them
    leaves q**dim past the point-enumeration budget."""
    out = []
    q = bound + 1
    while len(out) < count:
        if _is_prime(q):
            if q ** dim > MAX_POINTS:
                raise BadPrime(
                    f"{q}**{dim} exceeds the point-enumeration budget "
                    f"{MAX_POINTS}; the oracle is desk-scale by design"
                )
            out.append(q)
        q += 1
    return out


def good_primes(arr):
    """The smallest dim+1 primes exceeding the minor bound."""
    return _primes_above(minor_bound(arr), arr.dim, arr.dim + 1)


def point_count(arr, q):
    """Number of points of F_q**dim lying on no hyperplane.

    The forms are linear, so x and c*x (c != 0) lie on the same hyperplanes
    and 0 lies on all of them: count one point per line through 0, the one
    whose first nonzero coordinate is 1, and multiply by q - 1.
    """
    ell = arr.dim
    if ell == 0 or not arr.forms:
        return q ** ell
    w = np.array(arr.forms, dtype=np.int64) % q
    lines = 0
    for lead in range(ell):
        # x[lead] = 1, zeros before it, every value of the coordinates after
        tail = ell - lead - 1
        total = q ** tail
        for start in range(0, total, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            coords = np.empty((tail, idx.size), dtype=np.int64)
            for k in range(tail):
                coords[k] = idx % q
                idx = idx // q
            values = (w[:, lead + 1:] @ coords + w[:, lead:lead + 1]) % q
            lines += int(np.all(values != 0, axis=0).sum())
    return (q - 1) * lines


@dataclass(frozen=True)
class PrimeWitness:
    prime: int
    point_count: int
    accepted: bool


def _lagrange(points):
    """Exact interpolation through (x, y) pairs; dense Fraction coefficients."""
    acc = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        num = [Fraction(1)]
        den = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # multiply num by (t - xj)
            num = [Fraction(0)] + num
            for p in range(len(num) - 1):
                num[p] -= xj * num[p + 1]
            den *= xi - xj
        scale = Fraction(yi, den)
        for p, c in enumerate(num):
            acc[p] += scale * c
    return acc


def finite_field_char_poly(arr, primes=None, with_witnesses=False):
    """Characteristic polynomial by counting points over several F_q.

    Needs at least dim+1 distinct primes, each beyond the minor bound (so no
    rank can degenerate) and small enough that q**dim stays enumerable.
    Every count must fit one integer polynomial of degree dim, or
    InconsistentCounts is raised.
    """
    ell = arr.dim
    if primes is None and _hadamard_bound(arr) ** ell <= MAX_POINTS:
        # The minor bound is at most r, the largest integer with
        # r**dim <= MAX_POINTS.  If fewer than dim+1 primes are <= r, the
        # search above the minor bound stops at the first prime above r,
        # as this one does, with the same BadPrime; skip the minors.
        _primes_above(0, ell, ell + 1)
    bound = minor_bound(arr)
    if primes is None:
        primes = _primes_above(bound, ell, ell + 1)
    primes = list(dict.fromkeys(int(q) for q in primes))
    if len(primes) < ell + 1:
        raise BadPrime(f"need at least dim+1 = {ell + 1} distinct primes")
    for q in primes:
        if not _is_prime(q):
            raise BadPrime(f"{q} is not prime")
        if q <= bound:
            raise BadPrime(f"prime {q} does not exceed the minor bound {bound}")
        if q ** ell > MAX_POINTS:
            raise BadPrime(
                f"{q}**{ell} exceeds the point-enumeration budget {MAX_POINTS}"
            )
    witnesses = tuple(PrimeWitness(q, point_count(arr, q), True) for q in primes)
    coeffs = _lagrange([(w.prime, w.point_count) for w in witnesses[: ell + 1]])
    for w in witnesses:
        value = sum(c * w.prime ** p for p, c in enumerate(coeffs))
        if value != w.point_count:
            raise InconsistentCounts(
                f"count at q={w.prime} does not fit the interpolant"
            )
    if any(c.denominator != 1 for c in coeffs):
        raise InconsistentCounts("interpolant has non-integer coefficients")
    poly = IntPoly([int(c) for c in coeffs])
    if poly.degree != ell or not poly.is_monic():
        raise InconsistentCounts(
            f"interpolant {poly} is not monic of degree {ell}"
        )
    if with_witnesses:
        return poly, witnesses
    return poly


def _affine_pairs(arr):
    if isinstance(arr, CentralArrangement):
        return arr.dim, tuple(sorted((tuple(f), 0) for f in arr.forms))
    return arr.dim, tuple(sorted((tuple(n), c) for n, c in arr.hyperplanes))


def _restrict_onto(head, rest):
    """Restrictions of the remaining hyperplanes onto the hyperplane head.

    Eliminating x_j (the pivot of a) from b.x = d with a.x = c leaves the
    integer equation (a_j*b - b_j*a).x = a_j*d - b_j*c, x_j dropped.
    """
    a, c = head
    j = next(i for i, v in enumerate(a) if v != 0)
    out = set()
    for b, d in rest:
        normal = [a[j] * b[i] - b[j] * a[i] for i in range(len(a)) if i != j]
        if not any(normal):
            continue  # parallel hyperplane, empty trace
        out.add(normalize_affine(normal, a[j] * d - b[j] * c))
    return tuple(sorted(out))


def region_count_recursion(arr):
    """Chambers of the real complement by r(A) = r(A - H) + r(A | H)."""
    dim, pairs = _affine_pairs(arr)
    memo = {}

    def rec(d, hyps):
        if not hyps:
            return 1
        key = (d, hyps)
        if key not in memo:
            head, tail = hyps[0], hyps[1:]
            memo[key] = rec(d, tail) + rec(d - 1, _restrict_onto(head, tail))
        return memo[key]

    return rec(dim, pairs)


def char_poly_recursion(arr):
    """Characteristic polynomial by chi(A) = chi(A - H) - chi(A | H)."""
    dim, pairs = _affine_pairs(arr)
    memo = {}

    def rec(d, hyps):
        if not hyps:
            return IntPoly.monomial(d)
        key = (d, hyps)
        if key not in memo:
            head, tail = hyps[0], hyps[1:]
            memo[key] = rec(d, tail) - rec(d - 1, _restrict_onto(head, tail))
        return memo[key]

    return rec(dim, pairs)


def moebius_bruteforce(arr, flat=None):
    """Moebius values by literal interval enumeration over all subsets.

    With a flat given, returns mu(flat) (FlatNotInLattice when the subset
    enumeration never produces it); otherwise a dict keyed by the canonical
    equations of every flat.
    """
    rows = hyperplane_rows(arr)
    n = len(rows)
    if n > 16:
        raise ValueError("brute-force Moebius is limited to 16 hyperplanes")
    dim = arr.dim
    spans = {}
    for mask in range(1 << n):
        sel = [rows[i] for i in range(n) if mask >> i & 1]
        ech = echelon(sel, dim + 1)
        if any(
            all(r[j] == 0 for j in range(dim)) and r[dim] != 0 for r in ech.rows
        ):
            continue  # empty intersection (affine case)
        key = ech.rref()
        spans.setdefault(key, ech)
    order = sorted(spans, key=lambda k: (len(k), k))
    mu = {}
    for key in order:
        if not key:
            mu[key] = 1
            continue
        ech = spans[key]
        acc = 0
        for other in order:
            if len(other) >= len(key):
                break  # order is by rank; only strictly larger flats matter
            if all(ech.contains(r) for r in other):
                acc += mu[other]
        mu[key] = -acc
    if flat is None:
        return mu
    if flat.equations not in mu:
        raise FlatNotInLattice("flat not reachable as an intersection of hyperplanes")
    return mu[flat.equations]
