"""Exact linear algebra over the rationals.

All routines work on sequences of numbers that are ints or
fractions.Fraction; elimination happens on primitive integer rows
(cross-multiplication plus gcd stripping) so no floating point is ever
involved and intermediate growth stays under control.  Reduced row echelon
forms are canonical: they are used as dictionary keys for flats and for
memoization, so two equal row spaces always produce identical output.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd


def _to_int_row(row):
    """Scale a rational row to a primitive integer list (gcd 1), or None if zero."""
    fracs = [Fraction(x) for x in row]
    if all(x == 0 for x in fracs):
        return None
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]


def _strip_gcd(row):
    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        return [v // g for v in row]
    return list(row)


def primitive_vector(vec):
    """Canonical representative of a rational vector up to positive scaling:
    primitive integers with the first nonzero entry positive.

    Raises ValueError on the zero vector.
    """
    row = _to_int_row(vec)
    if row is None:
        raise ValueError("zero vector has no primitive representative")
    lead = next(v for v in row if v != 0)
    if lead < 0:
        row = [-v for v in row]
    return tuple(row)


def _pivot_col(row):
    for j, v in enumerate(row):
        if v != 0:
            return j
    return None


class _Echelon:
    """Incremental integer row echelon: rows kept primitive, pivots sorted."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []      # primitive int rows, pivot columns strictly increasing
        self.pivots = []    # pivot column per row

    def reduce(self, row):
        """Reduce an integer row against the current rows (no insertion)."""
        row = list(row)
        for p, r in zip(self.pivots, self.rows):
            if row[p] != 0:
                a, b = r[p], row[p]
                row = [a * x - b * y for x, y in zip(row, r)]
        if any(row):
            return _strip_gcd(row)
        return None

    def add(self, row):
        """Insert a rational row; returns True if the rank grew."""
        introw = _to_int_row(row)
        if introw is None:
            return False
        reduced = self.reduce(introw)
        if reduced is None:
            return False
        self._insert(reduced)
        return True

    def _insert(self, reduced):
        p = _pivot_col(reduced)
        pos = bisect_left(self.pivots, p)
        self.rows.insert(pos, reduced)
        self.pivots.insert(pos, p)

    def with_row(self, reduced):
        """A new echelon holding these rows plus one nonzero row already
        reduced against them, as reduce returns it (either sign)."""
        out = _Echelon(self.ncols)
        out.rows, out.pivots = list(self.rows), list(self.pivots)
        out._insert(reduced)
        return out

    def contains(self, row):
        """True if the rational row lies in the current row space."""
        introw = _to_int_row(row)
        if introw is None:
            return True
        return self.reduce(introw) is None

    @property
    def rank(self):
        return len(self.rows)

    def rref(self):
        """Canonical reduced row echelon form: tuple of Fraction tuples."""
        rows = [list(r) for r in self.rows]
        for i in range(len(rows) - 1, -1, -1):
            p = self.pivots[i]
            for k in range(i):
                if rows[k][p] != 0:
                    a, b = rows[i][p], rows[k][p]
                    rows[k] = [a * x - b * y for x, y in zip(rows[k], rows[i])]
                    rows[k] = _strip_gcd(rows[k])
        out = []
        for i, r in enumerate(rows):
            piv = r[self.pivots[i]]
            out.append(tuple(Fraction(x, piv) for x in r))
        return tuple(out)


def echelon(rows, ncols):
    """Build an _Echelon from rational rows."""
    e = _Echelon(ncols)
    for r in rows:
        e.add(r)
    return e


def rref(rows, ncols):
    """Canonical RREF of the row space: tuple of Fraction tuples, zero rows dropped."""
    return echelon(rows, ncols).rref()


def nullspace(rows, ncols):
    """Canonical basis of the right kernel.

    Derived from the RREF: one basis vector per free column, ordered by free
    column index, with a 1 in the free position.  Returns a list of Fraction
    tuples (empty list for a trivial kernel).
    """
    e = echelon(rows, ncols)
    red = e.rref()
    pivots = [_pivot_col(r) for r in red]
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        basis.append(tuple(v))
    return basis


def det(rows):
    """Exact determinant of a square rational matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = []
    scale = Fraction(1)
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
        fracs = [Fraction(x) for x in row]
        denom = 1
        for x in fracs:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        scale /= denom
        m.append([int(x * denom) for x in fracs])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return scale * sign * m[n - 1][n - 1]


def inverse(rows):
    """Exact inverse of a square rational matrix as a list of Fraction lists."""
    n = len(rows)
    aug = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("inverse needs a square matrix")
        aug.append([Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)])
    red = rref(aug, 2 * n)
    if len(red) != n or any(_pivot_col(r) != i for i, r in enumerate(red)):
        raise ValueError("matrix is singular")
    return [list(r[n:]) for r in red]


def vec_mat(vec, rows):
    """Row vector times matrix (list of rows)."""
    ncols = len(rows[0]) if rows else 0
    return [sum(vec[i] * rows[i][j] for i in range(len(rows))) for j in range(ncols)]
