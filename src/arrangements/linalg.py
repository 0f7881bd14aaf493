"""Exact linear algebra over the rationals.

Elimination happens on primitive integer rows (cross-multiplication plus
gcd stripping), so no floating point is ever involved and intermediate
growth stays under control.  No rational row enters: `core` scales input
to integers once.  Fractions leave only through `_Echelon.rref`: its rows
are canonical (equal row spaces give identical rows) and are printed as
the equations of a flat.

`nullspace` takes sparse integer rows, computes the kernel modulo 31-bit
primes and returns {column: int} vectors.  `_rref_mod` runs Gauss-Jordan
on the {column: residue} rows themselves: it walks the columns left to
right with a column -> rows index, pivots on the candidate row with the
fewest nonzeros, and touches only the rows that hold the pivot column.
On dense rows a sparse step costs more than a step of the numpy int64
Gauss-Jordan loop, which pays for every zero but little per entry; so the
rows go to that loop instead when the input's average row and column
would cost more sparse (an integer cost model, asked once).  Residues
below 2**31 keep every product below 2**62 in both loops.  The reduced
row echelon form over F_p is unique, so the pivot rows and the loop change
the time and never the result: everything below reads only that RREF, as
{column: residue} rows, and its pivot columns.  numpy runs only in the
dense loop and is imported there, at its first call, so a process whose
kernels never fill in never loads it; from the RREF on, each kernel vector
is a {column: residue} dict and then a {column: int} dict, holding only
its nonzero entries.

For each free column f the mod-p kernel vector with a 1 at f is lifted to
an integer vector by rational reconstruction (Wang 1981), and the lifted
vectors are then checked exactly over the integers against every row.
Passing the check is a proof that they are positive multiples of the
canonical rational basis: rank mod p never exceeds rank over Q, so there
are at least as many free columns mod p as over Q; a verified vector
is supported on the pivot columns before f and on f itself, where it is
nonzero, so f is free over Q as well.  The free columns therefore agree,
and a kernel vector is fixed by its entries at the free columns.

When a lift or the check fails, the next prime of `_PRIMES` is reduced.
If its pivot columns are those already in use, its vectors are combined
with the earlier ones by the Chinese remainder theorem and the lift is
tried again against the product of the primes, so entries beyond one
prime's reconstruction bound (about 2**15) still lift.  Residues with
different pivot columns do not combine.  Each prefix of the columns has at
least the rank over Q that it has mod p, so the pivot list over Q has at
least as many pivots as any mod-p list and, with as many, is
lexicographically no later: keeping the list with more pivots, or with as
many and lexicographically earlier, and skipping the other prime, never
gives up the list over Q for another.  The proof above only needs the
pivot list in use to come from some prime, whichever primes were combined.
After the last prime the kernel comes from exact integer elimination of
the full rows, which is also the reference the tests compare against.

The exact check multiplies each row by all lifted vectors at once.  With
P = max|row entry| * (most nonzeros in a row) * max|vector entry| and
bits = P.bit_length(), it packs each column's entries into one Python
integer, vector k in digit k of base B = 2**bits.  A row times the packed
columns is then the sum over k of s_k * B**k with s_k = row . v_k, and
|s_k| <= P < B.  That sum is 0 exactly when every s_k is 0: s_0 is
divisible by B and below it in absolute value, so s_0 = 0; divide by B
and repeat.  The check is a proof over the integers with no overflow case.

Before the RREF, the columns that a row with a single nonzero entry forces
to 0 are removed, to a fixpoint (structured Gaussian elimination,
LaMacchia-Odlyzko 1990).  This reads which integer entries are nonzero,
never a residue, so it holds over Q: every kernel vector vanishes on these
columns, and a column on which every kernel vector vanishes is never the
last nonzero entry of one, so it is a pivot column over Q.  The kernel over
Q is therefore the kernel of the remaining system with zeros put back, and
its free columns are the remaining system's.  The certificate carries over
unchanged: the remaining system's rank mod p still never exceeds its rank
over Q, so the mod-p count cannot undercount the free columns, and the
exact check against the remaining system is the check against the original
rows, since the lifted vectors are 0 on the removed columns.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, isqrt, lcm

_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


def _strip_gcd(row):
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return list(row)


def primitive_vector(vec):
    """Canonical representative of an integer vector up to positive scaling:
    primitive integers with the first nonzero entry positive.

    Raises ValueError on the zero vector.
    """
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if next(v for v in vec if v != 0) < 0:
        g = -g
    return tuple(v // g for v in vec)


def _pivot_col(row):
    for j, v in enumerate(row):
        if v != 0:
            return j
    return None


class _Echelon:
    """Incremental integer row echelon: rows kept primitive, pivots sorted."""

    def __init__(self):
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
        """Insert an integer row; returns True if the rank grew."""
        reduced = self.reduce(row)
        if reduced is None:
            return False
        p = _pivot_col(reduced)
        pos = bisect_left(self.pivots, p)
        self.rows.insert(pos, reduced)
        self.pivots.insert(pos, p)
        return True

    @property
    def rank(self):
        return len(self.rows)

    def rref(self):
        """Canonical reduced row echelon form: a tuple of row tuples, each
        entry an int where the pivot divides it and a Fraction otherwise."""
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
            out.append(tuple(x // piv if x % piv == 0 else Fraction(x, piv) for x in r))
        return tuple(out)


def echelon(rows):
    """Build an _Echelon from integer rows."""
    e = _Echelon()
    for r in rows:
        e.add(r)
    return e


def _exact_nullspace(rows, ncols):
    """Canonical kernel basis by exact integer elimination: {column: int}
    vectors, primitive and positive at their free column."""
    red = echelon([row.get(c, 0) for c in range(ncols)] for row in rows).rref()
    pivots = [_pivot_col(r) for r in red]
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        den = lcm(*(r[f].denominator for r in red))
        v = [0] * ncols
        v[f] = den
        for r, p in zip(red, pivots):
            v[p] = -r[f].numerator * (den // r[f].denominator)
        basis.append({c: x for c, x in enumerate(_strip_gcd(v)) if x})
    return basis


# The engine cost model, in units of one dense element update (a numpy
# int64 multiply, subtract and reduce of one entry: about 12 ns on a 2-vCPU
# x86 VM with numpy 2.4).  A sparse entry update is a few dict and set
# operations on Python ints, about 0.5 us there.  A dense step pays about
# 4 000 units for its dozen numpy calls and column scans, however few
# entries it updates; the fixed cost is set higher to pay for building the
# array and reading its rows back.  On the graded kernels of the benchmark
# and of coordinate-changed inputs, fixed costs 5 000 to 10 000 timed alike.
_SPARSE_ENTRY_COST = 40
_DENSE_STEP_COST = 10000


def _rref_mod(rows, ncols, p):
    """Reduced row echelon form mod p of sparse integer rows: its nonzero
    rows as {column: residue} dicts, and their pivot columns.

    Gauss-Jordan on {column: residue} rows, column by column, pivoting on
    the candidate row with the fewest entries; or `_dense_rref` when a
    pivot row of the input's average length, in a column of its average
    height, costs more to eliminate sparsely than one dense step.
    """
    nnz = sum(map(len, rows))
    if nnz:
        height = nnz // ncols
        if _SPARSE_ENTRY_COST * (nnz // len(rows)) * height > _DENSE_STEP_COST + height * ncols:
            return _dense_rref(_dense(rows, ncols, p), p)
    rows = [r for row in rows if (r := {c: u for c, v in row.items() if (u := v % p)})]
    rows_at = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c in row:
            rows_at[c].add(i)
    active = set(range(len(rows)))
    done, pivots = [], []
    for c in range(ncols):
        candidates = rows_at[c] & active
        if not candidates:
            continue
        i = min(candidates, key=lambda k: (len(rows[k]), k))
        pivot, hits = rows[i], rows_at[c] - {i}
        active.remove(i)
        inv = pow(pivot[c], -1, p)
        if inv != 1:
            for k in pivot:
                pivot[k] = pivot[k] * inv % p
        others = [(k, v) for k, v in pivot.items() if k != c]
        for h in hits:
            row = rows[h]
            f = p - row.pop(c)
            for k, v in others:
                old = row.get(k)
                if old is None:
                    row[k] = f * v % p
                    rows_at[k].add(h)
                else:
                    new = (old + f * v) % p
                    if new:
                        row[k] = new
                    else:
                        del row[k]
                        rows_at[k].discard(h)
        rows_at[c] = {i}
        done.append(pivot)
        pivots.append(c)
    return done, pivots


def _dense(rows, ncols, p):
    """int64 array of the residues mod p of sparse integer rows."""
    import numpy as np
    m = np.zeros((len(rows), ncols), dtype=np.int64)
    at = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    m[at, [c for row in rows for c in row]] = [v % p for row in rows for v in row.values()]
    return m


def _dense_rref(m, p):
    """`_rref_mod` of the int64 residue array m, reduced in place from
    column 0."""
    import numpy as np
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == len(m):
            break
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            continue
        k = r + below[0]
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        if others.size:
            m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
    return _sparse(m[: len(pivots)]), pivots


def _sparse(m):
    """The rows of the 2-D array m as {column: nonzero entry} dicts."""
    import numpy as np
    out, (at, cols) = [{} for _ in m], np.nonzero(m)
    for i, j, v in zip(at.tolist(), cols.tolist(), m[at, cols].tolist()):
        out[i][j] = v
    return out


def _denominator(u, p, bound):
    """Wang's rational reconstruction of a residue u mod p: the denominator
    b of the fraction a/b = u with |a| <= bound and 0 < b <= bound, or None."""
    r0, r1, t0, t1 = p, u % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return abs(t1)


def _lift(vecs, m):
    """Integer vectors congruent mod m to positive multiples of the
    {column: residue} dicts vecs, with entries and multipliers at most
    sqrt(m/2), or None.

    A vector's multiplier grows from the denominator of its first entry,
    in column order, that is beyond the bound, until none is.
    """
    bound, half = isqrt(m // 2), m // 2
    out = []
    for vec in vecs:
        den = 1
        while True:
            w = {c: u - m if (u := x * den % m) > half else u for c, x in vec.items()}
            big = next((x for x in w.values() if abs(x) > bound), None)
            if big is None:
                break
            q = _denominator(big, m, bound)
            if q is None or den * q > bound:
                return None
            den *= q
        out.append(w)
    return out


def _crt(vecs, m, more, p):
    """Residues mod m*p congruent to the {column: residue} dicts vecs mod m
    and to the dicts `more` mod p, a missing key read as 0; keys in
    increasing order."""
    inv = pow(m, -1, p)
    return [
        {c: (x := a.get(c, 0)) + m * ((b.get(c, 0) - x) * inv % p) for c in sorted({*a, *b})}
        for a, b in zip(vecs, more)
    ]


def _kills(rows, basis):
    """True iff every {column: int} vector of `basis` satisfies every sparse
    row exactly: one product per row entry against the packed columns (see
    the module docstring).  `nullspace` calls it on nonempty rows and basis."""
    entry = max(abs(v) for row in rows for v in row.values())
    top = max(abs(x) for vec in basis for x in vec.values())
    bits = (entry * max(map(len, rows)) * top).bit_length()
    packed = {}
    for k, vec in enumerate(basis):
        shift = k * bits
        for c, x in vec.items():
            packed[c] = packed.get(c, 0) + (x << shift)
    return not any(sum(v * packed.get(c, 0) for c, v in row.items()) for row in rows)


def _forced_zero_columns(rows):
    """Columns that a row with a single live entry forces to 0, repeated to
    a fixpoint (removing a column can leave another row with one entry).
    Only which entries are nonzero integers matters: no prime is involved."""
    live = [len(row) for row in rows]
    rows_of = {}
    for i, row in enumerate(rows):
        for c in row:
            rows_of.setdefault(c, []).append(i)
    forced = set()
    queue = [i for i, n in enumerate(live) if n == 1]
    while queue:
        i = queue.pop()
        if live[i] != 1:
            continue
        c = next(c for c in rows[i] if c not in forced)
        forced.add(c)
        for k in rows_of[c]:
            live[k] -= 1
            if live[k] == 1:
                queue.append(k)
    return forced


def nullspace(rows, ncols):
    """Canonical basis of the right kernel of sparse integer rows.

    rows are {column: nonzero int} dicts.  One basis vector per free column
    of the RREF, ordered by free column index: the RREF vector with a 1 in
    the free position, scaled to primitive integers (a positive multiple).
    Returns {column: nonzero int} dicts, each with its free column as its
    largest key (an empty list for a trivial kernel).
    """
    forced = _forced_zero_columns(rows)
    keep = [c for c in range(ncols) if c not in forced]
    index = {c: k for k, c in enumerate(keep)}
    reduced = []
    for row in rows:
        live = {index[c]: v for c, v in row.items() if c not in forced}
        if live:
            reduced.append(live)
    if not reduced:  # every kept column is free: the canonical basis is plain
        return [{c: 1} for c in keep]
    used = None
    for p in _PRIMES:
        red, pivots = _rref_mod(reduced, len(keep), p)
        free = sorted(set(range(len(keep))) - set(pivots))
        if not free:  # rank mod p never exceeds rank over Q
            return []
        # vector f is minus column f of the RREF at the pivots and 1 at f: an
        # RREF row's entries off its pivot are all free, and its pivot is
        # before them, so each vector's keys come in increasing order
        vecs = {f: {} for f in free}
        for row, c in zip(red, pivots):
            for f, v in row.items():
                if f != c:
                    vecs[f][c] = p - v
        vecs = [vec | {f: 1} for f, vec in vecs.items()]
        if used is None or (-len(pivots), pivots) < (-len(used), used):
            used, modulus, residues = pivots, p, vecs
        elif pivots == used:
            residues, modulus = _crt(residues, modulus, vecs, p), modulus * p
        else:
            continue
        basis = _lift(residues, modulus)
        if basis is None:
            continue
        gcds = [gcd(*vec.values()) for vec in basis]
        basis = [{c: x // g for c, x in vec.items()} for vec, g in zip(basis, gcds)]
        if _kills(reduced, basis):
            return [{keep[c]: x for c, x in vec.items()} for vec in basis]
    return _exact_nullspace(rows, ncols)


def det(rows):
    """Exact determinant of a square integer matrix (Bareiss elimination).

    `derivations.saito_check` evaluates the Saito determinant with it, and
    the tests compare `oracles.minor_bound` against it.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    for row in m:
        if len(row) != n or not all(isinstance(x, int) for x in row):
            raise ValueError("determinant needs a square integer matrix")
    if n == 0:
        return 1
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
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]

