"""Intersection lattices, Moebius values and characteristic polynomials.

A nonempty flat is the intersection of the hyperplanes that contain it, so
the set of those hyperplanes, an int bitmask, identifies it for central and
affine arrangements alike: flats compare and hash on it, and lattices index
them by it.  The lattice is built level by level on integer rows, by walking
restrictions: the flats above a flat X are the flats of the restriction A^X
(Orlik-Terao, Arrangements of Hyperplanes, section 2.1: L(A)_{>=X} is
isomorphic to L(A^X)).  A^X is a dict from the primitive augmented row of
each of its hyperplanes, positive at its pivot, to the mask of the
hyperplanes of A that cut it out of X, so the covers of X are its keys.  A
cover's own restriction takes one step (_restrict): eliminate the key's
pivot from the keys nonzero there, make those primitive again, merge equal
rows and drop the row that vanishes and any nonzero constant (a hyperplane
parallel to the cover).  Every flat arises this way, so the 2**n subset
enumeration is never needed, and only two levels of restrictions are alive
at once.
The same loop fills in the Moebius values from the cover pairs alone, by
Weisner's theorem (Stanley, Enumerative Combinatorics I, Cor. 3.9.3) on the
geometric lattice of the hyperplanes through X: mu(X) = -sum of mu(Y) over
the flats Y that X covers and that do not lie on X's lowest-numbered
hyperplane.  decone and ziegler_restriction are the same step, onto
alpha_{h0} = 1 and alpha_{h0} = 0.

Flats are ordered by (codimension, mask) and carry their arrangement's
rows (_member).  Their equations (the canonical RREF of the hyperplanes'
rows over exact rationals, each row of length dim+1 reading
sum(row[i] * x_i) + row[dim] = 0) are computed on first use, for output
and the brute-force Moebius oracle only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .core import AffineArrangement, CentralArrangement
from .errors import FlatNotInLattice, NonzeroRemainder
from .linalg import _pivot_col, _strip_gcd, echelon
from .polynomials import IntPoly


@dataclass(frozen=True, init=False)
class Flat:
    """A nonempty intersection of hyperplanes, identified by its hyperplane set.

    codim: codimension; mask: the int bitmask of the ambient arrangement's
    hyperplanes that vanish on the flat (bit j for hyperplane j); equality
    and hashing read these two only.  rows: the integer rows of all the
    ambient hyperplanes, shared by the flats of one lattice (None for a
    flat built from its equations).  equations: canonical RREF rows
    (Fraction tuples of length dim+1), computed from rows on first use.
    """

    codim: int
    mask: int

    def __init__(self, codim, mask, rows=None, equations=None):
        # frozen: set attributes the way cached_property sets equations
        self.__dict__.update(codim=codim, mask=mask, rows=rows)
        if equations is not None:
            self.__dict__["equations"] = equations

    @cached_property
    def contained(self):  # the indices of the flat's hyperplanes
        return frozenset(j for j in range(self.mask.bit_length()) if self.mask >> j & 1)

    @cached_property
    def equations(self):
        own = [row for j, row in enumerate(self.rows) if self.mask >> j & 1]
        return echelon(own, len(self.rows[0]) if own else 0).rref()


def hyperplane_rows(arr):
    """Augmented equation rows of an arrangement's hyperplanes."""
    if isinstance(arr, CentralArrangement):
        return [tuple(f) + (0,) for f in arr.forms]
    return [tuple(normal) + (-c,) for normal, c in arr.hyperplanes]


@dataclass
class IntersectionLattice:
    """All flats of an arrangement, with Moebius values.

    flats are ordered by (codim, mask); moebius is parallel to flats.  The
    partial order is reverse inclusion: X <= Y means X contains Y, which is
    equivalent to X.mask being a subset of Y.mask.
    """

    ambient_dim: int
    flats: tuple
    moebius: tuple

    def level(self, codim):
        return [f for f in self.flats if f.codim == codim]

    def level_sizes(self):
        return dict(Counter(f.codim for f in self.flats))

    @cached_property
    def _index(self):
        return {f: i for i, f in enumerate(self.flats)}

    def index_of(self, flat):
        """Position of flat, or None unless it belongs here (see _member)."""
        i = self._index.get(flat)
        return i if i is not None and _member(flat, self.flats[i].rows) else None

    def _position(self, flat):
        i = self.index_of(flat)
        if i is None:
            raise FlatNotInLattice(f"not a flat of this lattice: {flat}")
        return i

    def lookup(self, flat):
        return self.flats[self._position(flat)]

    def moebius_of(self, flat):
        return self.moebius[self._position(flat)]

    @property
    def rank(self):
        return max(f.codim for f in self.flats)


def intersection_lattice(arr):
    """Enumerate all flats with their Moebius values (Weisner's rule)."""
    rows = hyperplane_rows(arr)
    level = {0: _restrict((row, 1 << j) for j, row in enumerate(rows))}
    mu = {0: 1}
    keys = [(0, 0)]
    codim = 0
    while level:
        codim += 1
        nxt = {}  # cover mask -> its restriction; only two levels are alive
        for mask, restricted in level.items():
            for row, bits in restricted.items():
                cover = mask | bits
                if cover not in nxt:
                    nxt[cover] = _restrict(restricted.items(), row)
                    mu[cover] = 0
                    keys.append((codim, cover))
                # each cover pair is met once, after its level is complete
                if not mask & (cover & -cover):
                    mu[cover] -= mu[mask]
        level = nxt

    keys.sort()
    flats = tuple(Flat(c, m, rows) for c, m in keys)
    return IntersectionLattice(arr.dim, flats, tuple(mu[m] for _, m in keys))


def _member(flat, rows):
    """A flat belongs to the lattice of the rows it carries, at (codim, mask)."""
    return flat.rows == rows


def _restrict(pairs, target=None):
    """The restriction {key: mask} of (row, hyperplane mask) pairs.  Without
    a target, each integer row is made a key: primitive and positive at its
    pivot, dropped if it vanishes or is a nonzero constant.  Onto a target
    row the pairs are keys: target's pivot is eliminated from those nonzero
    there, which are made keys again; the others pass through.  Equal keys
    merge in first-seen order.  Keys stay zero at the pivots eliminated
    before, so rows are proportional modulo the flat iff their keys agree."""
    p = None if target is None else _pivot_col(target)
    out = {}
    for row, bits in pairs:
        if p is None or row[p]:
            if p is not None:
                row = [target[p] * x - row[p] * y for x, y in zip(row, target)]
            row = _strip_gcd(row)
            q = _pivot_col(row)
            if q is None or q == len(row) - 1:
                continue
            row = tuple(row) if row[q] > 0 else tuple(-v for v in row)
        out[row] = out.get(row, 0) | bits
    return out


def char_poly(arr, lattice=None):
    """Characteristic polynomial: sum of mu(X) * t**dim(X) over all flats."""
    lat = lattice if lattice is not None else intersection_lattice(arr)
    coeffs = [0] * (arr.dim + 1)
    for flat, mu in zip(lat.flats, lat.moebius):
        coeffs[arr.dim - flat.codim] += mu
    return IntPoly(coeffs)


def reduced_char_poly(arr, lattice=None):
    """chi(A,t) / (t-1) for a central arrangement; the division is exact."""
    if not isinstance(arr, CentralArrangement):
        raise TypeError("reduced characteristic polynomial needs a central arrangement")
    if arr.n_hyperplanes == 0:
        raise NonzeroRemainder("empty arrangement: chi = t**dim has no (t-1) factor")
    chi = char_poly(arr, lattice)
    quotient, remainder = chi.divmod_monic(IntPoly((-1, 1)))
    if remainder.coeffs:
        raise NonzeroRemainder(
            f"chi(A,t) = {chi} is not divisible by t-1; this is a bug"
        )
    return quotient


def chamber_count(arr):
    """Number of chambers of the real complement: (-1)**dim * chi(-1)."""
    chi = char_poly(arr)
    return (-1) ** arr.dim * chi(-1)
