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
cover's own restriction takes one step (_restrict): copy X's dict, and in
the copy eliminate the cover key's pivot from the keys nonzero there only,
touching only the cover key's nonzero columns, make those primitive again,
merge equal rows and drop the row that vanishes and any nonzero constant
(a hyperplane parallel to the cover).
Every flat arises this way, so the 2**n subset enumeration is never
needed, and only two levels of restrictions are alive at once.
The same loop fills in the Moebius values from the cover pairs alone, by
Weisner's theorem (Stanley, Enumerative Combinatorics I, Cor. 3.9.3) on the
geometric lattice of the hyperplanes through X: mu(X) = -sum of mu(Y) over
the flats Y that X covers and that do not lie on X's lowest-numbered
hyperplane.  One walk (_walk) serves L(A) and every interval [X, top]:
started from A^X instead of A's own rows it gives L(A^X), isomorphic to
[X, top], with mu(X, .), because the masks of A^X leave out X's own
hyperplanes, so the lowest bit of a cover is Weisner's atom relative to X.
Cover pairs are met, never stored.  chi with no lattice passed is summed
off the walk's keys and mu, with no Flat built (_chi).  decone and
ziegler_restriction are the same step, onto alpha_{h0} = 1 and
alpha_{h0} = 0.

Flats are ordered by (codimension, mask) and carry their arrangement's
rows (_member).  Their equations (the canonical RREF of the hyperplanes'
rows over exact rationals, each row of length dim+1 reading
sum(row[i] * x_i) + row[dim] = 0) are computed on first use, for output
and the brute-force Moebius oracle only; an integral entry is an int, which
equals and hashes like a Fraction, so keys, sorts and round trips hold.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd

from .core import AffineArrangement, CentralArrangement, _Frozen, _Value
from .errors import FlatNotInLattice, NonzeroRemainder
from .linalg import _pivot_col, echelon, primitive_vector
from .polynomials import IntPoly


class Flat(_Frozen):
    """A nonempty intersection of hyperplanes, identified by its hyperplane set.

    codim: codimension; mask: the int bitmask of the ambient arrangement's
    hyperplanes that vanish on the flat (bit j for hyperplane j); equality
    and hashing read these two only.  rows: the integer rows of all the
    ambient hyperplanes, shared by the flats of one lattice (None for a
    flat built from its equations).  equations: canonical RREF rows (int
    and Fraction tuples of length dim+1), computed from rows on first use.
    """

    _fields = ("codim", "mask")

    def __init__(self, codim, mask, rows=None, equations=None):
        # frozen: set attributes the way cached_property sets equations
        self.__dict__.update(codim=codim, mask=mask, rows=rows)
        if equations is not None:
            self.__dict__["equations"] = equations

    # spelled out, not the base class's field loop: lattice dicts hash flats
    # thousands of times per pass
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.codim == other.codim and self.mask == other.mask

    def __hash__(self):
        return hash((self.codim, self.mask))

    @cached_property
    def contained(self):  # the indices of the flat's hyperplanes
        return frozenset(j for j in range(self.mask.bit_length()) if self.mask >> j & 1)

    @cached_property
    def equations(self):
        own = [row for j, row in enumerate(self.rows) if self.mask >> j & 1]
        return echelon(own).rref()


def hyperplane_rows(arr):
    """Augmented equation rows of an arrangement's hyperplanes."""
    if isinstance(arr, CentralArrangement):
        return [tuple(f) + (0,) for f in arr.forms]
    return [tuple(normal) + (-c,) for normal, c in arr.hyperplanes]


class IntersectionLattice(_Value):
    """All flats of an arrangement, with Moebius values.

    flats are ordered by (codim, mask); moebius is parallel to flats.  The
    partial order is reverse inclusion: X <= Y means X contains Y, which is
    equivalent to X.mask being a subset of Y.mask.
    """

    _fields = ("ambient_dim", "flats", "moebius")

    def __init__(self, ambient_dim, flats, moebius):
        self.ambient_dim = ambient_dim
        self.flats = flats
        self.moebius = moebius

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
    keys, mu = _walk(_keys(rows))
    keys.sort()
    flats = tuple(Flat(c, m, rows) for c, m in keys)
    return IntersectionLattice(arr.dim, flats, tuple(mu[m] for _, m in keys))


def _walk(start):
    """(the (codim, mask) keys, by codim, {mask: mu}) of the flats of the
    restriction start, by the module docstring's level loop.  Started from
    A^X, the codims and masks are relative to X (its own hyperplanes are
    in no mask) and mu is mu(X, .) on the interval [X, top]."""
    level = {0: start}
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
                    nxt[cover] = _restrict(restricted, row)
                    mu[cover] = 0
                    keys.append((codim, cover))
                # each cover pair is met once, after its level is complete
                if not mask & (cover & -cover):
                    mu[cover] -= mu[mask]
        level = nxt
    return keys, mu


def _member(flat, rows):
    """A flat belongs to the lattice of the rows it carries, at (codim, mask);
    nothing but a Flat belongs to any lattice."""
    return isinstance(flat, Flat) and flat.rows == rows


def _keys(rows):
    """The restriction of an arrangement's rows onto the ambient space: the
    rows made keys (their normals are nonzero, no two are proportional)."""
    return {primitive_vector(row): 1 << j for j, row in enumerate(rows)}


def _restrict(parent, target):
    """The restriction {key: mask} of the restriction parent onto a row
    target with pivot p.  Keys zero at p pass through; each other key
    becomes target[p] * key - key[p] * target, zero at p (so it meets no key
    still to go): a copy of the key, scaled unless target[p] is 1, less
    key[p] * target at the target's nonzero columns only; made primitive
    and positive at its pivot, dropped if it vanishes or is a nonzero
    constant, else merged into an equal key or put last.  Keys stay zero at
    the pivots eliminated before, so rows are proportional modulo the flat
    iff their keys agree."""
    p = _pivot_col(target)
    a, out = target[p], dict(parent)
    support = [(i, y) for i, y in enumerate(target) if y]
    for row, bits in parent.items():
        if b := row[p]:
            del out[row]
            row = list(row) if a == 1 else [a * x for x in row]
            for i, y in support:
                row[i] -= b * y
            if s := next(filter(None, row[:-1]), 0):  # primitive_vector inlined
                g = gcd(*row) if s > 0 else -gcd(*row)
                row = tuple([v // g for v in row]) if g != 1 else tuple(row)
                out[row] = out.get(row, 0) | bits
    return out


def _chi_sum(dim, pairs):
    """sum of mu * t**(dim - codim) over (codim, mu) pairs."""
    coeffs = [0] * (dim + 1)
    for codim, mu in pairs:
        coeffs[dim - codim] += mu
    return IntPoly(coeffs)


def _chi(dim, start):
    """chi(A^X) from the restriction start A^X, of dimension dim, summed
    over the walk's keys, with no Flat built."""
    keys, mu = _walk(start)
    return _chi_sum(dim, ((codim, mu[mask]) for codim, mask in keys))


def char_poly(arr, lattice=None):
    """Characteristic polynomial: sum of mu(X) * t**dim(X) over all flats,
    summed off the walk when no lattice is passed; a lattice passed in must
    be arr's own (_member), else FlatNotInLattice."""
    if lattice is None:
        return _chi(arr.dim, _keys(hyperplane_rows(arr)))
    if lattice.flats and not (
        _member(lattice.flats[0], hyperplane_rows(arr))
        # the flats of one build share one rows list, whose rows compare by identity
        and all(_member(flat, lattice.flats[0].rows) for flat in lattice.flats)
    ):
        raise FlatNotInLattice("the lattice passed is not the arrangement's own")
    return _chi_sum(arr.dim, zip((flat.codim for flat in lattice.flats), lattice.moebius))


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
